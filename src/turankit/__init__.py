"""Exact and certified-interval tools for log-convexity, log-concavity and
Turan-type inequalities of hypergeometric-type series.

The package verifies, over exact rational arithmetic wherever possible and
certified interval arithmetic elsewhere:

* one-signedness of the power-series coefficients of the shifted
  cross-product differences f(a+d)f(b) - f(a)f(b+d) for three families of
  series (upper-factor, gamma-factor, lower-factor weights);
* the resulting two-sided bounds for ratios of products of Kummer and
  Gauss functions, including Turan-type inequalities;
* chain conditions under which ratios of such series are monotone;
* positivity of associated terminating hypergeometric sums at unit
  argument;
* numerical evidence for a conjectured monotone cross-ratio.

The names of :mod:`turankit.lemmas` and :mod:`turankit.finite_sums` are
exported too, but those modules are imported on first use (PEP 562), since
the command line uses neither.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import DomainError, PoleError, TermCapError
from .exact import parse_rational, pochhammer
from .intervals import (CertifiedInterval, gamma_ratio, get_precision,
                        log_gamma, working_precision)
from .series import (Family, HypSeriesSpec, MkProfile, MonotoneClass,
                     PsiCoefficient, Sign, binomial_upper, gamma_quotient,
                     gauss_lower, gauss_upper, kummer_gamma, kummer_lower,
                     kummer_upper, lambda_coefficients, mk_profile,
                     phi_coefficients, psi_coefficients, weight_ratio_class)
from .evalf import (ConjectureReport, EulerPfaffReport, EvalResult, PFQSpec,
                    StepKind, TransformReport, check_euler_pfaff,
                    check_kummer_transform, cross_ratio, default_log_grid,
                    eval_1f1, eval_pfq, explore_conjecture)
from .verify import (Case, SignReport, TwoSidedBoundReport, Verdict,
                     default_cases, run_case, verify_corollary_twosided,
                     verify_theorem1, verify_theorem2, verify_theorem3,
                     verify_turan)

__version__ = "0.1.0"

# exported name -> the module that defines it, imported when first asked for
_LAZY = {
    **dict.fromkeys(("ChainKind", "ChainReport", "NecessityWitness",
                     "PositivePolynomial", "RatioChainReport",
                     "RatioMonotonicity", "check_ratio_chain",
                     "check_symmetric_chain", "elementary_symmetric",
                     "necessity_witness", "ratio_R_monotone",
                     "truncated_chain_holds", "two_f_two_condition",
                     "wronskian_coeffs"), "lemmas"),
    **dict.fromkeys(("Link4F3Report", "QfqResult", "QfqVerdict",
                     "TerminatingSum", "check_4f3_coefficient_link",
                     "eval_qfq_sum", "eval_terminating", "link_factor",
                     "qfq_sum", "thm4d_sum"), "finite_sums"),
}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_")
                  and not isinstance(value, _ModuleType)] + list(_LAZY))


def __getattr__(name):
    if name in _LAZY.values():
        # the module itself, as ``turankit.lemmas`` after ``import turankit``
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
