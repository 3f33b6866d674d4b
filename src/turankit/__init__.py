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
"""

from .errors import DomainError, PoleError, TermCapError
from .exact import parse_rational, pochhammer
from .intervals import (CertifiedInterval, gamma_ratio, get_precision,
                        log_gamma, working_precision)
from .series import (Family, HypSeriesSpec, MkProfile, MonotoneClass,
                     PsiCoefficient, Sign, binomial_upper, gamma_quotient,
                     gauss_lower, gauss_upper, kummer_gamma, kummer_lower,
                     kummer_upper, lambda_coefficients, mk_profile,
                     phi_coefficients, psi_coefficients, weight_ratio_class)
from .lemmas import (ChainKind, ChainReport, NecessityWitness,
                     PositivePolynomial, RatioChainReport, RatioMonotonicity,
                     check_ratio_chain, check_symmetric_chain,
                     elementary_symmetric, necessity_witness,
                     ratio_R_monotone, truncated_chain_holds,
                     two_f_two_condition, wronskian_coeffs)
from .evalf import (ConjectureReport, EulerPfaffReport, EvalResult, PFQSpec,
                    StepKind, TransformReport, check_euler_pfaff,
                    check_kummer_transform, cross_ratio, default_log_grid,
                    eval_1f1, eval_pfq, explore_conjecture)
from .finite_sums import (Link4F3Report, QfqResult, QfqVerdict,
                          TerminatingSum, check_4f3_coefficient_link,
                          eval_qfq_sum, eval_terminating, link_factor,
                          qfq_sum, thm4d_sum)
from .verify import (Case, SignReport, TwoSidedBoundReport, Verdict,
                     default_cases, run_case, verify_corollary_twosided,
                     verify_theorem1, verify_theorem2, verify_theorem3,
                     verify_turan)

__version__ = "0.1.0"
