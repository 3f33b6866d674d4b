"""Fixtures every test module shares."""

import pytest

from turankit import intervals, series, verify


def pytest_addoption(parser):
    parser.addoption("--checker-M", type=int, default=40,
                     help="the order at which tests/test_sign_filter.py runs the "
                          "independent checker on the default shift points")


# the process-wide memos a test can fill, or fill with a patched value
MEMOS = (verify._read_point, intervals._gamma_ratio, series._weight_class)


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts and ends with an empty row-read cache, and empty
    Gamma-ratio and weight-class memos, so that a read made from tampered
    rows reaches no later test, and no test passes on what an earlier
    one computed."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
