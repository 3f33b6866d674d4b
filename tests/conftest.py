"""Fixtures every test module shares."""

import pytest

from turankit import verify


@pytest.fixture(autouse=True)
def cold_row_reads():
    """Each test starts and ends with an empty row-read cache, so that a
    read made from tampered rows reaches no later test."""
    verify._read_point.cache_clear()
    yield
    verify._read_point.cache_clear()
