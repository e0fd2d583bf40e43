import pytest

from lseries_lab import lseries

KEPT_WORK = (lseries._residue_pass, lseries._shifted, lseries._modulus)


@pytest.fixture(autouse=True)
def cold_pass_cache():
    """Every test starts and ends with no kept Euler-Maclaurin pass, shift
    table, or units and roots list of a modulus, so a kernel a test swaps in
    never answers a later test from a memo, and a count of kernel calls or
    table reads does not depend on which tests ran before."""
    for memo in KEPT_WORK:
        memo.cache_clear()
    yield
    for memo in KEPT_WORK:
        memo.cache_clear()
