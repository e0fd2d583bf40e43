import pytest

from lseries_lab import characters, lseries

KEPT_WORK = (lseries._residue_pass, lseries._shifted, lseries._units, characters._numbers)


@pytest.fixture(autouse=True)
def cold_pass_cache():
    """Every test starts and ends with no kept Euler-Maclaurin pass, shift
    table, unit list or map of root numbers, so a kernel a test swaps in
    never answers a later test from a memo, and a count of kernel calls or
    table reads does not depend on which tests ran before."""
    for memo in KEPT_WORK:
        memo.cache_clear()
    yield
    for memo in KEPT_WORK:
        memo.cache_clear()
