import pytest

from lseries_lab import lseries


@pytest.fixture(autouse=True)
def cold_pass_cache():
    """Every test starts and ends with no kept Euler-Maclaurin pass, so a
    kernel a test swaps in never answers a later test from the cache, and a
    count of kernel calls does not depend on which tests ran before."""
    lseries._residue_pass.cache_clear()
    yield
    lseries._residue_pass.cache_clear()
