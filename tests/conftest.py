import pytest

from canalis import enumerate_classify

_CENSUS_CACHE = {}


def cached_census(n):
    """Censuses are pure values; share them across test modules."""
    if n not in _CENSUS_CACHE:
        _CENSUS_CACHE[n] = enumerate_classify(n)
    return _CENSUS_CACHE[n]


@pytest.fixture(scope="session")
def census():
    return cached_census
