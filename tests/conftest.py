import pytest

import ccl


@pytest.fixture(scope="session")
def built():
    """Cache of (RootSystem, Group) pairs, built once per session."""
    cache = {}

    def get(spec: str):
        if spec not in cache:
            rs = ccl.build(ccl.GroupType.parse(spec))
            cache[spec] = (rs, ccl.enumerate_group(rs))
        return cache[spec]

    return get
