import pytest

from linkgamma import exactnum


@pytest.fixture(autouse=True)
def cold_expansions():
    # each test starts with no expansion kept, so a route it counts does not
    # depend on what an earlier test left in the memo (exactnum._expansion)
    exactnum._expansions = ()
