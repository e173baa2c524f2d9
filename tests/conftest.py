import pytest

from heckedyn.ssgraph import build_ssgraph

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples, no timing: the property tests give the same verdict
    # on every run
    settings.register_profile("heckedyn", derandomize=True, deadline=None)
    settings.load_profile("heckedyn")


@pytest.fixture(scope="session")
def g_11_5_1():
    return build_ssgraph(11, 5, 1)


@pytest.fixture(scope="session")
def g_13_5_1():
    return build_ssgraph(13, 5, 1)


@pytest.fixture(scope="session")
def g_11_3_1():
    return build_ssgraph(11, 3, 1)


@pytest.fixture(scope="session")
def g_11_3_4():
    return build_ssgraph(11, 3, 4)
