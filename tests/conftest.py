import pytest
from hypothesis import settings

from qpm.algebra import Params
from qpm.duality import Theory

# CI passes --hypothesis-profile=ci, so every run there draws the same
# examples; local runs keep hypothesis' random default.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def P12():
    return Params(1, 2)


@pytest.fixture(scope="session")
def P13():
    return Params(1, 3)


@pytest.fixture(scope="session")
def P23():
    return Params(2, 3)


@pytest.fixture(scope="session")
def T12(P12):
    return Theory(P12)


@pytest.fixture(scope="session")
def T13(P13):
    return Theory(P13)


@pytest.fixture(scope="session")
def T23(P23):
    return Theory(P23)


@pytest.fixture(scope="session")
def T32():
    return Theory(Params(3, 2))


@pytest.fixture(scope="session")
def T14():
    return Theory(Params(1, 4))
