import pytest

from braidfoq import Field, Matrix
from braidfoq.suite import fixture_e0, fixture_e1, fixture_e2


@pytest.fixture(scope="session")
def f8():
    return Field.cyclotomic(8)


@pytest.fixture(scope="session")
def e0():
    return fixture_e0()


@pytest.fixture(scope="session")
def e1():
    return fixture_e1()


@pytest.fixture(scope="session")
def e2():
    return fixture_e2()


# helpers for the tests: the library itself never needs them


def zeros(field, rows, cols):
    """The rows x cols zero matrix over ``field``."""
    zero = field.zero()
    return Matrix(field, [[zero] * cols for _ in range(rows)])


def abs_squared(x):
    """|x|^2 as the scalar x * conj(x)."""
    return x * x.conj()
