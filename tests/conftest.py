import pytest

from braidfoq import Field, Matrix
from braidfoq.freealg import AlgebraElement, Word
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


def strip_unit_factors(element):
    """Cancel a common right z-power and normalize the leading coefficient."""
    if element.is_zero():
        return element
    zexps = {w.zexp for w in element.terms}
    shift = next(iter(zexps)) if len(zexps) == 1 else 0
    shifted = element
    if shift:
        shifted = element * AlgebraElement.monomial(element.context, Word(-shift, ()))
    lead_coeff = shifted.sorted_terms()[0][1]
    return shifted.scale(lead_coeff.inverse())
