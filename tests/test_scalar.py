import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidfoq import Field, FieldMismatch, Matrix, Scalar, SingularMatrix


def test_root_of_unity_order(f8):
    z = f8.root(1)
    assert z * z ** 7 == f8.one()


def test_canonical_reduction(f8):
    z = f8.root(1)
    assert z ** 4 == -f8.one()
    # the coefficient vector itself is reduced to degree < phi(8) = 4
    assert len((z ** 4).coeffs) == 4


def test_conjugation_on_circle(f8):
    z = f8.root(1)
    assert (z ** 3).conj() == z ** 5


def test_conj_is_involution_and_multiplicative(f8):
    rng = random.Random(0)
    for _ in range(25):
        a = f8.from_rational(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))) * f8.root(rng.randrange(8))
        b = f8.root(rng.randrange(8)) + f8.from_int(rng.randrange(-2, 3))
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()


def test_unit_modulus(f8):
    for k in range(8):
        zk = f8.root(k)
        assert zk * zk.conj() == f8.one()


def test_inverse_and_division(f8):
    z = f8.root(3)
    a = z + f8.from_int(2)
    assert a * a.inverse() == f8.one()
    with pytest.raises(ZeroDivisionError):
        f8.zero().inverse()


def test_field_mismatch_rejected(f8):
    other = Field.cyclotomic(12)
    with pytest.raises(FieldMismatch):
        f8.one() + other.one()


def test_embed_examples(f8):
    f32 = Field.cyclotomic(32)
    assert f8.root(1).embed_into(f32) == f32.root(4)
    assert f8.one().embed_into(f32) == f32.one()
    f2 = Field.cyclotomic(2)
    minus_one = f2.from_int(-1)
    assert minus_one.embed_into(f8) == f8.root(4)
    with pytest.raises(ValueError):
        f8.root(1).embed_into(Field.cyclotomic(12))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 23)), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 23)), min_size=1, max_size=5))
def test_exact_equality_matches_float_evaluation(terms_a, terms_b):
    field = Field.cyclotomic(24)
    a = field.zero()
    for coeff, k in terms_a:
        a = a + field.from_int(coeff) * field.root(k)
    b = field.zero()
    for coeff, k in terms_b:
        b = b + field.from_int(coeff) * field.root(k)
    close = abs(a.to_complex() - b.to_complex()) < 1e-9
    assert (a == b) == close


def test_matrix_inverse_example(f8):
    z = f8.root(1)
    zero, one = f8.zero(), f8.one()
    m = Matrix(f8, [[zero, z ** 7], [one, zero]])
    inv = m.inverse()
    assert inv == Matrix(f8, [[zero, one], [z, zero]])
    assert m @ inv == Matrix.identity(f8, 2)


def test_identity_multiplication(f8):
    z = f8.root(1)
    m = Matrix(f8, [[z, f8.one()], [f8.zero(), z ** 3]])
    assert Matrix.identity(f8, 2) @ m == m


def test_scalar_multiple_detection(f8):
    minus = -f8.one()
    m = Matrix(f8, [[minus, f8.zero()], [f8.zero(), minus]])
    assert m.scalar_multiple_of_identity() == minus
    m2 = Matrix(f8, [[f8.one(), f8.zero()], [f8.zero(), f8.from_int(2)]])
    assert m2.scalar_multiple_of_identity() is None


def test_matrix_inverse_round_trip_random():
    field = Field.cyclotomic(8)
    rng = random.Random(1234)
    done = 0
    while done < 200:
        n = rng.randrange(1, 7)
        entries = [[field.from_int(rng.randrange(-2, 3)) * field.root(rng.randrange(8))
                    for _ in range(n)] for _ in range(n)]
        m = Matrix(field, entries)
        try:
            inv = m.inverse()
        except SingularMatrix:
            continue
        ident = Matrix.identity(field, n)
        assert m @ inv == ident
        assert inv @ m == ident
        done += 1


def test_singular_matrix_reports_rank(f8):
    one, zero = f8.one(), f8.zero()
    m = Matrix(f8, [[one, one], [one, one]])
    with pytest.raises(SingularMatrix) as err:
        m.inverse()
    assert err.value.rank == 1


def test_scalar_json_round_trip(f8):
    a = f8.root(3) * f8.from_rational(Fraction(-7, 2)) + f8.one()
    data = a.to_json()
    assert data["kind"] == "cyclo" and data["order"] == 8
    assert Scalar.from_json(data, f8) == a
    approx = Field.approx(1e-10)
    b = approx.from_complex(0.25 - 1.5j)
    assert Scalar.from_json(b.to_json(), approx) == b


def test_fields_and_scalars_survive_pickling(f8):
    approx = Field.approx(1e-9)
    for field in (f8, approx):
        back = pickle.loads(pickle.dumps(field))
        assert back == field and hash(back) == hash(field)
    # an unpickled exact field shares the cached reduction table
    assert pickle.loads(pickle.dumps(f8))._table is f8._table
    exact = f8.root(3) * f8.from_rational(Fraction(2, 3)) + f8.one()
    back = pickle.loads(pickle.dumps(exact))
    assert back == exact and hash(back) == hash(exact)
    near = approx.from_complex(0.5 - 2j)
    assert pickle.loads(pickle.dumps(near)) == near


def test_approx_mode_tolerance():
    field = Field.approx(1e-6)
    a = field.from_complex(1.0)
    b = field.from_complex(1.0 + 1e-8)
    assert a == b
    assert not (a == field.from_complex(1.1))


def test_as_root_exponent(f8):
    assert (f8.root(5)).as_root_exponent() == 5
    assert (f8.root(1) + f8.one()).as_root_exponent() is None


def test_approx_matrix_inverse():
    field = Field.approx(1e-10)
    m = Matrix(field, [[field.from_complex(1 + 1j), field.from_complex(2)],
                       [field.from_complex(0.5j), field.from_complex(-1)]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(field, 2)


def test_approx_singular_matrix():
    field = Field.approx(1e-10)
    one = field.from_complex(1.0)
    m = Matrix(field, [[one, one], [one, one]])
    with pytest.raises(SingularMatrix):
        m.inverse()


# -- the exact kernel against an independent Fraction reference --------------

# Phi_N as {exponent: coefficient}, written out here rather than taken from
# the library; 48 and 120 are the embedding targets of 24 and 60
_CYCLOTOMIC = {
    8: {0: 1, 4: 1},
    12: {0: 1, 2: -1, 4: 1},
    24: {0: 1, 4: -1, 8: 1},
    48: {0: 1, 8: -1, 16: 1},
    60: {0: 1, 2: 1, 6: -1, 8: -1, 10: -1, 14: 1, 16: 1},
    120: {0: 1, 4: 1, 12: -1, 16: -1, 20: -1, 28: 1, 32: 1},
}
_EMBED_TARGET = {8: 24, 12: 60, 24: 48, 60: 120}


def _ref_reduce(vec, order):
    """Reduce a Fraction coefficient list modulo the monic Phi_order."""
    poly = _CYCLOTOMIC[order]
    deg = max(poly)
    vec = list(vec) + [Fraction(0)] * (deg - len(vec))
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            for e, p in poly.items():
                vec[k - deg + e] -= c * p
    return vec[:deg]


def _ref_mul(a, b, order):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, order)


def _ref_substitute(a, step, target):
    """The image of sum a_i x^i under x^i -> x^(i * step) in Q(zeta_target)."""
    out = [Fraction(0)] * max(_CYCLOTOMIC[target])
    for i, c in enumerate(a):
        image = _ref_reduce([Fraction(0)] * ((i * step) % target) + [Fraction(1)], target)
        out = [o + c * m for o, m in zip(out, image)]
    return out


_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _operand(draw, order):
    """Reference coordinates: (p/q) zeta^k, or a dense vector whose
    coordinates have mixed denominators."""
    deg = max(_CYCLOTOMIC[order])
    if draw(st.booleans()):
        c, k = draw(_fractions), draw(st.integers(0, order - 1))
        return [c * r for r in _ref_reduce([Fraction(0)] * k + [Fraction(1)], order)]
    return draw(st.lists(st.one_of(st.just(Fraction(0)), _fractions),
                         min_size=deg, max_size=deg))


def _assert_normalised(s):
    assert len(s.num) == s.field.degree
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1


def _assert_matches(got, expected):
    assert list(got.coeffs) == expected
    _assert_normalised(got)
    same = got.field.from_coeffs(expected)
    assert got == same and hash(got) == hash(same)
    data = got.to_json()
    assert data["coeffs"] == [[str(q.numerator), str(q.denominator)] for q in expected]
    assert Scalar.from_json(data) == got
    assert Scalar.from_json(data, got.field) == got


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_kernel_matches_fraction_reference(data):
    order = data.draw(st.sampled_from((8, 12, 24, 60)))
    field = Field.cyclotomic(order)
    ra, rb = data.draw(_operand(order)), data.draw(_operand(order))
    a, b = field.from_coeffs(ra), field.from_coeffs(rb)
    _assert_matches(a, ra)
    _assert_matches(a + b, [x + y for x, y in zip(ra, rb)])
    _assert_matches(a - b, [x - y for x, y in zip(ra, rb)])
    _assert_matches(-a, [-x for x in ra])
    _assert_matches(a * b, _ref_mul(ra, rb, order))
    _assert_matches(a.conj(), _ref_substitute(ra, -1, order))
    target = _EMBED_TARGET[order]
    _assert_matches(a.embed_into(Field.cyclotomic(target)),
                    _ref_substitute(ra, target // order, target))
    # equal values reached along different paths hash alike
    round_trip = (a + b) - b
    assert round_trip == a and hash(round_trip) == hash(a)
    if any(ra):
        inv = a.inverse()
        _assert_normalised(inv)
        one = [Fraction(1)] + [Fraction(0)] * (field.degree - 1)
        assert _ref_mul(ra, list(inv.coeffs), order) == one
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
