import functools
import math
import pickle
import random
import threading
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidfoq import Field, FieldMismatch, Matrix, Scalar, SingularMatrix
from braidfoq.scalar import _ApproxKernel, _CycloTable


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


def test_matrix_product_rejects_mismatched_fields(f8):
    f12 = Field.cyclotomic(12)
    with pytest.raises(FieldMismatch):
        Matrix(f8, [[f8.root(1)]]) @ Matrix(f12, [[f12.root(1)]])
    # an equal field that is another object multiplies
    twin = Field.cyclotomic(8)
    product = Matrix(f8, [[f8.root(1)]]) @ Matrix(twin, [[twin.root(1)]])
    assert product == Matrix(f8, [[f8.root(2)]])


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
    # an unpickled exact field shares the cached per-order kernel
    assert pickle.loads(pickle.dumps(f8)).kernel is f8.kernel
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


@pytest.mark.parametrize("order", [1, 5, 8, 15, 24])
def test_as_root_exponent_inverts_root(order):
    field = Field.cyclotomic(order)
    assert [field.root(k).as_root_exponent() for k in range(order)] == list(range(order))
    assert field.root(-1).as_root_exponent() == order - 1
    half = field.from_rational(Fraction(1, 2))
    non_roots = [field.zero(), field.from_int(2), field.root(1) + field.one(),
                 *(half * field.root(k) for k in range(order))]
    if order % 2:
        # -zeta_N^k is a 2N-th root of unity, not an N-th one
        non_roots += [-field.root(k) for k in range(order)]
    else:
        assert (-field.one()).as_root_exponent() == order // 2
    assert all(x.as_root_exponent() is None for x in non_roots)


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
# the library; 48, 120 and 480 are the embedding targets of 24, 60 and 240
_CYCLOTOMIC = {
    4: {0: 1, 2: 1},
    5: {0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
    8: {0: 1, 4: 1},
    9: {0: 1, 3: 1, 6: 1},
    12: {0: 1, 2: -1, 4: 1},
    16: {0: 1, 8: 1},
    24: {0: 1, 4: -1, 8: 1},
    48: {0: 1, 8: -1, 16: 1},
    60: {0: 1, 2: 1, 6: -1, 8: -1, 10: -1, 14: 1, 16: 1},
    120: {0: 1, 4: 1, 12: -1, 16: -1, 20: -1, 28: 1, 32: 1},
    240: {0: 1, 8: 1, 24: -1, 32: -1, 40: -1, 56: 1, 64: 1},
    480: {0: 1, 16: 1, 48: -1, 64: -1, 80: -1, 112: 1, 128: 1},
}
_EMBED_TARGET = {8: 24, 12: 60, 24: 48, 60: 120, 240: 480}


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


@functools.lru_cache(maxsize=None)
def _ref_power(k, order):
    return tuple(_ref_reduce([Fraction(0)] * k + [Fraction(1)], order))


def _ref_substitute(a, step, target):
    """The image of sum a_i x^i under x^i -> x^(i * step) in Q(zeta_target)."""
    out = [Fraction(0)] * max(_CYCLOTOMIC[target])
    for i, c in enumerate(a):
        if c:
            out = [o + c * m for o, m in zip(out, _ref_power((i * step) % target, target))]
    return out


_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _operand(draw, order):
    """Reference coordinates: (p/q) zeta^k, or a dense vector whose
    coordinates have mixed denominators."""
    deg = max(_CYCLOTOMIC[order])
    if draw(st.booleans()):
        c, k = draw(_fractions), draw(st.integers(0, order - 1))
        return [c * r for r in _ref_power(k, order)]
    return draw(st.lists(st.one_of(st.just(Fraction(0)), _fractions),
                         min_size=deg, max_size=deg))


def _assert_normalised(s):
    """s.raw is the one value format: (n_0, ..., n_{d-1}, den), normalised."""
    *num, den = s.raw
    assert type(s.raw) is tuple and len(num) == s.field.degree
    assert den > 0 and math.gcd(den, *num) == 1
    if not any(num):
        assert s.raw == (0,) * s.field.degree + (1,)
    assert Scalar.from_json(s.to_json(), s.field).raw == s.raw


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
    # 240 (degree 64) runs the sparse loop kernel
    order = data.draw(st.sampled_from((8, 12, 24, 60, 240)))
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


# -- the certifier's raw multiply kernel against the same reference ----------


@st.composite
def _kernel_operand(draw, order):
    """Reference coordinates: a monomial, a dense vector with mixed
    denominators, or a dense integer vector (denominator 1)."""
    deg = max(_CYCLOTOMIC[order])
    if draw(st.booleans()):
        return [Fraction(c) for c in draw(st.lists(st.integers(-9, 9),
                                                   min_size=deg, max_size=deg))]
    return draw(_operand(order))


# 4 to 60 run generated straight-line code; 120 (degree 32) the sparse loop;
# in the odd orders 5 and 9 the reduction rows wrap round the order
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_raw_kernel_matches_fraction_reference(data):
    order = data.draw(st.sampled_from((4, 5, 8, 9, 12, 16, 24, 48, 60, 120)))
    field = Field.cyclotomic(order)
    kernel = field.kernel
    ra, rb, rp = (data.draw(_kernel_operand(order)) for _ in range(3))
    a, b, p = (field.from_coeffs(r).raw for r in (ra, rb, rp))
    product = _ref_mul(ra, rb, order)

    def expect(got, coeffs):
        # the raw tuple is the normalised Scalar's numerators and denominator
        assert got == field.from_coeffs(coeffs).raw
        assert got[-1] > 0 and math.gcd(*got) == 1
        assert kernel.is_zero(got) == (not any(coeffs))

    expect(kernel.mul(a, b), product)
    assert list((field.from_coeffs(ra) * field.from_coeffs(rb)).coeffs) == product
    expect(kernel.add(p, a), [x + y for x, y in zip(rp, ra)])
    expect(kernel.sub(p, a), [x - y for x, y in zip(rp, ra)])
    assert kernel.sub(a, a) == kernel.zero
    assert Scalar(field, kernel.add(a, b)) == field.from_coeffs(ra) + field.from_coeffs(rb)
    expect(kernel.fms(p, a, b), [x - y for x, y in zip(rp, product)])
    # a difference that cancels comes out as 0/1, whatever the denominators
    expect(kernel.fms(kernel.mul(a, b), a, b), [Fraction(0)] * field.degree)
    assert kernel.fms(kernel.mul(a, b), b, a) == kernel.zero == (0,) * field.degree + (1,)
    expect(kernel.fms(kernel.zero, a, kernel.one), [-x for x in ra])
    assert Scalar(field, kernel.mul(a, b)) == field.from_coeffs(ra) * field.from_coeffs(rb)
    if any(ra):
        expect(kernel.mul(a, kernel.inverse(a)), [Fraction(1)] + [Fraction(0)] * (field.degree - 1))


@pytest.mark.parametrize("order", [5, 7, 9, 17, 21])
def test_kernel_builds_in_orders_whose_reduction_wraps(order):
    # 2 * degree - 2 >= order: the kernel reads powers x^k, k reduced modulo
    # the order, that a fresh table has not built when it takes its lock.
    # _kernel is called directly, so a deadlock holds no lock but this table's
    table = _CycloTable(order)
    kernels = {}
    worker = threading.Thread(
        target=lambda: kernels.update(mul=table._kernel("mul"), fms=table._kernel("fms")),
        daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "building the kernel deadlocked"
    deg = table.degree
    one, zeta = (1,) + (0,) * (deg - 1) + (1,), (0, 1) + (0,) * (deg - 2) + (1,)
    power = one
    for _ in range(order - 1):
        power = kernels["mul"](power, zeta)
    assert power == (*table.power(order - 1), 1)
    assert kernels["mul"](power, zeta) == one
    assert kernels["fms"](one, zeta, power) == (0,) * deg + (1,)


def test_golden_ratio_product_in_q_zeta_5():
    field = Field.cyclotomic(5)
    z = field.root(1)
    # (z + z^4)(z^2 + z^3) = z + z^2 + z^3 + z^4 = -1
    assert (z + z ** 4) * (z ** 2 + z ** 3) == field.from_int(-1)
    assert z * z ** 4 == field.one()
    assert z ** 3 * z ** 4 == field.root(2)


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=1e3), st.complex_numbers(max_magnitude=1e3),
       st.complex_numbers(max_magnitude=1e3))
def test_raw_kernel_on_an_approx_field(p, x, y):
    field = Field.approx(1e-9)
    kernel = field.kernel
    assert field.from_complex(x).raw == x
    assert Scalar(field, x) == field.from_complex(x)
    assert kernel.mul(x, y) == (field.from_complex(x) * field.from_complex(y)).raw
    assert kernel.fms(p, x, y) == p - x * y
    # add and sub are the complex operators, signed zeros included
    assert repr(kernel.add(x, y)) == repr(x + y) == repr((Scalar(field, x) + Scalar(field, y)).raw)
    assert repr(kernel.sub(x, y)) == repr(x - y) == repr((Scalar(field, x) - Scalar(field, y)).raw)
    assert kernel.is_zero(kernel.zero) and kernel.is_zero(5e-10) and not kernel.is_zero(2e-9)
    assert kernel.is_zero(kernel.fms(x * y, x, y))
    if abs(x) > 1e-9:
        assert kernel.inverse(x) == field.from_complex(x).inverse().raw


def test_kernel_ops_do_not_bind_the_kernel():
    # from Python 3.14 a functools.partial in a class body binds like a method
    # (3.13 warns on it), so a kernel op must never be stored as a bare partial
    for cls in (_CycloTable, _ApproxKernel):
        for name, value in vars(cls).items():
            assert not isinstance(value, functools.partial), (cls.__name__, name)
    assert isinstance(vars(_CycloTable)["add"], staticmethod)
    assert isinstance(vars(_CycloTable)["sub"], staticmethod)
    field = Field.cyclotomic(8)
    z = field.root(1).raw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Scalar(field, field.kernel.add(z, z)) == field.root(1) + field.root(1)
        assert field.kernel.sub(z, z) == field.kernel.zero


# -- matrix products and elimination against a schoolbook Scalar reference ----


def _ref_matmul(x, y):
    """Row-times-column sums in Scalar arithmetic, skipping zero factors."""
    out = []
    for i in range(x.rows):
        row = []
        for j in range(y.cols):
            acc = x.field.zero()
            for k in range(x.cols):
                a, b = x[i, k], y[k, j]
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def _ref_gauss_jordan(m, augment):
    """(rank, augment rows) by Gauss-Jordan in Scalar arithmetic; the pivot
    is the first nonzero entry when exact, the largest above the tolerance
    when approx."""
    field = m.field
    rows = [list(m.entries[r]) + (list(augment.entries[r]) if augment else [])
            for r in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        candidates = [r for r in range(rank, m.rows) if not rows[r][col].is_zero()]
        if not candidates:
            continue
        if field.exact:
            pivot = candidates[0]
        else:
            pivot = max(candidates, key=lambda r: abs(rows[r][col].raw))
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * a for a in rows[rank]]
        for r in range(m.rows):
            factor = rows[r][col]
            if r != rank and not factor.is_zero():
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank, [row[m.cols:] for row in rows]


def _same_entries(got, expected):
    """Exact equality, or the same complex bits (signed zeros included)."""
    flat_got = [a for row in got for a in row]
    flat_expected = [a for row in expected for a in row]
    assert len(flat_got) == len(flat_expected)
    for a, b in zip(flat_got, flat_expected):
        assert repr(a.raw) == repr(b.raw)


@st.composite
def _matrix(draw, field, rows, cols):
    """Entries with mixed denominators (exact) or small, tiny and zero parts
    (approx); some rows or columns all zero, and sometimes a row that is a
    combination of two others, so that the matrix is singular."""
    if field.exact:
        order = field.order
        entry = st.one_of(st.just([Fraction(0)] * field.degree), _operand(order))
        cells = [[field.from_coeffs(draw(entry)) for _ in range(cols)] for _ in range(rows)]
    else:
        # sevenths round, so a different pivot order changes the bits
        part = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from((1e-12, -3e-11)),
                         st.integers(-4, 4).map(float), st.integers(-30, 30).map(lambda m: m / 7),
                         st.floats(-3, 3, allow_nan=False, allow_infinity=False))
        cells = [[field.from_complex(complex(draw(part), draw(part))) for _ in range(cols)]
                 for _ in range(rows)]
    zero = field.zero()
    for r in draw(st.sets(st.integers(0, rows - 1), max_size=1)):
        cells[r] = [zero] * cols
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=1)):
        for row in cells:
            row[c] = zero
    if rows >= 3 and draw(st.booleans()):
        s, t = cells[0][0], cells[1][-1]
        cells[-1] = [s * a + t * b for a, b in zip(cells[0], cells[1])]
    return Matrix(field, cells)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matrix_operations_match_schoolbook_reference(data):
    kind = data.draw(st.sampled_from((4, 5, 8, 12, 24, "approx", "approx")))
    field = Field.approx(1e-10) if kind == "approx" else Field.cyclotomic(kind)
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    x = data.draw(_matrix(field, rows, inner))
    y = data.draw(_matrix(field, inner, cols))
    _same_entries((x @ y).entries, _ref_matmul(x, y))
    rank, _ = _ref_gauss_jordan(x, None)
    assert x.rank() == rank
    square = data.draw(_matrix(field, inner, inner))
    rank, inverse = _ref_gauss_jordan(square, Matrix.identity(field, inner))
    if rank < inner:
        with pytest.raises(SingularMatrix) as err:
            square.inverse()
        assert err.value.rank == rank
    else:
        _same_entries(square.inverse().entries, inverse)


def test_approx_elimination_matches_reference_bit_for_bit():
    # dense matrices of sevenths: the largest-magnitude pivot differs from
    # the first nonzero one, and either choice rounds differently
    field = Field.approx(1e-10)
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 5)
        m = Matrix(field, [[field.from_complex(complex(rng.randrange(-30, 31) / 7,
                                                       rng.randrange(-30, 31) / 7))
                            for _ in range(n)] for _ in range(n)])
        rank, inverse = _ref_gauss_jordan(m, Matrix.identity(field, n))
        assert m.rank() == rank
        if rank == n:
            _same_entries(m.inverse().entries, inverse)


# -- fast paths against the general ones ---------------------------------------


def _random_scalar(rng, field, density):
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))
              if rng.random() < density else 0 for _ in range(field.degree)]
    return field.from_coeffs(coeffs)


@pytest.mark.parametrize("order", [*range(1, 61), 96, 240])
def test_kernel_conj_matches_power_map(order):
    # the generated kernel up to degree 16 and the loop kernel above it
    field = Field.cyclotomic(order)
    rng = random.Random(order)
    samples = [field.zero(), field.one(), *(field.root(k) for k in range(0, order, 7))]
    samples += [_random_scalar(rng, field, density) for density in (0.2, 0.6, 1.0) * 4]
    for x in samples:
        expected = x._apply_powers(field, -1).raw
        assert field.kernel.conj(x.raw) == expected
        assert x.conj().raw == expected


def test_exact_rank_matches_gauss_jordan():
    rng = random.Random(5)
    for order in (4, 5, 8, 12, 24):
        field = Field.cyclotomic(order)
        for _ in range(12):
            n = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)

            def random_matrix(rows, width):
                return Matrix(field, [[_random_scalar(rng, field, rng.choice((0.3, 1.0)))
                                       if rng.random() < 0.7 else field.zero()
                                       for _ in range(width)] for _ in range(rows)])

            m = random_matrix(n, cols)
            assert m.rank() == m._eliminate(None)[0]
            # deliberately singular: a product through a narrower inner size,
            # a repeated row, and a zero row and column
            inner = rng.randrange(1, max(2, min(n, cols)))
            low = random_matrix(n, inner) @ random_matrix(inner, cols)
            assert low.rank() == low._eliminate(None)[0] <= inner
            rows = [list(r) for r in m.entries]
            rows[-1] = list(rows[0])
            for r in rows:
                r[rng.randrange(cols)] = field.zero()
            rows[rng.randrange(n)] = [field.zero()] * cols
            singular = Matrix(field, rows)
            assert singular.rank() == singular._eliminate(None)[0] < max(n, 2)


# -- exact signs ---------------------------------------------------------------


def _pell_pairs(count, d):
    # solutions of p^2 - d q^2 = +-1 (d = 2) or = 1 (d = 3), in increasing size
    p, q = (1, 1) if d == 2 else (2, 1)
    base = (p, q)
    pairs = []
    for _ in range(count):
        pairs.append((p, q))
        p, q = p * base[0] + d * q * base[1], p * base[1] + q * base[0]
    return pairs


def test_real_sign_decides_pell_values_exactly():
    field = Field.cyclotomic(8)
    z = field.root(1)
    sqrt2 = z - z ** 3
    assert sqrt2 * sqrt2 == field.from_int(2)
    for p, q in _pell_pairs(40, 2):
        expected = 1 if p * p > 2 * q * q else -1
        value = field.from_int(p) - field.from_int(q) * sqrt2
        assert value.real_sign() == expected
        assert (-value).real_sign() == -expected
        assert (value * field.from_rational(Fraction(1, 7))).real_sign() == expected
    # a float of either value reads the wrong sign or too little to decide
    assert (field.from_int(10812186007) - field.from_int(7645370045) * sqrt2).real_sign() == -1
    assert (field.from_int(318281039) - field.from_int(225058681) * sqrt2).real_sign() == -1


def test_real_sign_in_other_real_subfields():
    f12 = Field.cyclotomic(12)
    z = f12.root(1)
    sqrt3 = z + z.conj()
    assert sqrt3 * sqrt3 == f12.from_int(3)
    for p, q in _pell_pairs(30, 3):
        value = f12.from_int(p) - f12.from_int(q) * sqrt3
        assert value.real_sign() == 1 and (-value).real_sign() == -1
        assert (f12.from_int(q) * sqrt3 - f12.from_int(p - 1)).real_sign() == 1
    # F_{k+1} - F_k * phi = (-1/phi)^k, so its sign alternates
    f5 = Field.cyclotomic(5)
    w = f5.root(1)
    phi = f5.one() + w + w.conj()
    assert phi * phi == phi + f5.one()
    a, b = 1, 1
    for k in range(1, 60):
        value = f5.from_int(a + b) - f5.from_int(a) * phi
        assert value.real_sign() == (-1) ** (k + 1)
        a, b = a + b, a
    assert f5.zero().real_sign() == 0 and (phi - phi).real_sign() == 0


def test_real_sign_rejects_non_real_values():
    field = Field.cyclotomic(8)
    for value in (field.root(1), field.root(2) + field.one(), field.root(1) * field.from_int(3)):
        with pytest.raises(ValueError, match="non-real"):
            value.real_sign()
    approx = Field.approx(1e-10)
    assert approx.from_complex(-2.5).real_sign() == -1
    assert approx.from_complex(1e-12).real_sign() == 0
    with pytest.raises(ValueError, match="non-real"):
        approx.from_complex(1 + 1j).real_sign()


def test_unit_table_is_built_on_first_use_and_capped():
    # no field construction or kernel arithmetic builds it
    field = Field.cyclotomic(98)
    field.root(5) * field.root(7)
    assert "units" not in vars(field.kernel)
    roots, index = field.kernel.units
    assert len(roots) == 98 and all(index[raw] == e for e, raw in enumerate(roots))
    assert roots[1] == field.root(1).raw and roots[49] == (-field.one()).raw
    # past the cap the certifier keeps every coefficient a raw tuple
    assert _CycloTable(2048).units is None
