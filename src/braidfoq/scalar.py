"""Exact cyclotomic scalars, a floating complex fallback, and exact matrices.

A scalar holds one raw value, and its field owns the one kernel that
computes on raw values: add, sub, mul, fms (p - x*y), neg, is_zero,
inverse, zero and one, and, for exact fields, the table of signed roots of
unity (``units``).  Every matrix product of raw values, in ``Matrix`` and
in ``graded``, is formed by this module's ``_product``.  An exact scalar
lives in Q(zeta_N); its raw value is the flat tuple (n_0, ..., n_{d-1},
den) of integer numerators, one per power-basis coordinate (reduced modulo
the N-th cyclotomic polynomial), over one positive denominator.  The tuple
is kept normalised, gcd(den, *num) == 1 and zero is (0, ..., 0, 1), so
equality is a tuple comparison.  An approx scalar's raw value is a complex
double, compared with an absolute tolerance.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from functools import cached_property, partial
from operator import add as _add, mul as _mul, neg as _neg, sub as _sub

__all__ = [
    "Field",
    "FieldMismatch",
    "Matrix",
    "PhasePowers",
    "Scalar",
    "SingularMatrix",
    "sqrt_fraction",
]

MAX_CYCLOTOMIC_ORDER = 1 << 16
# above this degree the generated multiply costs more to build than it saves
_GENERATED_MAX_DEGREE = 16
# the largest table of signed roots of unity a kernel builds (order 240 holds 15,360)
_MAX_UNIT_ENTRIES = 1 << 20


class FieldMismatch(ValueError):
    """Raised when two scalars from different fields are combined."""


class SingularMatrix(ValueError):
    """Raised when inverting a singular matrix; carries the rank found."""

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


def _poly_divide_int(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials with monic divisor
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = num[k + len(den) - 1]
        out[k] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[k + i] -= coeff * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


_CYCLO_CACHE: dict[int, list[int]] = {1: [-1, 1]}


def cyclotomic_polynomial(order: int) -> list[int]:
    """Integer coefficients of Phi_order, ascending degree."""
    poly = _CYCLO_CACHE.get(order)
    if poly is not None:
        return poly
    num = [0] * (order + 1)
    num[0], num[order] = -1, 1
    for d in range(1, order):
        if order % d == 0:
            num = _poly_divide_int(num, cyclotomic_polynomial(d))
    _CYCLO_CACHE[order] = num
    return num


def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_inverse(num, modulus: list[int]) -> tuple[list[int], int]:
    """(s, c) with s * num == c modulo `modulus`, c a nonzero integer.

    Extended Euclid by pseudo-division over the integers.  Every remainder
    row (r, s) keeps s * num == r modulo `modulus` and is divided by its
    content after each division, which bounds coefficient growth.
    """
    r0, s0 = list(modulus), []
    r1, s1 = _trim(list(num)), [1]
    while len(r1) > 1:
        lead, width = r1[-1], len(r1)
        while len(r0) >= width:
            c, shift = r0[-1], len(r0) - width
            r0 = [lead * x for x in r0]
            s0 = [lead * x for x in s0] + [0] * (shift + len(s1) - len(s0))
            for i, x in enumerate(r1):
                r0[shift + i] -= c * x
            for i, x in enumerate(s1):
                s0[shift + i] -= c * x
            _trim(r0)
        if not r0:
            raise ZeroDivisionError("scalar is not invertible")
        g = math.gcd(*r0, *s0)
        if g != 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, s0, r1, s1 = r1, s1, r0, _trim(s0)
    return s1, r1[0]


def _combined(op, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The raw value x op y for op + or -: over a shared denominator the
    numerators combine as they are, else each is scaled by the other's."""
    den, oden = x[-1], y[-1]
    if den == oden:
        if den == 1:
            return (*map(op, x[:-1], y), 1)
        return _normalised(list(map(op, x[:-1], y)), den)
    return _normalised([op(a * oden, b * den) for a, b in zip(x[:-1], y)], den * oden)


class _CycloTable:
    """The kernel of Q(zeta_order): per-order reduction data and arithmetic
    on raw values, shared by all scalars of one field.

    ``add(x, y) = x + y``, ``sub(x, y) = x - y``, ``mul(x, y) = x * y``,
    ``fms(p, x, y) = p - x * y``, ``neg(x) = -x``, ``is_zero`` and
    ``inverse`` take and return normalised raw tuples.  The
    power table and the compiled kernels extend lazily under a reentrant
    lock, so scalars stay safe to share between threads and a kernel can
    read powers it has not built yet.
    """

    def __init__(self, order: int):
        self.order = order
        poly = cyclotomic_polynomial(order)
        self.degree = len(poly) - 1
        self.poly = poly
        self.zero = (0,) * self.degree + (1,)
        self.one = (1,) + self.zero[1:]
        self.is_zero = self.zero.__eq__
        # x^k mod Phi_order for k = 0, 1, ...; extended lazily
        self._powers: list[tuple[int, ...]] = []
        for k in range(self.degree):
            vec = [0] * self.degree
            vec[k] = 1
            self._powers.append(tuple(vec))
        self._lock = threading.RLock()
        # k mod order -> the nonzero (coordinate, value) pairs of x^k
        self._sparse: dict[int, tuple[tuple[int, int], ...]] = {}
        self._basis_values: list[complex] | None = None

    def power(self, k: int) -> tuple[int, ...]:
        k %= self.order
        if len(self._powers) <= k:
            with self._lock:
                while len(self._powers) <= k:
                    prev = self._powers[-1]
                    shifted = [0] + [c for c in prev]
                    top = shifted.pop()
                    if top:
                        shifted = [c - top * p
                                   for c, p in zip(shifted, self.poly[: self.degree])]
                    self._powers.append(tuple(shifted))
        return self._powers[k]

    def sparse_power(self, k: int) -> tuple[tuple[int, int], ...]:
        k %= self.order
        row = self._sparse.get(k)
        if row is None:
            row = tuple((m, r) for m, r in enumerate(self.power(k)) if r)
            self._sparse[k] = row
        return row

    def basis_values(self) -> list[complex]:
        if self._basis_values is None:
            w = 2.0 * math.pi / self.order
            self._basis_values = [cmath.exp(1j * w * k) for k in range(self.degree)]
        return self._basis_values

    # each built on first use, so fields the certifier never sees pay for no fms
    mul = cached_property(lambda self: self._kernel("mul"))
    fms = cached_property(lambda self: self._kernel("fms"))
    conj = cached_property(lambda self: self._kernel("conj"))

    @cached_property
    def units(self) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]] | None:
        """The signed roots of unity +-zeta_N^k as the powers zeta_M^e,
        M = lcm(2, N): the list of raw values e -> zeta_M^e and the dict back.
        For odd N, zeta_2N = -zeta_N^((N+1)/2).  Built on first use; None
        when the list would hold more than _MAX_UNIT_ENTRIES integers."""
        odd = self.order % 2
        if (self.order << odd) * self.degree > _MAX_UNIT_ENTRIES:
            return None
        roots = []
        for e in range(self.order << odd):
            power = self.power(e * (self.order + 1) // 2 if odd else e)
            roots.append((*(map(_neg, power) if odd and e % 2 else power), 1))
        return roots, {raw: e for e, raw in enumerate(roots)}

    def _kernel(self, name: str):
        with self._lock:
            if self.degree <= _GENERATED_MAX_DEGREE:
                return _generated_kernel(self, name)
            return _loop_kernel(self)[name]

    @staticmethod
    def neg(x: tuple[int, ...]) -> tuple[int, ...]:
        return (*map(_neg, x[:-1]), x[-1])

    # staticmethod: from Python 3.14 a bare partial binds like a method
    add, sub = staticmethod(partial(_combined, _add)), staticmethod(partial(_combined, _sub))

    def inverse(self, x: tuple[int, ...]) -> tuple[int, ...]:
        num, den = x[:-1], x[-1]
        support = [i for i, a in enumerate(num) if a]
        if not support:
            raise ZeroDivisionError("scalar inverse of zero")
        if len(support) == 1:
            # (a/den) x^k has inverse (den/a) x^(N-k); gcd(a, den) == 1 and
            # x^(N-k) is a unit, so the result is already normalised
            k = support[0]
            a = num[k]
            if a < 0:
                a, den = -a, -den
            return (*[den * c for c in self.power(-k)], a)
        inv, unit = _poly_inverse(num, self.poly)
        # num * inv == unit, so (num/den)^-1 = den * inv / unit
        if unit < 0:
            unit, den = -unit, -den
        return _normalised([den * c for c in inv] + [0] * (self.degree - len(inv)), unit)


class _ApproxKernel:
    """The kernel of an approx field: raw values are complex doubles."""

    zero, one = 0j, 1 + 0j
    units = None  # no exact roots of unity
    add, sub = staticmethod(_add), staticmethod(_sub)
    mul, neg = staticmethod(_mul), staticmethod(_neg)
    conj = staticmethod(complex.conjugate)

    def __init__(self, tolerance: float):
        self.tolerance = tolerance

    @staticmethod
    def fms(p: complex, x: complex, y: complex) -> complex:
        return p - x * y

    def is_zero(self, v: complex) -> bool:
        return abs(v) <= self.tolerance

    def inverse(self, v: complex) -> complex:
        if abs(v) <= self.tolerance:
            raise ZeroDivisionError("scalar inverse of zero")
        return 1.0 / v


def _normalised(num: list[int], den: int) -> tuple[int, ...]:
    """The raw value num/den, den > 0, with common factors divided out."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return (*[n // g for n in num], den // g)
    return (*num, den)


def _loop_kernel(table: _CycloTable) -> dict:
    """mul and fms as a sparse convolution loop, conj as a sparse map."""
    deg, sparse_power = table.degree, table.sparse_power

    def mul(x, y):
        # integer convolution; x^k for k >= degree is reduced mod Phi_N
        acc = [0] * deg
        terms = [(j, b) for j, b in enumerate(y[:deg]) if b]
        for i, a in enumerate(x[:deg]):
            if a:
                for j, b in terms:
                    k = i + j
                    if k < deg:
                        acc[k] += a * b
                    else:
                        for m, r in sparse_power(k):
                            acc[m] += a * b * r
        return _normalised(acc, x[deg] * y[deg])

    def fms(p, x, y):
        q = mul(x, y)
        pden, qden = p[deg], q[deg]
        return _normalised([a * qden - b * pden for a, b in zip(p, q[:deg])], pden * qden)

    def conj(x):
        # x^i -> x^(-i); see _generated_kernel for why no gcd is taken
        acc = [0] * deg
        for i, a in enumerate(x[:deg]):
            if a:
                for m, r in sparse_power(-i):
                    acc[m] += a * r
        return (*acc, x[deg])

    return {"mul": mul, "fms": fms, "conj": conj}


def _signed(coeff: int, var: str) -> str:
    """The term ``coeff * var`` as " + var", " - 2 * var" and so on."""
    sign, size = ("+" if coeff > 0 else "-"), abs(coeff)
    return f" {sign} {var}" if size == 1 else f" {sign} {size} * {var}"


def _generated_kernel(table: _CycloTable, name: str):
    """mul or fms as straight-line code for this order: a convolution with
    one ``if a_i:`` block per coordinate of x, then one reduction row per
    coordinate read from x^k mod Phi_N; a denominator of 1 skips the gcd.
    conj is one row per coordinate read from x^(-i) mod Phi_N, with no gcd:
    conjugation maps Z[zeta] onto itself, so it keeps the numerators'
    content and a normalised value stays normalised."""
    deg = table.degree
    n = [f"n{i}" for i in range(deg)]
    nums = ", ".join(n)
    unpack_x = f"    {', '.join(f'a{i}' for i in range(deg))}, da = x"
    if name == "conj":
        # a leading " + " is dropped; a leading " - " stays as a unary minus
        coords = ("".join(_signed(r, f"a{i}") for i in range(deg)
                          if (r := table.power(-i)[m])).lstrip(" +") for m in range(deg))
        return _compiled(table, name, ["def conj(x):", unpack_x,
                                       f"    return ({', '.join(coords)}, da)"])
    product = [unpack_x,
               f"    {', '.join(f'b{j}' for j in range(deg))}, db = y",
               "    " + " = ".join(f"c{k}" for k in range(2 * deg - 1)) + " = 0"]
    for i in range(deg):
        product.append(f"    if a{i}:")
        product.extend(f"        c{i + j} += a{i} * b{j}" for j in range(deg))
    for m in range(deg):
        row = f"    n{m} = c{m}"
        for k in range(deg, 2 * deg - 1):
            r = table.power(k)[m]
            if r:
                row += _signed(r, f"c{k}")
        product.append(row)
    product.append("    den = da * db")
    normalise = ["    if den == 1:", f"        return ({nums}, 1)",
                 f"    g = gcd(den, {nums})",
                 "    if g == 1:", f"        return ({nums}, den)",
                 f"    return ({', '.join(f'{v} // g' for v in n)}, den // g)"]
    if name == "mul":
        lines = ["def mul(x, y):", *product, *normalise]
    else:
        lines = ["def fms(p, x, y):", *product,
                 f"    {', '.join(f'p{i}' for i in range(deg))}, dp = p",
                 "    if dp == den:", *(f"        n{i} = p{i} - n{i}" for i in range(deg)),
                 "    else:", *(f"        n{i} = p{i} * den - n{i} * dp" for i in range(deg)),
                 "        den *= dp", *normalise]
    return _compiled(table, name, lines)


def _compiled(table: _CycloTable, name: str, lines: list[str]):
    """The function ``name`` that ``lines`` define, compiled for this order."""
    namespace = {"gcd": math.gcd}
    exec(compile("\n".join(lines), f"<kernel Q(zeta_{table.order})>", "exec"), namespace)
    return namespace[name]


_TABLE_CACHE: dict[int, _CycloTable] = {}


def _table(order: int) -> _CycloTable:
    tab = _TABLE_CACHE.get(order)
    if tab is None:
        tab = _CycloTable(order)
        _TABLE_CACHE[order] = tab
    return tab


class Field:
    """Coefficient field specification: exact Q(zeta_N) or complex doubles."""

    __slots__ = ("mode", "exact", "order", "tolerance", "kernel", "_zero", "_one")

    def __init__(self, mode: str, order: int | None = None, tolerance: float | None = None):
        if mode == "cyclo":
            if not isinstance(order, int) or order < 1:
                raise ValueError("cyclotomic order must be a positive integer")
            if order > MAX_CYCLOTOMIC_ORDER:
                raise ValueError(f"cyclotomic order capped at {MAX_CYCLOTOMIC_ORDER}")
            self.order = order
            self.tolerance = None
            self.kernel = _table(order)
        elif mode == "float":
            tolerance = 1e-10 if tolerance is None else float(tolerance)
            if not 0 < tolerance < math.inf:
                raise ValueError("approx tolerance must be positive and finite")
            self.order = None
            self.tolerance = tolerance
            self.kernel = _ApproxKernel(tolerance)
        else:
            raise ValueError(f"unknown field mode {mode!r}")
        self.mode = mode
        self.exact = mode == "cyclo"
        # scalars are immutable, so every caller can share these two
        self._zero = Scalar(self, self.kernel.zero)
        self._one = Scalar(self, self.kernel.one)

    @classmethod
    def cyclotomic(cls, order: int) -> "Field":
        return cls("cyclo", order=order)

    @classmethod
    def approx(cls, tolerance: float = 1e-10) -> "Field":
        return cls("float", tolerance=tolerance)

    @property
    def degree(self) -> int:
        if not self.exact:
            raise ValueError("degree is defined for exact fields only")
        return self.kernel.degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        if self.mode != other.mode:
            return False
        if self.mode == "cyclo":
            return self.order == other.order
        return self.tolerance == other.tolerance

    def __hash__(self) -> int:
        return hash((self.mode, self.order, self.tolerance))

    def __reduce__(self):
        # rebuild through the constructor: an exact kernel holds a lock,
        # which cannot be pickled, and an unpickled field reuses the cache
        if self.exact:
            return Field.cyclotomic, (self.order,)
        return Field.approx, (self.tolerance,)

    def __repr__(self) -> str:
        if self.exact:
            return f"Field.cyclotomic({self.order})"
        return f"Field.approx({self.tolerance})"

    # scalar constructors ------------------------------------------------

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_rational(self, value) -> "Scalar":
        q = Fraction(value)
        if self.exact:
            return Scalar(self, (q.numerator, *self.kernel.zero[1:-1], q.denominator))
        return Scalar(self, complex(q))

    def from_int(self, value: int) -> "Scalar":
        return self.from_rational(value)

    def root(self, exponent: int = 1) -> "Scalar":
        """The root of unity zeta_N^exponent (exact) or its complex value."""
        if self.exact:
            return Scalar(self, (*self.kernel.power(exponent), 1))
        # approx fields have no distinguished order; default to the unit
        raise ValueError("root() requires an exact field; use from_complex")

    def from_complex(self, value: complex) -> "Scalar":
        if self.exact:
            raise ValueError("from_complex() requires an approx field")
        return Scalar(self, complex(value))

    def from_coeffs(self, coeffs) -> "Scalar":
        """The exact scalar with these rational power-basis coordinates."""
        if not self.exact:
            raise ValueError("from_coeffs() requires an exact field")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(vec)}")
        den = math.lcm(*(q.denominator for q in vec))
        return Scalar(self, (*[q.numerator * (den // q.denominator) for q in vec], den))

    # serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.exact:
            return {"mode": "exact", "order": self.order}
        return {"mode": "approx", "tolerance": self.tolerance}

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        mode = data.get("mode")
        if mode == "exact":
            return cls.cyclotomic(int(data["order"]))
        if mode == "approx":
            return cls.approx(float(data["tolerance"]))
        raise ValueError(f"unknown field mode {mode!r}")


class Scalar:
    """Immutable field element holding its field's raw value in ``raw``: the
    normalised tuple (n_0, ..., n_{d-1}, den) when exact, the complex double
    when approx."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw):
        self.field = field
        self.raw = raw

    @property
    def coeffs(self) -> tuple[Fraction, ...] | None:
        """The exact power-basis coordinates as Fractions (None when approx)."""
        if not self.field.exact:
            return None
        den = self.raw[-1]
        return tuple(Fraction(n, den) for n in self.raw[:-1])

    # helpers --------------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise FieldMismatch(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field and self.field != other.field:
            raise FieldMismatch(f"field mismatch: {self.field} vs {other.field}")

    def is_zero(self) -> bool:
        return self.field.kernel.is_zero(self.raw)

    def is_one(self) -> bool:
        return self == self.field._one

    # arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            self._check(other)
        return Scalar(field, field.kernel.add(self.raw, other.raw))

    def __sub__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            self._check(other)
        return Scalar(field, field.kernel.sub(self.raw, other.raw))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.kernel.neg(self.raw))

    def __mul__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            self._check(other)
        return Scalar(field, field.kernel.mul(self.raw, other.raw))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _apply_powers(self, field: Field, step: int) -> "Scalar":
        # the image of x^i is x^(i*step) in `field`
        table = field.kernel
        acc = [0] * table.degree
        for i, a in enumerate(self.raw[:-1]):
            if a:
                for m, r in table.sparse_power(i * step):
                    acc[m] += a * r
        return Scalar(field, _normalised(acc, self.raw[-1]))

    def conj(self) -> "Scalar":
        return Scalar(self.field, self.field.kernel.conj(self.raw))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.kernel.inverse(self.raw))

    # predicates and conversions --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field and self.field != other.field:
            return False
        if self.field.exact:
            return self.raw == other.raw
        return self.field.kernel.is_zero(self.raw - other.raw)

    def __hash__(self) -> int:
        if self.field.exact:
            return hash((self.field.order, self.raw))
        raise TypeError("approx scalars are not hashable")

    def is_real(self) -> bool:
        return self == self.conj()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if not self.field.exact or any(self.raw[1:-1]):
            return None
        return Fraction(self.raw[0], self.raw[-1])

    def as_root_exponent(self) -> int | None:
        """k with self == zeta_N^k, or None when not a root of unity."""
        if not self.field.exact:
            return None
        power = self.field.kernel.power
        return next((k for k in range(self.field.order) if (*power(k), 1) == self.raw), None)

    def to_complex(self) -> complex:
        if not self.field.exact:
            return self.raw
        basis = self.field.kernel.basis_values()
        den = self.raw[-1]
        return sum(((a / den) * b for a, b in zip(self.raw[:-1], basis)), 0j)

    def real_sign(self) -> int:
        """Sign of a real scalar, decided exactly in an exact field.

        There an irrational value, sum_k n_k cos(2 pi k / N) / den, is
        enclosed between two integer multiples of 2^-bits, with bits doubling
        until the enclosure excludes 0; an approx field uses its tolerance."""
        q = self.as_rational()
        if q is not None:
            return (q > 0) - (q < 0)
        if self.field.exact:
            if not self.is_real():
                raise ValueError("real_sign() of a non-real scalar")
            # imported on first use: most processes never decide the sign of
            # an irrational value, so they need not load the enclosures
            from ._enclosure import cos_pi_bounds

            bits = 64
            while True:
                lo = hi = 0
                for k, n in enumerate(self.raw[:-1]):
                    if n:
                        c_lo, c_hi = cos_pi_bounds(Fraction(2 * k, self.field.order), bits)
                        lo += n * (c_lo if n > 0 else c_hi)
                        hi += n * (c_hi if n > 0 else c_lo)
                if lo > 0 or hi < 0:
                    return 1 if lo > 0 else -1
                bits *= 2
        z = self.raw
        if abs(z.imag) > self.field.tolerance:
            raise ValueError("real_sign() of a non-real scalar")
        if abs(z.real) <= self.field.tolerance:
            return 0
        return 1 if z.real > 0 else -1

    def embed_into(self, field: Field) -> "Scalar":
        """Embed into Q(zeta_M) for M a multiple of this field's order."""
        if not self.field.exact or not field.exact:
            raise ValueError("embed_into() is for exact fields")
        if field.order % self.field.order != 0:
            raise ValueError(
                f"target order {field.order} is not a multiple of {self.field.order}")
        return self._apply_powers(field, field.order // self.field.order)

    # serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.field.exact:
            den = self.raw[-1]
            coeffs = []
            for n in self.raw[:-1]:
                g = math.gcd(n, den)
                coeffs.append([str(n // g), str(den // g)])
            return {"kind": "cyclo", "order": self.field.order, "coeffs": coeffs}
        return {"kind": "float", "re": self.raw.real, "im": self.raw.imag}

    @classmethod
    def from_json(cls, data: dict, field: Field | None = None) -> "Scalar":
        kind = data.get("kind")
        if kind == "cyclo":
            order = int(data["order"])
            if field is None:
                field = Field.cyclotomic(order)
            elif not field.exact or field.order != order:
                raise ValueError("scalar order disagrees with the ambient field")
            coeffs = [Fraction(int(p), int(q)) for p, q in data["coeffs"]]
            return field.from_coeffs(coeffs)
        if kind == "float":
            if field is None:
                field = Field.approx()
            elif field.exact:
                raise ValueError("float scalar in an exact field")
            value = complex(data["re"], data["im"])
            if not cmath.isfinite(value):
                raise ValueError("float scalar must be finite")
            return field.from_complex(value)
        raise ValueError(f"unknown scalar kind {kind!r}")

    def __repr__(self) -> str:
        if not self.field.exact:
            return f"Scalar({self.raw!r})"
        n = self.field.order
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{head}z{n}^{i}" if i > 1 else f"{head}z{n}")
        return " + ".join(terms) if terms else "0"


class PhasePowers:
    """Integer powers of a modulus-one scalar, memoised by exponent.

    A negative exponent is the power of the conjugate, which is the inverse
    of a modulus-one scalar, so a base off the unit circle is rejected.  The
    memo is keyed by the integer exponent, so it works for approx scalars
    too, which are not hashable.
    """

    __slots__ = ("base", "_powers")

    def __init__(self, base: Scalar):
        if not (base * base.conj()).is_one():
            raise ValueError("zeta must have modulus one")
        self.base = base
        self._powers: dict[int, Scalar] = {}

    def __call__(self, exponent: int) -> Scalar:
        power = self._powers.get(exponent)
        if power is None:
            if exponent >= 0:
                power = self.base ** exponent
            else:
                power = self.base.conj() ** (-exponent)
            self._powers[exponent] = power
        return power


def sqrt_fraction(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _product(kernel, left, right, cols: int) -> list[list]:
    """The raw rows of left @ right, ``cols`` wide, from the factors' rows as
    ``Matrix._nonzero`` lists them, so zero factors are skipped.  Entry (i, j)
    sums over ascending k, and each left factor is negated once so that every
    step is one fms: from acc = +0, acc - (-a)*b equals acc + a*b bit for bit
    in IEEE arithmetic too."""
    neg, fms, zero = kernel.neg, kernel.fms, kernel.zero
    out = []
    for terms in left:
        row = [zero] * cols
        for k, a in terms:
            a = neg(a)
            for j, b in right[k]:
                row[j] = fms(row[j], a, b)
        out.append(row)
    return out


class Matrix:
    """Dense rectangular matrix over one Field; immutable."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(rows[0])
        for r in rows:
            if len(r) != cols:
                raise ValueError("matrix rows must have equal length")
            for s in r:
                if not (type(s) is Scalar and s.field is field) and (
                        not isinstance(s, Scalar) or s.field != field):
                    raise FieldMismatch("matrix entries must share one field")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.field, self.rows, self.cols) != (other.field, other.rows, other.cols):
            return False
        return all(a == b for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(self.field, [[a + b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Matrix(self.field, [[a - b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(self.entries, other.entries)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        field = self.field
        if other.field is not field and other.field != field:
            raise FieldMismatch(f"field mismatch: {field} vs {other.field}")
        product = _product(field.kernel, self._nonzero(), other._nonzero(), other.cols)
        return Matrix(field, [[Scalar(field, v) for v in row] for row in product])

    def _nonzero(self, conj: bool = False) -> list[list[tuple[int, object]]]:
        """Each row's entries that are not zero as (column, raw value) pairs,
        conjugated when ``conj`` is set: the operands of ``_product``."""
        kernel = self.field.kernel
        is_zero = kernel.is_zero
        rows = [[(j, a.raw) for j, a in enumerate(row) if not is_zero(a.raw)]
                for row in self.entries]
        if conj:
            conj_raw = kernel.conj
            rows = [[(j, conj_raw(v)) for j, v in row] for row in rows]
        return rows

    def scale(self, scalar: Scalar) -> "Matrix":
        return Matrix(self.field, [[scalar * a for a in row] for row in self.entries])

    def conj(self) -> "Matrix":
        return Matrix(self.field, [[a.conj() for a in row] for row in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.entries[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)])

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def _eliminate(self, augment: "Matrix | None"):
        # Gauss-Jordan on raw rows, each extended by its augment row; returns
        # (rank, the augment part of the reduced rows)
        field = self.field
        kernel = field.kernel
        mul, fms, is_zero = kernel.mul, kernel.fms, kernel.is_zero
        work = [[a.raw for a in row] for row in self.entries]
        if augment is not None:
            work = [row + [a.raw for a in extra] for row, extra in zip(work, augment.entries)]
        rank = 0
        for col in range(self.cols):
            pivot = None
            if field.exact:
                for r in range(rank, self.rows):
                    if not is_zero(work[r][col]):
                        pivot = r
                        break
            else:
                best = field.tolerance
                for r in range(rank, self.rows):
                    mag = abs(work[r][col])
                    if mag > best:
                        best, pivot = mag, r
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            inv = kernel.inverse(work[rank][col])
            pivot_row = work[rank] = [mul(inv, a) for a in work[rank]]
            for r in range(self.rows):
                factor = work[r][col]
                if r != rank and not is_zero(factor):
                    work[r] = [fms(a, factor, b) for a, b in zip(work[r], pivot_row)]
            rank += 1
            if rank == self.rows:
                break
        return rank, [[Scalar(field, a) for a in row[self.cols:]] for row in work]

    def rank(self) -> int:
        if not self.field.exact:
            return self._eliminate(None)[0]
        # fraction-free forward elimination, row <- p*row - f*pivot_row, so no
        # pivot is inverted; each working row keeps only the columns still to
        # be eliminated, and a row is dropped once it has served as a pivot
        kernel = self.field.kernel
        mul, fms, is_zero = kernel.mul, kernel.fms, kernel.is_zero
        work = [[a.raw for a in row] for row in self.entries]
        rank = 0
        for _ in range(self.cols):
            pivot = next((r for r, row in enumerate(work) if not is_zero(row[0])), None)
            if pivot is not None:
                p, *pivot_row = work.pop(pivot)
                rank += 1
            work = [row[1:] if pivot is None or is_zero(f := row[0]) else
                    [fms(mul(p, a), f, b) for a, b in zip(row[1:], pivot_row)] for row in work]
        return rank

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        rank, aug = self._eliminate(Matrix.identity(self.field, self.rows))
        if rank < self.rows:
            raise SingularMatrix("matrix is singular", rank)
        return Matrix(self.field, aug)

    def scalar_multiple_of_identity(self) -> Scalar | None:
        """The scalar c with self == c*I, or None when not scalar."""
        if self.rows != self.cols:
            return None
        c = self.entries[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                expect = c if i == j else self.field.zero()
                if not (self.entries[i][j] - expect).is_zero():
                    return None
        return c

    def map_entries(self, fn, field: Field | None = None) -> "Matrix":
        mapped = [[fn(a) for a in row] for row in self.entries]
        return Matrix(field if field is not None else mapped[0][0].field, mapped)

    def to_json(self) -> list:
        return [[a.to_json() for a in row] for row in self.entries]

    @classmethod
    def from_json(cls, data: list, field: Field) -> "Matrix":
        return cls(field, [[Scalar.from_json(a, field) for a in row] for row in data])

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(a) for a in row) for row in self.entries)
        return f"Matrix[{body}]"
