"""Exact cyclotomic scalars, a floating complex fallback, and exact matrices.

Exact scalars live in Q(zeta_N).  Each is a tuple of integer numerators,
one per power-basis coordinate (reduced modulo the N-th cyclotomic
polynomial), over one shared positive denominator.  The pair is kept
normalised, gcd(den, *num) == 1 and zero is 0/1, so equality is a tuple
comparison.  The approx mode stores a complex double and compares with an
absolute tolerance.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from operator import add as _add, neg as _neg, sub as _sub

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


class _CycloTable:
    """Per-order reduction data shared by all scalars of one field.

    The power table extends lazily under a lock so scalars stay safe to
    share between threads.
    """

    def __init__(self, order: int):
        self.order = order
        poly = cyclotomic_polynomial(order)
        self.degree = len(poly) - 1
        self.poly = poly
        self.zero = (0,) * self.degree
        # x^k mod Phi_order for k = 0, 1, ...; extended lazily
        self._powers: list[tuple[int, ...]] = []
        for k in range(self.degree):
            vec = [0] * self.degree
            vec[k] = 1
            self._powers.append(tuple(vec))
        self._lock = threading.Lock()
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


_TABLE_CACHE: dict[int, _CycloTable] = {}


def _table(order: int) -> _CycloTable:
    tab = _TABLE_CACHE.get(order)
    if tab is None:
        tab = _CycloTable(order)
        _TABLE_CACHE[order] = tab
    return tab


class Field:
    """Coefficient field specification: exact Q(zeta_N) or complex doubles."""

    __slots__ = ("mode", "order", "tolerance", "_table", "_roots", "_zero", "_one")

    def __init__(self, mode: str, order: int | None = None, tolerance: float | None = None):
        if mode == "cyclo":
            if not isinstance(order, int) or order < 1:
                raise ValueError("cyclotomic order must be a positive integer")
            if order > MAX_CYCLOTOMIC_ORDER:
                raise ValueError(f"cyclotomic order capped at {MAX_CYCLOTOMIC_ORDER}")
            self.order = order
            self.tolerance = None
            self._table = _table(order)
        elif mode == "float":
            tolerance = 1e-10 if tolerance is None else float(tolerance)
            if not tolerance > 0:
                raise ValueError("approx tolerance must be positive")
            self.order = None
            self.tolerance = tolerance
            self._table = None
        else:
            raise ValueError(f"unknown field mode {mode!r}")
        self.mode = mode
        self._roots: list[Scalar] | None = None
        # scalars are immutable, so every caller can share these two
        self._zero = self.from_rational(0)
        self._one = self.from_rational(1)

    @classmethod
    def cyclotomic(cls, order: int) -> "Field":
        return cls("cyclo", order=order)

    @classmethod
    def approx(cls, tolerance: float = 1e-10) -> "Field":
        return cls("float", tolerance=tolerance)

    @property
    def exact(self) -> bool:
        return self.mode == "cyclo"

    @property
    def degree(self) -> int:
        if not self.exact:
            raise ValueError("degree is defined for exact fields only")
        return self._table.degree

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
        # rebuild through the constructor: the shared table holds a lock,
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
            return Scalar(self, (q.numerator,) + self._table.zero[1:], q.denominator)
        return Scalar(self, value=complex(q))

    def from_int(self, value: int) -> "Scalar":
        return self.from_rational(value)

    def root(self, exponent: int = 1) -> "Scalar":
        """The root of unity zeta_N^exponent (exact) or its complex value."""
        if self.exact:
            return Scalar(self, self._table.power(exponent))
        # approx fields have no distinguished order; default to the unit
        raise ValueError("root() requires an exact field; use from_complex")

    def from_complex(self, value: complex) -> "Scalar":
        if self.exact:
            raise ValueError("from_complex() requires an approx field")
        return Scalar(self, value=complex(value))

    def from_coeffs(self, coeffs) -> "Scalar":
        """The exact scalar with these rational power-basis coordinates."""
        if not self.exact:
            raise ValueError("from_coeffs() requires an exact field")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(vec)}")
        den = math.lcm(*(q.denominator for q in vec))
        return Scalar(self, tuple(q.numerator * (den // q.denominator) for q in vec), den)

    def _all_roots(self) -> list["Scalar"]:
        if self._roots is None:
            self._roots = [self.root(k) for k in range(self.order)]
        return self._roots

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


def _normalised(field: Field, num: tuple[int, ...], den: int) -> "Scalar":
    """The exact scalar num/den, den > 0, with common factors divided out."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([n // g for n in num])
            den //= g
    return Scalar(field, num, den)


class Scalar:
    """Immutable field element: exact numerators over one denominator, or a
    complex double.

    An exact scalar has ``num``, a tuple of ``field.degree`` integers, and
    ``den``, a positive integer with gcd(den, *num) == 1; zero is 0/1.  An
    approx scalar has ``value`` and ``num is None``.
    """

    __slots__ = ("field", "num", "den", "value")

    def __init__(self, field: Field, num: tuple[int, ...] | None = None, den: int = 1,
                 value: complex | None = None):
        self.field = field
        self.num = num
        self.den = den
        self.value = value

    @property
    def coeffs(self) -> tuple[Fraction, ...] | None:
        """The exact power-basis coordinates as Fractions (None when approx)."""
        if self.num is None:
            return None
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # helpers --------------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise FieldMismatch(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field and self.field != other.field:
            raise FieldMismatch(f"field mismatch: {self.field} vs {other.field}")

    def is_zero(self) -> bool:
        if self.num is not None:
            return not any(self.num)
        return abs(self.value) <= self.field.tolerance

    def is_one(self) -> bool:
        if self.num is not None:
            return self.den == 1 and self.num == self.field._one.num
        return (self - self.field.one()).is_zero()

    # arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            self._check(other)
        num = self.num
        if num is None:
            return Scalar(field, value=self.value + other.value)
        den, oden = self.den, other.den
        if den == oden:
            num = tuple(map(_add, num, other.num))
            return Scalar(field, num) if den == 1 else _normalised(field, num, den)
        return _normalised(field, tuple([a * oden + b * den for a, b in zip(num, other.num)]),
                           den * oden)

    def __sub__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            self._check(other)
        num = self.num
        if num is None:
            return Scalar(field, value=self.value - other.value)
        den, oden = self.den, other.den
        if den == oden:
            num = tuple(map(_sub, num, other.num))
            return Scalar(field, num) if den == 1 else _normalised(field, num, den)
        return _normalised(field, tuple([a * oden - b * den for a, b in zip(num, other.num)]),
                           den * oden)

    def __neg__(self) -> "Scalar":
        if self.num is not None:
            return Scalar(self.field, tuple(map(_neg, self.num)), self.den)
        return Scalar(self.field, value=-self.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            self._check(other)
        if self.num is None:
            return Scalar(field, value=self.value * other.value)
        # integer convolution; x^k for k >= degree is reduced mod Phi_N
        table = field._table
        deg = table.degree
        acc = [0] * deg
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in terms:
                    k = i + j
                    if k < deg:
                        acc[k] += a * b
                    else:
                        prod = a * b
                        for m, r in table.sparse_power(k):
                            acc[m] += prod * r
        den = self.den * other.den
        return Scalar(field, tuple(acc)) if den == 1 else _normalised(field, tuple(acc), den)

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
        table = field._table
        acc = [0] * table.degree
        for i, a in enumerate(self.num):
            if a:
                for m, r in table.sparse_power(i * step):
                    acc[m] += a * r
        return _normalised(field, tuple(acc), self.den)

    def conj(self) -> "Scalar":
        if self.num is None:
            return Scalar(self.field, value=self.value.conjugate())
        return self._apply_powers(self.field, -1)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        field = self.field
        num = self.num
        if num is None:
            return Scalar(field, value=1.0 / self.value)
        table = field._table
        den = self.den
        support = [i for i, a in enumerate(num) if a]
        if len(support) == 1:
            # (a/den) x^k has inverse (den/a) x^(N-k); gcd(a, den) == 1 and
            # x^(N-k) is a unit, so the result is already normalised
            k = support[0]
            a = num[k]
            if a < 0:
                a, den = -a, -den
            return Scalar(field, tuple([den * c for c in table.power(-k)]), a)
        inv, unit = _poly_inverse(num, table.poly)
        # num * inv == unit, so (num/den)^-1 = den * inv / unit
        if unit < 0:
            unit, den = -unit, -den
        inv = [den * c for c in inv] + [0] * (table.degree - len(inv))
        return _normalised(field, tuple(inv), unit)

    # predicates and conversions --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field and self.field != other.field:
            return False
        if self.num is not None:
            return self.num == other.num and self.den == other.den
        return (self - other).is_zero()

    def __hash__(self) -> int:
        if self.num is not None:
            return hash((self.field.order, self.num, self.den))
        raise TypeError("approx scalars are not hashable")

    def is_real(self) -> bool:
        return self == self.conj()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if self.num is None or any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def as_root_exponent(self) -> int | None:
        """k with self == zeta_N^k, or None when not a root of unity."""
        if self.num is None:
            return None
        for k, root in enumerate(self.field._all_roots()):
            if self == root:
                return k
        return None

    def abs_squared(self) -> "Scalar":
        return self * self.conj()

    def to_complex(self) -> complex:
        if self.num is None:
            return self.value
        basis = self.field._table.basis_values()
        den = self.den
        return sum(((a / den) * b for a, b in zip(self.num, basis)), 0j)

    def real_sign(self) -> int:
        """Sign of a real scalar; exact for rationals, numeric otherwise."""
        q = self.as_rational()
        if q is not None:
            return (q > 0) - (q < 0)
        if self.field.exact and not self.is_real():
            raise ValueError("real_sign() of a non-real scalar")
        z = self.to_complex()
        if self.field.exact:
            if abs(z.real) < 1e-9:
                raise ValueError("cannot determine sign numerically")
        else:
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
        if self.num is not None:
            den = self.den
            coeffs = []
            for n in self.num:
                g = math.gcd(n, den)
                coeffs.append([str(n // g), str(den // g)])
            return {"kind": "cyclo", "order": self.field.order, "coeffs": coeffs}
        return {"kind": "float", "re": self.value.real, "im": self.value.imag}

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
            return field.from_complex(complex(data["re"], data["im"]))
        raise ValueError(f"unknown scalar kind {kind!r}")

    def __repr__(self) -> str:
        if self.num is None:
            return f"Scalar({self.value!r})"
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
    of a modulus-one scalar.  The memo is keyed by the integer exponent, so
    it works for approx scalars too, which are not hashable.
    """

    __slots__ = ("base", "_powers")

    def __init__(self, base: Scalar):
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
                if not isinstance(s, Scalar) or s.field != field:
                    raise FieldMismatch("matrix entries must share one field")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        zero = field.zero()
        return cls(field, [[zero] * cols for _ in range(rows)])

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
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out)

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
        # Gauss-Jordan; returns (rank, reduced, reduced_augment)
        work = [list(r) for r in self.entries]
        aug = [list(r) for r in augment.entries] if augment is not None else None
        rank = 0
        for col in range(self.cols):
            pivot = None
            if self.field.exact:
                for r in range(rank, self.rows):
                    if not work[r][col].is_zero():
                        pivot = r
                        break
            else:
                best = self.field.tolerance
                for r in range(rank, self.rows):
                    mag = abs(work[r][col].value)
                    if mag > best:
                        best, pivot = mag, r
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            if aug is not None:
                aug[rank], aug[pivot] = aug[pivot], aug[rank]
            inv = work[rank][col].inverse()
            work[rank] = [inv * a for a in work[rank]]
            if aug is not None:
                aug[rank] = [inv * a for a in aug[rank]]
            for r in range(self.rows):
                if r == rank:
                    continue
                factor = work[r][col]
                if factor.is_zero():
                    continue
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
                if aug is not None:
                    aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
            rank += 1
            if rank == self.rows:
                break
        return rank, work, aug

    def rank(self) -> int:
        rank, _, _ = self._eliminate(None)
        return rank

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        rank, _, aug = self._eliminate(Matrix.identity(self.field, self.rows))
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
