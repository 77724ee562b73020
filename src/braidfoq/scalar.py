"""Exact cyclotomic scalars, a floating complex fallback, and exact matrices.

Exact scalars live in Q(zeta_N), stored as coefficient vectors of length
phi(N) reduced modulo the N-th cyclotomic polynomial, so equality is a
vector comparison.  The approx mode stores a complex double and compares
with an absolute tolerance.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction

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

_FR0 = Fraction(0)
_FR1 = Fraction(1)


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
        # x^k mod Phi_order for k = 0, 1, ...; extended lazily
        self._powers: list[tuple[int, ...]] = []
        for k in range(self.degree):
            vec = [0] * self.degree
            vec[k] = 1
            self._powers.append(tuple(vec))
        self._lock = threading.Lock()
        self._conj: list[tuple[int, ...]] | None = None
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

    def conj_basis(self) -> list[tuple[int, ...]]:
        if self._conj is None:
            self._conj = [self.power((self.order - i) % self.order) for i in range(self.degree)]
        return self._conj

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
        self._zero = self.from_rational(_FR0)
        self._one = self.from_rational(_FR1)

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
            coeffs = [_FR0] * self.degree
            coeffs[0] = q
            return Scalar(self, coeffs=tuple(coeffs))
        return Scalar(self, value=complex(q))

    def from_int(self, value: int) -> "Scalar":
        return self.from_rational(Fraction(value))

    def root(self, exponent: int = 1) -> "Scalar":
        """The root of unity zeta_N^exponent (exact) or its complex value."""
        if self.exact:
            vec = self._table.power(exponent % self.order)
            return Scalar(self, coeffs=tuple(Fraction(c) for c in vec))
        # approx fields have no distinguished order; default to the unit
        raise ValueError("root() requires an exact field; use from_complex")

    def from_complex(self, value: complex) -> "Scalar":
        if self.exact:
            raise ValueError("from_complex() requires an approx field")
        return Scalar(self, value=complex(value))

    def from_coeffs(self, coeffs) -> "Scalar":
        if not self.exact:
            raise ValueError("from_coeffs() requires an exact field")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(vec)}")
        return Scalar(self, coeffs=tuple(vec))

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


class Scalar:
    """Immutable field element; exact coefficient vector or complex double."""

    __slots__ = ("field", "coeffs", "value")

    def __init__(self, field: Field, coeffs: tuple[Fraction, ...] | None = None,
                 value: complex | None = None):
        self.field = field
        if field.exact:
            assert coeffs is not None and value is None
            self.coeffs = coeffs
            self.value = None
        else:
            assert value is not None and coeffs is None
            self.coeffs = None
            self.value = value

    # helpers --------------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise FieldMismatch(f"expected Scalar, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch(f"field mismatch: {self.field} vs {other.field}")

    def is_zero(self) -> bool:
        if self.field.exact:
            return all(c == 0 for c in self.coeffs)
        return abs(self.value) <= self.field.tolerance

    def is_one(self) -> bool:
        return (self - self.field.one()).is_zero()

    # arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if self.field.exact:
            return Scalar(self.field, coeffs=tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return Scalar(self.field, value=self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if self.field.exact:
            return Scalar(self.field, coeffs=tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))
        return Scalar(self.field, value=self.value - other.value)

    def __neg__(self) -> "Scalar":
        if self.field.exact:
            return Scalar(self.field, coeffs=tuple(-a for a in self.coeffs))
        return Scalar(self.field, value=-self.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if not self.field.exact:
            return Scalar(self.field, value=self.value * other.value)
        deg = self.field.degree
        table = self.field._table
        nz_a = [(i, a) for i, a in enumerate(self.coeffs) if a]
        nz_b = [(j, b) for j, b in enumerate(other.coeffs) if b]
        acc = [_FR0] * deg
        for i, a in nz_a:
            for j, b in nz_b:
                k = i + j
                prod = a * b
                if k < deg:
                    acc[k] += prod
                else:
                    red = table.power(k)
                    for m, r in enumerate(red):
                        if r:
                            acc[m] += prod * r
        return Scalar(self.field, coeffs=tuple(acc))

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

    def conj(self) -> "Scalar":
        if not self.field.exact:
            return Scalar(self.field, value=self.value.conjugate())
        deg = self.field.degree
        images = self.field._table.conj_basis()
        acc = [_FR0] * deg
        for i, a in enumerate(self.coeffs):
            if a:
                img = images[i]
                for m, r in enumerate(img):
                    if r:
                        acc[m] += a * r
        return Scalar(self.field, coeffs=tuple(acc))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        if not self.field.exact:
            return Scalar(self.field, value=1.0 / self.value)
        # extended Euclid in Q[x] against Phi_N
        modulus = [Fraction(c) for c in self.field._table.poly]
        r0, r1 = modulus, list(self.coeffs)
        s0, s1 = [_FR0], [_FR1]

        def _trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        r0, r1 = _trim(r0), _trim(r1)
        while len(r1) > 1 or (len(r1) == 1 and r1[0] != 0):
            if len(r1) == 1:
                break
            if len(r0) < len(r1):
                r0, r1 = r1, r0
                s0, s1 = s1, s0
                continue
            # one division step
            q = [_FR0] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for k in range(len(q) - 1, -1, -1):
                c = rem[k + len(r1) - 1] / r1[-1]
                q[k] = c
                if c:
                    for i, d in enumerate(r1):
                        rem[k + i] -= c * d
            rem = _trim(rem)
            # new s = s0 - q*s1
            prod = [_FR0] * (len(q) + len(s1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        prod[i + j] += qi * sj
            new_s = [_FR0] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(prod):
                new_s[i] -= c
            r0, r1 = r1, rem
            s0, s1 = s1, _trim(new_s) or [_FR0]
        if not r1 or r1[0] == 0:
            raise ZeroDivisionError("scalar is not invertible")
        unit = r1[0]
        inv = [c / unit for c in s1]
        inv += [_FR0] * (self.field.degree - len(inv))
        # reduce defensively (inv may have full degree already)
        out = self.field.from_coeffs(inv[: self.field.degree])
        return out

    # predicates and conversions --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar) or self.field != other.field:
            return NotImplemented if not isinstance(other, Scalar) else False
        return (self - other).is_zero()

    def __hash__(self) -> int:
        if self.field.exact:
            return hash((self.field, self.coeffs))
        raise TypeError("approx scalars are not hashable")

    def is_real(self) -> bool:
        return self == self.conj()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if not self.field.exact:
            return None
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def as_root_exponent(self) -> int | None:
        """k with self == zeta_N^k, or None when not a root of unity."""
        if not self.field.exact:
            return None
        for k, root in enumerate(self.field._all_roots()):
            if self == root:
                return k
        return None

    def abs_squared(self) -> "Scalar":
        return self * self.conj()

    def to_complex(self) -> complex:
        if not self.field.exact:
            return self.value
        basis = self.field._table.basis_values()
        return sum((float(a) * b for a, b in zip(self.coeffs, basis)), 0j)

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
        step = field.order // self.field.order
        table = field._table
        acc = [_FR0] * field.degree
        for i, a in enumerate(self.coeffs):
            if a:
                img = table.power(i * step)
                for m, r in enumerate(img):
                    if r:
                        acc[m] += a * r
        return Scalar(field, coeffs=tuple(acc))

    # serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.field.exact:
            return {
                "kind": "cyclo",
                "order": self.field.order,
                "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
            }
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
        if not self.field.exact:
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
