"""Graded parameter data (V, pi, omega): validation, construction, and
the invariants attached to the defining block condition.

The block condition asks for a nonzero scalar c with

    conj(Omega_{a, d-a}) @ Omega_{d-a, a} = c * zeta^(d*a) * I

for every occupied degree a, where Omega_{a,b} collects the entries
omega[i][j] with degree(i) = a and degree(j) = b.  Equivalently,
conj(Omega) @ Omega = c * diag(zeta^(d*degree(i))).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field as dataclass_field

from .scalar import (Field, Matrix, PhasePowers, Scalar, SingularMatrix, _product,
                     sqrt_fraction)

__all__ = [
    "GradedSpace",
    "Infeasible",
    "OmegaData",
    "ValidationReport",
    "f_matrix",
    "irreducibility_test",
    "omega_tilde",
    "solve_omega",
    "triviality_lhs",
    "triviality_scan",
    "validate",
]


class Infeasible(ValueError):
    """No valid omega exists for the requested parameters."""


@dataclass(frozen=True)
class GradedSpace:
    """Dimension, sorted integer degree vector, and the deformation phase."""

    n: int
    degrees: tuple[int, ...]
    zeta: Scalar
    field: Field
    # zeta_pow(e) == zeta^e, memoised per space
    zeta_pow: PhasePowers = dataclass_field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or len(self.degrees) != self.n:
            raise ValueError("degree vector length must equal n")
        if any(a > b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError("degrees must be sorted ascending")
        if self.zeta.field != self.field:
            raise ValueError("zeta must live in the declared field")
        object.__setattr__(self, "zeta_pow", PhasePowers(self.zeta))

    def degree_indices(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, a in enumerate(self.degrees):
            out.setdefault(a, []).append(i)
        return out

    def phase_diagonal(self, d: int) -> Matrix:
        """diag(zeta^(d*degree(i)))."""
        zero = self.field.zero()
        return Matrix(self.field, [
            [self.zeta_pow(d * self.degrees[i]) if i == j else zero for j in range(self.n)]
            for i in range(self.n)])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degrees": list(self.degrees),
            "zeta": self.zeta.to_json(),
            "field": self.field.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "GradedSpace":
        fld = Field.from_json(data["field"])
        return cls(n=int(data["n"]), degrees=tuple(int(a) for a in data["degrees"]),
                   zeta=Scalar.from_json(data["zeta"], fld), field=fld)


@dataclass(frozen=True)
class OmegaData:
    """A graded space together with a d-homogeneous matrix omega."""

    space: GradedSpace
    omega: Matrix
    d: int
    branch_warning: bool = dataclass_field(default=False, compare=False)
    # validate(self), computed on first use: the data are immutable
    _validation: "ValidationReport | None" = dataclass_field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.space.n
        if self.omega.rows != n or self.omega.cols != n:
            raise ValueError("omega must be square of size n")
        if self.omega.field != self.space.field:
            raise ValueError("omega entries must live in the space's field")
        deg = self.space.degrees
        for i in range(n):
            for j in range(n):
                if deg[i] + deg[j] != self.d and not self.omega[i, j].is_zero():
                    raise ValueError(
                        f"omega[{i}][{j}] must vanish: degrees {deg[i]}+{deg[j]} != {self.d}")

    def block(self, a: int, b: int) -> Matrix | None:
        """The block of omega with row degree a and column degree b."""
        idx = self.space.degree_indices()
        rows, cols = idx.get(a), idx.get(b)
        if not rows or not cols:
            return None
        return Matrix(self.space.field,
                      [[self.omega[i, j] for j in cols] for i in rows])

    def to_json(self) -> dict:
        out = {**self.space.to_json(), "d": self.d, "omega": self.omega.to_json()}
        if self.branch_warning:
            out["branch_warning"] = True
        return out

    @classmethod
    def from_json(cls, data: dict) -> "OmegaData":
        space = GradedSpace.from_json(data)
        omega = Matrix.from_json(data["omega"], space.field)
        return cls(space=space, omega=omega, d=int(data["d"]),
                   branch_warning=bool(data.get("branch_warning", False)))


@dataclass(frozen=True)
class ValidationReport:
    holds: bool
    c: Scalar | None
    block_residuals: dict[int, Matrix]
    invertible: bool
    phase_consistency: bool
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "c": None if self.c is None else self.c.to_json(),
            "invertible": self.invertible,
            "phase_consistency": self.phase_consistency,
            "reason": self.reason,
            "block_residual_zero": {str(a): m.is_zero() for a, m in sorted(self.block_residuals.items())},
        }


def validate(data: OmegaData) -> ValidationReport:
    """Check the block condition and extract the scalar c when it holds.

    The report is kept on ``data``, so each instance is validated once."""
    if data._validation is None:
        object.__setattr__(data, "_validation", _validate(data))
    return data._validation


def _validate(data: OmegaData) -> ValidationReport:
    space, d, omega = data.space, data.d, data.omega
    if omega.rows != omega.cols:
        raise ValueError("omega must be square")
    field = space.field
    kernel = field.kernel
    fms, is_zero, zero, one = kernel.fms, kernel.is_zero, kernel.zero, kernel.one
    idx = space.degree_indices()
    # every entry off degree d is zero (OmegaData checks it), so the product
    # skips them and conj(Omega) @ Omega is block diagonal by degree: its
    # block at degree a is conj(Omega_{a,d-a}) @ Omega_{d-a,a}, and zero when
    # degree d-a is unoccupied
    full = _product(kernel, omega._nonzero(conj=True), omega._nonzero(), space.n)

    def _matrix(raw_rows) -> Matrix:
        return Matrix(field, [[Scalar(field, v) for v in row] for row in raw_rows])

    c: Scalar | None = None
    residuals: dict[int, Matrix] = {}
    failure: str | None = None
    for a in sorted(idx):
        rows = idx[a]
        product = [[full[i][j] for j in rows] for i in rows]
        phase = space.zeta_pow(d * a)
        if c is None:
            # c is pinned by the lowest occupied degree; later blocks are checked
            lam = product[0][0]
            if not all(is_zero(fms(p, lam, one) if i == j else p)
                       for i, row in enumerate(product) for j, p in enumerate(row)):
                residuals[a] = _matrix(product)
                failure = failure or "block product is not a scalar multiple of the identity"
                continue
            candidate = Scalar(field, lam) / phase
            if candidate.is_zero():
                residuals[a] = _matrix(product)
                failure = failure or "singular"
                continue
            c = candidate
        expected = (c * phase).raw
        residual = [[fms(p, expected, one if i == j else zero) for j, p in enumerate(row)]
                    for i, row in enumerate(product)]
        residuals[a] = _matrix(residual)
        if not all(is_zero(v) for row in residual for v in row):
            failure = failure or f"block condition fails at degree {a}"

    if field.exact and failure is None:
        # every block product is c * zeta^(d*a) * I with c != 0, so each block
        # Omega_{a,d-a} is square and invertible, and the d-homogeneous omega
        # permutes them: it is invertible without an elimination
        invertible = True
    else:
        invertible = omega.rank() == space.n

    phase_ok = False
    if c is not None:
        phase_ok = (c.conj() / c) == space.zeta_pow(d * d)
        if not phase_ok:
            failure = failure or "conj(c)/c != zeta^(d^2)"
    else:
        failure = failure or "singular"

    # no failure means c was pinned, every residual is zero and the phase holds
    holds = failure is None and invertible
    return ValidationReport(holds=holds, c=c, block_residuals=residuals,
                            invertible=invertible, phase_consistency=phase_ok,
                            reason=None if holds else failure or "singular")


def _require_block_condition(data: OmegaData) -> None:
    """Raise ValueError naming the reason when the instance fails validation."""
    report = validate(data)
    if not report.holds:
        raise ValueError(f"instance fails the block condition: {report.reason}")


def _standard_antisymmetric(field: Field, size: int) -> Matrix:
    """Block-diagonal J with 2x2 blocks [[0,-1],[1,0]]; J conj(J) = -I."""
    assert size % 2 == 0
    zero, one = field.zero(), field.one()
    entries = [[zero] * size for _ in range(size)]
    for b in range(0, size, 2):
        entries[b][b + 1] = -one
        entries[b + 1][b] = one
    return Matrix(field, entries)


def _default_c(space: GradedSpace, d: int) -> Scalar:
    """Some c with conj(c)/c = zeta^(d^2), preferring the middle-block-friendly one."""
    field = space.field
    if d % 2 == 0:
        # c = zeta^(-d^2/2) gives a middle-block demand of exactly +1
        return space.zeta_pow(-(d * d) // 2)
    t = space.zeta_pow(d * d)
    if t.is_one():
        return field.one()
    one = field.one()
    cand = one + t.conj()
    if not cand.is_zero():
        return cand
    # t = -1: need a purely imaginary c
    if field.exact and field.order >= 3:
        z = field.root(1)
        return z - z.conj()
    raise Infeasible("no scalar c with conj(c)/c = zeta^(d^2) exists in this field")


def solve_omega(space: GradedSpace, d: int, free_blocks: dict[int, Matrix],
                c: Scalar | None = None) -> OmegaData:
    """Build a valid omega from free blocks below the middle degree.

    Blocks Omega_{a, d-a} for occupied degrees a < d/2 come from
    free_blocks; their partners are Omega_{d-a, a} = c * zeta^(d*a) *
    conj(Omega_{a, d-a})^(-1).  For even d, the middle block X must solve
    conj(X) X = r * I with r = c * zeta^(d^2/2): sqrt(r) * I when r > 0,
    or sqrt(|r|) * J when r < 0 and the middle dimension is even.
    """
    field = space.field
    idx = space.degree_indices()
    for a, rows in idx.items():
        partner = idx.get(d - a)
        if partner is None or len(partner) != len(rows):
            raise Infeasible(
                f"occupied degrees are not symmetric: dim V_{a} = {len(rows)} but "
                f"dim V_{d - a} = {0 if partner is None else len(partner)}")

    if c is None:
        c = _default_c(space, d)
    else:
        if c.field != field:
            raise ValueError("c must live in the space's field")
        if c.is_zero():
            raise ValueError("c must be nonzero")
        if (c.conj() / c) != space.zeta_pow(d * d):
            raise ValueError("c violates conj(c)/c = zeta^(d^2)")

    zero = field.zero()
    entries = [[zero] * space.n for _ in range(space.n)]

    def _place(block: Matrix, rows: list[int], cols: list[int]):
        for bi, i in enumerate(rows):
            for bj, j in enumerate(cols):
                entries[i][j] = block[bi, bj]

    for a in sorted(idx):
        if 2 * a > d:
            continue
        rows, cols = idx[a], idx[d - a]
        if 2 * a == d:
            # middle block for even d
            r = c * space.zeta_pow((d * d) // 2)
            if not r.is_real():
                raise Infeasible("middle-block demand c*zeta^(d^2/2) is not real")
            sign = r.real_sign()
            size = len(rows)
            if sign > 0:
                root = _scalar_sqrt(r)
                middle = Matrix.identity(field, size).scale(root)
            elif sign < 0:
                if size % 2 != 0:
                    raise Infeasible(
                        "determinant obstruction: negative middle-block demand with odd dimension")
                root = _scalar_sqrt(-r)
                middle = _standard_antisymmetric(field, size).scale(root)
            else:
                raise Infeasible("middle-block demand is zero")
            _place(middle, rows, cols)
            continue
        free = free_blocks.get(a)
        if free is None:
            raise Infeasible(f"missing free block for degree {a}")
        if free.rows != len(rows) or free.cols != len(cols):
            raise Infeasible(f"free block for degree {a} has the wrong shape")
        try:
            partner = free.conj().inverse().scale(c * space.zeta_pow(d * a))
        except SingularMatrix as exc:
            raise Infeasible(f"free block for degree {a} is singular") from exc
        _place(free, rows, cols)
        _place(partner, idx[d - a], idx[a])

    data = OmegaData(space=space, omega=Matrix(field, entries), d=d)
    report = validate(data)
    assert report.holds, "solve_omega produced an invalid instance"
    return data


def _scalar_sqrt(value: Scalar) -> Scalar:
    """Exact square root of a positive scalar; rational squares only."""
    field = value.field
    if not field.exact:
        return field.from_complex(cmath.sqrt(value.raw))
    q = value.as_rational()
    if q is not None:
        root = sqrt_fraction(q)
        if root is not None:
            return field.from_rational(root)
    raise Infeasible(
        "middle-block demand has no exact square root in this field; "
        "choose c so that c*zeta^(d^2/2) is a rational square, or use approx mode")


def omega_tilde(data: OmegaData) -> Matrix:
    """Entrywise phase twist: tilde(omega)[i][j] = omega[i][j] * zeta^(deg_i*deg_j)."""
    space = data.space
    deg = space.degrees
    return Matrix(space.field, [
        [data.omega[i, j] * space.zeta_pow(deg[i] * deg[j]) for j in range(space.n)]
        for i in range(space.n)])


def _triviality_factors(data: OmegaData):
    """The two matrix families whose products give the quartic sums, as raw
    kernel rows: ``a[j][i][k]`` and ``b[i][j][l]``.

    The quartic sum factorizes as A_j[i][k] * B_i[j][l] with
      A_j = conj(omega) @ diag(zeta^(deg_j*deg_t)) @ omega
      B_i = inv(tilde) @ diag(zeta^(-deg_s*deg_i)) @ conj(inv(tilde)).
    A_j depends on j only through deg_j, and B_i on i only through deg_i, so
    each is formed once per degree value and shared.
    """
    space = data.space
    n, deg, field = space.n, space.degrees, space.field
    kernel = field.kernel
    mul, is_zero = kernel.mul, kernel.is_zero
    tilde_inv = omega_tilde(data).inverse()  # raises SingularMatrix when not invertible

    def _phased(left, phases, right):
        # (left @ diag(phases)) @ right, the phases multiplied into left's rows
        return _product(kernel, [[(t, v) for t, x in row if not is_zero(v := mul(x, phases[t]))]
                                 for row in left], right, n)

    omega, conj_omega = data.omega._nonzero(), data.omega._nonzero(conj=True)
    tinv, conj_tinv = tilde_inv._nonzero(), tilde_inv._nonzero(conj=True)
    a_by_degree = {a: _phased(conj_omega, [space.zeta_pow(a * deg[t]).raw for t in range(n)],
                              omega) for a in set(deg)}
    b_by_degree = {a: _phased(tinv, [space.zeta_pow(-deg[s] * a).raw for s in range(n)],
                              conj_tinv) for a in set(deg)}
    return [a_by_degree[a] for a in deg], [b_by_degree[a] for a in deg]


def triviality_lhs(data: OmegaData, i: int, j: int, k: int, l: int) -> Scalar:
    """Left side of the linear-independence identity at indices (i,j,k,l).

    Returns sum_{s,t} zeta^(-deg_s*deg_i + deg_j*deg_t)
            * conj(omega[i][t] * inv(tilde)[s][l]) * omega[t][k] * inv(tilde)[j][s];
    the identity asserts this equals delta_{j,l} * delta_{i,k}.
    Indices are 0-based.
    """
    space = data.space
    deg = space.degrees
    tilde_inv = omega_tilde(data).inverse()
    acc = space.field.zero()
    for t in range(space.n):
        w_it = data.omega[i, t]
        if w_it.is_zero():
            continue
        w_tk = data.omega[t, k]
        if w_tk.is_zero():
            continue
        for s in range(space.n):
            ti_sl = tilde_inv[s, l]
            if ti_sl.is_zero():
                continue
            ti_js = tilde_inv[j, s]
            if ti_js.is_zero():
                continue
            phase = space.zeta_pow(-deg[s] * deg[i] + deg[j] * deg[t])
            acc = acc + phase * (w_it * ti_sl).conj() * w_tk * ti_js
    return acc


def triviality_scan(data: OmegaData) -> list[tuple[tuple[int, int, int, int], Scalar]]:
    """All violations of the identity over the n^4 index tuples (0-based)."""
    n = data.space.n
    a_rows, b_rows = _triviality_factors(data)
    field = data.space.field
    kernel = field.kernel
    mul, fms, is_zero = kernel.mul, kernel.fms, kernel.is_zero
    zero, one = kernel.zero, kernel.one
    if not field.exact and not all(
            cmath.isfinite(v) for m in a_rows + b_rows for row in m for v in row):
        zero = None  # 0 * inf is nan, so every product is formed
    violations = []
    for i in range(n):
        for j in range(n):
            b_row = b_rows[i][j]
            for k, a in enumerate(a_rows[j][i]):
                # off the diagonal a product with an exactly-zero factor is
                # the kernel's zero, which never differs from the expected 0
                if a == zero and k != i:
                    continue
                for l, b in enumerate(b_row):
                    diagonal = k == i and l == j
                    if diagonal or (a != zero and b != zero):
                        value = mul(a, b)
                        if not is_zero(fms(value, one, one) if diagonal else value):
                            violations.append(((i, j, k, l), Scalar(field, value)))
    return violations


def irreducibility_test(space: GradedSpace, omega: Matrix, d: int) -> tuple[bool, Scalar | None]:
    """Irreducibility of the fundamental representation for invertible omega.

    Tests whether conj(Omega) @ Omega @ diag(zeta^(-d*deg_i)) is a scalar
    multiple of the identity; the scalar is the c of the block condition.
    """
    if omega.rows != space.n or omega.cols != space.n:
        raise ValueError("omega must be square of size n")
    rank = omega.rank()
    if rank < space.n:
        raise SingularMatrix("irreducibility criterion requires invertible omega", rank)
    deg = space.degrees
    for i in range(space.n):
        for j in range(space.n):
            if deg[i] + deg[j] != d and not omega[i, j].is_zero():
                raise ValueError("omega must be d-homogeneous")
    product = omega.conj() @ omega @ space.phase_diagonal(-d)
    c = product.scalar_multiple_of_identity()
    if c is None or c.is_zero():
        return False, None
    return True, c


def f_matrix(data: OmegaData) -> Matrix:
    """F[i][j] = zeta^(d*deg_j) * omega[j][i]; for d = 0 this is omega^T."""
    _require_block_condition(data)
    space = data.space
    deg = space.degrees
    return Matrix(space.field, [
        [space.zeta_pow(data.d * deg[j]) * data.omega[j, i] for j in range(space.n)]
        for i in range(space.n)])
