"""The fusion ring, the dimension recursion, and the monoidal-equivalence
q-parameter.

Irreducibles carry labels (k, l) with k >= 0 the SU(2)-type ladder index
and l the circle winding; when the homogeneity degree of the instance is
odd, only labels with k - l even occur.  Tensor products decompose along
the ladder

    r(a,b) (x) r(m,k) = r(a+m, b+k) + r(a+m-2, b+k) + ... + r(|a-m|, b+k),

each summand with multiplicity one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graded import GradedSpace, OmegaData, f_matrix
from .scalar import Field, Matrix, Scalar
from .transform import reduce_to_degree_zero

__all__ = [
    "FusionContext",
    "FusionDecomposition",
    "IrrepLabel",
    "conj_label",
    "dim",
    "fuse",
    "q_parameter",
    "ring_checks",
    "su_q2_reference_instance",
]


@dataclass(frozen=True)
class FusionContext:
    n: int
    parity: str  # "even_d" | "odd_d"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("fusion needs n >= 2")
        if self.parity not in ("even_d", "odd_d"):
            raise ValueError("parity must be 'even_d' or 'odd_d'")


@dataclass(frozen=True, order=True)
class IrrepLabel:
    k: int
    l: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("the ladder index k must be nonnegative")

    def valid_in(self, ctx: FusionContext) -> bool:
        return ctx.parity == "even_d" or (self.k - self.l) % 2 == 0

    def to_json(self) -> dict:
        return {"k": self.k, "l": self.l}


@dataclass(frozen=True)
class FusionDecomposition:
    """Multiplicity-one multiset of labels; all share the same l."""

    summands: tuple[IrrepLabel, ...]

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def to_json(self) -> dict:
        return {"summands": [{"k": a.k, "l": a.l, "mult": 1} for a in self.summands]}


def _check_label(label: IrrepLabel, ctx: FusionContext) -> None:
    if not label.valid_in(ctx):
        raise ValueError(f"label (k={label.k}, l={label.l}) needs k - l even in odd parity")


# one decomposition per ladder (k_a, k_b, l_a + l_b), shared by every caller
_FUSE_MEMO: dict[tuple[int, int, int], FusionDecomposition] = {}


def fuse(a: IrrepLabel, b: IrrepLabel, ctx: FusionContext) -> FusionDecomposition:
    """Ladder decomposition of r(a) (x) r(b), highest rung first.

    The labels are checked against ``ctx`` on every call, but the ladder
    depends only on (a.k, b.k, a.l + b.l): every call with the same three
    integers returns one shared decomposition, kept in a module-level memo.
    It is immutable (a tuple of frozen labels), so sharing it is safe.
    """
    _check_label(a, ctx)
    _check_label(b, ctx)
    l = a.l + b.l
    key = (a.k, b.k, l)
    decomposition = _FUSE_MEMO.get(key)
    if decomposition is not None:
        return decomposition
    rungs = []
    for k in range(a.k + b.k, abs(a.k - b.k) - 1, -2):
        # k >= 0 by construction, so the label skips __init__ and its check
        label = object.__new__(IrrepLabel)
        attrs = label.__dict__
        attrs["k"], attrs["l"] = k, l
        rungs.append(label)
    return _FUSE_MEMO.setdefault(key, FusionDecomposition(tuple(rungs)))


def conj_label(a: IrrepLabel) -> IrrepLabel:
    return IrrepLabel(a.k, -a.l)


_DIM_MEMO: dict[tuple[int, int], int] = {}


def dim(a: IrrepLabel, ctx: FusionContext) -> int:
    """Chebyshev-type recursion dim(k+1) = n*dim(k) - dim(k-1); l never enters."""
    n, k = ctx.n, a.k
    value = _DIM_MEMO.get((n, k))
    if value is not None:
        return value
    d0, d1 = 1, n
    _DIM_MEMO.setdefault((n, 0), 1)
    _DIM_MEMO.setdefault((n, 1), n)
    for m in range(2, k + 1):
        d0, d1 = d1, n * d1 - d0
        _DIM_MEMO[(n, m)] = d1
    return d1 if k >= 1 else 1


def ring_checks(ctx: FusionContext, bound: int) -> dict:
    """Exhaustive desk-scale verification of the fusion-ring axioms.

    Checks, over all valid labels with k <= bound and |l| <= bound:
    commutativity, associativity, the unit r(0,0), conjugation
    anti-compatibility, dimension multiplicativity, and parity closure.
    Any violation is reported with its witness.
    """
    labels = [IrrepLabel(k, l) for k in range(bound + 1)
              for l in range(-bound, bound + 1)
              if IrrepLabel(k, l).valid_in(ctx)]
    failures: list[dict] = []

    def _k_ladder(a: int, b: int) -> list[int]:
        return list(range(abs(a - b), a + b + 1, 2))

    # every product a check reads is fused once, here.  fuse shares one
    # decomposition per ladder, so each distinct object is read once: into
    # its sorted (k, l) rungs, its conjugate's, its dimension and whether a
    # rung leaves the odd-parity labels.  A fuse that returns fresh objects
    # costs more reads, not other answers; each entry holds its object, so
    # no later object can take that id
    odd = ctx.parity == "odd_d"
    read: dict[int, tuple] = {}

    def _read(decomposition: FusionDecomposition) -> tuple:
        entry = read.get(id(decomposition))
        if entry is None:
            rungs = tuple(sorted([(r.k, r.l) for r in decomposition]))
            entry = read[id(decomposition)] = (
                rungs, tuple(sorted([(k, -l) for k, l in rungs])),
                sum([dim(r, ctx) for r in decomposition]),
                odd and any((k - l) % 2 for k, l in rungs), decomposition)
        return entry

    # product[x][y] reads labels[x] (x) labels[y]; conj_label maps the label
    # set onto itself, so conj[x] indexes conj_label(labels[x])
    product = [[_read(fuse(a, b, ctx)) for b in labels] for a in labels]
    where = {(a.k, a.l): x for x, a in enumerate(labels)}
    conj = [where[a.k, -a.l] for a in labels]
    dims = [dim(IrrepLabel(k, 0), ctx) for k in range(bound + 1)]
    unit = product[where[0, 0]]
    for x, a in enumerate(labels):
        if unit[x][0] != ((a.k, a.l),):
            failures.append({"check": "unit", "witness": [a.to_json()]})

    def _fail(check: str, a: IrrepLabel, b: IrrepLabel) -> None:
        failures.append({"check": check, "witness": [a.to_json(), b.to_json()]})

    for x, (a, row) in enumerate(zip(labels, product)):
        dim_a, conj_a = dims[a.k], conj[x]
        for y, (b, (ab, ab_conj, ab_dim, off_parity, _)) in enumerate(zip(labels, row)):
            if ab != product[y][x][0]:
                _fail("commutativity", a, b)
            if dim_a * dims[b.k] != ab_dim:
                _fail("dimension", a, b)
            if ab_conj != product[conj[y]][conj_a][0]:
                _fail("conjugation", a, b)
            if off_parity:
                _fail("parity_closure", a, b)

    # associativity on the integer ladders; the l-components are additive
    ks = sorted({a.k for a in labels})
    for a in ks:
        for b in ks:
            ab = _k_ladder(a, b)
            for c in ks:
                lhs: dict[int, int] = {}
                for m in ab:
                    for r in _k_ladder(m, c):
                        lhs[r] = lhs.get(r, 0) + 1
                rhs: dict[int, int] = {}
                for m in _k_ladder(b, c):
                    for r in _k_ladder(a, m):
                        rhs[r] = rhs.get(r, 0) + 1
                if lhs != rhs:
                    failures.append({"check": "associativity", "witness": [a, b, c]})

    return {"parity": ctx.parity, "n": ctx.n, "bound": bound,
            "label_count": len(labels), "failures": failures, "passed": not failures}


def su_q2_reference_instance(q: float, field: Field | None = None) -> OmegaData:
    """The reference family with a known q, used to calibrate the sign rule.

    F_q = [[0, |q|^(1/2)], [-sign(q) |q|^(-1/2), 0]] on a trivially graded
    two-dimensional space; feeding it through the pipeline must return q.
    Exact for |q| in {1, 1/2} over Q(zeta_8); approx otherwise.
    """
    if not (-1.0 <= q <= 1.0) or q == 0:
        raise ValueError("q must lie in [-1, 1] minus 0")
    sign = 1 if q > 0 else -1
    aq = abs(q)
    if field is None:
        field = Field.cyclotomic(8) if aq in (1.0, 0.5) else Field.approx(1e-12)
    if field.exact:
        if aq == 1.0:
            root = field.one()
            root_inv = field.one()
        elif aq == 0.5 and field.order % 8 == 0:
            z = field.root(field.order // 8)
            sqrt2 = z + z.conj()  # 2 cos(pi/4)
            root = sqrt2 * field.from_rational("1/2")
            root_inv = sqrt2
        else:
            raise ValueError("exact reference instance needs |q| in {1, 1/2} over Q(zeta_8k)")
        zeta = field.one()
        zero = field.zero()
        f_entries = [[zero, root], [(-field.from_int(sign)) * root_inv, zero]]
    else:
        zeta = field.from_complex(1.0)
        zero = field.from_complex(0.0)
        f_entries = [[zero, field.from_complex(math.sqrt(aq))],
                     [field.from_complex(-sign / math.sqrt(aq)), zero]]
    F = Matrix(field, f_entries)
    space = GradedSpace(n=2, degrees=(0, 0), zeta=zeta, field=field)
    return OmegaData(space=space, omega=F.transpose(), d=0)


def q_parameter(data: OmegaData) -> dict:
    """The unique q in [-1,1] minus 0 attached to the instance.

    Pipeline: reduce to degree zero, take F with F conj(F) = c I and c
    real, set tau = Tr(F^* F) / |c|, solve x + 1/x = tau for x in (0, 1],
    and fix sign(q) = -sign(c); the sign rule is pinned by the reference
    family above rather than asserted a priori.
    """
    trace_data = reduce_to_degree_zero(data)
    final = trace_data.final
    F = f_matrix(final)
    c = (F @ F.conj()).scalar_multiple_of_identity()
    assert c is not None and c.is_real()
    sign_c = c.real_sign()
    assert sign_c != 0
    gram = F.conj_transpose() @ F
    abs_c = c if sign_c > 0 else -c
    tau = gram.trace() / abs_c
    tau_value = tau.to_complex().real
    n = final.space.n
    assert tau_value >= 2.0 - 1e-9 and tau_value >= n - 1e-9
    if tau_value <= 2.0:
        magnitude = 1.0
    else:
        magnitude = (tau_value - math.sqrt(tau_value * tau_value - 4.0)) / 2.0
    q = -sign_c * magnitude
    return {"q": q, "trace": tau, "sign_source": c}
