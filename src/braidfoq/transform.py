"""Structural isomorphisms of the parameter data: degree shift, double
cover, and the canonical reduction to homogeneity degree zero."""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass

from .graded import GradedSpace, OmegaData, _require_block_condition, validate
from .scalar import Field, Matrix

__all__ = [
    "ReductionTrace",
    "degree_shift",
    "double_cover",
    "reduce_to_degree_zero",
]


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered transform steps landing an instance at degree zero."""

    steps: tuple[tuple, ...]  # ("shift", s) or ("cover",)
    parity_constraint: str  # "none" | "k_minus_l_even"
    final: OmegaData

    def to_json(self) -> dict:
        steps = []
        for step in self.steps:
            if step[0] == "shift":
                steps.append({"kind": "shift", "s": step[1]})
            else:
                steps.append({"kind": "cover"})
        return {"steps": steps, "parity_constraint": self.parity_constraint,
                "final": self.final.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "ReductionTrace":
        steps = []
        for step in data["steps"]:
            if step["kind"] == "shift":
                steps.append(("shift", int(step["s"])))
            elif step["kind"] == "cover":
                steps.append(("cover",))
            else:
                raise ValueError(f"unknown reduction step {step['kind']!r}")
        return cls(steps=tuple(steps), parity_constraint=data["parity_constraint"],
                   final=OmegaData.from_json(data["final"]))


def degree_shift(data: OmegaData, s: int) -> OmegaData:
    """Shift all degrees by -s; omega picks up column phases.

    The entry map is omega[i][j] -> zeta^(-s*deg_j + s(s-1)/2) * omega[i][j]
    with new degrees deg_i - s and new homogeneity degree d - 2s.  The
    single-step phase is the textbook one for s = 1; the global gauge
    factor zeta^(s(s-1)/2) is the unique correction making the family a
    ZZ-action on the data: shift(s) . shift(t) = shift(s+t) on the nose,
    and shift(-s) inverts shift(s) exactly.  It rescales omega by a
    modulus-one constant only, so it never changes the validation scalar.
    """
    space = data.space
    gauge = s * (s - 1) // 2
    phases = [space.zeta_pow(-s * a + gauge) for a in space.degrees]
    # an exact zero stays as it is (its product would be the same zero); an
    # approx entry is always scaled, since the product sets the signs of its
    # zero parts
    exact = space.field.exact
    entries = [[x if exact and x.is_zero() else x * phase for x, phase in zip(row, phases)]
               for row in data.omega.entries]
    # the same n, zeta and field, so the copy shares the zeta_pow memo and
    # its modulus check; subtracting a constant keeps the degrees sorted
    shifted = copy.copy(space)
    object.__setattr__(shifted, "degrees", tuple(a - s for a in space.degrees))
    return OmegaData(space=shifted, omega=Matrix(space.field, entries), d=data.d - 2 * s)


def double_cover(data: OmegaData) -> OmegaData:
    """Pull back along the squaring map of the circle.

    Degrees double, d doubles, omega is unchanged, and zeta is replaced
    by its principal fourth root (argument taken in [0, 2pi)).  Exact
    mode requires zeta to be a root of unity and extends the field from
    Q(zeta_N) to Q(zeta_4N); approx mode takes the numeric branch and
    flags the result.
    """
    space = data.space
    field = space.field
    if field.exact:
        exponent = space.zeta.as_root_exponent()
        if exponent is None:
            raise ValueError("exact double cover requires zeta to be a root of unity")
        big = Field.cyclotomic(4 * field.order)
        zeta4 = big.root(exponent)  # zeta_{4N}^a is the principal fourth root
        omega = data.omega.map_entries(lambda a: a.embed_into(big))
        space4 = GradedSpace(n=space.n, degrees=tuple(2 * a for a in space.degrees),
                             zeta=zeta4, field=big)
        return OmegaData(space=space4, omega=omega, d=2 * data.d)
    theta = cmath.phase(space.zeta.raw)
    if theta < 0:
        theta += 2 * math.pi
    zeta4 = field.from_complex(cmath.exp(1j * theta / 4))
    space4 = GradedSpace(n=space.n, degrees=tuple(2 * a for a in space.degrees),
                         zeta=zeta4, field=field)
    return OmegaData(space=space4, omega=data.omega, d=2 * data.d,
                     branch_warning=True)


def reduce_to_degree_zero(data: OmegaData) -> ReductionTrace:
    """Canonical route to d = 0: midpoint shift, with a cover first when d is odd."""
    _require_block_condition(data)
    parity = "k_minus_l_even" if data.d % 2 else "none"
    steps: list[tuple] = []
    current = data
    if current.d % 2:
        current = double_cover(current)
        steps.append(("cover",))
    if current.d != 0:
        s = current.d // 2
        current = degree_shift(current, s)
        steps.append(("shift", s))
    final_report = validate(current)
    assert final_report.holds and current.d == 0
    assert final_report.c is not None and final_report.c.is_real()
    return ReductionTrace(steps=tuple(steps), parity_constraint=parity, final=current)
