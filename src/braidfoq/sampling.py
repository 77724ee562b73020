"""Seeded random instances for the property suites.

Everything here is driven by an explicit random.Random so that reports
are reproducible from the recorded seed alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graded import GradedSpace, OmegaData, _default_c, solve_omega, validate
from .scalar import Field, Matrix, Scalar

__all__ = [
    "mutate_one_entry",
    "random_homogeneous_invertible",
    "random_invertible_matrix",
    "random_valid_instance",
]

_RATIONAL_PALETTE = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2),
                     Fraction(3, 2), Fraction(-1)]


def _random_scalar(rng: random.Random, field: Field) -> Scalar:
    coeff = field.from_rational(rng.choice(_RATIONAL_PALETTE))
    return coeff * field.root(rng.randrange(field.order))


def random_invertible_matrix(rng: random.Random, field: Field, size: int) -> Matrix:
    for _ in range(50):
        entries = [[_random_scalar(rng, field) if rng.random() < 0.8 else field.zero()
                    for _ in range(size)] for _ in range(size)]
        candidate = Matrix(field, entries)
        if candidate.rank() == size:
            return candidate
    # fall back to a unit diagonal, always invertible
    return Matrix(field, [[field.root(rng.randrange(field.order)) if i == j else field.zero()
                           for j in range(size)] for i in range(size)])


def _random_degree_pattern(rng: random.Random, n: int, d: int):
    """Split n into mirror pairs (a, d-a) plus an optional middle slot."""
    middle = 0
    if d % 2 == 0:
        if n % 2 == 1:
            middle = rng.choice([1, 3]) if n >= 3 else 1
        elif rng.random() < 0.5:
            middle = rng.choice([0, 2])
        middle = min(middle, n)
        if (n - middle) % 2 == 1:
            middle += 1
    else:
        if n % 2 == 1:
            raise ValueError("odd n needs an even homogeneity degree (middle slot)")
    remaining = n - middle
    half = d // 2 if d % 2 == 0 else (d - 1) // 2
    low_degrees = [a for a in range(half - 3, half + 1) if 2 * a < d]
    sizes: dict[int, int] = {}
    while remaining > 0:
        a = rng.choice(low_degrees)
        sizes[a] = sizes.get(a, 0) + 1
        remaining -= 2
    degrees: list[int] = []
    for a, k in sizes.items():
        degrees.extend([a] * k)
        degrees.extend([d - a] * k)
    if middle:
        degrees.extend([d // 2] * middle)
    return tuple(sorted(degrees)), sizes, middle


def random_valid_instance(rng: random.Random, n: int | None = None,
                          order: int | None = None, d: int | None = None,
                          scale_c: bool = True) -> OmegaData:
    """A random instance satisfying the block condition, built by solving.

    Mixes degree patterns, includes middle blocks for even d, and scales
    c by a random positive rational square so |c| varies.
    """
    if n is None:
        n = rng.choice([2, 3, 4, 6])
    if order is None:
        order = rng.choice([4, 8, 12, 24])
    field = Field.cyclotomic(order)
    zeta = field.root(rng.randrange(order))
    if d is None:
        d = rng.choice([-2, -1, 0, 1, 2, 3]) if n % 2 == 0 else rng.choice([-2, 0, 2])
    degrees, sizes, middle = _random_degree_pattern(rng, n, d)
    space = GradedSpace(n=n, degrees=degrees, zeta=zeta, field=field)

    free_blocks = {a: random_invertible_matrix(rng, field, k) for a, k in sizes.items()}
    c = _default_c(space, d)
    if scale_c:
        c = c * field.from_rational(rng.choice([Fraction(1), Fraction(1), Fraction(4, 9),
                                                Fraction(9, 4), Fraction(1, 4)]))
    return solve_omega(space, d, free_blocks, c)


def mutate_one_entry(rng: random.Random, data: OmegaData) -> OmegaData | None:
    """Multiply one nonzero omega entry by zeta; None when zeta is trivial."""
    space = data.space
    if space.zeta.is_one():
        return None
    nonzero = [(i, j) for i in range(space.n) for j in range(space.n)
               if not data.omega[i, j].is_zero()]
    if not nonzero:
        return None
    i0, j0 = rng.choice(nonzero)
    entries = [[data.omega[i, j] if (i, j) != (i0, j0)
                else data.omega[i, j] * space.zeta
                for j in range(space.n)] for i in range(space.n)]
    return OmegaData(space=space, omega=Matrix(space.field, entries), d=data.d)


def random_homogeneous_invertible(rng: random.Random, n: int | None = None,
                                  order: int | None = None) -> OmegaData:
    """Invertible homogeneous data that may or may not satisfy the block
    condition; used to exercise the irreducibility criterion."""
    data = random_valid_instance(rng, n=n, order=order)
    for _ in range(rng.randrange(3)):
        mutated = mutate_one_entry(rng, data)
        if mutated is not None and mutated.omega.rank() == data.space.n:
            data = mutated
    if rng.random() < 0.5:
        # scale one entry by a rational to break the condition more bluntly
        space = data.space
        nonzero = [(i, j) for i in range(space.n) for j in range(space.n)
                   if not data.omega[i, j].is_zero()]
        i0, j0 = rng.choice(nonzero)
        factor = space.field.from_rational(rng.choice([Fraction(2), Fraction(1, 3)]))
        entries = [[data.omega[i, j] if (i, j) != (i0, j0)
                    else data.omega[i, j] * factor
                    for j in range(space.n)] for i in range(space.n)]
        candidate = OmegaData(space=space, omega=Matrix(space.field, entries), d=data.d)
        if candidate.omega.rank() == space.n:
            data = candidate
    return data
