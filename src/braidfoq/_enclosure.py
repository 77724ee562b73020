"""Rigorous rational enclosures of pi and of cos(pi r) for rational r, from
which ``Scalar.real_sign`` decides the sign of an irrational real value."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import count


def _alternating(terms, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on the sum of an alternating series, given by the sizes of its
    terms, that fall from the second term on: from there every partial sum
    lies within the next term of the sum.  The first term below eps ends it."""
    total = Fraction(0)
    for j, term in enumerate(terms):
        if j >= 2 and term < eps:
            return total - term, total + term
        total += -term if j % 2 else term


@cache
def pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < pi < hi with hi - lo < 2^-bits, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    eps = Fraction(1, 1 << (bits + 6))

    def atan_inv(m: int) -> tuple[Fraction, Fraction]:
        return _alternating((Fraction(1, (2 * j + 1) * m ** (2 * j + 1)) for j in count()), eps)

    (a_lo, a_hi), (b_lo, b_hi) = atan_inv(5), atan_inv(239)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


@cache
def cos_pi_bounds(r: Fraction, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * cos(pi * r) <= hi, with hi - lo <= 2."""
    r %= 2
    if r > 1:
        r = 2 - r  # cos(pi r) = cos(pi (2 - r))
    sign = -1 if 2 * r > 1 else 1
    if sign < 0:
        r = 1 - r  # cos(pi r) = -cos(pi (1 - r))
    # pi r lies in [0, pi/2], where cos falls and its Taylor terms fall from
    # the second on; so cos(pi r) lies between the cosines at the ends of
    # r * [pi_lo, pi_hi], rounded outward to multiples of 2^-scale
    scale = bits + 8
    unit, eps = 1 << scale, Fraction(1, 1 << scale)
    pi_lo, pi_hi = pi_bounds(scale)

    def cos_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
        return _alternating((x ** (2 * j) / math.factorial(2 * j) for j in count()), eps)

    lo = cos_bounds(Fraction(math.ceil(r * pi_hi * unit), unit))[0]
    hi = cos_bounds(Fraction(math.floor(r * pi_lo * unit), unit))[1]
    if sign < 0:
        lo, hi = -hi, -lo
    return math.floor(lo * (1 << bits)), math.ceil(hi * (1 << bits))
