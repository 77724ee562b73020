import random

from braidfoq import (Field, Matrix, OmegaData, ReductionTrace, degree_shift,
                      double_cover, reduce_to_degree_zero, validate)
from braidfoq.sampling import random_valid_instance
from conftest import abs_squared


def test_shift_example_on_e2(e2, f8):
    shifted = degree_shift(e2, 1)
    assert shifted.space.degrees == (-1, 1)
    assert shifted.d == 0
    assert shifted.omega[0, 1] == -f8.one()
    assert shifted.omega[1, 0] == f8.one()
    report = validate(shifted)
    assert report.holds and report.c == -f8.one()


def test_shift_zero_is_identity(e1):
    assert degree_shift(e1, 0).omega == e1.omega


def test_shift_round_trip_and_additivity():
    rng = random.Random(3)
    for _ in range(15):
        inst = random_valid_instance(rng)
        s = rng.randrange(-3, 4)
        t = rng.randrange(-3, 4)
        back = degree_shift(degree_shift(inst, s), -s)
        assert back.omega == inst.omega and back.space.degrees == inst.space.degrees
        assert degree_shift(degree_shift(inst, t), s).omega == degree_shift(inst, s + t).omega


def test_shift_preserves_validation_with_c_law():
    # general law: c' = zeta^(2s(d-s)) c; at the midpoint s = d/2 this is
    # the quoted zeta^(s d) c
    rng = random.Random(13)
    for _ in range(15):
        inst = random_valid_instance(rng)
        c = validate(inst).c
        s = rng.randrange(-3, 4)
        shifted = degree_shift(inst, s)
        report = validate(shifted)
        assert report.holds
        assert report.c == inst.space.zeta_pow(2 * s * (inst.d - s)) * c


def test_midpoint_shift_c_law():
    rng = random.Random(17)
    for _ in range(15):
        inst = random_valid_instance(rng)
        even = inst if inst.d % 2 == 0 else double_cover(inst)
        s = even.d // 2
        if s == 0:
            continue
        before = validate(even).c
        after = validate(degree_shift(even, s)).c
        assert after == even.space.zeta_pow(s * even.d) * before


def test_shift_preserves_entry_magnitudes():
    rng = random.Random(23)
    inst = random_valid_instance(rng)
    shifted = degree_shift(inst, 2)
    total = inst.space.field.zero()
    total_shifted = inst.space.field.zero()
    for i in range(inst.space.n):
        for j in range(inst.space.n):
            total = total + abs_squared(inst.omega[i, j])
            total_shifted = total_shifted + abs_squared(shifted.omega[i, j])
    assert total == total_shifted


def test_double_cover_of_e1(e1):
    covered = double_cover(e1)
    f32 = Field.cyclotomic(32)
    assert covered.space.degrees == (0, 2)
    assert covered.d == 2
    assert covered.space.zeta == f32.root(6)
    assert covered.space.zeta ** 4 == e1.space.zeta.embed_into(f32)
    report = validate(covered)
    assert report.holds
    # omega is unchanged up to the field embedding
    for i in range(2):
        for j in range(2):
            assert covered.omega[i, j] == e1.omega[i, j].embed_into(f32)


def test_double_cover_trivial_grading(e0):
    covered = double_cover(e0)
    assert covered.space.degrees == (0, 0)
    assert covered.d == 0
    assert validate(covered).holds


def test_double_cover_approx_branch_warning():
    field = Field.approx(1e-10)
    import cmath

    zeta = field.from_complex(cmath.exp(0.7j))
    from braidfoq import GradedSpace

    space = GradedSpace(n=2, degrees=(0, 0), zeta=zeta, field=field)
    data = OmegaData(space=space,
                     omega=Matrix(field, [[field.from_complex(1), field.from_complex(0)],
                                          [field.from_complex(0), field.from_complex(1)]]),
                     d=0)
    covered = double_cover(data)
    assert covered.branch_warning
    assert abs(covered.space.zeta.raw ** 4 - zeta.raw) < 1e-9


def test_reduce_e2_single_shift(e2, f8):
    trace = reduce_to_degree_zero(e2)
    assert trace.steps == (("shift", 1),)
    assert trace.parity_constraint == "none"
    assert validate(trace.final).c == -f8.one()


def test_reduce_e1_route(e1):
    trace = reduce_to_degree_zero(e1)
    assert trace.steps == (("cover",), ("shift", 1))
    assert trace.parity_constraint == "k_minus_l_even"
    assert trace.final.space.degrees == (-1, 1)
    assert trace.final.d == 0


def test_reduce_e0_empty(e0):
    trace = reduce_to_degree_zero(e0)
    assert trace.steps == ()
    assert trace.parity_constraint == "none"


def test_reduce_idempotent():
    rng = random.Random(37)
    for _ in range(8):
        inst = random_valid_instance(rng)
        final = reduce_to_degree_zero(inst).final
        again = reduce_to_degree_zero(final)
        assert again.steps == ()
        assert again.final.omega == final.omega


def test_reduce_lands_real_c():
    rng = random.Random(41)
    for _ in range(10):
        inst = random_valid_instance(rng)
        trace = reduce_to_degree_zero(inst)
        report = validate(trace.final)
        assert trace.final.d == 0 and report.holds and report.c.is_real()


def test_trace_json_round_trip(e1):
    trace = reduce_to_degree_zero(e1)
    rebuilt = ReductionTrace.from_json(trace.to_json())
    assert rebuilt.steps == trace.steps
    assert rebuilt.parity_constraint == trace.parity_constraint
    assert rebuilt.final.omega == trace.final.omega


def test_double_cover_requires_root_of_unity():
    # a unit-modulus cyclotomic number that is not a root of unity
    from fractions import Fraction

    import pytest

    from braidfoq import Field, GradedSpace

    field = Field.cyclotomic(4)
    i_unit = field.root(1)
    zeta = field.from_rational(Fraction(3, 5)) + i_unit * field.from_rational(Fraction(4, 5))
    assert (zeta * zeta.conj()).is_one()
    assert zeta.as_root_exponent() is None
    space = GradedSpace(n=2, degrees=(0, 0), zeta=zeta, field=field)
    data = OmegaData(space=space, omega=Matrix.identity(field, 2), d=0)
    with pytest.raises(ValueError, match="root of unity"):
        double_cover(data)


def test_shift_shares_the_phase_memo_and_keeps_zero_entries():
    rng = random.Random(14)
    for order in (4, 8, 12):
        inst = random_valid_instance(rng, n=4, order=order)
        for s in (-2, 1, 3):
            shifted = degree_shift(inst, s)
            assert shifted.space.zeta_pow is inst.space.zeta_pow
            assert shifted.space.degrees == tuple(a - s for a in inst.space.degrees)
            assert inst.space.degrees == tuple(sorted(inst.space.degrees))
            for row, new_row in zip(inst.omega.entries, shifted.omega.entries):
                for x, y in zip(row, new_row):
                    assert (y is x) if x.is_zero() else not y.is_zero()
