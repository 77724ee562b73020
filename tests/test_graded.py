import random

import pytest

from braidfoq import (Field, GradedSpace, Infeasible, Matrix, OmegaData, Scalar,
                      SingularMatrix, f_matrix, irreducibility_test, omega_tilde,
                      solve_omega, triviality_lhs, triviality_scan, validate)
from braidfoq.sampling import (mutate_one_entry, random_invertible_matrix,
                               random_valid_instance)
from conftest import zeros


def test_identity_instance_validates(e0, f8):
    report = validate(e0)
    assert report.holds
    assert report.c == f8.one()
    assert report.invertible and report.phase_consistency


def test_e1_validates_with_c(e1, f8):
    report = validate(e1)
    assert report.holds
    assert report.c == f8.root(1)
    assert report.reason is None


def test_e1_broken_by_inconsistent_block(e1, f8):
    z = f8.root(1)
    zero = f8.zero()
    omega = Matrix(f8, [[zero, z ** 7], [z, zero]])
    broken = OmegaData(space=e1.space, omega=omega, d=1)
    report = validate(broken)
    assert not report.holds


def test_all_zero_omega_is_singular(f8):
    space = GradedSpace(n=2, degrees=(0, 0), zeta=f8.one(), field=f8)
    data = OmegaData(space=space, omega=zeros(f8, 2, 2), d=0)
    report = validate(data)
    assert not report.holds
    assert report.reason == "singular"
    assert not report.invertible


def test_homogeneity_enforced(f8):
    space = GradedSpace(n=2, degrees=(0, 1), zeta=f8.root(6), field=f8)
    with pytest.raises(ValueError):
        OmegaData(space=space, omega=Matrix.identity(f8, 2), d=1)


def test_phase_consistency_necessary(f8):
    # holds implies conj(c)/c = zeta^(d^2), by construction of validate
    rng = random.Random(5)
    for _ in range(10):
        inst = random_valid_instance(rng)
        report = validate(inst)
        assert report.holds
        assert report.c.conj() / report.c == inst.space.zeta_pow(inst.d * inst.d)


def test_solve_reproduces_e1(e1, f8):
    z = f8.root(1)
    free = {0: Matrix(f8, [[z ** 7]])}
    built = solve_omega(e1.space, 1, free, c=z)
    assert built.omega == e1.omega


def test_solve_middle_identity(f8):
    space = GradedSpace(n=2, degrees=(0, 0), zeta=f8.root(1), field=f8)
    built = solve_omega(space, 0, {}, c=f8.one())
    assert built.omega == Matrix.identity(f8, 2)


def test_solve_determinant_obstruction(f8):
    space = GradedSpace(n=3, degrees=(0, 0, 0), zeta=f8.one(), field=f8)
    with pytest.raises(Infeasible, match="determinant"):
        solve_omega(space, 0, {}, c=-f8.one())


def test_solve_negative_middle_with_even_dimension(f8):
    space = GradedSpace(n=2, degrees=(0, 0), zeta=f8.one(), field=f8)
    data = solve_omega(space, 0, {}, c=-f8.one())
    assert validate(data).holds


def test_solve_rejects_asymmetric_degrees(f8):
    space = GradedSpace(n=2, degrees=(0, 2), zeta=f8.root(1), field=f8)
    with pytest.raises(Infeasible, match="symmetric"):
        solve_omega(space, 1, {}, c=None)


def test_solve_round_trip_on_determined_blocks():
    rng = random.Random(11)
    for _ in range(10):
        inst = random_valid_instance(rng)
        report = validate(inst)
        idx = inst.space.degree_indices()
        free = {a: inst.block(a, inst.d - a) for a in idx if 2 * a < inst.d}
        rebuilt = solve_omega(inst.space, inst.d, free, c=report.c)
        for a in idx:
            if 2 * a > inst.d:
                assert rebuilt.block(inst.d - a, a) is not None
                assert rebuilt.block(inst.d - a, a) == inst.block(inst.d - a, a)


def test_triviality_values_on_e1(e1, f8):
    assert triviality_lhs(e1, 0, 0, 0, 0) == f8.one()
    assert triviality_lhs(e1, 0, 0, 1, 0) == f8.zero()
    assert not triviality_scan(e1)


def test_triviality_violated_by_scaled_entry(e1, f8):
    z = f8.root(1)
    zero, one = f8.zero(), f8.one()
    omega = Matrix(f8, [[zero, z ** 7 * z], [one, zero]])
    perturbed = OmegaData(space=e1.space, omega=omega, d=1)
    assert not validate(perturbed).holds
    assert triviality_scan(perturbed)


def test_triviality_matches_validity_on_random_instances():
    rng = random.Random(21)
    for _ in range(15):
        inst = random_valid_instance(rng)
        assert not triviality_scan(inst)
        mutant = mutate_one_entry(rng, inst)
        if mutant is None or mutant.omega.rank() < mutant.space.n:
            continue
        if not validate(mutant).holds:
            assert triviality_scan(mutant)


def test_irreducibility_examples(e0, e1, f8):
    ok, c = irreducibility_test(e1.space, e1.omega, e1.d)
    assert ok and c == f8.root(1)
    ok0, c0 = irreducibility_test(e0.space, e0.omega, 0)
    assert ok0 and c0 == f8.one()
    space = GradedSpace(n=2, degrees=(0, 0), zeta=f8.root(1), field=f8)
    diag = Matrix(f8, [[f8.one(), f8.zero()], [f8.zero(), f8.from_int(2)]])
    ok2, c2 = irreducibility_test(space, diag, 0)
    assert not ok2 and c2 is None


def test_irreducibility_requires_invertible(f8):
    space = GradedSpace(n=2, degrees=(0, 0), zeta=f8.one(), field=f8)
    with pytest.raises(SingularMatrix):
        irreducibility_test(space, zeros(f8, 2, 2), 0)


def test_f_matrix_examples(e0, e1, e2, f8):
    z = f8.root(1)
    assert f_matrix(e0) == Matrix.identity(f8, 2)
    F1 = f_matrix(e1)
    assert F1[0, 1] == z ** 6
    assert F1[1, 0] == z ** 7
    from braidfoq import reduce_to_degree_zero

    reduced = reduce_to_degree_zero(e2).final
    Fr = f_matrix(reduced)
    zero, one = f8.zero(), f8.one()
    assert Fr == Matrix(f8, [[zero, one], [-one, zero]])
    assert (Fr @ Fr.conj()).scalar_multiple_of_identity() == -one


def test_f_matrix_refuses_invalid(e1, f8):
    z = f8.root(1)
    omega = Matrix(f8, [[f8.zero(), z ** 7], [z, f8.zero()]])
    broken = OmegaData(space=e1.space, omega=omega, d=1)
    with pytest.raises(ValueError):
        f_matrix(broken)


def test_omega_tilde_examples(e0, e1, f8):
    assert omega_tilde(e0) == e0.omega
    ot = omega_tilde(e1)
    assert ot[0, 1] == f8.root(7)
    assert ot[1, 0] == f8.one()


def test_omega_tilde_phase_formula(f8):
    z = f8.root(1)
    space = GradedSpace(n=2, degrees=(1, 1), zeta=z, field=f8)
    omega = Matrix.identity(f8, 2)
    data = OmegaData(space=space, omega=omega, d=2)
    assert omega_tilde(data) == omega.scale(z)


def test_tilde_gram_matches_omega_gram():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_valid_instance(rng)
        tilde = omega_tilde(inst)
        assert tilde.conj() @ tilde == inst.omega.conj() @ inst.omega


def test_omega_json_round_trip(e1):
    rebuilt = OmegaData.from_json(e1.to_json())
    assert rebuilt.omega == e1.omega
    assert rebuilt.space.degrees == e1.space.degrees
    assert rebuilt.d == e1.d


def test_triviality_lhs_agrees_with_factorized_scan():
    # two code paths for one formula: the literal quartic sum and the
    # factorized matrix products behind the full scan
    from braidfoq.graded import _triviality_factors

    rng = random.Random(61)
    for _ in range(6):
        inst = random_valid_instance(rng, n=rng.choice([2, 3]), order=8)
        a_rows, b_rows = _triviality_factors(inst)
        n, field = inst.space.n, inst.space.field
        for _ in range(8):
            i, j, k, l = (rng.randrange(n) for _ in range(4))
            assert triviality_lhs(inst, i, j, k, l) == (
                Scalar(field, a_rows[j][i][k]) * Scalar(field, b_rows[i][j][l]))


def test_solve_with_multidimensional_blocks_and_middle(f8):
    z = f8.root(1)
    space = GradedSpace(n=6, degrees=(0, 0, 1, 1, 2, 2), zeta=z ** 2, field=f8)
    free = {0: Matrix(f8, [[z, f8.one()], [f8.zero(), z ** 3]])}
    data = solve_omega(space, 2, free, c=None)
    report = validate(data)
    assert report.holds
    assert not triviality_scan(data)
    # the middle block solves conj(X) X = c zeta^2 I on the degree-1 slot
    middle = data.block(1, 1)
    assert middle is not None
    product = middle.conj() @ middle
    assert product.scalar_multiple_of_identity() == report.c * space.zeta_pow(2)


def _as_approx(data, tolerance=1e-9):
    """The same instance over complex doubles."""
    field = Field.approx(tolerance)
    space = data.space
    approx_space = GradedSpace(n=space.n, degrees=space.degrees,
                               zeta=field.from_complex(space.zeta.to_complex()), field=field)
    omega = Matrix(field, [[field.from_complex(a.to_complex()) for a in row]
                           for row in data.omega.entries])
    return OmegaData(space=approx_space, omega=omega, d=data.d)


def _reference_scan(data):
    """Every one of the n^4 products of the factor matrices, compared with
    the Kronecker deltas in Scalar arithmetic."""
    from braidfoq.graded import _triviality_factors

    a_rows, b_rows = _triviality_factors(data)
    field, n = data.space.field, data.space.n
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    value = Scalar(field, a_rows[j][i][k]) * Scalar(field, b_rows[i][j][l])
                    if value != (field.one() if i == k and j == l else field.zero()):
                        violations.append(((i, j, k, l), value))
    return violations


def _same_violations(got, expected):
    assert [indices for indices, _ in got] == [indices for indices, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert repr(a.raw) == repr(b.raw)


def test_triviality_scan_matches_brute_force_reference(e1, f8):
    rng = random.Random(8)
    cases = [e1, OmegaData(space=e1.space, d=1, omega=Matrix(
        f8, [[f8.zero(), f8.one()], [f8.one(), f8.zero()]]))]
    while len(cases) < 14:
        inst = random_valid_instance(rng, n=rng.choice([2, 3, 4]), order=rng.choice([4, 8, 12]))
        cases.append(inst)
        mutant = mutate_one_entry(rng, inst)
        if mutant is not None and mutant.omega.rank() == mutant.space.n:
            cases.append(mutant)
    violated = 0
    for data in cases:
        for variant in (data, _as_approx(data)):
            expected = _reference_scan(variant)
            _same_violations(triviality_scan(variant), expected)
            violated += bool(expected)
    assert violated >= 4
    # an infinite entry: 0 * inf is nan, so no zero factor may be skipped
    approx = _as_approx(e1)
    omega = [list(row) for row in approx.omega.entries]
    omega[1][0] = approx.space.field.from_complex(complex(float("inf"), 0.0))
    infinite = OmegaData(space=approx.space, omega=Matrix(approx.space.field, omega), d=1)
    expected = _reference_scan(infinite)
    assert expected
    _same_violations(triviality_scan(infinite), expected)


# -- validate on raw values against the Matrix-based reference ----------------


def _reference_validate(data):
    """The block condition checked with Matrix arithmetic throughout:
    block(), conj, @, identity, scale and -, and an elimination for the rank."""
    from braidfoq import Scalar, ValidationReport

    space, d = data.space, data.d
    idx = space.degree_indices()
    invertible = data.omega.rank() == space.n
    c: Scalar | None = None
    residuals = {}
    failure = None
    for a in sorted(idx):
        upper = data.block(a, d - a)
        lower = data.block(d - a, a)
        size = len(idx[a])
        if upper is None or lower is None:
            product = zeros(space.field, size, size)
        else:
            product = upper.conj() @ lower
        phase = space.zeta_pow(d * a)
        if c is None:
            lam = product.scalar_multiple_of_identity()
            if lam is None:
                residuals[a] = product
                failure = failure or "block product is not a scalar multiple of the identity"
                continue
            candidate = lam / phase
            if candidate.is_zero():
                residuals[a] = product
                failure = failure or "singular"
                continue
            c = candidate
        expected = Matrix.identity(space.field, size).scale(c * phase)
        residuals[a] = product - expected
        if not residuals[a].is_zero():
            failure = failure or f"block condition fails at degree {a}"
    phase_ok = False
    if c is not None:
        phase_ok = (c.conj() / c) == space.zeta_pow(d * d)
        if not phase_ok:
            failure = failure or "conj(c)/c != zeta^(d^2)"
    else:
        failure = failure or "singular"
    holds = (failure is None and c is not None and invertible and phase_ok
             and all(m.is_zero() for m in residuals.values()))
    if not holds and failure is None:
        failure = "singular" if not invertible else "inconsistent blocks"
    return ValidationReport(holds=holds, c=c, block_residuals=residuals,
                            invertible=invertible, phase_consistency=phase_ok,
                            reason=None if holds else failure)


def _same_report(got, expected):
    assert (got.holds, got.reason, got.invertible, got.phase_consistency) == (
        expected.holds, expected.reason, expected.invertible, expected.phase_consistency)
    assert (got.c is None) == (expected.c is None)
    if got.c is not None:
        assert repr(got.c.raw) == repr(expected.c.raw)
    assert sorted(got.block_residuals) == sorted(expected.block_residuals)
    for a, m in expected.block_residuals.items():
        assert got.block_residuals[a].is_zero() == m.is_zero()


def _zero_row_cases(f8):
    z = f8.root(1)
    zero, one = f8.zero(), f8.one()
    e1_space = GradedSpace(n=2, degrees=(0, 1), zeta=f8.root(2), field=f8)
    cases = [OmegaData(space=e1_space, d=1, omega=Matrix(f8, [[zero, zero], [z, zero]])),
             OmegaData(space=e1_space, d=1, omega=Matrix(f8, [[zero, z ** 7], [zero, zero]]))]
    # degree 1 has no partner at d = 0, so its row band must vanish
    lone = GradedSpace(n=2, degrees=(0, 1), zeta=f8.root(2), field=f8)
    cases.append(OmegaData(space=lone, d=0, omega=Matrix(f8, [[one, zero], [zero, zero]])))
    # one zero row inside a two-dimensional block
    wide = GradedSpace(n=4, degrees=(0, 0, 1, 1), zeta=f8.root(2), field=f8)
    rows = [[zero, zero, one, z], [zero] * 4, [one, zero, zero, zero], [zero, one, zero, zero]]
    cases.append(OmegaData(space=wide, d=1, omega=Matrix(f8, rows)))
    return cases


def test_validate_matches_matrix_reference(f8):
    rng = random.Random(11)
    cases = _zero_row_cases(f8)
    for order in (4, 8, 12, 24):
        for n in (2, 3, 4, 5, 6):
            inst = random_valid_instance(rng, n=n, order=order)
            cases.append(inst)
            for _ in range(2):
                mutant = mutate_one_entry(rng, inst)
                if mutant is not None:
                    cases.append(mutant)
    outcomes = set()
    for data in cases:
        for variant in (data, _as_approx(data)):
            report = validate(variant)
            assert report.invertible == (variant.omega.rank() == variant.space.n)
            _same_report(report, _reference_validate(variant))
            outcomes.add((report.holds, report.invertible, (report.reason or "").split(" at ")[0]))
    assert len(outcomes) >= 5


def test_triviality_factors_match_diagonal_products():
    from braidfoq.graded import _triviality_factors

    def _diag(field, values):
        zero = field.zero()
        return Matrix(field, [[v if s == t else zero for t, v in enumerate(values)]
                              for s in range(len(values))])

    rng = random.Random(12)
    cases = [random_valid_instance(rng, n=rng.choice([2, 3, 4]), order=rng.choice([4, 8, 24]))
             for _ in range(6)]
    approx = _as_approx(cases[0])
    omega = [list(row) for row in approx.omega.entries]
    i, j = next((i, j) for i in range(approx.space.n) for j in range(approx.space.n)
                if not omega[i][j].is_zero())
    omega[i][j] = approx.space.field.from_complex(complex(float("inf"), -0.0))
    infinite = OmegaData(space=approx.space, omega=Matrix(approx.space.field, omega), d=approx.d)
    for data in [*cases, *map(_as_approx, cases), infinite]:
        space = data.space
        n, deg, field = space.n, space.degrees, space.field
        tilde_inv = omega_tilde(data).inverse()
        a_rows, b_rows = _triviality_factors(data)
        for j in range(n):
            expected = (data.omega.conj() @ _diag(field, [space.zeta_pow(deg[j] * deg[t])
                                                          for t in range(n)]) @ data.omega)
            assert [repr(a) for row in a_rows[j] for a in row] == [
                repr(a.raw) for row in expected.entries for a in row]
        for i in range(n):
            expected = (tilde_inv @ _diag(field, [space.zeta_pow(-deg[s] * deg[i])
                                                  for s in range(n)]) @ tilde_inv.conj())
            assert [repr(b) for row in b_rows[i] for b in row] == [
                repr(b.raw) for row in expected.entries for b in row]


def _naive_product(x_rows, y_rows):
    """x @ y by the schoolbook loop in Scalar arithmetic: each entry is
    zero + a*b + ... over ascending k, skipping zero factors."""
    out = []
    for x_row in x_rows:
        row = []
        for j in range(len(y_rows[0])):
            acc = x_row[0].field.zero()
            for k, a in enumerate(x_row):
                b = y_rows[k][j]
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def _naive_residuals(data):
    """validate's residual blocks from the naive conj(omega) @ omega: a
    block read before c is pinned is the product itself, and every later
    block is product - c * zeta^(d*a) * I."""
    space, d = data.space, data.d
    one, zero = space.field.one(), space.field.zero()
    omega = data.omega.entries
    full = _naive_product([[a.conj() for a in row] for row in omega], omega)
    c, residuals = None, {}
    for a, rows in sorted(space.degree_indices().items()):
        block = [[full[i][j] for j in rows] for i in rows]
        phase = space.zeta_pow(d * a)
        if c is None:
            lam = block[0][0]
            if not all((p - lam if i == j else p).is_zero()
                       for i, row in enumerate(block) for j, p in enumerate(row)):
                residuals[a] = block
                continue
            if (lam / phase).is_zero():
                residuals[a] = block
                continue
            c = lam / phase
        residuals[a] = [[p - (c * phase) * (one if i == j else zero) for j, p in enumerate(row)]
                        for i, row in enumerate(block)]
    return residuals


def _naive_factors(data):
    """_triviality_factors' A_j and B_i from naive products, the diagonal
    phases multiplied into the left factor's entries."""
    space = data.space
    n, deg = space.n, space.degrees
    omega = data.omega.entries
    tilde_inv = omega_tilde(data).inverse().entries
    conj_omega = [[a.conj() for a in row] for row in omega]
    conj_tinv = [[a.conj() for a in row] for row in tilde_inv]
    a_rows = [_naive_product([[row[t] * space.zeta_pow(deg[j] * deg[t]) for t in range(n)]
                              for row in conj_omega], omega) for j in range(n)]
    b_rows = [_naive_product([[row[s] * space.zeta_pow(-deg[s] * deg[i]) for s in range(n)]
                              for row in tilde_inv], conj_tinv) for i in range(n)]
    return a_rows, b_rows


def _bits(rows):
    return [[repr(a.raw if isinstance(a, Scalar) else a) for a in row] for row in rows]


def _with_signed_zeros(data):
    """An approx copy whose real and imaginary parts below 1e-15 in size are
    -0.0, so that products and sums meet signed zeros."""
    field = Field.approx(1e-9)

    def signed(z):
        return field.from_complex(complex(*(-0.0 if abs(t) < 1e-15 else t
                                            for t in (z.real, z.imag))))

    space = data.space
    approx_space = GradedSpace(n=space.n, degrees=space.degrees,
                               zeta=signed(space.zeta.to_complex()), field=field)
    omega = Matrix(field, [[signed(a.to_complex()) for a in row] for row in data.omega.entries])
    return OmegaData(space=approx_space, omega=omega, d=data.d)


def _product_owner_cases(orders, seed):
    """Random valid instances and their mutants, with one instance per order
    whose dense 3x3 blocks make each product entry a sum of three terms."""
    rng = random.Random(seed)
    cases = []
    for order in orders:
        field = Field.cyclotomic(order)
        wide = GradedSpace(n=6, degrees=(0, 0, 0, 1, 1, 1), zeta=field.root(1), field=field)
        dense = solve_omega(wide, 1, {0: random_invertible_matrix(rng, field, 3)})
        for inst in [dense, *(random_valid_instance(rng, n=n, order=order) for n in (2, 3, 4))]:
            cases.append(inst)
            mutant = mutate_one_entry(rng, inst)
            if mutant is not None:
                cases.append(mutant)
    return cases


def _assert_products_match_naive_loops(data):
    omega = data.omega
    for x, y in ((omega.conj(), omega), (omega, omega.conj_transpose()),
                 (omega_tilde(data), omega)):
        assert _bits((x @ y).entries) == _bits(_naive_product(x.entries, y.entries))
    residuals = validate(data).block_residuals
    expected = _naive_residuals(data)
    assert sorted(residuals) == sorted(expected)
    for a, block in expected.items():
        assert _bits(residuals[a].entries) == _bits(block)
    from braidfoq.graded import _triviality_factors

    got, want = _triviality_factors(data), _naive_factors(data)
    for got_family, want_family in zip(got, want):
        assert [_bits(m) for m in got_family] == [_bits(m) for m in want_family]


def test_approx_products_match_naive_loops_with_signed_zeros(e0, e1, e2):
    cases = [_with_signed_zeros(data)
             for data in (e0, e1, e2, *_product_owner_cases((4, 8, 12), seed=21))]
    signed = [t for data in cases for row in data.omega.entries for a in row
              for t in (a.raw.real, a.raw.imag) if str(t) == "-0.0"]
    assert signed, "the cases must carry signed zeros"
    for data in cases:
        _assert_products_match_naive_loops(data)


def test_exact_products_match_naive_loops():
    for data in _product_owner_cases((5, 12, 24), seed=22):
        _assert_products_match_naive_loops(data)


@pytest.mark.parametrize("field, zeta", [
    (Field.cyclotomic(8), lambda f: f.from_int(2)),
    (Field.approx(), lambda f: f.from_complex(1.5)),
])
def test_zeta_off_the_unit_circle_is_rejected_alike(field, zeta):
    from braidfoq.freealg import AlgebraContext

    with pytest.raises(ValueError) as space_error:
        GradedSpace(n=2, degrees=(0, 1), zeta=zeta(field), field=field)
    with pytest.raises(ValueError) as context_error:
        AlgebraContext(field=field, zeta=zeta(field), degrees=(0, 1))
    assert str(space_error.value) == str(context_error.value) == "zeta must have modulus one"


def test_zeta_field_is_checked_before_its_modulus(f8):
    from braidfoq.freealg import AlgebraContext

    approx = Field.approx()
    with pytest.raises(ValueError, match="declared field"):
        GradedSpace(n=2, degrees=(0, 1), zeta=approx.from_complex(1.5), field=f8)
    with pytest.raises(ValueError, match="context field"):
        AlgebraContext(field=f8, zeta=approx.from_complex(1.5), degrees=(0, 1))


def test_validate_reports_each_instance_once(f8):
    from braidfoq import degree_shift

    rng = random.Random(14)
    for order in (4, 8, 12):
        inst = random_valid_instance(rng, n=rng.choice([2, 3, 4]), order=order)
        report = validate(inst)
        assert validate(inst) is report and report.holds
        # the memo is no field of the data: equality and repr ignore it
        fresh = OmegaData(space=inst.space, omega=inst.omega, d=inst.d)
        assert fresh == inst and repr(fresh) == repr(inst)
        assert validate(fresh) is not report and validate(fresh) == report
        shifted = degree_shift(inst, 1)
        assert validate(shifted) is not report and validate(shifted).holds
        mutant = mutate_one_entry(rng, inst)
        if mutant is not None:
            assert validate(mutant) is not report
            assert validate(mutant) is validate(mutant)
    broken = OmegaData(space=inst.space, omega=zeros(inst.space.field, inst.space.n,
                                                     inst.space.n), d=inst.d)
    assert validate(broken) is validate(broken) and not validate(broken).holds
