import pytest

from braidfoq import (FusionContext, IrrepLabel, conj_label, dim, double_cover,
                      fuse, q_parameter, ring_checks, su_q2_reference_instance)
from braidfoq.fusion import FusionDecomposition


@pytest.fixture(scope="module")
def even():
    return FusionContext(n=2, parity="even_d")


@pytest.fixture(scope="module")
def odd():
    return FusionContext(n=2, parity="odd_d")


def test_fundamental_square(even):
    got = [(r.k, r.l) for r in fuse(IrrepLabel(1, 0), IrrepLabel(1, 0), even)]
    assert got == [(2, 0), (0, 0)]


def test_ladder_example(even):
    got = [(r.k, r.l) for r in fuse(IrrepLabel(2, 3), IrrepLabel(1, -1), even)]
    assert got == [(3, 2), (1, 2)]


def test_character_tensor(even):
    got = [(r.k, r.l) for r in fuse(IrrepLabel(0, 5), IrrepLabel(3, 2), even)]
    assert got == [(3, 7)]


def test_multiplicity_one_arithmetic_ladder(even):
    decomposition = fuse(IrrepLabel(4, 1), IrrepLabel(2, -2), even)
    ks = [r.k for r in decomposition]
    assert ks == [6, 4, 2]
    assert len(set(decomposition.summands)) == len(decomposition.summands)
    assert len({r.l for r in decomposition}) == 1


def test_conjugation(even):
    assert conj_label(IrrepLabel(3, 2)) == IrrepLabel(3, -2)
    assert conj_label(IrrepLabel(4, 0)) == IrrepLabel(4, 0)
    assert conj_label(conj_label(IrrepLabel(5, -3))) == IrrepLabel(5, -3)


def test_dimensions(even):
    assert dim(IrrepLabel(0, 7), even) == 1
    assert dim(IrrepLabel(1, 0), even) == 2
    assert dim(IrrepLabel(2, 0), even) == 3
    n3 = FusionContext(n=3, parity="even_d")
    assert dim(IrrepLabel(2, 0), n3) == 8
    assert dim(IrrepLabel(3, 0), n3) == 21


def test_odd_parity_labels(odd):
    assert IrrepLabel(1, 1).valid_in(odd)
    assert not IrrepLabel(1, 0).valid_in(odd)
    with pytest.raises(ValueError):
        fuse(IrrepLabel(1, 0), IrrepLabel(0, 0), odd)


def test_odd_parity_closure(odd):
    decomposition = fuse(IrrepLabel(2, 4), IrrepLabel(3, 1), odd)
    assert all(r.valid_in(odd) for r in decomposition)


def test_unit_label(even):
    for label in (IrrepLabel(0, 0), IrrepLabel(3, -2)):
        assert tuple(fuse(IrrepLabel(0, 0), label, even)) == (label,)


def test_ring_checks_pass(even, odd):
    for ctx in (even, odd, FusionContext(n=3, parity="even_d"),
                FusionContext(n=3, parity="odd_d")):
        report = ring_checks(ctx, 4)
        assert report["passed"], report["failures"][:3]


def test_q_oracle_family():
    for q in (-1.0, -0.5, 0.3, 1.0):
        instance = su_q2_reference_instance(q)
        assert abs(q_parameter(instance)["q"] - q) < 1e-12


def test_q_of_fixtures(e0, e2):
    assert q_parameter(e0)["q"] == -1.0
    assert q_parameter(e2)["q"] == 1.0


def test_q_trace_values(e0, f8):
    result = q_parameter(e0)
    assert result["trace"] == f8.from_int(2)
    assert result["sign_source"] == f8.one()


def test_q_stable_across_reduction_routes(e1, e2):
    for inst in (e1, e2):
        assert q_parameter(inst)["q"] == q_parameter(double_cover(inst))["q"]


def test_q_invariant_under_even_shift(e2):
    from braidfoq import degree_shift

    assert q_parameter(e2)["q"] == q_parameter(degree_shift(e2, 1))["q"]


def test_labels_with_distinct_winding_stay_distinct(even):
    decomposition = fuse(IrrepLabel(2, 1), IrrepLabel(2, 2), even)
    assert all(r.l == 3 for r in decomposition)
    other = fuse(IrrepLabel(2, 0), IrrepLabel(2, 2), even)
    assert set(decomposition.summands).isdisjoint(set(other.summands))


def _reference_failures(ctx, bound, fuse_fn):
    """The unit and per-pair failures of ``ring_checks``, in its order,
    found by fusing each pair afresh for every axiom that reads it."""
    labels = [IrrepLabel(k, l) for k in range(bound + 1)
              for l in range(-bound, bound + 1) if IrrepLabel(k, l).valid_in(ctx)]
    failures = [{"check": "unit", "witness": [a.to_json()]} for a in labels
                if tuple(fuse_fn(IrrepLabel(0, 0), a, ctx)) != (a,)]
    for a in labels:
        for b in labels:
            ab = fuse_fn(a, b, ctx)
            witness = [a.to_json(), b.to_json()]
            if sorted(ab) != sorted(fuse_fn(b, a, ctx)):
                failures.append({"check": "commutativity", "witness": witness})
            if dim(a, ctx) * dim(b, ctx) != sum(dim(r, ctx) for r in ab):
                failures.append({"check": "dimension", "witness": witness})
            if (sorted(conj_label(r) for r in ab)
                    != sorted(fuse_fn(conj_label(b), conj_label(a), ctx))):
                failures.append({"check": "conjugation", "witness": witness})
            if not all(r.valid_in(ctx) for r in ab):
                failures.append({"check": "parity_closure", "witness": witness})
    return failures


def _skewed(a, b, ctx):
    # moves the winding of a x b by 2 when a sorts before b: still a valid,
    # dimension-preserving ladder, but neither commutative nor
    # conjugation-compatible
    rungs = fuse(a, b, ctx)
    if a < b and a != IrrepLabel(0, 0):
        return FusionDecomposition(tuple(IrrepLabel(r.k, r.l + 2) for r in rungs))
    return rungs


def _short(a, b, ctx):
    # drops the lowest rung when both ladders are nontrivial and a winds
    # less than b: the dimensions no longer multiply
    rungs = fuse(a, b, ctx)
    if a.k and b.k and a.l < b.l:
        return FusionDecomposition(rungs.summands[:-1])
    return rungs


def _off_parity(a, b, ctx):
    # moves the winding by 1 when a.k < b.k, which leaves the odd-parity
    # labels
    rungs = fuse(a, b, ctx)
    if a.k < b.k:
        return FusionDecomposition(tuple(IrrepLabel(r.k, r.l + 1) for r in rungs))
    return rungs


def test_ring_checks_report_broken_fusion_like_the_reference(monkeypatch, even, odd):
    import braidfoq.fusion as fusion_module

    for broken, breaks in ((_skewed, {"commutativity", "conjugation"}),
                           (_short, {"dimension"}), (_off_parity, {"parity_closure"})):
        monkeypatch.setattr(fusion_module, "fuse", broken)
        checks = set()
        for ctx in (even, odd):
            expected = _reference_failures(ctx, 3, broken)
            report = ring_checks(ctx, 3)
            got = [f for f in report["failures"] if f["check"] != "associativity"]
            assert expected and got == expected
            assert not report["passed"]
            checks.update(f["check"] for f in got)
        assert checks >= breaks


def test_ring_checks_fuse_each_ordered_pair_exactly_once(monkeypatch, even, odd):
    # the checks read fuse's own answers, not a copy of its formula
    import braidfoq.fusion as fusion_module

    for ctx in (even, odd, FusionContext(n=3, parity="odd_d")):
        calls = []

        def counting(a, b, c):
            calls.append(((a.k, a.l), (b.k, b.l)))
            return fuse(a, b, c)

        monkeypatch.setattr(fusion_module, "fuse", counting)
        report = ring_checks(ctx, 3)
        labels = [(k, l) for k in range(4) for l in range(-3, 4)
                  if IrrepLabel(k, l).valid_in(ctx)]
        assert sorted(calls) == sorted((a, b) for a in labels for b in labels)
        assert report["label_count"] == len(labels) and report["passed"]


def test_fuse_rungs_behave_like_constructed_labels(even, odd):
    import pickle

    for ctx in (even, odd):
        for a in range(4):
            for b in range(4):
                x, y = IrrepLabel(a, a % 2), IrrepLabel(b, -(b % 2) - 2)
                rungs = list(fuse(x, y, ctx))
                built = [IrrepLabel(r.k, x.l + y.l) for r in rungs]
                assert rungs == built and [hash(r) for r in rungs] == [hash(r) for r in built]
                assert [repr(r) for r in rungs] == [repr(r) for r in built]
                assert [r.to_json() for r in rungs] == [r.to_json() for r in built]
                assert sorted(rungs) == sorted(built) == built[::-1]
                assert all(r < IrrepLabel(r.k + 1, r.l) for r in rungs)
                assert pickle.loads(pickle.dumps(rungs)) == built
    with pytest.raises(ValueError, match="nonnegative"):
        IrrepLabel(-1, 0)


def test_fuse_shares_one_decomposition_per_ladder(even, odd):
    # the ladder depends on (a.k, b.k, a.l + b.l) only, not on the context;
    # the labels are still checked against the context on every call
    shared = fuse(IrrepLabel(2, 1), IrrepLabel(1, 0), even)
    assert fuse(IrrepLabel(2, -3), IrrepLabel(1, 4), even) is shared
    assert fuse(IrrepLabel(2, 2), IrrepLabel(1, -1), odd) is shared
    assert fuse(IrrepLabel(2, 2), IrrepLabel(1, 0), even) is not shared
    assert fuse(IrrepLabel(1, 0), IrrepLabel(2, 1), even) is not shared
    with pytest.raises(ValueError, match="k - l even"):
        fuse(IrrepLabel(2, 1), IrrepLabel(1, 0), odd)


def test_ring_checks_read_fresh_decompositions_like_shared_ones(monkeypatch, even, odd):
    # ring_checks reads each distinct decomposition object once; a fuse
    # that builds a new (equal) object per call must give the same report
    import braidfoq.fusion as fusion_module

    def fresh(a, b, ctx):
        return FusionDecomposition(tuple(IrrepLabel(r.k, r.l) for r in fuse(a, b, ctx)))

    for ctx in (even, odd, FusionContext(n=3, parity="odd_d")):
        shared = ring_checks(ctx, 4)
        monkeypatch.setattr(fusion_module, "fuse", fresh)
        assert ring_checks(ctx, 4) == shared
        assert shared["passed"] and shared["label_count"] > 0
        monkeypatch.undo()
