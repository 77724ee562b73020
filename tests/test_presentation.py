import json
import random
from dataclasses import replace

import pytest

from braidfoq import (Matrix, aof_presentation, bosonisation_presentation,
                      braided_presentation, circle_presentation,
                      deserialize_presentation, f_matrix, projection_morphisms,
                      reduce_to_degree_zero, serialize_presentation,
                      t_form_presentation)
from braidfoq.freealg import AlgebraElement, TensorElement
from braidfoq.presentation import (MorphismSpec, aof_to_tform_morphism, apply_morphism,
                                   check_morphism, substitute_t_generators)
from braidfoq.sampling import random_valid_instance
from conftest import strip_unit_factors, zeros


def _letter(ctx, sym):
    return AlgebraElement.from_letter(ctx, sym)


def test_braided_relation_count(e0, e1):
    assert len(braided_presentation(e0).relations) == 12
    assert len(braided_presentation(e1).relations) == 12


def test_braided_invariance_identity_omega(e0):
    p = braided_presentation(e0)
    ctx = p.context
    assert p.relation("invariance(0,0)") == _letter(ctx, ctx.u(0, 0)) - _letter(ctx, ctx.ustar(0, 0))


def test_braided_isometry_formula(e1):
    p = braided_presentation(e1)
    ctx = p.context
    expected = (_letter(ctx, ctx.ustar(0, 0)) * _letter(ctx, ctx.u(0, 1))
                + _letter(ctx, ctx.ustar(1, 0)) * _letter(ctx, ctx.u(1, 1)))
    assert p.relation("isometry(0,1)") == expected


def test_relations_are_homogeneous(e1):
    for p in (braided_presentation(e1), bosonisation_presentation(e1),
              t_form_presentation(e1)):
        for rel in p.relations:
            assert rel.is_zero() or rel.beta_degree() is not None


def test_braided_refuses_invalid(e1, f8):
    from braidfoq import OmegaData

    z = f8.root(1)
    omega = Matrix(f8, [[f8.zero(), z ** 7], [z, f8.zero()]])
    with pytest.raises(ValueError):
        braided_presentation(OmegaData(space=e1.space, omega=omega, d=1))


def test_bosonisation_counts_and_absorbed_relations(e1):
    p = bosonisation_presentation(e1)
    assert len(p.relations) == 12 + 1 + 4
    assert p.relation("z_unitary").is_zero()
    for i in range(2):
        for j in range(2):
            assert p.relation(f"commutation({i},{j})").is_zero()


def test_bosonisation_commutation_coefficient(e1, f8):
    # z u[0,1] = zeta^(d0-d1) u[0,1] z with zeta = zeta_8^6: coefficient zeta_8^2
    p = bosonisation_presentation(e1)
    ctx = p.context
    lhs = AlgebraElement.from_raw(ctx, [ctx.z(1), ctx.u(0, 1)])
    assert list(lhs.terms.values())[0] == f8.root(2)


def test_bosonisation_comult_formulas(e1):
    p = bosonisation_presentation(e1)
    ctx = p.context
    zleg = _letter(ctx, ctx.z(1))
    assert p.comult[ctx.z(1)] == TensorElement.tensor(zleg, zleg)
    expected = (TensorElement.tensor(_letter(ctx, ctx.u(0, 0)),
                                     AlgebraElement.from_raw(ctx, [ctx.z(0), ctx.u(0, 1)]))
                + TensorElement.tensor(_letter(ctx, ctx.u(0, 1)),
                                       AlgebraElement.from_raw(ctx, [ctx.z(1), ctx.u(1, 1)])))
    assert p.comult[ctx.u(0, 1)] == expected


def test_tform_invariance_carries_z(e1):
    p = t_form_presentation(e1)
    rel = p.relation("invariance(0,0)")
    assert any(w.zexp == 1 for w in rel.terms)


def test_tform_matches_aof_at_degree_zero(e2):
    reduced = reduce_to_degree_zero(e2).final
    tform = t_form_presentation(reduced)
    aof = aof_presentation(f_matrix(reduced), zeta=reduced.space.zeta)

    def canonical(p):
        return sorted(
            tuple((w.key(), json.dumps(c.to_json(), sort_keys=True))
                  for w, c in strip_unit_factors(r).sorted_terms())
            for r in p.relations if not r.is_zero())

    assert canonical(tform) == canonical(aof)


def test_tform_substitution_gives_bosonisation(e1):
    boson = bosonisation_presentation(e1)
    tform = t_form_presentation(e1)
    for label, rel in zip(tform.relation_labels, tform.relations):
        if rel.is_zero():
            continue
        substituted = substitute_t_generators(rel, e1, boson.context)
        if label.startswith("t_"):
            target = boson.relation(label[2:])
        else:
            i, j = label[label.index("(") + 1:-1].split(",")
            target = boson.relation(f"invariance({j},{i})")
        assert strip_unit_factors(substituted) == strip_unit_factors(target)


def test_aof_identity_matrix_relation(f8):
    p = aof_presentation(Matrix.identity(f8, 2))
    ctx = p.context
    assert p.relation("intertwine(0,0)") == _letter(ctx, ctx.x(0, 0)) - _letter(ctx, ctx.xstar(0, 0))
    assert len(p.relations) == 12


def test_aof_antisymmetric_matrix_relation(f8):
    one, zero = f8.one(), f8.zero()
    F = Matrix(f8, [[zero, one], [-one, zero]])
    p = aof_presentation(F)
    ctx = p.context
    # (i,j) = (0,1): sum_k x[0,k] F[k,1] - sum_k F[0,k] x*[k,1]
    expected = _letter(ctx, ctx.x(0, 0)) - _letter(ctx, ctx.xstar(1, 1))
    assert p.relation("intertwine(0,1)") == expected


def test_aof_rejects_singular(f8):
    with pytest.raises(ValueError):
        aof_presentation(zeros(f8, 2, 2))


def test_projection_morphisms(e1):
    iota, pi = projection_morphisms(e1)
    boson = bosonisation_presentation(e1)
    circle = circle_presentation(e1.space.field, e1.space.zeta)
    ctx_b, ctx_c = boson.context, circle.context
    assert pi.assignment[ctx_b.u(0, 1)].is_zero()
    assert pi.assignment[ctx_b.u(0, 0)] == AlgebraElement.one(ctx_c)
    assert check_morphism(pi, boson, circle)
    assert check_morphism(iota, circle, boson)
    # pi of the unitarity relation collapses to delta - delta = 0
    assert apply_morphism(pi, boson.relation("isometry(0,1)"), ctx_c).is_zero()
    assert apply_morphism(pi, boson.relation("isometry(0,0)"), ctx_c).is_zero()
    # pi of the invariance relation is the homogeneity scalar identity
    assert apply_morphism(pi, boson.relation("invariance(1,0)"), ctx_c).is_zero()
    # iota then pi is the identity on the circle generator
    z_elem = AlgebraElement.from_letter(ctx_c, ctx_c.z(1))
    assert apply_morphism(pi, apply_morphism(iota, z_elem, ctx_b), ctx_c) == z_elem


def test_aof_to_tform_morphism(e2):
    reduced = reduce_to_degree_zero(e2).final
    phi = aof_to_tform_morphism(reduced)
    aof = aof_presentation(f_matrix(reduced), zeta=reduced.space.zeta)
    tform = t_form_presentation(reduced)
    assert check_morphism(phi, aof, tform)


def _scaled(morphism, generator, coeff):
    """The morphism with one generator's image scaled by ``coeff``."""
    image = morphism.assignment[generator].scale(coeff)
    return MorphismSpec(morphism.source, morphism.target,
                        {**morphism.assignment, generator: image})


def _aof_tform(data):
    reduced = reduce_to_degree_zero(data).final
    return (aof_to_tform_morphism(reduced),
            aof_presentation(f_matrix(reduced), zeta=reduced.space.zeta),
            t_form_presentation(reduced))


@pytest.mark.parametrize("fixture", ["e0", "e1", "e2"])
def test_mutated_morphisms_are_not_certified(request, fixture):
    data = request.getfixturevalue(fixture)
    _, pi = projection_morphisms(data)
    boson = bosonisation_presentation(data)
    circle = circle_presentation(data.space.field, data.space.zeta)
    # u(0,0) -> zeta sends an invariance relation to a nonzero constant
    assert not check_morphism(_scaled(pi, boson.context.u(0, 0), circle.context.zeta),
                              boson, circle)
    phi, aof, tform = _aof_tform(data)
    assert check_morphism(phi, aof, tform)
    for generator in phi.assignment:
        assert not check_morphism(_scaled(phi, generator, tform.context.zeta), aof, tform)


def test_a_certificate_that_does_not_replay_raises(e2, monkeypatch):
    import braidfoq.presentation as presentation

    certify = presentation.ideal_membership

    def doubled(target, relations, degree_bound):
        cert = certify(target, relations, degree_bound)
        combination = tuple(replace(entry, coeff=entry.coeff + entry.coeff)
                            for entry in cert.combination)
        return replace(cert, combination=combination)

    monkeypatch.setattr(presentation, "ideal_membership", doubled)
    with pytest.raises(ValueError, match=r"x_isometry\(0,0\) does not replay"):
        check_morphism(*_aof_tform(e2))


def test_serialization_round_trip_byte_identical(e1):
    p = bosonisation_presentation(e1)
    text = serialize_presentation(p)
    again = serialize_presentation(deserialize_presentation(text))
    assert text == again


def test_deserialization_structural_equality(e1):
    p = bosonisation_presentation(e1)
    q = deserialize_presentation(serialize_presentation(p))
    assert q.generators == p.generators
    assert q.relations == p.relations
    assert q.relation_labels == p.relation_labels
    assert set(q.comult) == set(p.comult)
    for gen in q.comult:
        assert q.comult[gen] == p.comult[gen]


def test_unknown_generator_kind_rejected(e1):
    p = braided_presentation(e1)
    payload = json.loads(serialize_presentation(p))
    payload["generators"][0]["kind"] = "Q"
    with pytest.raises(ValueError):
        deserialize_presentation(json.dumps(payload))


def test_malformed_json_reports_location():
    with pytest.raises(json.JSONDecodeError) as err:
        deserialize_presentation("{\"name\": ")
    assert err.value.lineno == 1
    assert err.value.colno > 1


def test_random_instance_presentations_are_consistent():
    rng = random.Random(77)
    for _ in range(5):
        inst = random_valid_instance(rng, n=rng.choice([2, 3]), order=8)
        p = braided_presentation(inst)
        assert len(p.relations) == 3 * inst.space.n ** 2


# sha256 of serialize_presentation for every builder on the paper fixtures;
# certify deserialises its input, so only this pins what the builders emit
_PRESENTATION_SHA256 = {
    ("e0", "braided"): "84c55b0a8119e8fd853eb58328331fa516c8fda1f7bd32fc10a1e67abb64b1f4",
    ("e0", "bosonisation"): "51704a953a518b358621c0f8dd8cb467516d50db9a9aeb2b1d81eec15320c39b",
    ("e0", "t_form"): "3243bf0d3843f85e0f51c11c443c92cd9583577cb76de6fa6074dc71e797744d",
    ("e0", "aof"): "24effeb7e56299de187657b8066383f89d52a598d1063fd805dc5b11ca8ab381",
    ("e0", "circle"): "db61243461dc47c7ade78ff5074f09d4fa11e06f9a52bfadd007c8bb809a2378",
    ("e1", "braided"): "0a0f28c86f55302011e771394e3084da44023da1c3af48311b94df361673f6fa",
    ("e1", "bosonisation"): "e78df2e816d11a576462b3ab48944619f9f7ea72b0532c624c5c2697a0bab08a",
    ("e1", "t_form"): "cdff92da2d9fdcdbb5821038ff1221d21dfcaa17c7961ba2f5244269a1f25206",
    ("e1", "aof"): "5039916dc01313a36ff3d61d1cdcbfa9909ba40ea5bdb59101a58611806311c1",
    ("e1", "circle"): "e4bc7e046619dc81cbc9966f4b906f6b4ca0dad5b3a35f447191f5f0a2d525cf",
    ("e2", "braided"): "069d1ce41ea5045418b0a59abc08687b4f2819d61af460c427c01a57a2748fa2",
    ("e2", "bosonisation"): "40aade79acccb53b1949acc1bc5916bbb8fe9142d74b6c3db8cfb806c07b9f31",
    ("e2", "t_form"): "4db414e547416c055d118c9d47ba449c1650e6578630ec92862424f439b49d2d",
    ("e2", "aof"): "543d66e1f2ffdfe40e9cfe6900e83b40aae021da524b53e87b9b694ed4f2b899",
    ("e2", "circle"): "db61243461dc47c7ade78ff5074f09d4fa11e06f9a52bfadd007c8bb809a2378",
}

_BUILDERS = {
    "braided": braided_presentation,
    "bosonisation": bosonisation_presentation,
    "t_form": t_form_presentation,
    "aof": lambda data: aof_presentation(f_matrix(data)),
    "circle": lambda data: circle_presentation(data.space.field, data.space.zeta),
}


@pytest.mark.parametrize("fixture,builder", sorted(_PRESENTATION_SHA256))
def test_presentation_bytes_match_recorded_hash(request, fixture, builder):
    import hashlib

    text = serialize_presentation(_BUILDERS[builder](request.getfixturevalue(fixture)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _PRESENTATION_SHA256[(fixture, builder)]


@pytest.mark.parametrize("change, message", [({"i": 2}, "out of range for n = 2"),
                                             ({"grading": 5}, "has grading 5, expected 0")])
def test_loader_and_certifier_reject_a_bad_letter_alike(e1, change, message):
    from braidfoq import ideal_membership
    from braidfoq.freealg import GeneratorSym, Word

    boson = bosonisation_presentation(e1)
    doc = json.loads(serialize_presentation(boson))
    # the second term of the first relation is Ustar(0,0) * U(0,0)
    letter = doc["relations"][0][1][2][1]
    assert letter == {"kind": "U", "i": 0, "j": 0, "grading": 0}
    letter.update(change)
    with pytest.raises(ValueError, match=message) as loaded:
        deserialize_presentation(json.dumps(doc))
    target = AlgebraElement.monomial(boson.context, Word(0, (GeneratorSym.from_json(letter),)))
    with pytest.raises(ValueError) as certified:
        ideal_membership(target, list(boson.relations), 3)
    assert str(certified.value) == str(loaded.value)
