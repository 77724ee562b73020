import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidfoq import (Matrix, Scalar, apply_comult, bosonisation_presentation,
                      braided_presentation, coassociativity_check,
                      expand_three_legs, f_matrix, ideal_membership,
                      intertwiner_check, normal_form, t_form_presentation,
                      well_definedness_check)
from braidfoq.freealg import (AlgebraElement, GeneratorSym, TensorElement, Word, _word_adjoint,
                              _word_mul)
from braidfoq.presentation import Presentation


@pytest.fixture(scope="module")
def boson_e1(e1):
    return bosonisation_presentation(e1)


def _letter(ctx, sym):
    return AlgebraElement.from_letter(ctx, sym)


# -- normal form -------------------------------------------------------------


def test_normal_form_examples(e1, f8, boson_e1):
    ctx = boson_e1.context
    coeff, word = normal_form([ctx.z(1), ctx.u(0, 1)], ctx)
    assert coeff == f8.root(2)
    assert word == Word(1, (ctx.u(0, 1),))

    coeff, word = normal_form([ctx.z(1), ctx.z(-1), ctx.u(0, 0)], ctx)
    assert coeff == f8.one()
    assert word == Word(0, (ctx.u(0, 0),))

    coeff, word = normal_form([ctx.z(1), ctx.ustar(0, 1)], ctx)
    assert coeff == f8.root(6)
    assert word == Word(1, (ctx.ustar(0, 1),))


def _reduce_rightmost(raw, ctx):
    """Alternative strategy: rewrite the rightmost z-letter redex first."""
    symbols = list(raw)
    phase_exp = 0
    while True:
        redex = None
        for pos in range(len(symbols) - 2, -1, -1):
            if symbols[pos].kind == "Z" and symbols[pos + 1].kind != "Z":
                redex = pos
                break
        if redex is None:
            break
        z, g = symbols[redex], symbols[redex + 1]
        phase_exp += -z.power * ctx.zdeg(g)
        symbols[redex], symbols[redex + 1] = g, z
    zexp = sum(s.power for s in symbols if s.kind == "Z")
    letters = tuple(s for s in symbols if s.kind != "Z")
    return ctx.zeta_pow(phase_exp), Word(zexp, letters)


def test_normal_form_confluence(boson_e1):
    ctx = boson_e1.context
    rng = random.Random(99)
    alphabet = [ctx.u(i, j) for i in range(2) for j in range(2)]
    alphabet += [g.star() for g in alphabet]
    for _ in range(1000):
        raw = []
        for _ in range(rng.randrange(1, 7)):
            if rng.random() < 0.4:
                raw.append(ctx.z(rng.choice([-2, -1, 1, 2])))
            else:
                raw.append(rng.choice(alphabet))
        assert normal_form(raw, ctx) == _reduce_rightmost(raw, ctx)


# -- multiplication and adjoint ----------------------------------------------


def _random_element(rng, ctx, alphabet, max_terms=3, max_len=3):
    elem = AlgebraElement.zero(ctx)
    for _ in range(rng.randrange(1, max_terms + 1)):
        word = [rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1))]
        if rng.random() < 0.5:
            word.insert(rng.randrange(len(word) + 1), ctx.z(rng.choice([-1, 1])))
        coeff = ctx.field.root(rng.randrange(8))
        elem = elem + AlgebraElement.from_raw(ctx, word, coeff)
    return elem


def test_adjoint_examples(boson_e1):
    ctx = boson_e1.context
    assert _letter(ctx, ctx.u(0, 0)).adjoint() == _letter(ctx, ctx.ustar(0, 0))


def test_multiply_associative_adjoint_antimultiplicative(boson_e1):
    ctx = boson_e1.context
    rng = random.Random(5)
    alphabet = [ctx.u(i, j) for i in range(2) for j in range(2)]
    alphabet += [g.star() for g in alphabet]
    for _ in range(20):
        a = _random_element(rng, ctx, alphabet)
        b = _random_element(rng, ctx, alphabet)
        c = _random_element(rng, ctx, alphabet)
        assert (a * b) * c == a * (b * c)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert a.adjoint().adjoint() == a


def test_invariance_adjoint_is_phase_relabelled_invariance(e1):
    # taking adjoints permutes the invariance family up to a phase
    p = braided_presentation(e1)
    family = [p.relation(f"invariance({i},{j})").strip_unit_factors()
              for i in range(2) for j in range(2)]
    for i in range(2):
        for j in range(2):
            adj = p.relation(f"invariance({i},{j})").adjoint().strip_unit_factors()
            assert any(adj == rel for rel in family)


# -- comultiplication ---------------------------------------------------------


def test_comult_of_z_and_unit(boson_e1, f8):
    ctx = boson_e1.context
    z_elem = AlgebraElement.monomial(ctx, Word(1, ()))
    two = apply_comult(z_elem, boson_e1)
    zw = Word(1, ())
    assert two == TensorElement(ctx, 2, {(zw, zw): f8.one()})
    three = expand_three_legs(two, boson_e1, 0)
    assert three == TensorElement(ctx, 3, {(zw, zw, zw): f8.one()})
    assert apply_comult(AlgebraElement.one(ctx), boson_e1) == TensorElement.one(ctx, 2)


def test_comult_multiplicative(boson_e1):
    ctx = boson_e1.context
    rng = random.Random(19)
    alphabet = [ctx.u(i, j) for i in range(2) for j in range(2)]
    alphabet += [g.star() for g in alphabet]
    for _ in range(8):
        a = _random_element(rng, ctx, alphabet, max_terms=2, max_len=2)
        b = _random_element(rng, ctx, alphabet, max_terms=2, max_len=2)
        assert apply_comult(a * b, boson_e1) == apply_comult(a, boson_e1) * apply_comult(b, boson_e1)


def test_coassociativity_examples(e0, e1, boson_e1):
    assert coassociativity_check(braided_presentation(e0))
    assert coassociativity_check(braided_presentation(e1))
    assert coassociativity_check(boson_e1)


def test_coassociativity_triple_sum_term_count(boson_e1):
    ctx = boson_e1.context
    elem = _letter(ctx, ctx.u(0, 0))
    three = expand_three_legs(apply_comult(elem, boson_e1), boson_e1, 0)
    assert len(three.terms) == 4  # n^2 terms for n = 2
    assert three == expand_three_legs(apply_comult(elem, boson_e1), boson_e1, 1)


def test_coassociativity_matches_displayed_double_sum(e1, boson_e1, f8):
    # sum_{l,m} u[i,l] (x) z^(dl-di) u[l,m] (x) z^(dm-di) u[m,k]
    ctx = boson_e1.context
    deg = e1.space.degrees
    i, k = 0, 1
    expected = TensorElement.zero(ctx, 3)
    for l in range(2):
        for m in range(2):
            legs = TensorElement.tensor(
                _letter(ctx, ctx.u(i, l)),
                AlgebraElement.from_raw(ctx, [ctx.z(deg[l] - deg[i]), ctx.u(l, m)]),
            )
            third = AlgebraElement.from_raw(ctx, [ctx.z(deg[m] - deg[i]), ctx.u(m, k)])
            for (w1, w2), c in legs.terms.items():
                for w3, c3 in third.terms.items():
                    expected = expected + TensorElement(ctx, 3, {(w1, w2, w3): c * c3})
    got = expand_three_legs(apply_comult(_letter(ctx, ctx.u(i, k)), boson_e1), boson_e1, 0)
    assert got == expected


def test_corrupted_comult_fails(boson_e1, f8):
    ctx = boson_e1.context
    comult = dict(boson_e1.comult)
    key = ctx.u(0, 1)
    comult[key] = comult[key].scale(f8.root(1))
    corrupted = Presentation(name="corrupted", context=ctx,
                             generators=boson_e1.generators,
                             relations=boson_e1.relations,
                             relation_labels=boson_e1.relation_labels,
                             comult=comult, meta=boson_e1.meta)
    assert not coassociativity_check(corrupted)


def _reference_coassociative(presentation):
    # both expansions of every generator, each leg image computed afresh
    ctx = presentation.context
    for gen in presentation.generators:
        two = apply_comult(_letter(ctx, gen), presentation)
        if (expand_three_legs(two, presentation, 0)
                != expand_three_legs(two, presentation, 1)):
            return False
    return True


@pytest.mark.parametrize("case", ["e1", "random n=3"])
def test_coassociativity_rejects_each_comult_image_scaled_by_zeta(case, e1):
    from dataclasses import replace

    from braidfoq.sampling import random_valid_instance

    inst = e1 if case == "e1" else random_valid_instance(random.Random(31), n=3, order=8)
    boson = bosonisation_presentation(inst)
    zeta = boson.context.field.root(1)
    assert coassociativity_check(boson) and _reference_coassociative(boson)
    for gen in boson.generators:
        if gen.kind == "Z":
            continue  # z (x) z scaled by zeta is still coassociative
        comult = dict(boson.comult)
        comult[gen] = comult[gen].scale(zeta)
        corrupted = replace(boson, comult=comult)
        assert not coassociativity_check(corrupted), gen.display()
        assert not _reference_coassociative(corrupted)


# -- ideal membership ---------------------------------------------------------


def test_relation_itself_is_in_ideal_with_singleton(boson_e1, f8):
    relations = list(boson_e1.relations)
    cert = ideal_membership(boson_e1.relations[0], relations, 3)
    assert cert.verdict == "in_ideal"
    assert len(cert.combination) == 1
    entry = cert.combination[0]
    assert entry.rel_index == 0 and not entry.star
    assert entry.left.is_identity() and entry.right.is_identity()
    assert entry.coeff == f8.one()
    assert cert.replay(relations, boson_e1.context) == boson_e1.relations[0]


def test_constant_is_obstructed(boson_e1):
    cert = ideal_membership(AlgebraElement.one(boson_e1.context),
                            list(boson_e1.relations), 3)
    assert cert.verdict == "nonzero_constant_obstruction"


def test_an_element_added_to_itself_doubles(boson_e1):
    # in x + x each incoming coefficient is the very object already stored
    ctx = boson_e1.context
    two = ctx.field.from_int(2)
    x = AlgebraElement.monomial(ctx, Word(0, (ctx.u(0, 1),))) + AlgebraElement.one(ctx)
    assert x + x == x.scale(two)
    assert (x + x) - x == x
    pair = TensorElement.tensor(x, x)
    assert pair + pair == pair.scale(two)


def test_constant_is_not_obstructed_without_a_counit_witness(boson_e1):
    # x^3 - 1 and x^3 - 2 put 1 in the ideal, and the counit, which sends
    # x = U(0,0) to 1, does not kill x^3 - 2; below bound 3 the truncated
    # span only shows that 1 is a constant modulo it
    ctx = boson_e1.context
    x = AlgebraElement.monomial(ctx, Word(0, (ctx.u(0, 0),)))
    one = AlgebraElement.one(ctx)
    cube = x * x * x
    relations = [cube - one, cube - one.scale(ctx.field.from_int(2))]
    for bound in (1, 2):
        assert ideal_membership(one, relations, bound).verdict == "undecided_at_bound"
        pair = TensorElement.one(ctx)
        assert ideal_membership(pair, relations, bound).verdict == "undecided_at_bound"
    cert = ideal_membership(one, relations, 3)
    assert cert.verdict == "in_ideal"
    assert cert.replay(relations, ctx) == one


def test_random_two_sided_multiples_are_members(boson_e1):
    ctx = boson_e1.context
    rng = random.Random(7)
    relations = list(boson_e1.relations)
    letters = [g for g in boson_e1.generators if g.kind != "Z"]
    letters += [g.star() for g in letters]
    for _ in range(4):
        rel = relations[rng.randrange(12)]
        left = _letter(ctx, rng.choice(letters))
        zshift = AlgebraElement.monomial(ctx, Word(rng.randrange(-1, 2), ()))
        target = left * rel * zshift
        cert = ideal_membership(target, relations, 3)
        assert cert.verdict == "in_ideal"
        assert cert.replay(relations, ctx) == target


def test_degree_bound_precondition(boson_e1):
    ctx = boson_e1.context
    word = Word(0, (ctx.u(0, 0),) * 4)
    with pytest.raises(ValueError):
        ideal_membership(AlgebraElement.monomial(ctx, word), list(boson_e1.relations), 3)


def test_row_cap_gives_undecided(boson_e1):
    # a capped closure cannot finish reducing a two-leg image; the verdict
    # degrades to undecided, never to a false negative or positive
    target = apply_comult(boson_e1.relations[8], boson_e1)
    cert = ideal_membership(target, list(boson_e1.relations), 3, row_cap=5)
    assert cert.verdict == "undecided_at_bound"


def test_row_cap_membership_still_sound(boson_e1, f8):
    # reductions that do finish under a capped closure stay certified
    cert = ideal_membership(boson_e1.relations[0], list(boson_e1.relations), 3,
                            row_cap=10)
    if cert.verdict == "in_ideal":
        replayed = cert.replay(list(boson_e1.relations), boson_e1.context)
        assert replayed == boson_e1.relations[0]
    else:
        assert cert.verdict == "undecided_at_bound"


def test_workers_do_not_change_certificates(boson_e1):
    relations = list(boson_e1.relations)
    target = apply_comult(boson_e1.relations[8], boson_e1)
    one = ideal_membership(target, relations, 3, workers=1)
    four = ideal_membership(target, relations, 3, workers=4)
    assert one.verdict == four.verdict == "in_ideal"
    assert one.combination == four.combination


# -- well-definedness ---------------------------------------------------------


def test_well_definedness_e1(boson_e1):
    report = well_definedness_check(boson_e1, 3)
    assert report["all_in_ideal"]
    relations = list(boson_e1.relations)
    for record in report["relations"]:
        assert record["verdict"] == "in_ideal"
        rel = boson_e1.relation(record["relation"])
        if rel.is_zero():
            assert record["certificate"].combination == ()
            continue
        target = apply_comult(rel, boson_e1)
        assert record["certificate"].replay(relations, boson_e1.context, legs=2) == target


def test_well_definedness_low_bound_undecided(boson_e1):
    report = well_definedness_check(boson_e1, 2)
    verdicts = {r["relation"]: r["verdict"] for r in report["relations"]}
    # quadratic relations have 2-letter images times monomials: bound 2 is
    # too small for the decorated spanning set, so undecided is expected
    assert verdicts["z_unitary"] == "in_ideal"
    assert all(v in ("in_ideal", "undecided_at_bound") for v in verdicts.values())


def test_well_definedness_tform(e1):
    tform = t_form_presentation(e1)
    report = well_definedness_check(tform, 3)
    assert report["all_in_ideal"]


# -- intertwiner ---------------------------------------------------------------


def test_intertwiner_examples(e0, e1, e2):
    assert intertwiner_check(e0)
    assert intertwiner_check(e1)
    assert intertwiner_check(e2)


def test_intertwiner_rejects_mutated_f(e1):
    F = f_matrix(e1)
    field = F.field
    mutated = Matrix(field, [[F[i, j] if (i, j) != (0, 1) else F[i, j] * field.from_int(2)
                              for j in range(2)] for i in range(2)])
    assert not intertwiner_check(e1, f_override=mutated)


# -- words and symbols ----------------------------------------------------------


def test_word_rejects_z_letters(boson_e1):
    ctx = boson_e1.context
    with pytest.raises(ValueError):
        Word(0, (ctx.z(1),))


def test_generator_sym_star_involution():
    g = GeneratorSym("U", 1, 2, grading=3)
    assert g.star().star() == g
    assert g.star().kind == "Ustar" and g.star().grading == -3


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(0, 3), st.integers(0, 3))
def test_adjoint_involution_on_monomials(zexp, i, j):
    from braidfoq import Field
    from braidfoq.freealg import AlgebraContext

    field = Field.cyclotomic(8)
    ctx = AlgebraContext(field=field, zeta=field.root(3), degrees=(0, 1, 2, 4))
    word = Word(zexp, (ctx.u(i, j), ctx.ustar(j, i)))
    elem = AlgebraElement.monomial(ctx, word, field.root(5))
    assert elem.adjoint().adjoint() == elem


# -- brute-force oracle for the tensor membership span -------------------------


def _brute_force_tensor_membership(target, relations, bound, ctx, alphabet):
    """Independent oracle: assemble every (a*r*b) (x) m and m (x) (a*r*b) row
    with the per-leg bounds and decide membership by generic elimination
    over the two-leg word columns."""
    from fractions import Fraction

    # one-leg bounded elements a*r*b (here the bound leaves no letter room,
    # so only z-shifts decorate the relations and their adjoints)
    xs = []
    for rel in relations:
        for elem in (rel, rel.adjoint()):
            if elem.is_zero():
                continue
            zexps = [w.zexp for w in elem.terms]
            lo, hi = min(zexps), max(zexps)
            for t in range(-bound - lo, bound - hi + 1):
                shifted = elem * AlgebraElement.monomial(ctx, Word(t, ()))
                if shifted.max_word_length() <= bound:
                    xs.append(shifted)
    # bounded monomials m
    monomials = [Word(z, tuple(w))
                 for z in range(-bound, bound + 1)
                 for length in range(bound + 1)
                 for w in __import__("itertools").product(alphabet, repeat=length)]
    rows = []
    for x in xs:
        for m in monomials:
            rows.append({(w, m): c for w, c in x.terms.items()})
            rows.append({(m, w): c for w, c in x.terms.items()})
    # generic exact elimination over pair columns
    pivots = {}

    def reduce(vec):
        vec = dict(vec)
        while True:
            hits = [k for k in vec if k in pivots and not vec[k].is_zero()]
            if not hits:
                break
            key = min(hits, key=lambda k: (k[0].key(), k[1].key()))
            coeff = vec[key]
            for k, c in pivots[key].items():
                prev = vec.get(k, ctx.field.zero())
                new = prev - coeff * c
                if new.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = new
        return {k: c for k, c in vec.items() if not c.is_zero()}

    for row in rows:
        residual = reduce(row)
        if not residual:
            continue
        lead = min(residual, key=lambda k: (k[0].key(), k[1].key()))
        inv = residual[lead].inverse()
        pivots[lead] = {k: inv * c for k, c in residual.items()}
    return not reduce(dict(target.terms))


def test_tensor_membership_matches_brute_force_oracle(e1):
    import random as _random

    from braidfoq.freealg import IdealCertifier
    from braidfoq.presentation import bosonisation_presentation

    boson = bosonisation_presentation(e1)
    ctx = boson.context
    # small setting: one unitarity relation, two letters, bound 2
    relations = [boson.relations[0]]
    alphabet = [ctx.u(0, 1), ctx.ustar(0, 1)]
    bound = 2
    certifier = IdealCertifier(ctx, relations, bound)

    rng = _random.Random(13)

    def random_monomial():
        length = rng.randrange(0, 3)
        letters = tuple(rng.choice(alphabet) for _ in range(length))
        return Word(rng.randrange(-1, 2), letters)

    members = 0
    for trial in range(14):
        if trial % 2 == 0:
            # a genuine member: x (x) m + m' (x) x with bounded pieces
            x = relations[0] * AlgebraElement.monomial(ctx, Word(rng.randrange(-1, 2), ()))
            t1 = TensorElement.tensor(x, AlgebraElement.monomial(ctx, random_monomial()))
            t2 = TensorElement.tensor(AlgebraElement.monomial(ctx, random_monomial()), x)
            target = t1 + t2
        else:
            # a random element, almost surely not a member
            target = TensorElement(ctx, 2, {
                (random_monomial(), random_monomial()): ctx.field.root(rng.randrange(8))})
        if target.is_zero() or target.max_word_length() > bound or target.max_abs_zexp() > bound:
            continue
        verdict = certifier.certify_tensor(target)
        oracle = _brute_force_tensor_membership(target, relations, bound, ctx, alphabet)
        assert (verdict.verdict == "in_ideal") == oracle
        if oracle:
            members += 1
            assert verdict.replay(relations, ctx, legs=2) == target
    assert members >= 3


# -- decoration fast path --------------------------------------------------------


def test_context_rejects_zeta_off_the_unit_circle(f8):
    from braidfoq.freealg import AlgebraContext

    # with |zeta| != 1 the rewriting would not be associative
    with pytest.raises(ValueError):
        AlgebraContext(field=f8, zeta=f8.from_int(2), degrees=(0, 1))


def _approx_image(ctx, relations):
    """The same context and relations over complex doubles."""
    from braidfoq import Field
    from braidfoq.freealg import AlgebraContext

    approx = Field.approx(1e-9)
    actx = AlgebraContext(field=approx, zeta=approx.from_complex(ctx.zeta.to_complex()),
                          degrees=ctx.degrees)
    return actx, [AlgebraElement(actx, {w: approx.from_complex(c.to_complex())
                                        for w, c in rel.terms.items()})
                  for rel in relations]


@pytest.fixture(scope="module")
def decoration_cases(e1, e2):
    """Per context: a certifier over its relations and the letters they use."""
    from braidfoq.freealg import IdealCertifier

    cases = {}
    for name, presentation in (("e1_boson", bosonisation_presentation(e1)),
                               ("e2_boson", bosonisation_presentation(e2)),
                               ("e1_tform", t_form_presentation(e1))):
        cases[name] = presentation.context, list(presentation.relations)
    cases["e1_boson_approx"] = _approx_image(*cases["e1_boson"])
    out = {}
    for name, (ctx, relations) in cases.items():
        letters = {g for rel in relations for w in rel.terms for g in w.letters}
        out[name] = (IdealCertifier(ctx, relations, 8),
                     sorted(letters, key=GeneratorSym.key))
    return out


@pytest.mark.parametrize("case", ["e1_boson", "e2_boson", "e1_tform", "e1_boson_approx"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fast_path_row_equals_generic_product(decoration_cases, case, data):
    certifier, alphabet = decoration_cases[case]
    ctx = certifier.context

    def word():
        letters = data.draw(st.lists(st.sampled_from(alphabet), max_size=3))
        return Word(data.draw(st.sampled_from((-2, -1, 1, 2))), tuple(letters))

    idx = data.draw(st.integers(0, len(certifier.relations) - 1))
    star = data.draw(st.booleans())
    left, right = word(), word()
    row = certifier._expand_row((certifier._encode(left), idx, star, certifier._encode(right)))
    rel = certifier.relations[idx]
    rel = rel.adjoint() if star else rel
    expected = (AlgebraElement.monomial(ctx, left) * rel
                * AlgebraElement.monomial(ctx, right))
    # monomial multiplication is injective: no terms merge or vanish
    assert len(row) == len(rel.terms)
    field = ctx.field
    # coefficients leave the certifier through its raw boundary
    assert AlgebraElement(ctx, {certifier._decode(w): Scalar(field, certifier._raw(c))
                                for w, c in row.items()}) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_interned_words_round_trip_in_key_order(decoration_cases, data):
    from braidfoq.freealg import IdealCertifier

    shared, alphabet = decoration_cases["e1_boson"]
    # bound 4 gives four letter slots, enough for the words drawn below
    certifier = IdealCertifier(shared.context, shared.relations, 4)
    # a letter equal in key to U(0,1) but not in grading would order words
    # apart from Word.key(), so the certifier refuses it
    odd = GeneratorSym("U", 0, 1, grading=7)
    with pytest.raises(ValueError, match="grading"):
        certifier._letter_code(odd)
    for g in alphabet:
        for h in alphabet:
            if g.key() != h.key():
                assert ((certifier._letter_code(g) < certifier._letter_code(h))
                        == (g.key() < h.key()))
    letters = st.sampled_from(alphabet)

    def word():
        return Word(data.draw(st.integers(-2, 2)),
                    tuple(data.draw(st.lists(letters, max_size=4))))

    a, b = word(), word()
    ea, eb = certifier._encode(a), certifier._encode(b)
    assert certifier._decode(ea) == a and certifier._decode(eb) == b
    assert (ea == eb) == (a == b)
    if a.key() != b.key():
        assert (ea < eb) == (a.key() < b.key())
    # a word longer than the slots is refused before any work
    with pytest.raises(ValueError, match="slots"):
        certifier._encode(Word(0, (alphabet[0],) * 5))


@pytest.fixture(scope="module")
def e1_bound3_certifier(e1):
    """A certifier closed and reduced over every E1 bosonisation target at bound 3."""
    from braidfoq.freealg import IdealCertifier

    presentation = bosonisation_presentation(e1)
    certifier = IdealCertifier(presentation.context, presentation.relations, 3)
    for rel in presentation.relations:
        certifier.certify_tensor(apply_comult(rel, presentation))
    columns = sorted({w for vec, *_ in certifier._pivots.values() for w in vec})
    return certifier, columns


def _min_scan_reduce(certifier, vec):
    """Reference reduction: scan for the least pivot word by ``Word.key`` each step."""
    pivots = certifier._pivots
    field = certifier.context.field
    vec = {w: c for w, c in vec.items() if not c.is_zero()}
    hits = {}
    while True:
        pivoted = [w for w in vec if w in pivots]
        if not pivoted:
            return vec, hits
        word = min(pivoted, key=lambda w: certifier._decode(w).key())
        coeff = vec[word]
        for w, c in pivots[word][0].items():
            new = vec.get(w, field.zero()) - coeff * Scalar(field, certifier._raw(c))
            if new.is_zero():
                vec.pop(w, None)
            else:
                vec[w] = new
        hits[word] = coeff


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_heap_reduction_matches_min_scan(e1_bound3_certifier, data):
    certifier, columns = e1_bound3_certifier
    field = certifier.context.field
    coeff = st.integers(0, 7).map(field.root)
    # random column words plus random multiples of pivot rows, so that
    # reductions cancel words and revisit words already touched
    vec = {w: data.draw(coeff) for w in data.draw(st.lists(st.sampled_from(columns),
                                                             max_size=12))}
    leads = sorted(certifier._pivots)
    for lead in data.draw(st.lists(st.sampled_from(leads), max_size=4)):
        scale = data.draw(coeff)
        for w, c in certifier._pivots[lead][0].items():
            vec[w] = vec.get(w, field.zero()) + scale * Scalar(field, certifier._raw(c))
    # coefficients cross the certifier's raw boundary both ways
    residual, hits = certifier._reduce_vector({w: certifier._coeff(c.raw)
                                               for w, c in vec.items()})
    residual = {w: Scalar(field, certifier._raw(c)) for w, c in residual.items()}
    hits = {w: Scalar(field, certifier._raw(c)) for w, c in hits.items()}
    expected_residual, expected_hits = _min_scan_reduce(certifier, vec)
    assert residual == expected_residual
    assert list(hits.items()) == list(expected_hits.items())


@pytest.mark.parametrize("fixture, label", [("e1", "welldef_e1_boson_b3_s"),
                                            ("e2", "welldef_e2_boson_b3_s"),
                                            ("e1", "welldef_e1_tform_b3_s"),
                                            ("e1", "welldef_e1_boson_b4_s")])
def test_bound3_certificates_match_recorded_bytes(request, fixture, label):
    import hashlib
    import json
    from pathlib import Path

    from braidfoq import deserialize_presentation, serialize_presentation

    recorded_path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    recorded = json.loads(recorded_path.read_text())["certify"][label]
    present = t_form_presentation if "_tform_" in label else bosonisation_presentation
    built = present(request.getfixturevalue(fixture))
    presentation = deserialize_presentation(serialize_presentation(built) + "\n")
    bound = int(label.rsplit("_b", 1)[1][0])
    report = well_definedness_check(presentation, bound)
    assert {r["relation"]: r["verdict"] for r in report["relations"]} == recorded["verdicts"]
    payload = [{"relation": r["relation"], "certificate": r["certificate"].to_json()}
               for r in report["relations"]]
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == recorded["cert_sha256"]


# recorded before columns were packed into ints and units held as exponents:
# odd orders (M = 2N), units that are no single basis coordinate (orders 12
# and 24) and non-unit coefficients (n = 3)
@pytest.mark.parametrize("order, n, seed, sha", [
    (5, 2, 2, "56934950ef2fba1685cbe9dde4d84e2addb16bef81a629468ef3b0dc3d4229dc"),
    (15, 2, 4, "3a11938a4fc7e0672a102a67522677d6838c73b5171b08eb3f6c743474ea3433"),
    (12, 2, 2, "b9f3785115459c155973f35b9b9474f4e0cb3d8f39ec2937800b2cdc002d1443"),
    (24, 2, 2, "098db957e5006f455ea2a9ae3179df0a583583bcf434af8527ba89c01725c7ce"),
    (8, 3, 5, "237c057cc28d9999412231aecf88dc8e37d72c6433ae2031182d3ad376ad50ce"),
    (24, 3, 5, "00eac7426ab21bde1ca961895d04cebfb8ce9da3d73470b773f7b83d5890f845"),
])
def test_random_instance_certificates_match_recorded_bytes(order, n, seed, sha):
    import hashlib
    import json

    from braidfoq.sampling import random_valid_instance

    data = random_valid_instance(random.Random(seed), n=n, order=order, d=0)
    report = well_definedness_check(bosonisation_presentation(data), 3)
    assert report["all_in_ideal"]
    payload = [{"relation": r["relation"], "certificate": r["certificate"].to_json()}
               for r in report["relations"]]
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


# -- packed columns and unit exponents -------------------------------------------


def test_packed_word_order_is_key_order(boson_e1):
    from braidfoq.freealg import IdealCertifier

    ctx = boson_e1.context
    certifier = IdealCertifier(ctx, boson_e1.relations, 4)
    slots = certifier._slots
    assert slots == 4
    # every letter of n = 2, so the codes fill their fields up to 4n^2 - 1
    alphabet = sorted((ctx.letter(kind, i, j) for kind in ("U", "Ustar", "X", "Xstar")
                       for i in range(2) for j in range(2)), key=GeneratorSym.key)
    assert [certifier._letter_code(g) for g in alphabet] == list(range(16))
    rng = random.Random(7)
    words = set()
    for zexp in range(-4, 5):
        for length in range(slots + 1):
            words.add(Word(zexp, (alphabet[0],) * length))
            words.add(Word(zexp, (alphabet[-1],) * length))
            for _ in range(12):
                words.add(Word(zexp, tuple(rng.choice(alphabet) for _ in range(length))))
    words = sorted(words, key=Word.key)
    packed = [certifier._encode(w) for w in words]
    assert packed == sorted(packed) and len(set(packed)) == len(words)
    assert [certifier._decode(w) for w in packed] == words
    assert certifier._encode(Word(0, ())) == 0


def _unit_certifier(order):
    from braidfoq import Field
    from braidfoq.freealg import AlgebraContext, IdealCertifier

    field = Field.cyclotomic(order)
    ctx = AlgebraContext(field=field, zeta=field.root(1), degrees=(0,))
    return IdealCertifier(ctx, [], 1), field


@pytest.mark.parametrize("order", [*range(1, 61), 96, 240])
def test_unit_exponents_agree_with_the_kernel(order):
    import math

    certifier, field = _unit_certifier(order)
    kernel, raw = field.kernel, certifier._raw
    M = math.lcm(2, order)
    assert certifier._modulus == M
    # zeta_M^e, built independently as powers of zeta_M: zeta_M^2 = zeta_N
    # and zeta_M^(M/2) = -1
    zeta_m = raw(1)
    assert kernel.mul(zeta_m, zeta_m) == field.root(2 if M == order else 1).raw
    power = kernel.one
    for e in range(M):
        assert raw(e) == power and certifier._coeff(power) == e
        power = kernel.mul(power, zeta_m)
    assert power == kernel.one and raw(M // 2) == (-field.one()).raw
    rng = random.Random(order)
    # nonzero non-units among 2, 1 + zeta_N and 1/2 + zeta_N
    one, zeta_n = field.one(), field.root(1)
    others = [c.raw for c in (one + one, one + zeta_n, one / (one + one) + zeta_n)
              if not c.is_zero() and c.raw not in kernel.units[1]]
    assert others

    def check(got, want):
        # the certifier's value is the kernel's, as an exponent exactly when a unit
        if got is None:
            assert kernel.is_zero(want)
        else:
            assert raw(got) == want and (type(got) is int) == (want in kernel.units[1])

    for _ in range(20):
        x, y = rng.randrange(M), rng.randrange(M)
        for a, b in ((x, y), (x, rng.choice(others)), (rng.choice(others), y)):
            check(certifier._mul(a, b), kernel.mul(raw(a), raw(b)))
            check(certifier._fms(None, a, b), kernel.fms(kernel.zero, raw(a), raw(b)))
            for p in (rng.randrange(M), (x + y) % M, rng.choice(others)):
                check(certifier._fms(p, a, b), kernel.fms(raw(p), raw(a), raw(b)))
            check(certifier._inverse(a), kernel.inverse(raw(a)))
        # p cancels x * y exactly when p = x + y mod M
        assert certifier._fms((x + y) % M, x, y) is None


def test_unit_exponents_stay_off_approx_fields(boson_e1):
    from braidfoq.freealg import IdealCertifier

    actx, relations = _approx_image(boson_e1.context, boson_e1.relations)
    certifier = IdealCertifier(actx, relations, 3)
    assert certifier._modulus is None and certifier._one == actx.field.kernel.one
    assert all(type(c) is complex for terms in certifier._oriented.values()
               for *_, c, _ in terms)


# -- linear-time sums against repeated + ---------------------------------------


def _ref_comult(element, presentation):
    """apply_comult as a sum of per-word products, one + per term."""
    ctx = element.context
    out = TensorElement.zero(ctx, 2)
    for word, coeff in element.sorted_terms():
        acc = TensorElement.one(ctx, 2)
        for letter in word.letters:
            image = presentation.comult.get(letter)
            acc = acc * (image if image is not None
                         else presentation.comult[letter.star()].adjoint())
        if word.zexp:
            acc = acc * TensorElement(ctx, 2, {(Word(word.zexp, ()),) * 2: ctx.field.one()})
        out = out + acc.scale(coeff)
    return out


def _ref_three_legs(t2, presentation, leg):
    ctx = t2.context
    out = TensorElement.zero(ctx, 3)
    for (w1, w2), coeff in t2.sorted_terms():
        inner = _ref_comult(AlgebraElement.monomial(ctx, w1 if leg == 0 else w2), presentation)
        piece = TensorElement(ctx, 3, {((a, b, w2) if leg == 0 else (w1, a, b)): c
                                       for (a, b), c in inner.terms.items()})
        out = out + piece.scale(coeff)
    return out


def _same_terms(got, expected):
    """The same terms in the same order, with equal exact coefficients or
    the same complex bits."""
    assert list(got.terms) == list(expected.terms)
    for a, b in zip(got.terms.values(), expected.terms.values()):
        assert repr(a.raw) == repr(b.raw)


def _overlapping_images(presentation):
    """The presentation with Delta(u01) = Delta(u00) - u00 (x) 1 and
    Delta(u10) = Delta(u00): summing the image of u00 - u01 + u10 term by
    term cancels all of Delta(u00) and then adds it back."""
    ctx = presentation.context
    comult = dict(presentation.comult)
    base = comult[ctx.u(0, 0)]
    single = TensorElement.tensor(_letter(ctx, ctx.u(0, 0)), AlgebraElement.one(ctx))
    comult[ctx.u(0, 1)] = base - single
    comult[ctx.u(1, 0)] = base
    return Presentation(name="overlapping", context=ctx, generators=presentation.generators,
                        relations=presentation.relations,
                        relation_labels=presentation.relation_labels,
                        comult=comult, meta=presentation.meta)


def test_comult_sums_match_repeated_addition():
    from test_graded import _as_approx

    from braidfoq.sampling import random_valid_instance

    rng = random.Random(33)
    for n in (2, 3, 4):
        inst = random_valid_instance(rng, n=n, order=rng.choice([4, 8, 12]))
        for data in (inst, _as_approx(inst)):
            presentation = bosonisation_presentation(data)
            ctx = presentation.context
            zeta = ctx.zeta
            letters = [_letter(ctx, g) for g in presentation.generators]
            targets = list(presentation.relations[:3])
            for _ in range(3):
                target = AlgebraElement.zero(ctx)
                for _ in range(3):
                    word = AlgebraElement.one(ctx)
                    for _ in range(rng.randrange(3)):
                        word = word * rng.choice(letters)
                    target = target + word.scale(zeta ** rng.randrange(5))
                targets.append(target)
            u = [_letter(ctx, ctx.u(i, j)) for i, j in ((0, 0), (0, 1), (1, 0))]
            cancelling = u[0] - u[1] + u[2]
            for pres, elems in ((presentation, targets),
                                (_overlapping_images(presentation), [cancelling])):
                for target in elems:
                    two = apply_comult(target, pres)
                    _same_terms(two, _ref_comult(target, pres))
                    for leg in (0, 1):
                        _same_terms(expand_three_legs(two, pres, leg),
                                    _ref_three_legs(two, pres, leg))
            two = apply_comult(cancelling, _overlapping_images(presentation))
            single = TensorElement.tensor(u[0], AlgebraElement.one(ctx))
            assert two - apply_comult(u[0], presentation) == single


# -- hash-once words -----------------------------------------------------------


# letters with and without indices (Z's are None) and words built from them;
# run here and in subprocesses under other hash seeds
_HASH_PROBE = """
from braidfoq.freealg import GeneratorSym, Word
u01 = GeneratorSym("U", 0, 1, grading=1)
letters = (u01, GeneratorSym("Ustar", 1, 0, grading=-1), GeneratorSym("X", 1, 1),
           GeneratorSym("Xstar", 0, 1), GeneratorSym("Z", power=-2))
words = (Word(0, ()), Word(3, (u01,)), Word(-1, letters[:4]))
hashes = [hash(x) for x in (*letters, *words)]
"""


def _hash_probe():
    scope: dict = {}
    exec(_HASH_PROBE, scope)
    return scope


def test_word_and_letter_hashes_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _HASH_PROBE + "print(*hashes)"], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert [int(h) for h in out.split()] == _hash_probe()["hashes"]


def test_pickled_word_finds_its_dict_entry():
    import pickle

    words = _hash_probe()["words"]
    table = {w: k for k, w in enumerate(words)}
    for k, w in enumerate(words):
        assert table[pickle.loads(pickle.dumps(w))] == k
        # a never-hashed copy, pickled before and after its first hash
        fresh = Word(w.zexp, w.letters)
        before = pickle.dumps(fresh)
        assert table[fresh] == k
        assert table[pickle.loads(before)] == k
        assert table[pickle.loads(pickle.dumps(fresh))] == k


def test_words_differing_only_in_a_letter_grading_are_unequal():
    low, high = GeneratorSym("U", 0, 1, grading=1), GeneratorSym("U", 0, 1, grading=7)
    assert low != high and low.key() == high.key()
    a, b = Word(0, (low, low)), Word(0, (low, high))
    assert a != b and a.key() == b.key()
    assert len({a: 1, b: 2}) == 2 and len({low, high}) == 2


# -- linear-time replay against repeated + ------------------------------------


def _ref_replay(cert, relations, context, legs):
    """MembershipCertificate.replay as a sum with one + per entry."""
    acc = AlgebraElement.zero(context) if legs == 0 else TensorElement.zero(context, legs)
    for entry in cert.combination:
        rel = relations[entry.rel_index]
        if entry.star:
            rel = rel.adjoint()
        piece = (AlgebraElement.monomial(context, entry.left) * rel
                 * AlgebraElement.monomial(context, entry.right))
        if legs:
            other = AlgebraElement.monomial(context, entry.other)
            piece = (TensorElement.tensor(piece, other) if entry.leg == 1
                     else TensorElement.tensor(other, piece))
        acc = acc + piece.scale(entry.coeff)
    return acc


@pytest.mark.parametrize("fixture, present", [("e1", bosonisation_presentation),
                                              ("e2", bosonisation_presentation),
                                              ("e1", t_form_presentation)])
def test_replay_sums_match_repeated_addition(request, fixture, present):
    from dataclasses import replace

    presentation = present(request.getfixturevalue(fixture))
    ctx = presentation.context
    relations = list(presentation.relations)
    report = well_definedness_check(presentation, 3)
    replayed = 0
    for record in report["relations"]:
        cert = record["certificate"]
        if record["verdict"] != "in_ideal" or not cert.combination:
            continue
        got = cert.replay(relations, ctx, legs=2)
        _same_terms(got, _ref_replay(cert, relations, ctx, 2))
        target = apply_comult(presentation.relation(record["relation"]), presentation)
        assert got == target
        # one coefficient times zeta: the combination no longer sums to the target
        k = len(cert.combination) // 2
        entries = list(cert.combination)
        entries[k] = replace(entries[k], coeff=entries[k].coeff * ctx.zeta)
        assert replace(cert, combination=tuple(entries)).replay(relations, ctx, legs=2) != target
        replayed += 1
    assert replayed >= 5


@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
@pytest.mark.parametrize("present", [bosonisation_presentation, t_form_presentation],
                         ids=["boson", "tform"])
@pytest.mark.parametrize("fixture", ["e0", "e1", "e2"])
def test_direct_replay_matches_generic_products(request, fixture, present, approx):
    # replay forms each a * r * b term by term; the reference forms it with two
    # AlgebraElement products and a tensor product
    from test_graded import _as_approx

    data = request.getfixturevalue(fixture)
    presentation = present(_as_approx(data) if approx else data)
    ctx, relations = presentation.context, list(presentation.relations)
    stars, legs = set(), set()
    for record in well_definedness_check(presentation, 3)["relations"]:
        cert = record["certificate"]
        if record["verdict"] == "in_ideal" and cert.combination:
            stars.update(entry.star for entry in cert.combination)
            legs.update(entry.leg for entry in cert.combination)
            _same_terms(cert.replay(relations, ctx, legs=2),
                        _ref_replay(cert, relations, ctx, 2))
    assert stars == {False, True} and legs == {1, 2}


# -- verdict precedence --------------------------------------------------------


def test_verdict_precedence_under_a_row_cap(boson_e1):
    # an empty residual is in_ideal even under a capped closure; otherwise a
    # cap gives undecided before a constant target gives an obstruction
    from braidfoq.freealg import IdealCertifier

    ctx, relations = boson_e1.context, list(boson_e1.relations)

    def certify(target, **kwargs):
        if isinstance(target, TensorElement):
            return IdealCertifier(ctx, relations, 3, **kwargs).certify_tensor(target)
        return ideal_membership(target, relations, 3, **kwargs)

    for one in (AlgebraElement.one(ctx), TensorElement.one(ctx)):
        assert certify(one).verdict == "nonzero_constant_obstruction"
        assert certify(one, row_cap=1).verdict == "undecided_at_bound"
    # the one row a cap of 1 admits is relations[0] itself, seen from the word 1
    rel = relations[0].scale(ctx.zeta)
    for target, legs in ((rel, 0), (TensorElement.tensor(rel, AlgebraElement.one(ctx)), 2)):
        cert = certify(target, row_cap=1)
        assert cert.verdict == "in_ideal"
        assert cert.replay(relations, ctx, legs=legs) == target


# -- combination equality against the zero difference ---------------------------


def _random_combination_pairs(ctx, rng, tolerance):
    """Pairs (a, b) of AlgebraElements and 2-leg TensorElements over ctx: equal,
    differing in one coefficient (by just under and just over the tolerance
    in approx mode), and differing in their key sets."""
    field = ctx.field
    letters = [ctx.u(i, j) for i in range(ctx.n) for j in range(ctx.n)]
    letters += [g.star() for g in letters]
    words = sorted({Word(rng.randrange(-1, 2), tuple(rng.choice(letters)
                                                     for _ in range(rng.randrange(3))))
                    for _ in range(12)}, key=Word.key)

    def coeff():
        if field.exact:
            return field.root(rng.randrange(field.order)) * field.from_rational(
                rng.choice([1, 2, -3]))
        return field.from_complex(complex(rng.choice([0.5, -1.25, 2.0]),
                                          rng.choice([0.0, 0.75])))

    def keys(tensor):
        picked = rng.sample(words, rng.randrange(1, 5))
        return [(w, rng.choice(words)) for w in picked] if tensor else picked

    def build(tensor, terms):
        return TensorElement(ctx, 2, terms) if tensor else AlgebraElement(ctx, terms)

    pairs = []
    for k in range(40):
        tensor = bool(k % 2)
        terms = {key: coeff() for key in keys(tensor)}
        a = build(tensor, terms)
        pairs.append((a, build(tensor, dict(terms))))
        pairs.append((a, build(tensor, {key: coeff() for key in keys(tensor)})))
        first = next(iter(terms))
        # one key more, or one key less
        extra = dict(terms)
        extra[(Word(2, ()), Word(2, ())) if tensor else Word(2, ())] = coeff()
        pairs.append((a, build(tensor, extra)))
        pairs.append((build(tensor, {key: c for key, c in terms.items() if key != first}), a))
        if field.exact:
            nudged = dict(terms)
            nudged[first] = terms[first] + field.from_rational(rng.choice([1, -1]))
            pairs.append((a, build(tensor, nudged)))
        else:
            for factor in (0.999, 1.001):
                nudged = dict(terms)
                nudged[first] = terms[first] + field.from_complex(factor * tolerance)
                pairs.append((a, build(tensor, nudged)))
    return pairs


@pytest.mark.parametrize("approx", [False, True])
def test_combination_equality_matches_the_zero_difference(boson_e1, approx):
    ctx = boson_e1.context
    tolerance = 1e-9
    if approx:
        ctx, _ = _approx_image(ctx, [])
        assert ctx.field.tolerance == tolerance
    pairs = _random_combination_pairs(ctx, random.Random(11), tolerance)
    outcomes = set()
    for a, b in pairs:
        want = (a - b).is_zero()
        assert (a == b) is want and (b == a) is want and (a != b) is not want
        outcomes.add(want)
    assert outcomes == {True, False}
    if approx:
        # just under the tolerance is equal, just over is not
        a = AlgebraElement.monomial(ctx, Word(0, ()), ctx.field.from_complex(0.5))
        for factor, want in ((0.999, True), (1.001, False)):
            b = AlgebraElement.monomial(ctx, Word(0, ()),
                                        ctx.field.from_complex(0.5 + factor * tolerance))
            assert (a == b) is want is (a - b).is_zero()


def test_combinations_from_different_contexts_are_unequal(boson_e1, e2):
    from braidfoq.scalar import FieldMismatch

    ctx = boson_e1.context
    other = bosonisation_presentation(e2).context
    assert other != ctx
    word = Word(0, (ctx.u(0, 1),))
    pairs = [(AlgebraElement.monomial(ctx, word), AlgebraElement.monomial(other, word)),
             (TensorElement.tensor(AlgebraElement.one(ctx), AlgebraElement.one(ctx)),
              TensorElement.tensor(AlgebraElement.one(other), AlgebraElement.one(other))),
             (TensorElement.one(ctx, 2), TensorElement.one(ctx, 3))]
    for a, b in pairs:
        assert a != b and b != a
        with pytest.raises(FieldMismatch):
            a - b
    assert AlgebraElement.one(ctx) != TensorElement.one(ctx)


# -- one legwise arithmetic against the per-class loops it replaced ------------


def _ref_algebra_mul(x, y):
    def products():
        for wa, ca in x.terms.items():
            for wb, cb in y.terms.items():
                phase, word = _word_mul(x.context, wa, wb)
                yield word, ca * cb * phase
    return x._sum(products())


def _ref_algebra_adjoint(x):
    def adjoints():
        for w, c in x.terms.items():
            phase, word = _word_adjoint(x.context, w)
            yield word, c.conj() * phase
    return x._sum(adjoints())


def _ref_tensor_mul(x, y):
    def products():
        for wa, ca in x.terms.items():
            for wb, cb in y.terms.items():
                coeff = ca * cb
                words = []
                for a, b in zip(wa, wb):
                    phase, word = _word_mul(x.context, a, b)
                    coeff = coeff * phase
                    words.append(word)
                yield tuple(words), coeff
    return x._sum(products())


def _ref_tensor_adjoint(x):
    def adjoints():
        for ws, c in x.terms.items():
            coeff = c.conj()
            words = []
            for w in ws:
                phase, word = _word_adjoint(x.context, w)
                coeff = coeff * phase
                words.append(word)
            yield tuple(words), coeff
    return x._sum(adjoints())


def _ref_sorted_terms(x):
    if isinstance(x, TensorElement):
        return sorted(x.terms.items(), key=lambda item: tuple(w.key() for w in item[0]))
    return sorted(x.terms.items(), key=lambda item: item[0].key())


def _signed_zero_copy(element, actx):
    """``element`` over the approx context ``actx``; on every other term a
    zero real or imaginary part is -0.0, so the coefficient order shows."""
    terms = {}
    for index, (key, c) in enumerate(element.terms.items()):
        value = c.to_complex()
        if index % 2:
            value = complex(value.real or -0.0, value.imag or -0.0)
        terms[key] = actx.field.from_complex(value)
    if isinstance(element, TensorElement):
        return TensorElement(actx, element.legs, terms)
    return AlgebraElement(actx, terms)


@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
def test_legwise_arithmetic_matches_the_per_class_loops(boson_e1, approx):
    ctx = boson_e1.context
    # unitarity and invariance relations, real and non-real coefficients
    ones = [r for r in boson_e1.relations if not r.is_zero()][::3]
    twos = [apply_comult(r, boson_e1) for r in ones[:4]]
    threes = [expand_three_legs(t, boson_e1, leg) for t in twos[:2] for leg in (0, 1)]
    if approx:
        actx = _approx_image(ctx, [])[0]
        ones, twos, threes = ([_signed_zero_copy(x, actx) for x in group]
                              for group in (ones, twos, threes))
        signs = {repr(part) for x in ones for c in x.terms.values()
                 for part in (c.raw.real, c.raw.imag) if not part}
        assert signs == {"0.0", "-0.0"}
    for group, ref_mul, ref_adjoint in ((ones, _ref_algebra_mul, _ref_algebra_adjoint),
                                        (twos, _ref_tensor_mul, _ref_tensor_adjoint),
                                        (threes, _ref_tensor_mul, _ref_tensor_adjoint)):
        for x in group:
            _same_terms(x.adjoint(), ref_adjoint(x))
            for y in group:
                product = x * y
                _same_terms(product, ref_mul(x, y))
                assert product.sorted_terms() == _ref_sorted_terms(product)
            words = [w for key in x.terms for w in ((key,) if isinstance(key, Word) else key)]
            assert x.max_word_length() == max(len(w) for w in words)
            assert x.max_abs_zexp() == max(abs(w.zexp) for w in words)
    # the tracer wraps each class's own __mul__ under its own name
    assert AlgebraElement.__dict__["__mul__"] is TensorElement.__dict__["__mul__"]


def test_freealg_imports_only_scalar_and_the_certifier():
    import ast
    import pathlib

    from braidfoq import freealg

    tree = ast.parse(pathlib.Path(freealg.__file__).read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {"scalar", "_certifier"}
    assert not any(name.split(".")[0] == "braidfoq" for name in absolute)
