"""Universal presentations: the braided algebra, its bosonisation, the
t-generator form and its intertwiner check, the classical one-matrix
family, and the projection morphisms between the bosonisation and the
circle algebra."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .freealg import (AlgebraContext, AlgebraElement, GeneratorSym, TensorElement,
                      Word, _substitute_words, normal_form)
from .graded import OmegaData, _require_block_condition, f_matrix
from .scalar import Field, Matrix, Scalar, SingularMatrix

__all__ = [
    "MorphismSpec",
    "Presentation",
    "aof_presentation",
    "aof_to_tform_morphism",
    "apply_morphism",
    "bosonisation_presentation",
    "braided_presentation",
    "check_morphism",
    "circle_presentation",
    "deserialize_presentation",
    "intertwiner_check",
    "projection_morphisms",
    "serialize_presentation",
    "substitute_t_generators",
    "t_form_presentation",
]


@dataclass(frozen=True)
class Presentation:
    """Generators, relations (each read as = 0), and generator comultiplication."""

    name: str
    context: AlgebraContext
    generators: tuple[GeneratorSym, ...]
    relations: tuple[AlgebraElement, ...]
    relation_labels: tuple[str, ...]
    comult: dict[GeneratorSym, TensorElement]
    meta: OmegaData | None = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        if len(self.relations) != len(self.relation_labels):
            raise ValueError("every relation needs exactly one label")
        for rel in self.relations:
            if rel.beta_degree() is None and not rel.is_zero():
                raise ValueError("every relation must be homogeneous for the grading")
        for gen in self.generators:
            if gen not in self.comult:
                raise ValueError(f"generator {gen.display()} has no comultiplication")

    def relation(self, label: str) -> AlgebraElement:
        return self.relations[self.relation_labels.index(label)]

    def nonzero_relations(self) -> list[AlgebraElement]:
        return [r for r in self.relations if not r.is_zero()]


def _graded_context(data: OmegaData) -> AlgebraContext:
    """Check the block condition, then build the context of the instance's grading."""
    _require_block_condition(data)
    space = data.space
    return AlgebraContext(field=space.field, zeta=space.zeta, degrees=space.degrees)


def _phase_context(field: Field, zeta: Scalar | None, degrees: tuple[int, ...]) -> AlgebraContext:
    """The context of an ungraded builder; zeta defaults to the trivial phase."""
    if zeta is None:
        zeta = field.one() if field.exact else field.from_complex(1.0)
    return AlgebraContext(field=field, zeta=zeta, degrees=degrees)


def _matrix_letters(context: AlgebraContext, letter) -> tuple[GeneratorSym, ...]:
    n = context.n
    return tuple(letter(i, j) for i in range(n) for j in range(n))


def _linear_form(context: AlgebraContext, pairs) -> AlgebraElement:
    """sum_k c_k * letter_k over (c_k, letter_k) pairs with distinct letters;
    the constructor drops the zero coefficients."""
    return AlgebraElement(context, {Word(0, (letter,)): c for c, letter in pairs})


def _unitarity_relations(context: AlgebraContext, letter, letter_star,
                         prefix: str) -> tuple[list[AlgebraElement], list[str]]:
    """The isometry and coisometry families, as fresh relation and label lists."""
    n = context.n
    one = context.field.one()
    relations: list[AlgebraElement] = []
    labels: list[str] = []
    for i in range(n):
        for j in range(n):
            # sum_k letter_star(k,i) letter(k,j) and sum_k letter(i,k) letter_star(j,k),
            # minus 1 on the diagonal; the k-words are distinct
            iso = {Word(0, (letter_star(k, i), letter(k, j))): one for k in range(n)}
            coiso = {Word(0, (letter(i, k), letter_star(j, k))): one for k in range(n)}
            if i == j:
                iso[Word(0, ())] = coiso[Word(0, ())] = -one
            relations.append(AlgebraElement(context, iso))
            labels.append(f"{prefix}isometry({i},{j})")
            relations.append(AlgebraElement(context, coiso))
            labels.append(f"{prefix}coisometry({i},{j})")
    return relations, labels


def _z_part(context: AlgebraContext, letter, relations: list, labels: list,
            comult: dict) -> GeneratorSym:
    """Add the unitary z: z z* = 1, z g = zeta^(di-dj) g z for each
    g = letter(i,j), and the group-like Delta(z) = z (x) z.  With n = 0 (the
    circle) there is no commutation family and ``letter`` is unused."""
    zgen = context.z(1)
    deg = context.degrees
    # z z* = 1 and the commutation relations normalize to the zero element:
    # the z-counter bookkeeping absorbs them, which is the point
    relations.append(AlgebraElement.from_raw(context, [zgen, context.z(-1)])
                     - AlgebraElement.one(context))
    labels.append("z_unitary")
    for i in range(context.n):
        for j in range(context.n):
            lhs = AlgebraElement.from_raw(context, [zgen, letter(i, j)])
            rhs = AlgebraElement.from_raw(context, [letter(i, j), zgen])
            relations.append(lhs - rhs.scale(context.zeta_pow(deg[i] - deg[j])))
            labels.append(f"commutation({i},{j})")
    zleg = AlgebraElement.from_letter(context, zgen)
    comult[zgen] = TensorElement.tensor(zleg, zleg)
    return zgen


def _matrix_comult(context: AlgebraContext, letter,
                   twisted: bool = False) -> dict[GeneratorSym, TensorElement]:
    """letter(i,k) -> sum_l letter(i,l) (x) letter(l,k); twisted, the second
    leg is z^(dl-di) letter(l,k) as in the bosonisation."""
    n, deg = context.n, context.degrees
    one = context.field.one()
    comult: dict[GeneratorSym, TensorElement] = {}
    for i in range(n):
        for k in range(n):
            terms: dict[tuple[Word, Word], Scalar] = {}
            for l in range(n):
                shift = deg[l] - deg[i] if twisted else 0
                phase, second = normal_form([context.z(shift), letter(l, k)], context)
                # one * phase is the coefficient TensorElement.tensor forms, with
                # the same bits in an approx field
                terms[Word(0, (letter(i, l),)), second] = one * phase
            comult[letter(i, k)] = TensorElement(context, 2, terms)
    return comult


def _braided_relations(data: OmegaData, context: AlgebraContext) -> tuple[list, list]:
    """Unitarity and the invariance family of the braided algebra."""
    n, deg, omega, zeta_pow = context.n, context.degrees, data.omega, context.zeta_pow
    relations, labels = _unitarity_relations(context, context.u, context.ustar, "")
    for i in range(n):
        for j in range(n):
            lhs = _linear_form(context, ((omega[i, k], context.u(j, k)) for k in range(n)))
            rhs = _linear_form(context, ((omega[k, j], context.ustar(k, i)) for k in range(n)))
            relations.append(lhs.scale(zeta_pow(deg[j] * deg[i]))
                             - rhs.scale(zeta_pow(deg[j] * (data.d - deg[j]))))
            labels.append(f"invariance({i},{j})")
    return relations, labels


def braided_presentation(data: OmegaData) -> Presentation:
    """The braided algebra on generators u[i,j].

    Relations: unitarity row/column sums and the invariance family

        zeta^(dj*di) sum_k omega[i,k] u[j,k]
          = zeta^(dj*(d-dj)) sum_k omega[k,j] u*[k,i].

    The comultiplication is stored in the two-leg matrix form with zero
    z-exponents.
    """
    context = _graded_context(data)
    relations, labels = _braided_relations(data, context)
    return Presentation(name="braided", context=context,
                        generators=_matrix_letters(context, context.u),
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=_matrix_comult(context, context.u), meta=data)


def bosonisation_presentation(data: OmegaData) -> Presentation:
    """The bosonisation: braided relations plus a unitary z with
    z u[i,j] = zeta^(di-dj) u[i,j] z, and the twisted comultiplication
    u[i,k] -> sum_l u[i,l] (x) z^(dl-di) u[l,k]."""
    context = _graded_context(data)
    relations, labels = _braided_relations(data, context)
    comult: dict[GeneratorSym, TensorElement] = {}
    zgen = _z_part(context, context.u, relations, labels, comult)
    comult.update(_matrix_comult(context, context.u, twisted=True))
    return Presentation(name="bosonisation", context=context,
                        generators=_matrix_letters(context, context.u) + (zgen,),
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=data)


def t_form_presentation(data: OmegaData) -> Presentation:
    """The bosonisation on the generators t[i,j] = z^(di) u[i,j].

    The invariance family becomes the entrywise expansion of
    t*F = z^d*F*conj(t):

        sum_k t[j,k] (zeta^(d*di) omega[i,k])
          = z^d sum_k (zeta^(d*dk) omega[k,j]) t*[k,i].
    """
    context = _graded_context(data)
    n, deg, omega, zeta_pow = context.n, context.degrees, data.omega, context.zeta_pow
    relations, labels = _unitarity_relations(context, context.x, context.xstar, "t_")
    comult: dict[GeneratorSym, TensorElement] = {}
    zgen = _z_part(context, context.x, relations, labels, comult)
    zd = AlgebraElement.monomial(context, Word(data.d, ()))
    for j in range(n):
        for i in range(n):
            lhs = _linear_form(context, ((zeta_pow(data.d * deg[i]) * omega[i, k],
                                          context.x(j, k)) for k in range(n)))
            rhs = _linear_form(context, ((zeta_pow(data.d * deg[k]) * omega[k, j],
                                          context.xstar(k, i)) for k in range(n)))
            relations.append(lhs - zd * rhs)
            labels.append(f"invariance({j},{i})")
    comult.update(_matrix_comult(context, context.x))
    return Presentation(name="t_form", context=context,
                        generators=_matrix_letters(context, context.x) + (zgen,),
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=data)


def intertwiner_check(data: OmegaData, f_override: Matrix | None = None) -> bool:
    """Verify t*F = z^d*F*conj(t) entrywise against the generated relations.

    ``f_override`` substitutes a candidate matrix for the derived F, which
    is how mutation tests confirm the identity pins F.  The t-form builds
    its invariance family from omega, not from F, so the check compares
    two constructions.
    """
    F = f_matrix(data) if f_override is None else f_override
    return _intertwiner_holds(t_form_presentation(data), data.d, F)


def _intertwiner_holds(presentation: Presentation, d: int, F: Matrix) -> bool:
    """t*F = z^d*F*conj(t) against a t-form presentation's relations
    ``invariance(j,i)``; a missing one raises KeyError."""
    context = presentation.context
    n = context.n
    zd = AlgebraElement.monomial(context, Word(d, ()))
    relations = dict(zip(presentation.relation_labels, presentation.relations))
    for j in range(n):
        for i in range(n):
            lhs = _linear_form(context, ((F[k, i], context.x(j, k)) for k in range(n)))
            rhs = _linear_form(context, ((F[j, k], context.xstar(k, i)) for k in range(n)))
            if lhs - zd * rhs != relations[f"invariance({j},{i})"]:
                return False
    return True


def aof_presentation(F: Matrix, zeta: Scalar | None = None) -> Presentation:
    """The classical one-matrix algebra for an invertible F:
    x unitary and x*F = F*conj(x) entrywise, with matrix comultiplication."""
    try:
        F.inverse()
    except SingularMatrix as exc:
        raise ValueError("aof presentation requires an invertible matrix") from exc
    n = F.rows
    context = _phase_context(F.field, zeta, (0,) * n)
    relations, labels = _unitarity_relations(context, context.x, context.xstar, "x_")
    for i in range(n):
        for j in range(n):
            lhs = _linear_form(context, ((F[k, j], context.x(i, k)) for k in range(n)))
            rhs = _linear_form(context, ((F[i, k], context.xstar(k, j)) for k in range(n)))
            relations.append(lhs - rhs)
            labels.append(f"intertwine({i},{j})")
    return Presentation(name="aof", context=context,
                        generators=_matrix_letters(context, context.x),
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=_matrix_comult(context, context.x), meta=None)


def circle_presentation(field: Field, zeta: Scalar | None = None) -> Presentation:
    """The circle algebra: one unitary generator z with Delta(z) = z (x) z."""
    context = _phase_context(field, zeta, ())
    relations: list[AlgebraElement] = []
    labels: list[str] = []
    comult: dict[GeneratorSym, TensorElement] = {}
    zgen = _z_part(context, None, relations, labels, comult)
    return Presentation(name="circle", context=context, generators=(zgen,),
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=None)


@dataclass(frozen=True)
class MorphismSpec:
    """A generator assignment defining an algebra morphism."""

    source: str
    target: str
    assignment: dict[GeneratorSym, AlgebraElement]

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "assignment": {g.display(): e.to_json()
                           for g, e in sorted(self.assignment.items(),
                                              key=lambda kv: kv[0].key())},
        }


def apply_morphism(morphism: MorphismSpec, element: AlgebraElement,
                   target_context: AlgebraContext) -> AlgebraElement:
    """Push an element through a generator assignment.

    z-powers in a word are sent through the image of Z, which must be a
    single invertible monomial for negative powers to make sense.
    """
    z_gen = next((g for g in morphism.assignment if g.kind == "Z"), None)

    def letter_image(letter: GeneratorSym) -> AlgebraElement:
        image = morphism.assignment.get(letter)
        if image is None:
            base = morphism.assignment.get(letter.star())
            if base is None:
                raise ValueError(f"assignment is missing {letter.display()}")
            image = base.adjoint()
        return image

    def z_image(zexp: int) -> AlgebraElement:
        if z_gen is None:
            raise ValueError("assignment is missing Z")
        terms = morphism.assignment[z_gen].sorted_terms()
        if len(terms) != 1 or terms[0][0].letters:
            raise ValueError("the image of Z must be a z-monomial")
        zword, zcoeff = terms[0]
        return AlgebraElement.monomial(target_context, Word(zword.zexp * zexp, ()),
                                       zcoeff ** zexp)

    return _substitute_words(element, AlgebraElement.one(target_context), letter_image, z_image)


def check_morphism(morphism: MorphismSpec, source: Presentation,
                   target: Presentation) -> bool:
    """Every source relation must map into the span of the target relations.

    Images that normalize to zero (scalar identities) are accepted
    outright; otherwise the image must match a target relation up to a
    scalar and a unit monomial factor.
    """
    targets = [rel.strip_unit_factors() for rel in target.nonzero_relations()]
    for rel in source.relations:
        image = apply_morphism(morphism, rel, target.context)
        if image.is_zero():
            continue
        stripped = image.strip_unit_factors()
        if not any(stripped == t for t in targets):
            return False
    return True


def projection_morphisms(data: OmegaData) -> tuple[MorphismSpec, MorphismSpec]:
    """The Hopf morphisms circle -> bosonisation -> circle.

    The inclusion sends z to z; the projection sends z to z and u[i,j]
    to delta_{i,j}.  Their composite is the identity on the circle.
    """
    boson = bosonisation_presentation(data)
    circle = circle_presentation(data.space.field, data.space.zeta)
    b_ctx, c_ctx = boson.context, circle.context

    iota = MorphismSpec(source="circle", target="bosonisation", assignment={
        c_ctx.z(1): AlgebraElement.from_letter(b_ctx, b_ctx.z(1)),
    })
    assignment: dict[GeneratorSym, AlgebraElement] = {
        b_ctx.z(1): AlgebraElement.from_letter(c_ctx, c_ctx.z(1)),
    }
    n = data.space.n
    for i in range(n):
        for j in range(n):
            assignment[b_ctx.u(i, j)] = (AlgebraElement.one(c_ctx) if i == j
                                         else AlgebraElement.zero(c_ctx))
    pi = MorphismSpec(source="bosonisation", target="circle", assignment=assignment)
    return iota, pi


def aof_to_tform_morphism(data: OmegaData) -> MorphismSpec:
    """x[i,j] -> t[i,j]; at d = 0 this carries the one-matrix relations
    onto the t-form relations on the nose."""
    if data.d != 0:
        raise ValueError("the relation sets coincide only at d = 0")
    ctx = _graded_context(data)
    n = data.space.n
    assignment = {ctx.x(i, j): AlgebraElement.from_letter(ctx, ctx.x(i, j))
                  for i in range(n) for j in range(n)}
    return MorphismSpec(source="aof", target="t_form", assignment=assignment)


def substitute_t_generators(element: AlgebraElement, data: OmegaData,
                            boson_context: AlgebraContext) -> AlgebraElement:
    """Substitute t[i,j] = z^(d_i) u[i,j] and z-normalize."""
    deg = data.space.degrees

    def letter_image(letter: GeneratorSym) -> AlgebraElement:
        if letter.kind == "X":
            raw = [boson_context.z(deg[letter.i]), boson_context.u(letter.i, letter.j)]
        elif letter.kind == "Xstar":
            raw = [boson_context.ustar(letter.i, letter.j), boson_context.z(-deg[letter.i])]
        else:
            raise ValueError("substitution applies to t-generator words")
        return AlgebraElement.from_raw(boson_context, raw)

    def z_image(zexp: int) -> AlgebraElement:
        return AlgebraElement.monomial(boson_context, Word(zexp, ()))

    return _substitute_words(element, AlgebraElement.one(boson_context), letter_image, z_image)


# -- serialization -----------------------------------------------------------


def serialize_presentation(presentation: Presentation) -> str:
    """Canonical JSON: sorted keys, canonical term order, deterministic bytes."""
    payload = {
        "name": presentation.name,
        "context": presentation.context.to_json(),
        "meta": None if presentation.meta is None else presentation.meta.to_json(),
        "generators": [g.to_json() for g in presentation.generators],
        "relations": [r.to_json() for r in presentation.relations],
        "relation_labels": list(presentation.relation_labels),
        "comult": {g.display(): presentation.comult[g].to_json()
                   for g in sorted(presentation.comult, key=GeneratorSym.key)},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def deserialize_presentation(text: str) -> Presentation:
    data = json.loads(text)  # malformed input raises with line/column info
    context = AlgebraContext.from_json(data["context"])
    generators = tuple(GeneratorSym.from_json(g) for g in data["generators"])
    by_display = {g.display(): g for g in generators}
    relations = tuple(AlgebraElement.from_json(r, context) for r in data["relations"])
    comult = {}
    for key, img in data["comult"].items():
        gen = by_display.get(key)
        if gen is None:
            raise ValueError(f"comultiplication names unknown generator {key!r}")
        comult[gen] = TensorElement.from_json(img, context)
    letters = list(generators)
    for rel in relations:
        for word in rel.terms:
            letters.extend(word.letters)
    for img in comult.values():
        for legs in img.terms:
            for word in legs:
                letters.extend(word.letters)
    for g in letters:
        context._check_letter(g)
    labels = tuple(data["relation_labels"])
    if not all(isinstance(label, str) for label in labels):
        raise ValueError("relation labels must be strings")
    meta = None if data.get("meta") is None else OmegaData.from_json(data["meta"])
    return Presentation(name=data["name"], context=context, generators=generators,
                        relations=relations, relation_labels=labels,
                        comult=comult, meta=meta)
