"""Universal presentations: the braided algebra, its bosonisation, the
t-generator form, the classical one-matrix family, and the projection
morphisms between the bosonisation and the circle algebra."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .freealg import (AlgebraContext, AlgebraElement, GeneratorSym, TensorElement,
                      Word)
from .graded import OmegaData, f_matrix, validate
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


def _require_valid(data: OmegaData) -> None:
    report = validate(data)
    if not report.holds:
        raise ValueError(f"instance fails the block condition: {report.reason}")


def _unitarity_relations(context: AlgebraContext, letter, letter_star, n: int,
                         labels: list, relations: list, prefix: str) -> None:
    one = AlgebraElement.one(context)
    for i in range(n):
        for j in range(n):
            iso = AlgebraElement.zero(context)
            coiso = AlgebraElement.zero(context)
            for k in range(n):
                iso = iso + (AlgebraElement.from_letter(context, letter_star(k, i))
                             * AlgebraElement.from_letter(context, letter(k, j)))
                coiso = coiso + (AlgebraElement.from_letter(context, letter(i, k))
                                 * AlgebraElement.from_letter(context, letter_star(j, k)))
            if i == j:
                iso = iso - one
                coiso = coiso - one
            relations.append(iso)
            labels.append(f"{prefix}isometry({i},{j})")
            relations.append(coiso)
            labels.append(f"{prefix}coisometry({i},{j})")


def braided_presentation(data: OmegaData) -> Presentation:
    """The braided algebra on generators u[i,j].

    Relations: unitarity row/column sums and the invariance family

        zeta^(dj*di) sum_k omega[i,k] u[j,k]
          = zeta^(dj*(d-dj)) sum_k omega[k,j] u*[k,i].

    The comultiplication is stored in the two-leg matrix form with zero
    z-exponents.
    """
    _require_valid(data)
    space = data.space
    n, deg = space.n, space.degrees
    context = AlgebraContext(field=space.field, zeta=space.zeta, degrees=deg)
    generators = tuple(context.u(i, j) for i in range(n) for j in range(n))

    relations: list[AlgebraElement] = []
    labels: list[str] = []
    _unitarity_relations(context, context.u, context.ustar, n, labels, relations, "")
    for i in range(n):
        for j in range(n):
            lhs = AlgebraElement.zero(context)
            rhs = AlgebraElement.zero(context)
            for k in range(n):
                w_ik = data.omega[i, k]
                if not w_ik.is_zero():
                    lhs = lhs + AlgebraElement.from_letter(context, context.u(j, k)).scale(w_ik)
                w_kj = data.omega[k, j]
                if not w_kj.is_zero():
                    rhs = rhs + AlgebraElement.from_letter(context, context.ustar(k, i)).scale(w_kj)
            rel = (lhs.scale(space.zeta_pow(deg[j] * deg[i]))
                   - rhs.scale(space.zeta_pow(deg[j] * (data.d - deg[j]))))
            relations.append(rel)
            labels.append(f"invariance({i},{j})")

    comult: dict[GeneratorSym, TensorElement] = {}
    for i in range(n):
        for k in range(n):
            img = TensorElement.zero(context, 2)
            for l in range(n):
                img = img + TensorElement.tensor(
                    AlgebraElement.from_letter(context, context.u(i, l)),
                    AlgebraElement.from_letter(context, context.u(l, k)))
            comult[context.u(i, k)] = img
    return Presentation(name="braided", context=context, generators=generators,
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=data)


def bosonisation_presentation(data: OmegaData) -> Presentation:
    """The bosonisation: braided relations plus a unitary z with
    z u[i,j] = zeta^(di-dj) u[i,j] z, and the twisted comultiplication
    u[i,k] -> sum_l u[i,l] (x) z^(dl-di) u[l,k]."""
    _require_valid(data)
    space = data.space
    n, deg = space.n, space.degrees
    context = AlgebraContext(field=space.field, zeta=space.zeta, degrees=deg)
    braided = braided_presentation(data)

    relations = list(braided.relations)
    labels = list(braided.relation_labels)
    # z z* = 1 and the commutation relations normalize to the zero element:
    # the z-counter bookkeeping absorbs them, which is the point
    z_unit = (AlgebraElement.from_raw(context, [context.z(1), context.z(-1)])
              - AlgebraElement.one(context))
    relations.append(z_unit)
    labels.append("z_unitary")
    for i in range(n):
        for j in range(n):
            lhs = AlgebraElement.from_raw(context, [context.z(1), context.u(i, j)])
            rhs = AlgebraElement.from_raw(context, [context.u(i, j), context.z(1)])
            rel = lhs - rhs.scale(space.zeta_pow(deg[i] - deg[j]))
            relations.append(rel)
            labels.append(f"commutation({i},{j})")

    comult: dict[GeneratorSym, TensorElement] = {}
    zgen = context.z(1)
    zleg = AlgebraElement.from_letter(context, zgen)
    comult[zgen] = TensorElement.tensor(zleg, zleg)
    for i in range(n):
        for k in range(n):
            img = TensorElement.zero(context, 2)
            for l in range(n):
                second = AlgebraElement.from_raw(
                    context, [context.z(deg[l] - deg[i]), context.u(l, k)])
                img = img + TensorElement.tensor(
                    AlgebraElement.from_letter(context, context.u(i, l)), second)
            comult[context.u(i, k)] = img
    generators = tuple(context.u(i, j) for i in range(n) for j in range(n)) + (zgen,)
    return Presentation(name="bosonisation", context=context, generators=generators,
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=data)


def t_form_presentation(data: OmegaData) -> Presentation:
    """The bosonisation on the generators t[i,j] = z^(di) u[i,j].

    The invariance family becomes the entrywise expansion of
    t*F = z^d*F*conj(t):

        sum_k t[j,k] (zeta^(d*di) omega[i,k])
          = z^d sum_k (zeta^(d*dk) omega[k,j]) t*[k,i].
    """
    _require_valid(data)
    space = data.space
    n, deg = space.n, space.degrees
    context = AlgebraContext(field=space.field, zeta=space.zeta, degrees=deg)

    relations: list[AlgebraElement] = []
    labels: list[str] = []
    _unitarity_relations(context, context.x, context.xstar, n, labels, relations, "t_")
    z_unit = (AlgebraElement.from_raw(context, [context.z(1), context.z(-1)])
              - AlgebraElement.one(context))
    relations.append(z_unit)
    labels.append("z_unitary")
    for i in range(n):
        for j in range(n):
            lhs = AlgebraElement.from_raw(context, [context.z(1), context.x(i, j)])
            rhs = AlgebraElement.from_raw(context, [context.x(i, j), context.z(1)])
            relations.append(lhs - rhs.scale(space.zeta_pow(deg[i] - deg[j])))
            labels.append(f"commutation({i},{j})")
    zd = AlgebraElement.monomial(context, Word(data.d, ()))
    for j in range(n):
        for i in range(n):
            lhs = AlgebraElement.zero(context)
            rhs = AlgebraElement.zero(context)
            for k in range(n):
                w_ik = data.omega[i, k]
                if not w_ik.is_zero():
                    coeff = space.zeta_pow(data.d * deg[i]) * w_ik
                    lhs = lhs + AlgebraElement.from_letter(context, context.x(j, k)).scale(coeff)
                w_kj = data.omega[k, j]
                if not w_kj.is_zero():
                    coeff = space.zeta_pow(data.d * deg[k]) * w_kj
                    rhs = rhs + AlgebraElement.from_letter(context, context.xstar(k, i)).scale(coeff)
            relations.append(lhs - zd * rhs)
            labels.append(f"invariance({j},{i})")

    comult: dict[GeneratorSym, TensorElement] = {}
    zgen = context.z(1)
    zleg = AlgebraElement.from_letter(context, zgen)
    comult[zgen] = TensorElement.tensor(zleg, zleg)
    for i in range(n):
        for k in range(n):
            img = TensorElement.zero(context, 2)
            for m in range(n):
                img = img + TensorElement.tensor(
                    AlgebraElement.from_letter(context, context.x(i, m)),
                    AlgebraElement.from_letter(context, context.x(m, k)))
            comult[context.x(i, k)] = img
    generators = tuple(context.x(i, j) for i in range(n) for j in range(n)) + (zgen,)
    return Presentation(name="t_form", context=context, generators=generators,
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=data)


def aof_presentation(F: Matrix, zeta: Scalar | None = None) -> Presentation:
    """The classical one-matrix algebra for an invertible F:
    x unitary and x*F = F*conj(x) entrywise, with matrix comultiplication."""
    try:
        F.inverse()
    except SingularMatrix as exc:
        raise ValueError("aof presentation requires an invertible matrix") from exc
    field = F.field
    n = F.rows
    if zeta is None:
        zeta = field.one() if field.exact else field.from_complex(1.0)
    context = AlgebraContext(field=field, zeta=zeta, degrees=(0,) * n)

    relations: list[AlgebraElement] = []
    labels: list[str] = []
    _unitarity_relations(context, context.x, context.xstar, n, labels, relations, "x_")
    for i in range(n):
        for j in range(n):
            lhs = AlgebraElement.zero(context)
            rhs = AlgebraElement.zero(context)
            for k in range(n):
                f_kj = F[k, j]
                if not f_kj.is_zero():
                    lhs = lhs + AlgebraElement.from_letter(context, context.x(i, k)).scale(f_kj)
                f_ik = F[i, k]
                if not f_ik.is_zero():
                    rhs = rhs + AlgebraElement.from_letter(context, context.xstar(k, j)).scale(f_ik)
            relations.append(lhs - rhs)
            labels.append(f"intertwine({i},{j})")

    comult: dict[GeneratorSym, TensorElement] = {}
    for i in range(n):
        for j in range(n):
            img = TensorElement.zero(context, 2)
            for k in range(n):
                img = img + TensorElement.tensor(
                    AlgebraElement.from_letter(context, context.x(i, k)),
                    AlgebraElement.from_letter(context, context.x(k, j)))
            comult[context.x(i, j)] = img
    generators = tuple(context.x(i, j) for i in range(n) for j in range(n))
    return Presentation(name="aof", context=context, generators=generators,
                        relations=tuple(relations), relation_labels=tuple(labels),
                        comult=comult, meta=None)


def circle_presentation(field: Field, zeta: Scalar | None = None) -> Presentation:
    """The circle algebra: one unitary generator z with Delta(z) = z (x) z."""
    if zeta is None:
        zeta = field.one() if field.exact else field.from_complex(1.0)
    context = AlgebraContext(field=field, zeta=zeta, degrees=())
    zgen = context.z(1)
    z_unit = (AlgebraElement.from_raw(context, [context.z(1), context.z(-1)])
              - AlgebraElement.one(context))
    zleg = AlgebraElement.from_letter(context, zgen)
    return Presentation(name="circle", context=context, generators=(zgen,),
                        relations=(z_unit,), relation_labels=("z_unitary",),
                        comult={zgen: TensorElement.tensor(zleg, zleg)}, meta=None)


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
    out = AlgebraElement.zero(target_context)
    z_gen = next((g for g in morphism.assignment if g.kind == "Z"), None)
    for word, coeff in element.sorted_terms():
        acc = AlgebraElement.one(target_context)
        for letter in word.letters:
            image = morphism.assignment.get(letter)
            if image is None:
                base = morphism.assignment.get(letter.star())
                if base is None:
                    raise ValueError(f"assignment is missing {letter.display()}")
                image = base.adjoint()
            acc = acc * image
        if word.zexp:
            if z_gen is None:
                raise ValueError("assignment is missing Z")
            zimg = morphism.assignment[z_gen]
            terms = zimg.sorted_terms()
            if len(terms) != 1 or terms[0][0].letters:
                raise ValueError("the image of Z must be a z-monomial")
            zword, zcoeff = terms[0]
            powered = AlgebraElement.monomial(
                target_context, Word(zword.zexp * word.zexp, ()),
                zcoeff ** word.zexp)
            acc = acc * powered
        out = out + acc.scale(coeff)
    return out


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
    _require_valid(data)
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
    tform = t_form_presentation(data)
    ctx = tform.context
    n = data.space.n
    assignment = {ctx.x(i, j): AlgebraElement.from_letter(ctx, ctx.x(i, j))
                  for i in range(n) for j in range(n)}
    return MorphismSpec(source="aof", target="t_form", assignment=assignment)


def substitute_t_generators(element: AlgebraElement, data: OmegaData,
                            boson_context: AlgebraContext) -> AlgebraElement:
    """Substitute t[i,j] = z^(d_i) u[i,j] and z-normalize."""
    deg = data.space.degrees
    out = AlgebraElement.zero(boson_context)
    for word, coeff in element.sorted_terms():
        acc = AlgebraElement.monomial(boson_context, Word(0, ()))
        for letter in word.letters:
            if letter.kind == "X":
                raw = [boson_context.z(deg[letter.i]), boson_context.u(letter.i, letter.j)]
            elif letter.kind == "Xstar":
                raw = [boson_context.ustar(letter.i, letter.j), boson_context.z(-deg[letter.i])]
            else:
                raise ValueError("substitution applies to t-generator words")
            acc = acc * AlgebraElement.from_raw(boson_context, raw)
        if word.zexp:
            acc = acc * AlgebraElement.monomial(boson_context, Word(word.zexp, ()))
        out = out + acc.scale(coeff)
    return out


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
        if g.kind == "Z":
            derived = context.z(g.power)
        elif max(g.i, g.j) >= context.n:
            raise ValueError(f"generator {g.display()} is out of range for n = {context.n}")
        else:
            derived = context.letter(g.kind, g.i, g.j)
        # a stored grading is checked, not trusted, so GeneratorSym.key() is a
        # total order on loaded letters
        if g.grading != derived.grading:
            raise ValueError(f"generator {g.display()} has grading {g.grading}, "
                             f"expected {derived.grading}")
    labels = tuple(data["relation_labels"])
    if not all(isinstance(label, str) for label in labels):
        raise ValueError("relation labels must be strings")
    meta = None if data.get("meta") is None else OmegaData.from_json(data["meta"])
    return Presentation(name=data["name"], context=context, generators=generators,
                        relations=relations, relation_labels=labels,
                        comult=comult, meta=meta)
