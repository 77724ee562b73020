"""Free *-algebra engine in z-normal form.

Words are stored as (letters, zexp) meaning letters * z^zexp: every power
of z is pushed to the far right through the confluent rule

    z * g = zeta^(-zdeg(g)) * g * z,

where zdeg is the z-commutation degree of the letter (deg_j - deg_i for
u[i,j] and t[i,j], negated for their adjoints).  The rule has a single
z-counter, so it is terminating and confluent, and membership bases never
need z-commutators.

On top of the element arithmetic this module supplies comultiplication
application on one, two and three tensor legs, the coassociativity check,
and bounded-degree ideal-membership certification by exact sparse
Gaussian elimination (the certifier itself is in ``_certifier``, loaded on
first use).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from operator import itemgetter

from .scalar import Field, FieldMismatch, PhasePowers, Scalar

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "GeneratorSym",
    "MembershipCertificate",
    "CertEntry",
    "TensorElement",
    "Word",
    "apply_comult",
    "coassociativity_check",
    "expand_three_legs",
    "ideal_membership",
    "normal_form",
    "well_definedness_check",
]

_KIND_RANK = {"U": 0, "Ustar": 1, "X": 2, "Xstar": 3, "Z": 4}
# the membership row cap when the caller names none
DEFAULT_ROW_CAP = 2_000_000
_STAR = {"U": "Ustar", "Ustar": "U", "X": "Xstar", "Xstar": "X", "Z": "Z"}


@dataclass(frozen=True)
class GeneratorSym:
    """A generator symbol: u[i,j], t[i,j] (kind X), their adjoints, or z.

    ``grading`` is the circle-action degree of the symbol: deg_j - deg_i
    for U(i,j), its negative for the adjoint, and zero for Z and the
    t-generators.
    """

    kind: str
    i: int | None = None
    j: int | None = None
    power: int = 1
    grading: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "Z":
            if self.i is not None or self.j is not None:
                raise ValueError("Z carries no matrix indices")
        else:
            if self.i is None or self.j is None or self.i < 0 or self.j < 0:
                raise ValueError(f"{self.kind} needs nonnegative indices")
            if self.power != 1:
                raise ValueError("only Z carries a power")
        # hashed once, from integers only: the same under every PYTHONHASHSEED
        object.__setattr__(self, "_hash", hash((*self.key(), self.grading)))

    def __hash__(self) -> int:
        return self._hash

    def star(self) -> "GeneratorSym":
        if self.kind == "Z":
            return GeneratorSym("Z", power=-self.power, grading=self.grading)
        return GeneratorSym(_STAR[self.kind], self.i, self.j, grading=-self.grading)

    def key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.i if self.i is not None else -1,
                self.j if self.j is not None else -1, self.power)

    def display(self) -> str:
        if self.kind == "Z":
            return "Z" if self.power == 1 else f"Z^{self.power}"
        return f"{self.kind}({self.i},{self.j})"

    def to_json(self) -> dict:
        if self.kind == "Z":
            return {"kind": "Z", "power": self.power, "grading": self.grading}
        return {"kind": self.kind, "i": self.i, "j": self.j, "grading": self.grading}

    @classmethod
    def from_json(cls, data: dict) -> "GeneratorSym":
        kind = data.get("kind")
        if kind == "Z":
            return cls("Z", power=int(data.get("power", 1)), grading=int(data.get("grading", 0)))
        if kind in ("U", "Ustar", "X", "Xstar"):
            return cls(kind, int(data["i"]), int(data["j"]), grading=int(data.get("grading", 0)))
        raise ValueError(f"unknown generator kind {kind!r}")


@dataclass(frozen=True)
class AlgebraContext:
    """Shared data the rewriting needs: field, twisting phase, degrees."""

    field: Field
    zeta: Scalar
    degrees: tuple[int, ...]
    # zeta_pow(e) == zeta^e, memoised per context
    zeta_pow: PhasePowers = dataclass_field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.zeta.field != self.field:
            raise ValueError("zeta must live in the context field")
        # PhasePowers checks that zeta has modulus one: the z-rewriting takes
        # zeta_pow(-e) as the inverse of zeta^e
        object.__setattr__(self, "zeta_pow", PhasePowers(self.zeta))

    @property
    def n(self) -> int:
        return len(self.degrees)

    def zdeg(self, letter: GeneratorSym) -> int:
        """z-commutation degree: z * g = zeta^(-zdeg(g)) * g * z."""
        if letter.kind in ("U", "X"):
            return self.degrees[letter.j] - self.degrees[letter.i]
        if letter.kind in ("Ustar", "Xstar"):
            return self.degrees[letter.i] - self.degrees[letter.j]
        raise ValueError("z has no z-commutation degree")

    def word_zdeg(self, letters) -> int:
        return sum(self.zdeg(g) for g in letters)

    # letter factories keep the stored beta-grading consistent
    def u(self, i: int, j: int) -> GeneratorSym:
        return GeneratorSym("U", i, j, grading=self.degrees[j] - self.degrees[i])

    def ustar(self, i: int, j: int) -> GeneratorSym:
        return GeneratorSym("Ustar", i, j, grading=self.degrees[i] - self.degrees[j])

    def x(self, i: int, j: int) -> GeneratorSym:
        return GeneratorSym("X", i, j, grading=0)

    def xstar(self, i: int, j: int) -> GeneratorSym:
        return GeneratorSym("Xstar", i, j, grading=0)

    def z(self, power: int = 1) -> GeneratorSym:
        return GeneratorSym("Z", power=power, grading=0)

    def letter(self, kind: str, i: int, j: int) -> GeneratorSym:
        """The U, Ustar, X or Xstar generator (i, j) with its derived grading."""
        factories = {"U": self.u, "Ustar": self.ustar, "X": self.x, "Xstar": self.xstar}
        return factories[kind](i, j)

    def _check_letter(self, letter: GeneratorSym) -> None:
        """Reject an index out of range or a stored grading that is not the
        derived one: ``GeneratorSym.key()`` is a total order on checked letters."""
        if letter.kind == "Z":
            derived = self.z(letter.power)
        elif max(letter.i, letter.j) >= self.n:
            raise ValueError(f"generator {letter.display()} is out of range for n = {self.n}")
        else:
            derived = self.letter(letter.kind, letter.i, letter.j)
        if letter.grading != derived.grading:
            raise ValueError(f"generator {letter.display()} has grading {letter.grading}, "
                             f"expected {derived.grading}")

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "zeta": self.zeta.to_json(),
                "degrees": list(self.degrees)}

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraContext":
        fld = Field.from_json(data["field"])
        return cls(field=fld, zeta=Scalar.from_json(data["zeta"], fld),
                   degrees=tuple(int(a) for a in data["degrees"]))


@dataclass(frozen=True)
class Word:
    """Normal-form monomial letters * z^zexp; letters never contain Z."""

    zexp: int
    letters: tuple[GeneratorSym, ...]

    def __post_init__(self):
        if any(g.kind == "Z" for g in self.letters):
            raise ValueError("Z belongs in zexp, not in the letter string")

    def __hash__(self) -> int:
        # hashed on first use (most words a certifier decodes never are) and
        # kept; the letters' hashes are integer-only, so this one is too
        try:
            return self._hash
        except AttributeError:
            value = hash((self.zexp, self.letters))
            object.__setattr__(self, "_hash", value)
            return value

    def key(self) -> tuple:
        return (self.zexp, len(self.letters), tuple(g.key() for g in self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return self.zexp == 0 and not self.letters

    def display(self) -> str:
        parts = [g.display() for g in self.letters]
        if self.zexp:
            parts.append("Z" if self.zexp == 1 else f"Z^{self.zexp}")
        return "*".join(parts) if parts else "1"

    def to_json(self) -> list:
        return [self.zexp, [g.to_json() for g in self.letters]]

    @classmethod
    def from_json(cls, data: list) -> "Word":
        return cls(int(data[0]), tuple(GeneratorSym.from_json(g) for g in data[1]))


_IDENTITY_WORD = Word(0, ())


def normal_form(raw: list[GeneratorSym] | tuple[GeneratorSym, ...],
                context: AlgebraContext) -> tuple[Scalar, Word]:
    """Normalize a raw letter string that may contain Z letters.

    All z-powers migrate to the right; the accumulated phase is exact.
    Any rewriting strategy gives the same answer (single z-counter).
    """
    phase_exp = 0
    z_acc = 0
    letters: list[GeneratorSym] = []
    for sym in raw:
        if sym.kind == "Z":
            z_acc += sym.power
        else:
            if z_acc:
                phase_exp += -z_acc * context.zdeg(sym)
            letters.append(sym)
    return context.zeta_pow(phase_exp), Word(z_acc, tuple(letters))


def _z_pass_phase(context: AlgebraContext, zexp: int, letters) -> Scalar:
    # z^p g = zeta^(-p*zdeg(g)) g z^p, letter by letter
    if zexp and letters:
        return context.zeta_pow(-zexp * context.word_zdeg(letters))
    return context.field.one()


def _word_mul(context: AlgebraContext, a: Word, b: Word) -> tuple[Scalar, Word]:
    # (w1 z^p)(w2 z^q) = zeta^(-p*zdeg(w2)) w1 w2 z^(p+q)
    return (_z_pass_phase(context, a.zexp, b.letters),
            Word(a.zexp + b.zexp, a.letters + b.letters))


def _word_adjoint(context: AlgebraContext, w: Word) -> tuple[Scalar, Word]:
    # (w z^p)* = zeta^(-p*zdeg(w)) w* z^(-p)
    starred = tuple(g.star() for g in reversed(w.letters))
    return _z_pass_phase(context, w.zexp, w.letters), Word(-w.zexp, starred)


def _adopted(element, terms: dict):
    """``element`` (built empty) with ``terms`` taken as its term dict as is:
    a dict that ``_add_scaled`` built holds no zero coefficient, so the
    constructor's pass, which hashes every key again, is skipped."""
    element.terms = terms
    return element


def _add_scaled(out: dict, coeff: Scalar | None, terms) -> None:
    """``out += coeff * terms`` in place (``coeff`` None adds the terms as
    they are): zero terms are skipped and a key whose sum is zero is deleted.
    Every element that arithmetic builds is summed here."""
    for key, term in terms:
        if coeff is not None:
            term = coeff * term
        if term.is_zero():
            continue
        # a new key is hashed once; the size, not identity, tells whether the
        # key was there, since in x + x the stored term is the incoming one
        size = len(out)
        prev = out.setdefault(key, term)
        if len(out) == size:
            term = prev + term
            if term.is_zero():
                del out[key]
            else:
                out[key] = term


class _Combination:
    """Finite scalar combination of term keys; canonical storage.

    A term key is a ``Word`` for algebra elements and a tuple of leg
    ``Word``s for tensor elements.  Zero coefficients are never stored.
    Subclasses supply ``_legs`` (a key's leg words), ``_key`` (the key of a
    list of leg words), ``_like`` (a combination of the same kind on new
    terms) and ``_space`` (what two operands must share); the arithmetic,
    term order and size measures here act on leg words alone.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict | None = None):
        self.context = context
        clean: dict = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero():
                    clean[key] = c
        self.terms = clean

    def _check(self, other) -> None:
        if self._space() != other._space():
            raise FieldMismatch(f"{type(self).__name__} context mismatch")

    def _sum(self, terms, coeff: Scalar | None = None, start=()):
        """A combination of this kind holding ``start + coeff * terms``."""
        out = dict(start)
        _add_scaled(out, coeff, terms)
        return _adopted(self._like({}), out)

    def __add__(self, other):
        self._check(other)
        return self._sum(other.terms.items(), start=self.terms)

    def __sub__(self, other):
        self._check(other)
        # prev + (-c) is prev - c, exactly and in floating point
        return self._sum(((key, -c) for key, c in other.terms.items()), start=self.terms)

    def __neg__(self):
        return self._sum((key, -c) for key, c in self.terms.items())

    def _product(self, other):
        """Legwise product; braiding phases already live in the z-bookkeeping.
        Each coefficient is (ca * cb) times the legs' phases, left to right.
        Subclasses bind it as their own ``__mul__``, which the benchmark's
        tracer wraps class by class."""
        self._check(other)
        context, legs, key = self.context, self._legs, self._key
        theirs = [(legs(kb), cb) for kb, cb in other.terms.items()]

        def products():
            for ka, ca in self.terms.items():
                mine = legs(ka)
                for wbs, cb in theirs:
                    coeff = ca * cb
                    words = []
                    for a, b in zip(mine, wbs):
                        phase, word = _word_mul(context, a, b)
                        coeff = coeff * phase
                        words.append(word)
                    yield key(words), coeff
        return self._sum(products())

    def adjoint(self):
        """Legwise adjoint: each coefficient is conj(c) times the legs' phases."""
        context, legs, key = self.context, self._legs, self._key

        def adjoints():
            for k, c in self.terms.items():
                coeff = c.conj()
                words = []
                for w in legs(k):
                    phase, word = _word_adjoint(context, w)
                    coeff = coeff * phase
                    words.append(word)
                yield key(words), coeff
        return self._sum(adjoints())

    def scale(self, coeff: Scalar):
        if coeff.is_zero():
            return self._like({})
        return self._sum(self.terms.items(), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def max_word_length(self) -> int:
        """The longest leg word's letter count (0 when zero)."""
        return max((len(w) for k in self.terms for w in self._legs(k)), default=0)

    def max_abs_zexp(self) -> int:
        """The largest |z-exponent| of a leg word (0 when zero)."""
        return max((abs(w.zexp) for k in self.terms for w in self._legs(k)), default=0)

    def sorted_terms(self) -> list:
        """The (key, coefficient) pairs in the canonical order of leg-word keys."""
        legs = self._legs
        return sorted(self.terms.items(), key=lambda item: tuple(map(Word.key, legs(item[0]))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        # zero terms are never stored, so equal elements have equal supports
        # and, term by term, coefficients whose difference is zero; with equal
        # sizes one lookup per key (one hash of it) settles both
        mine, theirs = self.terms, other.terms
        if len(mine) != len(theirs) or self._space() != other._space():
            return False
        get = theirs.get
        for key, c in mine.items():
            other_c = get(key)
            if other_c is None or not c == other_c:
                return False
        return True

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c!r})*" + " (x) ".join(w.display() for w in self._legs(key))
                          for key, c in self.sorted_terms())


class AlgebraElement(_Combination):
    """Finite scalar combination of normal-form words; canonical storage."""

    __slots__ = ()

    __mul__ = _Combination._product
    # a term key is a single Word, the element's one leg
    _legs = staticmethod(lambda word: (word,))
    _key = staticmethod(itemgetter(0))

    def _like(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.context, terms)

    def _space(self):
        return self.context

    # constructors -------------------------------------------------------

    @classmethod
    def zero(cls, context: AlgebraContext) -> "AlgebraElement":
        return cls(context)

    @classmethod
    def one(cls, context: AlgebraContext) -> "AlgebraElement":
        return cls(context, {_IDENTITY_WORD: context.field.one()})

    @classmethod
    def monomial(cls, context: AlgebraContext, word: Word,
                 coeff: Scalar | None = None) -> "AlgebraElement":
        return cls(context, {word: coeff if coeff is not None else context.field.one()})

    @classmethod
    def from_letter(cls, context: AlgebraContext, letter: GeneratorSym) -> "AlgebraElement":
        if letter.kind == "Z":
            return cls.monomial(context, Word(letter.power, ()))
        return cls.monomial(context, Word(0, (letter,)))

    @classmethod
    def from_raw(cls, context: AlgebraContext, raw, coeff: Scalar | None = None) -> "AlgebraElement":
        phase, word = normal_form(list(raw), context)
        c = phase if coeff is None else phase * coeff
        return cls(context, {word: c})

    # predicates ----------------------------------------------------------

    def beta_degree(self) -> int | None:
        """The common grading of all words, or None when mixed or zero."""
        degree: int | None = None
        for w in self.terms:
            g = sum(letter.grading for letter in w.letters)
            if degree is None:
                degree = g
            elif degree != g:
                return None
        return degree

    def to_json(self) -> list:
        return [[c.to_json(), *w.to_json()] for w, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: list, context: AlgebraContext) -> "AlgebraElement":
        terms: dict[Word, Scalar] = {}
        for coeff_json, zexp, letters in data:
            terms[Word.from_json([zexp, letters])] = Scalar.from_json(coeff_json, context.field)
        return cls(context, terms)


class TensorElement(_Combination):
    """Scalar combination of 2- or 3-leg word tuples, each leg normalized."""

    __slots__ = ("legs",)

    __mul__ = _Combination._product
    # a term key is the tuple of leg words, and tuple() returns a tuple as is
    _legs = _key = staticmethod(tuple)

    def __init__(self, context: AlgebraContext, legs: int,
                 terms: dict[tuple[Word, ...], Scalar] | None = None):
        if legs not in (2, 3):
            raise ValueError("tensor elements have 2 or 3 legs")
        self.legs = legs
        super().__init__(context, terms)

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement(self.context, self.legs, terms)

    def _space(self):
        return self.context, self.legs

    @classmethod
    def zero(cls, context: AlgebraContext, legs: int = 2) -> "TensorElement":
        return cls(context, legs)

    @classmethod
    def one(cls, context: AlgebraContext, legs: int = 2) -> "TensorElement":
        return cls(context, legs, {(_IDENTITY_WORD,) * legs: context.field.one()})

    @classmethod
    def tensor(cls, *factors: AlgebraElement) -> "TensorElement":
        if len(factors) not in (2, 3):
            raise ValueError("tensor() takes 2 or 3 factors")
        context = factors[0].context

        def _extend(prefix, coeff, rest):
            if not rest:
                yield prefix, coeff
                return
            for w, c in rest[0].terms.items():
                yield from _extend(prefix + (w,), coeff * c, rest[1:])

        return cls(context, len(factors))._sum(_extend((), context.field.one(), list(factors)))

    def to_json(self) -> list:
        return [[c.to_json(), [w.to_json() for w in ws]] for ws, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: list, context: AlgebraContext, legs: int = 2) -> "TensorElement":
        terms: dict[tuple[Word, ...], Scalar] = {}
        for coeff_json, words in data:
            key = tuple(Word.from_json(w) for w in words)
            terms[key] = Scalar.from_json(coeff_json, context.field)
        return cls(context, legs, terms)


# -- comultiplication ------------------------------------------------------


def _comult_image(presentation, letter: GeneratorSym, cache: dict) -> TensorElement:
    image = cache.get(letter)
    if image is not None:
        return image
    base = presentation.comult.get(letter)
    if base is not None:
        image = base
    else:
        unstarred = letter.star()
        base = presentation.comult.get(unstarred)
        if base is None:
            raise ValueError(f"generator {letter.display()} has no comultiplication")
        image = base.adjoint()
    cache[letter] = image
    return image


def _substitute_words(element: AlgebraElement, one, letter_image, z_image):
    """Sum of c * letter_image(l_1) * ... * letter_image(l_k) * z_image(e) over
    the terms c * l_1...l_k z^e of `element` (z_image only for e != 0)."""
    out: dict = {}
    for word, coeff in element.sorted_terms():
        acc = one
        for letter in word.letters:
            acc = acc * letter_image(letter)
        if word.zexp:
            acc = acc * z_image(word.zexp)
        _add_scaled(out, coeff, acc.terms.items())
    return _adopted(one._like({}), out)


def apply_comult(element: AlgebraElement, presentation) -> TensorElement:
    """Extend the presentation's generator comultiplication multiplicatively."""
    return _comult(element, presentation, {})


def _comult(element: AlgebraElement, presentation, images: dict) -> TensorElement:
    """``apply_comult`` reading each letter's image from ``images`` (a
    letter -> 2-leg image table) and adding the ones it lacks, so callers
    that comultiply many elements form each starred image once."""
    context = element.context
    if any(word.zexp for word in element.terms):
        image = presentation.comult.get(GeneratorSym("Z"))
        if image is None:
            raise ValueError("presentation has no comultiplication for Z")
        if image != TensorElement(context, 2, {(Word(1, ()),) * 2: context.field.one()}):
            raise ValueError("z-powers extend only through the group-like image z (x) z")
    return _substitute_words(
        element, TensorElement.one(context, 2),
        lambda letter: _comult_image(presentation, letter, images),
        lambda zexp: TensorElement(context, 2, {(Word(zexp, ()),) * 2: context.field.one()}))


def expand_three_legs(t2: TensorElement, presentation, leg: int) -> TensorElement:
    """Apply the comultiplication to one leg of a 2-leg element (leg is 0 or 1)."""
    if t2.legs != 2 or leg not in (0, 1):
        raise ValueError("expand_three_legs acts on a specified leg of a 2-leg element")
    return _expand_leg(t2, presentation, leg, {})


def _expand_leg(t2: TensorElement, presentation, leg: int, images: dict) -> TensorElement:
    """``expand_three_legs`` reading each leg word's comultiplication from
    ``images`` (a word -> 2-leg image table) and adding the ones it lacks."""
    context = t2.context
    out: dict[tuple[Word, ...], Scalar] = {}
    for (w1, w2), coeff in t2.sorted_terms():
        target = w1 if leg == 0 else w2
        inner = images.get(target)
        if inner is None:
            inner = images[target] = apply_comult(AlgebraElement.monomial(context, target),
                                                  presentation)
        _add_scaled(out, coeff, ((((a, b, w2) if leg == 0 else (w1, a, b)), c)
                                 for (a, b), c in inner.terms.items()))
    return _adopted(TensorElement(context, 3), out)


def coassociativity_check(presentation) -> bool:
    """Exact equality of both 3-leg expansions on every generator."""
    context = presentation.context
    # every leg word's image, shared by both expansions of every generator
    images: dict[Word, TensorElement] = {}
    for gen in presentation.generators:
        two = apply_comult(AlgebraElement.from_letter(context, gen), presentation)
        if _expand_leg(two, presentation, 0, images) != _expand_leg(two, presentation, 1, images):
            return False
    return True


# -- ideal membership -------------------------------------------------------


@dataclass(frozen=True)
class CertEntry:
    """One summand of a membership combination.

    ``leg`` is 0 for plain targets; for tensor targets the decorated
    relation sits in leg 1 or 2 and ``other`` is the passive monomial in
    the remaining leg.  ``star`` applies the adjoint of the indexed
    relation before decorating.
    """

    leg: int
    left: Word
    rel_index: int
    star: bool
    right: Word
    other: Word | None
    coeff: Scalar

    def to_json(self) -> dict:
        return {
            "leg": self.leg,
            "left": self.left.to_json(),
            "rel_index": self.rel_index,
            "star": self.star,
            "right": self.right.to_json(),
            "other": None if self.other is None else self.other.to_json(),
            "coeff": self.coeff.to_json(),
        }


@dataclass(frozen=True)
class MembershipCertificate:
    verdict: str  # in_ideal | undecided_at_bound | nonzero_constant_obstruction
    degree_bound: int
    combination: tuple[CertEntry, ...] = ()

    def replay(self, relations, context: AlgebraContext, legs: int = 0):
        """Reconstruct the certified element from the combination."""
        if self.verdict != "in_ideal":
            raise ValueError("only in_ideal certificates replay")
        # each entry's a * r * b is formed term by term from the relation as
        # given (or its adjoint, formed once per replay), with the word
        # products and Scalar arithmetic of AlgebraElement; nothing is read
        # from the certifier's encoded rows, so replay checks them
        # independently.  Multiplying by a monomial is injective on words, so
        # no two terms of a piece merge.  The sum goes into one dict.
        out: dict = {}
        adjoints: dict[int, AlgebraElement] = {}
        for entry in self.combination:
            rel = relations[entry.rel_index]
            if entry.star:
                if entry.rel_index not in adjoints:
                    adjoints[entry.rel_index] = rel.adjoint()
                rel = adjoints[entry.rel_index]
            piece = []
            for word, c in rel.terms.items():
                left_phase, word = _word_mul(context, entry.left, word)
                right_phase, word = _word_mul(context, word, entry.right)
                key = (word if not legs else
                       (word, entry.other) if entry.leg == 1 else (entry.other, word))
                piece.append((key, c * left_phase * right_phase))
            _add_scaled(out, entry.coeff, piece)
        return _adopted(AlgebraElement(context) if legs == 0 else TensorElement(context, legs),
                        out)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "degree_bound": self.degree_bound,
            "combination": [e.to_json() for e in self.combination],
        }


def __getattr__(name: str):
    # the certifier is compiled on first use, not on import (see _certifier)
    if name == "IdealCertifier":
        from ._certifier import IdealCertifier
        return IdealCertifier
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ideal_membership(target, relations, degree_bound: int, *,
                     row_cap: int = DEFAULT_ROW_CAP, workers: int = 1) -> MembershipCertificate:
    """Certify membership of a target in the bounded two-sided relation span.

    ``workers`` is accepted for compatibility; the certifier is
    single-threaded and the certificate does not depend on it.
    """
    from ._certifier import IdealCertifier

    if target.max_word_length() > degree_bound:
        raise ValueError("degree_bound is below the target's word degree")
    certifier = IdealCertifier(target.context, relations, degree_bound,
                               row_cap=row_cap, workers=workers)
    if isinstance(target, TensorElement):
        return certifier.certify_tensor(target)
    return certifier.certify_element(target)


def well_definedness_check(presentation, degree_bound: int, *,
                           row_cap: int = DEFAULT_ROW_CAP, workers: int = 1) -> dict:
    """Certify that the comultiplication respects every defining relation.

    For each relation r the 2-leg image of r under the comultiplication is
    certified to lie in the ideal generated by the relations in either
    leg.  Undecided verdicts are reported, never turned into failures.
    ``workers`` is accepted for compatibility and changes nothing: the
    certifier is single-threaded.
    """
    certifier = None
    results = []
    images: dict = {}
    for label, rel in zip(presentation.relation_labels, presentation.relations):
        if rel.is_zero():
            cert = MembershipCertificate("in_ideal", degree_bound)
        else:
            target = _comult(rel, presentation, images)
            if (target.max_word_length() > degree_bound
                    or target.max_abs_zexp() > degree_bound
                    or rel.max_word_length() > degree_bound
                    or rel.max_abs_zexp() > degree_bound):
                cert = MembershipCertificate("undecided_at_bound", degree_bound)
            else:
                if certifier is None:
                    from ._certifier import IdealCertifier

                    certifier = IdealCertifier(presentation.context, presentation.relations,
                                               degree_bound, row_cap=row_cap, workers=workers)
                cert = certifier.certify_tensor(target)
        results.append({"relation": label, "verdict": cert.verdict, "certificate": cert})
    all_in = all(r["verdict"] == "in_ideal" for r in results)
    return {"relations": results, "all_in_ideal": all_in, "degree_bound": degree_bound}


def _unreplayed(presentation, report: dict) -> list[str]:
    """The relations of a ``well_definedness_check`` report whose in_ideal
    certificate does not replay to the relation's comultiplication image."""
    images: dict = {}
    return [record["relation"]
            for record, rel in zip(report["relations"], presentation.relations)
            if record["verdict"] == "in_ideal"
            and record["certificate"].replay(presentation.relations, presentation.context,
                                             legs=2) != _comult(rel, presentation, images)]
