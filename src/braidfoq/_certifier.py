"""The bounded ideal-membership certifier behind ``ideal_membership`` and
``well_definedness_check``.

It lives apart from ``freealg`` and is imported on first use, so a process
that never certifies never compiles it.
"""

from __future__ import annotations

import heapq

from .freealg import (_KIND_RANK, DEFAULT_ROW_CAP, AlgebraContext, AlgebraElement, CertEntry,
                      GeneratorSym, MembershipCertificate, TensorElement, Word)
from .scalar import Scalar


class IdealCertifier:
    """Row-reduced spanning set of bounded two-sided relation multiples.

    The ambient spanning set is {a * r * b} for r in the relation list and
    its adjoints, a and b monomials, subject to word-degree <= bound and
    |zexp| <= bound.  Each r is taken once up to a nonzero scalar and a
    right power of z: a * (c r z^k) * b is a multiple of a * r * (z^k b),
    a row with the same words that sorts first.  Rows are discovered by division: starting from the
    target's words, every decoration a * r * b whose support meets the
    working column set is generated (matching each relation word as a
    contiguous factor), and newly seen support words are processed in turn
    until the component closes.  Rows supported outside the closure cannot
    contribute to any combination hitting the target, so the restricted
    elimination decides exactly the same membership questions as the full
    spanning set.

    Columns are packed words: a ``Word`` becomes the int
    ``zexp * 2^SZ + len * 2^SL + letters`` when a relation or target comes
    in, and goes back to a ``Word`` only in certificate entries.  The
    letters fill ``slots`` fields of ``bits`` bits from the top down, where
    ``bits`` holds every letter code below 4n^2 and ``slots`` is the larger
    of the bound and the longest relation word; a longer word is refused.
    A letter is checked against the context when it is first coded, so
    ``GeneratorSym.key()`` is a total order on the letters a certifier
    sees, and its code is its rank in that order.  Shifts are arithmetic,
    so the int order of packed words is ``Word.key()`` order even for
    negative z-exponents, and sub-words, concatenations and comparisons
    are shifts, masks and int compares.

    Coefficients are unit exponents or raw values.  In an exact field a
    signed root of unity zeta_M^e, M = lcm(2, N), is held as the int e;
    every other value is the kernel's raw tuple (``Scalar.raw``), and only
    certificate entries wrap coefficients back in a ``Scalar``.  Products,
    inverses and negations of units are sums of exponents mod M, and
    p - x * y on units is one too when p is absent or cancels; everything
    else goes through the field's kernel, whose results are turned back
    into exponents when they are units.  Approx fields use raw values only.

    Determinism: columns are words in canonical order, frontier words and
    the rows found for each are processed in canonical order, and the
    pivot is always the first nonzero column.  Reduction takes that column
    from a heap of the vector's pivot words: the reduction word strictly
    increases, so a popped word that has already cancelled is skipped and
    a word is pushed only when it enters the vector with a pivot.

    The certifier runs in one thread; ``workers`` is accepted for
    compatibility and changes nothing.
    """

    def __init__(self, context: AlgebraContext, relations, degree_bound: int,
                 row_cap: int = DEFAULT_ROW_CAP, workers: int = 1):
        self.context = context
        self.relations = list(relations)
        self.degree_bound = degree_bound
        self.row_cap = row_cap
        self.capped = False
        kernel = self._kernel = context.field.kernel
        units = kernel.units
        # unit exponents mod M; M is None when every coefficient stays raw
        self._unit_raw, self._unit_index = units if units is not None else ((), {})
        self._modulus = len(self._unit_raw) or None
        self._half = len(self._unit_raw) // 2
        self._one = 0 if units is not None else kernel.one
        self._phases: dict[int, object] = {}  # e -> zeta^e as a coefficient

        # packing: letter fields, then the length and z-exponent fields
        self._bits = (4 * context.n ** 2 - 1).bit_length()
        self._slots = max([degree_bound] + [len(w) for r in self.relations for w in r.terms])
        self._sl = self._slots * self._bits
        self._sz = self._sl + self._slots.bit_length()
        # letter codes: GeneratorSym -> code, code -> letter, code -> zdeg
        self._codes: dict[GeneratorSym, int] = {}
        self._letters: dict[int, GeneratorSym] = {}
        self._zdeg: dict[int, int] = {}
        self._decoded: dict[int, Word] = {}
        self._word_zdegs: dict[int, int] = {}  # length and letters -> zdeg

        # one entry per orientation (a relation or its adjoint) up to a
        # nonzero scalar and a right power of z: (idx, star, longest word,
        # z-exponent range, terms), each term (word less its letters,
        # letters, length, zexp, coefficient, zdeg of the letters).  r * z^k
        # has r's coefficients on z-shifted words, so the key drops the first
        # word's z field and scales the first coefficient to 1
        base: list[tuple[int, bool, int, int, int, list[tuple]]] = []
        # word length k -> relation word letters -> (base index, zexp) of
        # each base term with those letters
        divisors: dict[int, dict[int, list[tuple[int, int]]]] = {}
        seen_keys = set()
        for idx, rel in enumerate(self.relations):
            for star in (False, True):
                elem = rel.adjoint() if star else rel
                terms = [(self._encode(w), c.raw) for w, c in elem.terms.items()]
                oriented = [self._oriented_term(w, raw) for w, raw in terms]
                terms.sort(key=lambda term: term[0])
                lengths = [self._length(w) for w, _ in terms]
                if not terms or max(lengths) > degree_bound:
                    continue
                zexps = [w >> self._sz for w, _ in terms]
                shift, inv = zexps[0] << self._sz, kernel.inverse(terms[0][1])
                key = tuple((w - shift, kernel.mul(inv, raw)) for w, raw in terms)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                for (w, _), k, zexp in zip(terms, lengths, zexps):
                    letters = self._letters_of(w) >> (self._slots - k) * self._bits
                    divisors.setdefault(k, {}).setdefault(letters, []).append((len(base), zexp))
                base.append((idx, star, max(lengths), min(zexps), max(zexps), oriented))
        self._base = base
        self._divisors = sorted(divisors.items())
        self._inverses: dict = {}  # raw pivot lead -> its raw inverse

        # pivots: word -> (vector, row_id, recipe, inverse lead); the recipe
        # records the pivot hits consumed while reducing the inserted row, so
        # full row combinations are resolved lazily per certificate
        self._pivots: dict[int, tuple[dict, int, dict, object]] = {}
        self._combo_cache: dict[int, dict[int, object]] = {}
        # decorations (base index, a, b), whose tuple order is (idx, star, a, b)
        self._decorations: list[tuple[int, int, int]] = []
        self._processed: set[int] = set()
        self._seen_rows: set[tuple] = set()

    # packed words ---------------------------------------------------------

    def _letter_code(self, letter: GeneratorSym) -> int:
        """The letter's code, checking the letter on first sight; codes follow
        ``GeneratorSym.key()``, which is a total order on checked letters."""
        code = self._codes.get(letter)
        if code is not None:
            return code
        self.context._check_letter(letter)
        n = self.context.n
        code = (_KIND_RANK[letter.kind] * n + letter.i) * n + letter.j
        self._codes[letter] = code
        self._letters[code] = letter
        self._zdeg[code] = self.context.zdeg(letter)
        return code

    def _encode(self, word: Word) -> int:
        length, bits = len(word.letters), self._bits
        if length > self._slots:
            raise ValueError(f"a word of {length} letters exceeds the certifier's "
                             f"{self._slots} letter slots")
        letters = 0
        for letter in word.letters:
            letters = letters << bits | self._letter_code(letter)
        return ((word.zexp << self._sz) + (length << self._sl)
                + (letters << (self._slots - length) * bits))

    def _length(self, w: int) -> int:
        return (w >> self._sl) & ((1 << self._sz - self._sl) - 1)

    def _letters_of(self, w: int) -> int:
        return w & ((1 << self._sl) - 1)

    def _codes_of(self, w: int):
        """The letter codes of a packed word, first to last."""
        bits, letters, mask = self._bits, self._letters_of(w), (1 << self._bits) - 1
        return [letters >> (self._slots - 1 - i) * bits & mask for i in range(self._length(w))]

    def _decode(self, w: int) -> Word:
        word = self._decoded.get(w)
        if word is None:
            word = self._decoded[w] = Word(w >> self._sz,
                                           tuple(map(self._letters.__getitem__, self._codes_of(w))))
        return word

    def _word_zdeg(self, w: int) -> int:
        key = w & (1 << self._sz) - 1
        zdeg = self._word_zdegs.get(key)
        if zdeg is None:
            zdeg = self._word_zdegs[key] = sum(map(self._zdeg.__getitem__, self._codes_of(w)))
        return zdeg

    def _oriented_term(self, w: int, raw) -> tuple:
        letters = self._letters_of(w)
        return (w - letters, letters, self._length(w), w >> self._sz, self._coeff(raw),
                self._word_zdeg(w))

    # coefficients: unit exponents or raw values ---------------------------

    def _coeff(self, raw):
        """A raw value as a coefficient: its exponent when it is a unit."""
        return self._unit_index.get(raw, raw)

    def _raw(self, c):
        return self._unit_raw[c] if type(c) is int else c

    def _mul(self, x, y):
        if type(x) is int and type(y) is int:
            return (x + y) % self._modulus
        return self._coeff(self._kernel.mul(self._raw(x), self._raw(y)))

    def _fms(self, p, x, y):
        """p - x * y, with None for an absent p and for a zero result."""
        if type(x) is int and type(y) is int:
            if p is None:
                return (x + y + self._half) % self._modulus
            if p == (x + y) % self._modulus:
                return None
        k = self._kernel
        new = k.fms(k.zero if p is None else self._raw(p), self._raw(x), self._raw(y))
        return None if k.is_zero(new) else self._coeff(new)

    def _inverse(self, c):
        if type(c) is int:
            return -c % self._modulus
        inv = self._inverses.get(c)
        if inv is None:
            # the inverse of a non-unit is no unit
            inv = self._inverses[c] = self._kernel.inverse(c)
        return inv

    # row discovery --------------------------------------------------------

    def _rows_touching(self, word: int) -> list[tuple[int, int, int]]:
        """All decorations (a, r, b) with a relation word of r dividing `word`
        whose row stays within the word-length and |zexp| bound."""
        D, bits, slots, sl, sz = self.degree_bound, self._bits, self._slots, self._sl, self._sz
        found = []
        zexp, length, letters = word >> sz, self._length(word), self._letters_of(word)
        base, seen = self._base, self._seen_rows
        for k, divisors in self._divisors:
            if k > length:
                break
            mask = (1 << k * bits) - 1
            for pos in range(length - k + 1):
                for bi, u_zexp in divisors.get(letters >> (slots - pos - k) * bits & mask, ()):
                    max_len, zexp_lo, zexp_hi = base[bi][2:5]
                    shift = zexp - u_zexp
                    # every decoration matching u pads r by length - k letters
                    # and shifts its z-exponents by `shift`
                    if (length - k + max_len > D
                            or shift + zexp_lo < -D or shift + zexp_hi > D):
                        continue
                    left = (pos << sl) + (letters >> (slots - pos) * bits << (slots - pos) * bits)
                    right = ((shift << sz) + (length - pos - k << sl)
                             + (letters << (pos + k) * bits & (1 << sl) - 1))
                    decoration = (bi, left, right)
                    if decoration not in seen:
                        seen.add(decoration)
                        found.append(decoration)
        found.sort()
        return found

    def _expand_row(self, decoration) -> dict[int, object]:
        """The terms of the decorated row a * r * b.

        With a = la z^p and b = lb z^s, each term c * lw z^q of r becomes
        c * zeta^e * la lw lb z^(p+q+s), e = -p*zdeg(lw) - (p+q)*zdeg(lb).
        Multiplying by a monomial is injective on words, so no two terms
        merge and no coefficient vanishes.
        """
        bi, left, right = decoration
        p, la_len, bits = left >> self._sz, self._length(left), self._bits
        lb = self._letters_of(right)
        right_zdeg = self._word_zdeg(right)
        # the z-exponent and length fields add; la's letters are in `left`
        outer = left + right - lb
        mul, phases = self._mul, self._phases
        row: dict[int, object] = {}
        for w_fields, lw, w_len, q, c, w_zdeg in self._base[bi][5]:
            e = -p * w_zdeg - (p + q) * right_zdeg
            if e:
                phase = phases.get(e)
                if phase is None:
                    phase = phases[e] = self._coeff(self.context.zeta_pow(e).raw)
                c = mul(c, phase)
            row[outer + w_fields + ((lw | lb >> w_len * bits) >> la_len * bits)] = c
        return row

    def _ensure_closure(self, seeds) -> None:
        """Generate every spanning row in the component of the seed words."""
        D = self.degree_bound
        processed = self._processed
        frontier = sorted({w for w in seeds if w not in processed
                           and self._length(w) <= D and abs(w >> self._sz) <= D})
        while frontier and not self.capped:
            discovered: set[int] = set()
            for word in frontier:
                if word in processed:
                    continue
                processed.add(word)
                for decoration in self._rows_touching(word):
                    row = self._expand_row(decoration)
                    if len(self._decorations) >= self.row_cap:
                        self.capped = True
                        return
                    row_id = len(self._decorations)
                    self._decorations.append(decoration)
                    discovered.update(row)
                    self._insert(row, row_id)
            frontier = sorted(discovered - processed)

    # elimination ---------------------------------------------------------

    def _reduce_vector(self, vec: dict[int, object]):
        """Canonical residual of a vector and the pivot hits consumed."""
        pivots, fms, is_zero = self._pivots, self._fms, self._kernel.is_zero
        modulus, half = self._modulus, self._half
        vec = {w: c for w, c in vec.items() if type(c) is int or not is_zero(c)}
        heap = [w for w in vec if w in pivots]
        heapq.heapify(heap)
        hits: dict[int, object] = {}
        while heap:
            word = heapq.heappop(heap)
            coeff = vec.get(word)
            if coeff is None:
                continue
            unit = type(coeff) is int
            for w, c in pivots[word][0].items():
                prev = vec.get(w)
                # _fms inlined for units: an absent entry or a cancellation
                if unit and type(c) is int:
                    if prev is None:
                        vec[w] = (coeff + c + half) % modulus
                        if w in pivots:
                            heapq.heappush(heap, w)
                        continue
                    if prev == (coeff + c) % modulus:
                        del vec[w]
                        continue
                new = fms(prev, coeff, c)
                if new is None:
                    vec.pop(w, None)
                else:
                    vec[w] = new
                    if prev is None and w in pivots:
                        heapq.heappush(heap, w)
            # the reduction word strictly increases, so each pivot is hit once
            # and hits are in canonical order
            hits[word] = coeff
        return vec, hits

    def _insert(self, vec: dict[int, object], row_id: int) -> None:
        residual, used = self._reduce_vector(vec)
        if not residual:
            return
        lead = min(residual)
        inv = self._inverse(residual[lead])
        mul = self._mul
        # pivot row = inv * (row_{row_id} - sum used[q] * pivot_q)
        self._pivots[lead] = ({w: mul(inv, c) for w, c in residual.items()}, row_id, used, inv)

    def _pivot_combo(self, word: int) -> dict[int, object]:
        """Resolve a pivot row as a combination of original decorated rows.

        Recipes always reference pivots inserted earlier, so the dependency
        graph is acyclic; an explicit post-order walk avoids recursion limits.
        """
        cached = self._combo_cache.get(word)
        if cached is not None:
            return cached
        stack: list[tuple[int, bool]] = [(word, False)]
        while stack:
            current, expanded = stack.pop()
            if current in self._combo_cache:
                continue
            recipe = self._pivots[current][2]
            if not expanded:
                stack.append((current, True))
                for dep in recipe:
                    if dep not in self._combo_cache:
                        stack.append((dep, False))
                continue
            _, row_id, used, inv = self._pivots[current]
            combo = {row_id: inv}
            for dep, coeff in used.items():
                self._subtract_scaled(combo, self._mul(inv, coeff), self._combo_cache[dep])
            self._combo_cache[current] = combo
        return self._combo_cache[word]

    def _combo_from_hits(self, hits: dict[int, object]) -> dict[int, object]:
        combo: dict[int, object] = {}
        for word, coeff in hits.items():
            # combo + coeff * c == combo - (-coeff) * c
            self._subtract_scaled(combo, self._fms(None, coeff, self._one),
                                  self._pivot_combo(word))
        return combo

    def _subtract_scaled(self, combo: dict, scale, other: dict) -> None:
        """combo -= scale * other, dropping the entries that cancel."""
        for rid, c in other.items():
            new = self._fms(combo.get(rid), scale, c)
            if new is None:
                combo.pop(rid, None)
            else:
                combo[rid] = new

    # public reduction ----------------------------------------------------

    def _entries_from_combo(self, combo: dict[int, object], leg: int,
                            other: Word | None) -> list[CertEntry]:
        entries = []
        for rid in sorted(combo):
            bi, left, right = self._decorations[rid]
            idx, star = self._base[bi][:2]
            entries.append(CertEntry(leg=leg, left=self._decode(left), rel_index=idx,
                                     star=star, right=self._decode(right), other=other,
                                     coeff=Scalar(self.context.field, self._raw(combo[rid]))))
        return entries

    def _verdict(self, residual, target_words, reductions) -> MembershipCertificate:
        """The certificate of a target whose reduction left the packed words
        ``residual``.  An empty residual is in_ideal, even under a capped
        closure, since the combination replays; the (hits, leg, other) of each
        reduction become its entries.  Otherwise a capped closure leaves the
        target undecided.  A target or residual on the empty word alone makes
        the target a nonzero constant modulo the truncated span, which is an
        obstruction when the counit witnesses that 1 is not in the ideal, and
        undecided without that witness."""
        if not residual:
            entries = [entry for hits, leg, other in reductions
                       for entry in self._entries_from_combo(self._combo_from_hits(hits),
                                                             leg, other)]
            return MembershipCertificate("in_ideal", self.degree_bound, tuple(entries))
        if self.capped:
            return MembershipCertificate("undecided_at_bound", self.degree_bound)
        # the empty word packs to 0
        constant = (all(w.is_identity() for w in target_words)
                    or all(w == 0 for w in residual))
        obstructed = constant and self._counit_kills_relations()
        verdict = "nonzero_constant_obstruction" if obstructed else "undecided_at_bound"
        return MembershipCertificate(verdict, self.degree_bound)

    def _counit_kills_relations(self) -> bool:
        """Whether the counit, eps(u_ij) = eps(u*_ij) = eps(t_ij) = eps(t*_ij)
        = delta_ij and eps(z) = 1, sends every relation to 0.  It is then a
        character that vanishes on the ideal and is 1 on 1, so 1 is not in the
        ideal.  A normal-form word counts 1 when all its letters are diagonal,
        and 0 otherwise: z commutes with diagonal letters (phase zeta^0), so
        this respects the z-rule."""
        zero = self.context.field.zero()
        return all(sum((c for w, c in rel.terms.items() if all(g.i == g.j for g in w.letters)),
                       zero).is_zero() for rel in self.relations)

    def certify_element(self, element: AlgebraElement) -> MembershipCertificate:
        vec = {self._encode(w): self._coeff(c.raw) for w, c in element.terms.items()}
        self._ensure_closure(vec)
        residual, hits = self._reduce_vector(vec)
        return self._verdict(residual, element.terms, [(hits, 0, None)])

    def certify_tensor(self, target: TensorElement) -> MembershipCertificate:
        if target.legs != 2:
            raise ValueError("tensor certification is for 2-leg targets")
        encoded = {w: self._encode(w) for ws in target.terms for w in ws}
        self._ensure_closure(encoded.values())
        reductions = []

        # leg 1 is reduced over each leg-2 monomial, then leg 2 over each
        # leg-1 monomial of what is left
        final = {(encoded[w1], encoded[w2]): self._coeff(c.raw)
                 for (w1, w2), c in target.terms.items()}
        for leg in (1, 2):
            by_other: dict[int, dict[int, object]] = {}
            for pair, c in final.items():
                by_other.setdefault(pair[2 - leg], {})[pair[leg - 1]] = c
            final = {}
            for other in sorted(by_other):
                residual, hits = self._reduce_vector(by_other[other])
                reductions.append((hits, leg, self._decode(other)))
                for w, c in residual.items():
                    final[(w, other) if leg == 1 else (other, w)] = c
        return self._verdict([w for pair in final for w in pair],
                             [w for ws in target.terms for w in ws], reductions)
