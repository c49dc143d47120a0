"""Lex-leader symmetry breakers and their CNF/DNF Tseitin encodings.

Given admissible signed permutations ``g`` of a prefix, the existential
lex-leader breaker is

    psi = AND over existential positions i, AND over g:
          (AND_{j<i} (x_j <-> g(x_j)))  ->  (x_i -> g(x_i))

which keeps, from every semantic orbit of existential strategies, the
ones that play lexicographically minimal assignments.  Its pieces are
clauses: a guard x_j <-> g(x_j) is the two-clause ``Cnf`` (~x_j | g(x_j))
& (x_j | ~g(x_j)), a consequent x_i -> g(x_i) the one clause (~x_i |
g(x_i)), and each term is ``~(AND guards) | consequent``.  The universal
breaker is the negation of the existential breaker built for the flipped
prefix.

The clausal encoding introduces a chain of fresh variables ``y_0..y_k``
per generator ``g``, in the linear shape of Shatter (Aloul, Sakallah &
Markov, IEEE TC 2006).  Chain positions are the variables
``x_0..x_{m-1}`` that ``g`` moves, in prefix order; a fixed position has
a trivially true equality guard, exactly as in the formula breaker.
``y_j`` means "the play agrees with its image on x_0..x_{j-1}": a unit
clause asserts ``y_0``, implication clauses ``(~y_j | ~x_j | g(x_j))``
enforce the breaker at existential positions, and per-position pairs
extend the chain, either recycling the implication (existential
positions) or testing equality directly (universal positions).  The
chain stops at the last existential position, and tautologies and
duplicates are dropped.  The universal encoding is the existential one
built for the flipped prefix with every clause negated into a cube.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, ValidationError
from .formulas import (
    And,
    Cnf,
    Formula,
    Not,
    Or,
    clauses_to_formula,
    conj,
    cubes_to_formula,
    disj,
    neg,
    truth_table,
)
from .groups import CLOSURE_CAP, SignedPermutation, check_admissible
from .qdimacs import EXISTS, FORALL, Prefix, QbfInstance, normalize_clause
from .strategies import ENUMERATION_CAP, cap_bits, check_enumeration_cap, orbit_classes

# per augment mode: the polarities of the encodings it takes, and how to say so
_MODE_ENCODINGS = {
    "conjoin-cnf": ((EXISTS,), "an existential encoding"),
    "attach-dnf": ((FORALL,), "a universal encoding"),
    "combined": ((EXISTS, FORALL), "a pair of encodings (existential, universal)"),
}
AUGMENT_MODES = tuple(_MODE_ENCODINGS)


def _checked_generators(prefix: Prefix, generators) -> tuple[SignedPermutation, ...]:
    out: list[SignedPermutation] = []
    for g in generators:
        if not isinstance(g, SignedPermutation):
            raise ValidationError(
                "breakers require signed permutations; generator images must be literals"
            )
        report = check_admissible(g, prefix)
        if not report.ok:
            raise ValidationError(
                "inadmissible generator: " + "; ".join(m for _, m in report.violations)
            )
        out.append(g)
    return tuple(dict.fromkeys(out))


def select_group_elements(
    generators, product_length: int = 1
) -> tuple[SignedPermutation, ...]:
    """Pick the group elements to instantiate in a breaker.

    With ``product_length=1`` (the default) these are the given
    generators themselves, deduplicated and with identities dropped.
    Larger values add all distinct products of up to that many
    generators, in breadth-first word order; more than ``CLOSURE_CAP``
    distinct elements raise ``CapExceededError``.
    """
    if product_length < 1:
        raise ValidationError("product_length must be at least 1")
    gens = tuple(dict.fromkeys(generators))
    if len({g.domain for g in gens}) > 1:
        raise ValidationError("generators act on different variable sets")
    words = dict.fromkeys(gens)  # every distinct element, in breadth-first order
    level, length = gens, 1
    while level and length < product_length:
        fresh = []
        for word in level:
            for g in gens:
                prod = word.compose(g)
                if prod not in words:
                    if len(words) >= CLOSURE_CAP:
                        raise CapExceededError(f"product closure exceeds cap {CLOSURE_CAP}")
                    words[prod] = None
                    fresh.append(prod)
        level, length = fresh, length + 1
    return tuple(w for w in words if not w.is_identity)


@dataclass(frozen=True)
class BreakerFormula:
    """A lex-leader breaker at the formula level.

    ``parts`` holds one conjunct per instantiated group element; the
    universal variant stores the conjuncts built for the flipped prefix
    and realizes their negation.
    """

    polarity: str
    parts: tuple[Formula, ...]
    generators: tuple[SignedPermutation, ...]

    def __post_init__(self):
        if self.polarity not in (EXISTS, FORALL):
            raise ValidationError(f"bad polarity {self.polarity!r}")

    @cached_property
    def formula(self) -> Formula:
        core = conj(self.parts)
        return core if self.polarity == EXISTS else Not(core)


def _element_conjunct(prefix: Prefix, g: SignedPermutation) -> Formula:
    terms: list[Formula] = []
    guards: list[Formula] = []
    for v in prefix.variables:
        image = g.image(v)
        if image == v:
            continue
        if prefix.quantifier_of(v) == EXISTS:
            consequent = Cnf(((-v, image),))
            terms.append(disj((neg(conj(guards)), consequent)))
        guards.append(Cnf(((-v, image), (v, -image))))
    return conj(terms)


def lex_leader_formula(prefix: Prefix, generators) -> BreakerFormula:
    """Build the existential lex-leader breaker for the given generators.

    One conjunct per distinct non-identity generator (pass the output of
    :func:`select_group_elements` to break with generator products too);
    conjuncts exist only for existential positions, while the equality
    guards range over all earlier positions.  Equality guards and
    implications whose image equals the variable are trivially true and
    omitted.  An empty selection yields the constant-true breaker.
    """
    elements = select_group_elements(_checked_generators(prefix, generators))
    parts = tuple(_element_conjunct(prefix, g) for g in elements)
    return BreakerFormula(EXISTS, parts, elements)


def universal_lex_leader_formula(prefix: Prefix, generators) -> BreakerFormula:
    """Build the universal breaker: the negated existential breaker of
    the flipped prefix."""
    base = lex_leader_formula(prefix.flipped(), generators)
    return BreakerFormula(FORALL, base.parts, base.generators)


@dataclass(frozen=True)
class EncodedBreaker:
    """Clausal (or cube-level) Tseitin encoding of a lex-leader breaker.

    ``terms`` are clauses when ``polarity`` is existential and cubes when
    universal.  ``aux_slots`` records, for every fresh chain variable,
    the original-prefix block index after which it is quantified (-1
    puts it in front of the first block).  ``prefix`` is the extended
    prefix with the chain variables inserted.
    """

    polarity: str
    terms: tuple[tuple[int, ...], ...]
    aux_slots: tuple[tuple[int, int], ...]
    prefix: Prefix
    original_prefix: Prefix
    generators: tuple[SignedPermutation, ...]

    @property
    def aux_vars(self) -> tuple[int, ...]:
        return tuple(aux for aux, _ in self.aux_slots)

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        if self.polarity != EXISTS:
            raise ValidationError("universal encodings carry cubes, not clauses")
        return self.terms

    @property
    def cubes(self) -> tuple[tuple[int, ...], ...]:
        if self.polarity != FORALL:
            raise ValidationError("existential encodings carry clauses, not cubes")
        return self.terms


def _chain_for_generator(
    prefix: Prefix, g: SignedPermutation, next_aux: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Emit the clause chain for one generator.

    Returns (clauses, [(aux, slot)]).  Chain positions are the variables
    ``g`` moves, in prefix order; a fixed position would only copy the
    previous chain variable into the next.  Nothing is emitted when ``g``
    moves no existential variable, and the chain stops at the last moved
    existential, so unused chain variables are never created.
    """
    positions = [v for v in prefix.variables if g.image(v) != v]
    implication_ranks = [
        rank for rank, v in enumerate(positions) if prefix.quantifier_of(v) == EXISTS
    ]
    if not implication_ranks:
        return [], []
    last = implication_ranks[-1]
    aux = [next_aux + k for k in range(last + 1)]

    clauses: list[tuple[int, ...]] = [(aux[0],)]
    for rank in implication_ranks:
        v = positions[rank]
        clause = normalize_clause((-aux[rank], -v, g.image(v)))
        assert clause is not None
        clauses.append(clause)
    for rank in range(1, last + 1):
        v = positions[rank - 1]
        image = g.image(v)
        y_prev, y_cur = aux[rank - 1], aux[rank]
        if prefix.quantifier_of(v) == EXISTS:
            pair = ((y_cur, -y_prev, -v), (y_cur, -y_prev, image))
        else:
            pair = ((y_cur, -y_prev, -v, -image), (y_cur, -y_prev, v, image))
        for raw in pair:
            clause = normalize_clause(raw)
            if clause is not None:
                clauses.append(clause)

    # y_rank is quantified after the block of the position before it
    slots = [(y, prefix.block_index_of(v)) for y, v in zip(aux[1:], positions)]
    return clauses, [(aux[0], -1), *slots]


def _extended_prefix(prefix: Prefix, slot_items) -> Prefix:
    """Insert aux variables after their slots; -1 means before everything.

    ``slot_items`` is an iterable of (aux, slot, quantifier).
    """
    per_slot: dict[int, list[tuple[int, str]]] = defaultdict(list)
    for aux, slot, q in slot_items:
        per_slot[slot].append((aux, q))
    for items in per_slot.values():
        items.sort()
    pairs: list[tuple[str, tuple[int, ...]]] = []
    for aux, q in per_slot.get(-1, ()):
        pairs.append((q, (aux,)))
    for bi, block in enumerate(prefix.blocks):
        pairs.append((block.quantifier, block.variables))
        for aux, q in per_slot.get(bi, ()):
            pairs.append((q, (aux,)))
    return Prefix.from_pairs(pairs)


def _fresh_start(prefix: Prefix, start_var: int | None) -> int:
    top = max(prefix.variables, default=0)
    if start_var is None:
        return top + 1
    if start_var <= top:
        raise ValidationError(
            f"start_var {start_var} collides with prefix variables (max {top})"
        )
    return start_var


def _encode(
    prefix: Prefix, generators, start_var: int | None, polarity: str
) -> EncodedBreaker:
    gens = _checked_generators(prefix, generators)
    chain_prefix = prefix if polarity == EXISTS else prefix.flipped()
    next_aux = _fresh_start(prefix, start_var)
    terms: list[tuple[int, ...]] = []
    slots: list[tuple[int, int]] = []
    for g in gens:
        clauses, gslots = _chain_for_generator(chain_prefix, g, next_aux)
        if polarity == FORALL:
            clauses = [tuple(-lit for lit in clause) for clause in clauses]
        terms.extend(clauses)
        slots.extend(gslots)
        next_aux += len(gslots)
    extended = _extended_prefix(prefix, ((a, s, polarity) for a, s in slots))
    return EncodedBreaker(
        polarity, tuple(dict.fromkeys(terms)), tuple(slots), extended, prefix, gens
    )


def encode_existential_cnf(
    prefix: Prefix, generators, start_var: int | None = None
) -> EncodedBreaker:
    """Encode the existential lex-leader breaker as clauses.

    Fresh chain variables are allocated sequentially from ``start_var``
    (default: one past the largest prefix variable), per generator, and
    quantified existentially right after the block of the position they
    guard.
    """
    return _encode(prefix, generators, start_var, EXISTS)


def encode_universal_dnf(
    prefix: Prefix, generators, start_var: int | None = None
) -> EncodedBreaker:
    """Encode the universal lex-leader breaker as cubes.

    Structurally this is the existential encoding for the flipped
    prefix, negated clause by clause; the chain variables are quantified
    universally at the same insertion points of the original prefix.
    """
    return _encode(prefix, generators, start_var, FORALL)


def encode_both(prefix: Prefix, generators) -> tuple[EncodedBreaker, EncodedBreaker]:
    """Encode both breakers, the universal chain numbered after the
    existential one, so that ``augment_instance``'s ``combined`` mode can
    put them on one prefix."""
    enc_e = encode_existential_cnf(prefix, generators)
    top = max((*prefix.variables, *enc_e.aux_vars), default=0)
    return enc_e, encode_universal_dnf(prefix, generators, start_var=top + 1)


def _merged_prefix(instance: QbfInstance, *encodings: EncodedBreaker) -> Prefix:
    """The instance prefix with the chain variables of every encoding
    inserted, each quantified by its encoding's polarity; for a single
    encoding this is its own ``prefix``."""
    slot_items: list[tuple[int, int, str]] = []
    taken: set[int] = set()
    for encoded in encodings:
        if encoded.original_prefix != instance.prefix:
            raise ValidationError("encoding was built for a different prefix")
        overlap = taken.intersection(encoded.aux_vars)
        if overlap:
            raise ValidationError(f"encodings share chain variables {sorted(overlap)}")
        taken.update(encoded.aux_vars)
        slot_items += [(a, s, encoded.polarity) for a, s in encoded.aux_slots]
    return _extended_prefix(instance.prefix, slot_items)


def augment_instance(
    instance: QbfInstance, encoded, mode: str = "conjoin-cnf"
) -> tuple[QbfInstance, tuple[Prefix, tuple[tuple[int, ...], ...]] | None]:
    """Attach an encoded breaker to an instance.

    ``conjoin-cnf`` appends the clauses of an existential encoding and
    extends the prefix; the sidecar slot of the result is None.
    ``attach-dnf`` extends the prefix with the universal chain variables
    and returns the cube list as a DNF sidecar ``(prefix, cubes)``.
    ``combined`` does both at once given a pair of encodings with
    disjoint chain variables; the returned instance and sidecar share
    one merged prefix.
    """
    if mode not in AUGMENT_MODES:
        raise ValidationError(f"unknown augment mode {mode!r}; pick one of {AUGMENT_MODES}")
    polarities, needs = _MODE_ENCODINGS[mode]
    paired = len(polarities) > 1 and isinstance(encoded, (tuple, list))
    encodings = tuple(encoded) if paired else (encoded,)
    given = sorted(e.polarity if isinstance(e, EncodedBreaker) else "" for e in encodings)
    if given != sorted(polarities):
        raise ValidationError(f"{mode} needs {needs}")
    merged = _merged_prefix(instance, *encodings)
    terms = {e.polarity: e.terms for e in encodings}
    out = QbfInstance(merged, instance.clauses + terms.get(EXISTS, ()), instance.comments)
    return out, ((merged, terms[FORALL]) if FORALL in terms else None)


def augmented_formula(
    instance: QbfInstance,
    existential: EncodedBreaker | None = None,
    universal: EncodedBreaker | None = None,
) -> tuple[Prefix, Formula]:
    """Express an augmentation as a prefix and one matrix formula.

    Produces ``((phi | cubes) & clauses)`` over the extended prefix, for
    feeding the brute-force truth oracle; either encoding may be absent.
    """
    phi = instance.to_formula()
    if universal is not None:
        phi = Or((phi, cubes_to_formula(universal.cubes)))
    if existential is not None:
        phi = And((phi, clauses_to_formula(existential.clauses)))
    present = [e for e in (existential, universal) if e is not None]
    return _merged_prefix(instance, *present), phi


@dataclass(frozen=True)
class BreakerReport:
    """Outcome of an orbit-coverage verification.

    ``uncovered`` lists the orbits without a kept strategy, each as the
    sorted plays that represent its class, the least play of each play
    orbit in it (see ``orbit_classes``) as a value tuple in prefix order,
    in sorted order.  ``kept`` counts the strategies the breaker keeps over
    all orbits: the smaller, the stronger the breaker.
    """

    ok: bool
    polarity: str
    orbit_count: int
    covered: int
    uncovered: tuple[tuple[tuple[bool, ...], ...], ...]
    kept: int

    def __bool__(self) -> bool:
        return self.ok


def verify_breaker(
    prefix: Prefix, generators, psi, cap: int = ENUMERATION_CAP
) -> BreakerReport:
    """Check that ``psi`` breaks symmetry without losing any orbit.

    For an existential breaker, every semantic orbit of existential
    strategies under the generated group must contain a strategy on
    whose plays ``psi`` always holds; the universal dual asks for a
    universal strategy on whose plays ``psi`` never holds.  ``psi`` may
    be a :class:`BreakerFormula` (the polarity is taken from it) or a
    plain formula, which is checked as an existential breaker.  The
    orbits come from ``orbit_classes``, on one ``truth_table`` of ``psi``
    over the plays; ``cap`` bounds the player's strategy count, as in
    ``semantic_orbits``, and the plays.
    """
    if isinstance(psi, BreakerFormula):
        formula, pol = psi.formula, psi.polarity
    else:
        formula, pol = psi, EXISTS
    target = pol == EXISTS
    # a polarity is the role it checks: EXISTENTIAL is EXISTS, UNIVERSAL FORALL
    check_enumeration_cap(prefix, pol, cap)
    # the opponent's variables add plays but no strategies
    if prefix.n >= cap_bits(cap):
        raise CapExceededError(f"2**{prefix.n} plays exceed enumeration cap {cap}")
    n = prefix.n
    table = truth_table(formula, prefix.variables)
    kept_plays = table if target else table ^ ((1 << 2**n) - 1)
    classes, leasts = orbit_classes(prefix, generators, pol, kept_plays)

    def plays(c: int) -> tuple[tuple[bool, ...], ...]:
        # ordinals rise with the least plays, so the plays come out sorted
        ordinals = (o for o, d in enumerate(reversed(f"{c:b}")) if d == "1")
        return tuple(
            tuple(bool(leasts[o] >> i & 1) for i in reversed(range(n))) for o in ordinals
        )

    uncovered = tuple(sorted(plays(c) for c, (_, k) in classes.items() if not k))
    kept = sum(k for _, k in classes.values())
    covered = len(classes) - len(uncovered)
    return BreakerReport(not uncovered, pol, len(classes), covered, uncovered, kept)
