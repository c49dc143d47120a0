"""Lex-leader symmetry breakers: Shatter chains, their projection,
augmentation and verification.

For admissible signed permutations ``g`` of a prefix, the existential
lex-leader breaker keeps, from every semantic orbit of existential
strategies, the ones that play lexicographically minimal assignments.  It
is written once, as one clause chain per group element in the linear shape
of Shatter (Aloul, Sakallah & Markov, IEEE TC 2006).  Chain positions are
the variables ``x_0..x_{m-1}`` that ``g`` moves, in prefix order.  Once
the rest of a signed cycle ties, its last member always ties if the
cycle's sign product is +1, so it is no position, and never ties if it is
-1, so the chain ends there (a flip ``g(x) = ~x`` is the smallest case).
The cycles and their sign products are read off ``g.cycles``.
The chain variable ``y_j`` means "the play agrees with its image on
x_0..x_{j-1}"; ``y_0`` always holds and is left out.  Implication clauses
``(~y_j | ~x_j | g(x_j))`` enforce the breaker at existential positions,
and per-position pairs define ``y_{j+1}``, recycling the implication at
existential positions and testing equality at universal ones.  The chain
stops at the last existential position L.  Only the goal at L reads
``y_L``, which is resolved away (Een & Biere, SAT 2005): that goal is
written once per pair clause of position L - 1, tautologies left out, so
L positions before the last goal take L - 1 chain variables.  A swap's
chain is the one clause ``(~v | w)``, a flip's the unit ``~v``.
Duplicates are dropped.  The universal breaker is the existential one of
the flipped prefix, negated clause by clause into cubes.

The formula breaker psi is the chain's projection onto the prefix,
``project_chain``; for the existential breaker it is

    psi = AND over existential positions i, AND over g:
          (AND_{j<i} (x_j <-> g(x_j)))  ->  (x_i -> g(x_i))
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, ValidationError
from .formulas import (
    And,
    Formula,
    Or,
    clauses_to_formula,
    conj,
    cubes_to_formula,
    disj,
    neg,
)
from .groups import CLOSURE_CAP, PLAY_VAR_CAP, SignedPermutation, admissible_generators
from .qdimacs import EXISTS, FORALL, Prefix, QbfInstance, normalize_clause
from .strategies import ENUMERATION_CAP, check_enumeration_cap, orbit_classes, prefix_table

# per augment mode: the polarities of the encodings it takes, and how to say so
_MODE_ENCODINGS = {
    "conjoin-cnf": ((EXISTS,), "an existential encoding"),
    "attach-dnf": ((FORALL,), "a universal encoding"),
    "combined": ((EXISTS, FORALL), "a pair of encodings (existential, universal)"),
}
AUGMENT_MODES = tuple(_MODE_ENCODINGS)


def _checked_generators(prefix: Prefix, generators) -> tuple[SignedPermutation, ...]:
    gens = tuple(generators)
    if not all(isinstance(g, SignedPermutation) for g in gens):
        raise ValidationError("breakers need signed permutations, whose images are literals")
    return admissible_generators(prefix, gens)


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
class EncodedBreaker:
    """Clausal (or cube-level) Tseitin encoding of a lex-leader breaker.

    ``terms`` are clauses when ``polarity`` is existential and cubes when
    universal.  ``aux_slots`` records, for every fresh chain variable,
    the original-prefix block index after which it is quantified.
    """

    polarity: str
    terms: tuple[tuple[int, ...], ...]
    aux_slots: tuple[tuple[int, int], ...]
    original_prefix: Prefix

    @cached_property
    def prefix(self) -> Prefix:
        """The original prefix with the chain variables inserted."""
        slot_items = ((a, s, self.polarity) for a, s in self.aux_slots)
        return _extended_prefix(self.original_prefix, slot_items)

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


def _ties(v: int, w: int, exists: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two pair bodies by which a tie at position v defines the next
    chain variable: the implication's literals recycled at an existential v,
    equality with its image w at a universal one.  A flip, w = ~v, ends its
    chain and never ties, so neither pair is a tautology."""
    return ((-v,), (w,)) if exists else (normalize_clause((-v, -w)), normalize_clause((v, w)))


def _chain_for_generator(
    prefix: Prefix, g: SignedPermutation, next_aux: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """The clause chain for one generator, and its [(aux, slot)]: the
    last member of a signed cycle is skipped if the sign product is +1
    and ends the chain if it is -1; the chain stops at the last
    existential position L, and is empty without one; the goal at L is
    written once per pair defining y_L, in place of ~y_L, unless that is
    a tautology.
    """
    quantifier, position = prefix.quantifier_of, prefix._position.__getitem__
    closing = {max(map(abs, c), key=position): sign for c, sign in g.cycles}
    moved = []
    for v, w in sorted(g.moved, key=lambda pair: position(pair[0])):
        sign = closing.get(v)
        if sign == 1:
            continue  # ties whenever the rest of its cycle does
        moved.append((v, w, quantifier(v) == EXISTS))
        if sign == -1:
            break  # never ties once the rest of its cycle does
    ranks = [r for r, (_, _, exists) in enumerate(moved) if exists]
    if not ranks:
        return [], []
    last = ranks.pop()
    v, w, _ = moved[last]
    if not last:
        return [normalize_clause((-v, w))], []
    # y_r for 0 < r < last; y_0 always holds and is left out.  Chain
    # variables are numbered past the prefix, so a sorted clause lists its
    # prefix literals first and its chain literals in increasing order
    aux = range(next_aux, next_aux + last - 1)
    guard = [(), *((-y,) for y in aux)]  # ~y_r, and nothing for y_0
    clauses = [(*normalize_clause((-moved[r][0], moved[r][1])), *guard[r]) for r in ranks]
    for r in range(1, last):
        clauses += [(*lits, *guard[r - 1], aux[r - 1]) for lits in _ties(*moved[r - 1])]
    for lits in _ties(*moved[last - 1]):
        body = normalize_clause((-v, w, *lits))
        if body is not None:
            clauses.append((*body, *guard[last - 1]))
    # y_r is quantified after the block of the position before it
    return clauses, [(y, prefix.block_index_of(v)) for y, (v, _, _) in zip(aux, moved)]


def _extended_prefix(prefix: Prefix, slot_items) -> Prefix:
    """Insert aux variables after their slots.
    ``slot_items`` is an iterable of (aux, slot, quantifier)."""
    per_slot: dict[int, list[tuple[str, tuple[int]]]] = defaultdict(list)
    for aux, slot, q in sorted(slot_items):
        per_slot[slot].append((q, (aux,)))
    pairs = []
    for bi, block in enumerate(prefix.blocks):
        pairs += [(block.quantifier, block.variables), *per_slot[bi]]
    return Prefix.from_pairs(pairs)


def _fresh_start(prefix: Prefix, start_var: int | None) -> int:
    top = max(prefix.variables, default=0)
    if start_var is None:
        return top + 1
    if start_var <= top:
        raise ValidationError(f"start_var {start_var} collides with prefix variables (max {top})")
    return start_var


def _encode(
    prefix: Prefix, gens: tuple[SignedPermutation, ...], start_var: int | None, polarity: str
) -> EncodedBreaker:
    """The chains of the checked generators ``gens``."""
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
    return EncodedBreaker(polarity, tuple(dict.fromkeys(terms)), tuple(slots), prefix)


def encode_existential_cnf(
    prefix: Prefix, generators, start_var: int | None = None
) -> EncodedBreaker:
    """Encode the existential lex-leader breaker as clauses.

    Fresh chain variables are numbered from ``start_var`` (default: one
    past the largest prefix variable), generator by generator, and are
    quantified existentially right after the block of the position they guard.
    """
    return _encode(prefix, _checked_generators(prefix, generators), start_var, EXISTS)


def encode_universal_dnf(
    prefix: Prefix, generators, start_var: int | None = None
) -> EncodedBreaker:
    """Encode the universal lex-leader breaker as cubes: the existential
    encoding for the flipped prefix, negated clause by clause, with the
    chain variables quantified universally at the same points."""
    return _encode(prefix, _checked_generators(prefix, generators), start_var, FORALL)


def encode_both(prefix: Prefix, generators) -> tuple[EncodedBreaker, EncodedBreaker]:
    """Encode both breakers, the universal chain numbered after the
    existential one, so that ``augment_instance``'s ``combined`` mode can
    put them on one prefix."""
    gens = _checked_generators(prefix, generators)
    enc_e = _encode(prefix, gens, None, EXISTS)
    top = max((*prefix.variables, *enc_e.aux_vars), default=0)
    return enc_e, _encode(prefix, gens, top + 1, FORALL)


@dataclass(frozen=True)
class BreakerFormula:
    """A breaker's projection onto its original prefix, with its polarity."""

    polarity: str
    formula: Formula

    def __post_init__(self):
        if self.polarity not in (EXISTS, FORALL):
            raise ValidationError(f"bad polarity {self.polarity!r}")


def project_chain(clauses, chain) -> Formula:
    """Exists-``chain`` of a clause list, as a formula over its other variables.

    The clauses must be Horn in the chain variables, listed in definition
    order: a clause whose one positive chain literal is ``y`` defines ``y``
    from chain variables before it, and a clause without one is a goal.
    The least value of each chain variable, the disjunction of its bodies,
    decides the goals.  Any other shape raises ``ValidationError``.
    """
    rank = {y: k for k, y in enumerate(chain)}
    # per chain variable, and for the goals: the clauses' other literals,
    # grouped by the chain variables they read
    definitions: list[dict[tuple[int, ...], list[tuple[int, ...]]]] = [{} for _ in rank]
    goals: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for clause in clauses:
        heads, reads, rest = [], [], []
        for l in clause:
            if l in rank:
                heads.append(rank[l])
            elif -l in rank:
                reads.append(rank[-l])
            else:
                rest.append(l)
        reads.sort()
        if len(heads) > 1:
            raise ValidationError(f"clause {clause} has {len(heads)} positive chain literals")
        if heads and reads and reads[-1] >= heads[0]:
            raise ValidationError(f"clause {clause} defines a chain variable from a later one")
        group = definitions[heads[0]] if heads else goals
        group.setdefault(tuple(reads), []).append(tuple(rest))

    least: list[Formula] = []
    for bodies in definitions:
        # a body holds when its reads do and its other literals are false;
        # every body of y_k reads y_{k-1}, and factoring shared reads out keeps
        # the least values one chain, not a tree exponential in k
        shared = set.intersection(*map(set, bodies)) if bodies else set()
        cases = (
            conj((*(least[j] for j in reads if j not in shared), neg(clauses_to_formula(rests))))
            for reads, rests in bodies.items()
        )
        least.append(conj((*(least[j] for j in sorted(shared)), disj(cases))))
    return conj(
        disj((neg(conj([least[j] for j in reads])), clauses_to_formula(rests)))
        for reads, rests in goals.items()
    )


def breaker_formula(encoded: EncodedBreaker) -> BreakerFormula:
    """The formula breaker of an encoding: the projection of its clauses,
    or the negated projection of its negated cubes."""
    if encoded.polarity == EXISTS:
        return BreakerFormula(EXISTS, project_chain(encoded.terms, encoded.aux_vars))
    negated = (tuple(-l for l in cube) for cube in encoded.terms)
    return BreakerFormula(FORALL, neg(project_chain(negated, encoded.aux_vars)))


def lex_leader_formula(prefix: Prefix, generators) -> BreakerFormula:
    """The existential breaker: ``encode_existential_cnf``'s projection.
    An empty generator list yields the constant-true breaker."""
    return breaker_formula(encode_existential_cnf(prefix, generators))


def universal_lex_leader_formula(prefix: Prefix, generators) -> BreakerFormula:
    """The universal breaker: ``encode_universal_dnf``'s projection, the
    negated existential breaker of the flipped prefix."""
    return breaker_formula(encode_universal_dnf(prefix, generators))


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
    generators, signed permutations or formula maps, must be admissible:
    ``orbit_classes`` checks them, and raises ``ValidationError``.
    ``psi`` is read once, as its ``prefix_table`` over the plays.  The
    orbits are the classes of the two families ``orbit_classes`` builds,
    all and covered: the breaker passes when the two are one node.  ``cap``
    bounds the player's strategy count, as in ``semantic_orbits``.  A prefix
    of more than ``PLAY_VAR_CAP`` variables raises ``CapExceededError`` at
    any ``cap``, before a table over its 2**n plays is built.
    """
    formula, pol = (psi.formula, psi.polarity) if isinstance(psi, BreakerFormula) else (psi, EXISTS)
    target = pol == EXISTS
    # a polarity is the role it checks: EXISTENTIAL is EXISTS, UNIVERSAL FORALL
    check_enumeration_cap(prefix, pol, cap)
    # the opponent's variables add plays but no strategies
    n = prefix.n
    if n > PLAY_VAR_CAP:
        raise CapExceededError(f"2**{n} plays exceed the play bound 2**{PLAY_VAR_CAP}")
    table = prefix_table(formula, prefix.variables)
    kept_plays = table if target else table ^ ((1 << 2**n) - 1)
    zdd, classes, covered, kept, leasts = orbit_classes(prefix, generators, pol, kept_plays)

    def plays(c: int) -> tuple[tuple[bool, ...], ...]:
        out = []
        while c:  # lowest ordinal first: ordinals rise with the least plays
            least = leasts[(c & -c).bit_length() - 1]
            out.append(tuple(bool(least >> i & 1) for i in reversed(range(n))))
            c &= c - 1
        return tuple(out)

    uncovered = tuple(sorted(map(plays, zdd.sets(classes, without=covered))))
    counts = zdd.count(classes), zdd.count(covered)
    return BreakerReport(classes == covered, pol, *counts, uncovered, kept)
