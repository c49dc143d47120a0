"""Admissible maps, signed permutations, group closure, orbit computation.

Two representations coexist. SignedPermutation maps each variable to a
literal (a variable with a sign) and is what detection and breaking use,
since substituting literals into clauses keeps them clauses. It stores only
the variables it moves, as saucy does (Darga, Liffiton, Sakallah & Markov,
DAC 2004), and everything here, the symmetry check included, works from
them. AdmissibleMap maps variables to formulas, such as y -> x xor y,
admissible but not literal-shaped. Both compile their action on the plays
into a ``play_table``, read by the admissibility check and ``strategies``.
A signed permutation's ``cycles`` walks its signed cycles once, for cycle
notation and the lex-leader chains.

Admissibility means two things: the map commutes with evaluation (checked
for general maps by testing that the play table reaches every play), and
every variable's image stays inside that variable's own quantifier block.
"""

from __future__ import annotations

import itertools
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import lt
from typing import Iterable, Mapping

from .errors import CapExceededError, ValidationError
from .formulas import Formula, evaluate, literal, map_variables, truth_table, variables
from .qdimacs import Prefix, QbfInstance

# a play table covers the 2**n plays of an n-variable prefix; no table is
# built, and no check over all plays runs, past this many variables
PLAY_VAR_CAP = 16
CLOSURE_CAP = 10_000


def _member(domain: tuple[int, ...], var: int) -> bool:
    """Is ``var`` in the sorted tuple ``domain``?"""
    i = bisect_left(domain, var)
    return i < len(domain) and domain[i] == var


@dataclass(frozen=True)
class SignedPermutation:
    """Bijection of variables onto signed variables: its sorted ``domain``,
    one tuple shared by the generators of an instance, and the sorted pairs
    ``(v, image)`` of the variables it moves, which the map permutes; the
    rest are fixed, so a generator costs what it moves, not the prefix."""

    domain: tuple[int, ...] = field(hash=False)  # hashing it would cost the prefix
    moved: tuple[tuple[int, int], ...]

    def __post_init__(self):
        domain, sources = self.domain, [v for v, _ in self.moved]
        if domain and domain[0] < 1:
            raise ValidationError("variables must be positive")
        if not all(map(lt, domain, domain[1:])):
            raise ValidationError("domain must be sorted with unique variables")
        if not all(map(lt, sources, sources[1:])):
            raise ValidationError("moved pairs must be sorted with unique variables")
        if sorted([abs(img) for v, img in self.moved if img != v]) != sources:
            raise ValidationError("every pair must move its variable onto a moved one")
        if not all(map(_member, itertools.repeat(domain), sources)):
            raise ValidationError("moved variables must lie in the domain")

    @classmethod
    def from_dict(cls, images: Mapping[int, int]) -> "SignedPermutation":
        moved = sorted((v, img) for v, img in images.items() if img != v)
        return cls(tuple(sorted(images)), tuple(moved))

    @classmethod
    def identity(cls, domain: Iterable[int]) -> "SignedPermutation":
        return cls(tuple(sorted(domain)), ())

    @cached_property
    def _images(self) -> dict[int, int]:
        """The image of each literal of a moved variable."""
        images = dict(self.moved)
        for v, img in self.moved:
            images[-v] = -img
        return images

    @property
    def mapping(self) -> tuple[tuple[int, int], ...]:
        """Every variable of the domain with its image, in variable order."""
        domain = self.domain
        return tuple(zip(domain, map(self._images.get, domain, domain)))

    @property
    def cycles(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each variable cycle of the support, in order of its least
        variable v: the literals met from v until the walk returns to v,
        with sign product +1, or reaches -v, with -1.  The one cycle walk,
        read by cycle notation and the lex-leader chains; it is not stored,
        so a generator costs only what it moves."""
        images, cycles = dict(self.moved), []
        for v, w in self.moved:
            if images.pop(v, 0):  # else met on the walk from a smaller variable
                lits = [v]
                while abs(w) != v:
                    lits.append(w)
                    w = images.pop(w) if w > 0 else -images.pop(-w)
                cycles.append((tuple(lits), 1 if w == v else -1))
        return tuple(cycles)

    @property
    def is_identity(self) -> bool:
        return not self.moved

    def image(self, var: int) -> int:
        """Image literal of a (positive) variable."""
        if var < 1:
            raise ValidationError(f"variable {var} outside mapping domain")
        return self.image_of_literal(var)

    def image_of_literal(self, lit: int) -> int:
        img = self._images.get(lit)
        if img is not None:
            return img
        if _member(self.domain, abs(lit)):
            return lit
        raise ValidationError(f"variable {abs(lit)} outside mapping domain")

    def apply_to_clause(self, clause: Iterable[int]) -> tuple[int, ...]:
        """The image literal set, sorted by variable, a negative literal
        before its positive one: a clause holding l and -l maps to one too."""
        return tuple(sorted({self.image_of_literal(l) for l in clause}, key=lambda l: (abs(l), l)))

    def apply_to_clauses(self, clauses: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(self.apply_to_clause(c) for c in clauses)

    def apply_to_formula(self, formula: Formula) -> Formula:
        return map_variables(formula, {v: literal(img) for v, img in self.moved})

    def apply_to_assignment(self, sigma: Mapping[int, bool]) -> dict[int, bool]:
        """Pointwise image assignment: result(x) = value of image(x) under sigma."""
        out = {v: sigma[v] for v in self.domain}
        for v, img in self.moved:
            value = sigma[abs(img)]
            out[v] = value if img > 0 else not value
        return out

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.domain != other.domain:
            raise ValidationError("cannot compose permutations over different domains")
        moved = {v for v, _ in (*self.moved, *other.moved)}
        images = ((v, self.image_of_literal(other.image(v))) for v in moved)
        return SignedPermutation(self.domain, tuple(sorted(p for p in images if p[0] != p[1])))

    def inverse(self) -> "SignedPermutation":
        inv = ((abs(img), v if img > 0 else -v) for v, img in self.moved)
        return SignedPermutation(self.domain, tuple(sorted(inv)))

    def play_table(self, order: tuple[int, ...]) -> array:
        """The image of every play of ``order``, numbered as by ``truth_table``,
        built by doubling over the bits: the image of p is a flip mask xor the
        images of p's set bits, and only a moved variable's bit has another."""
        bit = {v: len(order) - 1 - i for i, v in enumerate(order)}
        if tuple(sorted(bit)) != self.domain:
            raise ValidationError("generators must act on exactly the prefix variables")
        flip, masks = 0, [1 << k for k in range(len(order))]
        for v, image in self.moved:
            # the image play takes v's value from abs(image)'s, negated by a sign
            masks[bit[abs(image)]] = 1 << bit[v]
            if image < 0:
                flip |= 1 << bit[v]
        table = array("l", [flip])
        for mask in masks:
            table.extend([p ^ mask for p in table])
        return table


@dataclass(frozen=True)
class AdmissibleMap:
    """General variable-to-formula map, stored as sorted (var, formula) pairs."""

    images: tuple[tuple[int, Formula], ...]

    def __post_init__(self):
        domain = [v for v, _ in self.images]
        if list(domain) != sorted(set(domain)):
            raise ValidationError("images must be sorted with unique variables")

    @classmethod
    def from_dict(cls, images: Mapping[int, Formula]) -> "AdmissibleMap":
        return cls(tuple(sorted(images.items())))

    @cached_property
    def _table(self) -> dict[int, Formula]:
        return dict(self.images)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.images)

    def image(self, var: int) -> Formula:
        try:
            return self._table[var]
        except KeyError:
            raise ValidationError(f"variable {var} outside map domain") from None

    def apply_to_formula(self, formula: Formula) -> Formula:
        return map_variables(formula, self._table)

    def apply_to_assignment(self, sigma: Mapping[int, bool]) -> dict[int, bool]:
        return {v: evaluate(img, sigma) for v, img in self.images}

    def play_table(self, order: tuple[int, ...]) -> array:
        """As ``SignedPermutation.play_table``: bit k of an image play is that
        play's bit in the ``truth_table`` of the image of the variable at bit k."""
        if len(order) != len(self.images):
            raise ValidationError("generators must act on exactly the prefix variables")
        plays = 1 << len(order)
        columns = [f"{truth_table(self.image(v), order):0{plays}b}"[::-1] for v in order]
        # the leading zero column keeps the one play of an empty order
        return array("l", [int("".join(bits), 2) for bits in zip("0" * plays, *columns)])


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple[tuple[int, str], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_admissible(g: SignedPermutation | AdmissibleMap, prefix: Prefix) -> AdmissibilityReport:
    """Check both admissibility conditions against a prefix.

    Condition 1 (the map commutes with evaluation) holds for a general map
    whose ``play_table`` reaches all 2**n plays, checked when the images
    stay in the prefix; past ``PLAY_VAR_CAP`` variables that check raises
    ``CapExceededError``. Signed permutations satisfy it structurally.
    Condition 2 keeps each image's variables inside the source variable's
    quantifier block; a signed permutation is checked on those it moves.
    """
    if g.domain != prefix.domain:
        raise ValidationError(
            f"map domain {list(g.domain)} does not match prefix variables {list(prefix.domain)}"
        )

    block = prefix._block_index.get
    if isinstance(g, SignedPermutation):
        strays = [(v, [abs(img)]) for v, img in g.moved if block(abs(img)) != block(v)]
    else:
        uses = ((v, variables(img)) for v, img in g.images)
        strays = [(v, sorted(w for w in used if block(w) != block(v))) for v, used in uses]
    message = "image of variable {} uses {} outside its quantifier block"
    violations = [(2, message.format(v, stray)) for v, stray in strays if stray]

    if isinstance(g, AdmissibleMap) and not any(None in map(block, stray) for _, stray in strays):
        n = len(prefix.variables)
        if n > PLAY_VAR_CAP:
            raise CapExceededError(
                f"condition-1 check over {n} variables exceeds the play bound {PLAY_VAR_CAP}"
            )
        if len(set(g.play_table(prefix.variables))) != 2**n:
            violations.append((1, "the map is not a bijection on total assignments"))

    violations.sort()
    return AdmissibilityReport(ok=not violations, violations=tuple(violations))


def admissible_generators(prefix: Prefix, generators) -> tuple:
    """The distinct generators; one that is not admissible on the prefix
    raises ``ValidationError``."""
    gens = tuple(dict.fromkeys(generators))
    for g in gens:
        violations = check_admissible(g, prefix).violations
        if violations:
            raise ValidationError("inadmissible generator: " + "; ".join(m for _, m in violations))
    return gens


def is_syntactic_symmetry(g: SignedPermutation, instance: QbfInstance) -> bool:
    """Does g map the clause multiset to itself?

    Clauses are compared as literal sets, however the instance lists
    them, one holding l and -l included.  Only the clauses that mention a
    moved variable are compared: g fixes the others, and since the moved
    variables are closed under g, it maps the compared ones among
    themselves.  This is sufficient for g to map the matrix to an
    equivalent matrix, but not necessary.
    """
    if not isinstance(g, SignedPermutation):
        raise ValidationError("the syntactic symmetry check needs a signed permutation")
    admissible_generators(instance.prefix, (g,))
    image = g._images.get
    compared = [c for c in instance._literal_sets if not g._images.keys().isdisjoint(c)]
    return sorted(tuple(sorted(map(image, c, c))) for c in compared) == compared


def group_closure(
    generators: Iterable[SignedPermutation], cap: int = CLOSURE_CAP
) -> list[SignedPermutation]:
    """All elements of the generated group, by breadth-first products."""
    gens = list(generators)
    if not gens:
        raise ValidationError("closure needs at least one generator to fix the domain")
    domain = gens[0].domain
    if any(g.domain != domain for g in gens):
        raise ValidationError("generators must share one domain")
    identity = SignedPermutation.identity(domain)
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for elem in frontier:
            for g in gens:
                prod = g.compose(elem)
                if prod not in elements:
                    if len(elements) >= cap:
                        raise CapExceededError(f"group closure exceeds cap {cap}")
                    elements.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return sorted(elements, key=lambda p: p.mapping)


def orbit_of_assignment(
    generators: Iterable[SignedPermutation],
    sigma: Mapping[int, bool],
    cap: int = CLOSURE_CAP,
) -> list[dict[int, bool]]:
    """All images of sigma under the generated group, sorted by items.

    The orbit is walked breadth first, one generator step at a time, so the
    group is never enumerated and ``cap`` bounds the orbit, not the group.
    """
    generators = list(generators)
    if not generators:
        return [dict(sigma)]
    domain = generators[0].domain
    if any(g.domain != domain for g in generators):
        raise ValidationError("generators must share one domain")
    start = {v: sigma[v] for v in domain}  # keys sorted, like every image's
    found = {tuple(start.items()): start}
    queue = [start]
    for tau in queue:  # the loop reaches what it appends: breadth first
        for g in generators:
            image = g.apply_to_assignment(tau)
            key = tuple(image.items())
            if key not in found:
                if len(found) >= cap:
                    raise CapExceededError(f"orbit of assignment exceeds cap {cap}")
                found[key] = image
                queue.append(image)
    return [found[k] for k in sorted(found)]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def format_generator(g: SignedPermutation) -> str:
    """Cycle notation over literals, one cycle per entry of ``g.cycles``.

    Swaps look like "(1 2)", a sign flip of variable 5 is "(-5)", and longer
    or sign-mixing cycles list literals in order, e.g. "(1 2 -1 -2)" for the
    order-4 map 1 -> 2 -> -1. The identity formats as "()".
    """
    text = []
    for lits, sign in g.cycles:
        if sign < 0:
            # the walk reached -lits[0]; the literal cycle goes on through
            # the negations, and a flip is written by its image alone
            lits = (-lits[0],) if len(lits) == 1 else (*lits, *(-l for l in lits))
        text.append("(" + " ".join(map(str, lits)) + ")")
    return "".join(text) or "()"


def parse_generator(text: str, domain: Iterable[int]) -> SignedPermutation:
    """Inverse of format_generator over an explicit variable domain."""
    return _parse_generator(text, tuple(sorted(set(domain))))


def _parse_generator(text: str, domain: tuple[int, ...]) -> SignedPermutation:
    """``parse_generator`` over a sorted domain tuple, which the result shares."""
    body = text.strip()
    if not body:
        raise ValidationError("empty generator line")
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise ValidationError(f"unparsed generator text: {consumed!r}")
    lit_map: dict[int, int] = {}

    def put(src: int, dst: int):
        for a, b in ((src, dst), (-src, -dst)):
            if a in lit_map and lit_map[a] != b:
                raise ValidationError(f"conflicting images for literal {a}")
            lit_map[a] = b

    for cycle_text in _CYCLE_RE.findall(body):
        tokens = cycle_text.split()
        if not tokens:
            continue  # "()" identity cycle
        try:
            lits = [int(t) for t in tokens]
        except ValueError:
            raise ValidationError(f"non-integer in cycle: {cycle_text!r}") from None
        if any(l == 0 for l in lits):
            raise ValidationError("literal 0 in cycle")
        if not all(_member(domain, abs(l)) for l in lits):
            raise ValidationError(f"cycle uses a variable outside the domain: {cycle_text!r}")
        if len(lits) == 1:
            lit = lits[0]
            if lit > 0:
                put(lit, lit)
            else:
                put(-lit, lit)  # "(-5)" flips variable 5
            continue
        for i, lit in enumerate(lits):
            put(lit, lits[(i + 1) % len(lits)])

    moved = sorted((v, img) for v, img in lit_map.items() if v > 0 and img != v)
    return SignedPermutation(domain, tuple(moved))


def format_generators(gens: Iterable[SignedPermutation]) -> str:
    return "".join(format_generator(g) + "\n" for g in gens)


def parse_generators(text: str, domain: Iterable[int]) -> list[SignedPermutation]:
    """One generator per line; blank lines and comment lines skipped: a
    generator starts with "(", so any line starting with "c" or "#" is a
    comment, as every "c" line is in QDIMACS."""
    domain = tuple(sorted(set(domain)))
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped[0] in "c#":
            continue
        out.append(_parse_generator(stripped, domain))
    return out
