"""Admissible maps, signed permutations, group closure, orbit computation.

Two representations coexist. SignedPermutation maps each variable to a
literal (a variable with a sign) and is what detection and breaking use,
since substituting literals into clauses keeps them clauses. AdmissibleMap
maps variables to arbitrary formulas and exists for verification: it covers
maps like y -> x xor y that are admissible but not literal-shaped.

Admissibility means two things: the map commutes with evaluation (checked
for general maps by testing that the induced action on total assignments is
a bijection), and every variable's image stays inside that variable's own
quantifier block.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import CapExceededError, ValidationError
from .formulas import Formula, evaluate, literal, map_variables, variables
from .qdimacs import Prefix, QbfInstance, normalize_clause

ADMISSIBLE_VAR_CAP = 16
CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class SignedPermutation:
    """Bijection of variables onto signed variables, stored as sorted pairs."""

    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self):
        domain = [v for v, _ in self.mapping]
        if any(v < 1 for v in domain):
            raise ValidationError("variables must be positive")
        if list(domain) != sorted(set(domain)):
            raise ValidationError("mapping must be sorted with unique variables")
        images = [img for _, img in self.mapping]
        if any(img == 0 for img in images):
            raise ValidationError("image literal 0 is invalid")
        if sorted(abs(img) for img in images) != list(domain):
            raise ValidationError("image variables must permute the domain")

    @classmethod
    def from_dict(cls, images: Mapping[int, int]) -> "SignedPermutation":
        return cls(tuple(sorted(images.items())))

    @classmethod
    def identity(cls, domain: Iterable[int]) -> "SignedPermutation":
        return cls(tuple((v, v) for v in sorted(domain)))

    @cached_property
    def _table(self) -> dict[int, int]:
        return dict(self.mapping)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.mapping)

    @property
    def is_identity(self) -> bool:
        return all(v == img for v, img in self.mapping)

    def image(self, var: int) -> int:
        """Image literal of a (positive) variable."""
        try:
            return self._table[var]
        except KeyError:
            raise ValidationError(f"variable {var} outside mapping domain") from None

    def image_of_literal(self, lit: int) -> int:
        img = self.image(abs(lit))
        return img if lit > 0 else -img

    def apply_to_clause(self, clause: Iterable[int]) -> tuple[int, ...]:
        mapped = normalize_clause(self.image_of_literal(l) for l in clause)
        assert mapped is not None  # literal bijections cannot create tautologies
        return mapped

    def apply_to_clauses(self, clauses: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(self.apply_to_clause(c) for c in clauses)

    def apply_to_formula(self, formula: Formula) -> Formula:
        return map_variables(formula, {v: literal(img) for v, img in self.mapping})

    def apply_to_assignment(self, sigma: Mapping[int, bool]) -> dict[int, bool]:
        """Pointwise image assignment: result(x) = value of image(x) under sigma."""
        out = {}
        for v, img in self.mapping:
            value = sigma[abs(img)]
            out[v] = value if img > 0 else not value
        return out

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.domain != other.domain:
            raise ValidationError("cannot compose permutations over different domains")
        return SignedPermutation(
            tuple((v, self.image_of_literal(other.image(v))) for v in self.domain)
        )

    def inverse(self) -> "SignedPermutation":
        inv = {}
        for v, img in self.mapping:
            inv[abs(img)] = v if img > 0 else -v
        return SignedPermutation.from_dict(inv)


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


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple[tuple[int, str], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_admissible(
    g: SignedPermutation | AdmissibleMap,
    prefix: Prefix,
    cap: int = ADMISSIBLE_VAR_CAP,
) -> AdmissibilityReport:
    """Check both admissibility conditions against a prefix.

    Condition 1 (the map commutes with evaluation) is verified for general
    maps by checking that sigma -> g(sigma) is a bijection over all total
    assignments, which needs len(prefix) <= cap. Signed permutations satisfy
    it structurally. Condition 2 requires each image to use only variables
    from the source variable's quantifier block.
    """
    domain = set(g.domain)
    prefix_vars = set(prefix.variables)
    if domain != prefix_vars:
        raise ValidationError(
            f"map domain {sorted(domain)} does not match prefix variables {sorted(prefix_vars)}"
        )

    violations: list[tuple[int, str]] = []
    block_vars = [frozenset(b.variables) for b in prefix.blocks]
    for v in prefix.variables:
        block = block_vars[prefix.block_index_of(v)]
        if isinstance(g, SignedPermutation):
            used = {abs(g.image(v))}
        else:
            used = set(variables(g.image(v)))
        stray = used - block
        if stray:
            violations.append(
                (2, f"image of variable {v} uses {sorted(stray)} outside its quantifier block")
            )

    if isinstance(g, AdmissibleMap):
        n = len(prefix.variables)
        if n > cap:
            raise CapExceededError(
                f"condition-1 check over {n} variables exceeds cap {cap}"
            )
        order = prefix.variables
        seen: set[tuple[bool, ...]] = set()
        for values in itertools.product((False, True), repeat=n):
            sigma = dict(zip(order, values))
            image = g.apply_to_assignment(sigma)
            seen.add(tuple(image[v] for v in order))
        if len(seen) != 2**n:
            violations.append(
                (1, "induced assignment map is not a bijection on total assignments")
            )

    violations.sort()
    return AdmissibilityReport(ok=not violations, violations=tuple(violations))


def is_syntactic_symmetry(g: SignedPermutation, instance: QbfInstance) -> bool:
    """Does g map the clause multiset to itself?

    Clauses are compared as literal sets, however the instance lists
    them, one holding l and -l included.  This is sufficient for g to map
    the matrix to an equivalent matrix, but not necessary.
    """
    report = check_admissible(g, instance.prefix)
    if not report.ok:
        raise ValidationError(f"generator is not admissible: {report.violations}")
    sets = instance._literal_sets
    return tuple(sorted(tuple(sorted(map(g.image_of_literal, c))) for c in sets)) == sets


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
    """Cycle notation over literals.

    Swaps look like "(1 2)", a sign flip of variable 5 is "(-5)", and longer
    or sign-mixing cycles list literals in order, e.g. "(1 2 -1 -2)" for the
    order-4 map 1 -> 2 -> -1. The identity formats as "()".
    """
    visited: set[int] = set()
    cycles: list[str] = []
    for v in g.domain:
        for start in (v, -v):
            if start in visited:
                continue
            visited.add(start)
            img = g.image_of_literal(start)
            if img == start:
                continue
            if img == -start:
                visited.add(-start)
                if start > 0:
                    cycles.append(f"(-{start})")
                continue
            cycle = [start]
            cur = img
            while cur != start:
                visited.add(cur)
                cycle.append(cur)
                cur = g.image_of_literal(cur)
            # the complementary cycle is fully determined by this one; mark it
            # visited so it is not emitted a second time
            if -start not in cycle:
                for lit in cycle:
                    visited.add(-lit)
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) if cycles else "()"


def parse_generator(text: str, domain: Iterable[int]) -> SignedPermutation:
    """Inverse of format_generator over an explicit variable domain."""
    domain = sorted(dict.fromkeys(domain))
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
        if any(abs(l) not in domain for l in lits):
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

    images = {}
    for v in domain:
        images[v] = lit_map.get(v, v)
    return SignedPermutation.from_dict(images)


def format_generators(gens: Iterable[SignedPermutation]) -> str:
    return "".join(format_generator(g) + "\n" for g in gens)


def parse_generators(text: str, domain: Iterable[int]) -> list[SignedPermutation]:
    """One generator per line; blank lines and 'c'/'#' comment lines skipped."""
    domain = list(domain)
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "c ")) or stripped == "c":
            continue
        out.append(parse_generator(stripped, domain))
    return out
