"""Strategy trees, their enumeration and evaluation, and the truth oracle.

A strategy for one player is a tree over the prefix: at levels owned by the
player the tree has a single labeled edge, at opponent levels it branches
both ways. Rather than pointer trees, a strategy is stored as an edge-label
map per owned variable, indexed by the opponent-assignment history up to
that variable. The two views are equivalent and this one makes equality,
hashing and enumeration cheap.

The module also computes semantic orbits: the partition of one player's
strategies induced by a syntactic symmetry group acting path-wise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CapExceededError, ValidationError
from .formulas import Const, Formula, evaluate, substitute
from .qdimacs import EXISTS, FORALL, Prefix, QbfInstance
from .groups import CLOSURE_CAP, SignedPermutation, group_closure

EXISTENTIAL = EXISTS
UNIVERSAL = FORALL

ENUMERATION_CAP = 2**20
TRUTH_VAR_CAP = 24

History = tuple[bool, ...]


def _roles(prefix: Prefix, role: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(owned variables, opponent variables) in prefix order."""
    if role not in (EXISTENTIAL, UNIVERSAL):
        raise ValidationError(f"role must be 'e' or 'a', got {role!r}")
    owned = tuple(v for v in prefix.variables if prefix.quantifier_of(v) == role)
    other = tuple(v for v in prefix.variables if prefix.quantifier_of(v) != role)
    return owned, other


@dataclass(frozen=True)
class Strategy:
    """Edge-label map for one player; role is the quantifier the player owns."""

    prefix: Prefix
    role: str
    moves: tuple[tuple[int, tuple[tuple[History, bool], ...]], ...]

    @classmethod
    def from_tables(
        cls,
        prefix: Prefix,
        role: str,
        tables: Mapping[int, Mapping[History, bool]],
    ) -> "Strategy":
        owned, other = _roles(prefix, role)
        if set(tables) != set(owned):
            raise ValidationError("strategy must define exactly the owned variables")
        moves = []
        for v in owned:
            before = sum(1 for u in other if prefix.position_of(u) < prefix.position_of(v))
            table = tables[v]
            expect = set(itertools.product((False, True), repeat=before))
            if set(table) != expect:
                raise ValidationError(
                    f"variable {v} needs one label per opponent history of length {before}"
                )
            moves.append((v, tuple(sorted(table.items()))))
        return cls(prefix=prefix, role=role, moves=tuple(moves))

    @cached_property
    def _tables(self) -> dict[int, dict[History, bool]]:
        return {v: dict(entries) for v, entries in self.moves}

    def label(self, var: int, history: History) -> bool:
        return self._tables[var][history]

    @cached_property
    def paths(self) -> tuple[dict[int, bool], ...]:
        """All total assignments read off root-to-leaf paths, opponent order."""
        _, other = _roles(self.prefix, self.role)
        out = []
        for values in itertools.product((False, True), repeat=len(other)):
            opp = dict(zip(other, values))
            sigma: dict[int, bool] = {}
            history: list[bool] = []
            for v in self.prefix.variables:
                if v in opp:
                    sigma[v] = opp[v]
                    history.append(opp[v])
                else:
                    sigma[v] = self.label(v, tuple(history))
            out.append(sigma)
        return tuple(out)


def count_strategies(prefix: Prefix, role: str) -> int:
    """2 ** (sum over owned variables of 2 ** opponents-before-it)."""
    owned, other = _roles(prefix, role)
    other_positions = [prefix.position_of(v) for v in other]
    slots = 0
    for v in owned:
        before = sum(1 for p in other_positions if p < prefix.position_of(v))
        slots += 2**before
    return 2**slots


def enumerate_strategies(
    prefix: Prefix, role: str, cap: int = ENUMERATION_CAP
) -> Iterator[Strategy]:
    """All strategies exactly once, lexicographic in (level, history, label)."""
    total = count_strategies(prefix, role)
    if total > cap:
        raise CapExceededError(f"{total} strategies exceed enumeration cap {cap}")
    owned, other = _roles(prefix, role)
    slots: list[tuple[int, History]] = []
    for v in owned:
        before = sum(1 for u in other if prefix.position_of(u) < prefix.position_of(v))
        for history in itertools.product((False, True), repeat=before):
            slots.append((v, history))
    for labels in itertools.product((False, True), repeat=len(slots)):
        tables: dict[int, dict[History, bool]] = {v: {} for v in owned}
        for (v, history), value in zip(slots, labels):
            tables[v][history] = value
        yield Strategy.from_tables(prefix, role, tables)


def random_strategy(prefix: Prefix, role: str, rng: random.Random) -> Strategy:
    """Uniformly random strategy; usable when enumeration would be too large."""
    owned, other = _roles(prefix, role)
    tables: dict[int, dict[History, bool]] = {}
    for v in owned:
        before = sum(1 for u in other if prefix.position_of(u) < prefix.position_of(v))
        tables[v] = {
            history: rng.random() < 0.5
            for history in itertools.product((False, True), repeat=before)
        }
    return Strategy.from_tables(prefix, role, tables)


def _split_target(target: QbfInstance | tuple[Prefix, Formula]):
    if isinstance(target, QbfInstance):
        return target.prefix, target.clauses, None
    prefix, formula = target
    return prefix, None, formula


def _clause_value(clauses: Iterable[tuple[int, ...]], sigma: Mapping[int, bool]) -> bool:
    return all(any((l > 0) == sigma[abs(l)] for l in clause) for clause in clauses)


def strategy_value(target: QbfInstance | tuple[Prefix, Formula], s: Strategy) -> bool:
    """Conjunction (existential role) or disjunction (universal) over paths."""
    prefix, clauses, formula = _split_target(target)
    if s.prefix != prefix:
        raise ValidationError("strategy was built for a different prefix")
    if clauses is not None:
        values = (_clause_value(clauses, sigma) for sigma in s.paths)
    else:
        values = (evaluate(formula, sigma) for sigma in s.paths)
    return all(values) if s.role == EXISTENTIAL else any(values)


def qbf_truth(target: QbfInstance | tuple[Prefix, Formula], cap: int = TRUTH_VAR_CAP) -> bool:
    """Recursive game-semantics truth value with short-circuiting."""
    prefix, clauses, formula = _split_target(target)
    if prefix.n > cap:
        raise CapExceededError(f"{prefix.n} variables exceed truth cap {cap}")
    order = prefix.variables
    quantifiers = tuple(prefix.quantifier_of(v) for v in order)
    if clauses is not None:
        return _truth_clauses(order, quantifiers, tuple(clauses))
    return _truth_formula(order, quantifiers, formula)


def _truth_clauses(order, quantifiers, clauses) -> bool:
    memo: dict[tuple[int, tuple[tuple[int, ...], ...]], bool] = {}

    def rec(idx: int, remaining: tuple[tuple[int, ...], ...]) -> bool:
        if not remaining:
            return True
        if idx == len(order):
            # only empty clauses can remain once every variable is assigned
            return False
        key = (idx, remaining)
        if key in memo:
            return memo[key]
        v = order[idx]
        want_all = quantifiers[idx] == FORALL
        result = want_all
        for value in (False, True):
            reduced = []
            dead = False
            for clause in remaining:
                if v in map(abs, clause):
                    kept = tuple(l for l in clause if abs(l) != v)
                    if (v if value else -v) in clause:
                        continue  # clause satisfied
                    if not kept:
                        dead = True
                        break
                    reduced.append(kept)
                else:
                    reduced.append(clause)
            sub = False if dead else rec(idx + 1, tuple(reduced))
            if want_all and not sub:
                result = False
                break
            if not want_all and sub:
                result = True
                break
        memo[key] = result
        return result

    return rec(0, clauses)


def _truth_formula(order, quantifiers, formula: Formula) -> bool:
    memo: dict[tuple[int, Formula], bool] = {}

    def rec(idx: int, current: Formula) -> bool:
        if isinstance(current, Const):
            return current.value
        if idx == len(order):
            raise ValidationError("formula mentions variables outside the prefix")
        key = (idx, current)
        if key in memo:
            return memo[key]
        v = order[idx]
        want_all = quantifiers[idx] == FORALL
        result = want_all
        for value in (False, True):
            sub = rec(idx + 1, substitute(current, {v: value}))
            if want_all and not sub:
                result = False
                break
            if not want_all and sub:
                result = True
                break
        memo[key] = result
        return result

    return rec(0, formula)


def common_path(s: Strategy, t: Strategy) -> dict[int, bool]:
    """The unique assignment that is a path of both an existential and a
    universal strategy: at each level the owner's edge label is followed."""
    if s.role != EXISTENTIAL or t.role != UNIVERSAL:
        raise ValidationError("common_path expects (existential, universal) strategies")
    if s.prefix != t.prefix:
        raise ValidationError("strategies were built for different prefixes")
    prefix = s.prefix
    sigma: dict[int, bool] = {}
    hist_s: list[bool] = []  # universal values seen so far, s's opponent history
    hist_t: list[bool] = []  # existential values seen so far, t's opponent history
    for v in prefix.variables:
        if prefix.quantifier_of(v) == EXISTS:
            value = s.label(v, tuple(hist_s))
            hist_t.append(value)
        else:
            value = t.label(v, tuple(hist_t))
            hist_s.append(value)
        sigma[v] = value
    return sigma


def semantic_orbits(
    prefix: Prefix,
    generators: Iterable[SignedPermutation],
    cap: int = ENUMERATION_CAP,
    role: str = EXISTENTIAL,
    closure_cap: int = CLOSURE_CAP,
) -> list[list[Strategy]]:
    """Partition of one player's strategies under the path-wise group action.

    Strategies s, s' are related when every path of s' is the image under
    some group element of a path of s and symmetrically. A path's group
    orbit is summarized by a canonical representative, so the relation is
    equality of touched-orbit fingerprints, which is transitive already; no
    extra closure step is needed.
    """
    generators = list(generators)
    group = group_closure(generators, cap=closure_cap) if generators else []
    order = prefix.variables

    orbit_rep: dict[tuple[bool, ...], tuple[bool, ...]] = {}

    def rep_of(sigma: Mapping[int, bool]) -> tuple[bool, ...]:
        key = tuple(sigma[v] for v in order)
        cached = orbit_rep.get(key)
        if cached is not None:
            return cached
        if not group:
            orbit_rep[key] = key
            return key
        images = []
        for g in group:
            image = g.apply_to_assignment(sigma)
            images.append(tuple(image[v] for v in order))
        best = min(images)
        for img in images:
            orbit_rep[img] = best
        return best

    buckets: dict[frozenset[tuple[bool, ...]], list[Strategy]] = {}
    bucket_order: list[frozenset[tuple[bool, ...]]] = []
    for s in enumerate_strategies(prefix, role, cap=cap):
        fingerprint = frozenset(rep_of(sigma) for sigma in s.paths)
        if fingerprint not in buckets:
            buckets[fingerprint] = []
            bucket_order.append(fingerprint)
        buckets[fingerprint].append(s)
    return [buckets[fp] for fp in bucket_order]
