"""Strategy trees, their enumeration and evaluation, and the truth oracle.

A strategy for one player is a tree over the prefix: at levels owned by the
player the tree has a single labeled edge, at opponent levels it branches
both ways. Rather than pointer trees, a strategy is one flat vector of edge
labels, one per (owned variable, opponent history) pair. ``_slots`` gives
the layout every strategy of a player shares: its owned variables in prefix
order, each with the number of opponent variables quantified before it. The
vector lists the slots in that order, each slot's histories in
``_histories`` order, so a history read as a binary number (first move
most significant) indexes its slot. The strategies of a player are then
exactly the label vectors, which makes equality, hashing and enumeration
cheap.

The truth oracle reads a prefix of at most ``TABLE_VARS`` variables off
one ``truth_table`` of the matrix as given, and folds its quantifiers
innermost first, a shift and one bitwise operation each; only a matrix
that mentions a variable outside the prefix is constant-folded first
(``prefix_table``). A longer prefix is split by one memoized recursion
over its outer variables, which short-circuits on their quantifiers and
restricts the matrix with ``substitute`` down to the innermost
``TABLE_VARS`` variables, read off one table in turn.

The module also computes semantic orbits: the partition of one player's
strategies induced by a syntactic symmetry group acting path-wise. Two
strategies share an orbit when their plays touch the same play orbits, so
an orbit is named by that set of play orbits, its class. ``orbit_classes``
builds the family of all classes, and of those holding a strategy that a
breaker keeps, as two nodes of one zero-suppressed decision diagram
(``Zdd``) in one bottom-up pass over the game tree, without building any
strategy; plays there are integers, and each generator, a signed
permutation or a formula map, is compiled once into its ``play_table``.
The enumerating ``semantic_orbits``, which walks each play's orbit from
the generators, is the reference it is tested against.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CapExceededError, MissingAssignmentError, ValidationError
from .formulas import Const, Formula, evaluate, substitute, truth_table, variables
from .qdimacs import EXISTS, FORALL, Prefix, QbfInstance
from .groups import AdmissibleMap, SignedPermutation, admissible_generators, orbit_of_assignment

EXISTENTIAL = EXISTS
UNIVERSAL = FORALL

ENUMERATION_CAP = 2**20
TRUTH_VAR_CAP = 24
# innermost variables that qbf_truth evaluates as one truth table, not by
# splitting (see CHANGES.md for the measurement)
TABLE_VARS = 14

History = tuple[bool, ...]


def _slots(prefix: Prefix, role: str) -> tuple[tuple[int, int], ...]:
    """(owned variable, opponent variables before it) in prefix order."""
    if role not in (EXISTENTIAL, UNIVERSAL):
        raise ValidationError(f"role must be 'e' or 'a', got {role!r}")
    slots: list[tuple[int, int]] = []
    before = 0
    for block in prefix.blocks:
        if block.quantifier == role:
            slots.extend((v, before) for v in block.variables)
        else:
            before += len(block.variables)
    return tuple(slots)


def _histories(length: int) -> Iterator[History]:
    return itertools.product((False, True), repeat=length)


@dataclass(frozen=True)
class Strategy:
    """Edge-label vector for one player; role is the quantifier the player owns."""

    prefix: Prefix
    role: str
    labels: tuple[bool, ...]

    @classmethod
    def from_tables(
        cls,
        prefix: Prefix,
        role: str,
        tables: Mapping[int, Mapping[History, bool]],
    ) -> "Strategy":
        slots = _slots(prefix, role)
        if set(tables) != {v for v, _ in slots}:
            raise ValidationError("strategy must define exactly the owned variables")
        for v, before in slots:
            if set(tables[v]) != set(_histories(before)):
                raise ValidationError(
                    f"variable {v} needs one label per opponent history of length {before}"
                )
        labels = (tables[v][h] for v, before in slots for h in _histories(before))
        return cls(prefix=prefix, role=role, labels=tuple(labels))

    @cached_property
    def _offsets(self) -> dict[int, tuple[int, int]]:
        """Owned variable -> (index of its first label, history length)."""
        offsets, start = {}, 0
        for v, before in _slots(self.prefix, self.role):
            offsets[v] = (start, before)
            start += 2**before
        return offsets

    def label(self, var: int, history: History) -> bool:
        start, before = self._offsets.get(var, (0, -1))
        if len(history) != before:
            raise ValidationError(f"no label for variable {var} after history {history}")
        return self.labels[start + sum(bit << k for k, bit in enumerate(reversed(history)))]

    @cached_property
    def paths(self) -> tuple[dict[int, bool], ...]:
        """All total assignments read off root-to-leaf paths, opponent order."""
        offsets, labels = self._offsets, self.labels
        order = self.prefix.variables
        out = []
        for values in _histories(len(order) - len(offsets)):
            sigma: dict[int, bool] = {}
            seen = index = 0  # opponent moves so far, and their history as a number
            for v in order:
                slot = offsets.get(v)
                if slot is None:
                    sigma[v] = values[seen]
                    index = 2 * index + values[seen]
                    seen += 1
                else:
                    sigma[v] = labels[slot[0] + index]
            out.append(sigma)
        return tuple(out)


def _label_count(prefix: Prefix, role: str) -> int:
    """Length of the label vector: sum over owned variables of 2 ** opponents-before-it."""
    return sum(2**before for _, before in _slots(prefix, role))


def count_strategies(prefix: Prefix, role: str) -> int:
    return 2 ** _label_count(prefix, role)


def check_enumeration_cap(prefix: Prefix, role: str, cap: int) -> None:
    """Raise CapExceededError when the role has more than ``cap`` strategies.

    Works on the exponent and never builds a large count: ``need`` is the
    least k with 2**k > cap. A slot with that many opponents before it
    exceeds the cap alone, so each term is clamped there and the sum stays
    small however long the prefix is.
    """
    need = max(cap, 0).bit_length()
    befores = [before for _, before in _slots(prefix, role)]
    bits = sum(2 ** min(before, need) for before in befores)
    if bits < need:
        return
    exact = max(befores, default=0) < need and bits <= 64
    total = str(2**bits) if exact else f"at least 2**{bits}"
    raise CapExceededError(f"{total} strategies exceed enumeration cap {cap}")


def enumerate_strategies(
    prefix: Prefix, role: str, cap: int = ENUMERATION_CAP
) -> Iterator[Strategy]:
    """All strategies exactly once, lexicographic in (level, history, label)."""
    check_enumeration_cap(prefix, role, cap)
    for labels in _histories(_label_count(prefix, role)):
        yield Strategy(prefix, role, labels)


def random_strategy(prefix: Prefix, role: str, rng: random.Random) -> Strategy:
    """Uniformly random strategy; usable when enumeration would be too large."""
    labels = tuple(rng.random() < 0.5 for _ in range(_label_count(prefix, role)))
    return Strategy(prefix, role, labels)


def _split_target(target: QbfInstance | tuple[Prefix, Formula]) -> tuple[Prefix, Formula]:
    if isinstance(target, QbfInstance):
        return target.prefix, target.to_formula()
    return target


def strategy_value(target: QbfInstance | tuple[Prefix, Formula], s: Strategy) -> bool:
    """Conjunction (existential role) or disjunction (universal) over paths."""
    prefix, matrix = _split_target(target)
    if s.prefix != prefix:
        raise ValidationError("strategy was built for a different prefix")
    values = (evaluate(matrix, sigma) for sigma in s.paths)
    return all(values) if s.role == EXISTENTIAL else any(values)


def _folded(formula: Formula, order: tuple[int, ...]) -> Formula:
    """The formula with the constants folded that raw constructors may
    leave; a variable outside ``order`` that survives raises."""
    folded = substitute(formula, {})
    if not variables(folded) <= set(order):
        raise ValidationError("formula mentions variables outside the prefix")
    return folded


def prefix_table(formula: Formula, order: tuple[int, ...]) -> int:
    """``truth_table`` over ``order`` of the formula as given, or of its
    ``_folded`` form where it mentions a variable outside ``order``."""
    try:
        return truth_table(formula, order)
    except MissingAssignmentError:
        return truth_table(_folded(formula, order), order)


def _quantified(table: int, universal: tuple[bool, ...]) -> bool:
    """A table's value under its variables' quantifiers, folded innermost
    first: ``t & (t >> b)`` for a universal variable and ``t | (t >> b)``
    for an existential one, where b = 2**k for the variable at bit k."""
    width = 1
    for forall in reversed(universal):
        table = table & (table >> width) if forall else table | (table >> width)
        width <<= 1
    return bool(table & 1)


def qbf_truth(target: QbfInstance | tuple[Prefix, Formula], cap: int = TRUTH_VAR_CAP) -> bool:
    """Recursive game-semantics truth value with short-circuiting.

    A prefix of at most ``TABLE_VARS`` variables is one ``prefix_table``,
    quantified by ``_quantified``. A longer one is split by the recursion
    down to its innermost ``TABLE_VARS`` variables, whose restricted
    matrix is then one table.
    """
    prefix, matrix = _split_target(target)
    if prefix.n > cap:
        raise CapExceededError(f"{prefix.n} variables exceed truth cap {cap}")
    order = prefix.variables
    universal = tuple(prefix.quantifier_of(v) == FORALL for v in order)
    split = max(len(order) - TABLE_VARS, 0)
    if not split:
        return _quantified(prefix_table(matrix, order), universal)

    @cache
    def rec(idx: int, current: Formula) -> bool:
        if isinstance(current, Const):
            return current.value
        if idx == split:
            return _quantified(truth_table(current, order[split:]), universal[split:])
        v = order[idx]
        branches = (rec(idx + 1, substitute(current, {v: value})) for value in (False, True))
        return all(branches) if universal[idx] else any(branches)

    return rec(0, _folded(matrix, order))


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
    generators: Iterable[SignedPermutation | AdmissibleMap],
    cap: int = ENUMERATION_CAP,
    role: str = EXISTENTIAL,
) -> list[list[Strategy]]:
    """Partition of one player's strategies under the path-wise group action.

    Strategies s, s' are related when every path of s' is the image under
    some group element of a path of s and symmetrically. A path's group
    orbit is summarized by a canonical representative, so the relation is
    equality of touched-orbit fingerprints, which is transitive already; no
    extra closure step is needed. Each play's orbit is walked from the
    generators once, the first time one of its members shows up. A generator
    that is not admissible on the prefix raises ``ValidationError``, since a
    map that is not a bijection does not split the plays into orbits.
    """
    generators = admissible_generators(prefix, generators)
    order = prefix.variables
    orbit_rep: dict[tuple[bool, ...], tuple[bool, ...]] = {}

    def rep_of(sigma: Mapping[int, bool]) -> tuple[bool, ...]:
        key = tuple(sigma[v] for v in order)
        cached = orbit_rep.get(key)
        if cached is not None:
            return cached
        orbit = orbit_of_assignment(generators, sigma)
        images = [tuple(image[v] for v in order) for image in orbit]
        best = min(images)
        for img in images:
            orbit_rep[img] = best
        return best

    buckets: dict[frozenset[tuple[bool, ...]], list[Strategy]] = {}
    for s in enumerate_strategies(prefix, role, cap=cap):
        fingerprint = frozenset(rep_of(sigma) for sigma in s.paths)
        buckets.setdefault(fingerprint, []).append(s)
    return list(buckets.values())


def _play_orbits(
    prefix: Prefix, generators: Iterable[SignedPermutation | AdmissibleMap]
) -> tuple[array, list[int]]:
    """The orbit ordinal of every play, numbered as in ``truth_table``, and
    the least play of each orbit by ordinal; one increasing scan numbers the
    orbits by their least plays. Each generator's ``play_table`` is built once."""
    tables = [g.play_table(prefix.variables) for g in generators]
    ordinal = array("l", [-1]) * 2**prefix.n
    leasts: list[int] = []
    for least in range(len(ordinal)):
        if ordinal[least] >= 0:
            continue
        count = ordinal[least] = len(leasts)
        leasts.append(least)
        members = [least]
        for p in members:  # the loop reaches what it appends
            for table in tables:
                q = table[p]
                if ordinal[q] < 0:
                    ordinal[q] = count
                    members.append(q)
    return ordinal, leasts


class _Deferred(Exception):
    """A ``Zdd`` call that would recurse past ``Zdd.DEPTH`` frames."""


class Zdd:
    """Families of sets of ints as nodes of one zero-suppressed decision
    diagram (Minato, DAC 1993). Node 0 is the empty family, node 1 is
    {{}}, and node i > 1, ``nodes[i] = (v, lo, hi)``, holds the sets of lo
    and those of hi with v added. Variables rise from a node to its
    children, hi is never 0, and the unique table keeps one node per
    triple, so equal families are equal ids. Union and join are memoized
    recursions; a call ``DEPTH`` frames deep is deferred, computed from a
    fresh stack, and its caller retried, so a diagram may be deeper than
    the recursion limit.
    """

    DEPTH = 250

    def __init__(self) -> None:
        self.nodes = [(sys.maxsize, 0, 0)] * 2
        self._unique: dict[tuple[int, int, int], int] = {}
        self._unions: dict[tuple[int, int], int] = {}
        self._joins: dict[tuple[int, int], int] = {}
        self._counts = [0, 1]

    def node(self, v: int, lo: int, hi: int) -> int:
        """The family of the sets of lo and those of hi with v added."""
        if not hi:
            return lo
        key = v, lo, hi
        out = self._unique.get(key)
        if out is None:
            out = self._unique[key] = len(self.nodes)
            self.nodes.append(key)
        return out

    def union(self, f: int, g: int) -> int:
        """The sets of f or g."""
        return self._call(self._union, f, g)

    def join(self, f: int, g: int) -> int:
        """Every union of a set of f and a set of g."""
        return self._call(self._join, f, g)

    def _call(self, op, f: int, g: int) -> int:
        try:
            return op(f, g, 0)
        except _Deferred as deferred:
            pending = [(op, f, g), deferred.args]
        while pending:
            op, f, g = pending[-1]
            try:
                out = op(f, g, 0)
            except _Deferred as deferred:
                pending.append(deferred.args)
            else:
                pending.pop()
        return out

    def _union(self, f: int, g: int, depth: int) -> int:
        if f > g:
            f, g = g, f
        if not f or f == g:
            return g
        key = f, g
        out = self._unions.get(key)
        if out is None:
            if depth == self.DEPTH:
                raise _Deferred(self._union, f, g)
            union, depth = self._union, depth + 1
            if self.nodes[f][0] > self.nodes[g][0]:
                f, g = g, f
            (v, f0, f1), (w, g0, g1) = self.nodes[f], self.nodes[g]
            if v < w:
                out = self.node(v, union(f0, g, depth), f1)
            else:
                out = self.node(v, union(f0, g0, depth), union(f1, g1, depth))
            self._unions[key] = out
        return out

    def _join(self, f: int, g: int, depth: int) -> int:
        if f > g:
            f, g = g, f
        if f < 2:  # the empty family absorbs, and {{}} is the unit
            return g if f else 0
        key = f, g
        out = self._joins.get(key)
        if out is None:
            if depth == self.DEPTH:
                raise _Deferred(self._join, f, g)
            join, union, depth = self._join, self._union, depth + 1
            if self.nodes[f][0] > self.nodes[g][0]:
                f, g = g, f
            (v, f0, f1), (w, g0, g1) = self.nodes[f], self.nodes[g]
            if v < w:
                out = self.node(v, join(f0, g, depth), join(f1, g, depth))
            else:  # a set with v takes it from f, from g, or from both
                with_v = union(join(f1, union(g0, g1, depth), depth), join(f0, g1, depth), depth)
                out = self.node(v, join(f0, g0, depth), with_v)
            self._joins[key] = out
        return out

    def count(self, f: int) -> int:
        """The number of sets in f; a node's children have smaller ids."""
        counts, nodes = self._counts, self.nodes
        for _, lo, hi in nodes[len(counts) : f + 1]:
            counts.append(counts[lo] + counts[hi])
        return counts[f]

    def sets(self, f: int, without: int = 0) -> list[int]:
        """The sets of f that are not in ``without``, a subfamily of f, each
        as an int with bit v set for each variable v."""
        out, stack = [], [(f, without, 0)]
        while stack:
            f, g, taken = stack.pop()
            if f == 1 and g == 0:
                out.append(taken)
            elif f != g:  # then f > 1, and g has no variable below f's
                (v, f0, f1), (w, g0, g1) = self.nodes[f], self.nodes[g]
                stack.append((f0, g0 if v == w else g, taken))
                stack.append((f1, g1 if v == w else 0, taken | 1 << v))
        return out


def orbit_classes(
    prefix: Prefix,
    generators: Iterable[SignedPermutation | AdmissibleMap],
    role: str,
    kept: int,
) -> tuple[Zdd, int, int, int, list[int]]:
    """The orbit classes of one player's strategies, without enumerating them.

    A class is the set of play orbits that the strategies of one
    ``semantic_orbits`` orbit touch, for maps of either class. Plays are
    integers as in ``_play_orbits``; bit p of ``kept`` accepts play p. Returns a
    ``Zdd`` over orbit ordinals with two of its nodes, the family of all
    classes and that of the classes with a strategy all of whose plays
    ``kept`` accepts, the number of such strategies, and the least play of
    each orbit by ordinal. One post-order pass over the game tree builds
    them: a play is one strategy of the class {its orbit}; at the player's
    own variable a strategy follows one child, so families unite and counts
    add; at the opponent's it answers both, so families join and counts
    multiply. The pass starts one block early, at the runs of plays that
    share everything above the innermost block, each read off its orbits in
    one step: under the player's own block a strategy picks one play of the
    run, so the family is the run's orbits as singletons; under the
    opponent's it takes every play, so the family is the one set of them,
    kept only when every play is. ``verify_breaker`` caps the strategy count
    and the plays. A generator that is not admissible raises, as in
    ``semantic_orbits``.
    """
    order = prefix.variables
    n = len(order)
    own = [prefix.quantifier_of(v) == role for v in order]
    ordinal, leasts = _play_orbits(prefix, admissible_generators(prefix, generators))
    accepts = f"{kept:0{2**n}b}"[::-1]  # character p is bit p
    zdd = Zdd()

    def singletons(orbits) -> int:
        family = 0
        for o in sorted(set(orbits), reverse=True):  # children before parents
            family = zdd.node(o, family, 1)
        return family

    def one_set(orbits) -> int:
        family = 1
        for o in sorted(set(orbits), reverse=True):
            family = zdd.node(o, 0, family)
        return family

    # the innermost block's variables are the low bits of a play; without
    # a block there is one play, its own class either way
    inner = prefix.blocks[-1] if prefix.blocks else None
    top = n - len(inner.variables) if inner else 0
    inner_own = inner is None or inner.quantifier == role
    run = 2 ** (n - top)
    # runs in increasing order; a stack entry is a finished subtree and its
    # depth, and two siblings on top combine into their parent
    stack: list[tuple[int, tuple[int, int, int]]] = []
    for start in range(0, len(ordinal), run):
        orbits, marks = ordinal[start : start + run], accepts[start : start + run]
        if inner_own:
            kept_orbits = (o for o, mark in zip(orbits, marks) if mark == "1")
            node = singletons(orbits), singletons(kept_orbits), marks.count("1")
        else:
            family = one_set(orbits)
            node = (family, 0, 0) if "0" in marks else (family, family, 1)
        depth = top
        while stack and stack[-1][0] == depth:
            depth -= 1
            (f0, k0, c0), (f1, k1, c1) = stack.pop()[1], node
            every = k0 == f0 and k1 == f1  # then the kept family is the family
            if own[depth]:
                f = zdd.union(f0, f1)
                node = f, f if every else zdd.union(k0, k1), c0 + c1
            else:
                f = zdd.join(f0, f1)
                node = f, f if every else zdd.join(k0, k1), c0 * c1
        stack.append((depth, node))
    return (zdd, *stack[0][1], leasts)
