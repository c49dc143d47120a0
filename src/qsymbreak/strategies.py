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

The truth oracle is one memoized recursion over the outer variables of the
prefix: it splits the next variable and short-circuits on its quantifier.
Every matrix is a ``Formula``, an instance's clause list included, so one
restriction, ``substitute``, serves every target; a matrix is settled once
it folds to a constant. The innermost ``TABLE_VARS`` variables are not
split: the matrix left over them is evaluated as one ``truth_table`` and
its quantifiers are folded innermost first, a shift and one bitwise
operation each.

The module also computes semantic orbits: the partition of one player's
strategies induced by a syntactic symmetry group acting path-wise. Two
strategies share an orbit when their plays touch the same play orbits, so
an orbit is named by that set of play orbits, its class. ``orbit_classes``
builds the classes in one bottom-up pass over the game tree, counting
strategies per class, without building any strategy; plays there are
integers, and each generator is compiled once into a table of play
indices. The enumerating ``semantic_orbits``, which walks each play's
orbit from the generators, is the reference it is tested against.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CapExceededError, ValidationError
from .formulas import Const, Formula, evaluate, substitute, truth_table, variables
from .qdimacs import EXISTS, FORALL, Prefix, QbfInstance
from .groups import SignedPermutation, orbit_of_assignment

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


def cap_bits(cap: int) -> int:
    """The least k with 2**k > cap: 2**bits > cap exactly when bits >= cap_bits(cap)."""
    return max(cap, 0).bit_length()


def check_enumeration_cap(prefix: Prefix, role: str, cap: int) -> None:
    """Raise CapExceededError when the role has more than ``cap`` strategies.

    Works on the exponent (``cap_bits``) and never builds a large count. A
    slot with that many opponents before it exceeds the cap alone, so each
    term is clamped there and the sum stays small however long the prefix is.
    """
    need = cap_bits(cap)
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


def qbf_truth(target: QbfInstance | tuple[Prefix, Formula], cap: int = TRUTH_VAR_CAP) -> bool:
    """Recursive game-semantics truth value with short-circuiting.

    The recursion splits the outer variables; the innermost ``TABLE_VARS``
    are evaluated as one truth table, folded innermost first: ``t & (t >>
    b)`` for a universal variable and ``t | (t >> b)`` for an existential
    one, where b = 2**k for the variable at bit k of a play.
    """
    prefix, matrix = _split_target(target)
    if prefix.n > cap:
        raise CapExceededError(f"{prefix.n} variables exceed truth cap {cap}")
    order = prefix.variables
    universal = tuple(prefix.quantifier_of(v) == FORALL for v in order)
    split = max(len(order) - TABLE_VARS, 0)
    # fold once: raw constructors may leave constants an empty prefix never restricts
    start = substitute(matrix, {})
    if not variables(start) <= set(order):
        raise ValidationError("formula mentions variables outside the prefix")

    def fold(current: Formula) -> bool:
        table = truth_table(current, order[split:])
        width = 1
        for forall in reversed(universal[split:]):
            table = table & (table >> width) if forall else table | (table >> width)
            width <<= 1
        return bool(table & 1)

    @cache
    def rec(idx: int, current: Formula) -> bool:
        if isinstance(current, Const):
            return current.value
        if idx == split:
            return fold(current)
        v = order[idx]
        branches = (rec(idx + 1, substitute(current, {v: value})) for value in (False, True))
        return all(branches) if universal[idx] else any(branches)

    return rec(0, start)


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
) -> list[list[Strategy]]:
    """Partition of one player's strategies under the path-wise group action.

    Strategies s, s' are related when every path of s' is the image under
    some group element of a path of s and symmetrically. A path's group
    orbit is summarized by a canonical representative, so the relation is
    equality of touched-orbit fingerprints, which is transitive already; no
    extra closure step is needed. Each play's orbit is walked from the
    generators once, the first time one of its members shows up.
    """
    generators = list(generators)
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


Classes = dict[int, tuple[int, int]]


def _play_orbits(
    prefix: Prefix, generators: Iterable[SignedPermutation]
) -> tuple[array, list[int]]:
    """The orbit ordinal of every play, and the least play of each orbit by
    ordinal; one increasing scan numbers the orbits by their least plays.

    Play p assigns the prefix variables the binary digits of p, the first
    variable most significant. Each generator is compiled once into the
    table of its images, built by doubling over the bit positions: the
    image of p is a flip mask xor the images of p's set bits, and only the
    variables that the generator moves change a bit's image.
    """
    order = prefix.variables
    n = len(order)
    bit = {v: n - 1 - i for i, v in enumerate(order)}
    tables = []
    for g in generators:
        if g.domain != prefix.domain:
            raise ValidationError("generators must act on exactly the prefix variables")
        flip, masks = 0, [1 << k for k in range(n)]
        for v, image in g.moved:
            # the image play takes v's value from abs(image)'s, negated by a sign
            masks[bit[abs(image)]] = 1 << bit[v]
            if image < 0:
                flip |= 1 << bit[v]
        table = array("l", [flip])
        for mask in masks:
            table.extend([p ^ mask for p in table])
        tables.append(table)
    ordinal = array("l", [-1]) * 2**n
    leasts: list[int] = []
    for least in range(2**n):
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


def orbit_classes(
    prefix: Prefix,
    generators: Iterable[SignedPermutation],
    role: str,
    kept: int,
) -> tuple[Classes, list[int]]:
    """The orbit classes of one player's strategies, without enumerating them.

    A class is the set of play orbits that the strategies of one
    ``semantic_orbits`` orbit touch, as an int with one bit per orbit
    ordinal. Plays are integers as in ``_play_orbits``, and bit p of
    ``kept`` accepts play p. Returns the map from each class to (strategies
    in it, strategies all of whose plays ``kept`` accepts), and the least
    play of each orbit by ordinal. One post-order pass over the game tree
    builds the map: a play is one strategy of the class {its orbit}; at the
    player's own variable a strategy follows one child, so the children's
    maps merge and their counts add; at the opponent's it answers both, so
    every pair of child classes joins and the counts multiply. The caller
    bounds the work: ``verify_breaker`` caps the strategy count and the
    plays.
    """
    order = prefix.variables
    n = len(order)
    own = [prefix.quantifier_of(v) == role for v in order]
    ordinal, leasts = _play_orbits(prefix, generators)
    accepts = f"{kept:0{2**n}b}"[::-1]  # character p is bit p

    def join(depth: int, low: Classes, high: Classes) -> Classes:
        if own[depth]:
            out = dict(low)
            pairs = high.items()
        else:
            out = {}
            pairs = [
                (a | b, (na * nb, ka * kb))
                for a, (na, ka) in low.items()
                for b, (nb, kb) in high.items()
            ]
        for key, (count, k) in pairs:
            old = out.get(key)
            out[key] = (count, k) if old is None else (old[0] + count, old[1] + k)
        return out

    # plays in increasing order; a stack entry is a finished subtree and
    # its depth, and two siblings on top join into their parent
    stack: list[tuple[int, Classes]] = []
    for p, o in enumerate(ordinal):
        depth, node = n, {1 << o: (1, int(accepts[p] == "1"))}
        while stack and stack[-1][0] == depth:
            depth -= 1
            node = join(depth, stack.pop()[1], node)
        stack.append((depth, node))
    return stack[0][1], leasts
