"""Boolean formula trees: construction, restriction, tabulation, equivalence.

Formulas are immutable dataclass trees over integer variable ids (1-based,
matching DIMACS numbering), with six node kinds: Const, Var, Not, And, Or
and Cnf. Implication, equivalence and exclusive or are not nodes: between
literals they are clauses, and elsewhere they are And/Or/Not compositions.
The folding constructors (neg, conj, disj) perform constant propagation, so
substituting a variable removes it from the tree syntactically, not just
semantically.

A clause list is one node, ``Cnf``, of signed DIMACS literals; a cube list
is its negation over the negated literals (a DNF is a negated CNF), so
term lists have one node kind, restricted and tabulated here alone.

``substitute`` restricts a formula to a partial or total assignment, and
``evaluate`` is a restriction that must fold to a constant. ``truth_table``
tabulates it on every total assignment of a variable order at once: the
table is one int with a bit per assignment, so each connective is one
bitwise operation on ints (Knuth, TAOCP 4A, 7.1.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapExceededError, MissingAssignmentError

EQUIVALENCE_VAR_CAP = 20


class Formula:
    """Base class of formula tree nodes. Supports &, | and ~ as connectives."""

    __slots__ = ()

    def __and__(self, other: Formula) -> Formula:
        return conj((self, other))

    def __or__(self, other: Formula) -> Formula:
        return disj((self, other))

    def __invert__(self) -> Formula:
        return neg(self)


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    id: int

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"variable id must be >= 1, got {self.id}")


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True, slots=True)
class Or(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True, slots=True)
class Cnf(Formula):
    clauses: tuple[tuple[int, ...], ...]


def neg(f: Formula) -> Formula:
    if isinstance(f, Const):
        return Const(not f.value)
    if isinstance(f, Not):
        return f.child
    return Not(f)


def conj(items: Iterable[Formula]) -> Formula:
    """N-ary conjunction with constant folding and one-level flattening."""
    parts: list[Formula] = []
    for item in items:
        if isinstance(item, Const):
            if not item.value:
                return FALSE
            continue
        if isinstance(item, And):
            parts.extend(item.children)
        else:
            parts.append(item)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def disj(items: Iterable[Formula]) -> Formula:
    """N-ary disjunction with constant folding and one-level flattening."""
    parts: list[Formula] = []
    for item in items:
        if isinstance(item, Const):
            if item.value:
                return TRUE
            continue
        if isinstance(item, Or):
            parts.extend(item.children)
        else:
            parts.append(item)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def literal(lit: int) -> Formula:
    """Formula for a signed DIMACS literal: 3 -> x3, -3 -> not x3."""
    if lit == 0:
        raise ValueError("literal 0 is not a variable")
    return Var(lit) if lit > 0 else Not(Var(-lit))


def clauses_to_formula(clauses: Iterable[Iterable[int]]) -> Formula:
    """CNF clause list (signed int literals) as one ``Cnf`` node, folded to
    ``TRUE`` without clauses and to ``FALSE`` at an empty clause."""
    terms = tuple(map(tuple, clauses))
    if any(0 in clause for clause in terms):
        raise ValueError("literal 0 is not a variable")
    return (Cnf(terms) if all(terms) else FALSE) if terms else TRUE


def cubes_to_formula(cubes: Iterable[Iterable[int]]) -> Formula:
    """DNF cube list (signed int literals): the negated CNF of negated cubes."""
    return neg(clauses_to_formula(tuple(-l for l in cube) for cube in cubes))


def truth_table(formula: Formula, order: Iterable[int]) -> int:
    """The formula's value on every play of ``order``, as one int.

    Bit p is the value on the play whose binary digits are p, the first
    variable of ``order`` most significant. A variable outside ``order``
    raises ``MissingAssignmentError``, and one that ``order`` repeats
    raises ``ValueError``.
    """
    order = tuple(order)
    n = len(order)
    full = (1 << (1 << n)) - 1
    position = {v: n - 1 - i for i, v in enumerate(order)}  # the variable's bit in p
    if len(position) < n:
        repeated = next(v for i, v in enumerate(order) if v in order[:i])
        raise ValueError(f"order repeats variable {repeated}")
    literals: dict[int, int] = {}
    memo: dict[int, int] = {}  # by node identity: shared subtrees are read once
    bits = full
    for v, bit in position.items():
        # the table of the variable at bit k: the one before (all ones
        # before the first) xor itself shifted down by 2**k
        bits ^= bits >> (1 << bit)
        literals[v], literals[-v] = bits, full ^ bits

    def table(node: Formula) -> int:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            out = full if node.value else 0
        elif isinstance(node, Var):
            out = literals[node.id]
        elif isinstance(node, Not):
            out = full ^ table(node.child)
        elif isinstance(node, And):
            out = full
            for child in node.children:
                out &= table(child)
        elif isinstance(node, Or):
            out = 0
            for child in node.children:
                out |= table(child)
        elif isinstance(node, Cnf):
            out = full
            for clause in node.clauses:
                term = 0
                for l in clause:
                    term |= literals[l]
                out &= term
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = out
        return out

    try:
        return table(formula)
    except KeyError as missing:
        raise MissingAssignmentError(abs(missing.args[0])) from None


def substitute(formula: Formula, partial: Mapping[int, bool]) -> Formula:
    """Replace assigned variables by constants and fold.

    The result contains no variable of the partial assignment's domain.
    Shared subtrees are restricted once, by node identity as in
    ``truth_table``, and stay shared in the result.
    """
    # clauses restrict clause by clause: satisfied clauses go, false
    # literals are stripped, and an empty clause settles the value
    true_lits = {v if value else -v for v, value in partial.items()}
    assigned = true_lits | {-l for l in true_lits}
    memo: dict[int, Formula] = {}

    def restrict(clauses: tuple[tuple[int, ...], ...]) -> Formula:
        out = []
        for clause in clauses:
            if not assigned.isdisjoint(clause):
                if not true_lits.isdisjoint(clause):
                    continue
                clause = tuple(l for l in clause if -l not in true_lits)
            if not clause:
                return FALSE
            out.append(clause)
        return Cnf(tuple(out)) if out else TRUE

    def walk(node: Formula) -> Formula:
        out = memo.get(id(node))
        if out is not None:
            return out
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Var):
            out = node if node.id not in partial else TRUE if partial[node.id] else FALSE
        elif isinstance(node, Not):
            out = neg(walk(node.child))
        elif isinstance(node, (And, Or)):
            out = (conj if isinstance(node, And) else disj)(map(walk, node.children))
        elif isinstance(node, Cnf):
            out = restrict(node.clauses)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[id(node)] = out
        return out

    return walk(formula)


def evaluate(formula: Formula, assignment: Mapping[int, bool]) -> bool:
    """Truth value under an assignment: the ``substitute`` restriction,
    which must fold to a constant; the least variable it leaves raises
    ``MissingAssignmentError``."""
    out = substitute(formula, assignment)
    if not isinstance(out, Const):
        raise MissingAssignmentError(min(variables(out)))
    return out.value


def variables(formula: Formula) -> frozenset[int]:
    """Set of variable ids occurring in the formula."""
    out: set[int] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.id)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Cnf):
            out.update(map(abs, itertools.chain.from_iterable(node.clauses)))
    return frozenset(out)


def equivalent(
    phi: Formula,
    psi: Formula,
    vars: Iterable[int] | None = None,
    cap: int = EQUIVALENCE_VAR_CAP,
) -> bool:
    """Truth-table equivalence of two formulas over a shared variable set."""
    if vars is None:
        ids = sorted(variables(phi) | variables(psi))
    else:
        ids = sorted(dict.fromkeys(vars))
        missing = (variables(phi) | variables(psi)) - set(ids)
        if missing:
            raise ValueError(f"vars does not cover the formulas: missing {sorted(missing)}")
    if len(ids) > cap:
        raise CapExceededError(f"equivalence check over {len(ids)} variables exceeds cap {cap}")
    return truth_table(phi, ids) == truth_table(psi, ids)
