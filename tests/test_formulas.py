"""Formula construction, evaluation, substitution and equivalence checking."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymbreak.errors import CapExceededError, MissingAssignmentError
from qsymbreak.formulas import (
    FALSE,
    TRUE,
    And,
    Cnf,
    Const,
    Not,
    Or,
    Var,
    clauses_to_formula,
    conj,
    cubes_to_formula,
    disj,
    equivalent,
    evaluate,
    literal,
    substitute,
    truth_table,
    variables,
)
from qsymbreak.qdimacs import QbfInstance
from qsymbreak.strategies import qbf_truth

import oracles

x, y, z = Var(1), Var(2), Var(3)


def test_evaluate_iff_identity():
    assert evaluate(oracles.iff(Var(1), Var(2)), {1: True, 2: True}) is True


def test_evaluate_constant_disjunction():
    assert evaluate(Or((FALSE, TRUE)), {}) is True


def test_evaluate_falsified_conjunct():
    # (x <-> a) and (y <-> b) with x=T, y=F, a=T, b=T: second conjunct fails
    phi = And((oracles.iff(Var(1), Var(3)), oracles.iff(Var(2), Var(4))))
    assert evaluate(phi, {1: True, 2: False, 3: True, 4: True}) is False


def test_evaluate_missing_variable_raises():
    with pytest.raises(MissingAssignmentError):
        evaluate(And((x, y)), {1: True})
    with pytest.raises(MissingAssignmentError, match="variable 2"):
        evaluate(clauses_to_formula([(1, -2)]), {1: False})
    # a variable outside the assignment that folds away is accepted, in
    # either child order, as qbf_truth accepts it
    x9 = Var(9)
    assert evaluate(And((x9, FALSE)), {}) is False
    assert evaluate(And((FALSE, x9)), {}) is False
    assert evaluate(Or((x9, TRUE)), {}) is True
    with pytest.raises(MissingAssignmentError, match="variable 9") as info:
        evaluate(And((x9, TRUE)), {})
    assert info.value.var == 9


def test_substitute_iff_collapses_to_other_side():
    result = substitute(oracles.iff(Var(1), Var(2)), {1: True})
    assert 1 not in variables(result)
    assert equivalent(result, Var(2), vars=[2])


def test_substitute_empty_is_identity():
    phi = Or((And((x, Not(y))), oracles.xor(y, z)))
    assert substitute(phi, {}) == phi


def test_substitute_folds_derived_example():
    # ((x or y) and (not x or z)) with x=F reduces to y
    phi = And((Or((x, y)), Or((Not(x), z))))
    result = substitute(phi, {1: False})
    assert 1 not in variables(result)
    assert equivalent(result, y, vars=[2, 3])


def test_equivalent_commutativity():
    assert equivalent(And((x, y)), And((y, x)), vars=[1, 2])


def test_equivalent_negation_differs():
    assert not equivalent(x, Not(x), vars=[1])


def test_equivalent_xor_twist_preserves_matrix():
    # vars: x=1, y=2, a=3, b=4; map y to x xor y and b to a xor b
    phi = And((oracles.iff(Var(1), Var(3)), oracles.iff(Var(2), Var(4))))
    twisted = And(
        (
            oracles.iff(Var(1), Var(3)),
            oracles.iff(oracles.xor(Var(1), Var(2)), oracles.xor(Var(3), Var(4))),
        )
    )
    assert equivalent(phi, twisted, vars=[1, 2, 3, 4])


def test_equivalent_variable_cap():
    # the pair differs on the first row, so passing the cap costs one row
    wide = Or(tuple(Var(i) for i in range(1, 22)))
    with pytest.raises(CapExceededError):
        equivalent(wide, Not(wide))
    assert equivalent(wide, Not(wide), cap=21) is False


def test_equivalent_rejects_uncovered_vars():
    with pytest.raises(ValueError):
        equivalent(And((x, y)), x, vars=[1])


def _random_terms(rng, n):
    """Random term list over 1..n, with empty, unit and tautological terms."""
    terms = []
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.1:
            terms.append(())
        elif roll < 0.25:
            v = rng.randint(1, n)
            terms.append((v, -v, rng.choice((1, -1)) * rng.randint(1, n)))
        else:
            width = 1 if roll < 0.4 else rng.randint(2, 3)
            terms.append(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)))
    return terms


def test_term_lists_agree_with_literal_trees():
    rng = random.Random(4242)
    for _ in range(400):
        n = rng.randint(1, 5)
        prefix = oracles.random_prefix(rng, n)
        ids = list(prefix.variables)
        clauses, cubes = _random_terms(rng, n), _random_terms(rng, n)
        cnf, dnf = clauses_to_formula(clauses), cubes_to_formula(cubes)
        cases = (
            (cnf, conj(disj(literal(l) for l in c) for c in clauses)),
            (dnf, disj(conj(literal(l) for l in c) for c in cubes)),
        )
        for node, tree in cases:
            assert variables(node) == variables(tree)
            total = oracles.random_assignment(rng, ids)
            assert evaluate(node, total) == oracles.evaluate(tree, total)
            partial = {v: total[v] for v in ids if rng.random() < 0.5}
            reduced = substitute(node, partial)
            assert variables(reduced).isdisjoint(partial)
            rest = {v: total[v] for v in ids if v not in partial}
            assert oracles.evaluate(reduced, rest) == oracles.evaluate(tree, total)
            assert qbf_truth((prefix, node)) == qbf_truth((prefix, tree))
        assert qbf_truth((prefix, cnf)) == oracles.brute_qbf_truth(QbfInstance(prefix, clauses))
        # a DNF is a negated CNF of negated cubes under the flipped prefix
        negated = tuple(tuple(-l for l in cube) for cube in cubes)
        assert qbf_truth((prefix, dnf)) != oracles.brute_qbf_truth(
            QbfInstance(prefix.flipped(), negated)
        )


def test_term_lists_reject_literal_zero():
    for build in (clauses_to_formula, cubes_to_formula):
        with pytest.raises(ValueError, match="literal 0"):
            build([(2,), (-1, 0)])


def test_raw_clause_nodes_fold_under_substitution():
    assert substitute(Cnf(()), {}) == TRUE
    assert substitute(Cnf(((1,), ())), {}) == FALSE
    assert substitute(Cnf(((1, -2), (2, 3))), {2: True}) == Cnf(((1,),))


def test_substitute_then_evaluate_bulk():
    rng = random.Random(20240817)
    ids = list(range(1, 13))
    for _ in range(1000):
        phi = oracles.random_formula(rng, ids, depth=4)
        total = oracles.random_assignment(rng, ids)
        fixed = {v: total[v] for v in ids if rng.random() < 0.5}
        reduced = substitute(phi, fixed)
        assert variables(reduced).isdisjoint(fixed)
        rest = {v: total[v] for v in ids if v not in fixed}
        assert oracles.evaluate(reduced, rest) == oracles.evaluate(phi, total)


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(99)
    ids = [1, 2, 3, 4]
    for _ in range(200):
        f = oracles.random_formula(rng, ids)
        g = oracles.random_formula(rng, ids)
        h = oracles.random_formula(rng, ids)
        assert equivalent(f, f, vars=ids)
        assert equivalent(f, g, vars=ids) == equivalent(g, f, vars=ids)
        if equivalent(f, g, vars=ids) and equivalent(g, h, vars=ids):
            assert equivalent(f, h, vars=ids)
        # non-vacuous transitivity: chain three syntactic variants of f
        g2 = Not(Not(f))
        h2 = And((f, f))
        assert equivalent(f, g2, vars=ids) and equivalent(g2, h2, vars=ids)
        assert equivalent(f, h2, vars=ids)


def test_de_morgan_table():
    rng = random.Random(7)
    ids = [1, 2, 3]
    for _ in range(100):
        f = oracles.random_formula(rng, ids)
        g = oracles.random_formula(rng, ids)
        for values in itertools.product((False, True), repeat=len(ids)):
            sigma = dict(zip(ids, values))
            expected = oracles.evaluate(Or((Not(f), Not(g))), sigma)
            assert evaluate(Not(And((f, g))), sigma) == expected


def node_kinds(formula):
    kinds, stack = set(), [formula]
    while stack:
        node = stack.pop()
        kinds.add(type(node))
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
    return kinds


def test_truth_table_matches_the_oracle_bit_by_bit():
    rng = random.Random(61)
    seen = set()
    for _ in range(300):
        ids = list(range(1, rng.randint(1, 5) + 1))
        clauses = oracles.random_clauses(rng, len(ids), rng.randint(0, 4))
        if rng.random() < 0.1:
            clauses.append(())
        cnf, other = Cnf(tuple(clauses)), oracles.random_formula(rng, ids)
        formula = rng.choice(
            (And((other, cnf)), oracles.implies(cnf, other), oracles.xor(other, cnf), cnf)
        )
        seen |= node_kinds(formula)
        # one variable the formula may not mention, anywhere in the order
        order = ids + [len(ids) + 1]
        rng.shuffle(order)
        table = truth_table(formula, order)
        rows = oracles.truth_table(formula, order)
        assert table >> len(rows) == 0
        assert all((table >> p & 1) == row for p, row in enumerate(rows))
        # and the restriction to each play folds to the same value
        plays = itertools.product((False, True), repeat=len(order))
        assert [evaluate(formula, dict(zip(order, play))) for play in plays] == list(rows)
    assert seen == {Const, Var, Not, And, Or, Cnf}


def test_truth_table_over_an_empty_order():
    assert truth_table(TRUE, ()) == 1 and truth_table(FALSE, []) == 0
    assert truth_table(Cnf(()), ()) == 1 and truth_table(Cnf(((),)), ()) == 0
    # unfolded constants are evaluated, not folded away first
    assert truth_table(And((TRUE, Not(FALSE))), ()) == 1
    assert truth_table(oracles.xor(TRUE, Not(FALSE)), ()) == 0


def test_truth_table_rejects_a_variable_outside_the_order():
    with pytest.raises(MissingAssignmentError, match="variable 3") as info:
        truth_table(Or((x, Cnf(((2, -3),)))), [2, 1])
    assert info.value.var == 3
    with pytest.raises(MissingAssignmentError, match="variable 1"):
        truth_table(x, ())


def test_truth_table_rejects_an_order_that_repeats_a_variable():
    # a second copy of x1 would own another bit of the play and win
    with pytest.raises(ValueError, match="repeats variable 1"):
        truth_table(x, (1, 1))
    with pytest.raises(ValueError, match="repeats variable 2"):
        truth_table(Or((x, y)), [2, 1, 3, 2])


@st.composite
def formula_strategy(draw, max_var=6, depth=4):
    # only leaf kinds at depth 0, so no draw is deeper than `depth`
    node = draw(st.integers(0, 7 if depth else 2))
    if node == 0:
        return Var(draw(st.integers(1, max_var)))
    if node == 1:
        return TRUE if draw(st.booleans()) else FALSE
    if node == 2:
        lits = st.sampled_from([l for l in range(-max_var, max_var + 1) if l])
        clauses = draw(st.lists(st.lists(lits, max_size=3), max_size=3))
        return Cnf(tuple(map(tuple, clauses)))
    child = formula_strategy(max_var=max_var, depth=depth - 1)
    if node == 3:
        return Not(draw(child))
    if node in (4, 5):
        kids = tuple(draw(child) for _ in range(draw(st.integers(2, 3))))
        return And(kids) if node == 4 else Or(kids)
    return (oracles.iff, oracles.xor)[node - 6](draw(child), draw(child))


@settings(max_examples=150, deadline=None)
@given(formula_strategy(), st.dictionaries(st.integers(1, 6), st.booleans()))
def test_substitute_removes_domain_and_preserves_value(phi, fixed):
    reduced = substitute(phi, fixed)
    assert variables(reduced).isdisjoint(fixed)
    for rest in oracles.itertools.product((False, True), repeat=6):
        total = dict(zip(range(1, 7), rest))
        total.update(fixed)
        trimmed = {v: b for v, b in total.items() if v not in fixed}
        assert oracles.evaluate(reduced, trimmed) == oracles.evaluate(phi, total)
        break  # one extension is enough per example; bulk loop above covers more
