"""Strategy trees, enumeration, truth oracle, common paths, semantic orbits."""

import itertools
import random

import pytest

from qsymbreak.errors import CapExceededError, ValidationError
from qsymbreak.formulas import TRUE, And, Not, Or, Var
from qsymbreak import strategies
from qsymbreak.groups import AdmissibleMap, SignedPermutation
from qsymbreak.qdimacs import EXISTS, FORALL, Prefix, QbfInstance
from qsymbreak.strategies import (
    EXISTENTIAL,
    UNIVERSAL,
    Strategy,
    common_path,
    count_strategies,
    enumerate_strategies,
    orbit_classes,
    qbf_truth,
    random_strategy,
    semantic_orbits,
    strategy_value,
)

import oracles

PREFIX_AE = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2])])
IFF_12 = QbfInstance(prefix=PREFIX_AE, clauses=((-1, 2), (1, -2)))

PREFIX_XYZ = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])])
INSTANCE_XYZ = QbfInstance(prefix=PREFIX_XYZ, clauses=((-2, 3), (2, -3)))
SWAP_YZ = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
NEGATE_YZ = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})


def test_strategy_counts_for_two_level_prefix():
    assert count_strategies(PREFIX_AE, EXISTENTIAL) == 4
    assert count_strategies(PREFIX_AE, UNIVERSAL) == 2


def test_single_existential_variable_has_unique_universal_tree():
    prefix = Prefix.from_pairs([(EXISTS, [1])])
    assert count_strategies(prefix, UNIVERSAL) == 1
    assert count_strategies(prefix, EXISTENTIAL) == 2


def test_enumerate_the_four_existential_trees():
    got = list(enumerate_strategies(PREFIX_AE, EXISTENTIAL))
    labels = [(s.label(2, (False,)), s.label(2, (True,))) for s in got]
    assert labels == [(False, False), (False, True), (True, False), (True, True)]
    assert len(set(got)) == 4


def test_label_reads_the_tables_it_was_built_from():
    rng = random.Random(3)
    for _ in range(100):
        prefix = oracles.random_prefix(rng, rng.randint(1, 5))
        for role in (EXISTENTIAL, UNIVERSAL):
            s = random_strategy(prefix, role, rng)
            tables, before = {}, 0
            for v in prefix.variables:
                if prefix.quantifier_of(v) == role:
                    histories = itertools.product((False, True), repeat=before)
                    tables[v] = {h: s.label(v, h) for h in histories}
                else:
                    before += 1
            assert Strategy.from_tables(prefix, role, tables) == s


def test_label_rejects_unowned_variables_and_bad_histories():
    s = next(enumerate_strategies(PREFIX_AE, EXISTENTIAL))
    with pytest.raises(ValidationError):
        s.label(1, ())
    with pytest.raises(ValidationError):
        s.label(2, ())
    with pytest.raises(ValidationError):
        s.label(2, (False, True))
    with pytest.raises(ValidationError):
        Strategy.from_tables(PREFIX_AE, EXISTENTIAL, {2: {(False,): True}})


def test_enumerate_single_variable_trees():
    prefix = Prefix.from_pairs([(EXISTS, [1])])
    got = list(enumerate_strategies(prefix, EXISTENTIAL))
    assert [s.paths for s in got] == [({1: False},), ({1: True},)]


def test_enumeration_length_matches_count():
    rng = random.Random(61)
    for _ in range(50):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        for role in (EXISTENTIAL, UNIVERSAL):
            count = count_strategies(prefix, role)
            assert sum(1 for _ in enumerate_strategies(prefix, role)) == count


def test_enumeration_cap_names_the_count():
    prefix = Prefix.from_pairs([(FORALL, list(range(1, 6))), (EXISTS, [6])])
    with pytest.raises(CapExceededError, match="4294967296"):
        list(enumerate_strategies(prefix, EXISTENTIAL, cap=2**20))


def test_copy_strategy_wins_iff_game():
    copy = Strategy.from_tables(
        PREFIX_AE, EXISTENTIAL, {2: {(False,): False, (True,): True}}
    )
    assert strategy_value(IFF_12, copy) is True


def test_constant_true_strategy_loses_iff_game():
    const = Strategy.from_tables(
        PREFIX_AE, EXISTENTIAL, {2: {(False,): True, (True,): True}}
    )
    assert strategy_value(IFF_12, const) is False


def test_strategy_value_accepts_formula_targets():
    copy = Strategy.from_tables(
        PREFIX_AE, EXISTENTIAL, {2: {(False,): False, (True,): True}}
    )
    assert strategy_value((PREFIX_AE, oracles.iff(Var(1), Var(2))), copy) is True


def test_strategy_value_rejects_prefix_mismatch():
    other = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])])
    s = next(enumerate_strategies(other, EXISTENTIAL))
    with pytest.raises(ValidationError):
        strategy_value(IFF_12, s)


def test_conjunction_distributes_over_existential_value():
    rng = random.Random(1009)
    ids = [1, 2, 3]
    for _ in range(1000):
        prefix = oracles.random_prefix(rng, 3)
        phi = oracles.random_formula(rng, ids)
        psi = oracles.random_formula(rng, ids)
        s = random_strategy(prefix, EXISTENTIAL, rng)
        t = random_strategy(prefix, UNIVERSAL, rng)
        both = And((phi, psi))
        assert strategy_value((prefix, both), s) == (
            strategy_value((prefix, phi), s) and strategy_value((prefix, psi), s)
        )
        either = Or((phi, psi))
        assert strategy_value((prefix, either), t) == (
            strategy_value((prefix, phi), t) or strategy_value((prefix, psi), t)
        )


def test_random_strategy_is_pinned_for_a_seed():
    prefix = Prefix.from_pairs(
        [(EXISTS, [1]), (FORALL, [2]), (EXISTS, [3]), (FORALL, [4]), (EXISTS, [5])]
    )
    rng = random.Random(7)
    # labels run over the owned variables in prefix order, histories in
    # lexicographic order: x1 at (); x3 at F, T; x5 at FF, FT, TF, TT
    assert random_strategy(prefix, EXISTENTIAL, rng).labels == (
        True, True, False, True, False, True, True,
    )
    assert random_strategy(prefix, UNIVERSAL, rng).labels == (
        False, True, True, True, True, True,
    )


def test_truth_of_iff_games():
    assert qbf_truth(IFF_12) is True
    flipped = QbfInstance(
        prefix=Prefix.from_pairs([(EXISTS, [1]), (FORALL, [2])]),
        clauses=((-1, 2), (1, -2)),
    )
    assert qbf_truth(flipped) is False


def test_truth_of_empty_prefix_true_matrix():
    assert qbf_truth(QbfInstance(prefix=Prefix(), clauses=())) is True
    assert qbf_truth((Prefix(), TRUE)) is True


def test_truth_cap():
    prefix = Prefix.from_pairs([(EXISTS, list(range(1, 26)))])
    with pytest.raises(CapExceededError):
        qbf_truth(QbfInstance(prefix=prefix, clauses=((1,),)))


# innermost variables evaluated as one table: none (the recursion splits
# every variable), one, a hand-off inside desk-scale prefixes, and the default
TABLE_VARS_CASES = (0, 1, 3, strategies.TABLE_VARS)


def test_truth_matches_unpruned_oracle(monkeypatch):
    # an instance and its (prefix, formula) pair are one target
    for table_vars in TABLE_VARS_CASES:
        monkeypatch.setattr(strategies, "TABLE_VARS", table_vars)
        rng = random.Random(512)
        for _ in range(150):
            inst = oracles.random_instance(rng, rng.randint(1, 6), rng.randint(0, 8))
            expected = oracles.brute_qbf_truth(inst)
            assert qbf_truth(inst) == expected, table_vars
            assert qbf_truth((inst.prefix, inst.to_formula())) == expected, table_vars


def test_empty_clause_is_false():
    assert qbf_truth(QbfInstance(prefix=Prefix(), clauses=((),))) is False
    assert qbf_truth(QbfInstance(prefix=PREFIX_AE, clauses=((1, 2), ()))) is False


def test_formula_outside_the_prefix_is_rejected(monkeypatch):
    # on both sides of the hand-off from the recursion to the table, also
    # where x1 = false settles the value before the recursion reaches x3
    prefix_ea = Prefix.from_pairs([(EXISTS, [1]), (FORALL, [2])])
    for table_vars in TABLE_VARS_CASES:
        monkeypatch.setattr(strategies, "TABLE_VARS", table_vars)
        with pytest.raises(ValidationError, match="outside the prefix"):
            qbf_truth((PREFIX_AE, oracles.iff(Var(1), Var(3))))
        with pytest.raises(ValidationError, match="outside the prefix"):
            qbf_truth((prefix_ea, Or((Not(Var(1)), Var(3)))))


def test_common_path_forced_intersection():
    copy = Strategy.from_tables(
        PREFIX_AE, EXISTENTIAL, {2: {(False,): False, (True,): True}}
    )
    play_false = Strategy.from_tables(PREFIX_AE, UNIVERSAL, {1: {(): False}})
    assert common_path(copy, play_false) == {1: False, 2: False}


def test_common_path_single_existential():
    prefix = Prefix.from_pairs([(EXISTS, [1])])
    s = Strategy.from_tables(prefix, EXISTENTIAL, {1: {(): True}})
    t = next(enumerate_strategies(prefix, UNIVERSAL))
    assert common_path(s, t) == s.paths[0]


def test_common_path_is_a_path_of_both():
    rng = random.Random(8128)
    for _ in range(300):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        s = random_strategy(prefix, EXISTENTIAL, rng)
        t = random_strategy(prefix, UNIVERSAL, rng)
        sigma = common_path(s, t)
        assert sigma in s.paths
        assert sigma in t.paths


def test_common_path_argument_order_enforced():
    s = next(enumerate_strategies(PREFIX_AE, EXISTENTIAL))
    t = next(enumerate_strategies(PREFIX_AE, UNIVERSAL))
    with pytest.raises(ValidationError):
        common_path(t, s)


def test_example_orbits_split_by_equality_pattern():
    orbits = semantic_orbits(PREFIX_XYZ, [SWAP_YZ, NEGATE_YZ])
    assert len(orbits) == 4
    assert sorted(len(o) for o in orbits) == [4, 4, 4, 4]
    # each orbit is characterized by which branches pick equal values
    def signature(s):
        return (
            s.label(2, (False,)) == s.label(3, (False,)),
            s.label(2, (True,)) == s.label(3, (True,)),
        )

    for orbit in orbits:
        assert len({signature(s) for s in orbit}) == 1
    assert {signature(o[0]) for o in orbits} == {
        (True, True),
        (True, False),
        (False, True),
        (False, False),
    }


def test_identity_generators_give_singleton_orbits():
    identity = SignedPermutation.identity([1, 2])
    orbits = semantic_orbits(PREFIX_AE, [identity])
    assert len(orbits) == count_strategies(PREFIX_AE, EXISTENTIAL)
    assert all(len(o) == 1 for o in orbits)
    assert len(semantic_orbits(PREFIX_AE, [])) == 4


def test_orbit_references_reject_an_inadmissible_map():
    # x3 -> x2 with x1 and x2 fixed is no bijection of the plays, so it does
    # not split them into orbits: the reference and the engine used to count
    # 4 orbits and 9 classes; both now raise, as verify_breaker does
    copy = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: Var(2)})
    with pytest.raises(ValidationError, match="inadmissible"):
        semantic_orbits(PREFIX_XYZ, [copy])
    with pytest.raises(ValidationError, match="inadmissible"):
        orbit_classes(PREFIX_XYZ, [copy], EXISTENTIAL, 0)
    # a cross-block swap is refused too; an admissible map still counts
    cross_block = SignedPermutation.from_dict({1: 2, 2: 1, 3: 3})
    with pytest.raises(ValidationError, match="inadmissible"):
        semantic_orbits(PREFIX_XYZ, [cross_block])
    with pytest.raises(ValidationError, match="inadmissible"):
        orbit_classes(PREFIX_XYZ, [cross_block], EXISTENTIAL, 0)
    zdd, classes, *_ = orbit_classes(PREFIX_XYZ, [SWAP_YZ], EXISTENTIAL, 0)
    assert zdd.count(classes) == len(semantic_orbits(PREFIX_XYZ, [SWAP_YZ]))


def test_orbit_sizes_sum_to_strategy_count():
    rng = random.Random(23)
    for _ in range(20):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        gens = [oracles.random_signed_perm(rng, prefix)]
        orbits = semantic_orbits(prefix, gens)
        assert sum(len(o) for o in orbits) == count_strategies(prefix, EXISTENTIAL)


def test_orbits_match_literal_pairwise_relation():
    # cross-check the fingerprint shortcut against the relation spelled out
    # directly: s ~ s' iff both path sets map into each other under the group
    from qsymbreak.groups import group_closure

    rng = random.Random(67)
    for _ in range(10):
        prefix = oracles.random_prefix(rng, rng.randint(1, 3))
        gens = [oracles.random_signed_perm(rng, prefix)]
        group = group_closure(gens)
        strategies = list(enumerate_strategies(prefix, EXISTENTIAL))
        paths = {s: {tuple(sorted(p.items())) for p in s.paths} for s in strategies}

        def maps_into(a, b):
            return all(
                any(
                    tuple(sorted(g.apply_to_assignment(dict(p)).items())) in paths[b]
                    for g in group
                )
                for p in paths[a]
            )

        orbits = semantic_orbits(prefix, gens)
        index = {}
        for k, orbit in enumerate(orbits):
            for s in orbit:
                index[s] = k
        for a in strategies:
            for b in strategies:
                related = maps_into(a, b) and maps_into(b, a)
                assert related == (index[a] == index[b])


def test_orbits_are_winning_homogeneous_on_symmetric_instances():
    rng = random.Random(4242)
    for _ in range(15):
        inst, g = oracles.planted_instance(rng, rng.randint(2, 4), rng.randint(1, 4))
        orbits = semantic_orbits(inst.prefix, [g])
        for orbit in orbits:
            values = {strategy_value(inst, s) for s in orbit}
            assert len(values) == 1


def test_mutual_consistency_of_strategy_truth():
    rng = random.Random(1717)
    for _ in range(30):
        inst = oracles.random_instance(rng, rng.randint(1, 4), rng.randint(0, 6))
        exists_win = any(
            strategy_value(inst, s)
            for s in enumerate_strategies(inst.prefix, EXISTENTIAL)
        )
        all_universal_true = all(
            strategy_value(inst, t)
            for t in enumerate_strategies(inst.prefix, UNIVERSAL)
        )
        assert exists_win == all_universal_true
        assert qbf_truth(inst) == exists_win
