"""Benchmark generator tests.

KBKF expectations (falseness, sizes, the per-level symmetry) were
derived with the strategy-semantics oracle and frozen; random-generator
tests pin determinism and the planted-symmetry ground truth.
"""

import random

import pytest

from qsymbreak.benchmarks import (
    gen_kbkf,
    gen_planted_qbf,
    gen_random_qbf,
    kbkf_level_symmetry,
)
from qsymbreak.detect import brute_force_symmetries, detect_symmetries
from qsymbreak.errors import ValidationError
from qsymbreak.groups import group_closure, is_syntactic_symmetry
from qsymbreak.qdimacs import EXISTS, FORALL, parse_qdimacs, serialize_qdimacs
from qsymbreak.strategies import TRUTH_VAR_CAP, qbf_truth


def test_kbkf_one_level_frozen():
    inst = gen_kbkf(1)
    assert [(b.quantifier, b.variables) for b in inst.prefix.blocks] == [
        (EXISTS, (1, 2)),
        (FORALL, (3,)),
        (EXISTS, (4,)),
    ]
    assert inst.clauses == (
        (-1, -2),
        (1, 3, -4),
        (2, -3, -4),
        (3, 4),
        (-3, 4),
    )


def test_kbkf_two_levels_frozen():
    inst = gen_kbkf(2)
    assert [(b.quantifier, b.variables) for b in inst.prefix.blocks] == [
        (EXISTS, (1, 2)),
        (FORALL, (3,)),
        (EXISTS, (4, 5)),
        (FORALL, (6,)),
        (EXISTS, (7, 8)),
    ]
    assert inst.clauses == (
        (-1, -2),
        (1, 3, -4, -5),
        (2, -3, -4, -5),
        (4, 6, -7, -8),
        (5, -6, -7, -8),
        (3, 7),
        (-3, 7),
        (6, 8),
        (-6, 8),
    )


def test_kbkf_size_is_linear():
    for t in range(1, 9):
        inst = gen_kbkf(t)
        assert inst.n_vars == 4 * t
        assert len(inst.clauses) == 4 * t + 1


def test_kbkf_rejects_zero_levels():
    with pytest.raises(ValidationError):
        gen_kbkf(0)


def test_kbkf_is_false():
    # known property of the family, checked here by the game semantics
    for t in range(1, 5):
        assert qbf_truth(gen_kbkf(t)) is False


def test_kbkf_level_symmetry_is_syntactic():
    for t in range(1, 5):
        for level in range(1, t + 1):
            g = kbkf_level_symmetry(t, level)
            assert not g.is_identity
            assert is_syntactic_symmetry(g, gen_kbkf(t))
    with pytest.raises(ValidationError):
        kbkf_level_symmetry(2, 3)


def test_kbkf_detector_finds_nontrivial_generator():
    for t in range(1, 5):
        result = detect_symmetries(gen_kbkf(t))
        assert result.complete
        assert len(result.generators) >= 1


def test_kbkf_detected_group_contains_level_symmetries():
    result = detect_symmetries(gen_kbkf(2))
    closure = group_closure(result.generators)
    assert kbkf_level_symmetry(2, 1) in closure
    assert kbkf_level_symmetry(2, 2) in closure


def test_random_same_seed_same_bytes():
    a = serialize_qdimacs(gen_random_qbf(7, 8, 12))
    b = serialize_qdimacs(gen_random_qbf(7, 8, 12))
    assert a == b
    pa, ga = gen_planted_qbf(9, 6, 8, "ae")
    pb, gb = gen_planted_qbf(9, 6, 8, "ae")
    assert serialize_qdimacs(pa) == serialize_qdimacs(pb)
    assert ga == gb


def test_planted_flag_matches_planted_generator():
    flagged = gen_random_qbf(11, 6, 9, "ea", planted=True)
    explicit, _ = gen_planted_qbf(11, 6, 9, "ea")
    assert serialize_qdimacs(flagged) == serialize_qdimacs(explicit)


def test_pattern_block_layout():
    inst = gen_random_qbf(1, 5, 4, "a2e3")
    assert [(b.quantifier, b.variables) for b in inst.prefix.blocks] == [
        (FORALL, (1, 2)),
        (EXISTS, (3, 4, 5)),
    ]
    inst = gen_random_qbf(1, 5, 4, "ea")
    assert [(b.quantifier, b.variables) for b in inst.prefix.blocks] == [
        (EXISTS, (1, 2, 3)),
        (FORALL, (4, 5)),
    ]
    inst = gen_random_qbf(1, 7, 4, "eae")
    assert [b.variables for b in inst.prefix.blocks] == [(1, 2, 3), (4, 5), (6, 7)]
    inst = gen_random_qbf(1, 4, 4, "a4")
    assert [(b.quantifier, b.variables) for b in inst.prefix.blocks] == [
        (FORALL, (1, 2, 3, 4)),
    ]


def test_infeasible_parameters_are_rejected():
    for seed, n, m, pattern in [
        (1, 5, 4, "a2e2"),   # sizes sum to 4, not 5
        (1, 4, 4, ""),
        (1, 3, 4, "x2"),
        (1, 4, 4, "a0e4"),
        (1, 1, 4, "ea"),     # two blocks cannot share one variable
        (1, 0, 4, "e"),
        (1, TRUTH_VAR_CAP + 1, 4, "e"),
        (1, 4, -1, "e"),
    ]:
        with pytest.raises(ValidationError):
            gen_random_qbf(seed, n, m, pattern)


def test_random_clause_shape():
    inst = gen_random_qbf(23, 6, 30)
    assert 0 < len(inst.clauses) <= 30
    assert len(set(inst.clauses)) == len(inst.clauses)
    for clause in inst.clauses:
        assert 1 <= len(clause) <= 3
        assert len({abs(l) for l in clause}) == len(clause)
        assert all(1 <= abs(l) <= 6 for l in clause)


def test_planted_generator_is_always_syntactic():
    rng = random.Random(5)
    patterns = ["ea", "ae", "eae", "aea", "e"]
    for i in range(30):
        n = rng.randint(3, 10)
        m = rng.randint(1, 12)
        inst, g = gen_planted_qbf(rng.randrange(10**6), n, m, patterns[i % 5])
        assert not g.is_identity
        assert is_syntactic_symmetry(g, inst)
        assert inst.comments and inst.comments[0].startswith("planted symmetry: ")


def test_planted_generator_found_by_brute_force():
    rng = random.Random(6)
    for i in range(12):
        n = rng.randint(2, 6)
        inst, g = gen_planted_qbf(rng.randrange(10**6), n, rng.randint(1, 8), "ea")
        assert g in brute_force_symmetries(inst)


def test_generated_instances_round_trip():
    instances = [gen_kbkf(t) for t in range(1, 6)]
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 12)
        instances.append(
            gen_random_qbf(
                rng.randrange(10**6),
                n,
                rng.randint(0, 15),
                "e" if n == 1 else "ea",
                planted=rng.random() < 0.5 and n > 1,
            )
        )
    for inst in instances:
        again = parse_qdimacs(serialize_qdimacs(inst))
        assert again == inst
        assert again.comments == inst.comments
