"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line (visible with -s or on
failure) and enforces the stated tolerance exactly: the percentages are
all-or-nothing and criterion 1 carries its time budget.  Corpora are
seeded, so every run checks the same instances.
"""

import itertools
import random
import time

import pytest

import oracles
from qsymbreak.benchmarks import gen_kbkf, kbkf_level_symmetry
from qsymbreak.breakers import (
    BreakerFormula,
    augment_instance,
    augmented_formula,
    encode_both,
    encode_existential_cnf,
    lex_leader_formula,
    universal_lex_leader_formula,
    verify_breaker,
)
from qsymbreak.detect import brute_force_symmetries, detect_symmetries
from qsymbreak.formulas import And, Not, Or, Var
from qsymbreak.groups import SignedPermutation, group_closure, is_syntactic_symmetry
from qsymbreak.qdimacs import EXISTS, FORALL, Prefix, QbfInstance
from qsymbreak.strategies import (
    EXISTENTIAL,
    UNIVERSAL,
    common_path,
    count_strategies,
    enumerate_strategies,
    qbf_truth,
    random_strategy,
    semantic_orbits,
    strategy_value,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(20260819)
    return [
        oracles.random_instance(rng, rng.randint(1, 6), rng.randint(0, 8))
        for _ in range(500)
    ]


@pytest.fixture(scope="session")
def planted_corpus():
    # n <= 7 keeps instance plus both chain encodings inside the truth cap
    rng = random.Random(4242)
    out = []
    for _ in range(200):
        n = rng.randint(2, 7)
        out.append(oracles.planted_instance(rng, n, rng.randint(1, n)))
    return out


def test_criterion_01_truth_oracles_agree(random_corpus):
    started = time.monotonic()
    checked = 0
    for inst in random_corpus:
        if any(
            count_strategies(inst.prefix, role) > 2**12
            for role in (EXISTENTIAL, UNIVERSAL)
        ):
            continue
        checked += 1
        recursive = qbf_truth(inst)
        exists_win = any(
            strategy_value(inst, s)
            for s in enumerate_strategies(inst.prefix, EXISTENTIAL)
        )
        forall_win = any(
            not strategy_value(inst, t)
            for t in enumerate_strategies(inst.prefix, UNIVERSAL)
        )
        assert exists_win == recursive
        assert forall_win == (not recursive)
    elapsed = time.monotonic() - started
    report(
        1,
        "recursive truth equals strategy-enumeration truth",
        checked >= 400 and elapsed < 60,
        f"{checked}/500 instances under the 2^12 cap, {elapsed:.1f}s",
    )


def test_criterion_02_truth_invariant_under_admissible_maps():
    rng = random.Random(777)
    for _ in range(200):
        inst = oracles.random_instance(rng, rng.randint(1, 12), rng.randint(0, 12))
        g = oracles.random_signed_perm(rng, inst.prefix)
        mapped = QbfInstance(
            prefix=inst.prefix, clauses=g.apply_to_clauses(inst.clauses)
        )
        assert qbf_truth(mapped) == qbf_truth(inst)
    report(2, "admissible signed permutations preserve truth", True, "200 pairs")


def test_criterion_03_augmentation_preserves_truth(planted_corpus):
    for inst, g in planted_corpus:
        base = qbf_truth(inst)
        phi = inst.to_formula()
        psi_e = lex_leader_formula(inst.prefix, [g]).formula
        psi_u = universal_lex_leader_formula(inst.prefix, [g]).formula
        assert qbf_truth((inst.prefix, And((phi, psi_e)))) == base
        assert qbf_truth((inst.prefix, Or((phi, psi_u)))) == base
        assert qbf_truth((inst.prefix, And((Or((phi, psi_u)), psi_e)))) == base

        enc_e, enc_u = encode_both(inst.prefix, [g])
        conjoined, _ = augment_instance(inst, enc_e, "conjoin-cnf")
        assert qbf_truth(conjoined) == base
        assert qbf_truth(augmented_formula(inst, universal=enc_u)) == base
        assert qbf_truth(augmented_formula(inst, enc_e, enc_u)) == base
    report(
        3,
        "conjoined, disjoined and combined breakers preserve truth",
        True,
        "200 planted instances, formula-level and Tseitin",
    )


def test_criterion_04_breaker_polarities(random_corpus, planted_corpus):
    rng = random.Random(31)
    count = 0
    for inst in itertools.chain(random_corpus, (p[0] for p in planted_corpus)):
        g = oracles.random_involution(rng, inst.prefix)
        psi_e = lex_leader_formula(inst.prefix, [g])
        psi_u = universal_lex_leader_formula(inst.prefix, [g])
        assert qbf_truth((inst.prefix, psi_e.formula)) is True
        assert qbf_truth((inst.prefix, psi_u.formula)) is False
        count += 1
    report(
        4,
        "existential breakers are true QBFs, universal breakers false",
        True,
        f"{count} instances",
    )


def test_criterion_05_verification_duality():
    rng = random.Random(55)
    outcomes = set()
    for i in range(100):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        g = oracles.random_involution(rng, prefix)
        if i % 3 == 2:
            # a random formula exercises the failing side of the duality
            psi = oracles.random_formula(rng, prefix.variables, depth=2)
        else:
            psi = lex_leader_formula(prefix, [g]).formula
        forward = verify_breaker(prefix, [g], psi).ok
        dual = verify_breaker(prefix.flipped(), [g], BreakerFormula(FORALL, Not(psi))).ok
        assert forward == dual
        outcomes.add(forward)
    report(
        5,
        "existential verification matches universal verification of the negation",
        outcomes == {True, False},
        "100 prefixes, both outcomes observed",
    )


def test_criterion_06_equality_gadget_orbits():
    prefix = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])])
    swap = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
    negate_both = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})
    orbits = semantic_orbits(prefix, [swap, negate_both])
    covering = verify_breaker(prefix, [swap, negate_both], Not(Var(2)))
    report(
        6,
        "the equality gadget has 4 orbits, all covered by the negated-y breaker",
        len(orbits) == 4
        and sorted(len(o) for o in orbits) == [4, 4, 4, 4]
        and covering.ok
        and covering.covered == 4,
        f"{len(orbits)} orbits, {covering.covered} covered",
    )


def test_criterion_07_strategy_counts():
    prefix = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2])])
    counts = (
        count_strategies(prefix, EXISTENTIAL),
        count_strategies(prefix, UNIVERSAL),
    )
    lengths = (
        sum(1 for _ in enumerate_strategies(prefix, EXISTENTIAL)),
        sum(1 for _ in enumerate_strategies(prefix, UNIVERSAL)),
    )
    report(
        7,
        "the two-variable game has 4 existential and 2 universal strategies",
        counts == (4, 2) and lengths == (4, 2),
        f"counts {counts}, enumerated {lengths}",
    )


def test_criterion_08_common_path():
    rng = random.Random(88)
    for _ in range(1000):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        s = random_strategy(prefix, EXISTENTIAL, rng)
        t = random_strategy(prefix, UNIVERSAL, rng)
        sigma = common_path(s, t)
        assert sigma in s.paths
        assert sigma in t.paths
    report(8, "existential and universal strategies share a path", True, "1000 pairs")


def test_criterion_09_detection_sound_and_complete():
    rng = random.Random(99)
    emitted = 0
    for _ in range(40):
        n = rng.randint(2, 8)
        inst, _ = oracles.planted_instance(rng, n, rng.randint(1, n))
        for g in detect_symmetries(inst).generators:
            assert is_syntactic_symmetry(g, inst)
            emitted += 1
    for _ in range(50):
        inst = oracles.random_instance(rng, rng.randint(1, 6), rng.randint(0, 6))
        detected = detect_symmetries(inst, budget=200_000)
        assert detected.complete
        reference = brute_force_symmetries(inst)
        identity = SignedPermutation.identity(inst.prefix.variables)
        ours = group_closure(list(detected.generators) + [identity])
        theirs = group_closure(list(reference) + [identity])
        assert ours == theirs
        assert detected.group_order == len(reference) + 1
    report(
        9,
        "detected generators are sound and complete at small scale",
        emitted > 0,
        f"{emitted} generators soundness-checked, 50 instances vs brute force",
    )


def test_criterion_10_kbkf_family():
    for t in range(1, 5):
        inst = gen_kbkf(t)
        assert qbf_truth(inst) is False
        assert len(detect_symmetries(inst).generators) >= 1
        g = kbkf_level_symmetry(t, 1)
        conjoined, _ = augment_instance(
            inst, encode_existential_cnf(inst.prefix, [g]), "conjoin-cnf"
        )
        assert qbf_truth(conjoined) is False
        if t <= 3:
            psi = lex_leader_formula(inst.prefix, [g]).formula
            target = (inst.prefix, And((inst.to_formula(), psi)))
            assert qbf_truth(target) is False
    report(
        10,
        "KBKF instances are false, symmetric, and stay false when broken",
        True,
        "levels 1..4",
    )
