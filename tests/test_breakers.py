"""Lex-leader breakers: formulas, encodings, augmentation, verification."""

import collections
import itertools
import random
from unittest import mock

import pytest

from qsymbreak import breakers, formulas, strategies
from qsymbreak.breakers import (
    BreakerFormula,
    BreakerReport,
    EncodedBreaker,
    augment_instance,
    augmented_formula,
    breaker_formula,
    encode_both,
    encode_existential_cnf,
    encode_universal_dnf,
    lex_leader_formula,
    project_chain,
    select_group_elements,
    universal_lex_leader_formula,
    verify_breaker,
)
from qsymbreak.benchmarks import gen_kbkf
from qsymbreak.detect import detect_symmetries
from qsymbreak.errors import CapExceededError, ValidationError
from qsymbreak.formulas import FALSE, TRUE, Not, Or, Var, equivalent, evaluate, truth_table
from qsymbreak.groups import (
    PLAY_VAR_CAP,
    AdmissibleMap,
    SignedPermutation,
    is_syntactic_symmetry,
    orbit_of_assignment,
)
from qsymbreak.qdimacs import (
    EXISTS,
    FORALL,
    Prefix,
    QbfInstance,
    parse_dnf,
    parse_qdimacs,
    serialize_dnf,
)
from qsymbreak.strategies import (
    count_strategies,
    enumerate_strategies,
    orbit_classes,
    qbf_truth,
    semantic_orbits,
    strategy_value,
)

import oracles

PREFIX_AEE = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])])
SWAP = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
NEGATE_BOTH = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})

# swapping x1, x2 and x3, x4 under forall x1 x2 exists x3 x4: the 2-cycle
# partners x2 and x4 tie when x1 and x3 do, so the chain walks x1 and x3
# only; the goal at x3 is written once per clause of the universal tie
# x1 <-> x2 in place of the one chain variable, which goes
PREFIX_AAEE = Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [3, 4])])
DOUBLE_SWAP = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3})
EXPECTED_DOUBLE_SWAP_CLAUSES = {(-1, -2, -3, 4), (1, 2, -3, 4)}

# with a third swap, of x5 and x6, the chain walks x1, x3 and x5: chain
# variable 7 records the universal tie x1 <-> x2 and guards the
# implication at x3, and the goal at x5 is written once per clause of the
# tie at x3 in place of the second chain variable
PREFIX_AAEEEE = Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [3, 4, 5, 6])])
TRIPLE_SWAP = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5})
EXPECTED_TRIPLE_SWAP_CLAUSES = {
    (-1, -2, 7),
    (1, 2, 7),
    (-3, 4, -7),
    (-3, -5, 6, -7),
    (4, -5, 6, -7),
}

# a 4-cycle in each block: the last member of each ties when the other
# three do, and the three left keep chain variables in both polarities
# (four existential, one universal)
PREFIX_AAAAEEEE = Prefix.from_pairs([(FORALL, [1, 2, 3, 4]), (EXISTS, [5, 6, 7, 8])])
CYCLES = SignedPermutation.from_dict({1: 2, 2: 3, 3: 4, 4: 1, 5: 6, 6: 7, 7: 8, 8: 5})


def _chain_count(prefix, elements):
    # the elements with a nonempty chain; these elements' chains have no
    # chain variables, so the encoding is their clauses, in element order
    chains = [encode_existential_cnf(prefix, [g]).clauses for g in elements]
    together = encode_existential_cnf(prefix, elements).clauses
    assert together == tuple(dict.fromkeys(itertools.chain(*chains)))
    return sum(map(bool, chains))


def test_displayed_breaker_for_a_swap():
    psi = lex_leader_formula(PREFIX_AEE, [SWAP])
    assert _chain_count(PREFIX_AEE, [SWAP]) == 1
    assert encode_existential_cnf(PREFIX_AEE, [SWAP]).clauses == ((-2, 3),)
    assert psi.polarity == EXISTS
    assert equivalent(psi.formula, Not(Var(2)) | Var(3))


def test_breaker_for_the_klein_generators_is_not_y():
    psi = lex_leader_formula(PREFIX_AEE, [SWAP, NEGATE_BOTH])
    assert _chain_count(PREFIX_AEE, [SWAP, NEGATE_BOTH]) == 2
    assert equivalent(psi.formula, Not(Var(2)))


def test_empty_generator_set_gives_true():
    psi = lex_leader_formula(PREFIX_AEE, [])
    assert psi.formula == TRUE
    assert verify_breaker(PREFIX_AEE, [], psi).ok


def test_product_selection_reaches_group_elements():
    elements = select_group_elements([SWAP, NEGATE_BOTH], product_length=2)
    assert len(elements) == 3
    negate_swap = SignedPermutation.from_dict({1: 1, 2: -3, 3: -2})
    assert set(elements) == {SWAP, NEGATE_BOTH, negate_swap}
    psi = lex_leader_formula(PREFIX_AEE, elements)
    assert _chain_count(PREFIX_AEE, elements) == 3
    assert equivalent(psi.formula, Not(Var(2)))


def test_inadmissible_generator_rejected():
    cross_block = SignedPermutation.from_dict({1: 2, 2: 1, 3: 3})
    with pytest.raises(ValidationError, match="inadmissible"):
        lex_leader_formula(PREFIX_AEE, [cross_block])


def test_verify_breaker_rejects_inadmissible_generators():
    cross_block = SignedPermutation.from_dict({1: 2, 2: 1, 3: 3})
    not_bijective = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: Var(2)})
    for g in (cross_block, not_bijective):
        with pytest.raises(ValidationError, match="inadmissible"):
            verify_breaker(PREFIX_AEE, [SWAP, g], TRUE)
        # the caps are checked first and keep their messages
        with pytest.raises(CapExceededError, match="16 strategies exceed enumeration cap 15"):
            verify_breaker(PREFIX_AEE, [g], TRUE, cap=15)
    xor_z = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: oracles.xor(Var(2), Var(3))})
    assert verify_breaker(PREFIX_AEE, [SWAP, xor_z], TRUE).ok


def test_formula_image_generator_rejected():
    xor_map = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: Var(3)})
    with pytest.raises(ValidationError, match="literal"):
        lex_leader_formula(PREFIX_AEE, [xor_map])
    with pytest.raises(ValidationError, match="literal"):
        encode_existential_cnf(PREFIX_AEE, [xor_map])


def test_chain_encoding_of_the_swap():
    # a lone swap is the lex-leader clause ~x2 | x3, without chain variables
    enc = encode_existential_cnf(PREFIX_AEE, [SWAP])
    assert enc.polarity == EXISTS
    assert enc.clauses == ((-2, 3),)
    assert enc.aux_vars == enc.aux_slots == ()
    assert enc.prefix == enc.original_prefix == PREFIX_AEE
    # two swaps: the implication at x3 once per universal equality clause,
    # and the one chain variable resolved away
    enc = encode_existential_cnf(PREFIX_AAEE, [DOUBLE_SWAP])
    assert set(enc.clauses) == EXPECTED_DOUBLE_SWAP_CLAUSES
    assert len(enc.clauses) == 2
    assert enc.aux_vars == enc.aux_slots == ()
    assert enc.prefix == enc.original_prefix == PREFIX_AAEE
    # three swaps: one guarded implication, one universal equality pair
    # defining chain variable 7, and the last goal once per tie at x3
    enc = encode_existential_cnf(PREFIX_AAEEEE, [TRIPLE_SWAP])
    assert set(enc.clauses) == EXPECTED_TRIPLE_SWAP_CLAUSES
    assert len(enc.clauses) == 5
    assert enc.aux_vars == (7,)
    assert enc.aux_slots == ((7, 0),)
    assert enc.prefix == Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [7, 3, 4, 5, 6])])
    assert enc.original_prefix == PREFIX_AAEEEE


def test_identity_compression_shortens_the_chain():
    # x2 is fixed between the cycled x1, x3, x4 and x5: the chain skips it,
    # and x5, which ties when the rest of its cycle does; one chain variable
    # serves five prefix positions and x2 is absent
    prefix = Prefix.from_pairs([(EXISTS, [1, 2, 3, 4, 5])])
    outer_cycle = SignedPermutation.from_dict({1: 3, 2: 2, 3: 4, 4: 5, 5: 1})
    enc = encode_existential_cnf(prefix, [outer_cycle])
    assert set(enc.clauses) == {
        (-1, 3),
        (-3, 4, -6),
        (-1, 6),
        (3, 6),
        (-3, -4, 5, -6),
    }
    assert all(2 not in map(abs, c) for c in enc.clauses)
    assert enc.aux_vars == (6,)
    assert enc.aux_slots == ((6, 0),)
    assert enc.prefix == Prefix.from_pairs([(EXISTS, [1, 2, 3, 4, 5, 6])])
    # the outer swap of x1 and x3 skips x2 too, and is one clause
    outer_swap = SignedPermutation.from_dict({1: 3, 2: 2, 3: 1, 4: 4, 5: 5})
    assert encode_existential_cnf(prefix, [outer_swap]).clauses == ((-1, 3),)


def test_identity_generator_encodes_to_nothing():
    identity = SignedPermutation.identity([1, 2, 3])
    enc = encode_existential_cnf(PREFIX_AEE, [identity])
    assert enc.clauses == ()
    assert enc.aux_vars == ()
    assert enc.prefix == PREFIX_AEE


def test_universal_encoding_negates_the_flipped_chain():
    prefix = Prefix.from_pairs([(EXISTS, [1]), (FORALL, [2, 3])])
    assert encode_universal_dnf(prefix, [SWAP]).cubes == ((2, -3),)
    prefix = PREFIX_AAEE.flipped()
    enc = encode_universal_dnf(prefix, [DOUBLE_SWAP])
    assert set(enc.cubes) == {tuple(-l for l in c) for c in EXPECTED_DOUBLE_SWAP_CLAUSES}
    assert enc.aux_vars == ()
    prefix = PREFIX_AAEEEE.flipped()
    enc = encode_universal_dnf(prefix, [TRIPLE_SWAP])
    assert enc.polarity == FORALL
    assert set(enc.cubes) == {tuple(-l for l in c) for c in EXPECTED_TRIPLE_SWAP_CLAUSES}
    assert enc.aux_vars == (7,)
    assert enc.prefix == Prefix.from_pairs([(EXISTS, [1, 2]), (FORALL, [7, 3, 4, 5, 6])])
    with pytest.raises(ValidationError):
        enc.clauses
    with pytest.raises(ValidationError):
        encode_existential_cnf(prefix, [TRIPLE_SWAP]).cubes


def test_universal_encoding_is_empty_when_group_fixes_universals():
    # swap moves only existential variables, so the flipped-prefix chain
    # has no implication clauses at all
    enc = encode_universal_dnf(PREFIX_AEE, [SWAP])
    assert enc.cubes == ()
    assert enc.prefix == PREFIX_AEE
    assert encode_universal_dnf(PREFIX_AEE, []).cubes == ()


def test_cube_count_matches_flipped_clause_count():
    rng = random.Random(404)
    for _ in range(40):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        g = oracles.random_involution(rng, prefix)
        dual = encode_universal_dnf(prefix, [g])
        mirror = encode_existential_cnf(prefix.flipped(), [g])
        assert len(dual.cubes) == len(mirror.clauses)
        assert dual.aux_vars == mirror.aux_vars


def test_start_var_must_clear_the_prefix():
    with pytest.raises(ValidationError, match="start_var"):
        encode_existential_cnf(PREFIX_AAAAEEEE, [CYCLES], start_var=8)
    enc = encode_existential_cnf(PREFIX_AAAAEEEE, [CYCLES], start_var=10)
    assert enc.aux_vars == (10, 11, 12, 13)


def _chain_extensions(sigma, aux_vars):
    for bits in itertools.product((False, True), repeat=len(aux_vars)):
        yield {**sigma, **dict(zip(aux_vars, bits))}


def _satisfies(tau, lit):
    return tau[abs(lit)] == (lit > 0)


def test_encodings_project_onto_their_formula_breakers():
    # for every play sigma of the original variables: the clauses are
    # satisfiable over the chain variables exactly when the hand-written
    # existential breaker holds, and every chain assignment hits a cube
    # exactly when the hand-written universal breaker holds
    rng = random.Random(1802)
    verdicts = []
    for _ in range(80):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        gens = [oracles.random_involution(rng, prefix) for _ in range(rng.randint(1, 3))]
        enc_e = encode_existential_cnf(prefix, gens)
        enc_u = encode_universal_dnf(prefix, gens)
        psi_e = oracles.lex_leader_reference(prefix, gens)
        psi_u = oracles.universal_lex_leader_reference(prefix, gens)
        for values in itertools.product((False, True), repeat=prefix.n):
            sigma = dict(zip(prefix.variables, values))
            some_model = any(
                all(any(_satisfies(tau, l) for l in c) for c in enc_e.clauses)
                for tau in _chain_extensions(sigma, enc_e.aux_vars)
            )
            always_hit = all(
                any(all(_satisfies(tau, l) for l in c) for c in enc_u.cubes)
                for tau in _chain_extensions(sigma, enc_u.aux_vars)
            )
            assert some_model == oracles.evaluate(psi_e, sigma)
            assert always_hit == oracles.evaluate(psi_u, sigma)
            verdicts.append((some_model, always_hit))
    # each breaker keeps some plays and excludes others
    assert len(set(verdicts)) == 4
    assert len(verdicts) > 500


def test_breakers_match_the_hand_written_reference():
    # psi is read off the chain; the reference is written out directly
    rng = random.Random(1803)
    products = 0
    for case in range(1000):
        prefix = oracles.random_prefix(rng, rng.randint(1, 7))
        gens = [oracles.random_involution(rng, prefix) for _ in range(rng.randint(1, 3))]
        if case % 4 == 0:
            gens = list(select_group_elements(gens, 2))
            products += len(gens) > 3
        order = prefix.variables
        psi_e = lex_leader_formula(prefix, gens)
        psi_u = universal_lex_leader_formula(prefix, gens)
        assert (psi_e.polarity, psi_u.polarity) == (EXISTS, FORALL)
        assert truth_table(psi_e.formula, order) == truth_table(
            oracles.lex_leader_reference(prefix, gens), order
        )
        assert truth_table(psi_u.formula, order) == truth_table(
            oracles.universal_lex_leader_reference(prefix, gens), order
        )
    assert products >= 50


def _ends_at_its_first_flip(prefix, g, enc):
    # g's own chain: no slot in front of the first block, and no chain
    # variable defined at or past g's first flip; True when an existential
    # position of the chain's prefix follows that flip
    chain_prefix = prefix if enc.polarity == EXISTS else prefix.flipped()
    assert all(0 <= slot < len(prefix.blocks) for _, slot in enc.aux_slots)
    moved = [v for v in chain_prefix.variables if g.image(v) != v]
    flips = [k for k, v in enumerate(moved) if g.image(v) == -v]
    if not flips:
        return False
    flip = moved[flips[0]]
    clauses = enc.terms if enc.polarity == EXISTS else [[-l for l in c] for c in enc.terms]
    # the flip is no other variable's image, so the clauses it occurs in are
    # its own position's, and none of them has a chain variable as its head
    assert not any(flip in map(abs, c) and set(c) & set(enc.aux_vars) for c in clauses)
    return any(chain_prefix.quantifier_of(v) == EXISTS for v in moved[flips[0] + 1 :])


def test_shorter_chains_keep_the_projection():
    # flips, signed 2-cycles and longer signed cycles over mixed prefixes:
    # the chains without y_0, without 2-cycle partners and without positions
    # after a flip still project onto the hand-written breakers
    rng = random.Random(2206)
    references = (oracles.lex_leader_reference, oracles.universal_lex_leader_reference)
    flips_mid_chain = 0
    for case in range(400):
        prefix = oracles.random_prefix(rng, rng.randint(1, 7))
        draw = oracles.random_involution if case % 2 else oracles.random_signed_perm
        gens = [g for g in (draw(rng, prefix) for _ in range(rng.randint(1, 3))) if g.moved]
        order = prefix.variables
        for enc, reference in zip(encode_both(prefix, gens), references):
            # breaker_formula reads psi with project_chain, which rejects any
            # clause list that is not a Horn chain in definition order
            psi = breaker_formula(enc).formula
            assert truth_table(psi, order) == truth_table(reference(prefix, gens), order)
        for g in gens:
            for enc in encode_both(prefix, [g]):
                flips_mid_chain += _ends_at_its_first_flip(prefix, g, enc)
    assert flips_mid_chain >= 50

    # a swap, signed or not, is one clause and a flip one unit, in either
    # polarity's own block, with no chain variable
    for _ in range(100):
        prefix = oracles.random_prefix(rng, rng.randint(2, 6))
        block = rng.choice(prefix.blocks)
        images = {x: x for x in prefix.variables}
        v, *rest = block.variables
        if rest:
            w, s = rng.choice(rest), rng.choice((1, -1))
            images.update({v: s * w, w: s * v})
            clause = (-v, s * w)
        else:
            images[v] = -v
            clause = (-v,)
        g = SignedPermutation.from_dict(images)
        enc_e, enc_u = encode_both(prefix, [g])
        own, other = (enc_e, enc_u) if block.quantifier == EXISTS else (enc_u, enc_e)
        sign = 1 if own is enc_e else -1
        assert own.terms == (tuple(sorted((sign * l for l in clause), key=abs)),)
        assert own.aux_vars == other.aux_vars == other.terms == ()


def test_closed_cycles_and_the_resolved_last_variable_keep_the_projection():
    # signed cycles of 1 to 5 variables with either sign product, over mixed
    # prefixes: the chain skips the last member of a +1 cycle, ends at that
    # of a -1 cycle, and resolves its last chain variable into the last goal
    rng = random.Random(2407)
    references = (oracles.lex_leader_reference, oracles.universal_lex_leader_reference)
    seen = collections.Counter()
    for _ in range(400):
        prefix = oracles.random_prefix(rng, rng.randint(1, 8), max_block=6)
        gens = [oracles.random_signed_cycles(rng, prefix) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if g.moved]
        order = prefix.variables
        for enc, reference in zip(encode_both(prefix, gens), references):
            psi = breaker_formula(enc).formula
            assert truth_table(psi, order) == truth_table(reference(prefix, gens), order)
        for g in gens:
            for enc in encode_both(prefix, [g]):
                chain_prefix = prefix if enc.polarity == EXISTS else prefix.flipped()
                positions = oracles.chain_positions(chain_prefix, g)
                exists = [chain_prefix.quantifier_of(v) == EXISTS for v in positions]
                if True not in exists:
                    assert enc.terms == enc.aux_vars == ()
                    continue
                last = len(exists) - 1 - exists[::-1].index(True)
                # one chain variable fewer than the positions before the last goal
                assert len(enc.aux_vars) == max(last - 1, 0)
                # the positions up to the last goal, and their images, and
                # no other prefix variable
                used = {abs(l) for c in enc.terms for l in c} - set(enc.aux_vars)
                assert used == {abs(x) for v in positions[: last + 1] for x in (v, g.image(v))}
                seen["resolved"] += last > 0
                moved = [v for v in chain_prefix.variables if g.image(v) != v]
                skipped = set(moved[: moved.index(positions[last])]) - set(positions)
                seen["+1 closer skipped"] += bool(skipped)
                end = positions[-1]
                ended = oracles.closing_sign(chain_prefix, g, end) == -1
                beyond = moved[moved.index(end) + 1 :]
                seen["ended at a -1 closer"] += ended and any(
                    chain_prefix.quantifier_of(v) == EXISTS for v in beyond
                )
    assert min(seen.values()) >= 50, seen

    # the 3-cycle (x1 x3 x4) around the fixed x2: x4 ties when x1 and x3 do,
    # and the goal at x3 reads the tie at x1 in place of a chain variable
    prefix = Prefix.from_pairs([(EXISTS, [1, 2, 3, 4])])
    enc = encode_existential_cnf(prefix, [SignedPermutation.from_dict({1: 3, 2: 2, 3: 4, 4: 1})])
    assert enc.clauses == ((-1, 3), (-1, -3, 4))
    assert enc.aux_vars == ()


def test_breaker_formula_projects_an_encoded_pair():
    rng = random.Random(1804)
    for _ in range(40):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        gens = [oracles.random_involution(rng, prefix) for _ in range(rng.randint(1, 3))]
        enc_e, enc_u = encode_both(prefix, gens)
        assert breaker_formula(enc_e) == lex_leader_formula(prefix, gens)
        psi_u = breaker_formula(enc_u)
        assert psi_u.polarity == FORALL
        assert equivalent(
            psi_u.formula, universal_lex_leader_formula(prefix, gens).formula, prefix.variables
        )


def test_project_chain_accepts_a_horn_chain():
    # y4 := True, y5 := y4 & x1, y6 := y5 & (x2 | ~x3); goals ~y5 | x2 and ~y6 | x3
    clauses = [(4,), (5, -4, -1), (6, -5, -2), (6, -5, 3), (-5, 2), (-6, 3), (1, 2)]
    projected = project_chain(clauses, [4, 5, 6])
    x1, x2, x3 = Var(1), Var(2), Var(3)
    expected = (x1 | x2) & (~x1 | x2) & (~(x1 & (x2 | ~x3)) | x3)
    assert equivalent(projected, expected, [1, 2, 3])
    assert project_chain([], []) == TRUE
    assert project_chain([(1,), ()], []) == FALSE
    # a chain variable without definitions is false
    assert equivalent(project_chain([(-4, 1), (2, 3)], [4]), Var(2) | Var(3), [1, 2, 3])


def test_project_chain_rejects_two_positive_chain_literals():
    with pytest.raises(ValidationError, match="2 positive chain literals"):
        project_chain([(4,), (4, 5, -1)], [4, 5])


def test_project_chain_rejects_a_definition_from_a_later_variable():
    with pytest.raises(ValidationError, match="later"):
        project_chain([(5,), (4, -5, 1)], [4, 5])
    with pytest.raises(ValidationError, match="later"):
        project_chain([(4, -4, 1)], [4])


def _tree_nodes(formula):
    # tree size as a walk sees it: a shared subtree counts at every use,
    # and a clause list counts one per literal
    if isinstance(formula, (formulas.And, formulas.Or)):
        return 1 + sum(map(_tree_nodes, formula.children))
    if isinstance(formula, Not):
        return 1 + _tree_nodes(formula.child)
    if isinstance(formula, formulas.Cnf):
        return 1 + sum(map(len, formula.clauses))
    return 1


def test_breakers_on_a_long_alternating_chain_stay_small():
    # 20 positions in blocks of two, universal first, each pair swapped:
    # the hand-written breakers had 586 and 483 tree nodes; substituting the
    # least chain values without factoring out y_{k-1} gives millions
    pairs = [(FORALL if b % 2 == 0 else EXISTS, [2 * b + 1, 2 * b + 2]) for b in range(10)]
    prefix = Prefix.from_pairs(pairs)
    swap = SignedPermutation.from_dict({v: v + 1 - 2 * ((v + 1) % 2) for v in range(1, 21)})
    psi_e = lex_leader_formula(prefix, [swap]).formula
    psi_u = universal_lex_leader_formula(prefix, [swap]).formula
    assert _tree_nodes(psi_e) <= 2 * 586
    assert _tree_nodes(psi_u) <= 2 * 483
    assert qbf_truth((prefix, psi_e)) is True
    assert qbf_truth((prefix, psi_u)) is False


def test_existential_breakers_are_true_qbfs():
    rng = random.Random(321)
    for _ in range(30):
        prefix = oracles.random_prefix(rng, rng.randint(1, 5))
        g = oracles.random_involution(rng, prefix)
        psi = lex_leader_formula(prefix, [g])
        assert qbf_truth((prefix, psi.formula)) is True


def test_universal_breakers_are_false_qbfs():
    rng = random.Random(322)
    for _ in range(30):
        prefix = oracles.random_prefix(rng, rng.randint(1, 5))
        g = oracles.random_involution(rng, prefix)
        psi = universal_lex_leader_formula(prefix, [g])
        assert psi.polarity == FORALL
        assert qbf_truth((prefix, psi.formula)) is False
    empty = universal_lex_leader_formula(PREFIX_AEE, [])
    assert qbf_truth((PREFIX_AEE, empty.formula)) is False


def test_conjoining_the_cnf_encoding_preserves_truth():
    rng = random.Random(75)
    for _ in range(25):
        inst, g = oracles.planted_instance(rng, rng.randint(2, 5), rng.randint(1, 4))
        truth = qbf_truth(inst)
        psi = lex_leader_formula(inst.prefix, [g])
        assert qbf_truth((inst.prefix, inst.to_formula() & psi.formula)) == truth

        enc = encode_existential_cnf(inst.prefix, [g])
        augmented, sidecar = augment_instance(inst, enc, "conjoin-cnf")
        assert sidecar is None
        assert augmented.prefix == enc.prefix
        assert augmented.clauses[: len(inst.clauses)] == inst.clauses
        assert qbf_truth(augmented) == truth


def test_attaching_the_dnf_encoding_preserves_truth():
    rng = random.Random(76)
    for _ in range(25):
        inst, g = oracles.planted_instance(rng, rng.randint(2, 5), rng.randint(1, 4))
        truth = qbf_truth(inst)
        psi = universal_lex_leader_formula(inst.prefix, [g])
        assert qbf_truth((inst.prefix, inst.to_formula() | psi.formula)) == truth

        enc = encode_universal_dnf(inst.prefix, [g])
        augmented, sidecar = augment_instance(inst, enc, "attach-dnf")
        assert augmented.clauses == inst.clauses
        assert sidecar == (enc.prefix, enc.cubes)
        assert qbf_truth(augmented_formula(inst, universal=enc)) == truth

        text = serialize_dnf(*sidecar)
        prefix_back, cubes_back = parse_dnf(text)
        assert prefix_back == enc.prefix
        assert tuple(cubes_back) == enc.cubes


def test_combined_augmentation_preserves_truth():
    rng = random.Random(77)
    for _ in range(25):
        inst, g = oracles.planted_instance(rng, rng.randint(2, 5), rng.randint(1, 4))
        universal = encode_universal_dnf(inst.prefix, [g])
        start = max(universal.aux_vars, default=inst.n_vars) + 1
        existential = encode_existential_cnf(inst.prefix, [g], start_var=start)
        augmented, sidecar = augment_instance(
            inst, (existential, universal), "combined"
        )
        assert sidecar is not None and sidecar[0] == augmented.prefix
        assert qbf_truth(augmented_formula(inst, existential, universal)) == qbf_truth(
            inst
        )


@pytest.mark.parametrize("text", ["p cnf 0 0\n", "p cnf 0 1\n0\n"])
def test_encode_both_on_an_empty_prefix(text):
    inst = parse_qdimacs(text)
    enc_e, enc_u = encode_both(inst.prefix, [])
    assert (enc_e.polarity, enc_u.polarity) == (EXISTS, FORALL)
    assert enc_e.aux_vars == enc_u.aux_vars == ()
    augmented, sidecar = augment_instance(inst, (enc_e, enc_u), "combined")
    assert augmented == inst
    assert sidecar == (inst.prefix, ())


def test_encode_both_numbers_the_universal_chain_after_the_existential():
    inst = QbfInstance(prefix=PREFIX_AAAAEEEE, clauses=((1, 2, 3, 4), (5, 6, 7, 8)))
    gens = [CYCLES]
    assert is_syntactic_symmetry(CYCLES, inst)
    enc_e, enc_u = encode_both(inst.prefix, gens)
    assert enc_e == encode_existential_cnf(inst.prefix, gens)
    assert enc_e.aux_vars and enc_u.aux_vars
    assert min(enc_e.aux_vars) == inst.prefix.n + 1
    assert min(enc_u.aux_vars) == max(enc_e.aux_vars) + 1
    augment_instance(inst, (enc_e, enc_u), "combined")


def test_augment_rejects_mismatches():
    enc = encode_existential_cnf(PREFIX_AAAAEEEE, [CYCLES])
    other = QbfInstance(
        prefix=Prefix.from_pairs([(EXISTS, [1, 2, 3, 4, 5, 6, 7, 8])]), clauses=((1, 2),)
    )
    with pytest.raises(ValidationError, match="different prefix"):
        augment_instance(other, enc, "conjoin-cnf")
    inst = QbfInstance(prefix=PREFIX_AAAAEEEE, clauses=((5, 6, 7, 8),))
    with pytest.raises(ValidationError, match="unknown augment mode"):
        augment_instance(inst, enc, "minimize")
    with pytest.raises(ValidationError, match="universal encoding"):
        augment_instance(inst, enc, "attach-dnf")
    with pytest.raises(ValidationError, match="pair"):
        augment_instance(inst, enc, "combined")
    clashing = encode_universal_dnf(PREFIX_AAAAEEEE, [CYCLES])
    assert clashing.aux_vars
    with pytest.raises(ValidationError, match="share chain variables"):
        augment_instance(inst, (enc, clashing), "combined")
    dual = encode_universal_dnf(PREFIX_AAAAEEEE, [CYCLES], start_var=max(enc.aux_vars) + 1)
    for mode, bad in [
        ("conjoin-cnf", dual),
        ("conjoin-cnf", (enc, dual)),
        ("attach-dnf", (dual,)),
        ("combined", (enc, enc)),
        ("combined", (enc, None)),
        ("combined", None),
    ]:
        with pytest.raises(ValidationError, match="needs"):
            augment_instance(inst, bad, mode)
    # the pair may come in either order
    assert augment_instance(inst, (dual, enc), "combined") == augment_instance(
        inst, (enc, dual), "combined"
    )
    with pytest.raises(ValidationError):
        augmented_formula(inst, existential=dual)
    with pytest.raises(ValidationError):
        augmented_formula(inst, universal=enc)


def test_verify_breaker_on_the_klein_example():
    gens = [SWAP, NEGATE_BOTH]
    psi = lex_leader_formula(PREFIX_AEE, gens)
    report = verify_breaker(PREFIX_AEE, gens, psi)
    assert report.ok and bool(report)
    assert report.orbit_count == 4
    assert report.covered == 4
    assert report.uncovered == ()

    # the hand-written form of the same breaker
    assert verify_breaker(PREFIX_AEE, gens, Not(Var(2))).ok
    # the trivial breaker keeps every orbit
    assert verify_breaker(PREFIX_AEE, gens, TRUE).ok
    # constant false keeps none
    report = verify_breaker(PREFIX_AEE, gens, FALSE)
    assert not report.ok
    assert report.covered == 0 and len(report.uncovered) == 4
    # forcing y and z equal keeps only the orbit that already plays equal
    report = verify_breaker(PREFIX_AEE, gens, oracles.iff(Var(2), Var(3)))
    assert not report.ok
    assert report.covered == 1


def test_orbits_are_path_wise_not_group_orbits():
    # forall x1 exists x2 with (x1 or x2)(x1 or -x2), closed under x2 -> -x2
    prefix = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2])])
    flip = SignedPermutation.from_dict({1: 1, 2: -2})
    assert is_syntactic_symmetry(flip, QbfInstance(prefix, ((1, 2), (1, -2))))
    (orbit,) = semantic_orbits(prefix, [flip])
    assert sorted(s.labels for s in orbit) == sorted(
        s.labels for s in enumerate_strategies(prefix, EXISTS)
    )
    assert len(orbit) == 4
    copy = [s for s in orbit if all(p[2] == p[1] for p in s.paths)]
    negated_copy = [s for s in orbit if all(p[2] != p[1] for p in s.paths)]
    assert len(copy) == len(negated_copy) == 1
    # x2 := x1 and its image x2 := -x1 both violate -x2, so a relation by
    # group orbits of whole strategies would leave their orbit uncovered
    # and wrongly reject this correct breaker; the path-wise relation puts
    # them with x2 := false, which satisfies it
    report = verify_breaker(prefix, [flip], Not(Var(2)))
    assert report.ok
    assert (report.orbit_count, report.covered) == (1, 1)


def test_generated_breakers_always_verify():
    rng = random.Random(55)
    for _ in range(15):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        g = oracles.random_involution(rng, prefix)
        psi = lex_leader_formula(prefix, [g])
        assert verify_breaker(prefix, [g], psi).ok


def test_sub_conjunctions_still_verify():
    # the breaker of one group element is one conjunct of the full breaker
    gens = [SWAP, NEGATE_BOTH]
    for g in gens:
        assert verify_breaker(PREFIX_AEE, gens, lex_leader_formula(PREFIX_AEE, [g])).ok
    rng = random.Random(56)
    for _ in range(10):
        prefix = oracles.random_prefix(rng, rng.randint(2, 4))
        pair = [
            oracles.random_involution(rng, prefix),
            oracles.random_involution(rng, prefix),
        ]
        psi = lex_leader_formula(prefix, pair)
        assert verify_breaker(prefix, pair, psi).ok
        for g in dict.fromkeys(pair):
            assert verify_breaker(prefix, pair, lex_leader_formula(prefix, [g])).ok


def test_existential_universal_duality():
    rng = random.Random(57)
    ok_seen = failed_seen = 0
    for _ in range(25):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        g = oracles.random_involution(rng, prefix)
        psi = oracles.random_formula(rng, list(prefix.variables))
        here = verify_breaker(prefix, [g], psi).ok
        there = verify_breaker(prefix.flipped(), [g], BreakerFormula(FORALL, Not(psi))).ok
        assert here == there
        ok_seen += here
        failed_seen += not here
    assert ok_seen and failed_seen


def least_image(prefix, gens, sigma):
    """The least value tuple, in prefix order, of the play orbit of sigma."""
    order = prefix.variables
    return min(tuple(image[v] for v in order) for image in orbit_of_assignment(gens, sigma))


def enumerated_report(prefix, gens, formula, pol):
    """The report ``verify_breaker`` should give, built by enumerating
    every strategy and evaluating ``formula`` on every path of each."""
    target = pol == EXISTS
    orbits = semantic_orbits(prefix, gens, role=pol)
    kept = [sum(strategy_value((prefix, formula), s) == target for s in orbit) for orbit in orbits]
    uncovered = sorted(
        tuple(sorted({least_image(prefix, gens, sigma) for sigma in orbit[0].paths}))
        for orbit, k in zip(orbits, kept)
        if not k
    )
    return BreakerReport(
        not uncovered, pol, len(orbits), len(orbits) - len(uncovered), tuple(uncovered), sum(kept)
    )


def test_verify_breaker_matches_a_strategy_value_report():
    # verify_breaker reads psi once per play; the reference evaluates it
    # on every path of every strategy
    for draw in (oracles.random_involution, oracles.random_xor_map):
        _check_reports_on_random_breakers(draw)


def _check_reports_on_random_breakers(draw):
    """``verify_breaker`` against ``enumerated_report`` on 160 random cases
    whose generators ``draw`` makes. Formula maps such as z -> y xor z have
    no chain, so in place of their lex-leader breaker they get the constant
    one of no generators."""
    rng = random.Random(58)
    seen = {(EXISTS, True): 0, (EXISTS, False): 0, (FORALL, True): 0, (FORALL, False): 0}
    for _ in range(160):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        gens = [draw(rng, prefix) for _ in range(rng.randint(0, 2))]
        pol = rng.choice((EXISTS, FORALL))
        if rng.random() < 0.5:
            formula = oracles.random_formula(rng, list(prefix.variables))
            psi = BreakerFormula(pol, formula if pol == EXISTS else Not(formula))
        else:
            make = lex_leader_formula if pol == EXISTS else universal_lex_leader_formula
            psi = make(prefix, [g for g in gens if isinstance(g, SignedPermutation)])
        report = verify_breaker(prefix, gens, psi)
        assert report == enumerated_report(prefix, gens, psi.formula, pol)
        seen[pol, report.ok] += 1
    assert all(count >= 10 for count in seen.values()), (draw.__name__, seen)


def test_orbit_classes_agree_with_enumeration_on_random_breakers():
    # random formulas, not lex-leader breakers, so that orbits go uncovered;
    # the generators are signed involutions, then formula maps
    for draw in (oracles.random_involution, oracles.random_xor_map):
        _check_classes_on_random_breakers(draw)


def _check_classes_on_random_breakers(draw):
    rng = random.Random(59)
    uncovered_seen = {EXISTS: 0, FORALL: 0}
    for _ in range(400):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        gens = [draw(rng, prefix) for _ in range(rng.randint(1, 2))]
        pol = rng.choice((EXISTS, FORALL))
        formula = oracles.random_formula(rng, list(prefix.variables))
        psi = BreakerFormula(pol, formula if pol == EXISTS else Not(formula))
        report = verify_breaker(prefix, gens, psi)
        expected = enumerated_report(prefix, gens, psi.formula, pol)
        assert report == expected
        # the family of all classes holds exactly the enumerated orbits'
        # classes, and it is the covered family's node exactly when every
        # orbit is covered
        n, every_play = prefix.n, (1 << 2**prefix.n) - 1
        table = truth_table(psi.formula, prefix.variables)
        kept_plays = table if pol == EXISTS else table ^ every_play
        zdd, classes, covered, _, leasts = orbit_classes(prefix, gens, pol, kept_plays)
        as_plays = {
            frozenset(
                tuple(bool(leasts[o] >> i & 1) for i in reversed(range(n)))
                for o in range(len(leasts))
                if c >> o & 1
            )
            for c in zdd.sets(classes)
        }
        fingerprints = {
            frozenset(least_image(prefix, gens, sigma) for sigma in orbit[0].paths)
            for orbit in semantic_orbits(prefix, gens, role=pol)
        }
        assert as_plays == fingerprints
        assert (classes == covered) == (expected.covered == expected.orbit_count)
        # with every play kept, every strategy is
        kept = orbit_classes(prefix, gens, pol, every_play)[3]
        assert kept == count_strategies(prefix, pol)
        uncovered_seen[pol] += bool(report.uncovered)
    assert all(count >= 50 for count in uncovered_seen.values()), (draw.__name__, uncovered_seen)


def test_verify_breaker_evaluates_psi_once_per_play():
    # 4,096 existential strategies with 4 plays each, over only 32 plays
    prefix = Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [3, 4, 5])])
    swap = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3, 5: 5})
    psi = lex_leader_formula(prefix, [swap])
    # psi is read once for all plays, as one truth table, and never per play
    with (
        mock.patch.object(strategies, "truth_table", wraps=truth_table) as tables,
        mock.patch.object(formulas, "evaluate", wraps=evaluate) as evaluations,
        mock.patch.object(strategies, "evaluate", wraps=evaluate) as strategy_evaluations,
    ):
        report = verify_breaker(prefix, [swap], psi)
    assert report.ok
    assert report.kept < count_strategies(prefix, EXISTS)
    assert tables.call_count == 1
    assert evaluations.call_count == strategy_evaluations.call_count == 0


def test_verify_breaker_bounds_the_plays():
    # n universals give the existential player one strategy but 2**n plays;
    # the play bound alone stops them, whatever the strategy cap
    def universals(n):
        return Prefix.from_pairs([(FORALL, list(range(1, n + 1)))])

    assert PLAY_VAR_CAP == 16
    for n, cap in [(17, 1), (17, 2**20), (17, 2**200), (21, 2**20)]:
        message = rf"2\*\*{n} plays exceed the play bound 2\*\*16"
        with pytest.raises(CapExceededError, match=message):
            verify_breaker(universals(n), [], TRUE, cap=cap)
    # it stops before psi's table and the orbit pass are built
    swap = SignedPermutation.from_dict({v: v for v in range(3, 21)} | {1: 2, 2: 1})
    with (
        mock.patch.object(breakers, "prefix_table", side_effect=AssertionError),
        mock.patch.object(breakers, "orbit_classes", side_effect=AssertionError),
        pytest.raises(CapExceededError, match="play bound"),
    ):
        verify_breaker(universals(20), [swap], TRUE, cap=2**200)
    # at the bound it runs: the 2**16 plays are one run under the innermost
    # block, so one strategy, one class, kept
    report = verify_breaker(universals(16), [], TRUE, cap=1)
    assert (report.ok, report.orbit_count, report.covered, report.kept, report.uncovered) == (
        True, 1, 1, 1, ()
    )
    # the strategy cap no longer bounds the plays: one strategy, 2**8 plays
    assert verify_breaker(universals(8), [], TRUE, cap=1).ok
    swap = SignedPermutation.from_dict({v: v for v in range(3, 15)} | {1: 2, 2: 1})
    report = verify_breaker(universals(14), [swap], Var(1))
    assert (report.ok, report.orbit_count, report.covered, report.kept) == (False, 1, 0, 0)
    # the plays with x1 = x2 are their own orbits, the others pair up
    assert [len(c) for c in report.uncovered] == [2**13 + 2**12]


def test_verify_breaker_reads_psi_as_the_truth_oracle_does():
    # a variable outside the prefix is rejected, unless folding the
    # constants of psi removes it
    prefix = Prefix.from_pairs([(EXISTS, [1])])
    with pytest.raises(ValidationError, match="outside the prefix"):
        verify_breaker(prefix, [], Var(2))
    with pytest.raises(ValidationError, match="outside the prefix"):
        qbf_truth((prefix, Var(2)))
    assert verify_breaker(prefix, [], Or((TRUE, Var(9)))).ok
    assert qbf_truth((prefix, Or((TRUE, Var(9))))) is True


def test_verify_breaker_decides_kbkf_past_the_strategy_counts():
    # the breakers that `break` writes for the paper's family; t = 2 keeps
    # the reports of the enumerating engine that the diagram replaced
    reports = {}
    for t, cap in ((2, 2**40), (3, 2**100)):
        inst = gen_kbkf(t)
        gens = detect_symmetries(inst).generators
        for enc in encode_both(inst.prefix, gens):
            report = verify_breaker(inst.prefix, gens, breaker_formula(enc), cap=cap)
            assert report.ok and report.covered == report.orbit_count
            reports[t, report.polarity] = report.orbit_count, report.kept
    assert reports[2, EXISTS] == (2_396, 6_912)
    assert reports[2, FORALL] == (135, 1_024)


def test_deferred_diagram_calls_give_the_same_reports(monkeypatch):
    # at Zdd.DEPTH 1, every call below the outermost one that misses the
    # memo is deferred, computed on its own and its caller retried
    rng = random.Random(61)
    cases = []
    for _ in range(60):
        prefix = oracles.random_prefix(rng, rng.randint(1, 4))
        gens = [oracles.random_involution(rng, prefix) for _ in range(rng.randint(0, 2))]
        psi = oracles.random_formula(rng, list(prefix.variables))
        cases.append((prefix, gens, BreakerFormula(rng.choice((EXISTS, FORALL)), psi), 2**20))
    inst = gen_kbkf(2)
    gens = detect_symmetries(inst).generators
    encodings = encode_both(inst.prefix, gens)
    cases += [(inst.prefix, gens, breaker_formula(enc), 2**40) for enc in encodings]
    expected = [verify_breaker(*case) for case in cases]
    monkeypatch.setattr(strategies.Zdd, "DEPTH", 1)
    assert [verify_breaker(*case) for case in cases] == expected
    assert any(not report.ok for report in expected) and any(report.ok for report in expected)


def test_breaker_formula_validates_polarity():
    with pytest.raises(ValidationError):
        BreakerFormula("x", TRUE)
