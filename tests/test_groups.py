"""Signed permutations, admissible maps, closure, orbits, cycle notation."""

import random
import subprocess
import sys

import pytest

from qsymbreak.detect import detect_symmetries, to_signed_permutations
from qsymbreak.errors import CapExceededError, ValidationError
from qsymbreak.formulas import Not, Or, Var, equivalent
from qsymbreak.groups import (
    PLAY_VAR_CAP,
    AdmissibleMap,
    SignedPermutation,
    check_admissible,
    format_generator,
    format_generators,
    group_closure,
    is_syntactic_symmetry,
    orbit_of_assignment,
    parse_generator,
    parse_generators,
)
from qsymbreak.qdimacs import EXISTS, FORALL, Prefix, QbfInstance, normalize_clause
from qsymbreak.strategies import qbf_truth

import oracles

# prefix of the two-block examples: forall x y exists a b (x=1 y=2 a=3 b=4)
PREFIX_AABB = Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [3, 4])])

# matrix of (x <-> a) and (y <-> b) as CNF
MATRIX_AABB = ((-1, 3), (1, -3), (-2, 4), (2, -4))
INSTANCE_AABB = QbfInstance(prefix=PREFIX_AABB, clauses=MATRIX_AABB)

# Example instance: forall x exists y exists z . (y <-> z), x=1 y=2 z=3
PREFIX_XYZ = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])])
INSTANCE_XYZ = QbfInstance(prefix=PREFIX_XYZ, clauses=((-2, 3), (2, -3)))
SWAP_YZ = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
NEGATE_YZ = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})


def test_admissible_flip_and_swap():
    f = SignedPermutation.from_dict({1: -1, 2: 2, 3: 4, 4: 3})
    assert check_admissible(f, PREFIX_AABB).ok


def test_cross_block_image_violates_condition_two():
    g = SignedPermutation.from_dict({1: 3, 2: 2, 3: 1, 4: 4})
    report = check_admissible(g, PREFIX_AABB)
    assert not report.ok
    assert {c for c, _ in report.violations} == {2}
    # a formula map with a cross-block image inside the prefix gets both
    # checks: swapping x1 and x3 is a bijection, copying x1 into x3 is not
    swap = AdmissibleMap.from_dict({1: Var(3), 2: Var(2), 3: Var(1), 4: Var(4)})
    assert {c for c, _ in check_admissible(swap, PREFIX_AABB).violations} == {2}
    copy = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: Var(1), 4: Var(4)})
    assert {c for c, _ in check_admissible(copy, PREFIX_AABB).violations} == {1, 2}


def test_image_outside_the_prefix_is_reported_not_raised():
    # x4 -> x4 | x9 has no play table over x1..x4; condition 2 names x9
    g = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: Var(3), 4: Or((Var(4), Var(9)))})
    report = check_admissible(g, PREFIX_AABB)
    assert not report.ok
    assert report.violations == ((2, "image of variable 4 uses [9] outside its quantifier block"),)


def test_non_bijective_map_violates_condition_one():
    h = AdmissibleMap.from_dict({1: Var(1), 2: Not(Var(1)), 3: Var(3), 4: Var(4)})
    report = check_admissible(h, PREFIX_AABB)
    assert not report.ok
    assert {c for c, _ in report.violations} == {1}


def test_xor_map_is_admissible():
    g = AdmissibleMap.from_dict(
        {1: Var(1), 2: oracles.xor(Var(1), Var(2)), 3: Var(3), 4: oracles.xor(Var(3), Var(4))}
    )
    assert check_admissible(g, PREFIX_AABB).ok
    # the same pairing at the cap, x_2i -> x_2i-1 xor x_2i over 16
    # variables: one play table of 65,536 entries
    prefix = Prefix.from_pairs([(FORALL, list(range(1, 9))), (EXISTS, list(range(9, 17)))])
    images = {v: Var(v) if v % 2 else oracles.xor(Var(v - 1), Var(v)) for v in range(1, 17)}
    assert check_admissible(AdmissibleMap.from_dict(images), prefix).ok


def test_condition_one_cap():
    # condition 1 reads one play table over all 2**n plays, so it stops at
    # the play bound that verify_breaker keeps too
    def identity(n):
        prefix = Prefix.from_pairs([(EXISTS, list(range(1, n + 1)))])
        return AdmissibleMap.from_dict({v: Var(v) for v in range(1, n + 1)}), prefix

    assert PLAY_VAR_CAP == 16
    with pytest.raises(CapExceededError, match="17 variables exceeds the play bound 16"):
        check_admissible(*identity(17))
    assert check_admissible(*identity(16)).ok


def test_condition_one_matches_a_brute_force_bijection_test():
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for _ in range(300):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        if rng.random() < 0.5:
            images = dict(oracles.random_xor_map(rng, prefix).images)
        else:  # block-respecting random formulas, rarely a bijection
            images = {
                v: oracles.random_formula(rng, list(block.variables), depth=2)
                for block in prefix.blocks
                for v in block.variables
            }
        expected = oracles.is_bijection(images, list(prefix.variables))
        report = check_admissible(AdmissibleMap.from_dict(images), prefix)
        assert report.ok == expected
        seen[expected] += 1
    assert min(seen.values()) >= 50, seen


def test_play_table_of_a_formula_map():
    # forall x exists y z, z -> y xor z: play p = 4x + 2y + z goes to 4x + 2y + (y ^ z)
    g = AdmissibleMap.from_dict({1: Var(1), 2: Var(2), 3: oracles.xor(Var(2), Var(3))})
    assert list(g.play_table(PREFIX_XYZ.variables)) == [0, 1, 3, 2, 4, 5, 7, 6]
    # the tables of the empty prefix hold its one play
    assert list(AdmissibleMap.from_dict({}).play_table(())) == [0]
    assert list(SignedPermutation.identity(()).play_table(())) == [0]
    for h in (g, SWAP_YZ):
        with pytest.raises(ValidationError):
            h.play_table((1, 2))


def test_signed_and_formula_play_tables_agree():
    # a signed permutation compiles by doubling, its literal images as a
    # formula map by truth tables; both must number and move plays alike
    rng = random.Random(24)
    for _ in range(500):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        g = oracles.random_signed_perm(rng, prefix)
        literals = {v: oracles.literal(g.image(v)) for v in prefix.variables}
        table = g.play_table(prefix.variables)
        assert table == AdmissibleMap.from_dict(literals).play_table(prefix.variables)
        order = prefix.variables
        p = rng.randrange(2**prefix.n)
        sigma = {v: bool(p >> (prefix.n - 1 - i) & 1) for i, v in enumerate(order)}
        image = g.apply_to_assignment(sigma)
        assert table[p] == sum(image[v] << (prefix.n - 1 - i) for i, v in enumerate(order))


def test_domain_mismatch_raises():
    g = SignedPermutation.from_dict({1: 1})
    with pytest.raises(ValidationError):
        check_admissible(g, PREFIX_AABB)


def test_apply_to_assignment_identity():
    g = SignedPermutation.identity([1, 2, 3])
    sigma = {1: True, 2: False, 3: True}
    assert g.apply_to_assignment(sigma) == sigma


def test_apply_to_assignment_flip():
    g = SignedPermutation.from_dict({1: -1})
    assert g.apply_to_assignment({1: True}) == {1: False}


def test_apply_to_assignment_swap():
    g = SignedPermutation.from_dict({2: 3, 3: 2})
    assert g.apply_to_assignment({2: True, 3: False}) == {2: False, 3: True}


def test_pair_swap_is_syntactic_symmetry():
    f = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3})
    assert is_syntactic_symmetry(f, INSTANCE_AABB)
    phi = INSTANCE_AABB.to_formula()
    assert equivalent(phi, f.apply_to_formula(phi), vars=PREFIX_AABB.variables)


def test_identity_is_always_a_symmetry():
    rng = random.Random(3)
    for _ in range(10):
        inst = oracles.random_instance(rng, 5, 6)
        identity = SignedPermutation.identity(inst.prefix.variables)
        assert is_syntactic_symmetry(identity, inst)


def test_sign_flip_on_unit_clause_is_not_a_symmetry():
    inst = QbfInstance(prefix=Prefix.from_pairs([(EXISTS, [1])]), clauses=((1,),))
    flip = SignedPermutation.from_dict({1: -1})
    assert not is_syntactic_symmetry(flip, inst)
    phi = inst.to_formula()
    assert not equivalent(phi, flip.apply_to_formula(phi), vars=inst.prefix.variables)


def test_instance_side_of_the_symmetry_check_is_built_once():
    class CountedClauses(tuple):
        reads = 0

        def __iter__(self):
            CountedClauses.reads += 1
            return super().__iter__()

    inst = QbfInstance(prefix=PREFIX_AABB, clauses=CountedClauses(MATRIX_AABB))
    CountedClauses.reads = 0
    swap = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3})
    for g in (swap, swap, SignedPermutation.identity(PREFIX_AABB.variables)):
        assert is_syntactic_symmetry(g, inst)
    assert CountedClauses.reads == 1


def test_tautological_clause_is_compared_as_a_literal_set():
    inst = QbfInstance(Prefix.from_pairs([(EXISTS, [1, 2])]), ((1, -1), (2, -2)))
    for g in ({1: -1, 2: 2}, {1: 2, 2: -1}):
        assert is_syntactic_symmetry(SignedPermutation.from_dict(g), inst)
    lone = QbfInstance(inst.prefix, ((1, -1), (1, 2)))
    assert not is_syntactic_symmetry(SignedPermutation.from_dict({1: -1, 2: 2}), lone)


def test_inadmissible_generator_rejected():
    g = SignedPermutation.from_dict({1: 3, 2: 2, 3: 1, 4: 4})
    with pytest.raises(ValidationError):
        is_syntactic_symmetry(g, INSTANCE_AABB)


def test_syntactic_check_needs_a_signed_permutation():
    # admissible, but its images are formulas, not literals to put in clauses
    g = AdmissibleMap.from_dict(
        {1: Var(1), 2: Var(2), 3: Var(3), 4: oracles.xor(Var(3), Var(4))}
    )
    assert check_admissible(g, PREFIX_AABB).ok
    with pytest.raises(ValidationError, match="signed permutation"):
        is_syntactic_symmetry(g, INSTANCE_AABB)


def test_closure_of_identity():
    identity = SignedPermutation.identity([1, 2, 3])
    assert group_closure([identity]) == [identity]


def test_closure_of_swap_has_two_elements():
    closure = group_closure([SWAP_YZ])
    assert len(closure) == 2
    assert SignedPermutation.identity([1, 2, 3]) in closure


def test_closure_of_swap_and_negate_both():
    # the two generators commute and are involutions, so the closure is the
    # four-element group {id, swap, negate-both, negate-swap}
    closure = group_closure([SWAP_YZ, NEGATE_YZ])
    expected = {
        SignedPermutation.identity([1, 2, 3]),
        SWAP_YZ,
        NEGATE_YZ,
        SignedPermutation.from_dict({1: 1, 2: -3, 3: -2}),
    }
    assert set(closure) == expected


def test_closure_cap():
    # full symmetric group with flips on 4 variables has 4! * 2**4 elements
    gens = [
        SignedPermutation.from_dict({1: 2, 2: 3, 3: 4, 4: 1}),
        SignedPermutation.from_dict({1: 2, 2: 1, 3: 3, 4: 4}),
        SignedPermutation.from_dict({1: -1, 2: 2, 3: 3, 4: 4}),
    ]
    with pytest.raises(CapExceededError):
        group_closure(gens, cap=100)
    assert len(group_closure(gens, cap=1000)) == 384


def test_orbit_identity_group():
    sigma = {1: True, 2: False}
    orbit = orbit_of_assignment([SignedPermutation.identity([1, 2])], sigma)
    assert orbit == [sigma]
    assert orbit_of_assignment([], sigma) == [sigma]


def test_orbit_of_unequal_pair():
    # under {id, swap, negate-both, negate-swap} the orbit of y=T z=F (x
    # fixed) is the two assignments where y and z differ
    sigma = {1: False, 2: True, 3: False}
    orbit = orbit_of_assignment([SWAP_YZ, NEGATE_YZ], sigma)
    assert orbit == [
        {1: False, 2: False, 3: True},
        {1: False, 2: True, 3: False},
    ]


def test_orbit_sizes_divide_group_order():
    rng = random.Random(11)
    for _ in range(30):
        prefix = oracles.random_prefix(rng, rng.randint(2, 5))
        gens = [oracles.random_signed_perm(rng, prefix) for _ in range(2)]
        group = group_closure(gens, cap=5000)
        sigma = oracles.random_assignment(rng, list(prefix.variables))
        orbit = orbit_of_assignment(gens, sigma, cap=5000)
        assert len(group) % len(orbit) == 0


def test_orbit_walk_matches_the_closure_images():
    rng = random.Random(29)
    for _ in range(60):
        prefix = oracles.random_prefix(rng, rng.randint(1, 5))
        gens = [oracles.random_signed_perm(rng, prefix) for _ in range(rng.randint(1, 3))]
        sigma = oracles.random_assignment(rng, list(prefix.variables))
        images = {
            tuple(sorted(g.apply_to_assignment(sigma).items()))
            for g in group_closure(gens, cap=5000)
        }
        orbit = orbit_of_assignment(gens, sigma)
        assert [tuple(sorted(image.items())) for image in orbit] == sorted(images)


def test_orbit_walk_needs_no_group_closure():
    # the clause-free 8-variable block: 15 generators of a group of order
    # 2**8 * 8! = 10,321,920, far past the closure cap, but the orbit of
    # all-false is just the 256 assignments
    prefix = Prefix.from_pairs([(EXISTS, list(range(1, 9)))])
    result = detect_symmetries(QbfInstance(prefix=prefix, clauses=()))
    assert len(result.generators) == 15
    assert result.group_order == 10_321_920
    orbit = orbit_of_assignment(result.generators, dict.fromkeys(range(1, 9), False))
    assert len(orbit) == 256
    assert orbit[0] == dict.fromkeys(range(1, 9), False)
    with pytest.raises(CapExceededError, match="orbit"):
        orbit_of_assignment(result.generators, orbit[0], cap=255)


def test_orbit_rejects_generators_over_different_domains():
    with pytest.raises(ValidationError):
        orbit_of_assignment(
            [SWAP_YZ, SignedPermutation.identity([1, 2])], {1: True, 2: True, 3: True}
        )


def test_truth_preserved_under_admissible_permutation():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randint(2, 8)
        inst = oracles.random_instance(rng, n, rng.randint(1, 2 * n))
        g = oracles.random_signed_perm(rng, inst.prefix)
        mapped = QbfInstance(prefix=inst.prefix, clauses=g.apply_to_clauses(inst.clauses))
        assert qbf_truth(inst) == qbf_truth(mapped)


def test_inverse_of_admissible_is_admissible():
    rng = random.Random(77)
    for _ in range(100):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        g = oracles.random_signed_perm(rng, prefix)
        assert check_admissible(g, prefix).ok
        assert check_admissible(g.inverse(), prefix).ok
        assert g.compose(g.inverse()).is_identity
        assert g.inverse().compose(g).is_identity


def test_assignment_action_is_a_homomorphism():
    rng = random.Random(13)
    for _ in range(100):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        g = oracles.random_signed_perm(rng, prefix)
        h = oracles.random_signed_perm(rng, prefix)
        sigma = oracles.random_assignment(rng, list(prefix.variables))
        composed = g.compose(h).apply_to_assignment(sigma)
        chained = h.apply_to_assignment(g.apply_to_assignment(sigma))
        assert composed == chained


def test_fast_path_implies_truth_table_path():
    rng = random.Random(2718)
    for _ in range(40):
        inst, g = oracles.planted_instance(rng, rng.randint(2, 6), rng.randint(1, 5))
        assert is_syntactic_symmetry(g, inst)
        phi = inst.to_formula()
        assert equivalent(phi, g.apply_to_formula(phi), vars=inst.prefix.variables)


def test_format_swap_cycles():
    g = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3})
    assert format_generator(g) == "(1 2)(3 4)"


def test_format_sign_flip():
    g = SignedPermutation.from_dict({5: -5})
    assert format_generator(g) == "(-5)"


def test_format_mixed_cycle():
    g = SignedPermutation.from_dict({1: 2, 2: -1})
    assert format_generator(g) == "(1 2 -1 -2)"


def test_format_identity():
    assert format_generator(SignedPermutation.identity([1, 2])) == "()"


def test_cycle_notation_matches_a_walk_of_the_literal_images():
    rng = random.Random(4096)
    seen = {"longer": 0, "negated": 0, "flip": 0}
    for _ in range(2500):
        prefix = oracles.random_prefix(rng, rng.randint(1, 9), max_block=rng.randint(1, 9))
        g = oracles.random_signed_cycles(rng, prefix, max_len=rng.randint(1, 9))
        assert format_generator(g) == oracles.cycle_notation(g)
        expected = [
            (tuple(c[: len(c) // 2]), -1) if -c[0] in c else (tuple(c), 1)
            for c in oracles.literal_cycles(g)
        ]
        assert g.cycles == tuple(expected)
        for lits, sign in g.cycles:
            seen["longer"] += len(lits) > 2
            seen["negated"] += sign == -1 and len(lits) > 1
            seen["flip"] += len(lits) == 1
    assert min(seen.values()) > 500


def test_parse_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        prefix = oracles.random_prefix(rng, rng.randint(1, 7))
        g = oracles.random_signed_perm(rng, prefix)
        assert parse_generator(format_generator(g), g.domain) == g


def test_parse_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_generator("(1 2", [1, 2])
    with pytest.raises(ValidationError):
        parse_generator("(0)", [1])
    with pytest.raises(ValidationError):
        parse_generator("(1 9)", [1, 2])
    with pytest.raises(ValidationError):
        parse_generator("(1 2)(1 3)", [1, 2, 3])


def test_generator_file_round_trip():
    gens = [
        SignedPermutation.from_dict({1: 2, 2: 1, 3: 3}),
        SignedPermutation.from_dict({1: 1, 2: -2, 3: -3}),
    ]
    text = format_generators(gens)
    # every comment line the QDIMACS reader skips, a tab after the c included
    commented = "c comment\nc\tdetected by hand\n" + text + "\n# trailing\n"
    assert parse_generators(commented, [1, 2, 3]) == gens


def test_compose_applies_right_then_left():
    g = SignedPermutation.from_dict({1: 2, 2: 1})
    h = SignedPermutation.from_dict({1: -1, 2: 2})
    # (g . h)(1) = g(h(1)) = g(-1) = -2
    assert g.compose(h).image(1) == -2


def test_support_only_check_matches_the_dense_check():
    # random desk instances with repeated and tautological clauses, against
    # planted symmetries, the identity, detected generators and random maps
    rng = random.Random(1801)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        inst, planted = oracles.planted_instance(rng, rng.randint(1, 7), rng.randint(0, 8))
        clauses = list(inst.clauses)
        clauses += rng.sample(clauses, rng.randint(0, len(clauses)))
        v = rng.choice(inst.prefix.variables)
        clauses += [(v, -v)] * rng.randint(0, 2)
        rng.shuffle(clauses)
        inst = QbfInstance(inst.prefix, tuple(clauses))
        fixed = {v: v for v in inst.prefix.variables}
        found = [planted, *detect_symmetries(inst).generators[:2]]
        candidates = [(fixed, SignedPermutation.identity(fixed))]
        candidates += [(fixed | dict(g.moved), g) for g in found]
        for _ in range(3):
            images = oracles.random_signed_images(rng, inst.prefix)
            candidates.append((images, SignedPermutation.from_dict(images)))
        for images, g in candidates:
            expected = oracles.is_symmetry(images, inst)
            assert is_syntactic_symmetry(g, inst) == expected
            outcomes[expected] += 1
    assert min(outcomes.values()) > 500


def _vertex_support(images, prefix):
    """The symmetry graph's literal-vertex support of a signed map: the
    sorted pairs (vertex, image) of the literal vertices it moves."""
    position = {v: i for i, v in enumerate(prefix.variables)}
    support = []
    for v, w in images.items():
        a, b = 2 * position[v], 2 * position[abs(w)] + (w < 0)
        if a != b:
            support += [(a, b), (a + 1, b ^ 1)]
    return tuple(sorted(support))


def test_signed_permutations_keep_only_what_they_move():
    rng = random.Random(1802)
    for _ in range(200):
        prefix = oracles.random_prefix(rng, rng.randint(1, 8))
        images = oracles.random_signed_images(rng, prefix)
        g = SignedPermutation.from_dict(images)
        # the detector's construction, over the prefix's shared domain
        inst = QbfInstance(prefix, ())
        detected = to_signed_permutations([_vertex_support(images, prefix)], inst)
        assert detected == (() if g.is_identity else (g,))
        for h in detected:
            assert hash(h) == hash(g) and h.domain is prefix.domain
        assert g.mapping == tuple(sorted(images.items()))
        assert g.moved == tuple((v, w) for v, w in g.mapping if v != w)
        assert g.domain == tuple(sorted(prefix.variables))


def test_constructor_rejects_malformed_supports():
    for domain, moved in [
        ((1, 2), ((1, 1),)),  # a pair that does not move
        ((1, 2), ((1, -1), (2, 2))),
        ((1, 2), ((1, 3), (3, 1))),  # an image outside the domain
        ((1, 2), ((2, -3), (3, 2))),
        ((1, 2, 3), ((1, 3), (2, 3))),  # two variables with one image
        ((1, 2, 3), ((1, 2), (2, -2))),
        ((2, 1), ()),  # an unsorted domain
        ((1, 2), ((2, 1), (1, 2))),  # unsorted pairs
    ]:
        with pytest.raises(ValidationError):
            SignedPermutation(domain, moved)
    assert SignedPermutation((1, 2), ((1, 2), (2, -1))).mapping == ((1, 2), (2, -1))


def test_apply_to_clause_maps_a_tautology_to_one(package_env):
    flip, swap = SignedPermutation.from_dict({1: -1, 2: 2}), SWAP_YZ
    assert flip.apply_to_clause((1, -1)) == (-1, 1)
    assert flip.apply_to_clause((2, -1, 1, 2)) == (-1, 1, 2)
    assert swap.apply_to_clause((-2, 2, 3)) == (2, -3, 3)
    # every other clause maps as the sorted, deduplicated image
    rng = random.Random(1803)
    for _ in range(300):
        prefix = oracles.random_prefix(rng, rng.randint(1, 6))
        g = oracles.random_signed_perm(rng, prefix)
        (clause,) = oracles.random_clauses(rng, prefix.n, 1)
        expected = normalize_clause(map(g.image_of_literal, clause))
        assert g.apply_to_clause(clause + clause[:1]) == expected
    script = (
        "from qsymbreak.groups import SignedPermutation\n"
        "print(SignedPermutation.from_dict({1: -1}).apply_to_clause((1, -1)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=package_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(-1, 1)"
