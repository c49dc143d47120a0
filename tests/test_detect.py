"""Symmetry detection: graph encoding, refinement, search, conversion."""

import hashlib
import random
import subprocess
import sys
import warnings
from collections import Counter
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from qsymbreak import detect
from qsymbreak.benchmarks import gen_kbkf
from qsymbreak.detect import (
    ASYMMETRY_TEST_VERTICES,
    AutomorphismResult,
    ColoredGraph,
    DetectionWarning,
    _asymmetric,
    _ids,
    _individualize,
    _refined,
    brute_force_symmetries,
    build_symmetry_graph,
    detect_symmetries,
    find_automorphisms,
    refine_colors,
    to_signed_permutations,
)
from qsymbreak.errors import CapExceededError, ValidationError
from qsymbreak.groups import (
    SignedPermutation,
    check_admissible,
    group_closure,
    is_syntactic_symmetry,
)
from qsymbreak.qdimacs import EXISTS, FORALL, Prefix, QbfInstance, parse_qdimacs

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# single existential block, one clause (x or y)
PAIR = QbfInstance(
    prefix=Prefix.from_pairs([(EXISTS, [1, 2])]), clauses=((1, 2),)
)
# same block, but the unit clause pins x
PINNED = QbfInstance(
    prefix=Prefix.from_pairs([(EXISTS, [1, 2])]), clauses=((1,), (1, 2))
)
# two copy gadgets (x equals a) and (y equals b) across a block boundary
COPIES = QbfInstance(
    prefix=Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [3, 4])]),
    clauses=((-1, 3), (1, -3), (-2, 4), (2, -4)),
)


def test_graph_of_single_clause():
    graph = build_symmetry_graph(PAIR)
    assert graph.n_vertices == 5
    assert len(graph.edges) == 4
    assert graph.colors == (0, 0, 0, 0, 1)
    # two negation edges plus the clause's two incidences
    assert graph.has_edge(0, 1) and graph.has_edge(2, 3)
    assert graph.has_edge(4, 0) and graph.has_edge(4, 2)
    assert graph.adjacency == ((1, 4), (0,), (3, 4), (2,), (0, 2))


def test_graph_of_empty_matrix():
    inst = QbfInstance(prefix=Prefix.from_pairs([(EXISTS, [1, 2, 3])]), clauses=())
    graph = build_symmetry_graph(inst)
    assert graph.n_vertices == 6
    assert graph.edges == ((0, 1), (2, 3), (4, 5))


def test_graph_counts_on_random_instances():
    rng = random.Random(33)
    for _ in range(50):
        inst = oracles.random_instance(rng, rng.randint(1, 8), rng.randint(0, 10))
        # copies as given, reordered and with a repeated literal, then l or -l
        v = inst.prefix.variables[-1]
        copies = inst.clauses[:2] + tuple(c[::-1] for c in inst.clauses[:2])
        copies += tuple(c + c[:1] for c in inst.clauses[2:3]) + ((v, -v),)
        inst = QbfInstance(inst.prefix, inst.clauses + copies)
        graph = build_symmetry_graph(inst)
        multiplicity = Counter(frozenset(c) for c in inst.clauses)
        n = inst.prefix.n
        assert graph.n_vertices == 2 * n + len(multiplicity)
        assert len(graph.edges) == n + sum(len(c) for c in multiplicity)
        assert all(list(row) == sorted(row) for row in graph.adjacency)
        assert all(graph.has_edge(v, u) for u, v in graph.edges)
        blocks = len(inst.prefix.blocks)
        assert graph.colors[2 * n:] == tuple(blocks + m - 1 for m in multiplicity.values())


def test_refinement_is_idempotent():
    rng = random.Random(71)
    for _ in range(30):
        inst = oracles.random_instance(rng, rng.randint(1, 6), rng.randint(0, 8))
        graph = build_symmetry_graph(inst)
        stable = refine_colors(graph)
        assert refine_colors(graph, stable) == stable


def _refine_to_fixpoint(graph, colors):
    """Reference refinement: rank (color, sorted neighbor colors) until no
    pass changes the ids."""
    current = tuple(colors)
    while True:
        sigs = [
            (current[v], tuple(sorted(current[u] for u in graph.adjacency[v])))
            for v in range(graph.n_vertices)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = tuple(rank[sig] for sig in sigs)
        if new == current:
            return new
        current = new


def _graph(n, edges, colors):
    rows = [set() for _ in range(n)]
    for u, w in edges:
        if u != w:
            rows[u].add(w)
            rows[w].add(u)
    return ColoredGraph(n, tuple(tuple(sorted(row)) for row in rows), tuple(colors))


def _random_graph(rng, n, p, colors):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _graph(n, edges, colors)


def _symmetric_graph(rng):
    """A circulant graph, or copies of a random colored graph, some joined
    cyclically: stable colorings with large cells, whose refinement after
    an individualization runs over several rounds."""
    if rng.random() < 0.5:
        n = rng.randint(3, 16)
        jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, max(1, n // 4)))
        edges = [(i, (i + j) % n) for i in range(n) for j in jumps]
        colors = [0] * n
    else:
        m, copies = rng.randint(2, 6), rng.randint(2, 3)
        n = m * copies
        base = [(u, w) for u in range(m) for w in range(u + 1, m) if rng.random() < 0.5]
        edges = [(u + c * m, w + c * m) for c in range(copies) for u, w in base]
        if rng.random() < 0.5:  # join the even vertices of each copy to the next copy's
            edges += [
                (i + c * m, (i + (c + 1) * m) % n) for c in range(copies) for i in range(0, m, 2)
            ]
        colors = [rng.randrange(2) for _ in range(m)] * copies
    return _graph(n, edges, colors)


def test_refinement_matches_the_fixpoint_loop():
    # refine_colors stops as soon as the coloring is discrete; the
    # reference loop runs on until a pass changes nothing
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 12)
        graph = _random_graph(rng, n, 0.3, [0] * n)
        colorings = [
            tuple(rng.randrange(rng.randint(1, n)) for _ in range(n)),
            tuple(rng.sample(range(3 * n), n)),  # discrete, ids not 0..n-1
        ]
        for colors in colorings:
            assert refine_colors(graph, colors) == _refine_to_fixpoint(graph, colors)
    # colored graphs, refined from their own colors and from others
    for _ in range(200):
        n = rng.randint(1, 30)
        k = rng.randint(1, 4)
        colors = [rng.randrange(-k, k) for _ in range(n)]
        graph = _random_graph(rng, n, rng.random() * 0.4, colors)
        assert refine_colors(graph) == _refine_to_fixpoint(graph, graph.colors)
        colors = tuple(rng.randrange(3) for _ in range(n))
        assert refine_colors(graph, colors) == _refine_to_fixpoint(graph, colors)
    for _ in range(100):
        graph = _symmetric_graph(rng)
        assert refine_colors(graph) == _refine_to_fixpoint(graph, graph.colors)
    # symmetry graphs of random desk instances, repeated clauses included
    for _ in range(150):
        inst = oracles.random_instance(rng, rng.randint(1, 8), rng.randint(0, 14))
        inst = QbfInstance(inst.prefix, inst.clauses + inst.clauses[: rng.randint(0, 3)])
        graph = build_symmetry_graph(inst)
        assert refine_colors(graph) == _refine_to_fixpoint(graph, graph.colors)


def test_search_nodes_refine_like_the_fixpoint_loop():
    # every child the search refines: a stable node with one vertex of a
    # non-singleton cell moved to a new cell labeled n + depth, three levels
    # deep so that nodes with gapped and top labels are parents too
    rng = random.Random(31)
    children = 0
    for _ in range(200):
        graph = _symmetric_graph(rng)
        n = graph.n_vertices
        level = [_refined(graph)]
        for depth in range(3):
            deeper = []
            for node in level:
                labels, cells = node
                before = (list(labels), {s: list(m) for s, m in cells.items()})
                for v in range(n):
                    if len(cells[labels[v]]) < 2:
                        continue
                    child = list(labels)
                    child[v] = n + depth
                    refined = _individualize(graph.adjacency, node, v, n + depth)
                    assert _ids(refined[0]) == _refine_to_fixpoint(graph, child)
                    # the cell index lists each label's members in vertex order
                    assert refined[1] == {
                        s: [u for u in range(n) if refined[0][u] == s] for s in set(refined[0])
                    }
                    children += 1
                    if rng.random() < 0.2:
                        deeper.append(refined)
                assert (labels, cells) == before  # children leave the parent as it was
            level = deeper
    assert children > 3000


def test_refinement_separates_clauses_of_different_width():
    graph = build_symmetry_graph(PINNED)
    stable = refine_colors(graph)
    unit, binary = stable[4], stable[5]
    assert unit != binary
    # the pinned pair (x, y) splits as well
    assert stable[0] != stable[2]


def test_search_finds_the_pair_swap():
    graph = build_symmetry_graph(PAIR)
    result = find_automorphisms(graph)
    assert result.complete
    # the support: x's literal vertices swap with y's, the clause stays
    assert result.permutations == (((0, 2), (1, 3), (2, 0), (3, 1)),)


def test_search_matches_vertex_brute_force_on_tiny_graph():
    graph = build_symmetry_graph(PAIR)
    n = graph.n_vertices

    def ok(perm):
        if any(graph.colors[perm[v]] != graph.colors[v] for v in range(n)):
            return False
        return all(graph.has_edge(perm[u], perm[v]) for u, v in graph.edges)

    expected = {
        tuple((v, x) for v, x in enumerate(perm) if v != x)
        for perm in permutations(range(n))
        if perm != tuple(range(n)) and ok(perm)
    }
    assert set(find_automorphisms(graph).permutations) == expected


def test_group_order_counts_the_orbit_not_the_cell():
    # a 6-cycle beside two triangles: every vertex has degree 2, so the
    # root keeps one cell of 12, but the first vertex's orbit has 6
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(a + 6, b + 6) for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))]
    result = find_automorphisms(_graph(12, edges, [0] * 12))
    closure, frontier = {tuple(range(12))}, [tuple(range(12))]
    while frontier:
        g = frontier.pop()
        for support in result.permutations:
            h = dict(support)
            gh = tuple(h.get(x, x) for x in g)
            if gh not in closure:
                closure.add(gh)
                frontier.append(gh)
    assert result.complete
    assert result.order == len(closure) == 12 * 72  # dihedral D6 times S3 wr S2


def test_search_on_asymmetric_instance_is_empty():
    result = find_automorphisms(build_symmetry_graph(PINNED))
    assert result.complete
    assert result.permutations == ()
    assert result.order == 1
    assert result.nodes_expanded == 0  # the root refines to a discrete coloring
    assert detect_symmetries(PINNED).generators == ()


def test_large_asymmetric_instance_ends_at_its_discrete_root(monkeypatch):
    rng = random.Random(1000)
    prefix = Prefix.from_pairs([(EXISTS, range(1, 501)), (FORALL, range(501, 1001))])
    inst = QbfInstance(prefix, tuple(oracles.random_clauses(rng, 1000, 5000)))

    def refined(*args):
        raise AssertionError("the canonical root refinement ran")

    # the asymmetry test ends the search before the canonical refinement
    monkeypatch.setattr(detect, "_refined", refined)
    result = detect_symmetries(inst)
    assert result.generators == ()
    assert result.complete
    assert result.nodes_expanded == 0
    assert result.group_order == 1


def _random_3cnf_graph(rng, n, m):
    prefix = Prefix.from_pairs(
        [(EXISTS, range(1, n // 3 + 1)), (FORALL, range(n // 3 + 1, 2 * n // 3 + 1)),
         (EXISTS, range(2 * n // 3 + 1, n + 1))]
    )
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    )
    return build_symmetry_graph(QbfInstance(prefix, clauses))


def _discrete(graph) -> bool:
    return len(set(refine_colors(graph))) == graph.n_vertices


class _CollidingWeights(list):
    """Weights ``v % 3``, which collide all the time.  The test reads them
    once per round, by iteration, and each round after the first adds a
    cell, so it iterates them at most ``n`` times; the table raises past
    that, where a test that went on after a round that merged cells could
    cycle for ever."""

    def __init__(self, n: int):
        super().__init__(v % 3 for v in range(n))
        self.rounds = n

    def __iter__(self):
        self.rounds -= 1
        if self.rounds < 0:
            raise AssertionError("the asymmetry test ran more than n rounds")
        return super().__iter__()


def test_asymmetry_test_separates_only_what_refinement_separates(monkeypatch):
    # a True answer proves the canonical root discrete, on colored graphs
    # that are not symmetry graphs and on symmetry graphs of desk instances.
    # No two of the 61-bit keys collide on these graphs, so the test answers
    # exactly what the canonical refinement does; with colliding weights it
    # may merge cells, which can only turn True answers into False ones
    for colliding, least in ((False, 100), (True, 20)):
        if colliding:
            monkeypatch.setattr(detect, "_weights", _CollidingWeights)
        rng = random.Random(53)
        answers = Counter()
        for _ in range(300):
            n = rng.randint(1, 30)
            colors = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
            inst = oracles.random_instance(rng, rng.randint(1, 8), rng.randint(0, 14))
            inst = QbfInstance(inst.prefix, inst.clauses + inst.clauses[: rng.randint(0, 3)])
            for graph in (
                _random_graph(rng, n, rng.random() * 0.4, colors),
                _symmetric_graph(rng),
                build_symmetry_graph(inst),
            ):
                separated = _asymmetric(graph)
                answers[separated] += 1
                if separated or not colliding:
                    assert separated == _discrete(graph)
        assert min(answers.values()) > least


def test_asymmetry_test_separates_random_3cnfs():
    rng = random.Random(300)
    for _ in range(10):
        graph = _random_3cnf_graph(rng, 300, 1500)
        assert _discrete(graph)
        assert _asymmetric(graph)


def test_asymmetry_test_leaves_malformed_colorings_to_the_refinement():
    graph = _random_3cnf_graph(random.Random(5), 300, 1500)
    assert graph.n_vertices >= ASYMMETRY_TEST_VERTICES
    for colors in (graph.colors[:-1], graph.colors + (0,)):
        with pytest.raises(ValidationError):
            find_automorphisms(ColoredGraph(graph.n_vertices, graph.adjacency, colors))


def _unchanged_by_the_asymmetry_test(monkeypatch, graphs):
    """Assert that ``find_automorphisms`` returns on every graph, with the
    test run at every size, what it returns with the test answering False."""
    with monkeypatch.context() as patch:
        patch.setattr(detect, "_asymmetric", lambda graph: False)
        expected = [find_automorphisms(g) for g in graphs]
    monkeypatch.setattr(detect, "ASYMMETRY_TEST_VERTICES", 0)
    assert [find_automorphisms(g) for g in graphs] == expected


def test_equal_weights_fall_back_to_the_canonical_root(monkeypatch):
    # with every weight equal a round splits by degree alone, so the test
    # answers False nearly always and the canonical path decides
    rng = random.Random(41)
    graphs = [_random_3cnf_graph(rng, 300, 1500) for _ in range(3)]
    graphs += [build_symmetry_graph(gen_kbkf(t)) for t in (1, 4)]
    graphs += [build_symmetry_graph(free_block(20)), build_symmetry_graph(pigeonhole(4, 3))]
    graphs += [
        build_symmetry_graph(oracles.random_instance(rng, rng.randint(1, 8), rng.randint(0, 14)))
        for _ in range(100)
    ]
    calls = Counter()
    refined = detect._refined

    def counted(*args):
        calls["refined"] += 1
        return refined(*args)

    monkeypatch.setattr(detect, "_weights", lambda n: [1] * n)
    monkeypatch.setattr(detect, "_refined", counted)
    _unchanged_by_the_asymmetry_test(monkeypatch, graphs)
    assert calls["refined"] > 200  # both sides refined (nearly) every graph


def test_asymmetry_test_changes_no_benchmark_result(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    texts = [
        instance.text
        for make in workloads.WORKLOADS.values()
        for instance in make(1).instances
    ]
    graphs = [build_symmetry_graph(parse_qdimacs(text)) for text in texts]
    _unchanged_by_the_asymmetry_test(monkeypatch, graphs)


def test_tautological_clauses_keep_the_group():
    rng = random.Random(616)
    checked = 0
    for _ in range(40):
        inst = oracles.random_instance(rng, rng.randint(1, 5), rng.randint(0, 5))
        v = rng.choice(inst.prefix.variables)
        clauses = list(inst.clauses) + [(v, -v)]
        rng.shuffle(clauses)
        inst = QbfInstance(inst.prefix, tuple(clauses))
        try:
            reference = brute_force_symmetries(inst, cap=50_000)
        except CapExceededError:
            continue
        checked += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", DetectionWarning)
            result = detect_symmetries(inst, budget=200_000)
        assert result.complete
        identity = SignedPermutation.identity(inst.prefix.variables)
        closure = set(group_closure(result.generators or [identity]))
        assert closure == set(reference) | {identity}
        assert result.group_order == len(closure)
    assert checked >= 30


def test_detected_group_contains_the_copy_gadget_swap():
    result = detect_symmetries(COPIES)
    assert result.complete
    swap = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3})
    assert swap in group_closure(result.generators)


def test_vertex_permutation_conversion():
    swap = ((0, 2), (1, 3), (2, 0), (3, 1))
    (g,) = to_signed_permutations([swap], PAIR)
    assert g == SignedPermutation.from_dict({1: 2, 2: 1})

    flip_inst = QbfInstance(prefix=Prefix.from_pairs([(EXISTS, [1])]), clauses=())
    (g,) = to_signed_permutations([((0, 1), (1, 0))], flip_inst)
    assert g == SignedPermutation.from_dict({1: -1})


def test_conversion_drops_identity():
    assert to_signed_permutations([()], PAIR) == ()
    # a support that also names fixed vertices reads the same
    assert to_signed_permutations([((0, 0), (1, 1), (4, 4))], PAIR) == ()


def test_conversion_warns_on_broken_pairing():
    inst = QbfInstance(prefix=Prefix.from_pairs([(EXISTS, [1, 2])]), clauses=())
    # maps x's literal pair onto vertices of two different variables; one
    # that pairs 2 with 3 but leaves vertex 3 without an image; one that
    # maps both pairs onto x's.  (A support names only what it moves, so
    # it cannot miss a literal vertex as a too short dense map could.)
    for bad in [((1, 2), (2, 1)), ((0, 2), (1, 3), (2, 0)), ((2, 0), (3, 1))]:
        with pytest.warns(DetectionWarning):
            assert to_signed_permutations([bad], inst) == ()


def test_conversion_rejects_malformed_supports():
    # literal vertices 0-3 for x and y, clause vertices 4 for (x or y)
    # and 5 for (-x or -y)
    inst = QbfInstance(Prefix.from_pairs([(EXISTS, [1, 2])]), ((1, 2), (-1, -2)))
    swap = ((0, 2), (1, 3), (2, 0), (3, 1))
    flip = ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4))
    swapped = SignedPermutation.from_dict({1: 2, 2: 1})
    assert to_signed_permutations([swap, flip], inst) == (
        swapped,
        SignedPermutation.from_dict({1: -1, 2: -2}),
    )
    for bad in [
        ((0, 3), (0, 2), (1, 3), (2, 0), (3, 1)),  # 0 twice; the last reads as the swap
        ((-2, 0), (-1, 1), (0, -2), (1, -1)),  # negative indices read as y's pair
        ((0, 4), (1, 5), (4, 0), (5, 1)),  # x's literals onto the clauses
        ((0, 2), (1, 3)),  # images 2 and 3 are not the sources 0 and 1
    ]:
        with pytest.warns(DetectionWarning):
            assert to_signed_permutations([bad, swap], inst) == (swapped,)


def test_conversion_rechecks_the_syntactic_symmetry():
    # literal vertices 0-7 for e 1 2, a 3 4; the clauses are (1 3) and (2 4).
    # (1 2)(3 4) maps them onto each other; (1 2) alone maps (1 3) onto
    # (2 3), outside the clause set; (1 3) fixes both, but across blocks
    inst = QbfInstance(Prefix.from_pairs([(EXISTS, [1, 2]), (FORALL, [3, 4])]), ((1, 3), (2, 4)))
    good = ((0, 2), (1, 3), (2, 0), (3, 1), (4, 6), (5, 7), (6, 4), (7, 5))
    swapped = SignedPermutation.from_dict({1: 2, 2: 1, 3: 4, 4: 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error", DetectionWarning)
        assert to_signed_permutations([good], inst) == (swapped,)
    for bad in [((0, 2), (1, 3), (2, 0), (3, 1)), ((0, 4), (1, 5), (4, 0), (5, 1))]:
        for supports in ([bad, good], [good, bad]):
            with pytest.warns(DetectionWarning, match="not a syntactic symmetry"):
                assert to_signed_permutations(supports, inst) == (swapped,)


def test_detector_output_is_sound():
    rng = random.Random(909)
    for _ in range(100):
        inst, _ = oracles.planted_instance(rng, rng.randint(2, 8), rng.randint(1, 6))
        for g in detect_symmetries(inst):
            assert check_admissible(g, inst.prefix).ok
            assert is_syntactic_symmetry(g, inst)


def test_detector_complete_on_small_instances():
    rng = random.Random(515)
    checked = 0
    for _ in range(40):
        inst = oracles.random_instance(rng, rng.randint(1, 6), rng.randint(1, 6))
        try:
            reference = brute_force_symmetries(inst, cap=50_000)
        except CapExceededError:
            continue
        checked += 1
        result = detect_symmetries(inst, budget=200_000)
        assert result.complete
        if result.generators:
            closure = set(group_closure(result.generators))
        else:
            closure = {SignedPermutation.identity(inst.prefix.variables)}
        identity = SignedPermutation.identity(inst.prefix.variables)
        assert closure == set(reference) | {identity}
        assert result.group_order == len(reference) + 1
    assert checked >= 30


def test_detector_recovers_planted_generator():
    rng = random.Random(2024)
    for _ in range(25):
        inst, g = oracles.planted_instance(rng, rng.randint(2, 5), rng.randint(1, 3))
        result = detect_symmetries(inst)
        assert result.complete
        assert result.generators
        assert g in group_closure(result.generators)


def test_budget_exhaustion_flags_partial_result():
    result = find_automorphisms(build_symmetry_graph(PAIR), budget=1)
    assert not result.complete
    assert result.nodes_expanded >= 1
    assert result.order is None
    partial = detect_symmetries(PAIR, budget=1)
    assert not partial.complete
    assert partial.group_order is None


def test_empty_instance_detects_nothing():
    inst = QbfInstance(prefix=Prefix(), clauses=())
    result = detect_symmetries(inst)
    assert result.complete
    assert result.generators == ()


def test_full_group_found_on_equality_gadget():
    # y and z form a Klein four group (swap, flip both, flip and swap);
    # x is unused by the matrix, so flipping it is a symmetry as well
    inst = QbfInstance(
        prefix=Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])]),
        clauses=((-2, 3), (2, -3)),
    )
    reference = set(brute_force_symmetries(inst))
    assert len(reference) == 7
    detected = detect_symmetries(inst)
    assert set(group_closure(detected.generators)) - {
        SignedPermutation.identity((1, 2, 3))
    } == reference
    assert detected.group_order == len(reference) + 1


def test_brute_force_cap():
    inst = QbfInstance(
        prefix=Prefix.from_pairs([(EXISTS, list(range(1, 9)))]), clauses=()
    )
    with pytest.raises(CapExceededError):
        brute_force_symmetries(inst, cap=100_000)


def test_result_containers_iterate():
    result = find_automorphisms(build_symmetry_graph(PAIR))
    assert isinstance(result, AutomorphismResult)
    assert len(result) == 1
    assert list(result) == [((0, 2), (1, 3), (2, 0), (3, 1))]
    detection = detect_symmetries(PAIR)
    assert len(detection) == 1
    assert list(detection) == [SignedPermutation.from_dict({1: 2, 2: 1})]


def free_block(k):
    return QbfInstance(
        prefix=Prefix.from_pairs([(EXISTS, list(range(1, k + 1)))]), clauses=()
    )


def pigeonhole(pigeons, holes):
    """All-existential pigeonhole CNF; its group is S_pigeons x S_holes."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append((-var(p, h), -var(q, h)))
    n = pigeons * holes
    return QbfInstance(
        prefix=Prefix.from_pairs([(EXISTS, list(range(1, n + 1)))]),
        clauses=tuple(clauses),
    )


@pytest.mark.parametrize("t", [8, 16, 32])
def test_kbkf_generating_set_is_small(t):
    result = detect_symmetries(gen_kbkf(t))
    assert result.complete
    assert 1 <= len(result.generators) <= t
    assert result.group_order == 2**t


def test_pigeonhole_generating_set_is_small():
    result = detect_symmetries(pigeonhole(5, 4))
    assert result.complete
    assert len(result.generators) <= 7
    assert result.group_order == factorial(5) * factorial(4)
    assert len(group_closure(result.generators)) == result.group_order


def test_free_block_search_completes():
    result = detect_symmetries(free_block(6))
    assert result.complete
    assert len(result.generators) <= 11
    assert result.group_order == 2**6 * factorial(6)


def test_twin_clauses_do_not_count_toward_the_order():
    # the two copies of (x or y) share one clause vertex, so no graph
    # automorphism swaps them
    twins = QbfInstance(prefix=PAIR.prefix, clauses=((1, 2), (1, 2)))
    result = detect_symmetries(twins)
    assert result.group_order == 2
    assert result.generators == (SignedPermutation.from_dict({1: 2, 2: 1}),)
    assert find_automorphisms(build_symmetry_graph(twins)).order == 2


def test_twin_clause_is_not_swapped_with_a_single_clause():
    # swapping x and y would map the twice-listed (x or z) onto the
    # once-listed (y or z); the clause colors keep them apart
    inst = QbfInstance(
        prefix=Prefix.from_pairs([(EXISTS, [1, 2, 3])]),
        clauses=((1, 3), (2, 3), (1, 3)),
    )
    assert brute_force_symmetries(inst) == ()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DetectionWarning)
        result = detect_symmetries(inst)
    assert result.complete
    assert result.generators == ()
    assert result.group_order == 1
    assert find_automorphisms(build_symmetry_graph(inst)).permutations == ()


def test_repeated_clauses_keep_the_group():
    rng = random.Random(404)
    checked = 0
    for _ in range(40):
        inst = oracles.random_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        clauses = list(inst.clauses)
        clauses += rng.sample(clauses, rng.randint(1, len(clauses)))
        rng.shuffle(clauses)
        inst = QbfInstance(inst.prefix, tuple(clauses))
        try:
            reference = brute_force_symmetries(inst, cap=50_000)
        except CapExceededError:
            continue
        checked += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", DetectionWarning)
            result = detect_symmetries(inst, budget=200_000)
        assert result.complete
        identity = SignedPermutation.identity(inst.prefix.variables)
        closure = set(group_closure(result.generators or [identity]))
        assert closure == set(reference) | {identity}
        assert result.group_order == len(closure)
        assert find_automorphisms(build_symmetry_graph(inst)).order == len(closure)
    assert checked >= 30


def test_unsorted_clauses_keep_their_symmetries():
    unsorted = QbfInstance(prefix=PAIR.prefix, clauses=((2, 1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DetectionWarning)
        result = detect_symmetries(unsorted)
    assert result.generators == (SignedPermutation.from_dict({1: 2, 2: 1}),)
    assert result.group_order == 2


def test_detected_generators_share_the_domain_and_move_little():
    inst = free_block(200)
    result = detect_symmetries(inst)
    assert len(result.generators) == 399
    assert all(len(g.moved) <= 2 for g in result.generators)
    assert all(g.domain is inst.prefix.domain for g in result.generators)


def test_long_first_path_needs_no_recursion(package_env):
    script = (
        "import sys\n"
        "from qsymbreak.detect import detect_symmetries\n"
        "from qsymbreak.qdimacs import EXISTS, Prefix, QbfInstance\n"
        "block = Prefix.from_pairs([(EXISTS, list(range(1, 201)))])\n"
        "instance = QbfInstance(prefix=block, clauses=())\n"
        "sys.setrecursionlimit(60)\n"
        "for budget in (150, 1000):\n"
        "    result = detect_symmetries(instance, budget=budget)\n"
        "    print(result.complete, len(result.generators))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=package_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the first path alone is 200 nodes deep; the whole search takes 599
    assert proc.stdout.split() == ["False", "0", "True", "399"]


# detection outputs pinned when refinement re-sorted every vertex on every
# pass: (nodes expanded, generators, sha256 of the generators' mappings)
PINNED_DETECTIONS = {
    "free_block_50": (
        lambda: free_block(50),
        (149, 99, "0bc45cd6199e08244e93ba782b6c9738996c8c8a60e39e09630121a747e6f6d0"),
    ),
    "free_block_200": (
        lambda: free_block(200),
        (599, 399, "2a65d653b87613f671eebefb033df818999fbab7a3a38340bc4bfe7b00d8e58a"),
    ),
    "kbkf_8": (
        lambda: gen_kbkf(8),
        (16, 8, "d9c01e02c4d50da8c5b56bb74843ba92ed55aaaab0dda805e8058b68435c7e66"),
    ),
    "kbkf_16": (
        lambda: gen_kbkf(16),
        (32, 16, "537bcc70a0dba0b70669562d7c7b8d7dba2ad33eab399774a3b56c42edf11843"),
    ),
    "kbkf_32": (
        lambda: gen_kbkf(32),
        (64, 32, "5d420407f7285730b7870288c10463b98203370ae76e1f14934b8a10f3e647ee"),
    ),
    "kbkf_64": (
        lambda: gen_kbkf(64),
        (128, 64, "73f07cae1d540fadebf93ed9758b23fae68484af8317bc15d41a440caf7894fd"),
    ),
    "pigeonhole_6x5": (
        lambda: pigeonhole(6, 5),
        (14, 9, "c92b12618cfc9f66fa5ba8b0b66346fcd9bf3d768e45db137529b3dd7469b5dc"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DETECTIONS))
def test_detection_outputs_stay_pinned(name):
    make, expected = PINNED_DETECTIONS[name]
    result = detect_symmetries(make())
    digest = hashlib.sha256(
        repr(tuple(g.mapping for g in result.generators)).encode()
    ).hexdigest()
    assert (result.nodes_expanded, len(result.generators), digest) == expected
