"""Syntactic symmetry detection via colored-graph automorphism search.

A QBF instance is turned into a vertex-colored undirected graph whose
color- and adjacency-preserving vertex permutations are exactly the
block-respecting signed permutations of the variables that keep the
clause multiset.  The variable at prefix position ``i`` owns vertices
``2i`` (positive literal) and ``2i + 1`` (negative literal), joined by a
negation edge and colored by the quantifier-block index.  Each distinct
clause (as a literal set) follows as one vertex joined to its literals,
colored by how often the matrix lists it.  Literal vertices are joined
only by negation edges, so every automorphism keeps each variable's
literal pair together, and distinct clauses have distinct literal sets,
so the variables' images fix the clause vertices' images.

Color refinement runs in synchronous rounds.  Internally a color is a
cell label, increasing in color order with room for the cell's members: a
cell splits in place, only its later fragments change label, and the next
round examines only the cells next to those, since no other signature
moved.  Refinement stops once every cell is a singleton.  A search node
is the refiner's own state, each vertex's label and each label's members.
Individualizing a vertex is refinement from a new singleton cell: the
vertex moves to a label above every label in use, and the rounds start at
the cells of its neighbors, the only signatures that changed.

A graph of at least ``ASYMMETRY_TEST_VERTICES`` vertices first meets a
cheaper test for a discrete root.  It refines in full rounds, keying each
vertex by one int, twice the fixed pseudo-random weight of its own id plus
the weights of its neighbors' ids, with no sorting and no relabelling.
Equal ids with equal neighbor multisets give equal keys, so by induction
over the rounds its partition is never finer than the canonical one: when
it separates every vertex, the canonical root is discrete, with no
probability involved.  A key collision can keep a cell together or merge
two cells, and both only coarsen the partition; a round that ends with no
more cells than it started with answers False, and then the canonical
refinement runs as before.

The search returns a generating set of the automorphism group, not the
group itself: one first path of individualization and refinement, then,
level by level from the bottom, one automorphism per orbit of the cell
that the automorphisms found so far do not already join (the first-path
search of nauty and saucy).  A discrete root ends it at once, since only
the identity keeps every color.  Every generator is its support, the
sorted pairs ``(vertex, image)`` of the vertices it moves, and is checked
as a graph automorphism and, after conversion, as a syntactic symmetry.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, permutations, product, repeat
from math import factorial, prod

from .errors import CapExceededError, ValidationError
from .groups import SignedPermutation, is_syntactic_symmetry
from .qdimacs import QbfInstance

DEFAULT_BUDGET = 50_000
BRUTE_FORCE_CAP = 200_000
# the vertex count from which the asymmetry test runs before the canonical
# root refinement; below it the test saves at most about a millisecond on
# an asymmetric graph and adds up to a fifth to a search that finds symmetry
ASYMMETRY_TEST_VERTICES = 1000


class DetectionWarning(UserWarning):
    """A candidate automorphism was discarded during conversion."""


@dataclass(frozen=True)
class ColoredGraph:
    """Simple undirected graph with integer vertex colors.

    ``adjacency[v]`` lists the neighbors of ``v`` in increasing order.
    """

    n_vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, as sorted pairs ``(u, v)`` with ``u < v``."""
        return tuple(
            (u, v) for u, row in enumerate(self.adjacency) for v in row if u < v
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


def build_symmetry_graph(instance: QbfInstance) -> ColoredGraph:
    """Encode an instance as a colored graph for automorphism search.

    The variable at prefix position ``i`` owns vertices ``2i`` (positive
    literal) and ``2i + 1`` (negative literal), colored by its block
    index.  Every distinct clause, compared as a literal set, then gets
    one vertex, in order of first appearance, colored ``b + m - 1`` for
    ``b`` blocks when the matrix lists it ``m`` times.
    """
    blocks = instance.prefix.blocks
    vertex: dict[int, int] = {}
    colors: list[int] = []
    for b, block in enumerate(blocks):
        for v in block.variables:
            vertex[v], vertex[-v] = len(colors), len(colors) + 1
            colors += [b, b]
    adjacency: list = [[i ^ 1] for i in range(len(colors))]
    # a clause's sorted literal vertices are both its key and its row
    key = vertex.__getitem__
    multiplicity = Counter(tuple(sorted(set(map(key, c)))) for c in instance.clauses)
    for cv, (row, m) in enumerate(multiplicity.items(), start=len(colors)):
        colors.append(len(blocks) + m - 1)
        adjacency.append(row)
        for lv in row:
            adjacency[lv].append(cv)

    return ColoredGraph(len(colors), tuple(map(tuple, adjacency)), tuple(colors))


def refine_colors(
    graph: ColoredGraph, colors: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Split color classes by the multiset of neighbor colors, to a fixpoint.

    The result uses consecutive ids ``0..k-1`` assigned canonically, by
    sorting the signatures ``(old color, sorted neighbor colors)``.  Two
    colorings of the same graph related by an automorphism therefore
    refine to colorings related by that same automorphism with identical
    ids, which makes cell structures comparable across search branches.
    Refining an already stable coloring returns it unchanged.  The rounds
    of the module docstring, which stop at a discrete coloring, give the
    ids of full passes to the fixpoint.
    """
    return _ids(_refined(graph, colors)[0])


def _refined(graph: ColoredGraph, colors=None) -> tuple[list[int], dict[int, list[int]]]:
    """``refine_colors`` as a search node: each vertex's label, the start of
    its cell in color order, and each label's members in vertex order."""
    current = _ids(tuple(graph.colors if colors is None else colors))
    if len(current) != graph.n_vertices:
        raise ValidationError("coloring must assign a color to every vertex")
    members: list[list[int]] = [[] for _ in range(max(current, default=-1) + 1)]
    for v, c in enumerate(current):
        members[c].append(v)
    starts = list(accumulate(map(len, members), initial=0))
    labels, cells = list(map(starts.__getitem__, current)), dict(zip(starts, members))
    _refine_rounds(graph.adjacency, labels, cells, list(cells))
    return labels, cells


def _ids(colors) -> tuple[int, ...]:
    """Consecutive color ids ``0..k-1`` in the order of the given colors."""
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    return tuple(map(rank.__getitem__, colors))


def _refine_rounds(adj, labels: list[int], cells: dict[int, list[int]], touched) -> None:
    """Refine in place from the cells labeled in ``touched``.  A cell
    labeled ``s`` owns at least the labels from ``s`` to ``s + size - 1``; its
    fragments, in order of sorted neighbor labels, start where the ones
    before end.  Member lists are replaced, never changed."""
    while touched:
        splits = []
        for s in touched:
            members = cells[s]
            if len(members) < 2:
                continue
            fragments: dict[tuple[int, ...], list[int]] = {}
            for v in members:
                sig = tuple(sorted([labels[u] for u in adj[v]]))
                fragments.setdefault(sig, []).append(v)
            if len(fragments) > 1:
                splits.append((s, [fragments[sig] for sig in sorted(fragments)]))
        changed: list[int] = []
        for s, (first, *later) in splits:
            cells[s], start = first, s + len(first)
            for fragment in later:
                cells[start] = fragment
                for v in fragment:
                    labels[v] = start
                changed += fragment
                start += len(fragment)
        if len(cells) == len(labels):  # discrete: nothing left to split
            return
        touched = {labels[u] for v in changed for u in adj[v]}


def _asymmetric(graph: ColoredGraph) -> bool:
    """True when the asymmetry test of the module docstring separates
    every vertex, which proves the canonical root discrete.  A vertex's
    key is one int, twice its own id's weight plus its neighbors' id
    weights, and its new id is the first vertex with its key, read as that
    vertex's weight: a key's dict holds the weight of the first vertex
    that stored it.  A collision may merge cells, so False comes from the
    first round that ends with no more cells than it started with."""
    n, adj = graph.n_vertices, graph.adjacency
    if len(graph.colors) != n:
        return False  # _refined rejects the coloring
    weights = _weights(n)
    key: dict = {}
    wid = list(map(key.setdefault, graph.colors, weights))
    cells = len(key)
    while cells < n:
        key = {}  # the last round's keys go before the next are built
        get = wid.__getitem__
        sums = (sum(map(get, row), 2 * w) for row, w in zip(adj, wid))
        wid = list(map(key.setdefault, sums, weights))
        if len(key) <= cells:
            return False
        cells = len(key)
    return True


def _weights(n: int) -> list[int]:
    """``n`` pseudo-random 61-bit weights, the same on every call."""
    return list(map(random.Random(0x5EED).getrandbits, repeat(61, n)))


def _individualize(adj, node, v: int, top: int) -> tuple[list[int], dict[int, list[int]]]:
    """The search node of a stable ``node`` with ``v`` moved to a new cell
    labeled ``top``, above every label in use, refined from the cells of
    ``v``'s neighbors.  The parent's lists are left as they were."""
    labels, cells = node[0].copy(), node[1].copy()
    cells[labels[v]] = [u for u in cells[labels[v]] if u != v]
    labels[v], cells[top] = top, [v]
    _refine_rounds(adj, labels, cells, {labels[u] for u in adj[v]})
    return labels, cells


@dataclass(frozen=True)
class AutomorphismResult:
    """A generating set of the graph's automorphism group, as supports,
    with budget accounting.  ``order`` is the group order, or ``None``
    when the budget ran out before the search was complete."""

    permutations: tuple[tuple[tuple[int, int], ...], ...]
    complete: bool
    nodes_expanded: int
    order: int | None = None

    def __iter__(self):
        return iter(self.permutations)

    def __len__(self) -> int:
        return len(self.permutations)


class _BudgetExhausted(Exception):
    pass


def _target_cell(cells: dict[int, list[int]]) -> list[int] | None:
    """The non-singleton cell of the smallest label, or None at a leaf."""
    target = min((s for s, members in cells.items() if len(members) > 1), default=None)
    return None if target is None else cells[target]


def find_automorphisms(
    graph: ColoredGraph, budget: int = DEFAULT_BUDGET
) -> AutomorphismResult:
    """Search for a strong generating set of the graph's automorphisms.

    The first path individualizes, at each level ``d``, the first vertex
    ``v_d`` of the first non-singleton cell and refines, down to a
    discrete leaf.  The levels are then visited bottom-up: at level ``d``
    every other vertex ``w`` of the cell is tried unless it already lies
    in the orbit of ``v_d``, or of a vertex refuted at this level, under
    the automorphisms found so far (all of which fix ``v_0..v_{d-1}``).
    The subtree of ``w`` is searched depth first only until a node gives
    a verified automorphism, which joins the generators: at every node
    whose cell sizes match the first path at that depth, each cell of
    the first path is mapped onto the cell of the same color in vertex
    order (at a leaf, the map of the first leaf onto it; earlier, the
    guess that the cells left are fixed, as in saucy).  The orbit of
    ``v_d`` then has its full size, a component size of the union-find
    over the generators, and the group order is the product of those
    sizes.  Each generator merges at least two orbits, so there are fewer
    than ``n_vertices``; the identity is never reported.  A discrete
    root, found by the asymmetry test of the module docstring or by the
    canonical refinement, ends the search at once with the trivial group
    and no node expanded.  Every node counts against ``budget``; when it
    runs out, the generators found so far are returned with
    ``complete=False``.
    """
    n = graph.n_vertices
    adj = graph.adjacency
    colors0 = graph.colors
    nodes = 0

    def individualize(node, v: int, depth: int):
        # the top label depends on the depth alone, so a node below a
        # first-path node with its cell sizes has its labels too
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        return _individualize(adj, node, v, n + depth)

    def by_color(cells: dict[int, list[int]]) -> list[int]:
        return list(chain.from_iterable(map(cells.__getitem__, sorted(cells))))

    def is_automorphism(moved: dict[int, int]) -> bool:
        # a candidate is a bijection, so it keeps every edge when each moved
        # vertex's row maps onto its image's row: an edge with a moved end
        # is checked in that end's row, and an edge between two fixed
        # vertices is its own image
        image = moved.get
        return all(
            colors0[x] == colors0[v] and tuple(sorted(image(u, u) for u in adj[v])) == adj[x]
            for v, x in moved.items()
        )

    # first path nodes, as labels and vertices by color; automorphic images
    # of a first-path node have its cell labels
    path: list[tuple[list[int], list[int]]] = []
    found: list[tuple[tuple[int, int], ...]] = []
    orbit_of = list(range(n))  # union-find over the generators found
    size = [1] * n  # a root's component size

    def find(v: int) -> int:
        while orbit_of[v] != v:
            orbit_of[v] = orbit_of[orbit_of[v]]
            v = orbit_of[v]
        return v

    def match(level: int, node, w: int) -> tuple[tuple[int, int], ...] | None:
        """An automorphism that maps the first path into the subtree of
        ``w`` at ``level``, by depth-first search with an explicit stack.
        Individualized vertices keep the top labels in individualization
        order, so every candidate fixes ``v_0..v_{level-1}`` and maps
        ``v_level`` to ``w``."""
        stack = [(level, iter((w,)), node)]
        while stack:
            depth, pending, parent = stack[-1]
            v = next(pending, None)
            if v is None:
                stack.pop()
                continue
            child = individualize(parent, v, depth)
            labels, order = path[depth + 1]
            if child[1].keys() != set(labels):
                continue
            moved = {u: x for u, x in zip(order, by_color(child[1])) if u != x}
            if is_automorphism(moved):
                return tuple(sorted(moved.items()))
            cell = _target_cell(child[1])
            if cell is not None:
                stack.append((depth + 1, iter(cell), child))
        return None

    if n >= ASYMMETRY_TEST_VERTICES and _asymmetric(graph):
        return AutomorphismResult((), True, 0, 1)  # a discrete root
    group_order = 1
    node = _refined(graph)
    if len(node[1]) == n:  # a discrete root: only the identity
        return AutomorphismResult((), True, 0, 1)
    try:
        while (cell := _target_cell(node[1])) is not None:
            path.append((node[0], by_color(node[1])))
            node = individualize(node, cell[0], len(path) - 1)
        path.append((node[0], by_color(node[1])))
        for level in reversed(range(len(path) - 1)):
            labels, order = path[level]
            node = labels, {s: list(c) for s, c in groupby(order, labels.__getitem__)}
            base, *rest = _target_cell(node[1])
            refuted: list[int] = []
            blocked = {find(base)}  # the roots of base and the refuted; merges move them
            for w in rest:
                root = find(w)
                if root in blocked:
                    continue
                support = match(level, node, w)
                if support is None:
                    refuted.append(w)
                    blocked.add(root)
                    continue
                found.append(support)
                for v, x in support:
                    a, b = find(v), find(x)
                    if a != b:
                        orbit_of[a] = b
                        size[b] += size[a]
                blocked = {find(v) for v in (base, *refuted)}
            # every generator fixes v_0..v_{level-1}, so the orbit of base
            # lies in the cell
            group_order *= size[find(base)]
    except _BudgetExhausted:
        return AutomorphismResult(tuple(found), False, nodes)
    return AutomorphismResult(tuple(found), True, nodes, group_order)


def to_signed_permutations(perms, instance: QbfInstance) -> tuple[SignedPermutation, ...]:
    """Convert vertex permutations of the symmetry graph, given as their
    supports, into signed variable permutations, reading literals from
    the vertex layout of :func:`build_symmetry_graph`.

    A support is kept only if its images permute its vertices, none
    negative or repeated, and it maps literal vertices onto literal
    vertices, each variable's pair onto the literal pair of a single
    variable; the rest are discarded with a :class:`DetectionWarning`.
    Automorphisms of the symmetry graph always pass; the check is for
    supports that callers supply.  Survivors, built from the literal
    vertices they move, are deduplicated, the identity is dropped, and
    every output is checked to be a syntactic symmetry of the instance.
    """
    variables, domain = instance.prefix.variables, instance.prefix.domain
    n_literals = 2 * len(variables)
    out: list[SignedPermutation] = []
    seen: set[SignedPermutation] = set()
    for perm in perms:
        images = dict(perm)
        sources = sorted(images)
        literals = [(a, b) for a, b in images.items() if a < n_literals]
        # a permutation of its own vertices, none negative or repeated,
        # literals onto literals and pairs onto pairs
        if (
            len(images) < len(perm)
            or min(sources, default=0) < 0
            or sorted(images.values()) != sources
            or any(b >= n_literals or images.get(a ^ 1, a ^ 1) != b ^ 1 for a, b in literals)
        ):
            warnings.warn(
                "discarded a malformed vertex permutation or one that breaks literal pairing",
                DetectionWarning,
                stacklevel=2,
            )
            continue
        pairs = sorted(
            (variables[a >> 1], -variables[b >> 1] if b & 1 else variables[b >> 1])
            for a, b in literals
            if a != b and not a & 1
        )
        g = SignedPermutation(domain, tuple(pairs))
        if g.is_identity or g in seen:
            continue
        try:
            accepted = is_syntactic_symmetry(g, instance)
        except ValidationError:
            accepted = False
        if not accepted:
            warnings.warn(
                "discarded a vertex permutation that is not a syntactic symmetry",
                DetectionWarning,
                stacklevel=2,
            )
            continue
        seen.add(g)
        out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class DetectionResult:
    """Generators found for an instance, with search accounting.

    ``group_order`` is the order of the group the generators generate, or
    ``None`` when the search is incomplete.
    """

    generators: tuple[SignedPermutation, ...]
    complete: bool
    nodes_expanded: int
    group_order: int | None = None

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def detect_symmetries(
    instance: QbfInstance, budget: int = DEFAULT_BUDGET
) -> DetectionResult:
    """Detect syntactic symmetries of an instance.

    Builds the colored graph, searches for a generating set of its
    automorphisms within ``budget`` node expansions, and converts it to
    verified signed-permutation generators.  ``complete=False`` signals
    that the budget ran out and the generators may not generate the whole
    group.
    """
    graph = build_symmetry_graph(instance)
    search = find_automorphisms(graph, budget=budget)
    generators = to_signed_permutations(search.permutations, instance)
    return DetectionResult(
        generators, search.complete, search.nodes_expanded, search.order
    )


def brute_force_symmetries(
    instance: QbfInstance, cap: int = BRUTE_FORCE_CAP
) -> tuple[SignedPermutation, ...]:
    """Enumerate every syntactic symmetry by exhausting signed permutations.

    Tries all block-respecting signed permutations of the prefix
    variables and keeps the non-identity ones that preserve the clause
    multiset.  Intended as a desk-scale reference for the detector; the
    candidate count is capped because it grows as the product of
    ``2^k * k!`` over block sizes ``k``.
    """
    prefix = instance.prefix
    total = prod(factorial(len(b.variables)) * 2 ** len(b.variables) for b in prefix.blocks)
    if total > cap:
        raise CapExceededError(
            f"{total} block-respecting signed permutations exceed cap {cap}"
        )

    block_options = [
        [
            tuple((v, s * w) for v, s, w in zip(block.variables, signs, image))
            for image in permutations(block.variables)
            for signs in product((1, -1), repeat=len(block.variables))
        ]
        for block in prefix.blocks
    ]

    out: list[SignedPermutation] = []
    for combo in product(*block_options):
        g = SignedPermutation.from_dict({v: w for part in combo for v, w in part})
        if not g.is_identity and is_syntactic_symmetry(g, instance):
            out.append(g)
    return tuple(out)
