"""Symmetry detection via graph automorphisms.

The instance encodes two independent copies of the same constraint:
(x <-> a) and (y <-> b) under forall x y exists a b.  Swapping the
copies is a syntactic symmetry, and the detector finds it from the
colored literal-clause incidence graph alone.  Each graph automorphism
comes back as its support, the vertices it moves with their images.
"""

from qsymbreak import (
    brute_force_symmetries,
    build_symmetry_graph,
    detect_symmetries,
    find_automorphisms,
    format_generator,
    group_closure,
    parse_qdimacs,
    refine_colors,
)

TWO_COPIES = """\
p cnf 4 4
a 1 2 0
e 3 4 0
-1 3 0
1 -3 0
-2 4 0
2 -4 0
"""


def main():
    instance = parse_qdimacs(TWO_COPIES)
    graph = build_symmetry_graph(instance)
    print(f"graph: {graph.n_vertices} vertices, {len(graph.edges)} edges")
    print(f"initial colors (literals by block, clauses last): {graph.colors}")
    print(f"refined colors: {refine_colors(graph)}")

    automorphisms = find_automorphisms(graph)
    print(f"\nautomorphism search: {len(automorphisms)} generators,"
          f" complete={automorphisms.complete},"
          f" {automorphisms.nodes_expanded} nodes expanded,"
          f" group order {automorphisms.order}")
    print(f"first generator, as the (vertex, image) pairs it moves:"
          f" {automorphisms.permutations[0]}")

    result = detect_symmetries(instance)
    print(f"detected generators (group order {result.group_order}):")
    for g in result.generators:
        print(f"  {format_generator(g)}")

    ours = set(group_closure(list(result.generators)))
    reference = set(group_closure(list(brute_force_symmetries(instance))))
    print(f"\nclosure matches brute force over all block-respecting"
          f" signed permutations: {ours == reference}")


if __name__ == "__main__":
    main()
