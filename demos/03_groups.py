"""Signed permutations, admissibility, and what counts as a symmetry.

The equality gadget forall x exists y exists z. (y <-> z) has two
obvious generators: swapping y and z, and negating both.  Together they
generate a Klein four-group.
"""

from qsymbreak import (
    SignedPermutation,
    check_admissible,
    format_generator,
    group_closure,
    is_syntactic_symmetry,
    orbit_of_assignment,
    parse_qdimacs,
)

GADGET = "p cnf 3 2\na 1 0\ne 2 3 0\n-2 3 0\n2 -3 0\n"


def main():
    instance = parse_qdimacs(GADGET)
    swap = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
    negate_both = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})

    for g in (swap, negate_both):
        report = check_admissible(g, instance.prefix)
        print(f"{format_generator(g):<16} admissible={report.ok}"
              f" syntactic={is_syntactic_symmetry(g, instance)}")

    # the swap across quantifier blocks is a bijection but not admissible
    cross = SignedPermutation.from_dict({1: 2, 2: 1, 3: 3})
    print(f"{format_generator(cross):<16} admissible={check_admissible(cross, instance.prefix).ok}")

    closure = group_closure([swap, negate_both])
    print(f"\nclosure of the two generators ({len(closure)} elements):")
    for g in sorted(closure, key=format_generator):
        print(f"  {format_generator(g)}")

    sigma = {1: False, 2: False, 3: True}
    orbit = orbit_of_assignment([swap, negate_both], sigma)
    print(f"\norbit of the assignment {sigma}, walked from the generators:")
    for image in orbit:
        print(f"  {image}")


if __name__ == "__main__":
    main()
