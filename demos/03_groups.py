"""Signed permutations, admissibility, and what counts as a symmetry.

The equality gadget forall x exists y exists z. (y <-> z) has two
obvious generators: swapping y and z, and negating both.  Together they
generate a Klein four-group.  The paper also admits maps whose images
are formulas, such as z -> y xor z: a bijection of the plays that keeps
every image in its own block, though no literal map and so not a
syntactic symmetry.  The orbit count is that of the existential
strategies under the group the map generates, as ``verify_breaker``
reports it for the constant-true breaker.
"""

from qsymbreak import (
    TRUE,
    AdmissibleMap,
    SignedPermutation,
    Var,
    check_admissible,
    format_generator,
    group_closure,
    is_syntactic_symmetry,
    orbit_of_assignment,
    parse_qdimacs,
    verify_breaker,
)

GADGET = "p cnf 3 2\na 1 0\ne 2 3 0\n-2 3 0\n2 -3 0\n"


def main():
    instance = parse_qdimacs(GADGET)
    swap = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
    negate_both = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})

    for g in (swap, negate_both):
        report = check_admissible(g, instance.prefix)
        orbits = verify_breaker(instance.prefix, [g], TRUE).orbit_count
        print(f"{format_generator(g):<16} admissible={report.ok}"
              f" syntactic={is_syntactic_symmetry(g, instance)} orbits={orbits}")

    # z -> y xor z, written with the formula connectives
    y, z = Var(2), Var(3)
    xor_z = AdmissibleMap.from_dict({1: Var(1), 2: y, 3: (y | z) & ~(y & z)})
    orbits = verify_breaker(instance.prefix, [xor_z], TRUE).orbit_count
    print(f"{'z -> y xor z':<16} admissible={check_admissible(xor_z, instance.prefix).ok}"
          f" orbits={orbits}")

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
