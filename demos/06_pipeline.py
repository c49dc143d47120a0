"""End-to-end pipeline on a crafted benchmark family.

Generate a KBKF instance (false, one symmetry per level), detect its
group, break it for the existential player, and confirm the verdict is
unchanged.  The breaker checked for orbit coverage is the projection of
the very chain that was conjoined: "x1 implies x2" for the level
symmetry, which swaps x1 and x2 and negates x3.  That chain is the one
clause (~x1 | x2) and adds no chain variable: x2 ties whenever x1 does,
and the universal flip of x3 comes after the last existential position.
The same steps are
available as shell commands:

    qsymbreak gen kbkf 1 -o k1.qdimacs
    qsymbreak detect k1.qdimacs
    qsymbreak break --exists k1.qdimacs -o k1.broken.qdimacs
    qsymbreak solve k1.broken.qdimacs
"""

from qsymbreak import (
    Not,
    Or,
    Var,
    augment_instance,
    breaker_formula,
    detect_symmetries,
    encode_existential_cnf,
    equivalent,
    format_generator,
    gen_kbkf,
    kbkf_level_symmetry,
    qbf_truth,
    serialize_qdimacs,
    verify_breaker,
)


def main():
    instance = gen_kbkf(1)
    print("KBKF level-1 instance:")
    print(serialize_qdimacs(instance), end="")
    print(f"\ntruth value: {qbf_truth(instance)}")

    result = detect_symmetries(instance)
    print("detected generators:")
    for g in result.generators:
        print(f"  {format_generator(g)}")

    g = kbkf_level_symmetry(1, 1)
    encoded = encode_existential_cnf(instance.prefix, [g])
    broken, _ = augment_instance(instance, encoded, "conjoin-cnf")
    print(f"\nbroken instance has {len(broken.clauses)} clauses"
          f" over {broken.prefix.n} variables")
    print(f"truth value after breaking: {qbf_truth(broken)}")

    psi = breaker_formula(encoded)
    print(f"projection onto the prefix equivalent to x1 -> x2:"
          f" {equivalent(psi.formula, Or((Not(Var(1)), Var(2))), instance.prefix.variables)}")
    report = verify_breaker(instance.prefix, [g], psi)
    print(f"orbit coverage: {report.covered}/{report.orbit_count} orbits keep"
          f" a strategy satisfying the breaker")


if __name__ == "__main__":
    main()
