"""Lex-leader breakers: the clause chain, its projection, the cube dual.

On the equality gadget the breaker for the Klein group {swap y z,
negate y and z} is one chain per generator, here two clauses and no
chain variables: the swap's chain is the lex-leader clause (~y | z), since
z ties whenever y does, and the negation's the unit ~y, since a flipped
variable never ties and ends its chain.  A chain has one variable fewer
than the positions before its last goal, so both of these have none.
The projection is "not y": picking the lexicographically least
strategy per orbit pins y to false while z stays free, and all four
strategy orbits keep a representative.
"""

from qsymbreak import (
    Not,
    SignedPermutation,
    Var,
    augment_instance,
    breaker_formula,
    encode_existential_cnf,
    encode_universal_dnf,
    equivalent,
    parse_qdimacs,
    qbf_truth,
    semantic_orbits,
    serialize_dnf,
    verify_breaker,
)

GADGET = "p cnf 3 2\na 1 0\ne 2 3 0\n-2 3 0\n2 -3 0\n"


def main():
    instance = parse_qdimacs(GADGET)
    swap = SignedPermutation.from_dict({1: 1, 2: 3, 3: 2})
    negate_both = SignedPermutation.from_dict({1: 1, 2: -2, 3: -3})
    gens = [swap, negate_both]

    encoded = encode_existential_cnf(instance.prefix, gens)
    print(f"CNF chain encoding: {len(encoded.clauses)} clauses,"
          f" {len(encoded.aux_vars)} chain variables {encoded.aux_vars}")
    for clause in encoded.clauses:
        print(f"  {clause}")

    psi = breaker_formula(encoded)
    print(f"projection onto x, y, z equivalent to Not(y):"
          f" {equivalent(psi.formula, Not(Var(2)), instance.prefix.variables)}")

    orbits = semantic_orbits(instance.prefix, gens)
    report = verify_breaker(instance.prefix, gens, psi)
    print(f"existential strategy orbits: {len(orbits)},"
          f" covered by the breaker: {report.covered}")

    conjoined, _ = augment_instance(instance, encoded, "conjoin-cnf")
    print(f"truth before/after conjoining:"
          f" {qbf_truth(instance)}/{qbf_truth(conjoined)}")

    # the universal dual targets the other player; here the group fixes
    # the lone universal variable, so the cube list is empty (constant
    # false) and the instance is left alone
    dual = encode_universal_dnf(instance.prefix, gens)
    _, sidecar = augment_instance(instance, dual, "attach-dnf")
    print("\nuniversal sidecar for the same group:")
    print(serialize_dnf(*sidecar), end="")


if __name__ == "__main__":
    main()
