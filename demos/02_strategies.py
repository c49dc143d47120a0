"""The game semantics on the smallest interesting prefix.

In the game for forall x1, exists x2 the universal player owns x1 and
the existential player owns x2 and sees x1 first.  A strategy fixes the
owner's move for every opponent history, so there are 4 existential
strategies (two independent binary choices) and 2 universal ones.
"""

from qsymbreak import (
    EXISTENTIAL,
    UNIVERSAL,
    common_path,
    count_strategies,
    enumerate_strategies,
    parse_qdimacs,
    qbf_truth,
    strategy_value,
)

COPY_GAME = "p cnf 2 2\na 1 0\ne 2 0\n-1 2 0\n1 -2 0\n"


def main():
    instance = parse_qdimacs(COPY_GAME)
    prefix = instance.prefix
    print("instance: forall x1 exists x2. (x1 <-> x2)")
    for role, label in ((EXISTENTIAL, "existential"), (UNIVERSAL, "universal")):
        print(f"{label} strategies: {count_strategies(prefix, role)}")

    print("\nvalue of each existential strategy (conjunction over its paths):")
    for s in enumerate_strategies(prefix, EXISTENTIAL):
        choices = {history: s.label(2, history) for history in ((False,), (True,))}
        print(f"  x2 choices {choices} -> {strategy_value(instance, s)}")

    print(f"\ntruth value: {qbf_truth(instance)}")
    print("the copying strategy wins, so the instance is true")

    s = next(iter(enumerate_strategies(prefix, EXISTENTIAL)))
    t = next(iter(enumerate_strategies(prefix, UNIVERSAL)))
    sigma = common_path(s, t)
    print(f"\nany existential/universal pair shares exactly one play: {sigma}")
    assert sigma in s.paths and sigma in t.paths


if __name__ == "__main__":
    main()
