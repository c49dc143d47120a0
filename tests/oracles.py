"""Seeded random generators and brute-force oracles shared by the test suite.

Everything here is intentionally naive. The point is to produce expected
values by a code path independent of the implementation under test.
"""

from __future__ import annotations

import itertools
import random

from qsymbreak.formulas import And, Cnf, Const, Formula, Not, Or, Var
from qsymbreak.qdimacs import EXISTS, FORALL, Prefix, QbfInstance


def implies(a: Formula, b: Formula) -> Formula:
    """a -> b as a raw, unfolded Or/Not composition."""
    return Or((Not(a), b))


def iff(a: Formula, b: Formula) -> Formula:
    """a <-> b as a raw, unfolded disjunction of conjunctions."""
    return Or((And((a, b)), And((Not(a), Not(b)))))


def xor(a: Formula, b: Formula) -> Formula:
    """a xor b as a raw, unfolded conjunction of disjunctions."""
    return And((Or((a, b)), Or((Not(a), Not(b)))))


def literal(lit: int) -> Formula:
    return Var(lit) if lit > 0 else Not(Var(-lit))


def lex_leader_reference(prefix: Prefix, generators) -> Formula:
    """The existential lex-leader breaker written out by hand, raw and
    unfolded: for every distinct generator g and every existential x_i that
    g moves, (AND over earlier moved x_j of x_j <-> g(x_j)) -> (x_i -> g(x_i))."""
    terms = []
    for g in dict.fromkeys(generators):
        guards = []
        for v in prefix.variables:
            image = g.image(v)
            if image == v:
                continue
            if prefix.quantifier_of(v) == EXISTS:
                terms.append(implies(And(tuple(guards)), implies(Var(v), literal(image))))
            guards.append(iff(Var(v), literal(image)))
    return And(tuple(terms))


def universal_lex_leader_reference(prefix: Prefix, generators) -> Formula:
    """The universal breaker: the negated existential one of the flipped prefix."""
    return Not(lex_leader_reference(prefix.flipped(), generators))


def evaluate(formula: Formula, sigma: dict[int, bool]) -> bool:
    """Truth value by plain structural recursion over the six node kinds."""
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Var):
        return sigma[formula.id]
    if isinstance(formula, Not):
        return not evaluate(formula.child, sigma)
    if isinstance(formula, And):
        return all([evaluate(child, sigma) for child in formula.children])
    if isinstance(formula, Or):
        return any([evaluate(child, sigma) for child in formula.children])
    if isinstance(formula, Cnf):
        return all([any([sigma[abs(l)] == (l > 0) for l in c]) for c in formula.clauses])
    raise TypeError(f"not a formula node: {formula!r}")


def random_formula(rng: random.Random, var_ids: list[int], depth: int = 3) -> Formula:
    """Random raw (unfolded) formula tree over the given variables; ->,
    <-> and xor come as their And/Or/Not compositions."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(var_ids))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, var_ids, depth - 1))
    if kind == 1:
        width = rng.randint(2, 3)
        return And(tuple(random_formula(rng, var_ids, depth - 1) for _ in range(width)))
    if kind == 2:
        width = rng.randint(2, 3)
        return Or(tuple(random_formula(rng, var_ids, depth - 1) for _ in range(width)))
    a = random_formula(rng, var_ids, depth - 1)
    b = random_formula(rng, var_ids, depth - 1)
    return (implies, iff, xor)[kind - 3](a, b)


def random_assignment(rng: random.Random, var_ids: list[int]) -> dict[int, bool]:
    return {v: rng.random() < 0.5 for v in var_ids}


def random_prefix(rng: random.Random, n: int, max_block: int = 3) -> Prefix:
    """Random prefix over variables 1..n with random block structure."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    pairs = []
    while ids:
        size = rng.randint(1, min(max_block, len(ids)))
        block, ids = ids[:size], ids[size:]
        pairs.append((rng.choice((EXISTS, FORALL)), block))
    return Prefix.from_pairs(pairs)


def random_clauses(rng: random.Random, n: int, m: int, max_width: int = 3) -> list[tuple[int, ...]]:
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(sorted((v if rng.random() < 0.5 else -v for v in vs), key=abs)))
    return clauses


def random_instance(rng: random.Random, n: int, m: int) -> QbfInstance:
    return QbfInstance(prefix=random_prefix(rng, n), clauses=tuple(random_clauses(rng, n, m)))


def random_signed_images(rng: random.Random, prefix: Prefix) -> dict[int, int]:
    """Random block-respecting map of every variable to a literal."""
    images = {}
    for block in prefix.blocks:
        targets = list(block.variables)
        rng.shuffle(targets)
        for v, w in zip(block.variables, targets):
            images[v] = w if rng.random() < 0.5 else -w
    return images


def random_signed_perm(rng: random.Random, prefix: Prefix):
    """Random block-respecting signed permutation (admissible by construction)."""
    from qsymbreak.groups import SignedPermutation

    return SignedPermutation.from_dict(random_signed_images(rng, prefix))


def random_signed_cycles(rng: random.Random, prefix: Prefix, max_len: int = 5):
    """Random block-respecting signed permutation built cycle by cycle: each
    block is cut into cycles of 1 to ``max_len`` variables, in random order
    and with random signs, so fixed points, flips and cycles of either sign
    product all occur."""
    from qsymbreak.groups import SignedPermutation

    images = {}
    for block in prefix.blocks:
        vs = list(block.variables)
        rng.shuffle(vs)
        while vs:
            size = rng.randint(1, min(max_len, len(vs)))
            cycle, vs = vs[:size], vs[size:]
            for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                images[v] = w if rng.random() < 0.5 else -w
    return SignedPermutation.from_dict(images)


def chain_positions(prefix: Prefix, g) -> list[int]:
    """The lex-leader chain positions of g, walked out by hand: the
    variables g moves, in prefix order, each with its whole signed cycle.
    The last member of a cycle in prefix order ties whenever the rest do if
    the cycle's sign product is +1, and is left out; it never ties then if
    the product is -1, and the chain ends there."""
    positions = []
    for v in prefix.variables:
        sign = closing_sign(prefix, g, v)
        if sign == 1:
            continue  # a fixed point, or ties with the rest of its cycle
        positions.append(v)
        if sign == -1:
            break  # never ties with the rest of its cycle
    return positions


def closing_sign(prefix: Prefix, g, v: int) -> int | None:
    """The sign product of v's cycle under g if v is its last member in
    prefix order, else None; a fixed point closes its own cycle with +1."""
    order = list(prefix.variables)
    members, lit = [v], g.image(v)
    while abs(lit) != v:
        members.append(abs(lit))
        lit = g.image_of_literal(lit)
    if max(members, key=order.index) == v:
        return 1 if lit == v else -1
    return None


def literal_cycles(g) -> list[list[int]]:
    """The literal cycles of g walked by hand, one per variable cycle: from
    each moved variable v not met before, least first, the literals that
    ``image_of_literal`` gives until it gives v back.  The cycle holds -v
    when the variable cycle's sign product is -1, and then its second half
    negates its first."""
    cycles, met = [], set()
    for v in g.domain:
        if v not in met and g.image(v) != v:
            cycle, lit = [v], g.image(v)
            while lit != v:
                cycle.append(lit)
                lit = g.image_of_literal(lit)
            met.update(abs(l) for l in cycle)
            cycles.append(cycle)
    return cycles


def cycle_notation(g) -> str:
    """Cycle notation written from ``literal_cycles``: a flip [v, -v] as
    "(-v)", every other cycle as its literals, and the identity as "()"."""
    texts = [
        f"({-c[0]})" if c == [c[0], -c[0]] else "(" + " ".join(map(str, c)) + ")"
        for c in literal_cycles(g)
    ]
    return "".join(texts) or "()"


def random_xor_map(rng: random.Random, prefix: Prefix):
    """Random block-respecting map of every variable to a formula such as
    z -> y xor z, bijective by construction. Within a block, in a random
    order, the i-th variable is mapped to a signed i-th target xor some of
    the earlier targets: triangular over the targets, so invertible."""
    from qsymbreak.groups import AdmissibleMap

    images = {}
    for block in prefix.blocks:
        sources, targets = list(block.variables), list(block.variables)
        rng.shuffle(sources)
        rng.shuffle(targets)
        for i, v in enumerate(sources):
            image = literal(targets[i] if rng.random() < 0.5 else -targets[i])
            for w in targets[:i]:
                if rng.random() < 0.5:
                    image = xor(image, Var(w))
            images[v] = image
    return AdmissibleMap.from_dict(images)


def is_bijection(images: dict[int, Formula], var_ids: list[int]) -> bool:
    """Does sigma -> (value of images[v] under sigma, for each v) reach every
    total assignment of ``var_ids``?  Every assignment is pushed through."""
    reached = set()
    for values in itertools.product((False, True), repeat=len(var_ids)):
        sigma = dict(zip(var_ids, values))
        reached.add(tuple(evaluate(images[v], sigma) for v in var_ids))
    return len(reached) == 2 ** len(var_ids)


def random_involution(rng: random.Random, prefix: Prefix):
    """Random nonidentity block-respecting signed involution."""
    from qsymbreak.groups import SignedPermutation

    while True:
        images = {}
        for block in prefix.blocks:
            vs = list(block.variables)
            rng.shuffle(vs)
            while len(vs) >= 2 and rng.random() < 0.6:
                a, b = vs.pop(), vs.pop()
                sign = 1 if rng.random() < 0.5 else -1
                images[a] = sign * b
                images[b] = sign * a
            for v in vs:
                images[v] = v if rng.random() < 0.5 else -v
        g = SignedPermutation.from_dict(images)
        if not g.is_identity:
            return g


def is_symmetry(images: dict[int, int], instance: QbfInstance) -> bool:
    """Dense symmetry check: map every clause through the variable-to-literal
    map ``images``, then compare the sorted multisets of literal sets."""

    def image(lit: int) -> int:
        return images[abs(lit)] if lit > 0 else -images[abs(lit)]

    before = sorted(tuple(sorted(set(c))) for c in instance.clauses)
    after = sorted(tuple(sorted({image(l) for l in c})) for c in instance.clauses)
    return before == after


def planted_instance(rng: random.Random, n: int, m: int):
    """Random instance whose clause multiset is closed under a random
    involution, plus that involution."""
    prefix = random_prefix(rng, n)
    g = random_involution(rng, prefix)
    base = random_clauses(rng, n, m)
    closed = list(base)
    for clause in base:
        image = g.apply_to_clause(clause)
        closed.append(image)
    return QbfInstance(prefix=prefix, clauses=tuple(closed)), g


def truth_table(formula: Formula, var_ids: list[int]) -> tuple[bool, ...]:
    rows = []
    for values in itertools.product((False, True), repeat=len(var_ids)):
        rows.append(evaluate(formula, dict(zip(var_ids, values))))
    return tuple(rows)


def satisfies(sigma: dict[int, bool], term: tuple[int, ...]) -> bool:
    """Does the total assignment sigma make some literal of term true?"""
    return any((l > 0) == sigma[abs(l)] for l in term)


def brute_qbf_truth(instance: QbfInstance) -> bool:
    """Independent recursive QBF evaluation without any pruning tricks."""
    return brute_truth(
        instance.prefix, lambda sigma: all(satisfies(sigma, c) for c in instance.clauses)
    )


def brute_truth(prefix: Prefix, holds) -> bool:
    """QBF truth of ``prefix`` over the matrix ``holds``, a predicate on
    total assignments, by recursion over every play."""
    order = list(prefix.variables)
    quant = {v: prefix.quantifier_of(v) for v in order}

    def rec(idx: int, sigma: dict[int, bool]) -> bool:
        if idx == len(order):
            return holds(sigma)
        v = order[idx]
        results = (rec(idx + 1, {**sigma, v: False}), rec(idx + 1, {**sigma, v: True}))
        return all(results) if quant[v] == FORALL else any(results)

    return rec(0, {})
