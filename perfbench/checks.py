"""Correctness checks made from outside the package, with none of its code.

Each check returns a list of problems; an empty list means it passed.
The benchmark reads the texts the pipelines write with its own QDIMACS
reader, checks generators against the clause multiset itself, and at desk
scale compares the detected group with a brute-force search and the truth
value with a naive game evaluation.
"""

from __future__ import annotations

from collections import Counter, defaultdict


class FormatError(ValueError):
    pass


def read_qdimacs(text: str, kind: str = "cnf") -> dict:
    """Header, prefix blocks, zero-terminated terms and comments of a
    ``p cnf`` or ``p dnf`` text.  Rejects what the format forbids."""
    comments, blocks, terms = [], [], []
    header, current = None, []
    quantified: set[int] = set()
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "c":
            comments.append(line[1:].strip())
        elif fields[0] == "p":
            if header is not None or len(fields) != 4 or fields[1] != kind:
                raise FormatError(f"bad problem line {line!r}")
            header = (int(fields[2]), int(fields[3]))
        elif fields[0] in ("a", "e") and not terms and not current:
            if header is None or fields[-1] != "0":
                raise FormatError(f"bad quantifier line {line!r}")
            variables = [int(f) for f in fields[1:-1]]
            if any(v < 1 or v in quantified for v in variables):
                raise FormatError(f"variable quantified twice or invalid in {line!r}")
            quantified.update(variables)
            blocks.append((fields[0], variables))
        else:
            if header is None:
                raise FormatError("term before the problem line")
            for lit in map(int, fields):
                if lit == 0:
                    terms.append(tuple(current))
                    current = []
                elif abs(lit) not in quantified:
                    raise FormatError(f"unquantified variable {abs(lit)}")
                else:
                    current.append(lit)
    if header is None or current:
        raise FormatError("missing problem line or unterminated term")
    if header[1] != len(terms):
        raise FormatError(f"header declares {header[1]} terms, found {len(terms)}")
    if quantified and max(quantified) > header[0]:
        raise FormatError(f"variable {max(quantified)} above declared {header[0]}")
    for (q1, _), (q2, _) in zip(blocks, blocks[1:]):
        if q1 == q2:
            raise FormatError("adjacent blocks share a quantifier")
    return {"blocks": blocks, "terms": terms, "comments": comments}


def _variables(parsed: dict) -> list[int]:
    return [v for _, block in parsed["blocks"] for v in block]


def check_generators(parsed: dict, generators) -> list[str]:
    """Every generator is a signed permutation of the prefix variables that
    keeps each variable in its block and maps the clause multiset onto
    itself.  ``generators`` are sequences of (variable, image) pairs."""
    block_of = {v: i for i, (_, block) in enumerate(parsed["blocks"]) for v in block}
    clauses = Counter(frozenset(c) for c in parsed["terms"])
    problems = []
    for k, pairs in enumerate(generators):
        image = dict(pairs)
        if set(image) != set(block_of) or {abs(w) for w in image.values()} != set(block_of):
            problems.append(f"generator {k} is not a signed permutation of the prefix")
            continue
        if any(block_of[abs(w)] != block_of[v] for v, w in image.items()):
            problems.append(f"generator {k} leaves a quantifier block")
            continue
        mapped = Counter(
            frozenset(image[abs(l)] if l > 0 else -image[abs(l)] for l in c)
            for c in clauses.elements()
        )
        if mapped != clauses:
            problems.append(f"generator {k} does not map the clause multiset onto itself")
    return problems


def check_break_outputs(parsed: dict, cnf: str, dnf: str) -> list[str]:
    """The outputs of ``break --both`` parse back; the original clauses
    lead the augmented CNF, as its ``matrix clauses`` comment says; the
    chain variables are fresh and the original prefix order is kept."""
    try:
        out, side = read_qdimacs(cnf, "cnf"), read_qdimacs(dnf, "dnf")
    except (FormatError, ValueError) as exc:
        return [f"output does not parse back: {exc}"]
    problems = []
    original = parsed["terms"]
    n_matrix = len(original)
    if f"matrix clauses: {n_matrix}" not in out["comments"]:
        problems.append("missing or wrong 'matrix clauses' comment")
    if [frozenset(c) for c in out["terms"][:n_matrix]] != [frozenset(c) for c in original]:
        problems.append("the original clauses do not lead the augmented CNF")
    if out["blocks"] != side["blocks"]:
        problems.append("CNF and DNF sidecar prefixes differ")
    old = _variables(parsed)
    new = _variables(out)
    kept = set(old)
    quantifier = {v: q for q, block in out["blocks"] for v in block}
    if [v for v in new if v in kept] != old:
        problems.append("original variables lost or reordered")
    elif any(quantifier[v] != q for q, block in parsed["blocks"] for v in block):
        problems.append("an original variable changed quantifier")
    top = max(old, default=0)
    if any(v <= top for v in set(new) - kept):
        problems.append("a chain variable is not fresh")
    return problems


def _compose(a: tuple, b: tuple, index: dict) -> tuple:
    """a after b, both as image tuples over the same variable order."""
    return tuple(a[index[abs(l)]] if l > 0 else -a[index[abs(l)]] for l in b)


def group_closure(generators, order: list[int]) -> set[tuple]:
    """Every element of the group the generators generate, as image tuples.
    Only generators outside the current group join the basis, so a list
    that already is the whole group closes in |G| * |basis| products."""
    index = {v: i for i, v in enumerate(order)}
    elements = {tuple(order)}
    basis = []
    for g in generators:
        if g in elements:
            continue
        basis.append(g)
        frontier = list(elements)
        while frontier:
            fresh = []
            for e in frontier:
                for b in basis:
                    p = _compose(b, e, index)
                    if p not in elements:
                        elements.add(p)
                        fresh.append(p)
            frontier = fresh
    return elements


def brute_force_group(parsed: dict) -> set[tuple]:
    """Every block-respecting signed permutation that maps the clause
    multiset onto itself, identity included, by backtracking over images
    in prefix order and pruning on clauses whose variables are all mapped."""
    order = _variables(parsed)
    position = {v: i for i, v in enumerate(order)}
    block_vars = {v: block for _, block in parsed["blocks"] for v in block}
    clauses = Counter(frozenset(c) for c in parsed["terms"])
    present = set(clauses)
    closing = defaultdict(list)
    for c in present:
        closing[max(position[abs(l)] for l in c)].append(c)
    found: set[tuple] = set()
    image: dict[int, int] = {}
    used: set[int] = set()

    def lit(l):
        return image[abs(l)] if l > 0 else -image[abs(l)]

    def extend(k):
        if k == len(order):
            mapped = Counter(frozenset(lit(l) for l in c) for c in clauses.elements())
            if mapped == clauses:
                found.add(tuple(image[v] for v in order))
            return
        v = order[k]
        for w in block_vars[v]:
            if w in used:
                continue
            used.add(w)
            for s in (w, -w):
                image[v] = s
                if all(frozenset(lit(l) for l in c) in present for c in closing[k]):
                    extend(k + 1)
            used.discard(w)
        image.pop(v, None)

    extend(0)
    return found


def naive_truth(parsed: dict) -> bool:
    """Game value by full expansion of the prefix."""
    order = [(q, v) for q, block in parsed["blocks"] for v in block]
    clauses = parsed["terms"]
    assignment: dict[int, bool] = {}

    def value(k):
        if k == len(order):
            return all(any(assignment[abs(l)] == (l > 0) for l in c) for c in clauses)
        q, v = order[k]
        outcomes = []
        for b in (False, True):
            assignment[v] = b
            outcomes.append(value(k + 1))
        return any(outcomes) if q == "e" else all(outcomes)

    return value(0)


def check_desk_group(parsed: dict, generators) -> list[str]:
    order = _variables(parsed)
    tuples = [tuple(dict(pairs)[v] for v in order) for pairs in generators]
    if group_closure(tuples, order) != brute_force_group(parsed):
        return ["detected group differs from the brute-force group"]
    return []
