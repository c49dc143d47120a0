"""Benchmark instance generators.

Two sources of test corpora: the KBKF family of false, highly symmetric
QBFs from H. Kleine Buening, M. Karpinski and A. Floegel, "Resolution
for quantified Boolean formulas" (Information and Computation 117(1),
1995), and seeded random instances with an optional planted symmetry
that gives detectors a ground truth to find.
"""

from __future__ import annotations

import random
import re

from .errors import ValidationError
from .groups import SignedPermutation, format_generator
from .qdimacs import EXISTS, FORALL, Prefix, QbfInstance, normalize_clause
from .strategies import TRUTH_VAR_CAP

_PATTERN = re.compile(r"([ae])(\d*)")


def _kbkf_level(i: int) -> tuple[int, int, int]:
    """Level i's variables (d_i, e_i, x_i) in gen_kbkf's numbering."""
    return 3 * i - 2, 3 * i - 1, 3 * i


def gen_kbkf(t: int) -> QbfInstance:
    """Build the t-level KBKF instance.

    Level i owns existential d_i, e_i and universal x_i; a tail block of
    existentials f_1..f_t closes the prefix.  The clauses force the
    existential player to predict every universal move, which fails, so
    the instance is false for every t.  Variables are numbered
    d_i = 3(i-1)+1, e_i = 3(i-1)+2, x_i = 3i, f_j = 3t+j.
    """
    if t < 1:
        raise ValidationError("the family needs at least one level")
    levels = [_kbkf_level(i) for i in range(1, t + 1)]
    f = tuple(range(3 * t + 1, 4 * t + 1))
    pairs = []
    for d, e, x in levels:
        pairs += [(EXISTS, (d, e)), (FORALL, (x,))]
    pairs.append((EXISTS, f))

    # level i's two clauses end in the negated existentials of level i + 1,
    # the last level's in every negated f_j
    negated = [(-d, -e) for d, e, _ in levels] + [tuple(-fj for fj in f)]
    clauses = [negated[0]]
    for (d, e, x), after in zip(levels, negated[1:]):
        clauses += [(d, x, *after), (e, -x, *after)]
    for (_, _, x), fj in zip(levels, f):
        clauses += [(x, fj), (-x, fj)]
    return QbfInstance(prefix=Prefix.from_pairs(pairs), clauses=tuple(clauses))


def kbkf_level_symmetry(t: int, level: int) -> SignedPermutation:
    """The symmetry of gen_kbkf(t) that swaps d and e of one level while
    flipping that level's universal variable."""
    if not 1 <= level <= t:
        raise ValidationError(f"level {level} outside 1..{t}")
    d, e, x = _kbkf_level(level)
    mapping = {v: v for v in range(1, 4 * t + 1)}
    mapping[d], mapping[e], mapping[x] = e, d, -x
    return SignedPermutation.from_dict(mapping)


def _parse_pattern(pattern: str, n: int) -> list[tuple[str, int]]:
    if not pattern or not re.fullmatch(r"(?:[ae]\d*)+", pattern):
        raise ValidationError(
            f"bad block pattern {pattern!r}; expected letters a/e with optional sizes"
        )
    items = _PATTERN.findall(pattern)
    fixed = sum(int(count) for _, count in items if count)
    if any(count and int(count) == 0 for _, count in items):
        raise ValidationError("block sizes must be positive")
    flexible = [i for i, (_, count) in enumerate(items) if not count]
    remaining = n - fixed
    if remaining < len(flexible) or (not flexible and remaining != 0):
        raise ValidationError(
            f"pattern {pattern!r} cannot cover exactly {n} variables"
        )
    sizes = [int(count) if count else 0 for _, count in items]
    if flexible:
        share, extra = divmod(remaining, len(flexible))
        for k, i in enumerate(flexible):
            sizes[i] = share + (1 if k < extra else 0)
    return [(q, size) for (q, _), size in zip(items, sizes)]


def _random_involution(rng: random.Random, prefix: Prefix) -> SignedPermutation:
    mapping: dict[int, int] = {}
    for block in prefix.blocks:
        variables = list(block.variables)
        rng.shuffle(variables)
        while len(variables) >= 2:
            if rng.random() < 0.5:
                a, b = variables.pop(), variables.pop()
                sign = rng.choice((1, -1))
                mapping[a], mapping[b] = sign * b, sign * a
            else:
                v = variables.pop()
                mapping[v] = rng.choice((1, -1)) * v
        for v in variables:
            mapping[v] = rng.choice((1, -1)) * v
    g = SignedPermutation.from_dict(mapping)
    if g.is_identity:
        v = rng.choice(prefix.variables)
        mapping[v] = -v
        g = SignedPermutation.from_dict(mapping)
    return g


def _random_clauses(
    rng: random.Random, variables: tuple[int, ...], m: int
) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(m):
        width = rng.randint(1, min(3, len(variables)))
        chosen = rng.sample(variables, width)
        clause = normalize_clause(
            tuple(v if rng.random() < 0.5 else -v for v in chosen)
        )
        if clause is not None and clause not in seen:
            seen.add(clause)
            out.append(clause)
    return out


def _generate(
    seed: int, n: int, m: int, pattern: str, planted: bool
) -> tuple[QbfInstance, SignedPermutation | None]:
    if n < 1:
        raise ValidationError("need at least one variable")
    if n > TRUTH_VAR_CAP:
        raise ValidationError(f"{n} variables exceed the truth cap {TRUTH_VAR_CAP}")
    if m < 0:
        raise ValidationError("clause count must not be negative")
    rng = random.Random(seed)
    blocks = _parse_pattern(pattern, n)
    next_var = 1
    pairs = []
    for q, size in blocks:
        pairs.append((q, tuple(range(next_var, next_var + size))))
        next_var += size
    prefix = Prefix.from_pairs(pairs)

    clauses = _random_clauses(rng, prefix.variables, m)
    generator: SignedPermutation | None = None
    comments: tuple[str, ...] = ()
    if planted:
        generator = _random_involution(rng, prefix)
        seen = set(clauses)
        for clause in list(clauses):
            image = generator.apply_to_clause(clause)
            if image not in seen:
                seen.add(image)
                clauses.append(image)
        comments = (f"planted symmetry: {format_generator(generator)}",)
    instance = QbfInstance(
        prefix=prefix, clauses=tuple(clauses), comments=comments
    )
    return instance, generator


def gen_random_qbf(
    seed: int, n: int, m: int, pattern: str = "ea", planted: bool = False
) -> QbfInstance:
    """Generate a random QBF, deterministic in the seed.

    ``pattern`` lays out the quantifier blocks: letters ``a``/``e`` with
    optional sizes, e.g. ``"a2e3"`` (sizes must sum to n) or ``"ea"``
    (the n variables are split evenly).  ``m`` bounds the clause count;
    duplicates are dropped.  With ``planted`` the clause set is closed
    under a random block-respecting involution, recorded in a comment
    line, so the instance is guaranteed to have that syntactic symmetry.
    """
    instance, _ = _generate(seed, n, m, pattern, planted)
    return instance


def gen_planted_qbf(
    seed: int, n: int, m: int, pattern: str = "ea"
) -> tuple[QbfInstance, SignedPermutation]:
    """Like gen_random_qbf with planting, but also return the planted
    involution for use as ground truth."""
    instance, generator = _generate(seed, n, m, pattern, True)
    assert generator is not None
    return instance, generator
