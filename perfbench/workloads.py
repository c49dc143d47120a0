"""Seeded QDIMACS inputs for the benchmark workloads.

The benchmark builds its own inputs as QDIMACS text, with generators that
share no code with the package, so a change to ``qsymbreak.benchmarks``
cannot change what is measured.  The package only ever sees the text.

Every workload lists its instances with the pipeline each one runs
(``break`` is ``qsymbreak break --both``, ``verify`` is ``qsymbreak
verify`` with its defaults) and why it is there.  Each pass also runs the
other pipeline once on KBKF t = 1, the smallest instance both pipelines
finish on, so that every layer records a measured span on every workload;
it costs a few milliseconds of a pass of seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BREAK = "break"
VERIFY = "verify"


@dataclass(frozen=True)
class Instance:
    id: str
    pipeline: str
    text: str
    why: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[Instance, ...]
    left_out: tuple[str, ...] = field(default=())


def qdimacs_text(n_vars: int, blocks, clauses) -> str:
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [f"{q} {' '.join(map(str, vs))} 0" for q, vs in blocks]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def _shuffled(clauses, rng: random.Random | None):
    """Seeded literal order: the text changes, the parsed instance (whose
    clauses the parser sorts) and the work do not.  Clause order stays
    fixed, because it changes the order in which generators are found,
    and with it the oracle work on desk_verify by up to 12 % per seed."""
    clauses = [list(c) for c in clauses]
    if rng is not None:
        for clause in clauses:
            rng.shuffle(clause)
    return clauses


def kbkf_text(t: int, rng: random.Random | None = None) -> str:
    """The t-level KBKF formula (Kleine Buening, Karpinski and Floegel,
    1995): false for every t, with a group of order 2^t.

    Level i owns existential d_i = 3i-2, e_i = 3i-1 and universal
    x_i = 3i; the existential tail f_j = 3t+j closes the prefix.
    """
    d, e, x = (lambda i: 3 * i - 2), (lambda i: 3 * i - 1), (lambda i: 3 * i)
    f = lambda j: 3 * t + j  # noqa: E731
    blocks = []
    for i in range(1, t + 1):
        blocks += [("e", [d(i), e(i)]), ("a", [x(i)])]
    blocks.append(("e", [f(j) for j in range(1, t + 1)]))
    clauses = [[-d(1), -e(1)]]
    for i in range(1, t):
        clauses.append([d(i), x(i), -d(i + 1), -e(i + 1)])
        clauses.append([e(i), -x(i), -d(i + 1), -e(i + 1)])
    tail = [-f(j) for j in range(1, t + 1)]
    clauses.append([d(t), x(t)] + tail)
    clauses.append([e(t), -x(t)] + tail)
    for i in range(1, t + 1):
        clauses += [[x(i), f(i)], [-x(i), f(i)]]
    return qdimacs_text(4 * t, blocks, _shuffled(clauses, rng))


def pigeonhole_text(pigeons: int, holes: int, rng: random.Random | None = None) -> str:
    """All-existential pigeonhole CNF; its group is S_pigeons x S_holes."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    n = pigeons * holes
    return qdimacs_text(n, [("e", list(range(1, n + 1)))], _shuffled(clauses, rng))


def free_block_text(k: int) -> str:
    """A clause-free existential block of k variables: its group is every
    signed permutation of the block, of order 2^k * k!."""
    return qdimacs_text(k, [("e", list(range(1, k + 1)))], [])


def _split(pattern: str, n: int) -> list[tuple[str, list[int]]]:
    share, extra = divmod(n, len(pattern))
    blocks, nxt = [], 1
    for i, q in enumerate(pattern):
        size = share + (1 if i < extra else 0)
        blocks.append((q, list(range(nxt, nxt + size))))
        nxt += size
    return blocks


def random_3cnf_text(n: int, m: int, rng: random.Random) -> str:
    """Uniform random 3-CNF under an e/a/e prefix of three equal blocks."""
    clauses = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return qdimacs_text(n, _split("eae", n), clauses)


def planted_clauses(n: int, m: int, pattern: str, rng: random.Random):
    """Blocks and clauses of a planted instance: m random clauses of width
    2 or 3 over n variables, closed under a random block-respecting signed
    involution, so the instance has at least that symmetry."""
    blocks = _split(pattern, n)
    image = {}
    for _, block in blocks:
        free = block[:]
        rng.shuffle(free)
        while free:
            v = free.pop()
            sign = rng.choice((1, -1))
            if free and rng.random() < 0.5:
                w = free.pop()
                image[v], image[w] = sign * w, sign * v
            else:
                image[v] = sign * v
    if all(image[v] == v for v in image):
        v = rng.randrange(1, n + 1)
        image[v] = -v

    def apply(clause):
        return tuple(sorted(image[abs(lit)] * (1 if lit > 0 else -1) for lit in clause))

    clauses, seen = [], set()
    for _ in range(m):
        width = rng.randint(2, 3)
        clause = tuple(sorted(v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, n + 1), width)))
        for c in (clause, apply(clause)):
            if c not in seen:
                seen.add(c)
                clauses.append(c)
    return blocks, clauses


KBKF1_WHY = (
    "KBKF t = 1 through the other pipeline, so every layer records a "
    "measured span on this workload"
)


def symmetric(seed: int) -> Workload:
    rng = random.Random(seed)
    return Workload(
        name="symmetric",
        why=(
            "highly symmetric instances: loads detect search and breakers "
            "encoding, bypasses large-input parsing and refinement"
        ),
        instances=(
            Instance("kbkf_t8", BREAK, kbkf_text(8, rng),
                     "search-bound: detection returns all 2^t - 1 group "
                     "elements as generators (seed defect), one search leaf each"),
            Instance("php_4x4", BREAK, pigeonhole_text(4, 4, rng),
                     "loads search and encoding both: S_p x S_h comes back as "
                     "p!h! - 1 generators, each with its own lex-leader chain"),
            Instance("free_e4", BREAK, free_block_text(4),
                     "encode-bound: 2^k k! - 1 generators; the list-membership "
                     "dedup in breakers._checked_generators is quadratic in "
                     "them (seed defect)"),
            Instance("kbkf_t1_verify", VERIFY, kbkf_text(1), KBKF1_WHY),
        ),
        left_out=(
            "free block k = 6: 30,325 generators come back and their encoding "
            "alone took 232 s, which no run length here holds",
            "free block k = 1200: detection dies with a RecursionError after "
            "about 10 s; a fixed search would emit a breaker of about 10^6 "
            "clauses, so including it would make that fix read as a slowdown",
            "KBKF t = 10, pigeonhole 5 x 4 and the k = 5 free block shrank to "
            "t = 8, 4 x 4 and k = 4, so that a 30 s run holds about 15 passes "
            "instead of 3 (k = 5 alone, with 3,839 generators, took 7 to 9 s); "
            "each instance still loads the layer it was chosen for",
        ),
    )


def large_asym(seed: int) -> Workload:
    rng = random.Random(seed)
    return Workload(
        name="large_asym",
        why=(
            "one large random 3-CNF without symmetry: loads qdimacs "
            "parse/serialize and detect graph build and root refinement; "
            "search and breakers do no work"
        ),
        instances=(
            Instance("rand3_n6000_m30000", BREAK, random_3cnf_text(6000, 30000, rng),
                     "root refinement is discrete, so no generators or breaker "
                     "come out; graph build plus refinement dominate, and a "
                     "search or encoder change should not move it"),
            Instance("kbkf_t1_verify", VERIFY, kbkf_text(1), KBKF1_WHY),
        ),
        left_out=(
            "the 20k-variable / 100k-clause size shrank to 6000 / 30000, "
            "keeping the clause/variable ratio of 5, so that "
            "several passes fit into one run",
        ),
    )


DESK_SHAPES = tuple(
    (n, pattern)
    for pattern in ("ea", "ae", "aea", "eae", "eaea")
    for n in range(4, 9)
)
DESK_CORPUS_SEED = 1802


def desk_verify(seed: int) -> Workload:
    """Planted desk-scale QBFs, two per (n, pattern) shape.

    The clause sets are fixed by ``DESK_CORPUS_SEED``; the run seed sets
    the order of the instances and of the literals in each clause, neither
    of which changes the work.  Clause sets drawn from the run seed moved
    the pass time by about 10 % between seeds, and seeded clause order by
    up to 12 % (the detected group and the order of its elements drive the
    oracle work and the cap an instance hits), more than a bound absorbs.
    """
    corpus = random.Random(DESK_CORPUS_SEED)
    rng = random.Random(seed)
    instances = []
    for copy in range(2):
        for n, pattern in DESK_SHAPES:
            m = corpus.randint(n, 2 * n)
            blocks, clauses = planted_clauses(n, m, pattern, corpus)
            instances.append(Instance(
                f"planted_{pattern}_n{n}_m{m}_{copy}", VERIFY,
                qdimacs_text(n, blocks, _shuffled(clauses, rng)),
                "desk-scale planted symmetry: loads the truth oracle, "
                "strategy enumeration and orbit coverage",
            ))
    instances += [
        Instance("kbkf_t1", VERIFY, kbkf_text(1, rng),
                 "the paper's family at the size verify decides: must be FALSE"),
        Instance("kbkf_t2", VERIFY, kbkf_text(2, rng),
                 "the paper's family one size up: the chain variables push it "
                 "to 35 variables, past the truth cap of 24 (seed defect)"),
        Instance("kbkf_t1_break", BREAK, kbkf_text(1), KBKF1_WHY),
    ]
    rng.shuffle(instances)
    return Workload(
        name="desk_verify",
        why=(
            "planted desk-scale QBFs plus KBKF t = 1, 2: loads the strategies "
            "truth oracle and enumeration and breakers.verify_breaker; "
            "detection is negligible"
        ),
        instances=tuple(instances),
        left_out=(
            "planted instances beyond n = 8: at n = 7 and 8 every shape "
            "already stops at a cap, so larger ones add time and no verdict",
            "KBKF t > 2: t = 2 already exceeds the truth cap",
            f"two planted instances per shape ({2 * len(DESK_SHAPES)} in all) "
            "rather than about 60, to keep a pass near 3 s",
        ),
    )


WORKLOADS = {"symmetric": symmetric, "large_asym": large_asym,
             "desk_verify": desk_verify}
