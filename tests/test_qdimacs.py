"""QDIMACS and DNF sidecar parsing/serialization."""

import hashlib
import io
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymbreak.errors import QdimacsParseError, ValidationError
from qsymbreak.qdimacs import (
    EXISTS,
    FORALL,
    Prefix,
    QbfInstance,
    QdimacsWarning,
    QuantifierBlock,
    normalize_clause,
    parse_dnf,
    parse_qdimacs,
    serialize_dnf,
    serialize_qdimacs,
)

import oracles


def test_parse_two_block_instance():
    inst = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 -2 0")
    assert inst.prefix == Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2])])
    assert inst.clauses == ((1, -2),)
    assert inst.free_vars == ()


def test_parse_free_variable_bound_existentially():
    with pytest.warns(QdimacsWarning, match="free variables"):
        inst = parse_qdimacs("p cnf 1 1\n1 0")
    assert inst.prefix == Prefix.from_pairs([(EXISTS, [1])])
    assert inst.clauses == ((1,),)
    assert inst.free_vars == (1,)


def test_parse_merges_same_quantifier_blocks():
    inst = parse_qdimacs("p cnf 3 1\ne 1 0\ne 2 3 0\n1 2 3 0")
    assert len(inst.prefix.blocks) == 1
    assert inst.prefix.blocks[0].variables == (1, 2, 3)


def test_parse_deduplicates_clause_literals():
    inst = parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 1 -2 1 0")
    assert inst.clauses == ((1, -2),)


def test_parse_errors_carry_location():
    with pytest.raises(QdimacsParseError) as err:
        parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 x 0")
    assert err.value.line == 3
    assert err.value.column == 3


def test_parse_rejects_negative_zero_literal():
    with pytest.raises(QdimacsParseError, match="variable 0"):
        parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 -0 2 0")


def test_parse_rejects_zero_in_quantifier_body():
    with pytest.raises(QdimacsParseError, match="variable 0"):
        parse_qdimacs("p cnf 2 1\na 1 0 2 0\n1 0")


def test_parse_rejects_double_quantification():
    with pytest.raises(QdimacsParseError, match="quantified twice"):
        parse_qdimacs("p cnf 2 1\ne 1 0\na 1 0\n1 0")


def test_clause_count_mismatch_warns_not_fails():
    with pytest.warns(QdimacsWarning, match="declares 5 clauses"):
        inst = parse_qdimacs("p cnf 2 5\ne 1 2 0\n1 2 0")
    assert len(inst.clauses) == 1


def test_multiline_and_shared_line_clauses():
    inst = parse_qdimacs("p cnf 3 3\ne 1 2 3 0\n1\n2 0 2 3 0\n-1 0")
    assert inst.clauses == ((1, 2), (2, 3), (-1,))


def test_tautological_clause_dropped_with_warning():
    with pytest.warns(QdimacsWarning, match="tautological"):
        inst = parse_qdimacs("p cnf 2 2\ne 1 2 0\n1 -1 0\n1 2 0")
    assert inst.clauses == ((1, 2),)


def test_serialize_round_trips_fixed_example():
    text = "p cnf 2 1\na 1 0\ne 2 0\n1 -2 0\n"
    inst = parse_qdimacs(text)
    assert serialize_qdimacs(inst) == text
    assert parse_qdimacs(serialize_qdimacs(inst)) == inst


def test_serializer_is_deterministic():
    rng = random.Random(5)
    inst = oracles.random_instance(rng, 6, 8)
    assert serialize_qdimacs(inst) == serialize_qdimacs(inst)


def test_round_trip_on_random_instances():
    rng = random.Random(20250301)
    for _ in range(100):
        inst = oracles.random_instance(rng, rng.randint(1, 9), rng.randint(0, 10))
        again = parse_qdimacs(serialize_qdimacs(inst))
        assert again == inst
        assert serialize_qdimacs(again) == serialize_qdimacs(inst)


def test_parse_accepts_file_objects_and_bytes():
    text = "p cnf 1 1\ne 1 0\n1 0\n"
    assert parse_qdimacs(io.StringIO(text)) == parse_qdimacs(text.encode()) == parse_qdimacs(text)


def test_parse_drops_a_utf8_byte_order_mark():
    for text in ("p cnf 2 1\ne 1 2 0\n1 -2 0\n", "c note\np cnf 1 1\ne 1 0\n1 0\n"):
        expected = parse_qdimacs(text)
        marked = "\ufeff" + text
        for source in (marked, marked.encode(), io.StringIO(marked)):
            inst = parse_qdimacs(source)
            assert inst == expected
            assert inst.comments == expected.comments


def test_clauses_share_one_int_per_literal_value():
    # ids above the interpreter's small-int cache, so sharing is the parser's
    inst = parse_qdimacs("p cnf 1001 3\ne 1000 1001 0\n1000 -1001 0\n-1001 1000 0\n1001 1000 0\n")
    (a, b), (c, d), (e, f) = inst.clauses
    assert (a, b, f) == (1000, -1001, 1001)
    assert a is c is e
    assert b is d


def test_comments_preserved():
    inst = parse_qdimacs("c hello\nc world\np cnf 1 1\ne 1 0\n1 0")
    assert inst.comments == ("hello", "world")
    assert serialize_qdimacs(inst).startswith("c hello\nc world\n")


def test_comments_with_line_breaks_round_trip():
    comments = ("note\n-1 0", "", "a\r\nb")
    inst = QbfInstance(Prefix.from_pairs([(EXISTS, [1])]), ((1,),), comments=comments)
    text = serialize_qdimacs(inst)
    assert text == "c note\nc -1 0\nc\nc a\nc b\np cnf 1 1\ne 1 0\n1 0\n"
    again = parse_qdimacs(text)
    assert again == inst
    assert again.comments == ("note", "-1 0", "", "a", "b")
    assert serialize_qdimacs(again) == text


def test_prefix_invariants_enforced():
    with pytest.raises(ValidationError):
        Prefix((QuantifierBlock(EXISTS, (1,)), QuantifierBlock(EXISTS, (2,))))
    with pytest.raises(ValidationError):
        Prefix((QuantifierBlock(EXISTS, (1,)), QuantifierBlock(FORALL, (1,))))
    with pytest.raises(ValidationError):
        QuantifierBlock(EXISTS, ())


def test_instance_must_be_closed():
    with pytest.raises(ValidationError, match="closed"):
        QbfInstance(prefix=Prefix.from_pairs([(EXISTS, [1])]), clauses=((1, 2),))


def test_unused_quantified_variable_flagged():
    inst = parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 0")
    assert inst.unused_vars == (2,)


def test_instance_builds_its_matrix_node_once():
    # strategy_value and qbf_truth read it once per call on an instance
    inst = parse_qdimacs("p cnf 2 2\ne 1 2 0\n1 0\n-1 2 0")
    assert inst.to_formula() is inst.to_formula()
    assert inst == parse_qdimacs(serialize_qdimacs(inst))  # the cache is not compared


def test_normalize_clause_orders_and_detects_tautology():
    assert normalize_clause([3, -2, 3, 1]) == (1, -2, 3)
    assert normalize_clause([1, -1]) is None


def test_normalize_clause_matches_the_abs_sign_order():
    def reference(lits):
        unique = set(lits)
        if any(-l in unique for l in unique):
            return None
        return tuple(sorted(unique, key=lambda l: (abs(l), l < 0)))

    rng = random.Random(47)
    tautologies = 0
    for _ in range(2000):
        n = rng.randint(1, 9)
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 8))]
        assert normalize_clause(lits) == reference(lits)
        tautologies += reference(lits) is None
    assert 200 < tautologies < 1800


def test_open_instance_names_its_first_unquantified_variable():
    prefix = Prefix.from_pairs([(EXISTS, [1, 2])])
    with pytest.raises(ValidationError, match="matrix variable 7 is not quantified"):
        QbfInstance(prefix=prefix, clauses=((1, 2), (2, -7, 5), (9,)))


def test_serialize_dnf_single_cube():
    prefix = Prefix.from_pairs([(FORALL, [1])])
    assert serialize_dnf(prefix, [(1,)]) == "p dnf 1 1\na 1 0\n1 0\n"


def test_serialize_dnf_empty_cube_list():
    prefix = Prefix.from_pairs([(EXISTS, [1, 2])])
    assert serialize_dnf(prefix, []) == "p dnf 2 0\ne 1 2 0\n"


def test_serialize_dnf_rejects_unquantified():
    prefix = Prefix.from_pairs([(EXISTS, [1])])
    with pytest.raises(ValidationError):
        serialize_dnf(prefix, [(2,)])


def test_dnf_round_trip():
    prefix = Prefix.from_pairs([(FORALL, [1, 2]), (EXISTS, [3])])
    cubes = ((1, -3), (-1, 2), (3,))
    text = serialize_dnf(prefix, cubes)
    back_prefix, back_cubes = parse_dnf(text)
    assert back_prefix == prefix
    assert back_cubes == cubes
    assert serialize_dnf(back_prefix, back_cubes) == text


def test_parse_dnf_names_the_line_of_an_unquantified_variable():
    # the cube (-1, 2) starts on line 4; variable 2 sits on line 5
    text = "p dnf 2 2\na 1 0\n1 0\n-1\n2 0\n"
    with pytest.raises(QdimacsParseError, match="cube variable 2 is not quantified") as err:
        parse_dnf(text)
    assert err.value.line == 5


def test_parse_dnf_drops_contradictory_cubes_and_checks_the_count():
    text = "p dnf 2 4\na 1 0\ne 2 0\n1 -1 0\n-1 2 0\n2"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prefix, cubes = parse_dnf(text)
    assert [str(w.message) for w in caught] == [
        "unterminated final cube at line 6 (missing 0); kept",
        "dropped 1 contradictory cube(s)",
        "header declares 4 cubes but 3 appear",
    ]
    assert all(w.category is QdimacsWarning for w in caught)
    assert prefix == Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2])])
    assert cubes == ((-1, 2), (2,))


def test_parse_warnings_come_in_a_fixed_order():
    text = "p cnf 1 2\ne 1 0\n1 5 0\n2 -2 0\n3"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = parse_qdimacs(text)
    assert [str(w.message) for w in caught] == [
        "unterminated final clause at line 5 (missing 0); kept",
        "dropped 1 tautological clause(s)",
        "free variables bound existentially: [3, 5]",
        "header declares 1 variables but 5 appear",
        "header declares 2 clauses but 3 appear",
    ]
    assert inst.free_vars == (3, 5)
    assert inst.clauses == ((1, 5), (3,))


def _corpus_text(rng: random.Random, kind: str) -> str:
    """A random 'p cnf' or 'p dnf' text: a random prefix, terms of 0-4
    literals with repeats, tautologies and free variables, comment lines
    between terms, several terms on a line and terms over several lines,
    CRLF line ends, an unterminated last term, and in a fifth of the texts
    one token replaced by ``x``, ``-0`` or ``00``."""
    n, m = rng.randint(0, 6), rng.randint(0, 6)
    free = rng.randint(0, 2) if rng.random() < 0.3 else 0
    header = (n, m) if rng.random() < 0.6 else (max(n + rng.randint(-2, 1), 0), rng.randint(0, 6))
    lines: list = ["c " + rng.choice(("", "note", "two  words"))] * rng.randint(0, 1)
    lines.append(f"p {kind} {header[0]} {header[1]}")
    bound = rng.sample(range(1, n + 1), n if rng.random() < 0.6 else rng.randint(0, n))
    while bound:
        size = rng.randint(1, len(bound))
        lines.append([rng.choice("ea"), *map(str, bound[:size]), "0"])
        bound = bound[size:]
    if n and rng.random() < 0.05:
        lines.append([rng.choice("ea"), str(rng.randint(1, n)), "0"])  # maybe bound twice
    tokens = []
    for _ in range(m if n + free else 0):
        width = rng.randint(0, 4)
        tokens += [str(rng.choice((1, -1)) * rng.randint(1, n + free)) for _ in range(width)]
        tokens.append("0")
    if tokens and rng.random() < 0.2:
        tokens.pop()  # the last term is left open
    line: list[str] = []
    for tok in tokens:
        line.append(tok)
        if rng.random() < (0.6 if tok == "0" else 0.2):
            lines.append(line)
            line = []
            if tok == "0" and rng.random() < 0.15:
                lines.append("c between " + rng.choice(("terms", "1 0")))
    lines.append(line)
    token_lines = [l for l in lines if isinstance(l, list) and l]
    if token_lines and rng.random() < 0.2:
        line = rng.choice(token_lines)
        line[rng.randrange(len(line))] = rng.choice(("x", "-0", "00"))
    text = [l if isinstance(l, str) else " " * rng.randint(0, 1) + " ".join(l) for l in lines]
    end = "\r\n" if rng.random() < 0.25 else "\n"
    return end.join(text) + end * rng.randint(0, 1)


def _corpus_record(text: str, kind: str) -> tuple:
    """What parsing ``text`` gives, warnings in order and the serialized
    result, or the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if kind == "cnf":
                inst = parse_qdimacs(text)
                prefix, terms = inst.prefix, inst.clauses
                extra = inst.comments, inst.free_vars, serialize_qdimacs(inst)
            else:
                prefix, terms = parse_dnf(text)
                extra = (serialize_dnf(prefix, terms),)
        except ValidationError as err:
            return type(err).__name__, str(err)
    blocks = tuple((b.quantifier, b.variables) for b in prefix.blocks)
    messages = tuple((w.category.__name__, str(w.message)) for w in caught)
    return blocks, terms, messages, *extra


def test_reader_and_writer_match_a_pinned_corpus():
    # 2,000 seeded texts through the reader and the writer; the digest was
    # taken before the reader and the writer were last rewritten for speed,
    # so any change in terms, warnings, errors or output bytes shows here
    rng = random.Random(2027)
    digest = hashlib.sha256()
    outcomes = {"error": 0, "warned": 0, "clean": 0}
    for _ in range(2000):
        kind = rng.choice(("cnf", "dnf"))
        record = _corpus_record(_corpus_text(rng, kind), kind)
        digest.update(repr((kind, record)).encode())
        outcome = "error" if isinstance(record[0], str) else "warned" if record[2] else "clean"
        outcomes[outcome] += 1
    assert min(outcomes.values()) > 200, outcomes
    assert digest.hexdigest() == "bd603cc7bc42988c2106851abc2b12cd52ea99283c852a350169c58394c22011"


def test_flipped_prefix_swaps_quantifiers():
    prefix = Prefix.from_pairs([(FORALL, [1]), (EXISTS, [2, 3])])
    assert prefix.flipped() == Prefix.from_pairs([(EXISTS, [1]), (FORALL, [2, 3])])
    assert prefix.flipped().flipped() == prefix


@st.composite
def instance_strategy(draw):
    n = draw(st.integers(1, 7))
    ids = list(range(1, n + 1))
    blocks = []
    while ids:
        size = draw(st.integers(1, len(ids)))
        blocks.append((draw(st.sampled_from([EXISTS, FORALL])), ids[:size]))
        ids = ids[size:]
    m = draw(st.integers(0, 6))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(1, min(3, n)))
        chosen = draw(st.permutations(range(1, n + 1)))[:width]
        signs = draw(st.tuples(*(st.booleans() for _ in range(width))))
        clause = normalize_clause(v if s else -v for v, s in zip(chosen, signs))
        clauses.append(clause)
    return QbfInstance(prefix=Prefix.from_pairs(blocks), clauses=tuple(clauses))


@settings(max_examples=120, deadline=None)
@given(instance_strategy())
def test_round_trip_property(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert parse_qdimacs(serialize_qdimacs(inst)) == inst
