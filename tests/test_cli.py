"""End-to-end tests of the command-line interface.

Every exit code in the contract is exercised: 0 ok, 1 usage, 2 input
error, 3 cap exceeded, 10 verification failure.  Pipeline agreement
(break then solve versus plain solve) uses the brute-force oracle.
"""

import collections
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import re
import subprocess
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymbreak import cli
from qsymbreak.cli import main
from qsymbreak.detect import DetectionResult
from qsymbreak.formulas import And, Or, clauses_to_formula, cubes_to_formula
from qsymbreak.groups import CLOSURE_CAP, is_syntactic_symmetry, parse_generators
from qsymbreak.qdimacs import parse_dnf, parse_qdimacs, serialize_qdimacs
from qsymbreak.strategies import qbf_truth

import oracles

IFF_AE = "p cnf 2 2\na 1 0\ne 2 0\n-1 2 0\n1 -2 0\n"
UNIT = "p cnf 1 1\ne 1 0\n1 0\n"
ASYMMETRIC = "p cnf 2 2\ne 1 2 0\n1 0\n1 2 0\n"
KLEIN = "p cnf 3 2\na 1 0\ne 2 3 0\n-2 3 0\n2 -3 0\n"
FORALL_PAIR = "p cnf 3 2\ne 1 0\na 2 3 0\n1 2 0\n1 3 0\n"
FORALL_QUAD = "p cnf 5 4\ne 1 0\na 2 3 4 5 0\n1 2 0\n1 3 0\n1 4 0\n1 5 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_true_iff_instance(tmp_path, capsys):
    path = write(tmp_path, "iff.qdimacs", IFF_AE)
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out.strip() == "TRUE"


def test_solve_false_kbkf(tmp_path, capsys):
    path = str(tmp_path / "k1.qdimacs")
    assert run(capsys, "gen", "kbkf", "1", "-o", path)[0] == 0
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out.strip() == "FALSE"


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(UNIT))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0
    assert out.strip() == "TRUE"


def test_parse_normalizes_and_is_idempotent(tmp_path, capsys):
    messy = "c noise\np cnf 2 2\ne 2 1 0\n2 -1 0\n2 2 1 0\n"
    path = write(tmp_path, "messy.qdimacs", messy)
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    again = write(tmp_path, "normal.qdimacs", out)
    code, out2, _ = run(capsys, "parse", again)
    assert code == 0
    assert out2 == out


def test_parse_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.qdimacs"
    path.write_bytes(b"\xef\xbb\xbf" + IFF_AE.encode())
    code, out, err = run(capsys, "parse", str(path))
    assert (code, err) == (0, "")
    assert out == run(capsys, "parse", write(tmp_path, "plain.qdimacs", IFF_AE))[1]


def test_parse_rejects_garbage(tmp_path, capsys):
    path = write(tmp_path, "bad.qdimacs", "p cnf two 1\n1 0\n")
    code, _, err = run(capsys, "parse", path)
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 1 1\np cnf 1 1\ne 1 0\n1 0\n", "line 2: duplicate problem line"),
        ("c header\np cnf -2 0\n", "line 2: problem line counts must be nonnegative"),
        ("p cnf 2 1\ne 1 0\na -2 0\n1 2 0\n", "line 3: negative variable in quantifier line"),
        ("p cnf 1 1\n\ne 0\n1 0\n", "line 3: empty quantifier block"),
    ],
)
def test_parse_names_the_line_of_a_bad_header(tmp_path, capsys, text, message):
    code, _, err = run(capsys, "parse", write(tmp_path, "bad.qdimacs", text))
    assert code == 2
    assert err == f"input error: {message}\n"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/nowhere.qdimacs")
    assert code == 2
    assert "input error" in err


def test_undecodable_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.qdimacs"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 2
    assert "input error" in err
    good = write(tmp_path, "iff.qdimacs", IFF_AE)
    code, _, err = run(capsys, "break", "--exists", "--generators", str(path), good)
    assert code == 2
    assert "input error" in err


def test_undecodable_stdin_is_input_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, _, err = run(capsys, "parse", "-")
    assert code == 2
    assert "input error" in err


def test_usage_errors_exit_1(tmp_path, capsys):
    path = write(tmp_path, "iff.qdimacs", IFF_AE)
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "break", path)[0] == 1  # missing polarity
    assert run(capsys, "break", "--exists", "--forall", path)[0] == 1
    assert run(capsys, "gen", "random", "-n", "4", "-m", "3")[0] == 1  # no seed
    assert run(capsys, "break", "--both", path)[0] == 1  # no --dnf-out
    assert run(capsys, "break", "--exists", "--compress-identity", path)[0] == 1
    assert run(capsys, "detect", "--collapse-binary", path)[0] == 1
    assert run(capsys, "break", "--exists", "--product-length", "0", path)[0] == 1
    assert run(capsys, "verify", "--product-length", "-2", path)[0] == 1
    assert run(capsys, "verify", "--cap", "-5", path)[0] == 1
    assert run(capsys, "verify", "--cap", "0", path)[0] == 1
    assert run(capsys, "detect", "--budget", "-1", path)[0] == 1
    assert run(capsys, "break", "--exists", "--budget", "0", path)[0] == 1
    code, _, err = run(capsys, "break", "--exists", "--generators", "-", "-")
    assert code == 1
    assert "stdin" in err


@pytest.mark.parametrize("text", ["p cnf 0 0\n", "p cnf 0 1\n0\n"])
def test_empty_prefix_verifies_and_breaks(tmp_path, capsys, text):
    path = write(tmp_path, "empty.qdimacs", text)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert out.count("PASS") == 7
    sidecar = tmp_path / "empty.dnf"
    code, out, _ = run(capsys, "break", "--both", "--dnf-out", str(sidecar), path)
    assert code == 0
    assert parse_qdimacs(out).clauses == parse_qdimacs(text).clauses
    assert sidecar.read_text() == "p dnf 0 0\n"


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_detect_asymmetric_prints_nothing(tmp_path, capsys):
    path = write(tmp_path, "asym.qdimacs", ASYMMETRIC)
    code, out, err = run(capsys, "detect", path)
    assert code == 0
    assert out == ""
    assert "no symmetries" in err


def test_detect_output_round_trips(tmp_path, capsys):
    path = str(tmp_path / "k2.qdimacs")
    run(capsys, "gen", "kbkf", "2", "-o", path)
    code, out, err = run(capsys, "detect", path)
    assert code == 0
    assert err == "group order 4\n"
    instance = parse_qdimacs((tmp_path / "k2.qdimacs").read_text())
    gens = parse_generators(out, instance.prefix.variables)
    assert gens
    for g in gens:
        assert not g.is_identity
        assert is_syntactic_symmetry(g, instance)


def test_detect_budget_note(tmp_path, capsys):
    path = str(tmp_path / "k2.qdimacs")
    run(capsys, "gen", "kbkf", "2", "-o", path)
    code, _, err = run(capsys, "detect", "--budget", "1", path)
    assert code == 0
    assert "incomplete" in err
    assert "group order" not in err


def test_detect_prints_a_huge_group_order(tmp_path, capsys, monkeypatch):
    # 2^1500 * 1500!, the order of a 1500-variable free block, has more
    # decimal digits than int-to-str converts by default
    order = 2**1500 * math.factorial(1500)
    result = DetectionResult((), True, 1, order)
    monkeypatch.setattr(cli, "detect_symmetries", lambda instance, budget: result)
    code, _, err = run(capsys, "detect", write(tmp_path, "unit.qdimacs", UNIT))
    assert code == 0
    assert err.startswith(f"group order about 10^{math.log10(order):.1f}\n")


def planted_corpus(tmp_path, capsys):
    """Seeded planted instances plus a generator file holding the plant.

    The plant alone keeps the chain-variable count low enough for the
    brute-force solver; auto-detected groups can exceed its cap.
    """
    out = []
    for seed in (3, 4, 5, 6):
        path = str(tmp_path / f"r{seed}.qdimacs")
        run(
            capsys, "gen", "random", "--seed", str(seed), "-n", "5", "-m", "6",
            "--planted", "-o", path,
        )
        instance = parse_qdimacs((tmp_path / f"r{seed}.qdimacs").read_text())
        line = next(c for c in instance.comments if c.startswith("planted symmetry: "))
        gens = write(
            tmp_path, f"g{seed}.txt", line.removeprefix("planted symmetry: ")
        )
        out.append((path, gens))
    return out


def test_break_exists_preserves_solve_verdict(tmp_path, capsys):
    jobs = [(p, ["--generators", g]) for p, g in planted_corpus(tmp_path, capsys)]
    k1 = str(tmp_path / "k1.qdimacs")
    run(capsys, "gen", "kbkf", "1", "-o", k1)
    jobs.append((k1, []))  # detector-driven run
    for path, extra in jobs:
        _, plain, _ = run(capsys, "solve", path)
        broken = path + ".broken"
        code, _, _ = run(capsys, "break", "--exists", *extra, path, "-o", broken)
        assert code == 0
        _, after, _ = run(capsys, "solve", broken)
        assert after == plain


def test_break_forall_emits_sidecar(tmp_path, capsys):
    # a swap's universal chain is one cube and a 3-cycle's two; a 4-cycle's
    # keeps a chain variable
    path = write(tmp_path, "fq.qdimacs", FORALL_QUAD)
    gens = write(tmp_path, "gens.txt", "(2 3 4 5)\n")
    code, out, _ = run(capsys, "break", "--forall", "--generators", gens, path)
    assert code == 0
    prefix, cubes = parse_dnf(out)
    assert cubes
    assert prefix.variables != (1, 2, 3, 4, 5)  # chain variables were added


def test_break_forall_static_group_gives_empty_sidecar(tmp_path, capsys):
    path = write(tmp_path, "klein.qdimacs", KLEIN)
    gens = write(tmp_path, "gens.txt", "(2 3)\n(-2)(-3)\n")
    code, out, _ = run(capsys, "break", "--forall", "--generators", gens, path)
    assert code == 0
    prefix, cubes = parse_dnf(out)
    assert cubes == ()
    assert prefix.variables == (1, 2, 3)


def test_break_both_records_matrix_size_and_truth(tmp_path, capsys):
    for seed in (11, 12, 13):
        path = str(tmp_path / f"p{seed}.qdimacs")
        run(
            capsys, "gen", "random", "--seed", str(seed), "-n", "4", "-m", "4",
            "--planted", "-o", path,
        )
        original = parse_qdimacs((tmp_path / f"p{seed}.qdimacs").read_text())
        planted_line = next(
            c for c in original.comments if c.startswith("planted symmetry: ")
        )
        gens = write(
            tmp_path, f"g{seed}.txt", planted_line.removeprefix("planted symmetry: ")
        )
        cnf_out = str(tmp_path / f"p{seed}.cnf")
        dnf_out = str(tmp_path / f"p{seed}.dnf")
        code, _, _ = run(
            capsys, "break", "--both", "--generators", gens, path,
            "-o", cnf_out, "--dnf-out", dnf_out,
        )
        assert code == 0

        augmented = parse_qdimacs((tmp_path / f"p{seed}.cnf").read_text())
        marker = next(c for c in augmented.comments if c.startswith("matrix clauses:"))
        n_matrix = int(marker.split(":")[1])
        assert n_matrix == len(original.clauses)

        # reconstruct ((matrix | cubes) & breaker clauses) from the two files
        sidecar_prefix, cubes = parse_dnf((tmp_path / f"p{seed}.dnf").read_text())
        assert sidecar_prefix == augmented.prefix
        matrix = clauses_to_formula(augmented.clauses[:n_matrix])
        breaker = clauses_to_formula(augmented.clauses[n_matrix:])
        combined = And((Or((matrix, cubes_to_formula(cubes))), breaker))
        assert qbf_truth((augmented.prefix, combined)) == qbf_truth(original)


def test_break_with_product_length(tmp_path, capsys):
    path = write(tmp_path, "klein.qdimacs", KLEIN)
    gens = write(tmp_path, "gens.txt", "(2 3)\n(-2)(-3)\n")
    broken = str(tmp_path / "klein.broken")
    code, _, _ = run(
        capsys, "break", "--exists", "--generators", gens,
        "--product-length", "2", path, "-o", broken,
    )
    assert code == 0
    _, plain, _ = run(capsys, "solve", path)
    _, after, _ = run(capsys, "solve", broken)
    assert after == plain == "TRUE\n"


@pytest.mark.parametrize("command", ["break", "verify"])
def test_product_closure_stops_at_the_closure_cap(tmp_path, capsys, command):
    # a clause-free 12-variable block has 23 generators: 2,286 distinct
    # products of at most 3 of them, more than CLOSURE_CAP of at most 4
    block = " ".join(map(str, range(1, 13)))
    path = write(tmp_path, "free12.qdimacs", f"p cnf 12 0\ne {block} 0\n")
    flags = ["--exists"] if command == "break" else []
    code, out, err = run(capsys, command, *flags, "--product-length", "4", path)
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: product closure exceeds cap {CLOSURE_CAP}\n"
    if command == "break":
        assert run(capsys, command, *flags, "--product-length", "3", path)[0] == 0


# where break sends its outputs: flags -> (exit code, and what stdout, -o and
# --dnf-out receive: the augmented CNF, the cube sidecar, or nothing)
BREAK_ROUTES = {
    ("--exists",): (0, "cnf", None, None),
    ("--exists", "-o"): (0, "", "cnf", None),
    ("--exists", "--dnf-out"): (0, "cnf", None, None),
    ("--forall",): (0, "dnf", None, None),
    ("--forall", "-o"): (0, "", "dnf", None),
    ("--forall", "--dnf-out"): (0, "", None, "dnf"),
    ("--forall", "-o", "--dnf-out"): (0, "", "cnf", "dnf"),
    ("--both", "--dnf-out"): (0, "cnf", None, "dnf"),
    ("--both", "-o", "--dnf-out"): (0, "", "cnf", "dnf"),
    ("--both",): (1, "", None, None),
    ("--both", "-o"): (1, "", None, None),
}

# sha256 of every route's exit code, stdout and output files, recorded
# before break's three polarities shared one body; kbkf_2, planted_3 and
# static_group re-recorded when the chains lost y_0, 2-cycle partners and
# the positions after a flip, and kbkf_2 again when the last chain
# variable was resolved into the last goal
PINNED_BREAKS = {
    "kbkf_2": "cbfdbb4bddf4327428d6c3b121601cb702404f84995bdfa8b788f97fb25ad49d",
    "planted_3": "49894b09ffaebdc7fb2ffe00d74e2f21c222a0e26af20b6658a5dabf9e95e8f9",
    "static_group": "787d7fbc530c64483ae2379f73b8e98f3d5637c7e8b8dd1f7e1e8c8d5e5614cc",
    "empty": "6faf8029295d960d7f98fee28ccb3201feabe11a6ef30bd87de5a42df59b0b11",
}


def _pinned_input(capsys, name):
    """Write a pinned input into the current directory; return its arguments."""
    here = pathlib.Path()
    if name.startswith("kbkf_"):
        run(capsys, "gen", "kbkf", name[len("kbkf_"):], "-o", "in.qdimacs")
    elif name == "planted_3":
        run(
            capsys, "gen", "random", "--seed", "3", "-n", "5", "-m", "6",
            "--planted", "-o", "in.qdimacs",
        )
    elif name == "static_group":
        write(here, "in.qdimacs", KLEIN)
        return ["in.qdimacs", "--generators", write(here, "gens.txt", "(2 3)\n(-2)(-3)\n")]
    else:
        write(here, "in.qdimacs", "p cnf 0 0\n")
    return ["in.qdimacs"]


def _kind(text):
    if text is None or text == "":
        return text
    return re.search(r"^p (cnf|dnf) ", text, re.MULTILINE).group(1)


@pytest.mark.parametrize("name", sorted(PINNED_BREAKS))
def test_break_outputs_stay_pinned(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    args = _pinned_input(capsys, name)
    records = []
    for flags, route in BREAK_ROUTES.items():
        out_dir = tmp_path / "-".join(f.strip("-") for f in flags)
        out_dir.mkdir()
        paths = {"-o": out_dir / "out.cnf", "--dnf-out": out_dir / "out.dnf"}
        argv = ["break", *args]
        for flag in flags:
            argv += [flag, str(paths[flag])] if flag in paths else [flag]
        code, out, _ = run(capsys, *argv)
        files = [p.read_text() if p.exists() else None for p in paths.values()]
        assert (code, *map(_kind, (out, *files))) == route, flags
        records.append((flags, code, out, *files))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == PINNED_BREAKS[name]


# sha256 of verify --json's exit code and stdout, recorded while the
# formula trees still had nodes for <->, -> and xor. kbkf_2 is over the
# enumeration cap (exit 3); planted_3's 65,536 strategies run with a raised
# cap. The report names the instance, so the input path is relative.
PINNED_VERIFIES = {
    "kbkf_1": "64e7b8689c05d9099cc8cd48478b02f5f15c067143ab871f2aaeae25442ce706",
    "kbkf_2": "fa1808fe1b1b1a67b22aee997adcc0b717c79dbf9d7290680bc2bab772fa81f5",
    "planted_3": "8eb48ba6c9d4ddcd0a19c16f812f17111a7dc45546f00e0d3074c53a70e57bcb",
    "static_group": "51db40593089fe8da2d353782f71d17beb7627aadeb0ecdba6a6138ea4362e85",
}


@pytest.mark.parametrize("name", sorted(PINNED_VERIFIES))
def test_verify_outputs_stay_pinned(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    args = _pinned_input(capsys, name)
    if name == "planted_3":
        args += ["--cap", "65536"]
    code, out, _ = run(capsys, "verify", "--json", *args)
    assert code == (3 if name == "kbkf_2" else 0)
    digest = hashlib.sha256(repr((code, out)).encode()).hexdigest()
    assert digest == PINNED_VERIFIES[name]


def test_break_both_reads_the_instance_before_asking_for_dnf_out(tmp_path, capsys):
    path = write(tmp_path, "bad.qdimacs", "p cnf 3 1\ne 1 2\n")
    code, _, err = run(capsys, "break", "--both", path)
    assert code == 2
    assert "input error" in err
    gens = write(tmp_path, "gens.txt", "(1 9)\n")
    code, _, err = run(capsys, "break", "--both", "--generators", gens,
                       write(tmp_path, "unit.qdimacs", UNIT))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("flag", ["--forall", "--both"])
def test_break_refuses_one_file_for_both_outputs(tmp_path, capsys, flag):
    path = write(tmp_path, "fp.qdimacs", FORALL_PAIR)
    gens = write(tmp_path, "gens.txt", "(2 3)\n")
    same = tmp_path / "same.out"
    code, out, err = run(capsys, "break", flag, "--generators", gens, path,
                         "-o", str(same), "--dnf-out", str(tmp_path / "." / "same.out"))
    assert (code, out) == (1, "")
    assert "usage error" in err
    assert not same.exists()
    # both on stdout is not one file
    code, out, _ = run(capsys, "break", flag, "--generators", gens, path,
                       "-o", "-", "--dnf-out", "-")
    assert code == 0 and "p dnf" in out


def test_verify_passes_with_json_report(tmp_path, capsys):
    path = write(tmp_path, "klein.qdimacs", KLEIN)
    gens = write(tmp_path, "gens.txt", "(2 3)\n(-2)(-3)\n")
    code, out, _ = run(capsys, "verify", "--json", "--generators", gens, path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["truth"] is True
    assert len(report["checks"]) == 7
    assert all(check["ok"] for check in report["checks"])
    coverage = [c for c in report["checks"] if "orbits" in c]
    # 4 existential orbits; the 2 universal strategies set only the
    # fixed variable, so they land in distinct singleton orbits
    assert [c["orbits"] for c in coverage] == [4, 2]
    # of the 16 existential strategies, 4 to an orbit, the breaker keeps one
    # per orbit; it keeps both universal ones
    assert [c["kept"] for c in coverage] == [4, 2]


def test_verify_clause_free_block(tmp_path, capsys):
    # 64 existential strategies, but a group of order 2**6 * 6! = 46,080:
    # the orbit walk never builds the group
    path = write(tmp_path, "free6.qdimacs", "p cnf 6 0\ne 1 2 3 4 5 6 0\n")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert out.count("PASS") == 7


def test_verify_passes_on_kbkf_3(tmp_path, capsys):
    # the paper's own family: with the strategy-count cap lifted, the chains
    # of both breakers add 3 variables to KBKF t = 3's 12, so every truth
    # check fits the truth cap
    path = str(tmp_path / "k3.qdimacs")
    run(capsys, "gen", "kbkf", "3", "-o", path)
    code, out, _ = run(capsys, "verify", "--json", "--cap", str(2**200), path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["checks"]) == 7
    assert all(check["ok"] for check in report["checks"])


def test_verify_detects_bogus_generator(tmp_path, capsys):
    # flipping the only variable is admissible but not a symmetry of (x)
    path = write(tmp_path, "unit.qdimacs", UNIT)
    gens = write(tmp_path, "gens.txt", "(-1)\n")
    code, out, _ = run(capsys, "verify", "--generators", gens, path)
    assert code == 10
    assert "FAIL" in out


def test_verify_cap_exceeded(tmp_path, capsys):
    path = str(tmp_path / "k2.qdimacs")
    run(capsys, "gen", "kbkf", "2", "-o", path)
    code, _, err = run(capsys, "verify", path)
    assert code == 3
    assert "cap exceeded" in err


def test_verify_checks_enumeration_cap_before_truth(tmp_path, capsys, monkeypatch):
    # five universals ahead of one existential give 2**32 existential
    # strategies, which the prefix alone shows to be over --cap
    wide = "p cnf 6 1\na 1 2 3 4 5 0\ne 6 0\n1 6 0\n"
    path = write(tmp_path, "wide.qdimacs", wide)

    def no_truth(*_args, **_kwargs):
        raise AssertionError("verify ran the truth oracle past the enumeration cap")

    monkeypatch.setattr(cli, "qbf_truth", no_truth)
    code, _, err = run(capsys, "verify", path)
    assert code == 3
    assert "enumeration cap" in err


def test_verify_enumeration_cap_on_long_prefix(tmp_path, capsys):
    # twenty universals ahead of ten existentials: the count 2**(10 * 2**20)
    # is far too large to build, so the cap check works on its exponent
    universals = " ".join(map(str, range(1, 21)))
    existentials = " ".join(map(str, range(21, 31)))
    long_prefix = f"p cnf 30 1\na {universals} 0\ne {existentials} 0\n1 21 0\n"
    path = write(tmp_path, "long.qdimacs", long_prefix)
    code, _, err = run(capsys, "verify", path)
    assert code == 3
    assert "enumeration cap" in err


def test_verify_stops_at_the_play_bound(tmp_path, capsys):
    # twenty universals give one existential strategy and 2**20 universal
    # ones, which --cap admits, but 2**20 plays, which the play bound stops
    universals = " ".join(map(str, range(1, 21)))
    path = write(tmp_path, "u20.qdimacs", f"p cnf 20 0\na {universals} 0\n")
    gens = write(tmp_path, "swap.txt", "(1 2)\n")
    code, out, err = run(capsys, "verify", "--cap", str(2**20), "--generators", gens, path)
    assert (code, out) == (3, "")
    assert err == "cap exceeded: 2**20 plays exceed the play bound 2**16\n"


def test_solve_cap_exceeded(tmp_path, capsys):
    big = "p cnf 25 1\ne " + " ".join(map(str, range(1, 26))) + " 0\n1 2 0\n"
    path = write(tmp_path, "big.qdimacs", big)
    code, _, err = run(capsys, "solve", path)
    assert code == 3
    assert "cap exceeded" in err


def test_gen_random_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.qdimacs")
    b = str(tmp_path / "b.qdimacs")
    for out in (a, b):
        code, _, _ = run(
            capsys, "gen", "random", "--seed", "9", "-n", "6", "-m", "7", "-o", out,
        )
        assert code == 0
    assert (tmp_path / "a.qdimacs").read_text() == (tmp_path / "b.qdimacs").read_text()


def test_gen_random_rejects_infeasible(capsys):
    code, _, err = run(capsys, "gen", "random", "--seed", "1", "-n", "30", "-m", "3")
    assert code == 2
    assert "input error" in err
    code, _, _ = run(
        capsys, "gen", "random", "--seed", "1", "-n", "5", "-m", "3",
        "--pattern", "a2e2",
    )
    assert code == 2


def test_gen_kbkf_rejects_zero_levels(capsys):
    assert run(capsys, "gen", "kbkf", "0")[0] == 2


def test_module_entry_point(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "qsymbreak", "gen", "kbkf", "1"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p cnf 4 5\n")


FREE_VARS = "p cnf 3 1\ne 1 0\n1 2 3 0\n"


def test_input_warnings_print_as_one_line(tmp_path, capsys, package_env):
    path = write(tmp_path, "free.qdimacs", FREE_VARS)
    shown = warnings.showwarning
    code, out, err = run(capsys, "solve", path)
    warning = "warning: free variables bound existentially: [2, 3]\n"
    assert (code, out, err) == (0, "TRUE\n", warning)
    # the scope ends with main: the caller's warning display is back
    assert warnings.showwarning is shown
    # the process prints it the same way, without Python's source location
    proc = subprocess.run(
        [sys.executable, "-m", "qsymbreak", "parse", path],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert proc.stderr == warning


# tokens that mutate a desk-size QDIMACS text: numbers stay small, so every
# mutant stays cheap to detect, solve and verify
MUTATION_TOKENS = [
    b"0", b"1", b"-1", b"3", b"-4", b"6", b"7", b"p", b"cnf", b"dnf", b"a", b"e",
    b"c", b"x", b"\n", b" ", b"", b"\xff", b"\xc3\xa9", b"\xfe\xff",
]


@st.composite
def desk_qdimacs(draw):
    n = draw(st.integers(1, 6))
    quantifiers = draw(st.lists(st.sampled_from("ae"), min_size=n, max_size=n))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=6))
    lines = [f"p cnf {n} {len(clauses)}"]
    for q, group in itertools.groupby(enumerate(quantifiers, 1), key=lambda p: p[1]):
        lines.append(f"{q} {' '.join(str(v) for v, _ in group)} 0")
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    tokens = re.split(rb"( |\n)", ("\n".join(lines) + "\n").encode())
    edits = draw(st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from("rid"), st.sampled_from(MUTATION_TOKENS)),
        max_size=4,
    ))
    for position, op, token in edits:
        k = position % (len(tokens) + 1)
        if op == "i":
            tokens.insert(k, token)
        elif tokens:
            k = min(k, len(tokens) - 1)
            if op == "r":
                tokens[k] = token
            else:
                del tokens[k]
    return b"".join(tokens)


COMMANDS = (
    ["parse"],
    ["detect", "--budget", "200"],
    ["solve"],
    ["verify", "--cap", "64"],
    ["break", "--exists"],
    ["break", "--forall"],
    ["break", "--both", "--dnf-out", "{sidecar}"],
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.binary(max_size=24), desk_qdimacs()))
def test_exit_codes_stay_in_the_contract(tmp_path_factory, data):
    sidecar = str(tmp_path_factory.getbasetemp() / "contract.dnf")
    for command in COMMANDS:
        command = [arg.format(sidecar=sidecar) for arg in command]
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with (
            mock.patch.object(sys, "stdin", stdin),
            warnings.catch_warnings(),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            warnings.simplefilter("ignore")
            code = main([*command, "-"])
        assert code in {0, 1, 2, 3, 10}, (command, data)


# every route the fuzz test takes, with the output files it may write
FUZZ_ROUTES = {
    "parse": ["parse", "{in}", "-o", "{cnf}"],
    "detect": ["detect", "{in}"],
    "exists": ["break", "--exists", "{in}", "-o", "{cnf}"],
    "forall": ["break", "--forall", "{in}", "-o", "{cnf}", "--dnf-out", "{dnf}"],
    "both": ["break", "--both", "{in}", "-o", "{cnf}", "--dnf-out", "{dnf}"],
    "verify": ["verify", "--json", "{in}"],
    "solve": ["solve", "{in}"],
}


def _fuzz_text(rng):
    """A random or planted-symmetric QDIMACS text of at most 6 variables,
    in half the cases edited by one to three ``MUTATION_TOKENS``."""
    n = rng.randint(1, 6)
    if rng.random() < 0.5:
        instance, _ = oracles.planted_instance(rng, n, rng.randint(0, 4))
    else:
        instance = oracles.random_instance(rng, n, rng.randint(0, 6))
    tokens = re.split(rb"( |\n)", serialize_qdimacs(instance).encode())
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        k, token = rng.randrange(len(tokens) + 1), rng.choice(MUTATION_TOKENS)
        op = rng.choice("rid") if tokens else "i"
        if op == "i":
            tokens.insert(k, token)
        elif op == "r":
            tokens[min(k, len(tokens) - 1)] = token
        else:
            del tokens[min(k, len(tokens) - 1)]
    return b"".join(tokens)


def _fuzz_run(tmp_path, route):
    """Run one route; its exit code, stdout, stderr and output files."""
    paths = {"{in}": tmp_path / "in.qdimacs", "{cnf}": tmp_path / "out.cnf",
             "{dnf}": tmp_path / "out.dnf"}
    for key in ("{cnf}", "{dnf}"):
        paths[key].unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(paths.get(arg, arg)) for arg in FUZZ_ROUTES[route]])
    files = [p.read_text() if p.exists() else None for p in (paths["{cnf}"], paths["{dnf}"])]
    return code, out.getvalue(), err.getvalue(), *files


def _augmented_truth(cnf, dnf):
    """Brute-force truth of break's outputs: the CNF, with the cube sidecar,
    if any, disjoined to the matrix clauses that the CNF records."""
    augmented = parse_qdimacs(cnf)
    if augmented.prefix.n > 12:
        return None  # past what the brute-force oracle decides quickly
    cubes = () if dnf is None else parse_dnf(dnf)[1]
    marker = [c for c in augmented.comments if c.startswith("matrix clauses: ")]
    n_matrix = int(marker[0].split(": ")[1]) if marker else len(augmented.clauses)
    matrix, breaker = augmented.clauses[:n_matrix], augmented.clauses[n_matrix:]

    def holds(sigma):
        true = functools.partial(oracles.satisfies, sigma)
        cube_true = any(all((l > 0) == sigma[abs(l)] for l in cube) for cube in cubes)
        return (all(map(true, matrix)) or cube_true) and all(map(true, breaker))

    return oracles.brute_truth(augmented.prefix, holds)


def test_seeded_cli_fuzz_is_deterministic_and_keeps_truth(tmp_path):
    rng = random.Random(2024)
    codes, truth_checks = collections.Counter(), 0
    for _ in range(100):
        data = _fuzz_text(rng)
        (tmp_path / "in.qdimacs").write_bytes(data)
        results = {route: _fuzz_run(tmp_path, route) for route in FUZZ_ROUTES}
        for route, result in results.items():
            assert result[0] in {0, 1, 2, 3, 10}, (route, data)
            assert _fuzz_run(tmp_path, route) == result, (route, data)
            codes[result[0]] += 1
        if results["parse"][0] != 0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            truth = oracles.brute_qbf_truth(parse_qdimacs(data.decode()))
        for route in ("exists", "forall", "both"):
            code, _, _, cnf, sidecar = results[route]
            if code == 0:
                kept = _augmented_truth(cnf, sidecar)
                assert kept in (None, truth), (route, data)
                truth_checks += kept is not None
    assert truth_checks > 40 and codes[0] > 100 and codes[2] > 10, (truth_checks, codes)
