"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs one pass of each pipeline on KBKF t = 2, a 50-variable 3-CNF and three
desk-scale planted instances, untraced and traced, and checks that every
metric BENCHMARK.json names is printed with its unit and that nothing
fails.  It also shows that the correctness checks catch broken outputs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from spans import NullTracer
from workloads import BREAK, VERIFY, Instance, Workload

HERE = Path(__file__).resolve().parent


def tiny_workload() -> Workload:
    rng = random.Random(7)
    instances = [
        Instance("kbkf_t2", BREAK, workloads.kbkf_text(2, rng), "smoke"),
        Instance("rand3_n50", BREAK, workloads.random_3cnf_text(50, 200, rng), "smoke"),
    ]
    for n, pattern in ((4, "ea"), (5, "eae"), (5, "ae")):
        blocks, clauses = workloads.planted_clauses(n, n + 2, pattern, rng)
        instances.append(Instance(f"planted_{pattern}_n{n}", VERIFY,
                                  workloads.qdimacs_text(n, blocks, clauses), "smoke"))
    return Workload("smoke", "tiny inputs", tuple(instances))


@pytest.fixture(scope="module")
def qs():
    return run._import_package()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(qs, trace, tmp_path, capsys):
    bench = run.Bench(qs, tiny_workload())
    bench.run(seconds=0.0, trace=bool(trace))
    setup = run.measure_setup("symmetric", 7, repeats=1)
    peak_rss_mb = run.measure_peak_rss("symmetric", 7) if not trace else 0.0
    result = run.report(bench, run.run_meta("smoke", 7, trace), setup, peak_rss_mb,
                        tmp_path, bool(trace))
    printed = capsys.readouterr().out.splitlines()

    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in printed), name
    assert result["correct"] and result["failed"] == 0
    if not trace:
        assert result["metrics"]["peak_rss_mb"]["value"] > 0
    assert any("failed_share=0.0000" in line for line in printed)
    outcomes = {json.loads(line[4:])["id"]: json.loads(line[4:])["outcome"]
                for line in printed if line.startswith("row ")}
    assert outcomes["kbkf_t2"] == "ok" and outcomes["planted_ae_n5"] == "cap"
    record = json.loads((tmp_path / f"smoke-seed7-trace{trace}.json").read_text())
    assert bool(record["spans"]) == bool(trace)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symmetric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_checks_catch_broken_outputs(qs):
    text = workloads.kbkf_text(2)
    parsed = checks.read_qdimacs(text)
    gens = [g.mapping for g in qs.detect_symmetries(qs.parse_qdimacs(text)).generators]
    assert checks.check_generators(parsed, gens) == []
    assert checks.check_desk_group(parsed, gens) == []
    assert checks.check_desk_group(parsed, gens[:1]) != []
    swap = tuple((v, 2 if v == 1 else 1 if v == 2 else v) for v in range(1, 9))
    assert checks.check_generators(parsed, [swap]) != []

    bench = run.Bench(qs, Workload("k2", "", (Instance("kbkf_t2", BREAK, text, ""),)))
    out = bench.run_pass(NullTracer())[0]["out"]
    assert checks.check_break_outputs(parsed, out["cnf"], out["dnf"]) == []
    lines = out["cnf"].splitlines()
    first = next(i for i, line in enumerate(lines) if line[0] not in "cpae")
    reordered = "\n".join(lines[:first] + [lines[first + 1], lines[first]] + lines[first + 2:])
    assert checks.check_break_outputs(parsed, reordered, out["dnf"]) != []
    assert checks.check_break_outputs(parsed, out["cnf"].replace("p cnf", "p dnf"),
                                      out["dnf"]) != []
    assert checks.naive_truth(parsed) is False
