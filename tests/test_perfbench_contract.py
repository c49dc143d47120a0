"""The package surface the benchmark in ``perfbench/`` relies on.

perfbench imports the package as ``qs``, calls it by name and reads fields
of the results; its own smoke test runs outside this suite, so a renamed
or removed name or field would only show when the benchmark runs.  Its
traced passes also replace three detection helpers on ``qsymbreak.detect``,
which measures them only while ``detect_symmetries`` looks those helpers
up when it is called, read fields of what two of them return, and refine
the recorded graphs again.
"""

import ast
import re
from pathlib import Path
from unittest import mock

import qsymbreak
from qsymbreak import detect
from qsymbreak.benchmarks import gen_kbkf
from qsymbreak.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_HELPERS = ("build_symmetry_graph", "find_automorphisms", "to_signed_permutations")
# the pipeline variables that hold package results, as perfbench names them
RESULT_READ = re.compile(r"\b(found|enc_[eu]|psi(?:_[eu])?|report)\.(\w+)")
# the fields its counters and checks come from
KNOWN_READS = {
    "found.generators", "found.nodes_expanded", "found.complete",
    "enc_e.clauses", "enc_e.aux_vars", "enc_u.cubes", "enc_u.aux_vars",
    "psi.formula", "psi.polarity",
    "report.orbit_count", "report.covered", "report.ok",
}
# what the traced pass's hooks read of the graph build_symmetry_graph
# returns and of the search result find_automorphisms returns
HOOK_READ = re.compile(r"\b(graph|found)\.(\w+)")
KNOWN_HOOK_READS = {"graph.n_vertices", "graph.edges", "found.permutations"}


def _used_names() -> set[str]:
    return {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bqs\.(\w+)", path.read_text(encoding="utf-8"))
    }


def test_perfbench_names_exist_on_the_package():
    names = _used_names()
    assert "detect_symmetries" in names
    missing = sorted(name for name in names if not hasattr(qsymbreak, name))
    assert not missing, f"perfbench uses qs.{missing} which the package lacks"


def test_detection_looks_up_its_helpers_at_call_time():
    instance = gen_kbkf(1)
    patches = [
        mock.patch.object(detect, name, wraps=getattr(detect, name)) for name in TRACED_HELPERS
    ]
    spies = [p.start() for p in patches]
    try:
        result = qsymbreak.detect_symmetries(instance)
    finally:
        for p in patches:
            p.stop()
    assert [spy.call_count for spy in spies] == [1, 1, 1]
    assert result.generators


def test_perfbench_reads_fields_the_results_have():
    text = (PERFBENCH / "pipelines.py").read_text(encoding="utf-8")
    reads = {f"{name}.{field}" for name, field in RESULT_READ.findall(text)}
    assert KNOWN_READS <= reads, "the pattern no longer finds what perfbench reads"

    instance = gen_kbkf(1)
    prefix = instance.prefix
    found = qsymbreak.detect_symmetries(instance)
    gens = list(found.generators)
    enc_e, enc_u = qsymbreak.encode_both(prefix, gens)
    breakers = (
        qsymbreak.lex_leader_formula(prefix, gens),
        qsymbreak.universal_lex_leader_formula(prefix, gens),
    )
    results = {
        "found": (found,),
        "enc_e": (enc_e,),
        "enc_u": (enc_u,),
        "psi": breakers,
        "psi_e": breakers[:1],
        "psi_u": breakers[1:],
        "report": tuple(qsymbreak.verify_breaker(prefix, gens, psi) for psi in breakers),
    }
    missing = sorted(
        {
            read
            for read in reads
            for result in results[read.split(".")[0]]
            if not hasattr(result, read.split(".")[1])
        }
    )
    assert not missing, f"perfbench reads {missing}, which the results lack"


def test_traced_pass_reads_fields_the_detection_helpers_return():
    text = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    reads = {f"{name}.{field}" for name, field in HOOK_READ.findall(text)}
    assert KNOWN_HOOK_READS <= reads, "the pattern no longer finds what the hooks read"
    assert "qs.refine_colors(graph)" in text

    graph = detect.build_symmetry_graph(gen_kbkf(1))
    found = detect.find_automorphisms(graph)
    results = {"graph": graph, "found": found}
    missing = sorted(
        read for read in reads if not hasattr(results[read.split(".")[0]], read.split(".")[1])
    )
    assert not missing, f"perfbench's traced pass reads {missing}, which the results lack"
    # the hooks count these
    assert graph.n_vertices > 0 and len(graph.edges) > 0 and len(found.permutations) > 0
    qsymbreak.refine_colors(graph)


def test_verify_cap_matches_the_benchmark():
    # perfbench passes its own copy of the verify --cap default to the library
    tree = ast.parse((PERFBENCH / "pipelines.py").read_text(encoding="utf-8"))
    caps = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "VERIFY_CAP" for t in node.targets)
    ]
    assert caps == [build_parser().parse_args(["verify", "-"]).cap]
