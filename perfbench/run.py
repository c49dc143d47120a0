"""Benchmark of the qsymbreak pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src/`` directory and nowhere else.  One process runs the workload's
instances one after another (a closed loop with one client, no threads),
pass after pass, until the run, set-up measurements included, has taken
``--seconds``.

``--trace 0`` reports the end-to-end metrics from untraced passes.  Their
times are in reference seconds (see ``probe.py``): a fixed probe runs
between instances, about every half second, and around each set-up, and
scales each by how fast the host ran it, because the shared host's speed
swings by up to 2x from one minute to the next.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones; spans wrap the package's public calls from
here, never from inside the package.  The last line of standard output is
one JSON object; the lines before it are a readable report with one row
per instance.  The full record, spans included, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import checks
import probe
from spans import NullTracer, Tracer, patched, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
PROBE_EVERY_S = 0.5  # seconds of work between two probes

END_TO_END = {
    "setup_s": "s",
    "results_per_ref_s": "1/s",
    "output_clauses": "count",
    "output_vars": "count",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}

# spans whose per-pass self time is reported as the per-layer metric <span>_s
LAYER_SPANS = (
    "qdimacs.parse", "qdimacs.serialize",
    "detect.graph", "detect.refine_root", "detect.search", "detect.convert",
    "breakers.encode", "breakers.augment", "breakers.formula", "breakers.verify",
    "strategies.truth",
)
# per-pass counter -> per-layer metric
LAYER_COUNTS = {
    "input_bytes": "qdimacs.input_bytes",
    "output_bytes": "qdimacs.output_bytes",
    "vertices": "detect.vertices",
    "edges": "detect.edges",
    "search_nodes": "detect.search_nodes",
    "automorphisms": "detect.automorphisms",
    "generators": "detect.generators",
    "discarded": "detect.discarded",
    "budget_exhausted": "detect.budget_exhausted",
    "clauses": "breakers.clauses",
    "cubes": "breakers.cubes",
    "aux_vars": "breakers.aux_vars",
    "orbits": "breakers.orbits",
    "orbits_covered": "breakers.orbits_covered",
    "strategies_kept": "breakers.strategies_kept",
    "truth_calls": "strategies.truth_calls",
    "cap_hits": "strategies.cap_hits",
}
# counted by the traced pass's hooks alone
TRACED_ONLY = ("vertices", "edges", "automorphisms")
TRACE_TOTALS = {
    "trace.overhead_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.self_sum_s": "s",
    "trace.glue_s": "s",
    "host.probe_s": "s",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{m: "bytes" if m.endswith("_bytes") else "count" for m in LAYER_COUNTS.values()},
    **TRACE_TOTALS,
}


def _package_ready() -> bool:
    return (SRC / "qsymbreak" / "__init__.py").is_file()


def _import_package():
    sys.path.insert(0, str(SRC))
    import qsymbreak

    if not Path(qsymbreak.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qsymbreak imported from {qsymbreak.__file__}, not {SRC}")
    return qsymbreak


def _setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Seconds to import the package and generate the workload's inputs,
    in a fresh interpreter (the caller is one), and the mean of a probe
    just before and one just after.  The probe runs in the same process:
    one run in the parent does not follow a child's speed, which swings
    between two levels from one fresh process to the next."""
    host = probe.Probe()
    before = host.measure()
    start = time.perf_counter()
    _import_package()
    WORKLOADS[workload](seed)
    seconds = time.perf_counter() - start
    return seconds, (before + host.measure()) / 2


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(wall seconds, probe seconds) of each set-up."""
    values = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, probe_s = map(float, done.stdout.split()[-2:])
        values.append((seconds, probe_s))
    return values


def measure_peak_rss(workload: str, seed: int) -> float:
    """Peak resident MB of a fresh process that runs one untraced pass of
    the workload and nothing else: no probe, no checks."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def _rss_once(workload: str, seed: int) -> float:
    bench = Bench(_import_package(), WORKLOADS[workload](seed), host=None)
    bench.run_pass(NullTracer())
    return _peak_rss_mb()


def _peak_rss_mb() -> float:
    """This process's peak resident MB.  Linux's VmHWM counts this
    program image only; ru_maxrss also keeps the peak of the process
    that spawned it, from before the exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_reference_s(setup: list[tuple[float, float]]) -> list[float]:
    return [probe.to_reference(seconds, probe_s) for seconds, probe_s in setup]


def summary(values: list[float]) -> dict:
    """Median, quartiles and maximum (the highest percentile a handful of
    passes supports), with the sample count."""
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "max": ordered[-1], "n": len(ordered)}


class Bench:
    """One run of one workload: passes, checks, rows and metrics."""

    def __init__(self, qs, workload, host: probe.Probe | None = None):
        """``host`` is the probe run between instances; without one,
        passes are timed on the wall clock alone."""
        # pipelines imports the package, so it loads once src/ is on the path
        from pipelines import PIPELINES, strategies_kept

        self.qs, self.workload, self.host = qs, workload, host
        self.pipelines, self.strategies_kept = PIPELINES, strategies_kept
        self.rows = {inst.id: {"id": inst.id, "pipeline": inst.pipeline, "seconds": []}
                     for inst in workload.instances}
        self.digests: dict[str, str] = {}
        self.failed = 0
        self.untraced: list[float] = []
        self.untraced_probe: list[float] = []  # median probe seconds per pass
        self.probes: list[float] = []  # every probe, in order
        self.since_probe = PROBE_EVERY_S
        self.traced: list[dict] = []
        self.spans: list[dict] = []
        self.extra_s = 0.0  # measured outside the passes; counts toward --seconds
        self.pass_probe = 0.0

    # -- one pass -----------------------------------------------------------

    def run_pass(self, tracer) -> list[dict]:
        qs = self.qs
        results = []
        first_probe = len(self.probes)
        for inst in self.workload.instances:
            if self.host and self.since_probe >= PROBE_EVERY_S:
                start = time.perf_counter()
                self.probes.append(self.host.measure())
                self.extra_s += time.perf_counter() - start
                self.since_probe = 0.0
            counts, out = Counter(), {}
            tracer.instance, tracer.counts = inst.id, counts
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    with tracer.span(f"pipeline.{inst.pipeline}"):
                        self.pipelines[inst.pipeline](inst.text, tracer, counts, out)
                    outcome, message = "ok", ""
                except qs.CapExceededError as exc:
                    outcome, message = "cap", str(exc)
                except Exception as exc:  # any other error fails the instance
                    outcome, message = "fail", f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
            self.since_probe += seconds
            counts["discarded"] += sum(issubclass(w.category, qs.DetectionWarning) for w in caught)
            failed_checks = [name for name, ok in out.get("checks", ()) if not ok]
            if outcome == "ok" and failed_checks:
                outcome, message = "fail", "verification failed: " + "; ".join(failed_checks)
            results.append({"inst": inst, "outcome": outcome, "message": message,
                            "seconds": seconds, "counts": counts, "out": out})
        # the probes taken during the pass, or the last one before it
        self.pass_probe = statistics.median(
            self.probes[first_probe:] or self.probes[-1:] or [probe.REFERENCE_S])
        return results

    def _digest(self, result: dict) -> str:
        out = result["out"]
        parts = [result["outcome"], result["message"],
                 repr([g.mapping for g in out.get("generators", ())]),
                 out.get("cnf", ""), out.get("dnf", ""),
                 repr(out.get("truth")), repr(out.get("checks")),
                 repr(sorted((k, v) for k, v in result["counts"].items()
                             if k not in TRACED_ONLY))]
        return hashlib.sha256("\0".join(parts).encode()).hexdigest()

    def after_pass(self, results: list[dict]) -> None:
        """Outside the timed region: check the first pass, and make every
        later pass reproduce its outputs exactly."""
        first = not self.digests
        for r in results:
            row = self.rows[r["inst"].id]
            row["seconds"].append(r["seconds"])
            failed = r["outcome"] == "fail"
            digest = self._digest(r)
            if first:
                self.digests[r["inst"].id] = digest
                try:
                    problems = self._check(r)
                except Exception as exc:  # a malformed output can break a check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                row.update(outcome=r["outcome"], message=r["message"],
                           counts=dict(r["counts"]), problems=problems)
                failed = failed or bool(row["problems"])
            elif digest != self.digests[r["inst"].id]:
                row.setdefault("problems", []).append("output differs from the first pass")
                failed = True
            self.failed += failed

    def _check(self, r: dict) -> list[str]:
        inst, out = r["inst"], r["out"]
        parsed = checks.read_qdimacs(inst.text)
        problems = checks.check_generators(parsed, [g.mapping for g in out.get("generators", ())])
        if inst.pipeline == "break" and r["outcome"] == "ok":
            problems += checks.check_break_outputs(parsed, out["cnf"], out["dnf"])
        if inst.pipeline == "verify" and "generators" in out and not problems:
            problems += checks.check_desk_group(parsed, [g.mapping for g in out["generators"]])
        if "truth" in out and out["truth"] != checks.naive_truth(parsed):
            problems.append("truth value differs from the naive game evaluation")
        if inst.id.startswith("kbkf") and out.get("truth", False) is not False:
            problems.append("KBKF formulas are FALSE")
        return problems

    # -- traced pass --------------------------------------------------------

    def traced_pass(self) -> None:
        qs = self.qs
        tracer = Tracer()
        graphs = []

        def on_graph(graph):
            tracer.counts["vertices"] += graph.n_vertices
            tracer.counts["edges"] += len(graph.edges)
            graphs.append(graph)

        def on_search(found):
            tracer.counts["automorphisms"] += len(found.permutations)

        hooks = {
            "build_symmetry_graph": ("detect.graph", on_graph),
            "find_automorphisms": ("detect.search", on_search),
            "to_signed_permutations": ("detect.convert", lambda _: None),
        }
        with patched(qs.detect, tracer, hooks):
            results = self.run_pass(tracer)
        # root refinement on its own, outside the pipeline spans and timings
        tracer.instance = None
        for graph in graphs:
            with tracer.span("detect.refine_root"):
                qs.refine_colors(graph)
        self.extra_s += sum(s["end"] - s["start"] for s in tracer.spans
                            if s["name"] == "detect.refine_root")
        passno = len(self.traced)
        totals = Counter()
        for r in results:
            totals.update(r["counts"])
            row = self.rows[r["inst"].id]
            if r["outcome"] == "ok" and "breakers" in r["out"]:
                kept = row.get("strategies_kept")
                if kept is None:
                    kept = row["strategies_kept"] = self.strategies_kept(r["out"])
                totals["strategies_kept"] += kept
            if passno == 0:
                row["traced_counts"] = {k: r["counts"][k] for k in TRACED_ONLY}
        self.after_pass(results)
        selfs = self_times(tracer.spans)
        roots = [s for s in tracer.spans
                 if s["parent"] is None and s["name"].startswith("pipeline.")]
        self.traced.append({
            "pass_s": sum(r["seconds"] for r in results),
            "self": selfs,
            "self_sum": sum(s["end"] - s["start"] for s in roots),
            "glue": sum(v for k, v in selfs.items() if k.startswith("pipeline.") or k == "detect"),
            "counts": totals,
        })
        for s in tracer.spans:
            self.spans.append({**s, "pass": passno})

    # -- whole run ----------------------------------------------------------

    def reference_passes(self) -> list[float]:
        """Untraced pass times in reference seconds."""
        return [probe.to_reference(s, p) for s, p in zip(self.untraced, self.untraced_probe)]

    def untraced_pass(self) -> None:
        results = self.run_pass(NullTracer())
        self.untraced.append(sum(r["seconds"] for r in results))
        self.untraced_probe.append(self.pass_probe)
        self.after_pass(results)

    def run(self, seconds: float, trace: bool) -> None:
        while True:
            # with tracing, each pair of passes swaps its order, so that the
            # slower first pass of a process does not bias trace.overhead_s
            if trace and len(self.traced) % 2:
                self.traced_pass()
                self.untraced_pass()
            else:
                self.untraced_pass()
                if trace:
                    self.traced_pass()
            spent = sum(self.untraced) + sum(t["pass_s"] for t in self.traced) + self.extra_s
            if spent >= seconds:
                break

    def decided(self) -> int:
        return sum(row["outcome"] == "ok" for row in self.rows.values())

    def end_to_end(self, setup: list[tuple[float, float]], peak_rss_mb: float) -> dict:
        totals = Counter()
        for row in self.rows.values():
            totals.update(row["counts"])
        values = {
            "setup_s": statistics.median(setup_reference_s(setup)),
            "results_per_ref_s": self.decided() / statistics.median(self.reference_passes()),
            "output_clauses": totals["output_clauses"],
            "output_vars": totals["output_vars"],
            "decided_share": self.decided() / len(self.rows),
            "peak_rss_mb": peak_rss_mb,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        def median_of(get):
            return statistics.median(get(t) for t in self.traced)

        values = {f"{name}_s": median_of(lambda t, n=name: t["self"].get(n, 0.0))
                  for name in LAYER_SPANS}
        # counts repeat from pass to pass; the digests check all but TRACED_ONLY
        values.update({m: self.traced[0]["counts"][key] for key, m in LAYER_COUNTS.items()})
        untraced = statistics.median(self.untraced)
        traced = median_of(lambda t: t["pass_s"])
        values.update({
            "trace.overhead_s": traced - untraced,
            "trace.untraced_pass_s": untraced,
            "trace.traced_pass_s": traced,
            "trace.self_sum_s": median_of(lambda t: t["self_sum"]),
            "trace.glue_s": median_of(lambda t: t["glue"]),
            "host.probe_s": statistics.median(self.untraced_probe),
        })
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def run_meta(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "revision": _git_revision(),
        "python": platform.python_version(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _git_revision() -> str:
    """HEAD's commit id read from .git without running git; a checkout
    without .git (an exported tree) reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(bench: Bench, meta: dict, setup: list[tuple[float, float]], peak_rss_mb: float,
           out_dir: Path, trace: bool) -> dict:
    """Print the readable report, write the record, return the result line."""
    rows = list(bench.rows.values())
    outcomes = Counter(row["outcome"] for row in rows)
    attempted = len(rows) * (len(bench.untraced) + len(bench.traced))
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    timings = {"setup_wall_s": [s for s, _ in setup], "setup_ref_s": setup_reference_s(setup),
               "pass_wall_s": bench.untraced, "pass_ref_s": bench.reference_passes(),
               "probe_s": bench.untraced_probe}
    if trace:
        timings["traced_pass_s"] = [t["pass_s"] for t in bench.traced]
    for name, values in timings.items():
        print(name, " ".join(f"{k}={v:.6g}" for k, v in summary(values).items()))
    print(f"outcomes ok={outcomes['ok']} cap={outcomes['cap']} fail={outcomes['fail']} "
          f"capped_share={outcomes['cap'] / len(rows):.4f} "
          f"failed_share={bench.failed / attempted:.4f}")
    for row in rows:
        line = {k: row[k] for k in ("id", "pipeline", "outcome", "message") if k in row}
        line["seconds"] = summary(row["seconds"])["median"]
        line["counts"] = row.get("counts", {})
        line.update({k: row[k] for k in ("traced_counts", "strategies_kept") if k in row})
        if row.get("problems"):
            line["problems"] = row["problems"]
        print("row", json.dumps(line, sort_keys=True))
    metrics = bench.per_layer() if trace else bench.end_to_end(setup, peak_rss_mb)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": bench.failed == 0, "attempted": attempted,
              "failed": bench.failed, "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta,
        "workload": {"name": bench.workload.name, "why": bench.workload.why,
                     "left_out": bench.workload.left_out,
                     "instances": [{"id": i.id, "pipeline": i.pipeline, "why": i.why,
                                    "bytes": len(i.text)} for i in bench.workload.instances]},
        "setup_wall_s": [s for s, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "untraced_pass_s": bench.untraced,
        "untraced_probe_s": bench.untraced_probe,
        "traced_pass_s": [t["pass_s"] for t in bench.traced],
        "rows": rows,
        "result": result,
        "spans": bench.spans,
    }
    name = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not _package_ready():
        print(f"no qsymbreak sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(*map(repr, _setup_once(args.workload, args.seed)))
        return 0
    if args.rss_only:
        print(repr(_rss_once(args.workload, args.seed)))
        return 0

    start = time.perf_counter()
    setup = measure_setup(args.workload, args.seed)
    peak_rss_mb = measure_peak_rss(args.workload, args.seed)
    qs = _import_package()
    bench = Bench(qs, WORKLOADS[args.workload](args.seed), host=probe.Probe())
    # set-up and the memory pass count toward --seconds, so that a run
    # lasts about as long on a slow host as on a fast one
    bench.run(args.seconds - (time.perf_counter() - start), bool(args.trace))
    result = report(bench, run_meta(args.workload, args.seed, args.trace), setup,
                    peak_rss_mb, OUT_DIR, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
