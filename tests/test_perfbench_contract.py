"""The package surface the benchmark in ``perfbench/`` relies on.

perfbench imports the package as ``qs`` and calls it by name; its own smoke
test runs outside this suite, so a renamed or removed name would only show
when the benchmark runs.  Its traced passes also replace three detection
helpers on ``qsymbreak.detect``, which measures them only while
``detect_symmetries`` looks those helpers up when it is called.
"""

import re
from pathlib import Path
from unittest import mock

import qsymbreak
from qsymbreak import detect
from qsymbreak.benchmarks import gen_kbkf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_HELPERS = ("build_symmetry_graph", "find_automorphisms", "to_signed_permutations")


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
