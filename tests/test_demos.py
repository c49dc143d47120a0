"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsymbreak

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(qsymbreak.__file__).resolve().parents[1])


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
