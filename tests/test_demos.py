"""Every demo script runs to completion against the package under test,
and writes nothing to stderr: a stray warning or traceback fails it."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, package_env):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=package_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
