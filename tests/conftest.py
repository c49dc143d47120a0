import os
from pathlib import Path

import pytest

import qsymbreak


@pytest.fixture
def package_env():
    """Environment for a subprocess that imports the package under test,
    whether or not it is installed."""
    env = dict(os.environ)
    package_root = str(Path(qsymbreak.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env
