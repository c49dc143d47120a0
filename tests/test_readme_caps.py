"""The README's Caps section names every cap the package defines.

A module-level ``*_CAP`` constant, ``TABLE_VARS`` or ``DEFAULT_BUDGET``
bounds what an oracle or the search may do; each must be named in the
Caps section, on a line that also gives its value, so that a cap added or
changed in the code shows up as a stale table here.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsymbreak"
NAMED = re.compile(r"^(?:\w+_CAP|TABLE_VARS|DEFAULT_BUDGET)$")


def _caps() -> dict[str, int]:
    """Every named cap constant assigned at module level in the package."""
    caps = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"qsymbreak.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and NAMED.match(target.id):
                        caps[target.id] = getattr(module, target.id)
    return caps


def _caps_section() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    return section.splitlines()


def _spellings(value: int) -> set[str]:
    out = {str(value), f"{value:,}"}
    if value > 1 and value & (value - 1) == 0:
        out.add(f"2^{value.bit_length() - 1}")
    return out


def test_the_caps_section_names_every_cap_with_its_value():
    caps = _caps()
    assert {"TRUTH_VAR_CAP", "PLAY_VAR_CAP", "TABLE_VARS", "DEFAULT_BUDGET"} <= set(caps)
    lines = _caps_section()
    for name, value in caps.items():
        rows = [line for line in lines if f"`{name}`" in line]
        assert rows, f"README's Caps section does not name {name}"
        pattern = "|".join(re.escape(s) for s in _spellings(value))
        assert any(
            re.search(rf"(?<![\w^])(?<!\d,)(?:{pattern})(?!\w|,\d)", row) for row in rows
        ), f"README's Caps section does not give {name} = {value}"
