"""Every ``take`` in routesim that gathers into ``out=`` passes ``mode="clip"``.

With its default ``mode="raise"``, numpy's ``take`` gathers into a temporary
and copies that into ``out``, so a preallocated buffer saves nothing.  The
clipped takes read only indices that are already known to be in range.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "routesim"
MODULES = sorted(SRC.rglob("*.py"))


def _unclipped_takes(path: Path) -> list[int]:
    """Lines of ``take(..., out=...)`` calls, as functions or methods, without ``mode="clip"``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg: k.value for k in node.keywords}
        mode = keywords.get("mode")
        if name == "take" and "out" in keywords and not (
                isinstance(mode, ast.Constant) and mode.value == "clip"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_take_into_out_clips(path):
    assert _unclipped_takes(path) == []


def test_unclipped_take_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "np.take(a, i, out=b)\n"
        "a.take(i, axis=0, out=b, mode='raise')\n"
        "np.take(a, i, out=b, mode='clip')\n"
        "a.take(i, out=b, mode='clip')\n"
        "np.take(a, i)\n")
    assert _unclipped_takes(module) == [2, 3]
