"""Byte-identity gate: CLI stdout and exit codes pinned by sha256.

Every command below runs in-process through ``cli.main``; its stdout bytes
and exit code must match ``golden_outputs.json``.  A change that alters any
of them changes simulator output and has to say why.  To rewrite the table
after such a change, run ``python tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from routesim.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
TABLE = Path(__file__).with_name("golden_outputs.json")

COMMANDS = (["gen"], ["eval"], ["map", "5"], ["route", "0", "371"])
VARIANT_BASE = "grid20_hole29_avcs.cfg"
VARIANT_PROTOCOLS = ("lcr", "bvr", "gpsr-gg", "gpsr-rng", "sp")
# 9 -> 361 crosses the void: lcr backtracks, bvr falls back and floods, gpsr
# enters perimeter mode; on gpsr-rng 150 -> 220 ends in a perimeter loop.
VARIANT_COMMANDS = (["--sample", "2000", "eval"], ["route", "9", "361"], ["route", "150", "220"])


def _variant_text(protocol: str) -> str:
    text = (ROOT / "configs" / VARIANT_BASE).read_text()
    text = re.sub(r"(?m)^protocol = .*$", f"protocol = {protocol}", text)
    return text + "loc_error = 0.4\n"


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (config text, argv after ``--config``)."""
    cases = {}
    for cfg in CONFIGS:
        for cmd in COMMANDS:
            cases[f"{cfg.name} {' '.join(cmd)}"] = (cfg.read_text(), cmd)
    for protocol in VARIANT_PROTOCOLS:
        for cmd in VARIANT_COMMANDS:
            case = f"{VARIANT_BASE}[protocol={protocol},loc_error=0.4] {' '.join(cmd)}"
            cases[case] = (_variant_text(protocol), cmd)
    return cases


def _run(case: str, tmp: Path) -> dict:
    text, args = _cases()[case]
    path = tmp / "scenario.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), *args])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_table_covers_every_case():
    assert sorted(_cases()) == sorted(json.loads(TABLE.read_text()))


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_matches_golden(case, tmp_path):
    assert _run(case, tmp_path) == json.loads(TABLE.read_text())[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        table = {case: _run(case, Path(d)) for case in sorted(_cases())}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {TABLE}", file=sys.stderr)
