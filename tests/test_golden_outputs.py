"""Byte-identity gate: CLI stdout and exit codes pinned by sha256.

Every command below runs in-process through ``cli.main``; its stdout bytes
and exit code must match ``golden_outputs.json``.  A change that alters any
of them changes simulator output and has to say why.  Every ``eval`` and
``sweep`` case runs a second time with ``--workers 2``, and must match the
same entry.  To rewrite the table after such a change, run
``python tests/test_golden_outputs.py``.  ``ROW_COUNTS`` pins what the CSV
leaves out of each all-pairs ``eval`` row, its excluded pairs and failure
counts, with one worker and with two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from routesim.cli import main
from routesim.config import parse_config
from routesim.harness import evaluate

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
TABLE = Path(__file__).with_name("golden_outputs.json")

COMMANDS = (["gen"], ["coords"], ["eval"], ["map", "5"], ["route", "0", "371"])
VARIANT_BASE = "grid20_hole29_avcs.cfg"
VARIANT_PROTOCOLS = ("lcr", "bvr", "gpsr-gg", "gpsr-rng", "sp")
# 9 -> 361 crosses the void: lcr backtracks, bvr falls back and floods, gpsr
# enters perimeter mode; on gpsr-rng 150 -> 220 ends in a perimeter loop.
VARIANT_COMMANDS = (["--sample", "2000", "eval"], ["route", "9", "361"], ["route", "150", "220"])
# A void strip down the grid's middle column, and protocols that route
# across components (virtual coordinates need a connected graph).
SPLIT_VOID = "rect:9.5,9.5,0.6,10.0"
SPLIT_PROTOCOLS = ("gf-geo", "gpsr-rng", "sp")
# (config keys set on the base config, commands run on the result)
VARIANTS = (
    *(({"protocol": p, "loc_error": 0.4}, VARIANT_COMMANDS) for p in VARIANT_PROTOCOLS),
    # Depth-0 scenarios of the aligned-coordinate protocols.
    *(({"protocol": p, "align_depth": 0, "loc_error": 0.4}, (["--sample", "2000", "eval"], ["coords"]))
      for p in ("lcr", "bvr")),
    # gf-vcs routes on raw hop counts but prints the configured alignment.
    ({"protocol": "gf-vcs", "align_depth": 2}, (["coords"],)),
    # All pairs of a small voided grid under the recovery engines; gpsr-rng's
    # run ends pairs in local minima, perimeter loops and the TTL.
    *(({"protocol": p, "rows": 12, "cols": 12, "voids": "disc:5.5,5.5,2.5", "loc_error": 0.4}, (["eval"],))
      for p in ("gpsr-gg", "gpsr-rng", "bvr")),
    # All pairs of the 20x20 base: many sources stall at one node toward the
    # same destination: bvr has 112,898 stalled pairs on 5,692 (stall node,
    # destination) keys.
    *(({"protocol": p, "loc_error": 0.4}, (["eval"],)) for p in ("gpsr-rng", "bvr")),
    # A TTL below the hop diameter: the TTL cuts greedy prefixes and
    # continuations, sampled and over all pairs.
    *(({"protocol": p, "loc_error": 0.4, "ttl_factor": 0.6},
       (["--sample", "2000", "eval"], ["eval"]) if p != "lcr" else (["--sample", "2000", "eval"],))
      for p in ("gpsr-rng", "bvr", "lcr")),
    # A grid split in two by a void strip: 72,000 of its 144,020 ordered
    # pairs cross between the halves and are excluded from the metrics.
    # 0 -> 379 crosses it: gf-geo stalls (exit 3), gpsr-rng's perimeter loop
    # is reported as the TTL (exit 4), and sp finds no path (exit 7).
    *(({"protocol": p, "voids": SPLIT_VOID, "loc_error": 0.4},
       (["eval"], ["--sample", "2000", "eval"], ["route", "0", "379"]))
      for p in SPLIT_PROTOCOLS),
)
# (config file, argv after ``--config``): every sweep axis on the variant
# base, where hole_count 3 cuts a node off from anchor 0 (a point error, exit
# 2), and a void sweep on a random deployment, whose disc sits at the area's
# center instead of a grid cell's.
SWEEPS = (
    *((VARIANT_BASE, ["--sample", "2000", "sweep", *axis]) for axis in (
        ["radio_range", "1.2", "1.5"],
        ["void_size", "0", "2.5"],
        ["hole_count", "0", "1", "3"],
        ["align_depth", "0", "2"],
        ["error_fraction", "0", "0.3"],
        ["seed", "1", "2", "3"],
    )),
    ("random400_vcs.cfg", ["--sample", "2000", "sweep", "void_size", "0", "2.5"]),
)


def _variant_text(keys: dict) -> str:
    text = (ROOT / "configs" / VARIANT_BASE).read_text()
    for key, value in keys.items():
        text, found = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if not found:
            text += f"{key} = {value}\n"
    return text


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (config text, argv after ``--config``)."""
    cases = {}
    for cfg in CONFIGS:
        for cmd in COMMANDS:
            cases[f"{cfg.name} {' '.join(cmd)}"] = (cfg.read_text(), cmd)
    for keys, commands in VARIANTS:
        label = ",".join(f"{k}={v}" for k, v in keys.items())
        for cmd in commands:
            cases[f"{VARIANT_BASE}[{label}] {' '.join(cmd)}"] = (_variant_text(keys), cmd)
    for name, cmd in SWEEPS:
        cases[f"{name} {' '.join(cmd)}"] = ((ROOT / "configs" / name).read_text(), cmd)
    return cases


# Every all-pairs ``eval`` case of the table -> (excluded_pairs, failures) of
# its row: fields of the row object that the CSV does not print.
ROW_COUNTS = {
    "forwarding_void_map.cfg eval": (0, (("local-minimum", 94870),)),
    "grid20_geo.cfg eval": (0, ()),
    "grid20_hole29_avcs.cfg eval": (0, (("local-minimum", 4468),)),
    "grid20_hole29_avcs.cfg[protocol=bvr,loc_error=0.4,ttl_factor=0.6] eval":
        (0, (("ttl-exceeded", 72324),)),
    "grid20_hole29_avcs.cfg[protocol=bvr,loc_error=0.4] eval": (0, ()),
    "grid20_hole29_avcs.cfg[protocol=bvr,rows=12,cols=12,voids=disc:5.5,5.5,2.5,loc_error=0.4] eval":
        (0, ()),
    "grid20_hole29_avcs.cfg[protocol=gf-geo,voids=rect:9.5,9.5,0.6,10.0,loc_error=0.4] eval":
        (72000, (("local-minimum", 2891),)),
    "grid20_hole29_avcs.cfg[protocol=gpsr-gg,rows=12,cols=12,voids=disc:5.5,5.5,2.5,loc_error=0.4] eval":
        (0, ()),
    "grid20_hole29_avcs.cfg[protocol=gpsr-rng,loc_error=0.4,ttl_factor=0.6] eval":
        (0, (("local-minimum", 2408), ("perimeter-loop", 6798), ("ttl-exceeded", 23383))),
    "grid20_hole29_avcs.cfg[protocol=gpsr-rng,loc_error=0.4] eval":
        (0, (("local-minimum", 2445), ("perimeter-loop", 8675), ("ttl-exceeded", 53))),
    "grid20_hole29_avcs.cfg[protocol=gpsr-rng,rows=12,cols=12,voids=disc:5.5,5.5,2.5,loc_error=0.4] eval":
        (0, (("local-minimum", 516), ("perimeter-loop", 99), ("ttl-exceeded", 34))),
    "grid20_hole29_avcs.cfg[protocol=gpsr-rng,voids=rect:9.5,9.5,0.6,10.0,loc_error=0.4] eval":
        (72000, (("local-minimum", 14), ("perimeter-loop", 138), ("ttl-exceeded", 166))),
    "grid20_hole29_avcs.cfg[protocol=sp,voids=rect:9.5,9.5,0.6,10.0,loc_error=0.4] eval": (72000, ()),
    "random400_vcs.cfg eval": (0, (("local-minimum", 46008),)),
}


def _forked(args: list[str]) -> list[str]:
    """The same command with ``--workers 2`` before its subcommand."""
    at = next(i for i, a in enumerate(args) if a in ("eval", "sweep"))
    return [*args[:at], "--workers", "2", *args[at:]]


# Cases that evaluate pairs; each is run again through the forked worker pool.
FORKED = sorted(c for c, (_, args) in _cases().items() if {"eval", "sweep"} & set(args))


def _run(case: str, tmp: Path, forked: bool = False) -> dict:
    text, args = _cases()[case]
    if forked:
        args = _forked(args)
    path = tmp / "scenario.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), *args])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("protocol", SPLIT_PROTOCOLS)
def test_split_grid_cases_exclude_pairs(protocol):
    # The split-grid cases pin the bytes of the path that excludes pairs.
    cfg = parse_config(_variant_text({"protocol": protocol, "voids": SPLIT_VOID, "loc_error": 0.4}))
    assert evaluate(cfg).excluded_pairs == 72_000
    assert evaluate(replace(cfg, sample=2000)).excluded_pairs > 0


def test_table_covers_every_case():
    assert sorted(_cases()) == sorted(json.loads(TABLE.read_text()))


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_matches_golden(case, tmp_path):
    assert _run(case, tmp_path) == json.loads(TABLE.read_text())[case]


@pytest.mark.parametrize("case", FORKED)
def test_forked_output_matches_golden(case, tmp_path):
    """Two workers print the bytes of the serial run's table entry."""
    assert _run(case, tmp_path, forked=True) == json.loads(TABLE.read_text())[case]

def test_row_counts_cover_every_all_pairs_eval():
    assert sorted(ROW_COUNTS) == sorted(c for c, (_, args) in _cases().items() if args == ["eval"])


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("case", sorted(ROW_COUNTS))
def test_row_counts_match_golden(case, workers):
    row = evaluate(parse_config(_cases()[case][0]), workers=workers)
    assert (row.excluded_pairs, row.failures) == ROW_COUNTS[case]



if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        table = {case: _run(case, Path(d)) for case in sorted(_cases())}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {TABLE}", file=sys.stderr)
