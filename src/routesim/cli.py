"""Command-line front end.

Commands: gen, coords, route, eval, sweep, map.  Every command is a thin
binding from a config file to one harness operation; running a command twice
on the same inputs produces byte-identical output.  Failures exit nonzero
with a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from routesim.config import ConfigError, load_config
from routesim.coords import CoordsError, format_coords
from routesim.harness import (
    CSV_HEADER,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    SWEEP_AXES,
    distance_map,
    evaluate_scenario,
    sweep,
)
from routesim.routing import PROTOCOL_SPECS, CoordSource, route
from routesim.routing.result import Failure
from routesim.topology import TopologyError, format_topology

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_BY_FAILURE = {
    Failure.LOCAL_MINIMUM: 3,
    Failure.TTL_EXCEEDED: 4,
    Failure.PERIMETER_LOOP: 5,
    Failure.BACKTRACK_EXHAUSTED: 6,
    Failure.UNREACHABLE: 7,
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    sc = Scenario.routing(cfg)
    _write_out(format_topology(sc.topology), args.out)
    return EXIT_OK


def cmd_coords(args) -> int:
    cfg = _load_config(args)
    if cfg.spec.coords == CoordSource.GEO:
        names = ", ".join(p for p, spec in PROTOCOL_SPECS.items() if spec.coords != CoordSource.GEO)
        return _fail(f"coords needs a virtual-coordinate protocol ({names})")
    _write_out(format_coords(Scenario.routing(cfg).av), args.out)
    return EXIT_OK


def cmd_route(args) -> int:
    cfg = _load_config(args)
    sc = Scenario.routing(cfg)
    rr = route(cfg.protocol, args.src, args.dst, sc.ctx)
    dfield = sc.ctx.dfield(cfg.protocol, args.dst)
    lines = []
    for i, node in enumerate(rr.path):
        mode = "start" if i == 0 else rr.modes[i - 1]
        lines.append(f"{i} {node} {mode} {float(dfield[node]):.6f}")
    _write_out("\n".join(lines) + "\n", args.out)
    if rr.delivered:
        return EXIT_OK
    print(f"failed: {rr.failure_cause}", file=sys.stderr)
    return EXIT_BY_FAILURE[rr.failure_cause]


def _load_config(args) -> ScenarioConfig:
    """The config file's scenario, with ``--sample`` overriding its pair budget."""
    cfg = load_config(args.config)
    return cfg if args.sample is None else replace(cfg, sample=args.sample)


def cmd_eval(args) -> int:
    sc = Scenario.build(_load_config(args))
    row = evaluate_scenario(sc, workers=args.workers)
    _write_out(CSV_HEADER + "\n" + row.csv_row() + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [_parse_axis_value(args.axis, v) for v in args.values]
    rows, errors = sweep(cfg, args.axis, values, workers=args.workers)
    text = CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in rows)
    _write_out(text, args.out)
    for value, message in errors:
        print(f"sweep point {value}: {message}", file=sys.stderr)
    return EXIT_OK if not errors else EXIT_ERROR


def _parse_axis_value(axis: str, v: str):
    try:
        return SWEEP_AXES[axis](v)
    except ValueError:
        raise ScenarioError(f"bad {axis} value {v!r}") from None


def cmd_map(args) -> int:
    cfg = _load_config(args)
    dm = distance_map(cfg, args.dst)
    _write_out(dm.csv(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="routesim", description=__doc__)
    p.add_argument("--config", required=True, help="scenario config file (key = value lines)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers (never changes output bytes)")
    p.add_argument("--sample", type=int, default=None, help="ordered-pair sampling budget (0 = all pairs)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="write the topology serialization").set_defaults(run=cmd_gen)
    sub.add_parser("coords", help="write the coordinate assignment dump").set_defaults(run=cmd_coords)
    rp = sub.add_parser("route", help="trace a single packet")
    rp.add_argument("src", type=int)
    rp.add_argument("dst", type=int)
    rp.set_defaults(run=cmd_route)
    sub.add_parser("eval", help="evaluate the scenario, print a metrics CSV row").set_defaults(run=cmd_eval)
    sp = sub.add_parser("sweep", help="evaluate across one axis")
    sp.add_argument("axis", choices=SWEEP_AXES)
    sp.add_argument("values", nargs="+")
    sp.set_defaults(run=cmd_sweep)
    mp = sub.add_parser("map", help="distance map toward one destination")
    mp.add_argument("dst", type=int)
    mp.set_defaults(run=cmd_map)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, ScenarioError, CoordsError, TopologyError, OSError) as e:
        return _fail(str(e))
    except MemoryError as e:  # numpy's MemoryError names the allocation that failed
        return _fail(f"out of memory: {e}" if str(e) else "out of memory")


if __name__ == "__main__":
    sys.exit(main())
