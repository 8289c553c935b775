"""routesim benchmark: build and evaluate the scenarios of one workload.

    python3 perfbench/run.py --workload greedy-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-reference [--workload NAME]

Run from the repository root; the program is imported from ``src/``.  One
operation builds one scenario (``Scenario.build``, plus the planar subgraph
for gpsr) and evaluates it into one CSV row (``evaluate_scenario``).  A round
runs every scenario of the workload once; rounds repeat until ``--seconds``
would be exceeded.  Each operation's times are scaled to reference host
speed by the ruler sampled while it runs (``ruler.py``); the unscaled
figures are printed too.  Outputs are checked after all timing is done.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Per-operation detail goes to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

``--write-reference`` evaluates every input variant of the named workload
(of all three by default) once, checks the rows, and rewrites its sha256 row
hashes in ``reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
RESULTS = BENCH_DIR / "results"

# Native thread pools must be pinned before numpy or scipy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_program() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "routesim" / "__init__.py").is_file():
        sys.exit(f"perfbench: routesim sources not found under {src}")
    sys.path.insert(0, str(src))


@dataclass
class Op:
    """One scenario built and evaluated into one CSV row."""

    slot: int
    protocol: str
    setup_s: float = 0.0
    route_s: float = 0.0
    scale: float = 1.0          # reference ruler time / ruler time during the operation
    row: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Round:
    ops: list[Op]
    traced: bool
    layers: dict[str, float] | None = None

    def _done(self) -> list[Op]:
        return [op for op in self.ops if op.error is None]

    def setup_s(self, scaled: bool = True) -> float:
        return sum(op.setup_s * (op.scale if scaled else 1.0) for op in self._done())

    def route_s(self, scaled: bool = True) -> float:
        return sum(op.route_s * (op.scale if scaled else 1.0) for op in self._done())

    def wall_s(self, scaled: bool = True) -> float:
        return self.setup_s(scaled) + self.route_s(scaled)

    @property
    def pairs(self) -> int:
        return sum(op.row.pairs for op in self._done())


def run_round(wl, retained: list, ruler, tracer=None) -> Round:
    """Build and evaluate every scenario of ``wl`` once, in order.

    ``retained[slot]`` keeps the last built scenario of each slot for the
    checks; it is released just before the slot is built again, so no more
    than one scenario per slot is alive.  The ruler samples host speed
    before and during each operation.
    """
    from routesim import harness
    from routesim.harness import Scenario
    from tracer import SELF_TIME_METRICS, patched
    from workloads import PLANAR_METHOD

    if tracer is not None:
        tracer.reset()
    ops = []
    with ruler.sampling(), patched(tracer) if tracer is not None else nullcontext():
        for slot, cfg in enumerate(wl.configs):
            retained[slot] = None
            gc.collect()
            ruler.sample()
            op = Op(slot, cfg.protocol)
            try:
                spent0, t0 = ruler.spent, time.perf_counter()
                sc = Scenario.build(cfg)
                method = PLANAR_METHOD.get(cfg.protocol)
                if method is not None:
                    sc.ctx.planar(method)
                spent1, t1 = ruler.spent, time.perf_counter()
                op.row = harness.evaluate_scenario(sc, workers=1)
                spent2, t2 = ruler.spent, time.perf_counter()
            except Exception:
                op.error = traceback.format_exc()
                print(f"operation {cfg.protocol} raised:\n{op.error}", file=sys.stderr)
            else:
                op.setup_s = t1 - t0 - (spent1 - spent0)
                op.route_s = t2 - t1 - (spent2 - spent1)
                op.scale = ruler.scale(t0, t2)
                retained[slot] = sc
            ops.append(op)
    r = Round(ops, tracer is not None)
    if tracer is not None:
        r.layers = tracer.summary()
        scale = r.wall_s() / r.wall_s(scaled=False) if r.wall_s(scaled=False) > 0 else 1.0
        for name in SELF_TIME_METRICS.values():
            r.layers[name] *= scale
    return r


def check_rounds(wl, rounds: list[Round], retained: list, reference: dict) -> None:
    """Attach every check's problems to the operations they concern."""
    import checks

    for slot, cfg in enumerate(wl.configs):
        done = [op for r in rounds for op in r.ops if op.slot == slot and op.error is None]
        if not done:
            continue
        shared = checks.scenario_problems(retained[slot], done[-1].row, cfg.seed)
        expected = reference.get(cfg.protocol)
        for op in done:
            op.problems += checks.row_problems(op.row, cfg) + shared
            sha = checks.row_sha256(op.row)
            if expected is not None and sha != expected:
                op.problems.append(f"row sha256 {sha} differs from reference {expected}")
    for r in rounds:
        rows = {op.protocol: op.row for op in r.ops if op.error is None}
        if len(rows) == len(wl.configs):
            cross = wl.round_check(rows)
            for op in r.ops:
                op.problems += cross


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def warm_up(wl) -> None:
    """Run tiny versions of the scenarios so lazy imports happen untimed."""
    from routesim import harness
    from routesim.harness import Scenario
    from workloads import PLANAR_METHOD

    for cfg in wl.warmup_configs():
        sc = Scenario.build(cfg)
        if cfg.protocol in PLANAR_METHOD:
            sc.ctx.planar(PLANAR_METHOD[cfg.protocol])
        harness.evaluate_scenario(sc, workers=1)


def end_to_end(rounds: list[Round], peak_rss_mb: float, scaled: bool = True) -> dict:
    timed = [r for r in rounds if not r.traced and r.route_s() > 0]
    return {
        "wall_s": (statistics.median(r.wall_s(scaled) for r in timed), "s"),
        "setup_s": (statistics.median(r.setup_s(scaled) for r in timed), "s"),
        "pairs_per_s": (statistics.median(r.pairs / r.route_s(scaled) for r in timed), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(rounds: list[Round]) -> dict:
    from tracer import COUNT_METRICS, SELF_TIME_METRICS

    traced = [r.layers for r in rounds if r.traced]
    out = {name: (statistics.median(t[name] for t in traced), "s")
           for name in SELF_TIME_METRICS.values()}
    units = {"harness.hop_matrix_mb": "MB"}
    out.update({name: (statistics.median(t[name] for t in traced), units.get(name, "count"))
                for name in COUNT_METRICS})
    overhead = (statistics.median(r.wall_s() for r in rounds if r.traced)
                - statistics.median(r.wall_s() for r in rounds if not r.traced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def bench(args) -> int:
    import checks
    import workloads
    from ruler import Ruler
    from tracer import Tracer

    wl = workloads.make(args.workload, args.seed)
    warm_up(wl)
    ruler = Ruler()
    gc.collect()
    tracer = Tracer() if args.trace else None
    # A traced run alternates untraced and traced rounds, so both are
    # measured in the same process; the difference is the tracing overhead.
    min_rounds = max(wl.min_rounds, 2 if tracer else 1)
    retained: list = [None] * len(wl.configs)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(wl, retained, ruler, tracer if traced else None))
        elapsed = time.perf_counter() - start
        whole = tracer is None or len(rounds) % 2 == 0
        if whole and len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = load_reference().get(wl.name, {}).get(str(wl.variant), {})
    check_rounds(wl, rounds, retained, reference)
    ops = [op for r in rounds for op in r.ops]
    print(f"perfbench {wl.name} seed {args.seed} (variant {wl.variant}): "
          f"{len(rounds)} rounds, {len(ops)} operations in {elapsed:.2f} s")
    for slot, cfg in enumerate(wl.configs):
        last = next((op for op in reversed(ops) if op.slot == slot and op.error is None), None)
        if last is not None:
            sha = checks.row_sha256(last.row)
            expected = reference.get(cfg.protocol)
            status = "none" if expected is None else "match" if expected == sha else "MISMATCH"
            print(f"  {last.row.csv_row()}  sha256 {sha}  reference {status}")
    for op in ops:
        for p in op.problems:
            print(f"check failed ({op.protocol}): {p}", file=sys.stderr)

    if not any(r.route_s() > 0 for r in rounds if not r.traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    unscaled = end_to_end(rounds, peak_rss_mb, scaled=False)
    for name, (value, unit) in end_to_end(rounds, peak_rss_mb).items():
        print(f"  {name} = {value:.6g} {unit} (unscaled {unscaled[name][0]:.6g})")
    metrics = per_layer(rounds) if tracer else end_to_end(rounds, peak_rss_mb)
    if tracer:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"  details in {write_details(args, wl, rounds, result, tracer)}")
    print(json.dumps(result))
    return 0


def write_details(args, wl, rounds: list[Round], result: dict, tracer) -> Path:
    """Write every round's operations (and the last traced round's spans)."""
    def op_detail(op: Op) -> dict:
        out = {"protocol": op.protocol, "setup_s": op.setup_s, "route_s": op.route_s,
               "scale": op.scale, "error": op.error, "problems": op.problems}
        if op.row is not None:
            out.update(row=op.row.csv_row(), excluded_pairs=op.row.excluded_pairs,
                       failures=dict(op.row.failures))
        return out

    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "variant": wl.variant,
        "seconds": args.seconds,
        "result": result,
        "rounds": [
            {"traced": r.traced, "layers": r.layers, "ops": [op_detail(op) for op in r.ops]}
            for r in rounds
        ],
        "spans": tracer.spans if tracer is not None else [],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail) + "\n")
    return path


def write_reference(names: list[str]) -> int:
    import checks
    import workloads
    from ruler import Ruler

    ruler = Ruler()
    reference = load_reference()
    bad = 0
    for name in names:
        entries = {}
        for variant in range(workloads.VARIANTS):
            wl = workloads.WORKLOADS[name](variant)
            retained: list = [None] * len(wl.configs)
            rounds = [run_round(wl, retained, ruler)]
            check_rounds(wl, rounds, retained, {})
            for op in rounds[0].ops:
                for p in ([op.error] if op.error else []) + op.problems:
                    print(f"{name} variant {variant} {op.protocol}: {p}", file=sys.stderr)
                    bad += 1
            entries[str(variant)] = {op.protocol: checks.row_sha256(op.row)
                                     for op in rounds[0].ops if op.error is None}
            print(f"{name} variant {variant}: " + "; ".join(
                op.row.csv_row() for op in rounds[0].ops if op.error is None), flush=True)
        reference[name] = entries
    if bad:
        print(f"{bad} problems; reference.json left unchanged", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("greedy-grid", "recovery-void", "sparse-large"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    load_program()
    if args.write_reference:
        return write_reference([args.workload] if args.workload
                               else ["greedy-grid", "recovery-void", "sparse-large"])
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
