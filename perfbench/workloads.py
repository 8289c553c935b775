"""The benchmark's workloads: scenario configs derived from the workload seed.

A workload is a tuple of scenario configs.  One round builds and evaluates
each of them once, in order; each build-and-evaluate is one operation.  The
``--seed`` argument selects one of ``VARIANTS`` input variants, so every seed
has reference row hashes in ``reference.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from routesim.harness import MetricsRow, ScenarioConfig
from routesim.routing import METHOD_GG, METHOD_RNG
from routesim.topology import VoidSpec

import checks

VARIANTS = 16

# Pair budgets per scenario.
GRID_PAIRS = 20_000     # about 8 sampled sources per destination on 2500 nodes
VOID_PAIRS = 8_000
SPARSE_PAIRS = 400      # below n: most destinations get a single source

# Deployment seeds of the n=5000, 70x70, r=1.85 random deployment whose
# unit-disk graph is connected (seeds 1..31; the others leave a node or a
# small cluster cut off, which build_vcs rejects with CoordsError).
SPARSE_SEEDS = (1, 2, 5, 7, 10, 11, 13, 14, 18, 20, 21, 26, 27, 28, 30, 31)

CENTRAL_VOID = VoidSpec("disc", (24.5, 24.5), radius=10.0)

# Planar subgraph a protocol builds on first use; part of set-up.
PLANAR_METHOD = {"gpsr-gg": METHOD_GG, "gpsr-rng": METHOD_RNG}


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    configs: tuple[ScenarioConfig, ...]
    round_check: Callable[[dict[str, MetricsRow]], list[str]]
    min_rounds: int = 1

    def warmup_configs(self) -> tuple[ScenarioConfig, ...]:
        """Tiny grid versions of the configs: load lazily imported code paths."""
        return tuple(
            replace(c, deployment="grid", rows=8, cols=8, radio_range=1.5, voids=(), sample=0)
            for c in self.configs
        )


def greedy_grid(variant: int) -> Workload:
    configs = tuple(
        ScenarioConfig(deployment="grid", rows=50, cols=50, radio_range=2.5,
                       protocol=protocol, align_depth=1, distance="euclid",
                       sample=GRID_PAIRS, seed=variant + 1)
        for protocol in ("gf-vcs", "gf-avcs")
    )
    return Workload("greedy-grid", variant, configs, checks.avcs_beats_vcs)


def recovery_void(variant: int) -> Workload:
    configs = tuple(
        ScenarioConfig(deployment="grid", rows=50, cols=50, radio_range=2.0,
                       voids=(CENTRAL_VOID,), protocol=protocol, distance="euclid",
                       loc_error=0.4, sample=VOID_PAIRS, seed=variant + 1)
        for protocol in ("gpsr-rng", "bvr", "lcr")
    )
    return Workload("recovery-void", variant, configs, checks.complementary_order)


def sparse_large(variant: int) -> Workload:
    config = ScenarioConfig(deployment="random", n=5000, width=70.0, height=70.0,
                            radio_range=1.85, protocol="gf-avcs", align_depth=1,
                            distance="euclid", sample=SPARSE_PAIRS,
                            seed=SPARSE_SEEDS[variant])
    return Workload("sparse-large", variant, (config,), checks.no_round_check, min_rounds=2)


WORKLOADS = {
    "greedy-grid": greedy_grid,
    "recovery-void": recovery_void,
    "sparse-large": sparse_large,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed % VARIANTS)
