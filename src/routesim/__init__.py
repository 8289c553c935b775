"""routesim: deterministic geometric-routing simulator and benchmark harness.

Simulates greedy forwarding and its recovery modes (perimeter routing,
backtracking, beacon fallback) over unit-disk wireless topologies, on three
kinds of coordinate systems: geographic positions (exact or perturbed),
integer hop-count virtual coordinates, and real-valued aligned virtual
coordinates obtained by neighborhood averaging.
"""

from routesim.topology import (
    Deployment,
    Topology,
    VoidSpec,
    generate_grid,
    generate_random,
    carve_voids,
    build_udg,
    perturb_positions,
)
from routesim.coords import (
    AnchorSet,
    VirtualCoords,
    AlignedCoords,
    corner_anchors,
    build_vcs,
    align,
)
from routesim import distance
from routesim.routing import (
    RouteResult,
    Mode,
    greedy_route,
    sp_route,
    planarize,
    gpsr_route,
    lcr_route,
    bvr_route,
    route,
)
from routesim.harness import (
    ScenarioConfig,
    Scenario,
    MetricsRow,
    evaluate,
    sweep,
    distance_map,
    fixture_abc,
)

__version__ = "0.1.0"
