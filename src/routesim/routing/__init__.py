"""Routing engines, the protocol table and the dispatcher.

``PROTOCOL_SPECS`` is the one place that says what each protocol name means:
which coordinates its nodes compare, under which distance, what recovery runs
at a local minimum, and how its CSV row is labelled.  A RoutingContext bundles
everything a single scenario binds: the topology, the believed positions, the
coordinate assignments, the configured distance, and the TTL.  ``route`` picks
the engine from a protocol's spec and hands it the right distance field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from routesim import distance as dist_mod
from routesim.coords import AlignedCoords, VirtualCoords
from routesim.routing.greedy import greedy_next_hop, greedy_route, sp_route
from routesim.routing.gpsr import FaceTable, face_table, gpsr_route
from routesim.routing.planar import METHOD_GG, METHOD_RNG, planarize, count_crossings
from routesim.routing.recovery import BeaconTrees, beacon_trees, bvr_route, lcr_route
from routesim.routing.result import Failure, Mode, RouteResult
from routesim.topology import Topology, TopologyError


class CoordSource:
    """Coordinates a protocol's nodes compare."""

    GEO = "geo"            # believed positions (true or perceived)
    VCS = "vcs"            # raw integer hop counts, whatever the alignment depth
    ALIGNED = "aligned"    # the scenario's alignment; raw hop counts at depth 0


class Recovery:
    """What a protocol does at a local minimum; SHORTEST_PATH is the oracle baseline."""

    NONE = "none"
    PERIMETER = "perimeter"
    BACKTRACK = "backtrack"
    BEACON = "beacon"
    SHORTEST_PATH = "shortest-path"


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the simulator decides from a protocol name."""

    coords: str                        # CoordSource
    distance: str | None               # fixed distance kind; None takes the scenario's
    recovery: str                      # Recovery
    planar: str | None = None          # planar subgraph of perimeter recovery
    coord_system: str | None = None    # CSV label; None: avcs when aligned, else vcs
    distance_label: str | None = None  # CSV label; None: the distance kind in use


PROTOCOL_SPECS = {
    "gf-geo": ProtocolSpec(CoordSource.GEO, "geo", Recovery.NONE, coord_system="geo"),
    "gpsr-gg": ProtocolSpec(CoordSource.GEO, "geo", Recovery.PERIMETER, METHOD_GG, coord_system="geo"),
    "gpsr-rng": ProtocolSpec(CoordSource.GEO, "geo", Recovery.PERIMETER, METHOD_RNG, coord_system="geo"),
    "gf-vcs": ProtocolSpec(CoordSource.VCS, None, Recovery.NONE),
    "gf-avcs": ProtocolSpec(CoordSource.ALIGNED, None, Recovery.NONE),
    "lcr": ProtocolSpec(CoordSource.ALIGNED, None, Recovery.BACKTRACK),
    "bvr": ProtocolSpec(CoordSource.ALIGNED, "semi", Recovery.BEACON),
    "sp": ProtocolSpec(CoordSource.GEO, "geo", Recovery.SHORTEST_PATH,
                       coord_system="none", distance_label="none"),
}

PROTOCOLS = tuple(PROTOCOL_SPECS)


class ProtocolError(ValueError):
    pass


def _spec(protocol: str) -> ProtocolSpec:
    spec = PROTOCOL_SPECS.get(protocol)
    if spec is None:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    return spec


@dataclass
class RoutingContext:
    """Scenario-bound inputs shared by every route of one evaluation."""

    topology: Topology
    geo_positions: np.ndarray                # believed positions (true or perceived)
    ttl: int
    vc: VirtualCoords | None = None
    av: AlignedCoords | None = None          # None without virtual coordinates
    distance_kind: str = "euclid"
    semi_weight: float = dist_mod.DEFAULT_SEMI_WEIGHT
    _planar: dict[str, Topology] = field(default_factory=dict)
    _faces: dict[str, FaceTable] = field(default_factory=dict)

    def planar(self, method: str) -> Topology:
        pg = self._planar.get(method)
        if pg is None:
            pg = planarize(self.topology, self.geo_positions, method)
            self._planar[method] = pg
        return pg

    def faces(self, method: str) -> FaceTable:
        """Face table of the planar subgraph over the believed positions."""
        table = self._faces.get(method)
        if table is None:
            table = face_table(self.geo_positions, self.planar(method))
            self._faces[method] = table
        return table

    @cached_property
    def beacons(self) -> BeaconTrees:
        """Every anchor's hop-count tree, for beacon fallback."""
        return beacon_trees(self.vc, self.topology)

    def field_inputs(self, protocol: str) -> tuple[np.ndarray, np.ndarray, dist_mod.FieldFn]:
        """(local coordinates, destination vectors, field function) of a protocol.

        Node u compares row u of the first with row dst of the second.
        Packets on virtual coordinate systems carry the destination's integer
        vector, so the destination vectors are always the raw VCS there;
        geographic protocols compare believed positions.
        """
        spec = _spec(protocol)
        if spec.coords == CoordSource.GEO:
            local = targets = self.geo_positions
        elif self.vc is None:
            raise ProtocolError(f"{protocol} needs virtual coordinates")
        else:
            targets = self._vcs_float
            local = self.av.matrix if spec.coords == CoordSource.ALIGNED else targets
        return local, targets, dist_mod.field_function(spec.distance or self.distance_kind,
                                                       self.semi_weight)

    def dfield(self, protocol: str, dst: int) -> np.ndarray:
        """Distance of every node's local coordinates to the destination's."""
        local, targets, fn = self.field_inputs(protocol)
        return fn(local, targets[dst])

    @cached_property
    def _vcs_float(self) -> np.ndarray:
        return self.vc.matrix.astype(float)


def route(protocol: str, src: int, dst: int, ctx: RoutingContext) -> RouteResult:
    """Dispatch one packet under the scenario's bindings."""
    spec = _spec(protocol)
    t = ctx.topology
    if not (0 <= src < t.n and 0 <= dst < t.n):
        raise TopologyError(f"src/dst must be node ids in [0, {t.n})")
    if spec.recovery == Recovery.SHORTEST_PATH:
        return sp_route(src, dst, t)
    dfield = ctx.dfield(protocol, dst)
    if spec.recovery == Recovery.PERIMETER:
        return gpsr_route(src, dst, dfield, ctx.faces(spec.planar), t, ctx.ttl)
    if spec.recovery == Recovery.BACKTRACK:
        return lcr_route(src, dst, dfield, t, ctx.ttl)
    if spec.recovery == Recovery.BEACON:
        return bvr_route(src, dst, dfield, ctx.beacons, t, ctx.ttl)
    return greedy_route(src, dst, dfield, t, ctx.ttl)


__all__ = [
    "PROTOCOLS",
    "PROTOCOL_SPECS",
    "ProtocolSpec",
    "CoordSource",
    "Recovery",
    "ProtocolError",
    "RoutingContext",
    "RouteResult",
    "Mode",
    "Failure",
    "greedy_next_hop",
    "greedy_route",
    "sp_route",
    "planarize",
    "METHOD_GG",
    "METHOD_RNG",
    "count_crossings",
    "FaceTable",
    "face_table",
    "gpsr_route",
    "lcr_route",
    "BeaconTrees",
    "beacon_trees",
    "bvr_route",
    "route",
]
