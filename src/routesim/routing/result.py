"""Per-packet routes and hop-mode attribution.

A route's failure cause is the one record of how it ended: a route is
delivered exactly when it has none, and then its path ends at dst.
"""

from __future__ import annotations

from dataclasses import dataclass


class Mode:
    """Hop modes; one label per traversed edge."""

    GREEDY = "greedy"
    PERIMETER = "perimeter"
    BACKTRACK = "backtrack"
    FALLBACK = "beacon-fallback"
    FLOOD = "flood"


class Failure:
    LOCAL_MINIMUM = "local-minimum"
    TTL_EXCEEDED = "ttl-exceeded"
    PERIMETER_LOOP = "perimeter-loop"
    BACKTRACK_EXHAUSTED = "backtrack-exhausted"
    UNREACHABLE = "unreachable"  # sp only: src and dst in different components


@dataclass(frozen=True)
class RouteResult:
    """One packet's journey: node path, per-hop modes, and how it ended.

    ``path`` starts at src; ``modes[i]`` labels the hop path[i] -> path[i+1].
    ``failure_cause`` is None for a delivered route, whose path ends at dst.
    """

    src: int
    dst: int
    path: tuple[int, ...]
    modes: tuple[str, ...]
    failure_cause: str | None = None

    @property
    def delivered(self) -> bool:
        return self.failure_cause is None

    @property
    def greedy(self) -> bool:
        """Delivered on greedy hops alone: one route's share of greedy_ratio."""
        return self.delivered and all(m == Mode.GREEDY for m in self.modes)

    @property
    def hops(self) -> int:
        return len(self.path) - 1
