"""Per-packet route outcomes and hop-mode attribution."""

from __future__ import annotations

from dataclasses import dataclass


class Mode:
    """Hop modes; one label per traversed edge."""

    GREEDY = "greedy"
    PERIMETER = "perimeter"
    BACKTRACK = "backtrack"
    FALLBACK = "beacon-fallback"
    FLOOD = "flood"


class Outcome:
    DELIVERED_GREEDY = "delivered-greedy"
    DELIVERED_MIXED = "delivered-mixed"
    FAILED = "failed"


class Failure:
    LOCAL_MINIMUM = "local-minimum"
    TTL_EXCEEDED = "ttl-exceeded"
    PERIMETER_LOOP = "perimeter-loop"
    BACKTRACK_EXHAUSTED = "backtrack-exhausted"


@dataclass(frozen=True)
class RouteResult:
    """One packet's journey: node path, per-hop modes, and how it ended.

    ``path`` starts at src; ``modes[i]`` labels the hop path[i] -> path[i+1].
    A delivered path ends at dst, and delivered-greedy means every hop was a
    greedy one.
    """

    src: int
    dst: int
    path: tuple[int, ...]
    modes: tuple[str, ...]
    outcome: str
    failure_cause: str | None = None

    @property
    def delivered(self) -> bool:
        return self.outcome in (Outcome.DELIVERED_GREEDY, Outcome.DELIVERED_MIXED)

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def finish(src: int, dst: int, path: list[int], modes: list[str],
           failure: str | None = None) -> RouteResult:
    """Assemble a RouteResult, deriving the outcome from modes and arrival."""
    if failure is not None:
        outcome = Outcome.FAILED
    elif all(m == Mode.GREEDY for m in modes):
        outcome = Outcome.DELIVERED_GREEDY
    else:
        outcome = Outcome.DELIVERED_MIXED
    return RouteResult(src, dst, tuple(path), tuple(modes), outcome, failure)
