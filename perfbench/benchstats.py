"""Pure arithmetic of the benchmark: tail percentile, failures, max
rate, and reconciliation of layer times with wall time.

Nothing here touches the system under test, so ``tests/`` can pin every
rule down exactly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10
#: generator lag growth below this never counts as a backlog
LAG_FLOOR_S = 0.05
#: the request kind whose tail decides whether a rate is met
LIMIT_KIND = "simulate"


@dataclass(frozen=True)
class Tail:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""

    percentile: float     # e.g. 90.0 for p90
    value: float
    samples: int

    @property
    def label(self) -> str:
        return f"p{self.percentile:g}"


def tail(values: Sequence[float]) -> Tail:
    """The highest order statistic with ``TAIL_BEYOND`` samples above it.

    With ``n`` samples sorted ascending that is the value at rank
    ``n - TAIL_BEYOND`` (1-based), i.e. percentile
    ``(n - TAIL_BEYOND) / n``.  Fewer than ``TAIL_BEYOND + 1`` samples
    support no tail at all, so the maximum is returned and labelled
    p100.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(100.0, ordered[-1], n)
    rank = n - TAIL_BEYOND
    return Tail(round(100.0 * rank / n, 1), ordered[rank - 1], n)


@dataclass
class Sample:
    """One open-loop request, timed from when it was due.

    Times are seconds on one monotonic clock.  ``ok`` is False for a
    refusal (429/503), another non-2xx answer, a timeout, a transport
    error or a wrong output; every such request misses any latency
    limit.
    """

    kind: str
    due: float
    sent: float
    done: float
    status: int = 0
    ok: bool = False
    error: str = ""
    served: str = ""
    worker_s: Optional[float] = None
    cache_hit: Optional[bool] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


def failures(samples: Iterable[Sample]) -> int:
    return sum(1 for s in samples if not s.ok)


def failed_frac(attempted: int, failed: int) -> float:
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    return failed / attempted


def lag_grows(samples: Sequence[Sample], rate: float) -> bool:
    """True when the generator fell further behind over the step.

    Compares the median lag of the last third of the requests (by due
    time) with the first third; growth beyond two inter-arrival gaps
    (and at least ``LAG_FLOOR_S``) is a backlog that keeps building.
    Medians keep one transient stall, which delays a minority of the
    requests, from reading as a backlog.
    """
    ordered = sorted(samples, key=lambda s: s.due)
    if len(ordered) < 3:
        return False
    third = len(ordered) // 3
    early = statistics.median(s.lag_s for s in ordered[:third])
    late = statistics.median(s.lag_s for s in ordered[-third:])
    return late - early > max(LAG_FLOOR_S, 2.0 / rate)


@dataclass
class StepResult:
    """One fixed arrival rate of an open-loop workload."""

    rate: float
    samples: List[Sample]

    @property
    def failed(self) -> int:
        return failures(self.samples)

    def tail_ms(self, kind: Optional[str] = None) -> float:
        """Tail latency of one request kind; failures count as misses
        (infinite latency)."""
        lat = [s.latency_s * 1e3 if s.ok else float("inf")
               for s in self.samples if kind is None or s.kind == kind]
        return tail(lat).value if lat else 0.0

    def meets(self, limit_ms: float) -> bool:
        return (self.failed == 0
                and self.tail_ms(LIMIT_KIND) <= limit_ms
                and not lag_grows(self.samples, self.rate))


def max_rps(steps: Sequence[StepResult], limit_ms: float) -> float:
    """Highest fixed rate whose ``LIMIT_KIND`` tail stays within the
    limit, with no failed request and no growing generator lag; 0 when
    no rate qualifies."""
    passing = [step.rate for step in steps if step.meets(limit_ms)]
    return max(passing) if passing else 0.0


def drain_rps(samples: Sequence[Sample]) -> float:
    """Completions per second of a burst sent faster than the system
    can answer: correct answers divided by the time from the first
    request's due time to the last answer.  Once the backlog builds,
    that rate is the capacity the system sustains."""
    if not samples:
        raise ValueError("drain rate of no samples")
    first_due = min(s.due for s in samples)
    last_done = max(s.done for s in samples)
    ok = sum(1 for s in samples if s.ok)
    return ok / (last_done - first_due)


def reconcile(wall_s: float, layer_self_s: Dict[str, float]
              ) -> Dict[str, float]:
    """Split ``wall_s`` into the layers' self times and a remainder.

    ``wall_s`` is the untraced run's busy time (wall time times the
    processes doing the work); the remainder is the part no layer span
    covers, negative when tracing inflated the layers beyond it.
    """
    attributed = sum(layer_self_s.values())
    remainder = wall_s - attributed
    return {"wall_s": wall_s, "attributed_s": attributed,
            "unattributed_s": remainder,
            "unattributed_pct": 100.0 * remainder / wall_s
            if wall_s > 0 else 0.0}


def overhead_pct(untraced: float, traced: float,
                 better: str) -> float:
    """How much worse the traced value is, in percent of untraced."""
    if untraced == 0:
        return 0.0
    change = (traced - untraced) / untraced * 100.0
    return change if better == "lower" else -change
