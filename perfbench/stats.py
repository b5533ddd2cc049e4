"""Order statistics the benchmark reports: medians, tails, rate ladders."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Sequence

#: A tail must leave at least this many samples strictly beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with ``TAIL_BEYOND`` beyond it.

    ``percentile`` is the nearest-rank percentile of ``value`` and
    ``beyond`` the number of samples strictly above its rank; ``count``
    is the sample size.  A sample too small for any percentile to have
    ``TAIL_BEYOND`` samples beyond it reports its maximum with
    ``beyond == 0``, so the printed figures say it is not a real tail.
    """

    value: float
    percentile: float
    beyond: int
    count: int


def median(samples: Sequence[float]) -> float:
    """The median, or 0.0 for an empty sample."""
    return float(statistics.median(samples)) if samples else 0.0


def tail(samples: Sequence[float]) -> Tail:
    """The highest percentile that has ``TAIL_BEYOND`` samples beyond it.

    With ``n`` sorted samples, rank ``n - TAIL_BEYOND`` (1-based) is the
    last one with ten samples above it; its nearest-rank percentile is
    ``100 * (n - TAIL_BEYOND) / n``.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        return Tail(0.0, 0.0, 0, 0)
    rank = count - TAIL_BEYOND
    if rank < 1:
        return Tail(float(ordered[-1]), 100.0, 0, count)
    return Tail(float(ordered[rank - 1]), 100.0 * rank / count, TAIL_BEYOND, count)


@dataclass(frozen=True)
class LadderStep:
    """One fixed offered-rate step of the service workload.

    ``backlog`` is the number of jobs that were due by the end of the
    step but had not completed by then; ``late_tail_ms`` is how late the
    load generator released jobs (it does not enter the ladder rule: a
    late generator invalidates the whole run).
    """

    rate: float
    hit_tail_ms: float
    backlog: int
    failed: int = 0
    late_tail_ms: float = 0.0


def sustained_rate(
    steps: Sequence[LadderStep], limit_ms: float, backlog_allowance: int
) -> float:
    """The highest rate of the ladder the service kept up with.

    Steps are taken in increasing rate; a step passes when its hit tail
    is within ``limit_ms``, no job failed, and no more than
    ``backlog_allowance`` jobs (one in flight per connection) were left
    outstanding at its end.  The ladder stops at the first step that
    fails, so a lucky pass above a failure does not count.  Returns 0.0
    when even the lowest step fails.
    """
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if (
            step.hit_tail_ms > limit_ms
            or step.failed
            or step.backlog > backlog_allowance
        ):
            break
        best = step.rate
    return best


def as_ms(seconds: List[float]) -> List[float]:
    """Convert a list of durations in seconds to milliseconds."""
    return [value * 1000.0 for value in seconds]
