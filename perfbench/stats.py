"""Arithmetic the benchmark reports with: the tail percentile, ratios with
their bases, and self time from a span tree.

Kept free of I/O and of topocert imports so its tests run on synthetic data.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is only reported with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of the ``pct`` percentile of ``n`` samples."""
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def tail_choice(n: int) -> Tuple[float, int]:
    """(percentile, samples beyond it) of the highest ladder percentile that
    leaves at least ``TAIL_MIN_BEYOND`` samples above it.

    With too few samples for any of them, the maximum (100, 0) is used.
    """
    for pct in TAIL_LADDER:
        beyond = n - nearest_rank(n, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, beyond
    return 100.0, 0


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail of ``samples``."""
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    pct, beyond = tail_choice(len(ordered))
    return ordered[nearest_rank(len(ordered), pct) - 1], pct, beyond


def scaled_latencies(walls: Sequence[Sequence[float]], refs: Sequence[float],
                     nominal: float) -> Tuple[List[float], float]:
    """(per-call latency, scale) at a nominal host speed.

    ``walls[p][i]`` is call i's wall time in pass p and ``refs`` are the
    reference samples timed through the same passes.  Each call's mean over
    the passes is multiplied by ``nominal / mean(refs)``: the host's speed
    over the run, taken from the same stretch of time as the calls.
    """
    if not walls or not refs:
        raise ValueError("scaling needs at least one pass and one reference sample")
    scale = nominal / (sum(refs) / len(refs))
    calls = len(walls[0])
    return [scale * sum(w[i] for w in walls) / len(walls) for i in range(calls)], scale


def ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when the base is empty (the base is printed
    beside every ratio, so a zero base is visible)."""
    return num / den if den else 0.0


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Per-span self time: the span's duration minus its children's.

    Spans come from one thread, so a span's children are disjoint intervals
    inside it and their durations add.  ``parents[i]`` is the index of span
    i's parent, or -1 for a root.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def per_role(roles: Sequence[int], starts: Sequence[int], ends: Sequence[int],
             parents: Sequence[int]) -> Dict[int, Tuple[int, int]]:
    """role -> (span count, summed self time) over a span table."""
    acc: Dict[int, List[int]] = {}
    for r, own in zip(roles, self_times(starts, ends, parents)):
        slot = acc.setdefault(r, [0, 0])
        slot[0] += 1
        slot[1] += own
    return {r: (c, t) for r, (c, t) in acc.items()}

