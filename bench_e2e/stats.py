"""Timing summaries: the median plus the highest well-supported percentile."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles tried from the top; the first one with at least
#: ``MIN_BEYOND`` samples strictly above it is reported as the tail.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` of the highest percentile in :data:`PERCENTILES` with
    at least :data:`MIN_BEYOND` samples beyond it, or ``None`` when the
    sample is too small for any."""
    xs = sorted(values)
    for p in PERCENTILES:
        value = percentile(xs, p)
        if sum(1 for x in xs if x > value) >= MIN_BEYOND:
            return p, value
    return None


def summarize(values: Sequence[float], scale: float = 1.0) -> Dict:
    """``{"n", "p50", "tail_p", "tail"}`` of ``values`` times ``scale``."""
    if not values:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    found = tail(values)
    return {
        "n": len(values),
        "p50": statistics.median(values) * scale,
        "tail_p": found[0] if found else None,
        "tail": found[1] * scale if found else None,
    }


def describe(name: str, summary: Dict, unit: str) -> str:
    """One report line: ``name  p50 unit (pXX tail unit, n=...)``."""
    if not summary["n"]:
        return f"{name:<16} n=0"
    text = f"{name:<16} p50 {summary['p50']:.4g} {unit}"
    if summary["tail"] is not None:
        text += f", p{summary['tail_p']:g} {summary['tail']:.4g} {unit}"
    return text + f"  (n={summary['n']})"
