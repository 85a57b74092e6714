"""Summary statistics of one timed batch.

Kept free of numpy and geodisc so the arithmetic can be tested on its
own.
"""

from __future__ import annotations

import math
import statistics

#: errors below this floor read as the floor (16 digits)
ERROR_FLOOR = 1e-16


def median_latency(latencies, ok) -> float:
    """Median op latency with failed ops ranked after every success.

    A failed op takes the slowest latency seen in the batch, so failures
    can only raise the median, never lower it.
    """
    if len(latencies) != len(ok) or not latencies:
        raise ValueError("need one success flag per latency, at least one op")
    slowest = max(latencies)
    ranked = sorted(lat for lat, good in zip(latencies, ok) if good)
    ranked += [slowest] * (len(latencies) - len(ranked))
    return statistics.median(ranked)


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no op attempted")
    return failed / attempted


def accuracy_digits(errors) -> float:
    """-log10 of the worst error over successful ops (0 when none
    succeeded); errors under ERROR_FLOOR read as ERROR_FLOOR."""
    errors = list(errors)
    if not errors or any(math.isnan(e) for e in errors):
        return 0.0
    return -math.log10(max(max(errors), ERROR_FLOOR))

