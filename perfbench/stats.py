"""The benchmark's own arithmetic: latency summaries and span self time.

Kept apart from the workloads so that ``selfcheck.py`` can pin every rule
on hand-built inputs; a change to how a reported number is computed then
shows up as a failing self-check instead of a silent shift in results.
"""

from __future__ import annotations

import statistics

# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values):
    """Median of the values; failed operations enter as +inf."""
    return statistics.median(values)


def tail(values):
    """Highest nearest-rank percentile with >= TAIL_SAMPLES_BEYOND samples beyond it.

    Returns ``(value, percentile, samples_beyond)``. Sorted ascending, the
    sample at index ``n - 11`` has exactly ten samples after it, and its
    nearest-rank percentile is ``100 * (n - 10) / n``. With ten samples or
    fewer no such percentile exists; the maximum is returned as the 100th
    percentile with no samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_SAMPLES_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> its duration minus the part its child spans cover.

    ``spans`` holds ``(span_id, name, start, end, parent_id, op)`` tuples.
    """
    children: dict = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - covered_length(children.get(span[0], ()), span[2], span[3])
        for span in spans
    }


def matmul_flops(n, k, m):
    """Floating-point operations of an (n, k) @ (k, m) product: 2nkm."""
    return 2 * n * k * m

