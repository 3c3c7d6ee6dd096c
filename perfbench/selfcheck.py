"""Self-check of the benchmark's own arithmetic, run before every measurement.

Each case pins one rule of ``stats.py`` on hand-built inputs with a known
answer: the rank-based tail percentile, the median with failures ranked last,
span self time (overlapping and overhanging children included), and the
matmul flop count. ``run.py`` refuses to measure when any case fails, so a
change to how a reported number is computed cannot pass unnoticed.
"""

from __future__ import annotations

import stats

INF = float("inf")


def _tail_cases():
    # (samples, expected value, percentile, samples beyond)
    yield list(range(1, 26)), 15, 60.0, 10          # 25 samples: index 14 of 0..24
    yield list(range(11, 0, -1)), 1, 100.0 / 11, 10  # 11 samples: the minimum
    yield list(range(1, 11)), 10, 100.0, 0           # 10 samples: no such percentile, max
    yield [1.0] * 19 + [INF] * 3, 1.0, 100.0 * 12 / 22, 10  # failures rank beyond successes
    yield [2.0] * 5 + [INF] * 10, 2.0, 100.0 / 3, 10  # ten failures: the tail is a success
    yield [2.0] * 4 + [INF] * 11, INF, 100.0 * 5 / 15, 10  # eleven: the tail is a failure


def _self_time_cases():
    # spans: (id, name, start, end, parent, op); expected self time by id
    spans = [
        (0, "op", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 3.0, 0, 0),
        (2, "b", 2.0, 5.0, 0, 0),    # overlaps a: the union [1, 5] counts once
        (3, "c", 9.0, 12.0, 0, 0),   # overhangs the parent: only [9, 10] counts
        (4, "d", 1.5, 2.5, 1, 0),    # grandchild: charged to a, not to op
        (5, "e", 20.0, 21.0, None, 1),
    ]
    yield spans, {0: 5.0, 1: 1.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 1.0}


def run() -> list[str]:
    """Return a description of every case that fails (empty when all pass)."""
    problems = []
    for samples, value, percentile, beyond in _tail_cases():
        got = stats.tail(samples)
        if got[0] != value or abs(got[1] - percentile) > 1e-12 or got[2] != beyond:
            problems.append(f"tail({len(samples)} samples) = {got}, "
                            f"expected {(value, percentile, beyond)}")
    for samples, expected in (([3.0, 1.0, 2.0], 2.0), ([1.0, 2.0, INF, INF], INF),
                              ([4.0, 1.0, INF, 2.0], 3.0)):
        if stats.median(samples) != expected:
            problems.append(f"median({samples}) = {stats.median(samples)}, expected {expected}")
    for spans, expected in _self_time_cases():
        got = stats.self_times(spans)
        for span_id, want in expected.items():
            if abs(got[span_id] - want) > 1e-12:
                problems.append(f"self time of span {span_id} = {got[span_id]}, expected {want}")
    if stats.matmul_flops(3, 4, 5) != 120:
        problems.append(f"matmul_flops(3, 4, 5) = {stats.matmul_flops(3, 4, 5)}, expected 120")
    return problems
