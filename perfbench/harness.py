"""Timed passes over a workload and the metrics computed from them.

A pass runs every item of a workload once and yields one row per item:
(name, seconds, failure reason or None).  Passes repeat while another pass
of median length still fits in the run's time budget; at least one pass
always runs.
"""

from __future__ import annotations

import statistics
import time

# An item latency percentile is reported at the highest level that leaves at
# least this many items beyond it in every pass.
TAIL_ITEMS = 10
HD_STEPS = 16


class Pass:
    __slots__ = ("wall_s", "rows")

    def __init__(self, wall_s: float, rows: list):
        self.wall_s = wall_s
        self.rows = rows

    @property
    def failures(self) -> list:
        return [(name, why) for name, _, why in self.rows if why is not None]


def run_passes(workload, seconds: float) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rows = workload.run_pass()
        passes.append(Pass(time.perf_counter() - t0, rows))
        if len(rows) != workload.items_per_pass:
            raise RuntimeError(f"{workload.name}: pass ran {len(rows)} items, expected {workload.items_per_pass}")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def time_items(items) -> list:
    """Run each item once, timing it; an exception is the item's failure."""
    clock = time.perf_counter
    rows = []
    for item in items:
        t0 = clock()
        try:
            why = item.run()
        except Exception as exc:  # noqa: BLE001 - a raising item is a failed item
            why = f"{type(exc).__name__}: {exc}"
        rows.append((item.name, clock() - t0, why))
    return rows


def tail_level(items_per_pass: int) -> tuple[int, float]:
    """(items beyond the tail value per pass, its percentile)."""
    beyond = min(TAIL_ITEMS, items_per_pass - 1)
    return beyond, 100.0 * (1 - beyond / items_per_pass)


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: every order statistic
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass of its slot
    [(i-1)/n, i/n].  With few items (31 checks in a catalogue pass) a
    single order statistic jumps between neighbouring items as their times
    wobble; the weighted estimate moves smoothly.  The weights come from
    trapezoid integration of the density, HD_STEPS points per slot."""
    import numpy as np  # not at module level: set-up timing starts after the harness loads

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = np.clip(np.linspace(0.0, 1.0, n * HD_STEPS + 1), 1e-300, 1.0 - 1e-16)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    w = np.diff(cdf[::HD_STEPS])
    return float(w @ x / w.sum())


def latency_summary(passes: list[Pass], items_per_pass: int) -> dict:
    """Median and tail item latency (ms) over every item of every pass."""
    lat = [s for p in passes for _, s, _ in p.rows]
    beyond, pct = tail_level(items_per_pass)
    return {
        "item_p50_ms": hd_quantile(lat, 0.5) * 1000.0,
        "item_tail_ms": hd_quantile(lat, pct / 100.0) * 1000.0,
        "tail_percentile": pct,
        "samples": len(lat),
    }


def item_medians_ms(passes: list[Pass]) -> dict:
    """Median latency (ms) of each named item across passes."""
    per = {}
    for p in passes:
        for name, s, _ in p.rows:
            per.setdefault(name, []).append(s * 1000.0)
    return {name: statistics.median(v) for name, v in per.items()}
