#!/usr/bin/env python
"""Fail CI when a freshly measured benchmark ratio regresses >25%.

Every throughput benchmark writes a fresh ``BENCH_*.json`` with a
``speedup`` field (vectorized/sharded path vs. its scalar reference) into
``benchmarks/out/``, which git ignores.  The committed copies next to this
script carry the last accepted numbers; after the slow lane re-runs the
benchmarks, this script compares each fresh ratio in ``out/`` against the
committed baseline and exits non-zero if any dropped by more than
``MAX_REGRESSION`` (25%).

Baselines come from ``git show HEAD:benchmarks/<name>`` by default;
``--baseline-dir`` points at a directory of snapshot copies instead.

On hosts with fewer than 4 CPUs the whole gate is *skipped, loudly*:
wall-clock ratios on a 1-core container measure the scheduler, not the
code (the sharded benchmark can't even win), so rather than compare noise
the script prints exactly why it is not comparing and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from baselines import OUT_DIR, load_baseline

#: File -> field holding the pinned ratio.
RATIO_FIELDS = {
    "BENCH_runner.json": "speedup",
    "BENCH_store.json": "speedup",
    "BENCH_shard.json": "speedup",
    "BENCH_robustness.json": "speedup",
    "BENCH_longitudinal.json": "speedup",
    "BENCH_monitor.json": "speedup",
    "BENCH_query.json": "speedup",
}
#: Largest tolerated relative drop of a ratio before the gate fails.
MAX_REGRESSION = 0.25
MIN_CPUS = 4
#: Relative peak-RSS growth (vs. the baseline's recorded telemetry) that
#: draws a warning.  Memory is trended warn-only: RSS depends on the
#: allocator, interpreter build, and test ordering, so growth is a prompt
#: to investigate, never a CI failure.
MEMORY_CEILING = 0.50


def peak_rss_kb(report: dict | None) -> float | None:
    """The ``telemetry.peak_rss_kb`` a benchmark report carries, if any."""
    if not isinstance(report, dict):
        return None
    telemetry = report.get("telemetry")
    if not isinstance(telemetry, dict):
        return None
    value = telemetry.get("peak_rss_kb")
    return float(value) if isinstance(value, (int, float)) and value > 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=Path, default=None,
        help="directory holding baseline BENCH_*.json copies "
             "(default: read them from git HEAD)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=MAX_REGRESSION,
        help="largest tolerated relative ratio drop (default 0.25)",
    )
    parser.add_argument(
        "--memory-ceiling", type=float, default=MEMORY_CEILING,
        help="relative peak-RSS growth that draws a warning — warn-only, "
             "never fails the gate (default 0.5)",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    if cpus < MIN_CPUS:
        print(
            f"SKIPPED: benchmark regression gate needs >= {MIN_CPUS} CPUs to "
            f"measure stable ratios, host has {cpus} (the 1-core container "
            f"case); not comparing BENCH_*.json — this is a skip, not a pass."
        )
        return 0

    failures = []
    for name, field in RATIO_FIELDS.items():
        fresh_path = OUT_DIR / name
        if not fresh_path.is_file():
            print(f"{name}: SKIP (no fresh file written by this benchmark run)")
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = load_baseline(name, args.baseline_dir)
        if baseline is None or field not in baseline:
            print(f"{name}: SKIP (no committed baseline to compare against)")
            continue
        old = float(baseline[field])
        new = float(fresh.get(field, 0.0))
        floor = old * (1.0 - args.max_regression)
        verdict = "ok" if new >= floor else "REGRESSED"
        print(f"{name}: {field} {old:.2f} -> {new:.2f} (floor {floor:.2f}) {verdict}")
        if new < floor:
            failures.append(name)

        old_rss = peak_rss_kb(baseline)
        new_rss = peak_rss_kb(fresh)
        if old_rss is not None and new_rss is not None:
            ceiling = old_rss * (1.0 + args.memory_ceiling)
            if new_rss > ceiling:
                print(
                    f"{name}: WARN peak RSS {old_rss:.0f}kB -> {new_rss:.0f}kB "
                    f"(ceiling {ceiling:.0f}kB) — memory growth is warn-only, "
                    "not a gate failure"
                )
            else:
                print(f"{name}: peak RSS {old_rss:.0f}kB -> {new_rss:.0f}kB ok")

    if failures:
        print(f"FAIL: ratio regressions >25% in: {', '.join(failures)}")
        return 1
    print("All benchmark ratios within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
