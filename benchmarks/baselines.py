"""Baseline loading shared by the benchmark and quality trend gates.

Both ``check_regression.py`` (BENCH speedups) and ``check_quality.py``
(QUALITY detection metrics) compare freshly written JSON reports against
the last *committed* copy of the same file.  The committed copy comes
from ``git show HEAD:benchmarks/<name>`` by default, or from a directory
of snapshot copies taken before the run (the CI lanes snapshot
``benchmarks/`` into ``$RUNNER_TEMP`` first, so a re-run on a dirty tree
still compares against the accepted numbers).  Benchmark runs never write
the committed ``BENCH_*.json`` files: their fresh reports go to
:data:`OUT_DIR`, which git ignores.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).parent
#: Where benchmark runs write their fresh ``BENCH_*.json`` reports.
OUT_DIR = BENCH_DIR / "out"


def committed_baseline(name: str) -> dict | None:
    """The committed copy of ``benchmarks/<name>`` at HEAD, if any."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/{name}"],
            capture_output=True, check=True, cwd=BENCH_DIR,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def snapshot_baseline(directory: Path, name: str) -> dict | None:
    """A baseline copy of ``<name>`` from a snapshot directory, if any."""
    path = directory / name
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def load_baseline(name: str, baseline_dir: Path | None) -> dict | None:
    """Snapshot copy when a directory is given, committed copy otherwise."""
    if baseline_dir is not None:
        return snapshot_baseline(baseline_dir, name)
    return committed_baseline(name)
