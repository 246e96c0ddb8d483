"""The benchmark ratio gate: >25% speedup drops fail, smaller ones pass.

``benchmarks/check_regression.py`` compares the fresh ``BENCH_*.json``
reports a benchmark run writes into ``benchmarks/out/`` against the
committed copies.  These tests drive its ``main`` against synthetic
fresh/baseline pairs — the fresh directory redirected to a temporary one,
and the CPU count pinned so the gate compares instead of skipping on small
hosts — plus the loud skip itself.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture
def gate(monkeypatch, tmp_path):
    """The gate module with ``out/`` redirected and a 4-CPU host."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        "check_regression", BENCH_DIR / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fresh = tmp_path / "out"
    fresh.mkdir()
    monkeypatch.setattr(module, "OUT_DIR", fresh)
    monkeypatch.setattr(os, "cpu_count", lambda: module.MIN_CPUS)
    return module


def report(speedup, peak_rss_kb=100_000.0):
    return {"speedup": speedup, "telemetry": {"peak_rss_kb": peak_rss_kb, "rows": 1}}


def run(gate, tmp_path, fresh_speedup, baseline_speedup=10.0, **fresh_kwargs):
    baseline = tmp_path / "baseline"
    baseline.mkdir(exist_ok=True)
    (baseline / "BENCH_store.json").write_text(json.dumps(report(baseline_speedup)))
    (gate.OUT_DIR / "BENCH_store.json").write_text(
        json.dumps(report(fresh_speedup, **fresh_kwargs))
    )
    return gate.main(["--baseline-dir", str(baseline)])


class TestGateVerdicts:
    def test_ratio_30_percent_below_baseline_fails(self, gate, tmp_path, capsys):
        assert run(gate, tmp_path, fresh_speedup=7.0) == 1
        out = capsys.readouterr().out
        assert "BENCH_store.json" in out and "REGRESSED" in out and "FAIL" in out

    def test_ratio_10_percent_below_baseline_passes(self, gate, tmp_path, capsys):
        assert run(gate, tmp_path, fresh_speedup=9.0) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_memory_growth_only_warns(self, gate, tmp_path, capsys):
        assert run(gate, tmp_path, fresh_speedup=10.0, peak_rss_kb=400_000.0) == 0
        assert "WARN peak RSS" in capsys.readouterr().out

    def test_reports_missing_from_out_are_skipped(self, gate, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        assert gate.main(["--baseline-dir", str(baseline)]) == 0
        assert "no fresh file" in capsys.readouterr().out

    def test_small_hosts_skip_loudly(self, gate, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: gate.MIN_CPUS - 1)
        assert run(gate, tmp_path, fresh_speedup=1.0) == 0
        assert "SKIPPED" in capsys.readouterr().out
