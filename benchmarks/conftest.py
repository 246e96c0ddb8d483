"""Shared session fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The
expensive inputs — a fully populated world, the §6.1 feasibility crawl, and
the §7 measurement campaigns — are built once per session here and shared;
the ``benchmark`` fixture then times the analysis stage that actually
produces each table or figure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from baselines import OUT_DIR
from repro.obs.metrics import get_registry
from repro.core.pipeline import CampaignConfig, EncoreDeployment
from repro.core.targets import TargetList
from repro.core.task_generation import TaskGenerationLimits, TaskGenerationPipeline
from repro.population.world import World, WorldConfig

#: Scale factor relative to the paper's seven-month campaign (141,626
#: measurements).  The benchmarks run roughly a fifth of that volume so the
#: whole harness finishes in a few minutes; all reported comparisons are
#: shape- and threshold-based, not absolute counts.
CAMPAIGN_VISITS = 25_000
DETECTION_VISITS = 15_000
SOUNDNESS_VISITS = 10_000

#: Benchmark modules light enough to serve as smoke checks; every other
#: benchmark builds full worlds / campaigns and is marked ``slow`` so
#: ``pytest -m "not slow"`` stays fast.  (``test_bench_store.py`` marks its
#: own 100k case ``slow`` explicitly and keeps a small smoke case unmarked.)
SMOKE_MODULES = ("test_bench_runner_throughput.py", "test_bench_store.py")

_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        path = Path(str(getattr(item, "fspath", "")))
        if path.parent == _BENCH_DIR and path.name not in SMOKE_MODULES:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def full_world() -> World:
    """A world containing all 178 online high-value domains."""
    return World(WorldConfig(seed=2015))


@pytest.fixture(scope="session")
def feasibility(full_world: World):
    """The §6.1 crawl: expand, fetch, and analyse the full target list."""
    pipeline = TaskGenerationPipeline(
        full_world.search, full_world.headless, TaskGenerationLimits()
    )
    return pipeline.run(TargetList.high_value().entries)


@pytest.fixture(scope="session")
def detection_deployment() -> EncoreDeployment:
    return EncoreDeployment.detection_experiment(seed=2015, visits=DETECTION_VISITS)


@pytest.fixture(scope="session")
def detection_result(detection_deployment: EncoreDeployment):
    return detection_deployment.run_campaign()


@pytest.fixture(scope="session")
def soundness_deployment() -> EncoreDeployment:
    return EncoreDeployment.soundness_experiment(seed=2016, visits=SOUNDNESS_VISITS)


@pytest.fixture(scope="session")
def soundness_result(soundness_deployment: EncoreDeployment):
    return soundness_deployment.run_campaign()


@pytest.fixture(scope="session")
def scale_deployment() -> EncoreDeployment:
    """The full §7 campaign configuration (targets + testbed split)."""
    world = World(WorldConfig(seed=2017))
    config = CampaignConfig(
        visits=CAMPAIGN_VISITS,
        include_testbed=True,
        testbed_fraction=0.3,
        favicons_only=True,
        seed=2017,
    )
    return EncoreDeployment(world, config)


@pytest.fixture(scope="session")
def scale_result(scale_deployment: EncoreDeployment):
    return scale_deployment.run_campaign()


@pytest.fixture(scope="session")
def bench_rng() -> np.random.Generator:
    return np.random.default_rng(777)


@pytest.fixture()
def bench_report_writer():
    """Write a fresh ``BENCH_*.json``, folding in MetricsRegistry telemetry.

    The report lands in ``benchmarks/out/`` under the file name of the
    ``path`` given, never over the committed baseline of that name, so a
    test run leaves the tracked files untouched; ``check_regression.py``
    compares ``out/`` against the committed copies.

    Every benchmark report gains a ``telemetry`` section recording the
    process's peak RSS and the rows-per-second achieved by the timed run,
    so the scheduled regression lane can trend memory alongside the
    speedup ratios (``check_regression.py`` warns — never fails — on
    memory growth).  Reading the registry here is sanctioned: benchmarks
    sit outside ``src/repro/``, where the telemetry-hygiene rule bans
    read-backs.
    """
    registry = get_registry()
    rows_before = registry.counter("store.rows_ingested").value

    def write(path: Path, report: dict, *, rows: int | None = None,
              seconds: float | None = None) -> dict:
        registry.update_peak_rss()
        snapshot = registry.snapshot()
        if rows is None:
            rows = snapshot["counters"].get("store.rows_ingested", 0) - rows_before
        telemetry = {
            "peak_rss_kb": snapshot["gauges"].get("process.peak_rss_kb", 0.0),
            "rows": int(rows),
        }
        if seconds and seconds > 0:
            telemetry["rows_per_sec"] = round(rows / seconds, 1)
        report["telemetry"] = telemetry
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / Path(path).name).write_text(json.dumps(report, indent=2) + "\n")
        return report

    return write
