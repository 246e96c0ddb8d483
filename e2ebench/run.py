"""End-to-end benchmark: one named workload, one seed, one fresh process.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Every run sets up, then runs a fixed number of timed units of the workload
— ``--seconds`` over the unit's duration at reference host speed, so the
amount of work never depends on how fast the host is.  ``--trace 0`` sets
up ``SETUP_REPEATS`` times (``setup_s`` is the median) and reports the
end-to-end metrics.  ``--trace 1`` sets up once, traced, runs the same
untraced units, resets the workload to its post-set-up state, and runs them
again with every layer's public functions wrapped and a GC hook installed;
it reports the per-layer metrics.  Two host-speed probes, one
interpreter-bound and one memory-bound, run between units; their medians
are ``host.calib_ms`` and ``host.calib_np_ms``.

Every unit's output is checked.  The standard output is a sectioned human
report, one ``detail`` JSON line with every metric by name and unit, and —
last — the result line ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` shrinks every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for checkpoints and temporary spill roots, inside the checkout.
WORK_ROOT = ROOT / ".e2ebench-work"
SETUP_REPEATS = 3
PROBE_LOOPS = 200_000
PROBES_AT_START = 10
PROBES_PER_GAP = 3
#: Probe medians (``host.calib_ms``, ``host.calib_np_ms``) over 30 runs (10
#: seeds × 3 workloads) on the 2-CPU host the benchmark was defined on.
CALIB_REF_MS = 20.58
CALIB_REF_NP_MS = 13.22

#: The end-to-end metrics of an untraced run, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "work_per_s", "cycle_ms_p50", "peak_rss_mb")


class Probes:
    """Fixed loops timed between units of work; their medians track host speed.

    ``py`` is an interpreter-bound loop, ``np`` a memory-bound NumPy gather
    and bincount over a few MB — the two kinds of work the workloads mix.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(1 << 18)
        self._index = rng.integers(0, 1 << 18, 1 << 20)
        self.py: list[float] = []
        self.np: list[float] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc = (acc * 31 + i) & 0xFFFFF
            middle = time.perf_counter()
            np.bincount(self._index, weights=self._values[self._index])
            end = time.perf_counter()
            self.py.append((middle - start) * 1e3)
            self.np.append((end - middle) * 1e3)


def slowdown(py: list[float], np_: list[float]) -> float:
    """How much slower than the reference the host ran, from probe samples."""
    return math.sqrt(
        statistics.median(py) / CALIB_REF_MS * statistics.median(np_) / CALIB_REF_NP_MS
    )


def percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation, as ``statistics``)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """Units of one pass, their checks, and the probes taken between them."""

    def __init__(self, workload, probes: Probes) -> None:
        self.workload = workload
        self.probes = probes
        self.units = []
        self.problems: list[str] = []
        self._first_probe = len(probes.py)

    def one(self, region) -> None:
        from workloads import UnitResult

        workload = self.workload
        workload.prepare()
        # Probes inside a traced unit would count as untraced work time.
        probe = self.probe if isinstance(region, contextlib.nullcontext) else lambda: None
        start = time.perf_counter()
        try:
            result = workload.unit(region, probe)
        except Exception:  # a failing unit is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            attempted = workload.attempted
            result = UnitResult(
                items=0, elapsed_s=time.perf_counter() - start, samples_ms=[],
                rows=0, attempted=attempted, failed=attempted,
                problems=["raised"],
            )
        self.units.append(result)
        self.problems.extend(result.problems)
        self.probes.take(PROBES_PER_GAP)

    def probe(self) -> None:
        self.probes.take()

    def fixed(self, count: int, region) -> None:
        for _ in range(count):
            self.one(region)

    # -- reductions ------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        return sum(u.elapsed_s for u in self.units)

    @property
    def items(self) -> int:
        return sum(u.items for u in self.units)

    @property
    def samples_ms(self) -> list[float]:
        return [s for u in self.units for s in u.samples_ms]

    @property
    def attempted(self) -> int:
        return sum(u.attempted for u in self.units)

    @property
    def failed(self) -> int:
        return sum(u.failed for u in self.units)

    @property
    def rows(self) -> int:
        return sum(u.rows for u in self.units)

    def digest(self) -> str:
        payload = json.dumps([u.outputs for u in self.units], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def slowdown(self) -> float:
        """The host's slowdown over this pass, from the probes taken in it."""
        start = self._first_probe
        return slowdown(self.probes.py[start:], self.probes.np[start:])

    def fail_all(self, problem: str) -> None:
        self.problems.append(problem)
        for unit in self.units:
            unit.failed = unit.attempted


# ----------------------------------------------------------------------
def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, run: Run, setup_s: list[float], probes: Probes) -> dict:
    """Every untraced metric by name, with the raw values in the detail.

    Times are reported at reference host speed: corrected by the host's
    slowdown, the geometric mean of the two probes' medians against their
    reference values.  On the defining host, whose speed drifted by up to a
    quarter between runs, this narrowed the run-to-run spread of
    ``work_per_s`` and ``cycle_ms_p50`` on every workload.  Correcting each
    unit by only the probes next to it did no better overall.
    """
    calib_ms = statistics.median(probes.py)
    calib_np_ms = statistics.median(probes.np)
    host = slowdown(probes.py, probes.np)
    samples = run.samples_ms
    rate = run.items / run.elapsed_s
    cycle_ms = statistics.median(samples)
    setup_median = statistics.median(setup_s)
    metrics = {
        "setup_s": metric(setup_median / host, "s"),
        "work_per_s": metric(rate * host, "1/s"),
        "cycle_ms_p50": metric(cycle_ms / host, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    detail = dict(metrics)
    detail["setup_s.raw"] = metric(setup_median, "s")
    detail["work_per_s.raw"] = metric(rate, "1/s")
    detail["cycle_ms_p50.raw"] = metric(cycle_ms, "ms")
    # The workload's own names for its throughput and cycle time, raw.
    item = workload.item
    detail[f"{item}_per_s"] = metric(rate, f"{item}/s")
    detail["rows_per_s"] = metric(run.rows / run.elapsed_s, "rows/s")
    if workload.name == "monitor":
        detail["epoch_ms_p50"] = metric(cycle_ms, "ms")
        detail["epoch_ms_p90"] = metric(percentile(samples, 90), "ms")
    detail["cycle.samples"] = metric(len(samples), "count")
    detail["failed_frac"] = metric(run.failed / max(run.attempted, 1), "fraction")
    detail["host.calib_ms"] = metric(calib_ms, "ms")
    detail["host.calib_np_ms"] = metric(calib_np_ms, "ms")
    detail["host.slowdown"] = metric(host, "ratio")
    return detail


def per_layer(timer, setup_timer, untraced: Run, traced: Run, calib_ms: float) -> dict:
    """Every traced metric: self time and calls per wrapped name, GC, shares."""
    from layers import LAYERS, NAMES
    from repro.core.shard import available_cpu_count

    metrics = {}
    for name in NAMES:
        metrics[f"{name}_s"] = metric(timer.self_s.get(name, 0.0), "s")
        metrics[f"{name}_calls"] = metric(timer.calls.get(name, 0), "count")
    metrics["collection.rows"] = metric(timer.rows_ingested, "count")
    metrics["gc.gen2_count"] = metric(timer.gc_gen2_count, "count")
    metrics["gc.gen2_s"] = metric(timer.gc_gen2_s, "s")
    metrics["gc.s"] = metric(timer.gc_s, "s")
    metrics["untraced_s"] = metric(timer.untraced_s, "s")
    metrics["work_s"] = metric(timer.wall_s, "s")
    # Both passes ran the same units from the same post-set-up state; each
    # pass's time is taken at reference host speed, as the host drifts.
    traced_s = timer.wall_s / traced.slowdown()
    untraced_s = untraced.elapsed_s / untraced.slowdown()
    metrics["trace.overhead_pct"] = metric((traced_s / untraced_s - 1.0) * 100.0, "%")
    metrics["host.calib_ms"] = metric(calib_ms, "ms")
    metrics["host.cpu_count"] = metric(os.cpu_count() or 1, "count")
    metrics["host.cpus_available"] = metric(available_cpu_count(), "count")
    shares = timer.layer_seconds()
    for layer in LAYERS:
        metrics[f"share.{layer}"] = metric(100.0 * shares[layer] / timer.wall_s, "%")
    for layer, seconds in setup_timer.layer_seconds().items():
        metrics[f"setup.{layer}_s"] = metric(seconds, "s")
    return metrics


# ----------------------------------------------------------------------
def rule(char: str = "-") -> str:
    return char * 64


def print_report(args, run: Run, metrics: dict, timer=None, setup_timer=None) -> None:
    mode = "traced" if args.trace else "untraced"
    print(rule("="))
    print(f"  e2ebench · {args.workload} · seed {args.seed} · {mode}")
    print(rule("="))
    print(rule())
    print("  Outputs")
    print(rule())
    print(f"  units {len(run.units)}   checked {run.attempted}   failed {run.failed}"
          f"   digest {run.digest()}")
    for problem in run.problems[:10]:
        print(f"  ! {problem}")
    if timer is None:
        print(rule())
        print("  End-to-end (untraced)")
        print(rule())
        for name, entry in metrics.items():
            print(f"  {name:<24} {entry['value']:>14.4f} {entry['unit']}")
        return
    from layers import LAYERS, NAMES, layer_of

    for title, source in (
        ("Work, per layer (traced)", timer),
        ("Set-up, per layer (traced)", setup_timer),
    ):
        seconds, wall = source.layer_seconds(), source.wall_s
        print(rule())
        print(f"  {title}")
        print(rule())
        print(f"  {'layer':<16} {'self_s':>10} {'share':>8} {'gc_s':>9}")
        for layer in LAYERS:
            print(f"  {layer:<16} {seconds[layer]:>10.4f} "
                  f"{100.0 * seconds[layer] / wall:>7.1f}% "
                  f"{source.gc_s_by_layer.get(layer, 0.0):>9.4f}")
        print(f"  {'sum':<16} {sum(seconds.values()):>10.4f}   wall {wall:.4f} s")
    print(rule())
    print("  Work, per call site (traced)")
    print(rule())
    print(f"  {'name':<30} {'layer':<16} {'self_s':>9} {'calls':>7}")
    for name in NAMES:
        print(f"  {name:<30} {layer_of(name):<16} {timer.self_s.get(name, 0.0):>9.4f} "
              f"{timer.calls.get(name, 0):>7}")
    print(f"  gc: {timer.gc_gen2_count} gen-2 passes, {timer.gc_gen2_s:.4f} s of "
          f"{timer.gc_s:.4f} s total")


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for the self-test")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from layers import LayerTimer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"e2ebench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    # Library code that asks for a temporary directory gets one in the checkout.
    tempfile.tempdir = str(workdir)
    try:
        return measure(args, import_s, workdir, WORKLOADS[args.workload], LayerTimer)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def measure(args, import_s: float, workdir: Path, workload_class, LayerTimer) -> int:
    # A traced run sets up once, with the set-up traced.
    repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    setup_timer = LayerTimer()
    setup_s = []
    for _ in range(repeats):
        workload = None
        gc.collect()
        workload = workload_class(args.seed, args.smoke)
        start = time.perf_counter()
        with setup_timer if args.trace else contextlib.nullcontext():
            workload.setup(workdir)
        setup_s.append(import_s + time.perf_counter() - start)
    # Each run's timed units start from the same heap.
    gc.collect()
    probes = Probes()
    probes.take(PROBES_AT_START)

    count = 1 if args.smoke else max(1, round(args.seconds / workload.unit_s_nominal))
    untraced = Run(workload, probes)
    untraced.fixed(count, contextlib.nullcontext())
    runs = [untraced]
    timer = None
    if args.trace:
        # The traced pass repeats the untraced one from the same state, so
        # its outputs must match and its time compares like for like.
        workload.reset()
        gc.collect()
        timer = LayerTimer()
        traced = Run(workload, probes)
        traced.fixed(count, timer)
        if traced.digest() != untraced.digest():
            traced.fail_all("traced outputs differ from the untraced pass")
        runs.append(traced)
        detail = per_layer(timer, setup_timer, untraced, traced, statistics.median(probes.py))
        result_metrics = detail
    else:
        detail = end_to_end(workload, untraced, setup_s, probes)
        result_metrics = {name: detail[name] for name in END_TO_END}
    print_report(args, runs[-1], result_metrics, timer, setup_timer)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print("detail " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": [len(r.units) for r in runs],
        "digest": [r.digest() for r in runs],
        "setup_s": setup_s,
        "metrics": detail,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
