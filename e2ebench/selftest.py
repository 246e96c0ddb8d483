"""Self-test of the benchmark at smoke size.

For every workload it checks that

* an untraced run emits every end-to-end metric of ``BENCHMARK.json`` with
  its unit, and a traced run every per-layer metric, with checked outputs;
* the traced run's layer self times, GC and ``untraced_s`` add up to its
  work time;
* two traced runs of one seed give identical counts (``collection.rows``,
  ``gc.gen2_count``, every ``_calls`` metric) and identical checked outputs,
  while another seed changes the outputs;

and that, next to only ``BENCHMARK.json`` and the benchmark's own files, the
runner exits non-zero without printing a result.  Run from the checkout root::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return json.loads(lines[-1]), detail


def check_metrics(result: dict, declared: list[dict], where: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: outputs failed their checks: {result}")
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        if got is None:
            errors.append(f"{where}: metric {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            errors.append(f"{where}: {entry['name']} unit {got['unit']} != {entry['unit']}")
    extra = set(result["metrics"]) - {entry["name"] for entry in declared}
    if extra:
        errors.append(f"{where}: undeclared metrics {sorted(extra)}")
    return errors


def counts(result: dict, detail: dict) -> dict:
    metrics = result["metrics"]
    pinned = {
        name: entry["value"]
        for name, entry in metrics.items()
        if name.endswith("_calls") or name in ("collection.rows", "gc.gen2_count")
    }
    pinned["digest"] = detail["digest"]
    return pinned


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        result, _ = parse(run(workload, 1, 0))
        errors += check_metrics(result, benchmark["end_to_end"], f"{workload} untraced")

        first = parse(run(workload, 1, 1))
        again = parse(run(workload, 1, 1))
        other = parse(run(workload, 2, 1))
        errors += check_metrics(first[0], benchmark["per_layer"], f"{workload} traced")
        metrics = first[0]["metrics"]
        shares = sum(v["value"] for k, v in metrics.items() if k.startswith("share."))
        if abs(shares - 100.0) > 1e-6:
            errors.append(f"{workload}: layer shares sum to {shares}%, not 100%")
        pinned, repeated = counts(*first), counts(*again)
        if pinned != repeated:
            diff = {k: (v, repeated.get(k)) for k, v in pinned.items() if repeated.get(k) != v}
            errors.append(f"{workload}: counts differ between runs of one seed: {diff}")
        if first[1]["digest"] == other[1]["digest"]:
            errors.append(f"{workload}: seeds 1 and 2 produced identical outputs")
        print(f"{workload}: checked", flush=True)

    # Without the program under test the runner must fail loudly.
    with tempfile.TemporaryDirectory(prefix=".e2ebench-selftest-", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in benchmark["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(benchmark["workloads"][0]["name"], 1, 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            errors.append(f"bare checkout: exit {proc.returncode}, last line {last!r}")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
