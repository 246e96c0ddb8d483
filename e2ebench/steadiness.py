"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py --trace 0`` once per seed and workload, one process at a time,
and prints, per workload and metric, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, for the reported metrics and for the raw and
host-speed-scaled variants of the time-based ones.  ``--out`` keeps the
summary; ``--compare`` sets two kept summaries side by side, with each
end-to-end metric's change in its worse direction next to its bound::

    python3 e2ebench/steadiness.py --seeds 1-10 --seconds 20 [--workloads monitor] [--out a.json]
    python3 e2ebench/steadiness.py --compare a.json b.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    """``"1-10"`` or ``"3,3,3"``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return json.loads(lines[-1]), detail


def compare(first_path: str, second_path: str) -> int:
    """Medians of two sets per workload and end-to-end metric, and their change."""
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    worst = 0.0
    print(f"  {'workload':<9} {'metric':<14} {'median 1':>12} {'median 2':>12}"
          f" {'worse by':>9} {'bound':>6} {'spread 1':>9} {'spread 2':>9}")
    for workload in sorted(set(first) & set(second)):
        for entry in benchmark["end_to_end"]:
            a = first[workload]["metrics"][entry["name"]]
            b = second[workload]["metrics"][entry["name"]]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if entry["better"] == "lower" else -change
            if entry["name"] != "setup_s":
                # Either set may be the parent's: count a change either way.
                worst = max(worst, abs(change) / entry["bound"])
            print(f"  {workload:<9} {entry['name']:<14} {a['median']:>12.4f}"
                  f" {b['median']:>12.4f} {worse:>+9.2%} {entry['bound']:>6.2f}"
                  f" {a['spread']:>9.2%} {b['spread']:>9.2%}")
    print(f"  largest change, as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default="campaign,monitor,sweep")
    parser.add_argument("--out", help="also write the summary to this file")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY",
                        help="compare two summaries written with --out")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds_of(args.seeds):
            result, detail = run_once(workload, seed, args.seconds)
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            for name, entry in detail["metrics"].items():
                if name not in result["metrics"]:
                    values.setdefault(name, []).append(entry["value"])
            print(workload, seed, json.dumps({k: round(v[-1], 4) for k, v in values.items()
                                              if k in result["metrics"] or "calib" in k}),
                  flush=True)
        summary[workload] = {
            "failed": failed,
            "metrics": {
                name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for name, v in values.items()
            },
        }
        for name, entry in summary[workload]["metrics"].items():
            if name not in result["metrics"] and not name.endswith(".raw"):
                continue
            print(f"  {workload:<9} {name:<22} median {entry['median']:>12.4f}"
                  f"   spread {entry['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
