"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads run-3lane,tune-3lane]
                            [--seconds N] [--trace 0] [--out spread.json]

Runs `bench/run.py` once per (seed, workload), one process at a time.  The
workloads are interleaved and their order rotates with the seed, so a slow
phase of a shared host does not land on one workload only.  For every
workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(seeds):
        for name in names[i % len(names):] + names[:i % len(names)]:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result.update(seed=seed, elapsed_s=elapsed)
            runs[name].append(result)
            print(f"{name} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<18} {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median, q1, q3, share = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            bound = bounds.get(metric)
            flag = "" if bound is None or share <= bound / 3 else "  > bound/3"
            print(f"{name:<18} {metric + ' [' + unit + ']':<40} {median:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {share:>8.4f} {bound if bound is not None else '':>6}{flag}")
        print(f"{name:<18} all correct: {all(r['correct'] for r in results)}, "
              f"run time {min(r['elapsed_s'] for r in results):.1f}"
              f"-{max(r['elapsed_s'] for r in results):.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
