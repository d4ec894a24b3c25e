"""lanehmm benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload run-3lane --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Generates the workload's input
from the seed, runs `lanehmm selfcheck` once, then drives the real CLI
in-process through `lanehmm.cli.main(argv)`, checking every command's
outputs, and stops at the command boundary nearest to `--seconds` of
command time.  Times are reported at nominal host speed: every measured
operation is bracketed by a fixed reference kernel (see `_bracketed`).

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` untraced and traced commands alternate and it reports the
per-layer metrics.  The line before it is a record of the environment and
of every sample.  Metrics, workloads and checks are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SOURCE = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "_work"
SETUP_REPS = 3
REF_KERNEL_S = 0.1  # the reference kernel's wall time at nominal host speed


def _use_checkout_source() -> None:
    """Import lanehmm from this checkout's src/ and nowhere else."""
    if not (SOURCE / "lanehmm" / "__init__.py").is_file():
        raise SystemExit(f"error: no lanehmm source tree at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import lanehmm

    if not Path(lanehmm.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"error: lanehmm imported from {lanehmm.__file__}, not {SOURCE}")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def _run_cli(argv: list[str], main) -> tuple[object, str, float, float]:
    """One in-process CLI command: (exit code, stdout, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed command, not a benchmark crash
            rc = "traceback"
            traceback.print_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if rc != 0:
        sys.stderr.write(err.getvalue()[-2000:])
    return rc, out.getvalue(), wall, cpu


def _reference_kernel() -> float:
    """Fixed work that does not touch lanehmm, in the same mix as the CLI.

    Small numpy products (one belief and a batch of 64, as in the filter
    and the tuner), JSON round-trips and dict/list handling.
    """
    cpt = np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
    belief = np.full((3, 2), 1 / 6)
    batch = np.full((64, 3, 2), 1 / 6)
    total = 0.0
    for i in range(2500):
        belief = cpt.T @ belief
        belief /= belief.sum()
        batch = np.einsum("lm,kls->kms", cpt, batch)
        batch /= batch.sum(axis=(1, 2), keepdims=True)
        line = {"track": f"b{i % 5}", "offset": i * 1e-3, "cont": i % 2 == 0}
        record = json.loads(json.dumps({"id": i, "t": i / 10, "lines": [line, line]}))
        total += record["lines"][1]["offset"] + float(belief[0, 0]) + float(batch[0, 0, 0])
    return total


def _reference_wall() -> float:
    gc.collect()
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


def _bracketed(operation):
    """Run operation() between two reference-kernel timings.

    Returns (its result, host speed scale).  Multiplying a wall time by the
    scale gives the time at nominal host speed, where the reference kernel
    takes REF_KERNEL_S.  The shared host's speed drifts by up to 2x over
    minutes and the kernel's time drifts with it; the program's cost in
    reference units does not.
    """
    before = _reference_wall()
    result = operation()
    return result, 2 * REF_KERNEL_S / (before + _reference_wall())


def _setup(workload, seed: int, sequence: Path, tally) -> dict[str, list[float]]:
    """Generate the input SETUP_REPS times; returns raw seconds and scales."""
    import workloads

    def generate() -> float:
        t0 = time.perf_counter()
        workloads.generate(workload, seed, sequence)
        return time.perf_counter() - t0

    samples: dict[str, list[float]] = {"setup_raw_s": [], "setup_scale": []}
    digests = []
    for rep in range(SETUP_REPS):
        seconds, scale = _bracketed(generate)
        samples["setup_raw_s"].append(seconds)
        samples["setup_scale"].append(scale)
        digests.append(hashlib.sha256(sequence.read_bytes()).hexdigest())
        same = [] if digests[rep] == digests[0] else ["input differs from the first setup"]
        tally.add(f"setup {rep}", same)
    return samples


def _scaled(samples: dict, name: str) -> list[float]:
    return [raw * scale for raw, scale in zip(samples[f"{name}_raw_s"], samples[f"{name}_scale"])]


def _measure(args, workload, checker, argv, tally, units) -> tuple[dict, dict]:
    """The measured window; returns (metrics, samples)."""
    import spans
    from lanehmm import cli

    samples: dict[str, list[float]] = {
        key: [] for key in ("wall_raw_s", "wall_scale", "cpu_s", "traced_raw_s", "traced_scale")}
    walls, traced = samples["wall_raw_s"], samples["traced_raw_s"]
    layers, span_log, derived = [], [], []
    spent = 0.0
    # Stop at the command boundary nearest to --seconds of command time.
    while not walls or args.seconds - spent > spent / len(walls) / 2:
        (rc, out, wall, cpu), scale = _bracketed(lambda: _run_cli(argv, cli.main))
        walls.append(wall)
        samples["wall_scale"].append(scale)
        samples["cpu_s"].append(cpu)
        result, problems = checker.check(rc, out)
        if tally.add(f"command {len(walls)}", problems):
            derived.append(result)
        if args.trace:
            recorder = spans.Recorder()
            with spans.installed(recorder):
                (rc, out, wall, _), scale = _bracketed(
                    lambda: _run_cli(argv, recorder.wrap(spans.ROOT, cli.main)))
            traced.append(wall)
            samples["traced_scale"].append(scale)
            _, problems = checker.check(rc, out)
            tally.add(f"traced command {len(traced)}", problems)
            # Times and rates at nominal host speed, like the end-to-end metrics.
            layers.append({
                name: value * scale if units[name] == "s" else
                value / scale if units[name] == "1/s" else value
                for name, value in spans.layer_metrics(recorder).items()})
            span_log.append(recorder.spans())
        spent = sum(walls) + sum(traced)

    if args.trace:
        # Counts repeat exactly; median_low keeps them whole numbers.
        metrics = {name: (statistics.median_low if isinstance(value, int) else
                          statistics.median)([m[name] for m in layers])
                   for name, value in layers[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(_scaled(samples, "traced"))
                                       - statistics.median(_scaled(samples, "wall")))
        spans.write_spans(WORK_DIR / f"{workload.name}-seed{args.seed}.spans.tsv", span_log)
        return metrics, samples
    wall = statistics.median(_scaled(samples, "wall"))
    model, holdout, candidate_frames = (
        (statistics.median(d[key] for d in derived) if derived else 0.0)
        for key in ("model_accuracy", "holdout_accuracy", "candidate_frames"))
    metrics = {
        "wall_s": wall,
        "frames_per_s": len(checker.frames) / wall,
        "candidate_frames_per_s": candidate_frames / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model_accuracy": model,
        "holdout_accuracy": holdout,
    }
    return metrics, samples


def _units(trace: int) -> dict[str, str]:
    """Metric name -> unit for this mode, as declared in BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_before = os.getloadavg()

    _use_checkout_source()
    units = _units(args.trace)
    import checks
    import workloads
    from lanehmm import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    scratch = WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    sequence, results = scratch / "input.seq", scratch / "results.out"
    argv_cmd = workload.argv(sequence, results, scratch / "timeline.tsv")
    tally = checks.Tally()
    try:
        rc, out, _, _ = _run_cli(["selfcheck"], cli.main)
        tally.add("selfcheck", checks.check_selfcheck(rc, out))
        setup = _setup(workload, args.seed, sequence, tally)
        checker = checks.CommandChecker(workload, sequence, results)
        metrics, samples = _measure(args, workload, checker, argv_cmd, tally, units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(_scaled(setup, "setup"))
        metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted

    if metrics.keys() != units.keys():
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": ["lanehmm"] + argv_cmd,
        "environment": dict(_environment(), loadavg_before=load_before,
                            loadavg_after=os.getloadavg()),
        "ref_kernel_s": REF_KERNEL_S, "samples": dict(samples, **setup),
        "problems": tally.problems,
    }
    (WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name} seed {args.seed}: {len(samples['wall_raw_s'])} timed commands, "
          f"{tally.failed} of {tally.attempted} operations failed", file=sys.stderr)
    for problem in tally.problems:
        print(f"  {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
