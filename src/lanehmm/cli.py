"""Command-line entry point.

Subcommands: simulate, run, tune, evaluate, map-lookup, presets, selfcheck.
Stdout carries only the machine-readable summary of each command;
diagnostics go to stderr.  Exit codes: 0 success, 2 configuration or
parameter errors, 3 input/parse/lookup errors, 4 internal errors (any
other exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import evaluation, model_core, pipeline, simulator, tuner
from .dataset_io import SequenceTable, read_results, read_table, write_results, write_sequence
from .errors import (
    ConfigError,
    EmptyObjectiveError,
    MapExtractError,
    ParameterError,
    SegmentNotFoundError,
    SequenceFormatError,
)
from .map_provider import load_extract
from .model_core import RuntimeConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

DEFAULT_MAP_RADIUS_M = 50.0

# Fixed scenario for the self-check golden run.
SELFCHECK_SIM = simulator.SimConfig(
    n_lanes=3,
    duration_frames=2000,
    lane_change_prob=0.005,
    fail_prob=0.05,
    recover_prob=0.2,
    detect_prob_ok=0.85,
    detect_prob_bad=0.1,
    offset_noise_sd_m=0.25,
    seed=42,
)
SELFCHECK_PRESET = "spain-run06"
GOLDEN_NAME = "selfcheck_summary.json"


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_cli_params(args) -> model_core.HmmParams:
    if args.preset and args.params:
        raise ConfigError("--preset and --params are mutually exclusive")
    if args.preset:
        return model_core.load_preset(args.preset)
    if args.params:
        return model_core.load_params(args.params)
    raise ConfigError("one of --preset or --params is required")


def _add_params_args(sub) -> None:
    sub.add_argument("--preset", help="named parameter preset")
    sub.add_argument("--params", help="parameter file (key=value)")


def _runtime_config(args, lane_width: float) -> RuntimeConfig:
    width = args.lane_width if args.lane_width is not None else lane_width
    return RuntimeConfig(lane_width=width)


# --- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    text = model_core.read_key_value_file(args.sim_config) if args.sim_config else ""
    config = simulator.parse_sim_config(
        text,
        source=args.sim_config or "<flags>",
        n_lanes=args.lanes,
        lane_width_m=args.lane_width,
        duration_frames=args.frames,
        seed=args.seed,
    )
    header, table, sensor_ok = simulator.simulate(config)
    write_sequence(args.out, header, table)
    _emit(
        {
            "command": "simulate",
            "out": str(args.out),
            "frames": len(table),
            "n_lanes": header.n_lanes,
            "seed": config.seed,
            "crossing_frames": int(table.crossing.sum()),
            "bad_sensor_frames": int((~sensor_ok).sum()),
        }
    )
    return EXIT_OK


def _resolve_lanes(args, header, table: SequenceTable) -> tuple[int, str]:
    if args.lanes is not None:
        return args.lanes, "flag"
    if args.map:
        extract = load_extract(args.map)
        fixes = np.flatnonzero(~np.isnan(table.gnss[:, 0]))
        if not len(fixes):
            _eprint("warning: --map given but the sequence has no GNSS fix")
        else:
            lat, lon = table.gnss[fixes[0]].tolist()
            try:
                hit = extract.nearest(lat, lon, args.map_radius)
                return hit.lane_count, f"map:{hit.segment_id}"
            except SegmentNotFoundError as exc:
                _eprint(f"warning: map lookup failed ({exc}); using header lane count")
    return header.n_lanes, "header"


def cmd_run(args) -> int:
    if bool(args.input) == bool(args.sim_config):
        raise ConfigError("exactly one of --input or --sim-config is required")
    if args.input:
        header, table = read_table(args.input)
        source = str(args.input)
    else:
        text = model_core.read_key_value_file(args.sim_config)
        config = simulator.parse_sim_config(text, source=args.sim_config, seed=args.seed)
        header, table, _ = simulator.simulate(config)
        source = f"sim:{args.sim_config}"

    params = _load_cli_params(args)
    n_lanes, lane_source = _resolve_lanes(args, header, table)
    if params.n != n_lanes:
        raise ConfigError(
            f"parameter lane count {params.n} conflicts with resolved lane count "
            f"{n_lanes} (from {lane_source})"
        )
    if n_lanes != header.n_lanes:
        raise ConfigError(
            f"resolved lane count {n_lanes} (from {lane_source}) conflicts with "
            f"sequence header {header.n_lanes}"
        )
    cfg = _runtime_config(args, header.lane_width_m)
    evidence = pipeline.build_evidence(header, table, cfg)
    results = pipeline.run_sequence(evidence, params)
    if args.out:
        write_results(args.out, header, results)

    summary = {
        "command": "run",
        "input": source,
        "n_lanes": n_lanes,
        "lane_source": lane_source,
        "frames": len(table),
        "out": str(args.out) if args.out else None,
    }
    annotated = bool((table.gt > 0).any())
    if annotated or args.trace:
        estimates = (results.frame_ids, results.map_lane)
        baseline = evaluation.detector_baseline(evidence, params.bv)
        if args.trace:
            _write_timeline(args.trace, evaluation.make_timeline(table, estimates, baseline))
    if annotated:
        report = evaluation.compare(
            evaluation.evaluate(estimates, table, n_lanes),
            evaluation.evaluate(baseline, table, n_lanes),
        )
        summary["metrics"] = report.to_dict()
        _eprint(report.render_text())
    _emit(summary)
    return EXIT_OK


def _write_timeline(path, timeline: dict) -> None:
    """One TSV row per frame; "-" marks lane 0, no annotation or no assignment."""
    columns = ("frame_id", "gt", "crossing", "baseline", "model")
    rows = zip(*(timeline[name].tolist() for name in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        fh.writelines(f"{frame_id}\t{gt or '-'}\t{int(crossing)}\t{baseline or '-'}\t"
                      f"{model or '-'}\n" for frame_id, gt, crossing, baseline, model in rows)


def cmd_tune(args) -> int:
    sequences = [read_table(path) for path in args.input]
    if args.holdout:
        train = sequences
        heldout = [read_table(args.holdout)]
    elif args.no_split:
        train, heldout = sequences, []
    else:
        # Default protocol: first half of each sequence trains, second half scores.
        train, heldout = [], []
        for header, table in sequences:
            first, second = tuner.split_half(header, table)
            train.append(first)
            heldout.append(second)
    result = tuner.random_search(args.seed, train, budget=args.budget)
    all_trials = result.trials
    if args.refine:
        result = tuner.coordinate_refine(result.best_params, train, iterations=args.refine)
        all_trials = all_trials + result.trials
    summary = {
        "command": "tune",
        "budget": args.budget,
        "seed": args.seed,
        "refine_cycles": args.refine,
        "train_accuracy": result.best_accuracy,
        "best_params": {k: getattr(result.best_params, k) for k in model_core.PARAM_FIELDS},
        "trials": len(all_trials),
    }
    if heldout:
        summary["holdout_accuracy"] = tuner.objective(result.best_params, heldout)
    if args.out:
        _write_text(args.out, "params", model_core.format_params(result.best_params))
        summary["out"] = str(args.out)
    if args.trials_log:
        _write_text(args.trials_log, "trials log", _trials_log(all_trials))
    _emit(summary)
    return EXIT_OK


def _trials_log(trials) -> str:
    lines = []
    for params, accuracy in trials:
        record = {k: getattr(params, k) for k in model_core.PARAM_FIELDS}
        record["accuracy"] = accuracy
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def _write_text(path, what: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SequenceFormatError(f"cannot write {what}: {exc}", path=path) from None


def cmd_evaluate(args) -> int:
    if (args.trace or args.lane_width is not None) and not (args.preset or args.params):
        raise ConfigError("--trace and --lane-width need --preset or --params")
    results_header, records = read_results(args.results)
    truth_header, truth = read_table(args.truth)
    if results_header.n_lanes != truth_header.n_lanes:
        raise ConfigError(
            f"results lane count {results_header.n_lanes} conflicts with truth "
            f"{truth_header.n_lanes}"
        )
    n = truth_header.n_lanes
    estimates = (np.array([r.frame_id for r in records], dtype=int),
                 np.array([r.map_lane for r in records], dtype=int))
    model_eval = evaluation.evaluate(estimates, truth, n)
    summary = {
        "command": "evaluate",
        "results": str(args.results),
        "truth": str(args.truth),
        "model": model_eval.to_dict(),
    }
    if args.preset or args.params:
        params = _load_cli_params(args)
        cfg = _runtime_config(args, truth_header.lane_width_m)
        evidence = pipeline.build_evidence(truth_header, truth, cfg)
        baseline = evaluation.detector_baseline(evidence, params.bv)
        baseline_eval = evaluation.evaluate(baseline, truth, n)
        report = evaluation.compare(model_eval, baseline_eval)
        summary["metrics"] = report.to_dict()
        if args.trace:
            _write_timeline(args.trace, evaluation.make_timeline(truth, estimates, baseline))
        _eprint(report.render_text())
    _emit(summary)
    return EXIT_OK


def cmd_map_lookup(args) -> int:
    extract = load_extract(args.map)
    hit = extract.nearest(args.lat, args.lon, args.map_radius)
    _emit(
        {
            "command": "map-lookup",
            "lane_count": hit.lane_count,
            "segment_id": hit.segment_id,
            "distance_m": hit.distance_m,
            "lane_width_m": hit.lane_width_m,
        }
    )
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.name:
        params = model_core.load_preset(args.name)
        _emit(
            {
                "command": "presets",
                "name": args.name,
                "params": {k: getattr(params, k) for k in model_core.PARAM_FIELDS},
            }
        )
    else:
        _emit({"command": "presets", "available": model_core.list_presets()})
    return EXIT_OK


# --- self-check ---------------------------------------------------------------

def selfcheck_summary() -> dict:
    """Deterministic end-to-end metrics for the committed golden scenario."""
    header, table, _ = simulator.simulate(SELFCHECK_SIM)
    params = model_core.load_preset(SELFCHECK_PRESET)
    evidence = pipeline.build_evidence(header, table)
    results = pipeline.run_sequence(evidence, params)
    baseline = evaluation.detector_baseline(evidence, params.bv)
    report = evaluation.compare(
        evaluation.evaluate((results.frame_ids, results.map_lane), table, header.n_lanes),
        evaluation.evaluate(baseline, table, header.n_lanes),
    )
    return {
        "sim_seed": SELFCHECK_SIM.seed,
        "preset": SELFCHECK_PRESET,
        "frames": len(table),
        "metrics": report.to_dict(),
        "first_marginal": results.lane_marginal[0].tolist(),
        "last_marginal": results.lane_marginal[-1].tolist(),
    }


def _golden_path() -> Path:
    return Path(str(resources.files("lanehmm").joinpath("data", "golden", GOLDEN_NAME)))


def _first_divergence(expected, actual, path="$") -> str | None:
    if type(expected) is not type(actual):
        return f"{path}: type {type(expected).__name__} != {type(actual).__name__}"
    if isinstance(expected, dict):
        for key in sorted(expected.keys() | actual.keys()):
            if key not in expected or key not in actual:
                return f"{path}.{key}: missing on one side"
            diff = _first_divergence(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = _first_divergence(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if expected != actual:
        return f"{path}: {expected!r} != {actual!r}"
    return None


def end_to_end_check(write_golden: bool = False) -> dict:
    """Re-run the golden scenario and compare bit-exactly against the record."""
    summary = selfcheck_summary()
    golden_path = _golden_path()
    if write_golden:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
        return {"command": "selfcheck", "ok": True, "wrote": str(golden_path)}
    if not golden_path.is_file():
        raise ConfigError(f"golden summary missing at {golden_path}")
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    divergence = _first_divergence(golden, summary)
    return {
        "command": "selfcheck",
        "ok": divergence is None,
        "divergence": divergence,
        "golden": str(golden_path),
    }


def cmd_selfcheck(args) -> int:
    outcome = end_to_end_check(write_golden=args.write_golden)
    _emit(outcome)
    return EXIT_OK if outcome["ok"] else EXIT_INTERNAL


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanehmm",
        description="Ego-lane estimation from noisy line-detector logs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sequence")
    p.add_argument("--sim-config", help="simulator config file (key=value)")
    p.add_argument("--lanes", type=int)
    p.add_argument("--lane-width", type=float)
    p.add_argument("--frames", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="filter a sequence and write per-frame results")
    p.add_argument("--input", help="sequence file")
    p.add_argument("--sim-config", help="simulate on the fly instead of reading a file")
    _add_params_args(p)
    p.add_argument("--map", help="map extract whose lane count is checked against the header")
    p.add_argument("--map-radius", type=float, default=DEFAULT_MAP_RADIUS_M)
    p.add_argument("--lanes", type=int, help="lane count to check against the header, not --map")
    p.add_argument("--lane-width", type=float)
    p.add_argument("--out", help="results file")
    p.add_argument("--trace", help="per-frame timeline table (TSV)")
    p.add_argument("--seed", type=int, help="seed override for --sim-config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("tune", help="search parameters against annotated sequences")
    p.add_argument("--input", action="append", required=True, help="repeatable")
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine", type=int, default=0, help="coordinate-descent cycles")
    heldout = p.add_mutually_exclusive_group()
    heldout.add_argument("--holdout",
                         help="score best params on this sequence instead of splitting")
    heldout.add_argument("--no-split", action="store_true", help="train on the full sequences")
    p.add_argument("--out", help="write best params here")
    p.add_argument("--trials-log", help="write all trials (JSON lines)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score a results file against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True)
    _add_params_args(p)
    p.add_argument("--lane-width", type=float)
    p.add_argument("--trace", help="per-frame timeline table (TSV)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("map-lookup", help="query the lane count at a position")
    p.add_argument("--map", required=True)
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)
    p.add_argument("--map-radius", type=float, default=DEFAULT_MAP_RADIUS_M)
    p.set_defaults(func=cmd_map_lookup)

    p = sub.add_parser("presets", help="list or show parameter presets")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("selfcheck", help="deterministic end-to-end golden check")
    p.add_argument("--write-golden", action="store_true", help="(maintainers) refresh the record")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_CONFIG
    except (SequenceFormatError, MapExtractError, SegmentNotFoundError,
            EmptyObjectiveError, FileNotFoundError, OSError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, never a traceback
        _eprint(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
