"""Tests of the benchmark itself: generator, span arithmetic, checks, exit paths."""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import checks
import spans
import workloads
from lanehmm import cli, model_core, pipeline, tuner

BENCH_DIR = Path(__file__).resolve().parents[1]


def _small(name: str, frames: int = 1000) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, sim=workload.sim.replace(duration_frames=frames))


def _run_cli(argv, main=cli.main):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(tmp_path, name):
    workload = _small(name, frames=300)
    a, b, c = tmp_path / "a.seq", tmp_path / "b.seq", tmp_path / "c.seq"
    assert workloads.generate(workload, 3, a) == 300
    workloads.generate(workload, 3, b)
    workloads.generate(workload, 4, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_logged_workload_carries_lri_from_the_tracker(tmp_path):
    path = tmp_path / "logged.seq"
    workloads.generate(_small("run-4lane-logged", frames=300), 1, path)
    header, *frames = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["lri_source"] == "log" and header["n_lanes"] == 4
    lines = [line for frame in frames for line in frame["lines"]]
    assert lines and all({"lri", "valid"} <= line.keys() for line in lines)
    assert any(line["valid"] for line in lines) and not all(line["valid"] for line in lines)


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        spans.Span(0, -1, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 1, "a.child", 2.0, 3.0),
        spans.Span(3, 0, "b", 5.0, 6.0),
        spans.Span(4, 0, "c", 5.5, 7.0),   # overlaps b: the union counts once
        spans.Span(5, 0, "d", 9.5, 11.0),  # runs past its parent: clipped
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10.0 - 3.0 - 2.0 - 0.5, 1: 2.0, 2: 1.0,
                                 3: 1.0, 4: 1.5, 5: 1.5})


def test_recorder_spans_and_lazy_iterator():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    outer = recorder.wrap("outer", lambda items: list(items))
    assert outer(recorder.wrap_iter("item", iter("xy"), "items")) == ["x", "y"]
    tree = recorder.spans()
    assert [s.name for s in tree] == ["outer", "item", "item", "item"]
    assert all(s.parent == 0 for s in tree[1:])
    assert recorder.counts["items"] == 2
    assert spans.self_times(tree)[0] == (tree[0].end - tree[0].start) - 3.0


def test_traced_run_shows_the_known_structure(tmp_path):
    sequence = tmp_path / "in.seq"
    frames = workloads.generate(_small("run-3lane", frames=400), 1, sequence)
    argv = ["run", "--input", str(sequence), "--preset", "spain-run06",
            "--out", str(tmp_path / "r.out")]
    original = pipeline.run_sequence
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert pipeline.run_sequence is not original
        rc, traced_out = _run_cli(argv, recorder.wrap(spans.ROOT, cli.main))
    assert pipeline.run_sequence is original
    assert rc == 0 and traced_out == _run_cli(argv)[1]
    metrics = spans.layer_metrics(recorder)
    assert metrics["inverse_sensor.lri_update_calls"] == 2 * frames
    assert metrics["inverse_sensor.passes_per_frame"] == 2.0
    assert metrics["filtering.step_calls"] == frames
    assert metrics["tuner.candidates"] == 0
    assert metrics["dataset_io.bytes_in"] == sequence.stat().st_size
    assert metrics["cli.self_s"] > 0


def test_corrupted_results_file_counts_as_failure(tmp_path):
    workload = _small("run-3lane")
    sequence, results = tmp_path / "in.seq", tmp_path / "r.out"
    workloads.generate(workload, 1, sequence)
    argv = workload.argv(sequence, results, tmp_path / "t.tsv")
    checker = checks.CommandChecker(workload, sequence, results)
    tally = checks.Tally()

    rc, out = _run_cli(argv)
    derived, problems = checker.check(rc, out)
    assert tally.add("intact", problems), problems
    assert derived["model_accuracy"] == json.loads(out)["metrics"]["model"]["accuracy"]

    lines = results.read_text().splitlines()
    results.write_text("\n".join(lines[:5] + lines[6:]) + "\n")  # drop one frame
    derived, problems = checker.check(rc, out)
    assert not tally.add("corrupted", problems)
    assert derived is None and "records" in problems[0]
    assert tally.failed / tally.attempted == 0.5


def test_tune_train_accuracy_must_match_the_reference_route(tmp_path):
    workload = _small("tune-3lane", frames=400)
    sequence = tmp_path / "in.seq"
    workloads.generate(workload, 1, sequence)
    checker = checks.CommandChecker(workload, sequence, tmp_path / "unused")
    params = model_core.load_preset("spain-run06")
    best = {k: getattr(params, k) for k in model_core.PARAM_FIELDS}
    reference = tuner.objective(params, [checker.train_half])
    summary = {"best_params": best, "train_accuracy": reference,
               "holdout_accuracy": 0.5, "trials": 607}
    derived, problems = checker.check(0, json.dumps(summary))
    assert problems == [] and derived["candidate_frames"] == 607 * 200

    summary["train_accuracy"] = reference - 1e-12
    derived, problems = checker.check(0, json.dumps(summary))
    assert derived is None and any("unbatched" in p for p in problems)


def test_wrong_stdout_and_exit_code_fail():
    assert checks.parse_stdout(0, '{"a": 1}\n') == ({"a": 1}, [])
    assert checks.parse_stdout(3, '{"a": 1}\n')[1] == ["exit code 3"]
    assert checks.parse_stdout(0, '{"a": 1}\n{"b": 2}\n')[0] is None
    assert checks.parse_stdout(0, "[1]")[1] == ["stdout JSON is not an object"]


def test_exits_without_a_result_where_there_is_no_source(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run-3lane", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
