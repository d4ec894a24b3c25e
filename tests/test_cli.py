import json
import shutil

import pytest

from lanehmm import cli

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def sim3(tmp_path_factory):
    path = tmp_path_factory.mktemp("seqs") / "sim3.seq"
    code = cli.main(
        ["simulate", "--lanes", "3", "--frames", "400", "--seed", "5",
         "--out", str(path)]
    )
    assert code == 0
    return path


def test_simulate_emits_summary_and_file(capsys, tmp_path):
    out = tmp_path / "s.seq"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--lanes", "2", "--frames", "50", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["frames"] == 50 and summary["n_lanes"] == 2
    assert out.exists()


def test_simulate_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.seq", tmp_path / "b.seq"
    run_cli(capsys, "simulate", "--lanes", "3", "--frames", "200", "--seed", "9",
            "--out", str(a))
    run_cli(capsys, "simulate", "--lanes", "3", "--frames", "200", "--seed", "9",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_preset_conflict_exits_config(capsys, sim3):
    code, _, stderr = run_cli(
        capsys, "run", "--input", str(sim3), "--preset", "italy-run01"
    )
    assert code == cli.EXIT_CONFIG
    assert "conflicts" in stderr


def test_run_produces_metrics_summary(capsys, sim3, tmp_path):
    out = tmp_path / "res.out"
    trace = tmp_path / "tl.tsv"
    code, stdout, stderr = run_cli(
        capsys, "run", "--input", str(sim3), "--preset", "spain-run06",
        "--out", str(out), "--trace", str(trace),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["metrics"]["model"]["accuracy"] >= summary["metrics"]["baseline"]["accuracy"]
    assert "accuracy" in stderr  # human-readable table goes to stderr
    assert out.exists()
    header = trace.read_text().splitlines()[0]
    assert header.split("\t") == ["frame_id", "gt", "crossing", "baseline", "model"]


def test_run_timeline_marks_missing_lanes(capsys, tmp_path):
    path = tmp_path / "partly_annotated.seq"
    path.write_text('{"format": 1, "n_lanes": 3}\n'
                    '{"id": 4, "t": 0.0, "lines": [], "gt": 2}\n'
                    '{"id": 7, "t": 0.1, "lines": [], "crossing": true}\n')
    trace = tmp_path / "tl.tsv"
    code, _, _ = run_cli(capsys, "run", "--input", str(path), "--preset", "spain-run06",
                         "--trace", str(trace))
    assert code == 0
    # No lines: the baseline cannot decide, the filter follows its lane prior.
    assert trace.read_text().splitlines() == [
        "frame_id\tgt\tcrossing\tbaseline\tmodel", "4\t2\t0\t-\t2", "7\t-\t1\t-\t2"]


def test_run_twice_byte_identical(capsys, sim3, tmp_path):
    outs = []
    for name in ("r1.out", "r2.out"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "run", "--input", str(sim3), "--preset", "spain-run06",
            "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_missing_file_is_input_error(capsys):
    code, _, stderr = run_cli(
        capsys, "run", "--input", "/no/such/file.seq", "--preset", "spain-run06"
    )
    assert code == cli.EXIT_INPUT
    assert "error" in stderr


def test_run_duplicate_track_id_is_input_error(capsys, tmp_path):
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True}
    path = tmp_path / "dup_track.seq"
    path.write_text('{"format": 1, "n_lanes": 3}\n'
                    + json.dumps({"id": 0, "t": 0.0, "lines": [line, line]}) + "\n")
    code, stdout, stderr = run_cli(
        capsys, "run", "--input", str(path), "--preset", "spain-run06"
    )
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert f"{path}:2: track id 'b0' reported twice" in stderr
    assert "Traceback" not in stderr


def test_run_negative_logged_lri_is_input_error(capsys, tmp_path):
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True,
            "lri": 10, "valid": True}
    path = tmp_path / "negative_lri.seq"
    path.write_text('{"format": 1, "n_lanes": 3, "lri_source": "log"}\n'
                    + json.dumps({"id": 0, "t": 0.0, "lines": [line]}) + "\n"
                    + json.dumps({"id": 1, "t": 0.1, "lines": [dict(line, lri=-500)]}) + "\n")
    code, stdout, stderr = run_cli(
        capsys, "run", "--input", str(path), "--preset", "spain-run06"
    )
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert f"{path}:3: lri must be a JSON integer >= 0, got -500" in stderr
    assert "Traceback" not in stderr


def test_run_logged_lri_above_window_is_input_error(capsys, tmp_path):
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True,
            "lri": 10, "valid": True}
    path = tmp_path / "lri_above.seq"
    path.write_text('{"format": 1, "n_lanes": 3, "lri_source": "log"}\n'
                    + json.dumps({"id": 0, "t": 0.0, "lines": [line]}) + "\n"
                    + json.dumps({"id": 1, "t": 0.1, "lines": [dict(line, lri=500)]}) + "\n")
    code, stdout, stderr = run_cli(
        capsys, "run", "--input", str(path), "--preset", "spain-run06"
    )
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert f"{path}:3: line 'b0' has lri 500 above the LRI window 10" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "where, field, value, message",
    [
        ("frame", "lines", 5, "lines must be a JSON array of objects"),
        ("line", "track", None, "track must be a JSON string"),
        ("line", "track", 5, "track must be a JSON string"),
        ("header", "n_lanes", 2.9, "n_lanes must be a JSON integer"),
        ("header", "lane_width_m", "3.5", "lane_width_m must be a JSON finite number"),
        ("header", "lane_width_m", float("nan"), "lane_width_m must be a JSON finite number"),
        ("header", "fps", "Infinity", "fps must be a JSON finite number"),
    ],
)
def test_run_malformed_sequence_is_input_error(capsys, tmp_path, where, field, value, message):
    header = {"format": 1, "n_lanes": 3}
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True}
    frame = {"id": 0, "t": 0.0, "lines": [line], "gt": 2}
    {"header": header, "frame": frame, "line": line}[where][field] = value
    path = tmp_path / "malformed.seq"
    path.write_text(json.dumps(header) + "\n" + json.dumps(frame) + "\n")
    code, stdout, stderr = run_cli(
        capsys, "run", "--input", str(path), "--preset", "spain-run06"
    )
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert f"{path}:{1 if where == 'header' else 2}: {message}" in stderr
    assert "Traceback" not in stderr


def test_run_requires_exactly_one_source(capsys, sim3):
    code, _, _ = run_cli(capsys, "run", "--preset", "spain-run06")
    assert code == cli.EXIT_CONFIG
    code, _, _ = run_cli(
        capsys, "run", "--preset", "spain-run06", "--input", str(sim3),
        "--sim-config", "x.cfg",
    )
    assert code == cli.EXIT_CONFIG


def test_run_lanes_flag_overrides(capsys, sim3):
    code, _, stderr = run_cli(
        capsys, "run", "--input", str(sim3), "--preset", "italy-run01",
        "--lanes", "4",
    )
    # Explicit flag wins the resolution, then conflicts with the header.
    assert code == cli.EXIT_CONFIG
    assert "header" in stderr


def test_run_with_map_prior(capsys, tmp_path):
    seq = tmp_path / "gnss.seq"
    run_cli(capsys, "simulate", "--lanes", "4", "--frames", "60", "--seed", "2",
            "--out", str(seq))
    # Rewrite with a GNSS origin via sim config to exercise the map path.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_lanes=4\nduration_frames=60\ngnss_origin=45.5001,9.15\n")
    extract = FIXTURES / "extract3.map"
    code, stdout, _ = run_cli(
        capsys, "run", "--sim-config", str(cfg), "--seed", "2",
        "--preset", "italy-run01", "--map", str(extract),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["lane_source"].startswith("map:")
    assert summary["n_lanes"] == 4


def test_evaluate_round_trip_consistency(capsys, sim3, tmp_path):
    out = tmp_path / "res.out"
    code, stdout, _ = run_cli(
        capsys, "run", "--input", str(sim3), "--preset", "spain-run06",
        "--out", str(out),
    )
    run_metrics = last_json(stdout)["metrics"]["model"]
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--results", str(out), "--truth", str(sim3),
        "--preset", "spain-run06",
    )
    assert code == 0
    eval_metrics = last_json(stdout)
    assert eval_metrics["model"]["accuracy"] == run_metrics["accuracy"]
    assert eval_metrics["metrics"]["model"] == run_metrics


def _truncated_results(capsys, sim3, tmp_path, keep, edit=None):
    """A results file for sim3 with only its first `keep` records, the last edited."""
    out = tmp_path / "res.out"
    code, _, _ = run_cli(
        capsys, "run", "--input", str(sim3), "--preset", "spain-run06", "--out", str(out),
    )
    assert code == 0
    header, *records = out.read_text().splitlines()[: keep + 1]
    if edit:
        records[-1] = json.dumps({**json.loads(records[-1]), **edit})
    out.write_text("\n".join([header, *records]) + "\n")
    return out


def test_evaluate_missing_estimate_is_config_error(capsys, sim3, tmp_path):
    results = _truncated_results(capsys, sim3, tmp_path, keep=10)
    code, stdout, stderr = run_cli(
        capsys, "evaluate", "--results", str(results), "--truth", str(sim3)
    )
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert stderr.startswith("error: no estimate for annotated frame")
    assert len(stderr.splitlines()) == 1


def test_evaluate_out_of_range_map_lane_is_input_error(capsys, sim3, tmp_path):
    results = _truncated_results(capsys, sim3, tmp_path, keep=3, edit={"map_lane": 7})
    code, stdout, stderr = run_cli(
        capsys, "evaluate", "--results", str(results), "--truth", str(sim3)
    )
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert f"{results}:4: map_lane 7 outside [1, 3]" in stderr
    assert "Traceback" not in stderr


def test_tune_small_budget(capsys, sim3, tmp_path):
    params_out = tmp_path / "best.params"
    log = tmp_path / "trials.jsonl"
    code, stdout, _ = run_cli(
        capsys, "tune", "--input", str(sim3), "--budget", "8", "--seed", "3",
        "--out", str(params_out), "--trials-log", str(log),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["trials"] == 8
    assert 0.0 <= summary["train_accuracy"] <= 1.0
    assert "holdout_accuracy" in summary  # default split protocol
    assert params_out.exists()
    assert len(log.read_text().splitlines()) == 8


@pytest.mark.parametrize("flag, what", [("--out", "params"), ("--trials-log", "trials log")])
def test_tune_unwritable_output_names_path(capsys, sim3, tmp_path, flag, what):
    target = tmp_path / "no" / "such" / "dir.out"
    code, stdout, stderr = run_cli(
        capsys, "tune", "--input", str(sim3), "--budget", "2", "--seed", "3", flag, str(target),
    )
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert stderr.startswith(f"error: {target}: cannot write {what}: ")
    assert stderr.count("\n") == 1


def test_map_lookup(capsys):
    code, stdout, _ = run_cli(
        capsys, "map-lookup", "--map", str(FIXTURES / "extract3.map"),
        "--lat", "45.5001", "--lon", "9.15",
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["lane_count"] == 4 and summary["segment_id"] == "a4-west"
    code, _, _ = run_cli(
        capsys, "map-lookup", "--map", str(FIXTURES / "extract3.map"),
        "--lat", "10", "--lon", "10",
    )
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "lat, lon, radius, message",
    [
        pytest.param("45.5001", "9.15", "0", "map radius must be > 0, got 0.0", id="0"),
        pytest.param("45.5001", "9.15", "-5", "map radius must be > 0, got -5.0", id="-5"),
        pytest.param("inf", "9.15", "50", "lat must be finite and in [-90, 90], got inf",
                     id="lat-inf"),
        pytest.param("nan", "9.15", "50", "lat must be finite and in [-90, 90], got nan",
                     id="lat-nan"),
        pytest.param("91", "9.15", "50", "lat must be finite and in [-90, 90], got 91.0",
                     id="lat-91"),
        pytest.param("-90.5", "9.15", "50", "lat must be finite and in [-90, 90], got -90.5",
                     id="lat-below"),
        pytest.param("45.5001", "nan", "50", "lon must be finite, got nan", id="lon-nan"),
        pytest.param("45.5001", "inf", "50", "lon must be finite, got inf", id="lon-inf"),
    ],
)
def test_map_lookup_nonpositive_radius_is_config_error(capsys, lat, lon, radius, message):
    code, stdout, stderr = run_cli(
        capsys, "map-lookup", "--map", str(FIXTURES / "extract3.map"),
        "--lat", lat, "--lon", lon, "--map-radius", radius,
    )
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert stderr == f"error: {message}\n"


def test_presets_list_and_show(capsys):
    code, stdout, _ = run_cli(capsys, "presets")
    assert code == 0
    assert len(last_json(stdout)["available"]) == 10
    code, stdout, _ = run_cli(capsys, "presets", "italy-run01")
    params = last_json(stdout)["params"]
    assert params["n"] == 4 and params["bv"] == 7.0


def test_stdout_carries_only_json(capsys, sim3):
    code, stdout, _ = run_cli(
        capsys, "run", "--input", str(sim3), "--preset", "spain-run06"
    )
    assert code == 0
    (line,) = stdout.strip().splitlines()
    json.loads(line)


def test_selfcheck_passes_on_clean_checkout(capsys):
    code, stdout, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    assert last_json(stdout)["ok"] is True


def test_selfcheck_detects_perturbed_golden(capsys, tmp_path, monkeypatch):
    original = cli._golden_path()
    tampered_dir = tmp_path / "golden"
    tampered_dir.mkdir()
    tampered = tampered_dir / cli.GOLDEN_NAME
    shutil.copy(original, tampered)
    content = json.loads(tampered.read_text())
    content["metrics"]["accuracy_delta"] += 0.001
    tampered.write_text(json.dumps(content, sort_keys=True, indent=1))
    monkeypatch.setattr(cli, "_golden_path", lambda: tampered)
    code, stdout, _ = run_cli(capsys, "selfcheck")
    assert code == cli.EXIT_INTERNAL
    outcome = last_json(stdout)
    assert outcome["ok"] is False
    assert "accuracy_delta" in outcome["divergence"]


SPAIN06 = "n={n}\nsigma1=0.5\nsigma2=0.5\np1=0.9\np2=0.9\np3=0.9\np4=0.9\nbv={bv}\n"


@pytest.mark.parametrize("n, bv", [("3.7", "5"), ("3", "inf"), ("3", "nan")])
def test_run_rejects_non_integral_or_non_finite_params(capsys, sim3, tmp_path, n, bv):
    params = tmp_path / "bad.params"
    params.write_text(SPAIN06.format(n=n, bv=bv))
    code, stdout, stderr = run_cli(capsys, "run", "--input", str(sim3), "--params", str(params))
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert "Traceback" not in stderr


def test_simulate_rejects_infinite_fps(capsys, tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("fps=inf\n")
    out = tmp_path / "s.seq"
    code, _, stderr = run_cli(capsys, "simulate", "--sim-config", str(config), "--out", str(out))
    assert code == cli.EXIT_CONFIG
    assert "fps must be finite" in stderr
    assert not out.exists()


@pytest.mark.parametrize("entry", ["simulate", "run-sim-config", "tune", "sim-config-file"])
def test_negative_seed_is_config_error(capsys, sim3, tmp_path, entry):
    config = tmp_path / "sim.cfg"
    config.write_text("seed=-4\n" if entry == "sim-config-file" else "n_lanes=3\n")
    out = tmp_path / "s.seq"
    argv = {
        "simulate": ["simulate", "--seed", "-1", "--out", str(out)],
        "run-sim-config": ["run", "--sim-config", str(config), "--seed", "-2"],
        "tune": ["tune", "--input", str(sim3), "--budget", "2", "--seed", "-1"],
        "sim-config-file": ["simulate", "--sim-config", str(config), "--out", str(out)],
    }[entry]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert "seed must be >= 0" in stderr
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "inf"])
def test_run_rejects_zero_lane_width(capsys, sim3, width):
    code, _, stderr = run_cli(capsys, "run", "--input", str(sim3), "--preset", "spain-run06",
                              "--lane-width", width)
    assert code == cli.EXIT_CONFIG
    assert "lane_width must be > 0" in stderr


@pytest.mark.parametrize("width", ["0", "inf"])
def test_evaluate_rejects_zero_lane_width(capsys, sim3, tmp_path, width):
    results = _truncated_results(capsys, sim3, tmp_path, keep=400)
    code, _, stderr = run_cli(capsys, "evaluate", "--results", str(results),
                              "--truth", str(sim3), "--preset", "spain-run06",
                              "--lane-width", width)
    assert code == cli.EXIT_CONFIG
    assert "lane_width must be > 0" in stderr


def test_run_rejects_zero_lanes(capsys, sim3):
    code, stdout, stderr = run_cli(capsys, "run", "--input", str(sim3),
                                   "--preset", "spain-run06", "--lanes", "0")
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert "resolved lane count 0 (from flag)" in stderr


def test_evaluate_trace_needs_params(capsys, sim3, tmp_path):
    results = _truncated_results(capsys, sim3, tmp_path, keep=400)
    timeline = tmp_path / "t.tsv"
    code, stdout, stderr = run_cli(capsys, "evaluate", "--results", str(results),
                                   "--truth", str(sim3), "--trace", str(timeline))
    assert code == cli.EXIT_CONFIG
    assert stdout == "" and "--preset or --params" in stderr
    assert not timeline.exists()


def test_tune_holdout_excludes_no_split(capsys, sim3):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["tune", "--input", str(sim3), "--holdout", str(sim3), "--no-split"])
    assert exit_.value.code == cli.EXIT_CONFIG
    assert "not allowed with argument" in capsys.readouterr().err


def _with_bad_byte(path, line):
    """Put a 0xff byte, which is never UTF-8, at the start of 1-based `line` of `path`."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("command", ["run --input", "evaluate --results", "map-lookup --map",
                                     "run --params", "simulate --sim-config",
                                     "run --sim-config"])
def test_non_utf8_input_is_reported_at_its_line(capsys, sim3, tmp_path, command):
    path = tmp_path / "bad"
    argv = {
        "run --input": ["run", "--input", str(path), "--preset", "spain-run06"],
        "evaluate --results": ["evaluate", "--results", str(path), "--truth", str(sim3)],
        "map-lookup --map": ["map-lookup", "--map", str(path), "--lat", "45.5", "--lon", "9.1"],
        "run --params": ["run", "--input", str(sim3), "--params", str(path)],
        "simulate --sim-config": ["simulate", "--sim-config", str(path),
                                  "--out", str(tmp_path / "s.seq")],
        "run --sim-config": ["run", "--sim-config", str(path), "--preset", "spain-run06"],
    }[command]
    if command == "evaluate --results":
        run_cli(capsys, "run", "--input", str(sim3), "--preset", "spain-run06", "--out", str(path))
    elif command == "map-lookup --map":
        shutil.copy(FIXTURES / "extract3.map", path)
    elif command == "run --params":
        path.write_text(SPAIN06.format(n=3, bv=5))
    elif command == "run --input":
        shutil.copy(sim3, path)
    else:
        path.write_text("n_lanes=3\nduration_frames=50\nseed=1\n")
    _with_bad_byte(path, 3)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == (cli.EXIT_CONFIG if "--params" in command or "--sim-config" in command
                    else cli.EXIT_INPUT)
    assert stdout == ""
    assert stderr == f"error: {path}:3: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("content", ["sequence", "results"])
def test_deeply_nested_json_is_input_error(capsys, sim3, tmp_path, content):
    depth = 200_000
    path = tmp_path / "nested"
    path.write_text(json.dumps({"format": 1, "content": content, "n_lanes": 3}) + "\n"
                    + '{"id": 0, "t": 0.0, "lines": ' + "[" * depth + "]" * depth + "}\n")
    argv = (["run", "--input", str(path), "--preset", "spain-run06"] if content == "sequence"
            else ["evaluate", "--results", str(path), "--truth", str(sim3)])
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert stderr == f"error: {path}:2: invalid JSON (nested too deeply)\n"


@pytest.mark.parametrize("digits", [401, 5000])
@pytest.mark.parametrize("content", ["sequence", "results"])
def test_huge_json_integers_are_input_errors(capsys, sim3, tmp_path, content, digits):
    path, huge = tmp_path / "huge", "1" + "0" * (digits - 1)
    line = ('{"id": 0, "t": %s, "lines": []}' if content == "sequence" else
            '{"id": 0, "map_lane": 1, "marginal": [1.0, 0.0, 0.0], "sensor_ok": 0.5, '
            '"tentative": [0.0, 0.0, 0.0], "wor": %s}') % huge
    path.write_text(json.dumps({"format": 1, "content": content, "n_lanes": 3}) + "\n"
                    + line + "\n")
    argv = (["run", "--input", str(path), "--preset", "spain-run06"] if content == "sequence"
            else ["evaluate", "--results", str(path), "--truth", str(sim3)])
    code, stdout, stderr = run_cli(capsys, *argv)
    field = "t" if content == "sequence" else "wor"
    message = (f"{field} must be a JSON finite number, got {huge}" if digits < 4300
               else "invalid JSON (integer has too many digits)")
    assert (code, stdout, stderr) == (cli.EXIT_INPUT, "", f"error: {path}:2: {message}\n")


def test_any_other_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_presets", broken)
    code, stdout, stderr = run_cli(capsys, "presets")
    assert code == cli.EXIT_INTERNAL
    assert stdout == ""
    assert stderr == "internal error: RuntimeError: boom\n"
