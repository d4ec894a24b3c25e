import hashlib

import numpy as np
import pytest

from lanehmm.errors import ParameterError
from lanehmm.dataset_io import LINE_COLUMNS, SequenceTable, read_table, write_sequence
from lanehmm.inverse_sensor import line_compatible
from lanehmm.model_core import MAX_LANES, RuntimeConfig
from lanehmm.simulator import SimConfig, inject_burst, parse_sim_config, simulate


def test_noiseless_steady_state():
    config = SimConfig(
        n_lanes=3, duration_frames=50, lane_change_prob=0.0, fail_prob=0.0,
        detect_prob_ok=1.0, detect_prob_bad=0.0, offset_noise_sd_m=0.0, seed=1,
    )
    header, table, sensor_ok = simulate(config)
    assert np.all(table.gt == table.gt[0])
    assert not table.crossing.any()
    assert sensor_ok.all()
    for frame in table:
        assert len(frame.lines) == 4
        offsets = sorted(line.offset_m for line in frame.lines)
        lane = frame.gt_lane
        expected = [(j - lane + 0.5) * 3.5 for j in range(4)]
        assert np.allclose(offsets, expected)


def test_outermost_lines_continuous_stable_ids():
    config = SimConfig(n_lanes=3, duration_frames=5, detect_prob_ok=1.0,
                       fail_prob=0.0, lane_change_prob=0.0, seed=2)
    _, table, _ = simulate(config)
    for frame in table:
        by_track = {line.track_id: line for line in frame.lines}
        assert set(by_track) == {"b0", "b1", "b2", "b3"}
        assert by_track["b0"].continuous and by_track["b3"].continuous
        assert not by_track["b1"].continuous and not by_track["b2"].continuous


def test_bad_interval_emits_nothing_when_detect_bad_zero():
    config = SimConfig(
        n_lanes=2, duration_frames=400, lane_change_prob=0.0,
        fail_prob=0.3, recover_prob=0.3, detect_prob_ok=1.0, detect_prob_bad=0.0,
        seed=3,
    )
    _, table, sensor_ok = simulate(config)
    assert (~sensor_ok).sum() > 20  # the chain actually visits BAD
    for frame, ok in zip(table, sensor_ok):
        if not ok:
            assert frame.lines == ()
        else:
            assert len(frame.lines) == 3


def test_deterministic_given_seed(tmp_path):
    config = SimConfig(n_lanes=3, duration_frames=10_000, seed=42)
    header1, table1, _ = simulate(config)
    header2, table2, _ = simulate(config)
    assert list(table1) == list(table2)
    assert np.array_equal(table1.gt, table2.gt)
    a, b = tmp_path / "a.seq", tmp_path / "b.seq"
    write_sequence(a, header1, table1)
    write_sequence(b, header2, table2)
    assert a.read_bytes() == b.read_bytes()


def test_failure_rate_matches_config():
    config = SimConfig(n_lanes=2, duration_frames=100_000, lane_change_prob=0.0,
                       fail_prob=0.05, recover_prob=0.3, seed=4)
    _, _, ok = simulate(config)
    from_ok = ok[:-1].sum()
    fails = np.sum(ok[:-1] & ~ok[1:])
    rate = fails / from_ok
    se = np.sqrt(0.05 * 0.95 / from_ok)
    assert abs(rate - 0.05) < 3 * se


def test_crossing_windows_have_expected_length():
    config = SimConfig(n_lanes=3, duration_frames=5000, lane_change_prob=0.01,
                       lane_change_duration=12, fail_prob=0.0, seed=5)
    _, table, _ = simulate(config)
    spans = []
    run = 0
    for flag in table.crossing:
        if flag:
            run += 1
        elif run:
            spans.append(run)
            run = 0
    assert spans, "expected at least one lane change"
    # Back-to-back changes can merge windows into multiples of the duration.
    assert all(span % 12 == 0 for span in spans)


def test_geometry_matches_inverse_sensor(cfg):
    config = SimConfig(n_lanes=3, duration_frames=600, lane_change_prob=0.01,
                       lane_change_duration=8, fail_prob=0.0, detect_prob_ok=1.0,
                       offset_noise_sd_m=0.0, seed=6)
    _, table, _ = simulate(config)
    for frame in table:
        if frame.crossing:
            continue
        for line in frame.lines:
            assert line_compatible(line.offset_m, frame.gt_lane, 3, cfg)


def test_tentative_argmax_equals_gt_on_clean_frames(cfg, params3):
    from lanehmm.inverse_sensor import LriTracker

    from conftest import tentative

    config = SimConfig(n_lanes=3, duration_frames=400, lane_change_prob=0.005,
                       lane_change_duration=8, fail_prob=0.0, detect_prob_ok=1.0,
                       offset_noise_sd_m=0.0, seed=7)
    _, table, _ = simulate(config)
    tracker = LriTracker(cfg)
    for t, frame in enumerate(table):
        tracked = tracker.update([e.to_observation() for e in frame.lines])
        tv = tentative(tracked, params3, cfg)
        if t < cfg.lri_window or frame.crossing:
            continue  # lines not yet valid / ambiguous mid-change
        assert int(np.argmax(tv)) + 1 == frame.gt_lane


def test_gnss_track_when_origin_given():
    config = SimConfig(n_lanes=2, duration_frames=10, gnss_origin=(45.5, 9.1),
                       speed_mps=30.0, fps=10.0, seed=8)
    _, table, _ = simulate(config)
    frames = list(table)
    assert frames[0].gnss == (45.5, 9.1)
    lons = [frame.gnss[1] for frame in frames]
    assert all(b > a for a, b in zip(lons, lons[1:]))
    assert all(frame.gnss[0] == 45.5 for frame in frames)


# Digests of the written sequences, recorded from the frame-by-frame
# simulator that built one record per frame: any moved bit fails.
PINNED = {
    "n1": (SimConfig(n_lanes=1, duration_frames=300, seed=21),
           "852f5908431beddc946b7662b6c9568fcd9c045a7b6e9b3f1ef3c1dc1678b441"),
    "n3": (SimConfig(n_lanes=3, duration_frames=500, seed=22),
           "c653a2a83c458168d8cb62d7f9e09d467c01c57588b6a2f8fe6231ca57228936"),
    "n4": (SimConfig(n_lanes=4, duration_frames=500, lane_change_prob=0.02, seed=23),
           "49bbad0f95574c3c54fe6a8bf1bae18c74044b2ba1b677cff66b8cb19e492d46"),
    "n5": (SimConfig(n_lanes=5, duration_frames=500, lane_change_prob=0.03, seed=24),
           "2bb00756cf0ea378f5366d60efa181c2f4c611db1c109c5bc49568e25d7f34d8"),
    "gnss": (SimConfig(n_lanes=3, duration_frames=300, gnss_origin=(45.5, 9.1), seed=25),
             "b0cf57aefc31dbecb4c41a4a59082572abd4b6a53fa0308221c95c736ed732e0"),
    "fixed": (SimConfig(n_lanes=3, duration_frames=500, failure_mode="fixed",
                        fail_duration=7, fail_prob=0.03, seed=26),
              "babc234c7d1642692f87bb7ca2e14e868896068e6b2aea2aae724893165dca96"),
    "noiseless": (SimConfig(n_lanes=2, duration_frames=300, offset_noise_sd_m=0.0, seed=27),
                  "aba60d225c17ff2313ef8f5fbcad84c9a402070498ab0e4786b43c4ab9a07eb9"),
}


def _digest(tmp_path, header, table) -> str:
    path = tmp_path / "pinned.seq"
    write_sequence(path, header, table)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_written_sequence_is_pinned(tmp_path, name):
    config, digest = PINNED[name]
    header, table, _ = simulate(config)
    assert _digest(tmp_path, header, table) == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_table_is_the_table_of_its_records(name):
    _, table, _ = simulate(PINNED[name][0])
    rebuilt = SequenceTable.from_frames(list(table))
    assert rebuilt.track_ids == table.track_ids
    for column in ("frame_ids", "t", "gt", "crossing", "gnss", "source_line") + LINE_COLUMNS:
        expected, actual = getattr(table, column), getattr(rebuilt, column)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, column
        assert actual.tobytes() == expected.tobytes(), column


@pytest.mark.parametrize(
    "name, burst, digest",
    [("n3", dict(start=100, length=30, mode="dropout"),
      "e92198df8d96848ca9f19aca897dc130d1ffa74eb8eaae5ee2c95223ec59ded4"),
     ("n4", dict(start=50, length=100, mode="clutter", seed=5),
      "f3d0faeccaa30e958bbb94422aa5b923f0d2734b3604bb8af2cd77c0458b37da")],
)
def test_burst_output_is_pinned(tmp_path, name, burst, digest):
    header, table, _ = simulate(PINNED[name][0])
    burst_table = inject_burst(table, header=header, **burst)
    assert _digest(tmp_path, header, burst_table) == digest


# --- burst injection ----------------------------------------------------------

def test_dropout_burst_empties_window():
    config = SimConfig(n_lanes=3, duration_frames=60, detect_prob_ok=1.0,
                       fail_prob=0.0, lane_change_prob=0.0, seed=9)
    _, table, _ = simulate(config)
    burst = inject_burst(table, start=20, length=10, mode="dropout")
    for frame in burst:
        if 20 <= frame.frame_id < 30:
            assert frame.lines == ()
        else:
            assert len(frame.lines) == 4


def test_zero_length_burst_is_identity():
    config = SimConfig(n_lanes=2, duration_frames=20, seed=10)
    _, table, _ = simulate(config)
    assert list(inject_burst(table, start=5, length=0, mode="dropout")) == list(table)


def test_clutter_burst_uniform_offsets():
    config = SimConfig(n_lanes=3, duration_frames=4000, detect_prob_ok=1.0,
                       fail_prob=0.0, lane_change_prob=0.0, seed=11)
    header, table, _ = simulate(config)
    burst = inject_burst(table, start=0, length=4000, mode="clutter",
                         header=header, seed=12)
    offsets = np.array([
        line.offset_m
        for frame in burst
        for line in frame.lines
        if line.track_id == "clutter"
    ])
    assert len(offsets) == 4000
    span = header.n_lanes * header.lane_width_m
    assert offsets.min() >= -span and offsets.max() <= span
    counts, _ = np.histogram(offsets, bins=8, range=(-span, span))
    expected = len(offsets) / 8
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


def test_clutter_requires_header():
    with pytest.raises(ParameterError):
        inject_burst([], 0, 5, "clutter")
    with pytest.raises(ParameterError):
        inject_burst([], 0, 5, "sparkle")


# --- config parsing -------------------------------------------------------------

def test_parse_sim_config_roundtrip():
    text = """
    # three lanes, slow failures
    n_lanes=4
    duration_frames=123
    fail_prob=0.02
    gnss_origin=45.5,9.1
    failure_mode=fixed
    """
    config = parse_sim_config(text)
    assert config.n_lanes == 4
    assert config.duration_frames == 123
    assert config.gnss_origin == (45.5, 9.1)
    assert config.failure_mode == "fixed"


def test_parse_sim_config_rejects_unknown():
    with pytest.raises(ParameterError, match="unknown"):
        parse_sim_config("wheels=4\n")
    with pytest.raises(ParameterError, match="bad value"):
        parse_sim_config("fail_prob=often\n")


def test_sim_config_domain():
    with pytest.raises(ParameterError):
        SimConfig(fail_prob=1.0)
    with pytest.raises(ParameterError):
        SimConfig(recover_prob=0.0)
    with pytest.raises(ParameterError):
        SimConfig(detect_prob_ok=0.0)
    with pytest.raises(ParameterError):
        SimConfig(duration_frames=0)


def test_sim_config_lane_count_is_bounded():
    assert SimConfig(n_lanes=MAX_LANES).n_lanes == MAX_LANES
    with pytest.raises(ParameterError,
                       match=f"n_lanes must be >= 1 and <= {MAX_LANES}, got {MAX_LANES + 1}"):
        SimConfig(n_lanes=MAX_LANES + 1)


def test_sim_config_seed_is_non_negative():
    assert SimConfig(seed=0).seed == 0
    with pytest.raises(ParameterError, match="seed must be >= 0, got -4"):
        SimConfig(seed=-4)


def test_every_lane_count_gives_a_readable_sequence(tmp_path):
    # Lines beyond the reader's offset bound are not emitted, so a road of
    # up to MAX_LANES lanes of 3.5 m, clutter included, reads back.
    for n in range(1, MAX_LANES + 1):
        header, table, _ = simulate(SimConfig(n_lanes=n, duration_frames=200, seed=1))
        table.check(header)
        inject_burst(table, 0, 200, "clutter", header=header, seed=2).check(header)
    assert len(table.track_ids) < MAX_LANES + 1  # the far lines were dropped
    path = tmp_path / "wide.seq"
    write_sequence(path, header, table)
    read_header, read = read_table(path)
    assert read_header == header and read.track_ids == table.track_ids


def test_fixed_failure_mode_burst_length():
    config = SimConfig(n_lanes=2, duration_frames=5000, lane_change_prob=0.0,
                       fail_prob=0.02, failure_mode="fixed", fail_duration=7,
                       seed=13)
    _, _, sensor_ok = simulate(config)
    runs = []
    run = 0
    for ok in sensor_ok:
        if not ok:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    assert runs
    assert all(r == 7 for r in runs)


def test_parse_sim_config_rejects_repeated_key():
    with pytest.raises(ParameterError, match=r"^cfg:3: duplicate key 'seed'$"):
        parse_sim_config("seed=1\nn_lanes=3\nseed=2\n", source="cfg")


@pytest.mark.parametrize(
    "field, value",
    [("lane_width_m", float("inf")), ("fps", float("inf")), ("fps", float("nan")),
     ("speed_mps", float("nan")), ("offset_noise_sd_m", float("inf")),
     ("gnss_origin", (45.5, float("inf")))],
)
def test_sim_config_requires_finite_values(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("line", ["fps=inf", "gnss_origin=nan,9.1"])
def test_parse_sim_config_rejects_non_finite(line):
    with pytest.raises(ParameterError, match="must be finite"):
        parse_sim_config(line + "\n")
