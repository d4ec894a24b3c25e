import numpy as np
import pytest

from lanehmm.errors import ParameterError
from lanehmm.dataset_io import write_sequence
from lanehmm.inverse_sensor import line_compatible
from lanehmm.model_core import RuntimeConfig
from lanehmm.simulator import SimConfig, inject_burst, parse_sim_config, simulate


def test_noiseless_steady_state():
    config = SimConfig(
        n_lanes=3, duration_frames=50, lane_change_prob=0.0, fail_prob=0.0,
        detect_prob_ok=1.0, detect_prob_bad=0.0, offset_noise_sd_m=0.0, seed=1,
    )
    header, frames, truth = simulate(config)
    assert np.all(truth.gt_lane == truth.gt_lane[0])
    assert not truth.crossing.any()
    assert truth.sensor_ok.all()
    for frame in frames:
        assert len(frame.lines) == 4
        offsets = sorted(line.offset_m for line in frame.lines)
        lane = frame.gt_lane
        expected = [(j - lane + 0.5) * 3.5 for j in range(4)]
        assert np.allclose(offsets, expected)


def test_outermost_lines_continuous_stable_ids():
    config = SimConfig(n_lanes=3, duration_frames=5, detect_prob_ok=1.0,
                       fail_prob=0.0, lane_change_prob=0.0, seed=2)
    _, frames, _ = simulate(config)
    for frame in frames:
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
    _, frames, truth = simulate(config)
    assert (~truth.sensor_ok).sum() > 20  # the chain actually visits BAD
    for frame, ok in zip(frames, truth.sensor_ok):
        if not ok:
            assert frame.lines == ()
        else:
            assert len(frame.lines) == 3


def test_deterministic_given_seed(tmp_path):
    config = SimConfig(n_lanes=3, duration_frames=10_000, seed=42)
    header1, frames1, truth1 = simulate(config)
    header2, frames2, truth2 = simulate(config)
    assert frames1 == frames2
    assert np.array_equal(truth1.gt_lane, truth2.gt_lane)
    a, b = tmp_path / "a.seq", tmp_path / "b.seq"
    write_sequence(a, header1, frames1)
    write_sequence(b, header2, frames2)
    assert a.read_bytes() == b.read_bytes()


def test_failure_rate_matches_config():
    config = SimConfig(n_lanes=2, duration_frames=100_000, lane_change_prob=0.0,
                       fail_prob=0.05, recover_prob=0.3, seed=4)
    _, _, truth = simulate(config)
    ok = truth.sensor_ok
    from_ok = ok[:-1].sum()
    fails = np.sum(ok[:-1] & ~ok[1:])
    rate = fails / from_ok
    se = np.sqrt(0.05 * 0.95 / from_ok)
    assert abs(rate - 0.05) < 3 * se


def test_crossing_windows_have_expected_length():
    config = SimConfig(n_lanes=3, duration_frames=5000, lane_change_prob=0.01,
                       lane_change_duration=12, fail_prob=0.0, seed=5)
    _, frames, truth = simulate(config)
    spans = []
    run = 0
    for flag in truth.crossing:
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
    _, frames, truth = simulate(config)
    for frame in frames:
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
    _, frames, _ = simulate(config)
    tracker = LriTracker(cfg)
    for t, frame in enumerate(frames):
        tracked = tracker.update([e.to_observation() for e in frame.lines])
        tv = tentative(tracked, params3, cfg)
        if t < cfg.lri_window or frame.crossing:
            continue  # lines not yet valid / ambiguous mid-change
        assert int(np.argmax(tv)) + 1 == frame.gt_lane


def test_gnss_track_when_origin_given():
    config = SimConfig(n_lanes=2, duration_frames=10, gnss_origin=(45.5, 9.1),
                       speed_mps=30.0, fps=10.0, seed=8)
    _, frames, _ = simulate(config)
    assert frames[0].gnss == (45.5, 9.1)
    lons = [frame.gnss[1] for frame in frames]
    assert all(b > a for a, b in zip(lons, lons[1:]))
    assert all(frame.gnss[0] == 45.5 for frame in frames)


# --- burst injection ----------------------------------------------------------

def test_dropout_burst_empties_window():
    config = SimConfig(n_lanes=3, duration_frames=60, detect_prob_ok=1.0,
                       fail_prob=0.0, lane_change_prob=0.0, seed=9)
    _, frames, _ = simulate(config)
    burst = inject_burst(frames, start=20, length=10, mode="dropout")
    for frame in burst:
        if 20 <= frame.frame_id < 30:
            assert frame.lines == ()
        else:
            assert len(frame.lines) == 4


def test_zero_length_burst_is_identity():
    config = SimConfig(n_lanes=2, duration_frames=20, seed=10)
    _, frames, _ = simulate(config)
    assert inject_burst(frames, start=5, length=0, mode="dropout") == frames


def test_clutter_burst_uniform_offsets():
    config = SimConfig(n_lanes=3, duration_frames=4000, detect_prob_ok=1.0,
                       fail_prob=0.0, lane_change_prob=0.0, seed=11)
    header, frames, _ = simulate(config)
    burst = inject_burst(frames, start=0, length=4000, mode="clutter",
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


def test_fixed_failure_mode_burst_length():
    config = SimConfig(n_lanes=2, duration_frames=5000, lane_change_prob=0.0,
                       fail_prob=0.02, failure_mode="fixed", fail_duration=7,
                       seed=13)
    _, _, truth = simulate(config)
    runs = []
    run = 0
    for ok in truth.sensor_ok:
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
