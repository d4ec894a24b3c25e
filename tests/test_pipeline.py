import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanehmm import pipeline
from lanehmm.dataset_io import FrameRecord, LineEntry, SequenceHeader, read_sequence
from lanehmm.errors import ConfigError, SequenceFormatError
from lanehmm.filtering import LaneFilter
from lanehmm.inverse_sensor import (
    LriTracker,
    TrackedLine,
    compute_wor,
    normalize_tentative,
    tentative_parts,
)
from lanehmm.model_core import RuntimeConfig
from lanehmm.pipeline import (
    EvidenceStream,
    build_evidence,
    run_sequence,
    tentative_matrix,
    wor_matrix,
)
from lanehmm.simulator import SimConfig, simulate

from conftest import FIXTURES, random_params, tentative


def small_sim(n=3, seed=61, frames=300):
    return simulate(SimConfig(n_lanes=n, duration_frames=frames,
                              lane_change_prob=0.01, fail_prob=0.1,
                              recover_prob=0.3, detect_prob_ok=0.8,
                              detect_prob_bad=0.1, offset_noise_sd_m=0.3,
                              seed=seed))


def reference_evidence(header, frames, cfg):
    """base, bonus and wor_frac from the per-frame inverse-sensor functions."""
    n, T = header.n_lanes, len(frames)
    base, bonus, wor_frac = np.empty((T, n)), np.empty((T, n)), np.empty(T)
    tracker = LriTracker(cfg)
    for t, frame in enumerate(frames):
        if header.lri_source == "log":
            tracked = [TrackedLine(e.track_id, e.offset_m, e.continuous, e.lri, e.is_valid)
                       for e in frame.lines]
        else:
            tracked = tracker.update([e.to_observation() for e in frame.lines])
        base[t], bonus[t] = tentative_parts(tracked, n, cfg)
        wor_frac[t] = compute_wor(tracked, n, cfg)
    return base, bonus, wor_frac


def make_frames(lines_per_frame):
    """Frames numbered 0.. from lists of (track, offset, cont, det, lri, valid)."""
    return [FrameRecord(t, 0.1 * t, tuple(LineEntry(*line) for line in lines))
            for t, lines in enumerate(lines_per_frame)]


@st.composite
def sequences(draw):
    n = draw(st.integers(1, 5))
    width = draw(st.sampled_from([3.5, 3.0, 3.75]))
    window = draw(st.integers(1, 15))
    fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if window > 1:
        # or an integral drop threshold, where the LRI can land on it exactly
        fraction |= st.integers(1, window - 1).map(lambda k: k / window)
    cfg = RuntimeConfig(lane_width=width, lri_window=window,
                        hysteresis_fraction=draw(fraction))
    lri_source = draw(st.sampled_from(["recompute", "log"]))
    tol = cfg.compat_tolerance
    offset = st.one_of(
        # exactly on a boundary, or at the edge of its tolerance band
        st.builds(lambda k, d: (k + 0.5) * width + d,
                  st.integers(-n, n), st.sampled_from([-tol, 0.0, tol])),
        # a lane center: the implied lane of a continuous line is a tie
        st.builds(lambda k: k * width, st.integers(-n, n)),
        st.just(0.0),
        st.floats(-12.0, 12.0),
    )
    logged = lri_source == "log"
    line = st.tuples(
        offset, st.booleans(), st.booleans(),
        st.integers(0, cfg.lri_window) if logged else st.none(),
        st.booleans() if logged else st.none(),
    )
    # Few track ids and frequent empty frames: tracks go absent for longer
    # than the window and are reported again.
    frame = st.dictionaries(st.sampled_from("abcde"), line, max_size=5)
    frames = draw(st.lists(st.one_of(st.just({}), frame), max_size=40))
    header = SequenceHeader(n_lanes=n, lane_width_m=width, lri_source=lri_source)
    return header, make_frames(
        [[(track, *rest) for track, rest in lines.items()] for lines in frames]), cfg


# Track "a" is valid, absent for longer than the window, re-reported and
# must requalify; "b" keeps its validity through the hysteresis band.
GAP = make_frames(
    [[("a", -1.75, True, True, None, None), ("b", 1.75, False, True, None, None)]] * 10
    + [[("b", 1.75, False, t % 3 != 0, None, None)] for t in range(12)]
    + [[("a", -1.75, True, True, None, None)]] * 11
)


# With a window of 6 the drop threshold is 3.  Track "b" turns valid at
# frame 5 and is still valid at LRI 3 in frames 8 and 9, where a detection
# replaces the one leaving the window.  Track "a" turns valid at frame 6;
# unreported, its LRI falls below 3 at frame 12 and is back at 3 when it
# is re-reported at frame 13: it must be invalid there.
DIP = make_frames(
    [[("a", -1.75, False, t not in (7, 9), None, None)]
     + ([("b", 1.75, True, t < 6 or t == 9, None, None)] if t < 10 else [])
     for t in range(11)]
    + [[], [], [("a", -1.75, False, True, None, None)]]
)


@example((SequenceHeader(n_lanes=3), GAP, RuntimeConfig()))
@example((SequenceHeader(n_lanes=3), DIP, RuntimeConfig(lri_window=6)))
@given(sequences())
@settings(max_examples=300)
def test_evidence_matches_per_frame_inverse_sensor(sequence):
    header, frames, cfg = sequence
    evidence = build_evidence(header, frames, cfg)
    base, bonus, wor_frac = reference_evidence(header, frames, cfg)
    assert np.array_equal(evidence.base, base)
    assert np.array_equal(evidence.bonus, bonus)
    assert np.array_equal(evidence.wor_frac, wor_frac)
    assert np.array_equal(evidence.frame_ids, [frame.frame_id for frame in frames])


def test_evidence_matches_per_frame_on_simulation(cfg, params3):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, frames, cfg)
    full = tentative_matrix(evidence, params3.bv)
    assert full.shape == (len(frames), 3)
    tracker = LriTracker(cfg)
    for t, frame in enumerate(frames):
        tracked = tracker.update([e.to_observation() for e in frame.lines])
        assert np.array_equal(full[t], tentative(tracked, params3, cfg))
        assert evidence.wor_frac[t] == compute_wor(tracked, 3, cfg)


def test_evidence_rejects_track_reported_twice_in_frame(cfg):
    frames = make_frames([[("a", -1.75, True, True, None, None)],
                          [("a", -1.75, True, True, None, None),
                           ("b", 1.75, False, True, None, None),
                           ("a", 5.25, False, True, None, None)]])
    with pytest.raises(ValueError, match="track id 'a' reported twice in one frame"):
        build_evidence(SequenceHeader(n_lanes=3), frames, cfg)


def test_evidence_rejects_offset_out_of_sanity_bounds(cfg):
    frames = make_frames([[("a", 60.0, True, True, None, None)]])
    with pytest.raises(ValueError, match="out of sanity bounds: 60.0"):
        build_evidence(SequenceHeader(n_lanes=3), frames, cfg)


def test_logged_evidence_requires_lri_and_valid(cfg):
    frames = make_frames([[("a", -1.75, True, True, 10, True)],
                          [("b", 1.75, True, True, None, None)]])
    with pytest.raises(SequenceFormatError, match="line 'b' lacks precomputed lri/valid"):
        build_evidence(SequenceHeader(n_lanes=3, lri_source="log"), frames, cfg)


def test_wor_matrix_pairs_ok_with_bad(cfg):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, frames, cfg)
    wor = wor_matrix(evidence)
    assert wor.shape == (len(frames), 2)
    assert np.array_equal(wor[:, 0], evidence.wor_frac)
    assert np.array_equal(wor[:, 1], 1.0 - evidence.wor_frac)


def test_run_sequence_rejects_lane_mismatch(params3):
    header, frames, _ = small_sim(n=4)
    with pytest.raises(ConfigError, match="conflicts"):
        run_sequence(build_evidence(header, frames), params3)


def test_run_sequence_results_are_consistent(params3, cfg):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, frames, cfg)
    results = run_sequence(evidence, params3)
    assert len(results) == len(frames)
    assert [r.frame_id for r in results] == [f.frame_id for f in frames]
    for t, record in enumerate(results):
        assert abs(sum(record.lane_marginal) - 1.0) < 1e-9
        assert record.map_lane == int(np.argmax(record.lane_marginal)) + 1
        assert 0.0 <= record.sensor_ok_prob <= 1.0
        assert 0.0 <= record.wor_frac <= 1.0
        # The record carries the evidence rows the filter consumed.
        assert record.tentative == tuple(tentative_matrix(evidence, params3.bv)[t])
        assert record.wor_frac == evidence.wor_frac[t]


@st.composite
def blocked_runs(draw):
    """A block size, parameters and evidence spanning several blocks plus a remainder."""
    n = draw(st.integers(1, 5))
    block = draw(st.integers(2, 6))
    T = block * draw(st.integers(2, 4)) + draw(st.integers(1, block - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = random_params(rng, n).replace(bv=draw(st.floats(0.0, 10.0)))
    evidence = EvidenceStream(
        n=n,
        frame_ids=np.arange(T),
        base=rng.integers(0, 4, (T, n)).astype(float),  # all-zero rows included
        bonus=rng.integers(0, 2, (T, n)).astype(float),
        wor_frac=rng.uniform(0.0, 1.0, T),
        gt_lane=np.full(T, -1),
        crossing=np.zeros(T, dtype=bool),
    )
    return block, params, evidence


@given(blocked_runs())
@settings(max_examples=200)
def test_run_sequence_is_bitwise_a_lane_filter_stream(run):
    block, params, evidence = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_BLOCK_CANDIDATE_LANES", block * params.n)
        records = run_sequence(evidence, params)
    assert len(records) == len(evidence)
    lane_filter = LaneFilter(params)
    tentative_rows = tentative_matrix(evidence, params.bv)
    wor = wor_matrix(evidence)
    for t, record in enumerate(records):
        estimate = lane_filter.step(normalize_tentative(tentative_rows[t], params.n), wor[t])
        assert record.map_lane == estimate.map_lane
        assert np.array(record.lane_marginal).tobytes() == estimate.lane_marginal.tobytes()
        assert (np.float64(record.sensor_ok_prob).tobytes()
                == np.float64(estimate.sensor_ok_prob).tobytes())


def test_run_sequence_deterministic(params3, cfg):
    header, frames, _ = small_sim()
    first = run_sequence(build_evidence(header, frames, cfg), params3)
    second = run_sequence(build_evidence(header, frames, cfg), params3)
    assert first == second


def test_precomputed_lri_log_path(params3):
    header, frame_iter = read_sequence(FIXTURES / "logged_lri.seq")
    frames = list(frame_iter)
    results = run_sequence(build_evidence(header, frames), params3)
    (record,) = results
    # Valid lines at -9.15 (continuous) and -2.15: both vote for lane 3;
    # the bonus lands there too.
    assert record.map_lane == 3
    assert record.tentative[2] > record.tentative[0]
    assert record.wor_frac == 0.65


def test_default_runtime_config_uses_header_width(params3):
    header, frames, _ = small_sim()
    default = build_evidence(header, frames)
    explicit = build_evidence(header, frames, RuntimeConfig(lane_width=header.lane_width_m))
    assert run_sequence(default, params3) == run_sequence(explicit, params3)


def test_tuned_preset_on_seeded_sim_byte_identical(tmp_path):
    from lanehmm.dataset_io import write_results
    from lanehmm.model_core import load_preset

    header, frames, _ = simulate(SimConfig(n_lanes=4, duration_frames=500, seed=42))
    params = load_preset("italy-run01")
    paths = []
    for name in ("a.res", "b.res"):
        results = run_sequence(build_evidence(header, frames), params)
        path = tmp_path / name
        write_results(path, header, results)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
