import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanehmm import pipeline
from lanehmm.dataset_io import (
    PROB_TOLERANCE,
    FrameRecord,
    LineEntry,
    SequenceHeader,
    SequenceTable,
    read_table,
    write_sequence,
)
from lanehmm.errors import ConfigError, SequenceFormatError
from lanehmm.filtering import LaneFilter
from lanehmm.inverse_sensor import (
    MAX_LINE_OFFSET_M,
    LriTracker,
    TrackedLine,
    compute_wor,
    normalize_tentative,
    tentative_parts,
)
from lanehmm.model_core import MAX_LANES, RuntimeConfig
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


def table(frames):
    return SequenceTable.from_frames(frames)


def assert_same_results(first, second):
    for name in ("frame_ids", "map_lane", "lane_marginal", "sensor_ok_prob", "tentative",
                 "wor_frac"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    evidence = build_evidence(header, table(frames), cfg)
    base, bonus, wor_frac = reference_evidence(header, frames, cfg)
    assert np.array_equal(evidence.base, base)
    assert np.array_equal(evidence.bonus, bonus)
    assert np.array_equal(evidence.wor_frac, wor_frac)
    assert np.array_equal(evidence.frame_ids, [frame.frame_id for frame in frames])


def test_evidence_matches_per_frame_on_simulation(cfg, params3):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, table(frames), cfg)
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
    with pytest.raises(SequenceFormatError, match="track id 'a' reported twice in one frame"):
        build_evidence(SequenceHeader(n_lanes=3), table(frames), cfg)


def test_evidence_rejects_offset_out_of_sanity_bounds(cfg):
    frames = make_frames([[("a", 60.0, True, True, None, None)]])
    with pytest.raises(SequenceFormatError, match="out of sanity bounds: 60.0"):
        build_evidence(SequenceHeader(n_lanes=3), table(frames), cfg)


def test_logged_evidence_requires_lri_and_valid(cfg):
    frames = make_frames([[("a", -1.75, True, True, 10, True)],
                          [("b", 1.75, True, True, None, None)]])
    with pytest.raises(SequenceFormatError, match="line 'b' lacks precomputed lri/valid"):
        build_evidence(SequenceHeader(n_lanes=3, lri_source="log"), table(frames), cfg)


def test_logged_lri_above_window_reports_line(tmp_path, cfg):
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True, "lri": 10, "valid": True}
    path = tmp_path / "lri_above.seq"
    path.write_text('{"format": 1, "n_lanes": 3, "lri_source": "log"}\n'
                    + json.dumps({"id": 0, "t": 0.0, "lines": [line]}) + "\n"
                    + json.dumps({"id": 1, "t": 0.1, "lines": [dict(line, lri=11)]}) + "\n")
    header, sequence = read_table(path)
    message = "line 'b0' has lri 11 above the LRI window 10"
    with pytest.raises(SequenceFormatError, match=f"^{path}:3: {message}$"):
        build_evidence(header, sequence, cfg)
    with pytest.raises(SequenceFormatError, match=f"^{message}$"):
        build_evidence(header, table(list(sequence)), cfg)
    build_evidence(header, sequence, RuntimeConfig(lri_window=11))


def _with_frame(**changes):
    return lambda frame: dataclasses.replace(frame, **changes)


def _with_line(**changes):
    def broken(frame):
        return dataclasses.replace(
            frame, lines=(dataclasses.replace(frame.lines[0], **changes),) + frame.lines[1:])
    return broken


def _track_twice(frame):
    return dataclasses.replace(frame, lines=frame.lines + (frame.lines[0],))


# One content fault each, in the second frame: (fault, how to break a frame, message)
RULES = [
    ("ids", _with_frame(frame_id=0), "frame ids not strictly increasing (0 after 0)"),
    ("gt-above", _with_frame(gt_lane=4), "gt_lane 4 outside [1, 3]"),
    ("gt-zero", _with_frame(gt_lane=0), "gt_lane 0 outside [1, 3]"),
    ("offset", _with_line(offset_m=60.0), "line offset out of sanity bounds: 60.0"),
    ("offset-huge", _with_line(offset_m=1e9),
     "line offset out of sanity bounds: 1000000000.0"),
    ("offset-negative", _with_line(offset_m=-50.0), "line offset out of sanity bounds: -50.0"),
    ("track-twice", _track_twice, "track id 'b0' reported twice in one frame"),
]
LOG_RULES = [
    ("lri-missing", _with_line(lri=None), "line 'b0' lacks precomputed lri/valid fields"),
    ("valid-missing", _with_line(is_valid=None), "line 'b0' lacks precomputed lri/valid fields"),
]


@pytest.mark.parametrize(
    "lri_source, broken, message",
    [pytest.param(source, broken, message, id=f"{source}-{fault}")
     for source in ("recompute", "log") for fault, broken, message in RULES]
    + [pytest.param("log", broken, message, id=f"log-{fault}")
       for fault, broken, message in LOG_RULES],
)
def test_file_and_frames_break_each_rule_alike(tmp_path, cfg, lri_source, broken, message):
    """A sequence rule reads the same from a file and from frame records."""
    lri, valid = (10, True) if lri_source == "log" else (None, None)
    frames = [FrameRecord(t, 0.1 * t, (LineEntry("b0", -1.75, True, True, lri, valid),
                                       LineEntry("b1", 1.75, False, True, lri, valid)),
                          gt_lane=2)
              for t in range(3)]
    frames[1] = broken(frames[1])
    header = SequenceHeader(n_lanes=3, lri_source=lri_source)
    path = tmp_path / "fault.seq"
    write_sequence(path, header, frames)
    with pytest.raises(SequenceFormatError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        read_table(path)
    with pytest.raises(SequenceFormatError, match=f"^{re.escape(message)}$"):
        build_evidence(header, table(frames), cfg)


def test_wor_matrix_pairs_ok_with_bad(cfg):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, table(frames), cfg)
    wor = wor_matrix(evidence)
    assert wor.shape == (len(frames), 2)
    assert np.array_equal(wor[:, 0], evidence.wor_frac)
    assert np.array_equal(wor[:, 1], 1.0 - evidence.wor_frac)


def test_run_sequence_rejects_lane_mismatch(params3):
    header, frames, _ = small_sim(n=4)
    with pytest.raises(ConfigError, match="conflicts"):
        run_sequence(build_evidence(header, table(frames)), params3)


def test_run_sequence_results_are_consistent(params3, cfg):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, table(frames), cfg)
    results = run_sequence(evidence, params3)
    assert len(results) == len(frames)
    assert results.frame_ids.tolist() == [f.frame_id for f in frames]
    for t in range(len(results)):
        marginal = results.lane_marginal[t]
        assert abs(sum(marginal) - 1.0) < 1e-9
        assert results.map_lane[t] == int(np.argmax(marginal)) + 1
        assert 0.0 <= results.sensor_ok_prob[t] <= 1.0
        assert 0.0 <= results.wor_frac[t] <= 1.0
        # The row carries the evidence the filter consumed.
        assert tuple(results.tentative[t]) == tuple(tentative_matrix(evidence, params3.bv)[t])
        assert results.wor_frac[t] == evidence.wor_frac[t]


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
        results = run_sequence(evidence, params)
    assert len(results) == len(evidence)
    lane_filter = LaneFilter(params)
    tentative_rows = tentative_matrix(evidence, params.bv)
    wor = wor_matrix(evidence)
    for t in range(len(results)):
        estimate = lane_filter.step(normalize_tentative(tentative_rows[t], params.n), wor[t])
        assert results.map_lane[t] == estimate.map_lane
        assert results.lane_marginal[t].tobytes() == estimate.lane_marginal.tobytes()
        assert (np.float64(results.sensor_ok_prob[t]).tobytes()
                == np.float64(estimate.sensor_ok_prob).tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 32])
def test_grouped_sweep_is_bitwise_k_lane_filter_streams(n, monkeypatch):
    # filter_blocks normalizes one tentative vector per distinct bonus value
    # and forms one lane term per distinct (detector row block, bonus value)
    # pair; every candidate must still hold its own LaneFilter's bits.
    rng = np.random.default_rng(80 + n)
    T = 60
    evidence = EvidenceStream(
        n=n,
        frame_ids=np.arange(T),
        base=rng.integers(0, 4, (T, n)).astype(float),  # all-zero rows included
        bonus=rng.integers(0, 2, (T, n)).astype(float),
        wor_frac=rng.uniform(0.0, 1.0, T),
        gt_lane=np.full(T, -1),
        crossing=np.zeros(T, dtype=bool),
    )
    a, b = random_params(rng, n), random_params(rng, n)
    candidates = [
        a,
        a.replace(sigma1=b.sigma1, p1=b.p1),      # shares both pairs with a
        b.replace(sigma2=a.sigma2),               # shares a's OK table
        b.replace(bv=a.bv),                       # shares a's bonus value
        a,                                        # an exact duplicate
        b,
    ]
    # Blocks of 7 frames for the stack: 60 = 8 * 7 + 4.
    monkeypatch.setattr(pipeline, "_BLOCK_CANDIDATE_LANES", 7 * len(candidates) * n)
    swept = np.concatenate([posteriors for _, posteriors in
                            pipeline.filter_blocks(evidence, candidates)])
    single = np.concatenate([posteriors for _, posteriors in
                             pipeline.filter_blocks(evidence, [a])])
    wor = wor_matrix(evidence)
    for k, params in enumerate(candidates):
        lane_filter = LaneFilter(params)
        tentative_rows = tentative_matrix(evidence, params.bv)
        for t in range(T):
            lane_filter.step(normalize_tentative(tentative_rows[t], n), wor[t])
            assert swept[t, k].tobytes() == lane_filter.belief.tobytes(), (k, t)
            if k == 0:
                assert single[t].tobytes() == lane_filter.belief.tobytes(), t



def lane_filter_beliefs(evidence, candidates):
    """Each candidate's LaneFilter belief after every frame, (T, K, n, 2)."""
    wor = wor_matrix(evidence)
    beliefs = np.empty((len(evidence), len(candidates), evidence.n, 2))
    for k, params in enumerate(candidates):
        lane_filter = LaneFilter(params)
        for t, row in enumerate(tentative_matrix(evidence, params.bv)):
            lane_filter.step(normalize_tentative(row, params.n), wor[t])
            beliefs[t, k] = lane_filter.belief
    return beliefs


def swept_posteriors(evidence, candidates):
    return np.concatenate([posteriors for _, posteriors in pipeline.filter_blocks(
        evidence, candidates)])


def test_distinct_groups_rows_and_wor_values_by_bit_pattern():
    # 30 distinct rows of 64 columns with up to 6 bit patterns each, in
    # pairs that differ only in the sign of their first column: the row
    # codes must be renumbered before the later columns push it out.
    rng = np.random.default_rng(12)
    T, n = 400, 32
    pool = np.repeat(rng.choice([0.0, 1.0, 2.5, 4.0], (15, 2 * n)), 2, axis=0)
    pool[1::2, 0] *= -1.0
    rows = pool[rng.integers(0, len(pool), T)]
    evidence = EvidenceStream(
        n=n,
        frame_ids=np.arange(T),
        base=rows[:, :n].copy(),
        bonus=rows[:, n:].copy(),
        wor_frac=rng.choice([0.0, -0.0, 0.25, 1.0], T),
        gt_lane=np.full(T, -1),
        crossing=np.zeros(T, dtype=bool),
    )
    row_frames, row_index, wor_frames, wor_index = evidence.distinct
    # filter_blocks' detector pairs: each candidate's OK and BAD row blocks
    # with its bonus value's index.  The BAD block is shared by all, and two
    # OK blocks differ only in the sign of one zero.
    K = 40
    ok = rng.choice([0.0, 0.25, 0.5], (6, n, n))
    ok[0, 0, 0] = 0.0
    ok[1] = ok[0]
    ok[1, 0, 0] = -0.0
    detector = np.empty((K, 2, n, n))
    detector[:, 0] = ok[np.r_[0, 1, rng.integers(0, 6, K - 2)]]
    detector[:, 1] = 1.0 / n
    blocks = detector.reshape(2 * K, -1)
    block_bv = np.repeat(np.r_[0, 0, rng.integers(0, 3, K - 2)], 2)
    pair_first, pair = pipeline._distinct(*blocks.T, block_bv)
    for bits, frames, index in ((rows.view(np.int64), row_frames, row_index),
                                (evidence.wor_frac.view(np.int64)[:, None], wor_frames, wor_index),
                                (np.column_stack([blocks.view(np.int64), block_bv]),
                                 pair_first, pair)):
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(np.sort(frames), np.sort(first))
        assert np.array_equal(frames[index], first[inverse.ravel()])


def test_pair_grouping_peaks_below_the_detector_stack():
    # At n = 32 and K = 500 the detector pairs are grouped from an 8.2 MB
    # stack of row blocks, every OK block distinct; a (2K, n^2 + 1) key and
    # its sort had peaked at 29 MB.
    n, K = 32, 500
    rng = np.random.default_rng(500)
    detector = np.empty((K, 2, n, n))
    detector[:, 0] = rng.random((K, n, n))
    detector[:, 1] = 1.0 / n
    block_bv = np.repeat(rng.integers(0, 11, K), 2)
    tracemalloc.start()
    first, _ = pipeline._distinct(*detector.reshape(2 * K, -1).T, block_bv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(first) == K + len(np.unique(block_bv))
    assert peak < detector.nbytes


@pytest.mark.parametrize("lri_source", ["recompute", "log"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 32])
def test_shared_tables_are_bitwise_lane_filter_streams(n, lri_source, monkeypatch):
    # Simulated evidence repeats its (base, bonus) rows and its WOR values,
    # which are k / (window (n + 1)), across block boundaries: later blocks
    # read the table entries that earlier ones used.
    header, sim, _ = small_sim(n=n, seed=90 + n, frames=150)
    rng = np.random.default_rng(90 + n)
    if lri_source == "log":
        header = dataclasses.replace(header, lri_source="log")
        sim = dataclasses.replace(sim, lri=rng.integers(0, 11, len(sim.lri)),
                                  valid=rng.integers(0, 2, len(sim.lri)).astype(np.int8))
    evidence = build_evidence(header, sim)
    steps = RuntimeConfig().lri_window * (n + 1)
    assert np.isin(evidence.wor_frac, np.arange(steps + 1) / steps).all()
    a, b = random_params(rng, n), random_params(rng, n)
    candidates = [a, a.replace(sigma1=b.sigma1, p1=b.p1), b.replace(bv=a.bv), a, b]
    block = 7  # frames per block of the stack; 35 for `a` alone
    monkeypatch.setattr(pipeline, "_BLOCK_CANDIDATE_LANES", block * len(candidates) * n)
    _, row_index, _, wor_index = evidence.distinct
    for index in (row_index, wor_index):
        assert np.intersect1d(index[:block], index[5 * block:]).size > 0
    expected = lane_filter_beliefs(evidence, candidates)
    assert swept_posteriors(evidence, candidates).tobytes() == expected.tobytes()
    single = np.concatenate([posteriors for _, posteriors in pipeline.filter_blocks(
        evidence, [a])])
    assert single.tobytes() == expected[:, 0].tobytes()


def test_tables_beyond_the_cap_are_built_per_chunk(monkeypatch):
    # Every row and WOR value distinct, n = 32 and a stack of 50: the tables
    # of the whole sequence would take 120 x (pairs x 32 + 100) entries, over
    # 8 times the cap, so they are formed per chunk of frames within it.
    n, K, T = 32, 50, 120
    rng = np.random.default_rng(32)
    base = rng.integers(0, 4, (T, n)).astype(float)
    base[:, 0] = np.arange(T)
    evidence = EvidenceStream(
        n=n,
        frame_ids=np.arange(T),
        base=base,
        bonus=rng.integers(0, 2, (T, n)).astype(float),
        wor_frac=rng.uniform(0.0, 1.0, T),
        gt_lane=np.full(T, -1),
        crossing=np.zeros(T, dtype=bool),
    )
    row_frames, _, wor_frames, _ = evidence.distinct
    assert len(row_frames) == len(wor_frames) == T
    candidates = [random_params(rng, n) for _ in range(K)]
    monkeypatch.setattr(pipeline, "_TABLE_ENTRIES", 30_000)
    expected = lane_filter_beliefs(evidence, candidates)
    assert swept_posteriors(evidence, candidates).tobytes() == expected.tobytes()

    def peak_bytes(frames):
        part = dataclasses.replace(evidence, **{
            name: getattr(evidence, name)[:frames]
            for name in ("frame_ids", "base", "bonus", "wor_frac", "gt_lane", "crossing")})
        part.distinct  # grouped once per stream, outside the traced pass
        tracemalloc.start()
        for _ in pipeline.filter_blocks(part, candidates):
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    block = pipeline._BLOCK_CANDIDATE_LANES // (K * n)
    # One block's pass holds the block temporaries; the whole pass adds at
    # most the tables and the operand each is formed from.
    assert peak_bytes(T) <= peak_bytes(block) + 2 * 8 * pipeline._TABLE_ENTRIES


@st.composite
def accepted_sequences(draw):
    """Sequences that read_table accepts: n up to MAX_LANES, empty frames,
    clutter at any offset in bounds, and, for the default thresholds, lane
    widths above their tolerance and logged LRI within their window."""
    n = draw(st.integers(1, MAX_LANES))
    logged = draw(st.booleans())
    cfg = RuntimeConfig()
    window = cfg.lri_window
    line = st.tuples(
        st.floats(-MAX_LINE_OFFSET_M, MAX_LINE_OFFSET_M, exclude_min=True, exclude_max=True)
        | st.sampled_from([0.0, -0.0, 1.75, -1.75]),
        st.booleans(), st.booleans(),
        st.integers(0, window) if logged else st.none(),
        st.booleans() if logged else st.none(),
    )
    frame = st.dictionaries(st.sampled_from("abcdefgh"), line, max_size=8)
    frames = draw(st.lists(st.one_of(st.just({}), frame), max_size=25))
    header = SequenceHeader(n_lanes=n, lane_width_m=draw(st.floats(cfg.compat_tolerance, 5.0, exclude_min=True)),
                            lri_source="log" if logged else "recompute")
    params = random_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return header, make_frames(
        [[(track, *rest) for track, rest in lines.items()] for lines in frames]), params


@given(accepted_sequences())
@settings(max_examples=100)
def test_any_accepted_sequence_runs_to_normalized_marginals(tmp_path_factory, sequence):
    header, frames, params = sequence
    path = tmp_path_factory.getbasetemp() / "accepted.seq"
    write_sequence(path, header, frames)
    read_header, read = read_table(path)
    results = run_sequence(build_evidence(read_header, read), params)
    assert len(results) == len(frames)
    assert np.all(np.abs(results.lane_marginal.sum(axis=1) - 1.0) <= PROB_TOLERANCE)
    assert np.all((results.map_lane >= 1) & (results.map_lane <= header.n_lanes))


def test_run_sequence_deterministic(params3, cfg):
    header, frames, _ = small_sim()
    first = run_sequence(build_evidence(header, table(frames), cfg), params3)
    second = run_sequence(build_evidence(header, table(frames), cfg), params3)
    assert_same_results(first, second)


def test_precomputed_lri_log_path(params3):
    header, sequence = read_table(FIXTURES / "logged_lri.seq")
    results = run_sequence(build_evidence(header, sequence), params3)
    assert len(results) == 1
    # Valid lines at -9.15 (continuous) and -2.15: both vote for lane 3;
    # the bonus lands there too.
    assert results.map_lane[0] == 3
    assert results.tentative[0, 2] > results.tentative[0, 0]
    assert results.wor_frac[0] == 0.65


def test_default_runtime_config_uses_header_width(params3):
    header, frames, _ = small_sim()
    default = build_evidence(header, table(frames))
    explicit = build_evidence(header, table(frames),
                              RuntimeConfig(lane_width=header.lane_width_m))
    assert_same_results(run_sequence(default, params3), run_sequence(explicit, params3))


def test_tuned_preset_on_seeded_sim_byte_identical(tmp_path):
    from lanehmm.dataset_io import write_results
    from lanehmm.model_core import load_preset

    header, frames, _ = simulate(SimConfig(n_lanes=4, duration_frames=500, seed=42))
    params = load_preset("italy-run01")
    paths = []
    for name in ("a.res", "b.res"):
        results = run_sequence(build_evidence(header, table(frames)), params)
        path = tmp_path / name
        write_results(path, header, results)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
