import json

import numpy as np
import pytest

from lanehmm.dataset_io import FrameRecord, LineEntry, SequenceHeader, SequenceTable
from lanehmm.errors import LaneHmmError
from lanehmm.evaluation import (
    compare,
    detector_baseline,
    evaluate,
    make_timeline,
)
from lanehmm.model_core import HmmParams
from lanehmm.pipeline import build_evidence


def frame(fid, gt=None, crossing=False, lines=()):
    return FrameRecord(frame_id=fid, timestamp_s=0.1 * fid, lines=tuple(lines),
                       gt_lane=gt, crossing=crossing)


def logged_line(offset, continuous=False, valid=True, lri=10):
    return LineEntry(track_id=f"t{offset}", offset_m=offset, continuous=continuous,
                     detected=True, lri=lri, is_valid=valid)


def pairs(estimates):
    """An estimate stream as (frame_id, lane or None) pairs."""
    frame_ids, lanes = estimates
    return [(i, lane or None) for i, lane in zip(frame_ids.tolist(), lanes.tolist())]


def score(estimates, truth, n_lanes):
    """evaluate() on (frame_id, lane or None) pairs and truth frames."""
    frame_ids = np.array([i for i, _ in estimates], dtype=int)
    lanes = np.array([lane or 0 for _, lane in estimates], dtype=int)
    return evaluate((frame_ids, lanes), SequenceTable.from_frames(truth), n_lanes)


def baseline(frames, params, cfg, lri_source="recompute"):
    header = SequenceHeader(n_lanes=params.n, lri_source=lri_source)
    evidence = build_evidence(header, SequenceTable.from_frames(frames), cfg)
    return pairs(detector_baseline(evidence, params.bv))


# --- detector baseline --------------------------------------------------------

def test_baseline_tie_is_no_assignment(params3, cfg):
    frames = [frame(0, lines=[logged_line(-5.25)])]
    estimates = baseline(frames, params3, cfg, lri_source="log")
    assert estimates == [(0, None)]  # tentative [0,1,1] is tied


def test_baseline_bonus_breaks_tie(cfg):
    params = HmmParams(n=3, sigma1=0.4, sigma2=0.4, p1=0.9, p2=0.9, p3=0.8, p4=0.8, bv=7)
    frames = [frame(0, lines=[logged_line(-1.75, continuous=True)])]
    estimates = baseline(frames, params, cfg, lri_source="log")
    assert estimates == [(0, 1)]  # tentative [8,1,1]


def test_baseline_empty_frame_is_no_assignment(params3, cfg):
    assert baseline([frame(0)], params3, cfg) == [(0, None)]


def test_baseline_recomputes_lri_by_default(params3, cfg):
    line = LineEntry(track_id="a", offset_m=-5.25, continuous=False, detected=True)
    frames = [frame(i, lines=[line]) for i in range(12)]
    estimates = baseline(frames, params3, cfg)
    # Under recompute the line only becomes valid once the window fills.
    assert estimates[0] == (0, None)
    assert estimates[-1] == (11, None)  # [0,1,1] tie once valid
    frames2 = [frame(i, lines=[logged_line(-8.75)]) for i in range(2)]
    assert baseline(frames2, params3, cfg, lri_source="log") == [(0, 3), (1, 3)]


def test_baseline_matches_per_frame_argmax(cfg):
    from lanehmm.simulator import SimConfig, simulate

    header, frames, _ = simulate(SimConfig(n_lanes=4, duration_frames=600, seed=54,
                                           offset_noise_sd_m=0.4, fail_prob=0.1))
    evidence = build_evidence(header, SequenceTable.from_frames(frames), cfg)
    for bv in (0.0, 1.0, 7.0):
        expected = []
        for t in range(len(evidence)):
            tv = evidence.base[t] + bv * evidence.bonus[t]
            best = tv.max()
            tied = best == 0.0 or np.count_nonzero(tv == best) > 1
            expected.append((frames[t].frame_id, None if tied else int(np.argmax(tv)) + 1))
        assert pairs(detector_baseline(evidence, bv)) == expected
        assert any(lane is None for _, lane in expected)
        assert any(lane is not None for _, lane in expected)


# --- evaluate -------------------------------------------------------------------

def test_perfect_estimates_diagonal():
    truth = [frame(i, gt=1 + i % 3) for i in range(30)]
    estimates = [(f.frame_id, f.gt_lane) for f in truth]
    result = score(estimates, truth, 3)
    assert result.accuracy == 1.0
    assert result.evaluated == 30
    assert np.array_equal(np.diag(result.confusion[:3]), [10, 10, 10])
    assert result.confusion.sum() == np.trace(result.confusion[:3])


def test_all_no_assignment():
    truth = [frame(i, gt=2) for i in range(10)]
    estimates = [(i, None) for i in range(10)]
    result = score(estimates, truth, 3)
    assert result.accuracy == 0.0
    assert result.no_assignment_count == 10
    assert result.confusion[3, 1] == 10


def test_hand_built_ten_frame_fixture():
    # 2 crossing, 6 correct, 1 off-by-one, 1 none -> 0.75 over 8 evaluated
    truth = [frame(i, gt=2, crossing=i in (3, 7)) for i in range(10)]
    estimates = []
    for i in range(10):
        if i == 0:
            estimates.append((i, 3))       # off by one
        elif i == 1:
            estimates.append((i, None))    # no assignment
        else:
            estimates.append((i, 2))       # correct (crossing ones ignored)
    result = score(estimates, truth, 3)
    assert result.evaluated == 8
    assert result.accuracy == pytest.approx(0.75)
    assert result.skipped_crossing == 2
    assert result.category_counts[1] == 1
    assert result.no_assignment_count == 1


def test_frame_accounting_invariant():
    rng = np.random.default_rng(51)
    truth = []
    estimates = []
    for i in range(300):
        gt = int(rng.integers(1, 4)) if rng.random() < 0.8 else None
        truth.append(frame(i, gt=gt, crossing=bool(rng.random() < 0.2)))
        lane = int(rng.integers(1, 4)) if rng.random() < 0.9 else None
        estimates.append((i, lane))
    result = score(estimates, truth, 3)
    assert result.evaluated + result.skipped_crossing + result.skipped_no_gt == 300


def test_category_histogram_cross_check():
    rng = np.random.default_rng(52)
    truth = [frame(i, gt=int(rng.integers(1, 5))) for i in range(500)]
    estimates = [
        (i, int(rng.integers(1, 5)) if rng.random() < 0.9 else None) for i in range(500)
    ]
    result = score(estimates, truth, 4)
    # Independent recount straight from the streams.
    direct = np.zeros(4, dtype=int)
    none_count = 0
    by_id = dict(estimates)
    for f in truth:
        est = by_id[f.frame_id]
        if est is None:
            none_count += 1
        else:
            direct[abs(est - f.gt_lane)] += 1
    assert np.array_equal(result.category_counts, direct)
    assert result.no_assignment_count == none_count
    assert result.category_counts.sum() + result.no_assignment_count == result.evaluated


def test_order_insensitive():
    rng = np.random.default_rng(53)
    truth = [frame(i, gt=1 + i % 2) for i in range(50)]
    estimates = [(i, 1 + (i + 1) % 2) for i in range(50)]
    base = score(estimates, truth, 2)
    shuffled_truth = list(truth)
    shuffled_est = list(estimates)
    rng.shuffle(shuffled_truth)
    rng.shuffle(shuffled_est)
    again = score(shuffled_est, shuffled_truth, 2)
    assert np.array_equal(base.confusion, again.confusion)
    assert base.accuracy == again.accuracy


def test_misaligned_streams_error():
    truth = [frame(0, gt=1), frame(1, gt=1)]
    with pytest.raises(LaneHmmError, match="no estimate"):
        score([(0, 1)], truth, 2)
    with pytest.raises(LaneHmmError, match="duplicate"):
        score([(0, 1), (0, 2)], truth, 2)


def test_alignment_names_the_first_gap_and_the_first_repeat():
    truth = [frame(i, gt=1) for i in range(4)]
    with pytest.raises(LaneHmmError, match="no estimate for annotated frame 1$"):
        score([(0, 1), (2, 1), (3, 1)], truth, 2)
    # The stream repeats frame 5 before frame 3.
    with pytest.raises(LaneHmmError, match="duplicate estimate for frame 5$"):
        score([(5, 1), (5, 2), (3, 1), (3, 2)], truth, 2)


# --- compare ---------------------------------------------------------------------

def test_compare_identical_zero_deltas():
    truth = [frame(i, gt=1) for i in range(20)]
    estimates = [(i, 1) for i in range(20)]
    result = score(estimates, truth, 2)
    report = compare(result, result)
    assert report.accuracy_delta == 0.0
    assert report.to_dict()["category_deltas"] == [0, 0]


def test_compare_accuracy_delta():
    truth = [frame(i, gt=1) for i in range(10)]
    model = score([(i, 1 if i < 9 else 2) for i in range(10)], truth, 2)
    baseline = score([(i, 1 if i < 6 else None) for i in range(10)], truth, 2)
    report = compare(model, baseline)
    assert report.accuracy_delta == pytest.approx(0.3)


def test_compare_report_round_trips_machine_readable():
    truth = [frame(i, gt=1 + i % 3) for i in range(30)]
    model = score([(i, 1 + i % 3) for i in range(30)], truth, 3)
    baseline = score([(i, None) for i in range(30)], truth, 3)
    report = compare(model, baseline)
    as_dict = report.to_dict()
    assert json.loads(json.dumps(as_dict, sort_keys=True)) == as_dict
    rendered = report.render_text()
    assert "accuracy" in rendered and "no-assignment" in rendered


def test_compare_rejects_mismatched_coverage():
    truth_a = [frame(i, gt=1) for i in range(10)]
    truth_b = [frame(i, gt=1) for i in range(8)]
    a = score([(i, 1) for i in range(10)], truth_a, 2)
    b = score([(i, 1) for i in range(8)], truth_b, 2)
    with pytest.raises(LaneHmmError):
        compare(a, b)


def test_timeline_rows():
    truth = SequenceTable.from_frames([frame(0, gt=2), frame(1, gt=2, crossing=True)])
    rows = make_timeline(truth, (np.array([0, 1]), np.array([2, 3])),
                         (np.array([0, 1]), np.array([0, 2])))
    assert rows["model"][0] == 2 and rows["baseline"][0] == 0 and not rows["crossing"][0]
    assert rows["crossing"][1] and rows["model"][1] == 3
