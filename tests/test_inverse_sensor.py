import numpy as np
import pytest

from lanehmm.inverse_sensor import (
    LriTracker,
    RawLineObservation,
    TrackedLine,
    compute_wor,
    expected_boundary_offsets,
    implied_lane_from_continuous,
    line_compatible,
    normalize_tentative,
    tentative_parts,
)
from lanehmm.model_core import HmmParams

from conftest import tentative


def obs(track, detected, offset=0.0, continuous=False):
    return RawLineObservation(
        track_id=track, offset_m=offset, continuous=continuous, detected=detected
    )


def valid_line(offset, continuous=False, lri=10, ok=True):
    return TrackedLine(
        track_id="x", offset_m=offset, continuous=continuous, lri=lri, is_valid=ok
    )


# --- LRI tracking -------------------------------------------------------------

def test_full_window_sets_valid(cfg):
    tracker = LriTracker(cfg)
    for _ in range(10):
        (line,) = tracker.update([obs("a", True)])
    assert line.lri == 10 and line.is_valid


def test_hysteresis_keeps_valid_at_seven(cfg):
    tracker = LriTracker(cfg)
    for _ in range(10):
        tracker.update([obs("a", True)])
    for _ in range(3):
        (line,) = tracker.update([obs("a", False)])
    assert line.lri == 7 and line.is_valid


def test_never_valid_at_nine(cfg):
    tracker = LriTracker(cfg)
    seen = []
    for k in range(12):
        (line,) = tracker.update([obs("a", k != 5)])
        seen.append(line)
    assert seen[-1].lri == 9
    assert not any(line.is_valid for line in seen)


def test_unknown_track_starts_fresh(cfg):
    tracker = LriTracker(cfg)
    first, second = tracker.update([obs("new", True), obs("other", False)])
    assert first.lri == 1 and not first.is_valid
    assert second.lri == 0 and not second.is_valid


def test_valid_drops_below_half_window(cfg):
    tracker = LriTracker(cfg)
    for _ in range(10):
        tracker.update([obs("a", True)])
    lines = [tracker.update([obs("a", False)])[0] for _ in range(6)]
    assert [l.lri for l in lines] == [9, 8, 7, 6, 5, 4]
    assert [l.is_valid for l in lines] == [True, True, True, True, True, False]


def test_absent_track_decays_and_must_requalify(cfg):
    tracker = LriTracker(cfg)
    for _ in range(10):
        tracker.update([obs("a", True)])
    for _ in range(10):  # track vanishes entirely
        tracker.update([])
    (line,) = tracker.update([obs("a", True)])
    assert line.lri == 1 and not line.is_valid


def test_duplicate_track_in_frame_rejected(cfg):
    tracker = LriTracker(cfg)
    with pytest.raises(ValueError):
        tracker.update([obs("a", True), obs("a", True)])


class ReferenceTracker:
    """Straightforward two-threshold reference for the hysteresis fuzzer."""

    def __init__(self, window, fraction):
        self.window = window
        self.fraction = fraction
        self.history = []
        self.valid = False

    def push(self, detected):
        self.history.append(bool(detected))
        lri = sum(self.history[-self.window:])
        if not self.valid and lri >= self.window:
            self.valid = True
        elif self.valid and lri < self.fraction * self.window:
            self.valid = False
        return lri, self.valid


def test_hysteresis_fuzzer_matches_reference(cfg):
    rng = np.random.default_rng(3)
    for _ in range(200):
        tracker = LriTracker(cfg)
        reference = ReferenceTracker(cfg.lri_window, cfg.hysteresis_fraction)
        flips = 0
        crossings = 0
        prev_valid = False
        prev_lri = 0
        for detected in rng.random(80) < rng.uniform(0.2, 0.95):
            (line,) = tracker.update([obs("a", bool(detected))])
            ref_lri, ref_valid = reference.push(detected)
            assert (line.lri, line.is_valid) == (ref_lri, ref_valid)
            if line.is_valid != prev_valid:
                flips += 1
            if line.lri >= cfg.lri_window > prev_lri:
                crossings += 1
            if prev_lri >= cfg.hysteresis_fraction * cfg.lri_window > line.lri:
                crossings += 1
            prev_valid, prev_lri = line.is_valid, line.lri
        assert flips <= crossings


# --- geometry ------------------------------------------------------------------

def test_boundary_offsets_single_lane():
    assert np.allclose(expected_boundary_offsets(1, 1, 3.5), [-1.75, 1.75])


def test_boundary_offsets_middle_of_three():
    assert np.allclose(
        expected_boundary_offsets(2, 3, 3.5), [-5.25, -1.75, 1.75, 5.25]
    )


def test_boundary_offsets_rightmost_of_three():
    assert np.allclose(
        expected_boundary_offsets(3, 3, 3.5), [-8.75, -5.25, -1.75, 1.75]
    )


def test_line_compatible_examples(cfg):
    assert line_compatible(-5.25, 2, 3, cfg)
    assert not line_compatible(-5.25, 1, 3, cfg)
    for lane in (1, 2, 3):
        assert not line_compatible(0.0, lane, 3, cfg)


def test_implied_lane_examples(cfg):
    assert implied_lane_from_continuous(-1.75, 3, cfg) == 1
    assert implied_lane_from_continuous(+1.75, 3, cfg) == 3
    assert implied_lane_from_continuous(-9.15, 3, cfg) == 3
    assert implied_lane_from_continuous(0.0, 3, cfg) is None


# --- tentative vector -----------------------------------------------------------

def test_single_dashed_line_votes_adjacent_lanes(params3, cfg):
    tv = tentative([valid_line(-5.25)], params3, cfg)
    assert np.array_equal(tv, [0, 1, 1])
    assert np.array_equal(normalize_tentative(tv, 3), [0, 0.5, 0.5])


def test_no_valid_lines_gives_zero_vector(params3, cfg):
    assert np.array_equal(tentative([], params3, cfg), [0, 0, 0])
    invalid = valid_line(-5.25, ok=False, lri=3)
    assert np.array_equal(tentative([invalid], params3, cfg), [0, 0, 0])


def test_continuous_line_gets_bonus(cfg):
    params = HmmParams(n=3, sigma1=0.4, sigma2=0.4, p1=0.9, p2=0.9, p3=0.8, p4=0.8, bv=7)
    # A line half a lane-width to the left matches a boundary of every lane
    # hypothesis (road edge for lane 1, an interior boundary otherwise), so
    # each lane gets a compatibility vote; the bonus singles out lane 1.
    tv = tentative([valid_line(-1.75, continuous=True)], params, cfg)
    assert np.array_equal(tv, [8, 1, 1])


def test_tentative_order_invariant(params3, cfg):
    rng = np.random.default_rng(5)
    for _ in range(50):
        lines = [
            valid_line(float(rng.uniform(-12, 12)), continuous=bool(rng.integers(2)),
                       ok=bool(rng.integers(2)))
            for _ in range(rng.integers(0, 6))
        ]
        expected = tentative(lines, params3, cfg)
        shuffled = list(lines)
        rng.shuffle(shuffled)
        assert np.array_equal(tentative(shuffled, params3, cfg), expected)


def test_tentative_counters_bounded(params3, cfg):
    rng = np.random.default_rng(6)
    for _ in range(50):
        lines = [
            valid_line(float(rng.uniform(-12, 12)), continuous=bool(rng.integers(2)))
            for _ in range(rng.integers(0, 6))
        ]
        tv = tentative(lines, params3, cfg)
        assert np.all(tv <= len(lines) * (1 + params3.bv))


def test_tentative_parts_decomposition(cfg):
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        lines = [
            valid_line(float(rng.uniform(-12, 12)), continuous=bool(rng.integers(2)),
                       ok=bool(rng.integers(2)))
            for _ in range(rng.integers(0, 6))
        ]
        valid = [line for line in lines if line.is_valid]
        base, bonus = tentative_parts(lines, n, cfg)
        for lane in range(1, n + 1):
            assert base[lane - 1] == sum(
                line_compatible(line.offset_m, lane, n, cfg) for line in valid
            )
        assert bonus.sum() == sum(
            line.continuous and line.offset_m != 0.0 for line in valid
        )


# --- WOR -------------------------------------------------------------------------

def test_wor_from_logged_lri_values(cfg):
    lines = [
        valid_line(-9.15, lri=10),
        valid_line(-6.47, lri=9, ok=False),
        valid_line(-2.15, lri=7),
        valid_line(+0.99, lri=0, ok=False),
    ]
    assert compute_wor(lines, 3, cfg) == 0.65


def test_wor_extremes(cfg):
    full = [valid_line(float(j), lri=10) for j in range(4)]
    assert compute_wor(full, 3, cfg) == 1.0
    assert compute_wor([], 3, cfg) == 0.0


def test_wor_clamped_with_extra_lines(cfg):
    crowded = [valid_line(float(j), lri=10) for j in range(7)]
    assert compute_wor(crowded, 3, cfg) == 1.0


def test_wor_sums_to_one_random(cfg):
    rng = np.random.default_rng(13)
    for _ in range(100):
        lines = [
            valid_line(float(j), lri=int(rng.integers(0, 11)))
            for j in range(rng.integers(0, 8))
        ]
        # In [0, 1], so the WOR pair (frac, 1 - frac) is a distribution.
        frac = compute_wor(lines, int(rng.integers(1, 6)), cfg)
        assert type(frac) is float and 0.0 <= frac <= 1.0


# --- normalization ---------------------------------------------------------------

def test_normalize_examples():
    assert np.array_equal(normalize_tentative(np.array([0.0, 1, 1]), 3), [0, 0.5, 0.5])
    assert np.array_equal(normalize_tentative(np.zeros(3), 3), [1 / 3] * 3)
    assert np.array_equal(normalize_tentative(np.array([8.0, 0, 0]), 3), [1, 0, 0])


def test_observation_sanity_bound():
    with pytest.raises(ValueError):
        RawLineObservation(track_id="a", offset_m=60.0, continuous=False, detected=True)
    with pytest.raises(ValueError):
        RawLineObservation(track_id="a", offset_m=float("nan"), continuous=False, detected=True)
