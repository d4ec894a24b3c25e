"""Inverse sensor model: from raw line detections to soft evidence.

Turns per-frame line observations into two pieces of evidence for the
filter: a tentative vector of plausibility counters over lanes, and a
whole-output reliability (WOR) fraction for the detector's health.  Line
validity is gated by a reliability index (LRI) counted over a sliding
window with hysteresis.

These functions work one frame at a time; `pipeline.build_evidence`
computes the same quantities for a whole sequence at once, and they are
its bit-exact reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model_core import RuntimeConfig

MAX_LINE_OFFSET_M = 50.0


@dataclass(frozen=True)
class RawLineObservation:
    """One road line as reported by the upstream detector/tracker.

    Offsets are signed lateral distances in meters, negative to the left
    of the vehicle.  Track identity is assigned by the upstream tracker.
    """

    track_id: str
    offset_m: float
    continuous: bool
    detected: bool

    def __post_init__(self) -> None:
        if not np.isfinite(self.offset_m) or abs(self.offset_m) >= MAX_LINE_OFFSET_M:
            raise ValueError(f"line offset out of sanity bounds: {self.offset_m}")


@dataclass(frozen=True)
class TrackedLine:
    """A line with its current reliability state attached."""

    track_id: str
    offset_m: float
    continuous: bool
    lri: int
    is_valid: bool


class LriTracker:
    """Per-sequence line reliability tracker.

    Keeps one detection history per track id over the last `lri_window`
    frames.  The LRI is the detection count in that window.  A line
    becomes valid when its LRI saturates the window and stays valid until
    the LRI drops below `hysteresis_fraction * lri_window`.

    Single-writer: one tracker instance per sequence.
    """

    def __init__(self, cfg: RuntimeConfig):
        self.cfg = cfg
        self._history: dict[str, deque] = {}
        self._valid: dict[str, bool] = {}

    def update(self, lines: list[RawLineObservation]) -> list[TrackedLine]:
        """Advance one frame and return the reported lines with LRI state.

        Tracks not mentioned in this frame accumulate a miss; unknown
        track ids start a fresh history.
        """
        window = self.cfg.lri_window
        reported = {}
        for line in lines:
            if line.track_id in reported:
                raise ValueError(f"track id {line.track_id!r} reported twice in one frame")
            reported[line.track_id] = line

        for track_id in self._history.keys() | reported.keys():
            history = self._history.get(track_id)
            if history is None:
                history = deque(maxlen=window)
                self._history[track_id] = history
                self._valid[track_id] = False
            line = reported.get(track_id)
            history.append(bool(line is not None and line.detected))

        drop_below = self.cfg.hysteresis_fraction * window
        out = []
        for line in lines:
            lri = sum(self._history[line.track_id])
            was_valid = self._valid[line.track_id]
            if was_valid:
                valid = lri >= drop_below
            else:
                valid = lri >= window
            self._valid[line.track_id] = valid
            out.append(
                TrackedLine(
                    track_id=line.track_id,
                    offset_m=line.offset_m,
                    continuous=line.continuous,
                    lri=lri,
                    is_valid=valid,
                )
            )
        # Hysteresis state must advance for unreported tracks too, or a
        # track could stay latched valid across a long gap.
        for track_id, history in self._history.items():
            if track_id not in reported and self._valid[track_id]:
                self._valid[track_id] = sum(history) >= drop_below
        # Drop fully decayed tracks; re-creating one later is behaviorally
        # identical to keeping its all-miss history.
        dead = [
            track_id
            for track_id, history in self._history.items()
            if track_id not in reported
            and not self._valid[track_id]
            and not any(history)
        ]
        for track_id in dead:
            del self._history[track_id]
            del self._valid[track_id]
        return out


def expected_boundary_offsets(lane: int, n: int, lane_width: float) -> np.ndarray:
    """Offsets of all n+1 boundary lines seen from the center of `lane`.

    Boundary j = 0 is the left road edge, j = n the right; lane 1 is the
    leftmost lane.
    """
    if not 1 <= lane <= n:
        raise ValueError(f"lane must lie in [1, {n}], got {lane}")
    j = np.arange(n + 1)
    return (j - lane + 0.5) * lane_width


def line_compatible(offset_m: float, lane: int, n: int, cfg: RuntimeConfig) -> bool:
    """True if a line at `offset_m` matches some boundary of the lane hypothesis."""
    expected = expected_boundary_offsets(lane, n, cfg.lane_width)
    return bool(np.min(np.abs(offset_m - expected)) <= cfg.compat_tolerance)


def implied_lane_from_continuous(offset_m: float, n: int, cfg: RuntimeConfig) -> int | None:
    """Lane implied by a continuous line, assuming it marks a road edge.

    A continuous line on the left is read as boundary 0, on the right as
    boundary n; the distance then implies a single lane index, clamped to
    the roadway.  A zero offset implies nothing.
    """
    if offset_m == 0.0:
        return None
    if offset_m < 0.0:
        lane = round(0.5 - offset_m / cfg.lane_width)
    else:
        lane = round(n + 0.5 - offset_m / cfg.lane_width)
    return int(min(max(lane, 1), n))


def tentative_parts(
    lines: list[TrackedLine], n: int, cfg: RuntimeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate the per-frame plausibility counters over lanes.

    Every valid line adds 1 to each lane hypothesis compatible with its
    offset; a valid continuous line additionally adds the bonus value to
    the single lane it implies as a road edge.  Invalid lines contribute
    nothing.  An all-zero vector means "no information".

    Returns the two parts (base, bonus): base counts the +1 compatibility
    votes, bonus counts the continuous-line edge votes.  The tentative
    vector is base + bv * bonus; keeping the parts separate lets the tuner
    sweep bv without redoing the geometry.
    """
    base = np.zeros(n)
    bonus = np.zeros(n)
    for line in sorted(lines, key=lambda l: l.offset_m):
        if not line.is_valid:
            continue
        for lane in range(1, n + 1):
            if line_compatible(line.offset_m, lane, n, cfg):
                base[lane - 1] += 1.0
        if line.continuous:
            implied = implied_lane_from_continuous(line.offset_m, n, cfg)
            if implied is not None:
                bonus[implied - 1] += 1.0
    return base, bonus


def compute_wor(lines: list[TrackedLine], n: int, cfg: RuntimeConfig) -> float:
    """Whole-output reliability (WOR): the belief that the detector is OK.

    The accumulated LRI of all reported lines is taken as a fraction of
    the maximum achievable: a full window on each of the n+1 boundary
    lines of an n-lane road.  The belief that it is BAD is 1 minus this.
    """
    total = sum(line.lri for line in lines)
    return min(max(total / (cfg.lri_window * (n + 1)), 0.0), 1.0)


def normalize_tentative(tentative: np.ndarray, n: int) -> np.ndarray:
    """Counters to a lane distribution; all-zero becomes uniform (uninformative).

    Normalizes along the last axis, so a stack of K vectors works too.
    """
    tentative = np.asarray(tentative, dtype=float)
    total = tentative.sum(axis=-1, keepdims=True)
    empty = total == 0.0
    return np.where(empty, 1.0 / n, tentative / np.where(empty, 1.0, total))
