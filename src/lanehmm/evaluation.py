"""Scoring of estimate streams against ground truth.

Per-frame accuracy excludes crossing frames (lane identity is ambiguous
mid-change) and frames without annotation.  The confusion matrix carries
an extra estimate row for "no assignment", which only the detector-only
baseline can produce: the filter always has a MAP lane, a raw detector
genuinely cannot always decide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import FrameRecord
from .errors import ConfigError, LaneHmmError
from .pipeline import EvidenceStream, tentative_matrix

NO_ASSIGNMENT = None


@dataclass(frozen=True)
class EvalResult:
    """Confusion counts and derived metrics for one estimate stream.

    confusion has shape (n+1, n): rows are estimate lane 1..n plus a final
    "no assignment" row, columns are the GT lane.
    """

    n: int
    confusion: np.ndarray
    accuracy: float
    evaluated: int
    skipped_crossing: int
    skipped_no_gt: int

    @property
    def correct(self) -> int:
        return int(np.trace(self.confusion[: self.n]))

    @property
    def category_counts(self) -> np.ndarray:
        """Counts by |estimate - gt|: [correct, off-by-1, ..., off-by-(n-1)]."""
        counts = np.zeros(self.n, dtype=int)
        for i in range(self.n):
            for j in range(self.n):
                counts[abs(i - j)] += self.confusion[i, j]
        return counts

    @property
    def no_assignment_count(self) -> int:
        return int(self.confusion[self.n].sum())

    def to_dict(self) -> dict:
        return {
            "n_lanes": self.n,
            "accuracy": self.accuracy,
            "evaluated": self.evaluated,
            "skipped_crossing": self.skipped_crossing,
            "skipped_no_gt": self.skipped_no_gt,
            "confusion": self.confusion.tolist(),
            "categories": self.category_counts.tolist(),
            "no_assignment": self.no_assignment_count,
        }


def detector_baseline(
    evidence: EvidenceStream, bv: float
) -> list[tuple[int, int | None]]:
    """Per-frame argmax of the raw tentative vector, without the filter.

    Emits no assignment when the counters are all zero or the argmax is
    tied: the detector alone cannot break such ties.
    """
    tentative = tentative_matrix(evidence, bv)
    top = tentative == tentative.max(axis=1, keepdims=True)
    decided = (top.sum(axis=1) == 1) & tentative.any(axis=1)
    lanes = top.argmax(axis=1) + 1
    return [
        (frame_id, lane if ok else NO_ASSIGNMENT)
        for frame_id, lane, ok in zip(
            evidence.frame_ids.tolist(), lanes.tolist(), decided.tolist()
        )
    ]


def evaluate(
    estimates: list[tuple[int, int | None]],
    truth: list[FrameRecord],
    n_lanes: int,
) -> EvalResult:
    """Score an estimate stream against annotated frames.

    Streams are aligned by frame_id; every annotated non-crossing truth
    frame must have exactly one estimate, or a ConfigError is raised.
    """
    by_id: dict[int, int | None] = {}
    for frame_id, lane in estimates:
        if frame_id in by_id:
            raise ConfigError(f"duplicate estimate for frame {frame_id}")
        by_id[frame_id] = lane
    confusion = np.zeros((n_lanes + 1, n_lanes), dtype=int)
    skipped_crossing = 0
    skipped_no_gt = 0
    for frame in truth:
        if frame.crossing:
            skipped_crossing += 1
            continue
        if frame.gt_lane is None:
            skipped_no_gt += 1
            continue
        if frame.frame_id not in by_id:
            raise ConfigError(f"no estimate for annotated frame {frame.frame_id}")
        lane = by_id[frame.frame_id]
        row = n_lanes if lane is None else lane - 1
        confusion[row, frame.gt_lane - 1] += 1
    evaluated = int(confusion.sum())
    correct = int(np.trace(confusion[:n_lanes]))
    accuracy = correct / evaluated if evaluated else 0.0
    return EvalResult(
        n=n_lanes,
        confusion=confusion,
        accuracy=accuracy,
        evaluated=evaluated,
        skipped_crossing=skipped_crossing,
        skipped_no_gt=skipped_no_gt,
    )


@dataclass(frozen=True)
class TimelineRow:
    frame_id: int
    gt_lane: int | None
    crossing: bool
    baseline: int | None
    model: int | None


def make_timeline(
    truth: list[FrameRecord],
    model_estimates: list[tuple[int, int | None]],
    baseline_estimates: list[tuple[int, int | None]],
) -> list[TimelineRow]:
    """Aligned per-frame table from which transition plots can be drawn."""
    model_by_id = dict(model_estimates)
    baseline_by_id = dict(baseline_estimates)
    return [
        TimelineRow(
            frame_id=frame.frame_id,
            gt_lane=frame.gt_lane,
            crossing=frame.crossing,
            baseline=baseline_by_id.get(frame.frame_id),
            model=model_by_id.get(frame.frame_id),
        )
        for frame in truth
    ]


@dataclass
class ComparisonReport:
    model: EvalResult
    baseline: EvalResult

    @property
    def accuracy_delta(self) -> float:
        return self.model.accuracy - self.baseline.accuracy

    def to_dict(self) -> dict:
        model_cats = self.model.category_counts
        baseline_cats = self.baseline.category_counts
        return {
            "model": self.model.to_dict(),
            "baseline": self.baseline.to_dict(),
            "accuracy_delta": self.accuracy_delta,
            "category_deltas": (model_cats - baseline_cats).tolist(),
            "no_assignment_delta": self.model.no_assignment_count
            - self.baseline.no_assignment_count,
        }

    def render_text(self) -> str:
        lines = [
            f"{'':>14} {'model':>10} {'baseline':>10} {'delta':>10}",
            f"{'accuracy':>14} {self.model.accuracy:>10.4f} "
            f"{self.baseline.accuracy:>10.4f} {self.accuracy_delta:>+10.4f}",
        ]
        model_cats = self.model.category_counts
        baseline_cats = self.baseline.category_counts
        for k in range(self.model.n):
            label = "correct" if k == 0 else f"off-by-{k}"
            lines.append(
                f"{label:>14} {model_cats[k]:>10d} {baseline_cats[k]:>10d} "
                f"{model_cats[k] - baseline_cats[k]:>+10d}"
            )
        lines.append(
            f"{'no-assignment':>14} {self.model.no_assignment_count:>10d} "
            f"{self.baseline.no_assignment_count:>10d} "
            f"{self.model.no_assignment_count - self.baseline.no_assignment_count:>+10d}"
        )
        lines.append(f"evaluated frames: {self.model.evaluated}")
        return "\n".join(lines)


def compare(model: EvalResult, baseline: EvalResult) -> ComparisonReport:
    """Side-by-side report; both results must cover the same frames."""
    if model.evaluated != baseline.evaluated:
        raise LaneHmmError(
            f"streams cover different frame counts "
            f"({model.evaluated} vs {baseline.evaluated})"
        )
    return ComparisonReport(model=model, baseline=baseline)
