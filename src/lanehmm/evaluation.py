"""Scoring of estimate streams against ground truth.

Per-frame accuracy excludes crossing frames (lane identity is ambiguous
mid-change) and frames without annotation.  The confusion matrix carries
an extra estimate row for "no assignment", which only the detector-only
baseline can produce: the filter always has a MAP lane, a raw detector
genuinely cannot always decide.

An estimate stream is a pair of arrays `(frame_ids, lanes)`, lane 0
meaning no assignment; streams are aligned with the truth by frame id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import SequenceTable
from .errors import ConfigError, LaneHmmError
from .pipeline import EvidenceStream, tentative_matrix

NO_ASSIGNMENT = 0

Estimates = tuple  # (frame_ids, lanes), two (T,) int arrays


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


def detector_baseline(evidence: EvidenceStream, bv: float) -> Estimates:
    """Per-frame argmax of the raw tentative vector, without the filter.

    Emits no assignment when the counters are all zero or the argmax is
    tied: the detector alone cannot break such ties.
    """
    tentative = tentative_matrix(evidence, bv)
    top = tentative == tentative.max(axis=1, keepdims=True)
    decided = (top.sum(axis=1) == 1) & tentative.any(axis=1)
    return evidence.frame_ids, np.where(decided, top.argmax(axis=1) + 1, NO_ASSIGNMENT)


def _lookup(estimates: Estimates, frame_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The estimated lane of each of `frame_ids` (0 where the stream has
    none) and whether the stream has one; a frame estimated twice is a
    ConfigError."""
    ids, lanes = (np.asarray(column, dtype=int) for column in estimates)
    order = np.argsort(ids, kind="stable")
    ids, lanes = ids[order], lanes[order]
    again = np.flatnonzero(ids[1:] == ids[:-1]) + 1
    if len(again):
        first = again[np.argmin(order[again])]  # the repeat that comes first in the stream
        raise ConfigError(f"duplicate estimate for frame {ids[first]}")
    pos = np.searchsorted(ids, frame_ids)
    found = pos < len(ids)
    found[found] = ids[pos[found]] == frame_ids[found]
    aligned = np.full(len(frame_ids), NO_ASSIGNMENT)
    aligned[found] = lanes[pos[found]]
    return aligned, found


def evaluate(estimates: Estimates, truth: SequenceTable, n_lanes: int) -> EvalResult:
    """Score an estimate stream against annotated frames.

    Streams are aligned by frame_id; every annotated non-crossing truth
    frame must have exactly one estimate, or a ConfigError is raised.
    """
    lanes, found = _lookup(estimates, truth.frame_ids)
    scored = ~truth.crossing & (truth.gt > 0)
    missing = np.flatnonzero(scored & ~found)
    if len(missing):
        raise ConfigError(f"no estimate for annotated frame {truth.frame_ids[missing[0]]}")
    lanes = lanes[scored]
    outside = np.flatnonzero((lanes < 0) | (lanes > n_lanes))
    if len(outside):
        raise ConfigError(f"estimated lane {lanes[outside[0]]} outside [1, {n_lanes}]")
    rows = np.where(lanes == NO_ASSIGNMENT, n_lanes, lanes - 1)
    cells = rows * n_lanes + truth.gt[scored] - 1
    confusion = np.bincount(cells, minlength=(n_lanes + 1) * n_lanes)
    confusion = confusion.reshape(n_lanes + 1, n_lanes)
    evaluated = int(confusion.sum())
    correct = int(np.trace(confusion[:n_lanes]))
    accuracy = correct / evaluated if evaluated else 0.0
    return EvalResult(
        n=n_lanes,
        confusion=confusion,
        accuracy=accuracy,
        evaluated=evaluated,
        skipped_crossing=int(truth.crossing.sum()),
        skipped_no_gt=int((~truth.crossing & (truth.gt < 0)).sum()),
    )


def make_timeline(
    truth: SequenceTable, model: Estimates, baseline: Estimates
) -> dict[str, np.ndarray]:
    """Aligned per-frame columns from which transition plots can be drawn.

    Columns frame_id, gt, crossing, baseline and model; lane 0 means no
    annotation or no assignment.
    """
    return {
        "frame_id": truth.frame_ids,
        "gt": np.maximum(truth.gt, 0),
        "crossing": truth.crossing,
        "baseline": _lookup(baseline, truth.frame_ids)[0],
        "model": _lookup(model, truth.frame_ids)[0],
    }


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
