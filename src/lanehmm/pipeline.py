"""End-to-end composition: detector log -> evidence -> filter -> results.

The inverse-sensor pass runs once per sequence into an EvidenceStream:
the geometry and LRI passes do not depend on the HMM parameters (except
for the bonus value, which enters linearly), so the filter, the
detector-only baseline and every tuner candidate share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import FrameRecord, ResultRecord, SequenceHeader
from .errors import ConfigError
from .filtering import LaneFilter
from .inverse_sensor import (
    LriTracker,
    compute_wor,
    normalize_tentative,
    tentative_parts,
)
from .model_core import HmmParams, RuntimeConfig


@dataclass(frozen=True)
class EvidenceStream:
    """Per-frame soft-evidence ingredients for one sequence.

    `base + bv * bonus` reproduces the tentative vector of every frame for
    any bonus value; gt_lane is -1 where the frame is unannotated.
    """

    n: int
    frame_ids: np.ndarray  # (T,)
    base: np.ndarray       # (T, n)
    bonus: np.ndarray      # (T, n)
    wor_frac: np.ndarray   # (T,)
    gt_lane: np.ndarray    # (T,)
    crossing: np.ndarray   # (T,)

    def __len__(self) -> int:
        return len(self.frame_ids)


def _tracked_lines(header: SequenceHeader, frames: list[FrameRecord], cfg: RuntimeConfig):
    """Yield (frame, tracked-lines) with LRI recomputed or taken from the log."""
    if header.lri_source == "log":
        for frame in frames:
            yield frame, [entry.to_tracked() for entry in frame.lines]
    else:
        tracker = LriTracker(cfg)
        for frame in frames:
            observations = [entry.to_observation() for entry in frame.lines]
            yield frame, tracker.update(observations)


def build_evidence(
    header: SequenceHeader, frames: list[FrameRecord], cfg: RuntimeConfig | None = None
) -> EvidenceStream:
    """Run the inverse sensor model over a whole sequence.

    `cfg` defaults to the standard thresholds at the header's lane width.
    """
    if cfg is None:
        cfg = RuntimeConfig(lane_width=header.lane_width_m)
    n = header.n_lanes
    T = len(frames)
    frame_ids = np.empty(T, dtype=int)
    base = np.empty((T, n))
    bonus = np.empty((T, n))
    wor_frac = np.empty(T)
    gt = np.full(T, -1, dtype=int)
    crossing = np.zeros(T, dtype=bool)
    for t, (frame, tracked) in enumerate(_tracked_lines(header, frames, cfg)):
        frame_ids[t] = frame.frame_id
        base[t], bonus[t] = tentative_parts(tracked, n, cfg)
        wor_frac[t] = compute_wor(tracked, n, cfg)
        if frame.gt_lane is not None:
            gt[t] = frame.gt_lane
        crossing[t] = frame.crossing
    return EvidenceStream(
        n=n, frame_ids=frame_ids, base=base, bonus=bonus,
        wor_frac=wor_frac, gt_lane=gt, crossing=crossing,
    )


def tentative_matrix(evidence: EvidenceStream, bv, rows=slice(None)) -> np.ndarray:
    """The tentative vectors `base + bv * bonus` of the selected frames.

    Shape (T, n) for one bonus value over all frames; for one frame index
    and a (K, 1) column of bonus values, that frame's K vectors, (K, n).
    """
    return evidence.base[rows] + bv * evidence.bonus[rows]


def wor_matrix(evidence: EvidenceStream) -> np.ndarray:
    """The WOR pair (OK, BAD) = (frac, 1 - frac) of every frame, shape (T, 2)."""
    return np.stack([evidence.wor_frac, 1.0 - evidence.wor_frac], axis=1)


def run_sequence(evidence: EvidenceStream, params: HmmParams) -> list[ResultRecord]:
    """Filter a sequence's evidence frame by frame and collect per-frame estimates."""
    if params.n != evidence.n:
        raise ConfigError(
            f"parameter lane count {params.n} conflicts with sequence lane count "
            f"{evidence.n}"
        )
    lane_filter = LaneFilter(params)
    tentative = tentative_matrix(evidence, params.bv)
    wor = wor_matrix(evidence)
    results = []
    for t, frame_id in enumerate(evidence.frame_ids.tolist()):
        estimate = lane_filter.step(normalize_tentative(tentative[t], params.n), wor[t])
        results.append(
            ResultRecord(
                frame_id=frame_id,
                map_lane=estimate.map_lane,
                lane_marginal=tuple(estimate.lane_marginal.tolist()),
                sensor_ok_prob=estimate.sensor_ok_prob,
                tentative=tuple(tentative[t].tolist()),
                wor_frac=float(evidence.wor_frac[t]),
            )
        )
    return results
