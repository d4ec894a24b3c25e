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
from .errors import ConfigError, SequenceFormatError
from .filtering import LaneFilter
from .inverse_sensor import MAX_LINE_OFFSET_M, normalize_tentative
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


def _recomputed_lri(entries, frame_idx, T, cfg):
    """LRI and validity of every line entry, as `LriTracker` would give them.

    The LRI of a track at frame t counts its detections in (t - window, t].
    Validity latches on at `lri >= window` and off at `lri < drop_below`:
    a line is valid iff its track's last full window comes after its last
    frame below the drop threshold.  Between two reports of a track the LRI
    only falls, so the latch needs the LRI at each report and in the frame
    before it, and memory stays O(line entries).
    """
    window = cfg.lri_window
    stride = T + window  # no window reaching back from a track's keys meets another track
    codes: dict[str, int] = {}
    keys = np.fromiter((codes.setdefault(e.track_id, len(codes)) for e in entries),
                       int, len(entries))
    keys *= stride
    keys += frame_idx
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeats = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    if len(repeats):
        first = repeats[np.argmin(order[repeats])]
        raise ValueError(
            f"track id {list(codes)[keys[first] // stride]!r} reported twice in one frame"
        )
    det = np.fromiter((e.detected for e in entries), bool, len(entries))
    det_keys = keys[det[order]]
    lri = np.searchsorted(det_keys, keys, "right")
    before = np.searchsorted(det_keys, keys, "left")  # LRI in the frame before
    keys -= window  # where each window starts
    lri -= np.searchsorted(det_keys, keys, "right")
    before -= np.searchsorted(det_keys, keys, "left")
    # Each temporary goes as soon as it is used: these L-sized arrays, not
    # the arithmetic, set the pass's share of peak memory.
    del keys, det_keys
    drop_below = cfg.hysteresis_fraction * window
    # Report i is step 2i + 1 and the frame before it step 2i.  A track's
    # first report follows an LRI of 0, so no latch carries over tracks.
    step = np.arange(1, 2 * len(lri), 2)
    last_low = np.where(before < drop_below, step - 1, -1)
    del before
    low = lri < drop_below
    last_low[low] = step[low]
    np.maximum.accumulate(last_low, out=last_low)
    last_full = np.where(lri >= window, step, -1)
    del step
    np.maximum.accumulate(last_full, out=last_full)
    valid = np.empty(len(lri), dtype=bool)
    valid[order] = last_full > last_low
    in_line_order = np.empty_like(lri)
    in_line_order[order] = lri
    return in_line_order, valid


def _tentative_counts(frame_idx, offset, cont, T, n, cfg):
    """`tentative_parts` of every frame, from its valid lines' entries.

    Evaluates the float expressions of `line_compatible` and
    `implied_lane_from_continuous` elementwise, one boundary at a time.
    """
    width = cfg.lane_width
    base = np.empty((T, n))
    for lane in range(1, n + 1):
        hit = np.zeros(len(offset), dtype=bool)
        for j in range(n + 1):
            hit |= np.abs(offset - (j - lane + 0.5) * width) <= cfg.compat_tolerance
        base[:, lane - 1] = np.bincount(frame_idx[hit], minlength=T)
    edge = cont & (offset != 0.0)
    at = offset[edge]
    # np.round, like round(), rounds half to even.
    implied = np.round(np.where(at < 0.0, 0.5 - at / width, n + 0.5 - at / width))
    implied = np.clip(implied, 1, n).astype(int)
    bonus = np.bincount(frame_idx[edge] * n + implied - 1, minlength=T * n)
    return base, bonus.reshape(T, n).astype(float)


def build_evidence(
    header: SequenceHeader, frames: list[FrameRecord], cfg: RuntimeConfig | None = None
) -> EvidenceStream:
    """Run the inverse sensor model over a whole sequence in one columnar pass.

    Bit-identical to `LriTracker.update`, `tentative_parts` and
    `compute_wor` applied frame by frame.  `cfg` defaults to the standard
    thresholds at the header's lane width.
    """
    if cfg is None:
        cfg = RuntimeConfig(lane_width=header.lane_width_m)
    n = header.n_lanes
    T = len(frames)
    entries = [entry for frame in frames for entry in frame.lines]
    L = len(entries)
    frame_idx = np.repeat(
        np.arange(T), np.fromiter((len(frame.lines) for frame in frames), int, T))
    offset = np.fromiter((e.offset_m for e in entries), float, L)
    cont = np.fromiter((e.continuous for e in entries), bool, L)
    if header.lri_source == "log":
        missing = next((e for e in entries if e.lri is None or e.is_valid is None), None)
        if missing is not None:
            raise SequenceFormatError(
                f"line {missing.track_id!r} lacks precomputed lri/valid fields"
            )
        lri = np.fromiter((e.lri for e in entries), int, L)
        valid = np.fromiter((e.is_valid for e in entries), bool, L)
    else:
        bad = np.flatnonzero(~(np.abs(offset) < MAX_LINE_OFFSET_M))
        if len(bad):
            raise ValueError(f"line offset out of sanity bounds: {offset[bad[0]]}")
        lri, valid = _recomputed_lri(entries, frame_idx, T, cfg)

    base, bonus = _tentative_counts(frame_idx[valid], offset[valid], cont[valid], T, n, cfg)
    total = np.bincount(frame_idx, weights=lri, minlength=T)
    wor_frac = np.clip(total / (cfg.lri_window * (n + 1)), 0.0, 1.0)
    return EvidenceStream(
        n=n,
        frame_ids=np.fromiter((frame.frame_id for frame in frames), int, T),
        base=base,
        bonus=bonus,
        wor_frac=wor_frac,
        gt_lane=np.fromiter(
            (-1 if frame.gt_lane is None else frame.gt_lane for frame in frames), int, T),
        crossing=np.fromiter((frame.crossing for frame in frames), bool, T),
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
