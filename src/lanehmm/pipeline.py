"""End-to-end composition: detector log -> evidence -> filter -> results.

The inverse-sensor pass runs once per sequence into an EvidenceStream:
the geometry and LRI passes do not depend on the HMM parameters (except
for the bonus value, which enters linearly), so the filter, the
detector-only baseline and every tuner candidate share it.

`filter_blocks` is the one forward-filter loop, for run_sequence (one
parameter set) and the tuner sweep (K stacked candidates).  It works in
blocks of frames: the likelihoods of a whole block in one call, then
only transition, multiply and normalize per frame.  Every result is
bitwise what `LaneFilter.step` gives frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import ResultTable, SequenceHeader, SequenceTable
from .errors import ConfigError
from .filtering import forward, init_belief, lane_marginal, likelihood
from .inverse_sensor import normalize_tentative
from .model_core import CptSet, HmmParams, RuntimeConfig


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


def _recomputed_lri(table: SequenceTable, cfg: RuntimeConfig):
    """LRI and validity of every line entry, as `LriTracker` would give them.

    The LRI of a track at frame t counts its detections in (t - window, t].
    Validity latches on at `lri >= window` and off at `lri < drop_below`:
    a line is valid iff its track's last full window comes after its last
    frame below the drop threshold.  Between two reports of a track the LRI
    only falls, so the latch needs the LRI at each report and in the frame
    before it, and memory stays O(line entries).  No track may appear
    twice in one frame, which `SequenceTable.check` ensures.
    """
    window = cfg.lri_window
    # No window reaching back from a track's keys meets another track's.
    stride = len(table) + window
    keys = table.track * stride
    keys += table.line_frame
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    det_keys = keys[table.det[order]]
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
    header: SequenceHeader, table: SequenceTable, cfg: RuntimeConfig | None = None
) -> EvidenceStream:
    """Run the inverse sensor model over a whole sequence in one columnar pass.

    Bit-identical to `LriTracker.update`, `tentative_parts` and
    `compute_wor` applied frame by frame.  `cfg` defaults to the standard
    thresholds at the header's lane width.  The table must pass
    `SequenceTable.check`, and a logged `lri` must not exceed
    cfg.lri_window; either fault is a SequenceFormatError at its line.
    """
    table.check(header)
    if cfg is None:
        cfg = RuntimeConfig(lane_width=header.lane_width_m)
    n = header.n_lanes
    T = len(table)
    frame_idx = table.line_frame
    if header.lri_source == "log":
        above = np.flatnonzero(table.lri > cfg.lri_window)
        if len(above):
            i = above[0]
            raise table.error(f"line {table.track_ids[table.track[i]]!r} has lri "
                              f"{table.lri[i]} above the LRI window {cfg.lri_window}",
                              frame_idx[i])
        lri = table.lri
        valid = table.valid == 1
    else:
        lri, valid = _recomputed_lri(table, cfg)

    base, bonus = _tentative_counts(
        frame_idx[valid], table.offset[valid], table.cont[valid], T, n, cfg)
    total = np.bincount(frame_idx, weights=lri, minlength=T)
    wor_frac = np.clip(total / (cfg.lri_window * (n + 1)), 0.0, 1.0)
    return EvidenceStream(
        n=n,
        frame_ids=table.frame_ids,
        base=base,
        bonus=bonus,
        wor_frac=wor_frac,
        gt_lane=table.gt,
        crossing=table.crossing,
    )


# Candidate-lanes per block of the forward filter: K candidates of n lanes
# filter 8192 // (K n) frames per block, so that each of the block's
# temporaries stays near 0.1 MB.
_BLOCK_CANDIDATE_LANES = 8192


def tentative_matrix(evidence: EvidenceStream, bv, rows=slice(None)) -> np.ndarray:
    """The tentative vectors `base + bv * bonus` of the selected frames.

    Shape (T, n) for one bonus value; for a (K, 1) column of bonus values,
    each frame's K vectors, (T, K, n).
    """
    bv = np.asarray(bv, dtype=float)
    shape = (-1,) + (1,) * (bv.ndim - 1) + (evidence.n,)
    return evidence.base[rows].reshape(shape) + bv * evidence.bonus[rows].reshape(shape)


def wor_matrix(evidence: EvidenceStream) -> np.ndarray:
    """The WOR pair (OK, BAD) = (frac, 1 - frac) of every frame, shape (T, 2)."""
    return np.stack([evidence.wor_frac, 1.0 - evidence.wor_frac], axis=1)


def filter_blocks(evidence: EvidenceStream, cpts: CptSet, bv, belief: np.ndarray):
    """Forward-filter the evidence in blocks of frames, in order.

    `cpts` may hold K candidates' tables stacked on a leading axis, with
    `bv` their (K, 1) bonus values.  Yields each block's frame slice and
    posteriors, (B, K, n, 2) or (B, n, 2) for one candidate, each bitwise
    what `LaneFilter.step` would hold after that frame.
    """
    if cpts.n != evidence.n:
        raise ConfigError(
            f"parameter lane count {cpts.n} conflicts with sequence lane count {evidence.n}"
        )
    block = max(1, _BLOCK_CANDIDATE_LANES // (np.size(bv) * evidence.n))
    wor = wor_matrix(evidence)
    for start in range(0, len(evidence), block):
        rows = slice(start, start + block)
        tentative = normalize_tentative(tentative_matrix(evidence, bv, rows), evidence.n)
        lik = likelihood(tentative, wor[rows], cpts.detector, cpts.wor)
        posteriors = forward(belief, cpts.lane, cpts.sensor, lik)
        belief = posteriors[-1]
        yield rows, posteriors


def run_sequence(evidence: EvidenceStream, params: HmmParams) -> ResultTable:
    """Filter a sequence's evidence into per-frame estimate columns.

    Row t equals what a `LaneFilter` stepped frame by frame holds after
    frame t; MAP ties break toward the lowest lane.
    """
    cpts = CptSet.from_params(params)
    marginal = np.empty((len(evidence), evidence.n))
    sensor_ok = np.empty(len(evidence))
    for rows, posteriors in filter_blocks(evidence, cpts, params.bv, init_belief(params)):
        marginal[rows] = lane_marginal(posteriors)
        sensor_ok[rows] = posteriors[..., 0].sum(axis=-1)
    return ResultTable(
        frame_ids=evidence.frame_ids,
        map_lane=marginal.argmax(axis=1) + 1,
        lane_marginal=marginal,
        sensor_ok_prob=sensor_ok,
        tentative=tentative_matrix(evidence, params.bv),
        wor_frac=evidence.wor_frac,
    )
