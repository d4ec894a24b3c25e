"""Derivative-free parameter search against annotated sequences.

The objective (per-frame accuracy on non-crossing annotated frames) is
piecewise constant in the parameters, so the search is random sampling
plus coordinate refinement on a shrinking grid.  Candidate evaluation is
vectorized: the inverse-sensor pass is parameter-independent up to the
bonus value, so it runs once per sequence and all candidates share it,
and the K candidates of a sweep are stacked along a leading axis and
filtered by `pipeline.filter_blocks`, the loop run_sequence uses, in
blocks of about 8192 / (K n) frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import SequenceTable
from .errors import ConfigError, EmptyObjectiveError, ParameterError
from .evaluation import evaluate
from .filtering import init_belief, lane_marginal
from .model_core import CptSet, HmmParams
from .pipeline import (
    EvidenceStream,
    build_evidence,
    filter_blocks,
    run_sequence,
)

Sequence = tuple  # (SequenceHeader, SequenceTable or list[FrameRecord])

_CONTINUOUS_DIMS = ("sigma1", "sigma2", "p1", "p2", "p3", "p4")


@dataclass(frozen=True)
class SearchSpace:
    sigma1: tuple[float, float] = (0.05, 3.0)
    sigma2: tuple[float, float] = (0.05, 3.0)
    p1: tuple[float, float] = (0.01, 0.999)
    p2: tuple[float, float] = (0.01, 0.999)
    p3: tuple[float, float] = (0.01, 0.999)
    p4: tuple[float, float] = (0.01, 0.999)
    bv_choices: tuple[int, ...] = tuple(range(11))

    def __post_init__(self) -> None:
        for dim in _CONTINUOUS_DIMS:
            lo, hi = getattr(self, dim)
            if not lo < hi:
                raise ParameterError(f"search bounds for {dim} must satisfy lower < upper")
        if not self.bv_choices:
            raise ParameterError("bv_choices must be non-empty")


@dataclass(frozen=True)
class TunerResult:
    best_params: HmmParams
    best_accuracy: float
    trials: tuple[tuple[HmmParams, float], ...]


def _common_lane_count(sequences: list[Sequence]) -> int:
    if not sequences:
        raise EmptyObjectiveError("no sequences given")
    counts = {header.n_lanes for header, _ in sequences}
    if len(counts) != 1:
        raise ConfigError(f"sequences disagree on lane count: {sorted(counts)}")
    return counts.pop()


def _table(frames) -> SequenceTable:
    if isinstance(frames, SequenceTable):
        return frames
    return SequenceTable.from_frames(frames)


def _evidence_list(sequences: list[Sequence]) -> list[EvidenceStream]:
    return [build_evidence(header, _table(frames)) for header, frames in sequences]


def _batch_accuracy(
    candidates: list[HmmParams], evidence: list[EvidenceStream]
) -> np.ndarray:
    """Accuracy of every candidate on the pooled evidence, in one sweep.

    The K candidates' tables are stacked along a leading axis and filtered
    through the same block loop as run_sequence, so each candidate's MAP
    stream is the one run_sequence would produce.
    """
    cpts = [CptSet.from_params(p) for p in candidates]
    stacked = CptSet(
        n=candidates[0].n,
        **{name: np.stack([getattr(c, name) for c in cpts])
           for name in ("lane", "sensor", "detector", "wor")},
    )
    bv = np.array([[p.bv] for p in candidates])  # (K, 1)
    correct = np.zeros(len(candidates), dtype=int)
    evaluated = 0
    for ev in evidence:
        scored = (ev.gt_lane > 0) & ~ev.crossing
        for rows, posteriors in filter_blocks(ev, stacked, bv, init_belief(candidates[0])):
            keep = scored[rows]
            lanes = lane_marginal(posteriors)[keep].argmax(axis=-1) + 1  # (frames, K)
            correct += (lanes == ev.gt_lane[rows][keep, None]).sum(axis=0)
        evaluated += int(scored.sum())
    if evaluated == 0:
        raise EmptyObjectiveError("no annotated non-crossing frames to score")
    return correct / evaluated


def objective(params: HmmParams, sequences: list[Sequence]) -> float:
    """Pooled non-crossing per-frame accuracy of the full pipeline.

    This is the reference (unbatched) route: every sequence is filtered
    with run_sequence and scored with evaluate.
    """
    total_correct = 0
    total_evaluated = 0
    for header, frames in sequences:
        table = _table(frames)
        results = run_sequence(build_evidence(header, table), params)
        result = evaluate((results.frame_ids, results.map_lane), table, header.n_lanes)
        total_correct += result.correct
        total_evaluated += result.evaluated
    if total_evaluated == 0:
        raise EmptyObjectiveError("no annotated non-crossing frames to score")
    return total_correct / total_evaluated


def random_search(
    space: SearchSpace, sequences: list[Sequence], budget: int, seed: int
) -> TunerResult:
    """Uniform random candidates over the space; deterministic given seed."""
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    n = _common_lane_count(sequences)
    rng = np.random.default_rng(seed)
    draws = {
        dim: rng.uniform(*getattr(space, dim), size=budget) for dim in _CONTINUOUS_DIMS
    }
    bvs = rng.choice(np.array(space.bv_choices), size=budget)
    candidates = [
        HmmParams(
            n=n,
            sigma1=float(draws["sigma1"][i]),
            sigma2=float(draws["sigma2"][i]),
            p1=float(draws["p1"][i]),
            p2=float(draws["p2"][i]),
            p3=float(draws["p3"][i]),
            p4=float(draws["p4"][i]),
            bv=float(bvs[i]),
        )
        for i in range(budget)
    ]
    evidence = _evidence_list(sequences)
    accuracies = _batch_accuracy(candidates, evidence)
    best = int(np.argmax(accuracies))
    return TunerResult(
        best_params=candidates[best],
        best_accuracy=float(accuracies[best]),
        trials=tuple(zip(candidates, (float(a) for a in accuracies))),
    )


def coordinate_refine(
    start: HmmParams,
    sequences: list[Sequence],
    iterations: int,
    space: SearchSpace | None = None,
) -> TunerResult:
    """Cyclic coordinate descent on a per-dimension grid.

    Each cycle sweeps every dimension with a 7-point grid centered on the
    incumbent, halving the grid range per cycle; a move is taken only if
    it strictly improves the objective, so the result is never worse than
    the start.
    """
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    if space is None:
        space = SearchSpace()
    evidence = _evidence_list(sequences)
    current = start
    current_acc = float(_batch_accuracy([start], evidence)[0])
    trials = [(current, current_acc)]
    for cycle in range(iterations):
        shrink = 0.5 ** cycle
        for dim in _CONTINUOUS_DIMS:
            lo, hi = getattr(space, dim)
            half = (hi - lo) / 2.0 * shrink
            center = getattr(current, dim)
            grid = np.linspace(max(lo, center - half), min(hi, center + half), 7)
            candidates = [current.replace(**{dim: float(v)}) for v in grid]
            accs = _batch_accuracy(candidates, evidence)
            best = int(np.argmax(accs))
            trials.extend(zip(candidates, (float(a) for a in accs)))
            if accs[best] > current_acc:
                current = candidates[best]
                current_acc = float(accs[best])
        bv_candidates = [current.replace(bv=float(b)) for b in space.bv_choices]
        accs = _batch_accuracy(bv_candidates, evidence)
        best = int(np.argmax(accs))
        trials.extend(zip(bv_candidates, (float(a) for a in accs)))
        if accs[best] > current_acc:
            current = bv_candidates[best]
            current_acc = float(accs[best])
    return TunerResult(
        best_params=current,
        best_accuracy=current_acc,
        trials=tuple(trials),
    )


def split_half(header, frames) -> tuple[Sequence, Sequence]:
    """Default train/eval split: first half of the sequence vs. the rest.

    `frames` is a SequenceTable or frame records; the halves are of its kind.
    """
    if not isinstance(frames, SequenceTable):
        frames = list(frames)
    mid = len(frames) // 2
    return (header, frames[:mid]), (header, frames[mid:])
