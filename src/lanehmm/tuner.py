"""Derivative-free parameter search against annotated sequences.

The objective (per-frame accuracy on non-crossing annotated frames) is
piecewise constant in the parameters, so the search is random sampling
plus coordinate refinement on a shrinking grid, both over one fixed
space, the module constants BOUNDS and BV_CHOICES.  Candidate evaluation is
vectorized: the inverse-sensor pass is parameter-independent up to the
bonus value, so it runs once per sequence and all candidates share it,
and the K candidates of a sweep are filtered together by
`pipeline.filter_blocks`, the loop run_sequence uses for one parameter
set, in blocks of about 8192 / (K n) frames.  It forms each likelihood
term once per distinct piece of evidence, grouped once per evidence
stream, so the sweeps of one search share the grouping; the refine start
is scored in the first sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import SequenceTable
from .errors import ConfigError, EmptyObjectiveError, ParameterError
from .evaluation import evaluate
from .filtering import lane_marginal
from .model_core import HmmParams
from .pipeline import EvidenceStream, build_evidence, filter_blocks, run_sequence

Sequence = tuple  # (SequenceHeader, SequenceTable or list[FrameRecord])

# The search space: uniform bounds per continuous parameter, in the order
# random_search draws them, and the grid of bonus values.
BOUNDS = {"sigma1": (0.05, 3.0), "sigma2": (0.05, 3.0), "p1": (0.01, 0.999),
          "p2": (0.01, 0.999), "p3": (0.01, 0.999), "p4": (0.01, 0.999)}
BV_CHOICES = tuple(range(11))


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

    All K candidates are filtered together through the block loop
    run_sequence uses, so each candidate's MAP stream is the one
    run_sequence would produce.
    """
    correct = np.zeros(len(candidates), dtype=int)
    evaluated = 0
    for ev in evidence:
        scored = (ev.gt_lane > 0) & ~ev.crossing
        for rows, posteriors in filter_blocks(ev, candidates):
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


def random_search(seed: int, sequences: list[Sequence], budget: int) -> TunerResult:
    """`budget` uniform random candidates over BOUNDS and BV_CHOICES;
    deterministic given seed."""
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    n = _common_lane_count(sequences)
    rng = np.random.default_rng(seed)
    draws = {dim: rng.uniform(lo, hi, size=budget) for dim, (lo, hi) in BOUNDS.items()}
    bvs = rng.choice(np.array(BV_CHOICES), size=budget)
    candidates = [
        HmmParams(n=n, bv=float(bvs[i]), **{dim: float(draws[dim][i]) for dim in BOUNDS})
        for i in range(budget)
    ]
    evidence = _evidence_list(sequences)
    accuracies = _batch_accuracy(candidates, evidence)
    best = int(np.argmax(accuracies))
    return TunerResult(candidates[best], float(accuracies[best]),
                       tuple(zip(candidates, (float(a) for a in accuracies))))


def coordinate_refine(start: HmmParams, sequences: list[Sequence], iterations: int) -> TunerResult:
    """Cyclic coordinate descent on a per-dimension grid.

    Each cycle sweeps every continuous dimension with a 7-point grid
    centered on the incumbent, halving the grid range per cycle, and then
    `bv` over all of BV_CHOICES; a move is taken only if it strictly
    improves the objective, so the result is never worse than the start.
    The trials open with the start and its accuracy, then each sweep's grid.
    """
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    evidence = _evidence_list(sequences)
    # The start leads the first sweep, where argmax keeps it on a tie.
    current, current_acc, trials = start, -1.0, []
    for cycle in range(iterations):
        shrink = 0.5 ** cycle
        for dim in (*BOUNDS, "bv"):
            if dim == "bv":
                grid = BV_CHOICES
            else:
                lo, hi = BOUNDS[dim]
                half = (hi - lo) / 2.0 * shrink
                center = getattr(current, dim)
                grid = np.linspace(max(lo, center - half), min(hi, center + half), 7)
            candidates = [current.replace(**{dim: float(v)}) for v in grid]
            if not trials:
                candidates.insert(0, start)
            accs = _batch_accuracy(candidates, evidence)
            best = int(np.argmax(accs))
            trials.extend(zip(candidates, (float(a) for a in accs)))
            if accs[best] > current_acc:
                current = candidates[best]
                current_acc = float(accs[best])
    if not trials:
        current_acc = float(_batch_accuracy([start], evidence)[0])
        trials.append((start, current_acc))
    return TunerResult(current, current_acc, tuple(trials))


def split_half(header, frames) -> tuple[Sequence, Sequence]:
    """Default train/eval split: first half of the sequence vs. the rest.

    `frames` is a SequenceTable or frame records; the halves are of its kind.
    """
    if not isinstance(frames, SequenceTable):
        frames = list(frames)
    mid = len(frames) // 2
    return (header, frames[:mid]), (header, frames[mid:])
