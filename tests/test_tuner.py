import dataclasses

import numpy as np
import pytest

from lanehmm import pipeline
from lanehmm.errors import ConfigError, EmptyObjectiveError
from lanehmm.model_core import HmmParams, load_preset
from lanehmm.simulator import SimConfig, simulate
from lanehmm.tuner import (
    BOUNDS,
    BV_CHOICES,
    _batch_accuracy,
    _evidence_list,
    coordinate_refine,
    objective,
    random_search,
    split_half,
)

from conftest import random_params


def noisy_sim(n=3, seed=61, frames=2000, **kw):
    config = SimConfig(n_lanes=n, duration_frames=frames, lane_change_prob=0.01,
                       fail_prob=0.1, recover_prob=0.3, detect_prob_ok=0.8,
                       detect_prob_bad=0.1, offset_noise_sd_m=0.3, seed=seed, **kw)
    header, sim_frames, _ = simulate(config)
    return header, sim_frames


def perfect_log_sim(n=3, seed=71, frames=800):
    """Noiseless sim converted to a log with precomputed always-valid lines."""
    header, sim_frames, _ = simulate(
        SimConfig(n_lanes=n, duration_frames=frames, lane_change_prob=0.01,
                  lane_change_duration=15, fail_prob=0.0, detect_prob_ok=1.0,
                  offset_noise_sd_m=0.0, seed=seed)
    )
    header = dataclasses.replace(header, lri_source="log")
    out = []
    for frame in sim_frames:
        lines = tuple(
            dataclasses.replace(entry, lri=10, is_valid=True) for entry in frame.lines
        )
        out.append(dataclasses.replace(frame, lines=lines))
    return header, out


# --- objective -----------------------------------------------------------------

def test_objective_is_one_on_perfect_information():
    header3, frames3 = perfect_log_sim(3)
    assert objective(load_preset("spain-run06"), [(header3, frames3)]) == 1.0
    header4, frames4 = perfect_log_sim(4, seed=72)
    assert objective(load_preset("italy-run01"), [(header4, frames4)]) == 1.0
    generic = HmmParams(n=3, sigma1=0.4, sigma2=0.4, p1=0.9, p2=0.9, p3=0.8,
                        p4=0.8, bv=2.0)
    assert objective(generic, [(header3, frames3)]) == 1.0


def test_objective_empty_is_error(params3):
    header, frames = noisy_sim(frames=50)
    all_crossing = [dataclasses.replace(f, crossing=True) for f in frames]
    with pytest.raises(EmptyObjectiveError):
        objective(params3, [(header, all_crossing)])
    no_gt = [dataclasses.replace(f, gt_lane=None) for f in frames]
    with pytest.raises(EmptyObjectiveError):
        objective(params3, [(header, no_gt)])


def test_objective_deterministic(params3):
    header, frames = noisy_sim()
    assert objective(params3, [(header, frames)]) == objective(params3, [(header, frames)])


def test_objective_pools_sequences(params3):
    # Pooled accuracy weights each sequence by its evaluated frame count.
    from lanehmm.dataset_io import SequenceTable
    from lanehmm.evaluation import evaluate
    from lanehmm.pipeline import build_evidence, run_sequence

    seq_a = noisy_sim(frames=600, seed=62)
    seq_b = noisy_sim(frames=400, seed=63)
    correct = evaluated = 0
    for header, frames in (seq_a, seq_b):
        table = SequenceTable.from_frames(frames)
        results = run_sequence(build_evidence(header, table), params3)
        scored = evaluate((results.frame_ids, results.map_lane), table, 3)
        correct += scored.correct
        evaluated += scored.evaluated
    assert objective(params3, [seq_a, seq_b]) == correct / evaluated


def test_objective_lane_count_mismatch(params3):
    header, frames = noisy_sim(n=4, frames=50)
    with pytest.raises(ConfigError):
        objective(params3, [(header, frames)])


# --- batched evaluation -----------------------------------------------------------

REPRODUCER = HmmParams(
    n=3, sigma1=0.06553264846844545, sigma2=1.151401203528665, p1=0.29742307646850197,
    p2=0.7572794913401358, p3=0.6957898055970205, p4=0.9456177675511056, bv=4.0,
)


@pytest.mark.parametrize(
    "case", ["noisy3", "reproducer", "noisy4", "one-frame-blocks", "remainder-block",
             "shared-evidence"])
def test_batched_accuracy_matches_objective_exactly(case, monkeypatch):
    rng = np.random.default_rng(77)
    if case == "one-frame-blocks":
        # 8 candidates of 3 lanes filter one frame per block, the reference 8.
        monkeypatch.setattr(pipeline, "_BLOCK_CANDIDATE_LANES", 8 * 3)
    elif case == "remainder-block":
        # Blocks of 7 frames: 500 = 71 * 7 + 3.
        monkeypatch.setattr(pipeline, "_BLOCK_CANDIDATE_LANES", 7 * 8 * 3)
    if case in ("noisy3", "one-frame-blocks", "remainder-block"):
        header, frames = noisy_sim(frames=500, seed=76)
        candidates = [random_params(rng, 3) for _ in range(8)]
    elif case == "shared-evidence":
        # A refine sweep: the start and a sigma1 grid share one OK and one
        # BAD (detector row block, bonus value) pair.
        header, frames = noisy_sim(frames=500, seed=79)
        start = random_params(rng, 3)
        candidates = [start] + [start.replace(sigma1=float(v)) for v in np.linspace(0.05, 3.0, 7)]
    elif case == "reproducer":
        # A private einsum copy of the filter once scored this candidate
        # 0.7762 here, against 0.7548 from the reference route.
        header, frames, _ = simulate(SimConfig(n_lanes=3, duration_frames=500, seed=1))
        candidates = [REPRODUCER] + [random_params(rng, 3) for _ in range(3)]
    else:
        header, frames = noisy_sim(n=4, frames=500, seed=78)
        candidates = [random_params(rng, 4) for _ in range(8)]
    evidence = _evidence_list([(header, frames)])
    batched = _batch_accuracy(candidates, evidence)
    reference = np.array([objective(c, [(header, frames)]) for c in candidates])
    assert np.array_equal(batched, reference)


# --- random search -----------------------------------------------------------------

def test_budget_one_returns_single_candidate():
    header, frames = noisy_sim(frames=200)
    result = random_search(sequences=[(header, frames)], budget=1, seed=5)
    assert len(result.trials) == 1
    assert result.trials[0][0] == result.best_params
    assert result.trials[0][1] == result.best_accuracy


def test_search_beats_default_on_two_lane_sim():
    header, frames, _ = simulate(
        SimConfig(n_lanes=2, duration_frames=2000, lane_change_prob=0.01,
                  fail_prob=0.1, recover_prob=0.3, detect_prob_ok=0.7,
                  detect_prob_bad=0.1, offset_noise_sd_m=0.35, seed=73)
    )
    default = HmmParams(n=2, sigma1=0.4, sigma2=0.4, p1=0.9, p2=0.9, p3=0.8,
                        p4=0.8, bv=2.0)
    result = random_search(sequences=[(header, frames)], budget=200, seed=74)
    assert result.best_accuracy >= objective(default, [(header, frames)])


def test_random_search_deterministic():
    header, frames = noisy_sim(frames=400)
    a = random_search(sequences=[(header, frames)], budget=20, seed=9)
    b = random_search(sequences=[(header, frames)], budget=20, seed=9)
    assert a.best_params == b.best_params
    assert a.best_accuracy == b.best_accuracy
    assert a.trials == b.trials
    c = random_search(sequences=[(header, frames)], budget=20, seed=10)
    assert c.trials != a.trials


def test_search_result_invariants():
    header, frames = noisy_sim(frames=300)
    result = random_search(sequences=[(header, frames)], budget=30, seed=12)
    accuracies = [acc for _, acc in result.trials]
    assert result.best_accuracy == max(accuracies)
    assert isinstance(result.best_params, HmmParams)  # construction validates
    for params, _ in result.trials:
        assert BOUNDS["sigma1"][0] <= params.sigma1 <= BOUNDS["sigma1"][1]
        assert params.bv in BV_CHOICES


def test_identifiability_of_sensor_persistence():
    # The sim's failure process is the model's own two-state Markov chain
    # (fail 0.1 -> true p1 = 0.9). Accuracy peaks at p1 ~ 0.9 but the
    # profile spans only a few percentage points, so a raw 500-trial search
    # pins p1 weakly; coordinate refinement then climbs to the peak.
    # Measured on frozen seeds: 3/10 raw, 7/10 refined within +-0.15; the
    # assertions leave one rep of margin for numpy algorithm drift.
    raw_hits = 0
    refined_hits = 0
    for rep in range(10):
        header, frames, _ = simulate(
            SimConfig(n_lanes=3, duration_frames=10_000, lane_change_prob=0.005,
                      fail_prob=0.1, recover_prob=0.03, detect_prob_ok=0.85,
                      detect_prob_bad=0.1, offset_noise_sd_m=0.3, seed=900 + rep)
        )
        sequences = [(header, frames)]
        searched = random_search(sequences=sequences, budget=500, seed=1900 + rep)
        refined = coordinate_refine(searched.best_params, sequences, iterations=2)
        raw_hits += abs(searched.best_params.p1 - 0.9) <= 0.15
        refined_hits += abs(refined.best_params.p1 - 0.9) <= 0.15
    assert raw_hits >= 2
    assert refined_hits >= 6


# --- coordinate refinement -----------------------------------------------------------

def test_refine_zero_iterations_returns_start(params3):
    header, frames = noisy_sim(frames=300)
    result = coordinate_refine(params3, [(header, frames)], iterations=0)
    assert result.best_params == params3
    assert result.best_accuracy == objective(params3, [(header, frames)])


@pytest.mark.parametrize("iterations", [0, 1])
def test_refine_trials_open_with_the_start_and_its_objective(params3, iterations):
    header, frames = noisy_sim(frames=300)
    result = coordinate_refine(params3, [(header, frames)], iterations=iterations)
    assert result.trials[0] == (params3, objective(params3, [(header, frames)]))
    assert len(result.trials) == 1 + iterations * (7 * len(BOUNDS) + len(BV_CHOICES))


def test_refine_never_worse_than_start(params3):
    header, frames = noisy_sim(frames=800)
    start_acc = objective(params3, [(header, frames)])
    result = coordinate_refine(params3, [(header, frames)], iterations=2)
    assert result.best_accuracy >= start_acc


def test_refine_sweeps_each_bound_then_every_bonus_value(params3):
    header, frames = noisy_sim(frames=200)
    result = coordinate_refine(params3, [(header, frames)], iterations=1)
    trials = [params for params, _ in result.trials]
    assert trials[0] == params3
    sweeps = [trials[1 + 7 * i:8 + 7 * i] for i in range(len(BOUNDS))] + [trials[43:]]
    for dim, sweep in zip([*BOUNDS, "bv"], sweeps):
        center = sweep[0]
        assert all(p.replace(**{dim: getattr(center, dim)}) == center for p in sweep), dim
    assert [p.bv for p in sweeps[-1]] == list(BV_CHOICES)


def test_refine_after_search_not_worse():
    header, frames = noisy_sim(frames=800)
    searched = random_search(sequences=[(header, frames)], budget=40, seed=14)
    refined = coordinate_refine(searched.best_params, [(header, frames)], iterations=1)
    assert refined.best_accuracy >= searched.best_accuracy


# --- plumbing -----------------------------------------------------------------------

def test_split_half():
    header, frames = noisy_sim(frames=101)
    (h1, first), (h2, second) = split_half(header, frames)
    assert h1 == header and h2 == header
    assert len(first) == 50 and len(second) == 51
    assert list(first) + list(second) == list(frames)


def test_sequences_must_share_lane_count(params3):
    h3, f3 = noisy_sim(frames=50)
    h4, f4 = noisy_sim(n=4, frames=50)
    with pytest.raises(ConfigError):
        random_search(sequences=[(h3, f3), (h4, f4)], budget=2, seed=1)
