"""Acceptance suite: one test per criterion, frozen seeds and tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  The tuning-based criteria share a module-scoped fixture so the
500-trial searches run once.
"""

import time

import numpy as np
import pytest

from lanehmm import evaluation, tuner
from lanehmm.cli import end_to_end_check
from lanehmm.dataset_io import SequenceTable
from lanehmm.filtering import LaneFilter, init_belief, predict, update
from lanehmm.inverse_sensor import (
    LriTracker,
    RawLineObservation,
    TrackedLine,
    compute_wor,
    normalize_tentative,
)
from lanehmm.model_core import CptSet, HmmParams, load_preset
from lanehmm.pipeline import build_evidence, run_sequence
from lanehmm.simulator import SimConfig, inject_burst, simulate

from conftest import random_params, tentative
from oracles import enumerate_posterior

CRITERION5_SIM3 = SimConfig(
    n_lanes=3, duration_frames=10_000, lane_change_prob=0.005,
    fail_prob=0.05, recover_prob=0.2, detect_prob_ok=0.8, detect_prob_bad=0.1,
    offset_noise_sd_m=0.3, seed=20260810,
)
CRITERION5_SIM4 = CRITERION5_SIM3.replace(n_lanes=4, seed=20260811)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def tuned_runs():
    """Criterion-5 simulations with their 500-trial tuned parameters."""
    out = {}
    t0 = time.perf_counter()
    for label, config in (("3-lane", CRITERION5_SIM3), ("4-lane", CRITERION5_SIM4)):
        header, frames, _ = simulate(config)
        result = tuner.random_search(
            tuner.SearchSpace(), [(header, frames)], budget=500, seed=config.seed + 1
        )
        out[label] = (config, header, frames, result.best_params)
    out["elapsed_tuning"] = time.perf_counter() - t0
    return out


def test_criterion_1_single_line_lane_ambiguity(params3, cfg):
    line = TrackedLine(track_id="arrow", offset_m=-5.25, continuous=False,
                       lri=10, is_valid=True)
    tv = tentative([line], params3, cfg)
    normalized = normalize_tentative(tv, 3)
    assert np.array_equal(tv, [0.0, 1.0, 1.0])
    assert np.array_equal(normalized, [0.0, 0.5, 0.5])
    t0 = time.perf_counter()
    normalize_tentative(tentative([line], params3, cfg), 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    report(1, f"tentative [0,1,1] -> [0,0.5,0.5] in {elapsed * 1e6:.0f} us")


def test_criterion_2_lri_hysteresis_log(cfg):
    # 13-frame detection schedule realizing the four reported LRI values:
    #   line1 always detected            -> LRI 10, valid
    #   line2 detected 4..13 except 10   -> LRI 9, never reached the window
    #   line3 detected 1..10 then missed -> LRI 7, valid by hysteresis
    #   line4 never detected             -> LRI 0
    offsets = {"l1": -9.15, "l2": -6.47, "l3": -2.15, "l4": +0.99}
    continuous = {"l1": True, "l2": False, "l3": False, "l4": True}
    tracker = LriTracker(cfg)
    for frame_no in range(1, 14):
        detected = {
            "l1": True,
            "l2": frame_no >= 4 and frame_no != 10,
            "l3": frame_no <= 10,
            "l4": False,
        }
        lines = [
            RawLineObservation(track_id=tid, offset_m=offsets[tid],
                               continuous=continuous[tid], detected=detected[tid])
            for tid in ("l1", "l2", "l3", "l4")
        ]
        tracked = tracker.update(lines)
    assert [line.lri for line in tracked] == [10, 9, 7, 0]
    assert [line.is_valid for line in tracked] == [True, False, True, False]
    assert compute_wor(tracked, 3, cfg) == 0.65
    report(2, "LRI (10,9,7,0), isValid (1,0,1,0), WOR frac 0.65")


def test_criterion_3_exact_inference_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    streams = 0
    for n in (2, 3, 4):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            params = random_params(rng, n)
            lane_filter = LaneFilter(params)
            evidence = []
            for _ in range(8):
                tv = rng.uniform(0.0, 1.0, n)
                tvn = tv / tv.sum()
                frac = float(rng.uniform(0.0, 1.0))
                wor = np.array([frac, 1.0 - frac])
                evidence.append((tvn, wor))
                lane_filter.step(tvn, wor)
            oracle = enumerate_posterior(lane_filter.cpts, init_belief(params), evidence)
            diff = np.abs(lane_filter.belief - oracle).max()
            worst = max(worst, diff)
            streams += 1
            assert diff <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"{streams} streams, worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_invariant_suite():
    rng = np.random.default_rng(44)
    steps = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        params = random_params(rng, n)
        cpts = CptSet.from_params(params)
        belief = init_belief(params)
        for _ in range(1000):
            tv = rng.uniform(0.0, 1.0, n)
            tvn = tv / tv.sum()
            frac = float(rng.uniform(0.0, 1.0))
            belief = predict(belief, cpts.lane, cpts.sensor)
            belief = update(belief, tvn, np.array([frac, 1.0 - frac]),
                            cpts.detector, cpts.wor)
            steps += 1
            assert abs(belief.sum() - 1.0) <= 1e-12
            assert np.all(belief >= 0.0)
    assert steps == 100_000

    # Uninformative evidence is an exact identity update.
    params = HmmParams(n=4, sigma1=0.5, sigma2=0.7, p1=0.9, p2=0.85, p3=0.8,
                       p4=0.75, bv=3.0)
    cpts = CptSet.from_params(params)
    belief = rng.uniform(0.1, 1.0, (4, 2))
    belief /= belief.sum()
    posterior = update(belief, np.full(4, 0.25), np.array([0.5, 0.5]),
                       cpts.detector, cpts.wor)
    assert np.allclose(posterior, belief, rtol=0.0, atol=1e-14)

    # Tentative scaling: bit-stable for exact (power-of-two) scalings,
    # 1e-12-close for arbitrary positive factors.
    raw = np.array([0.0, 3.0, 1.0, 0.5])
    reference = update(belief, normalize_tentative(raw, 4), np.array([0.7, 0.3]),
                       cpts.detector, cpts.wor)
    for scale in (2.0, 0.5, 1024.0):
        scaled = update(belief, normalize_tentative(scale * raw, 4),
                        np.array([0.7, 0.3]), cpts.detector, cpts.wor)
        assert scaled.tobytes() == reference.tobytes()
    for scale in (3.0, 0.123, 77.7):
        scaled = update(belief, normalize_tentative(scale * raw, 4),
                        np.array([0.7, 0.3]), cpts.detector, cpts.wor)
        assert np.allclose(scaled, reference, rtol=0.0, atol=1e-12)
    report(4, "1e5 steps normalized at 1e-12, identity update exact, scaling stable")


def test_criterion_5_model_beats_detector(tuned_runs):
    t0 = time.perf_counter()
    deltas = {}
    for label in ("3-lane", "4-lane"):
        config, header, frames, params = tuned_runs[label]
        table = SequenceTable.from_frames(frames)
        evidence = build_evidence(header, table)
        results = run_sequence(evidence, params)
        model = evaluation.evaluate(
            (results.frame_ids, results.map_lane), table, config.n_lanes
        )
        baseline = evaluation.evaluate(
            evaluation.detector_baseline(evidence, params.bv), table, config.n_lanes
        )
        delta = model.accuracy - baseline.accuracy
        deltas[label] = (model.accuracy, baseline.accuracy, delta)
        assert delta >= 0.10
    elapsed = tuned_runs["elapsed_tuning"] + (time.perf_counter() - t0)
    assert elapsed < 300.0
    detail = ", ".join(
        f"{label} model {m:.3f} vs detector {b:.3f} (+{d:.3f})"
        for label, (m, b, d) in deltas.items()
    )
    report(5, f"{detail}, {elapsed:.0f}s")


def test_criterion_6_missed_transition_recovery():
    params = load_preset("italy-run01")

    def trial(seed):
        config = SimConfig(
            n_lanes=4, duration_frames=260, lane_change_prob=0.02,
            lane_change_duration=8, fail_prob=0.0, recover_prob=0.2,
            detect_prob_ok=1.0, detect_prob_bad=0.1, offset_noise_sd_m=0.2,
            seed=seed,
        )
        header, table, _ = simulate(config)
        crossing = np.flatnonzero(table.crossing)
        if len(crossing) == 0:
            return None
        start = int(crossing[0])
        dropout_start = max(start - 1, 0)
        resume = dropout_start + 10
        probe_end = resume + 15
        if probe_end >= len(table):
            return None
        # The scenario is one change fully hidden by the dropout; a second
        # change inside the probe window would invalidate the target lane.
        later = crossing[(crossing >= start + 8) & (crossing <= probe_end)]
        if len(later):
            return None
        new_lane = int(table.gt[start + 8])
        blinded = inject_burst(table, dropout_start, 10, "dropout")
        results = run_sequence(build_evidence(header, blinded), params)
        return bool((results.map_lane[resume:probe_end] == new_lane).any())

    successes = 0
    completed = 0
    seed = 3000
    while completed < 200:
        outcome = trial(seed)
        seed += 1
        if outcome is None:
            continue
        completed += 1
        successes += bool(outcome)
    assert successes / completed >= 0.95
    report(6, f"{successes}/{completed} trials re-locked within 15 frames")


def test_criterion_7_bonus_value_ablation(tuned_runs):
    config, _, _, tuned = tuned_runs["3-lane"]
    assert tuned.bv > 0  # the search should discover the bonus is useful
    wins = 0
    margins = []
    for rep in range(10):
        header, frames, _ = simulate(config.replace(seed=40000 + rep))
        sequences = [(header, frames)]
        with_bv = tuner.objective(tuned, sequences)
        without_bv = tuner.objective(tuned.replace(bv=0.0), sequences)
        margins.append(with_bv - without_bv)
        wins += with_bv > without_bv
    assert wins >= 9
    report(7, f"bv={tuned.bv:g} beat bv=0 on {wins}/10 seeds "
              f"(median margin {np.median(margins):+.3f})")


def test_criterion_8_golden_determinism():
    outcome = end_to_end_check()
    assert outcome["ok"], outcome["divergence"]
    repeat = end_to_end_check()
    assert repeat["ok"]
    report(8, "end-to-end selfcheck bit-exact against the committed golden summary")
