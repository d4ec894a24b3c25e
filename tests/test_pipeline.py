import numpy as np
import pytest

from lanehmm.dataset_io import read_sequence
from lanehmm.errors import ConfigError
from lanehmm.inverse_sensor import LriTracker, compute_wor
from lanehmm.model_core import RuntimeConfig
from lanehmm.pipeline import build_evidence, run_sequence, tentative_matrix, wor_matrix
from lanehmm.simulator import SimConfig, simulate

from conftest import FIXTURES, tentative


def small_sim(n=3, seed=61, frames=300):
    return simulate(SimConfig(n_lanes=n, duration_frames=frames,
                              lane_change_prob=0.01, fail_prob=0.1,
                              recover_prob=0.3, detect_prob_ok=0.8,
                              detect_prob_bad=0.1, offset_noise_sd_m=0.3,
                              seed=seed))


def test_evidence_matches_per_frame_inverse_sensor(cfg, params3):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, frames, cfg)
    full = tentative_matrix(evidence, params3.bv)
    assert full.shape == (len(frames), 3)
    tracker = LriTracker(cfg)
    for t, frame in enumerate(frames):
        tracked = tracker.update([e.to_observation() for e in frame.lines])
        assert np.array_equal(full[t], tentative(tracked, params3, cfg))
        assert evidence.wor_frac[t] == compute_wor(tracked, 3, cfg)


def test_wor_matrix_pairs_ok_with_bad(cfg):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, frames, cfg)
    wor = wor_matrix(evidence)
    assert wor.shape == (len(frames), 2)
    assert np.array_equal(wor[:, 0], evidence.wor_frac)
    assert np.array_equal(wor[:, 1], 1.0 - evidence.wor_frac)


def test_run_sequence_rejects_lane_mismatch(params3):
    header, frames, _ = small_sim(n=4)
    with pytest.raises(ConfigError, match="conflicts"):
        run_sequence(build_evidence(header, frames), params3)


def test_run_sequence_results_are_consistent(params3, cfg):
    header, frames, _ = small_sim()
    evidence = build_evidence(header, frames, cfg)
    results = run_sequence(evidence, params3)
    assert len(results) == len(frames)
    assert [r.frame_id for r in results] == [f.frame_id for f in frames]
    for t, record in enumerate(results):
        assert abs(sum(record.lane_marginal) - 1.0) < 1e-9
        assert record.map_lane == int(np.argmax(record.lane_marginal)) + 1
        assert 0.0 <= record.sensor_ok_prob <= 1.0
        assert 0.0 <= record.wor_frac <= 1.0
        # The record carries the evidence rows the filter consumed.
        assert record.tentative == tuple(tentative_matrix(evidence, params3.bv)[t])
        assert record.wor_frac == evidence.wor_frac[t]


def test_run_sequence_deterministic(params3, cfg):
    header, frames, _ = small_sim()
    first = run_sequence(build_evidence(header, frames, cfg), params3)
    second = run_sequence(build_evidence(header, frames, cfg), params3)
    assert first == second


def test_precomputed_lri_log_path(params3):
    header, frame_iter = read_sequence(FIXTURES / "logged_lri.seq")
    frames = list(frame_iter)
    results = run_sequence(build_evidence(header, frames), params3)
    (record,) = results
    # Valid lines at -9.15 (continuous) and -2.15: both vote for lane 3;
    # the bonus lands there too.
    assert record.map_lane == 3
    assert record.tentative[2] > record.tentative[0]
    assert record.wor_frac == 0.65


def test_default_runtime_config_uses_header_width(params3):
    header, frames, _ = small_sim()
    default = build_evidence(header, frames)
    explicit = build_evidence(header, frames, RuntimeConfig(lane_width=header.lane_width_m))
    assert run_sequence(default, params3) == run_sequence(explicit, params3)


def test_tuned_preset_on_seeded_sim_byte_identical(tmp_path):
    from lanehmm.dataset_io import write_results
    from lanehmm.model_core import load_preset

    header, frames, _ = simulate(SimConfig(n_lanes=4, duration_frames=500, seed=42))
    params = load_preset("italy-run01")
    paths = []
    for name in ("a.res", "b.res"):
        results = run_sequence(build_evidence(header, frames), params)
        path = tmp_path / name
        write_results(path, header, results)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
