import warnings

import numpy as np
import pytest

from lanehmm.errors import InternalError, ParameterError
from lanehmm.filtering import (
    LaneFilter,
    forward,
    init_belief,
    likelihood,
    map_estimate,
    predict,
    update,
)
from lanehmm.model_core import CptSet, HmmParams

from conftest import random_params
from oracles import enumerate_posterior, enumerate_posterior_literal


def run01():
    return HmmParams(n=4, sigma1=0.336, sigma2=0.696, p1=0.895, p2=0.894,
                     p3=0.690, p4=0.461, bv=7)


def random_evidence(rng, n):
    tentative = rng.uniform(0.0, 1.0, n)
    tvn = tentative / tentative.sum()
    frac = float(rng.uniform(0.0, 1.0))
    return tvn, np.array([frac, 1.0 - frac])


# --- init ----------------------------------------------------------------------

def test_init_uniform_joint():
    belief = init_belief(run01())
    assert belief.shape == (4, 2)
    assert np.all(belief == 0.125)


# --- predict ---------------------------------------------------------------------

def test_predict_uniform_fixed_point_doubly_stochastic():
    # n=2 discretized-normal rows are doubly stochastic, and so is the
    # sensor table when p1 == p2: uniform is then a fixed point.
    params = HmmParams(n=2, sigma1=0.7, sigma2=0.5, p1=0.9, p2=0.9, p3=0.8, p4=0.8, bv=0)
    cpts = CptSet.from_params(params)
    belief = init_belief(params)
    predicted = predict(belief, cpts.lane, cpts.sensor)
    assert np.allclose(predicted, 0.25, rtol=0, atol=1e-15)


def test_predict_uniform_lane_marginal_with_doubly_stochastic_cpt():
    # With an explicitly doubly-stochastic lane table the uniform lane
    # marginal survives prediction even though the sensor marginal moves.
    lane_cpt = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    sensor_cpt = np.array([[0.95, 0.05], [0.4, 0.6]])
    belief = np.full((3, 2), 1.0 / 6.0)
    predicted = predict(belief, lane_cpt, sensor_cpt)
    assert np.allclose(predicted.sum(axis=1), 1.0 / 3.0, rtol=0, atol=1e-15)
    assert not np.allclose(predicted.sum(axis=0), 0.5, atol=1e-3)


def test_predict_delta_reads_cpt_rows(params3):
    cpts = CptSet.from_params(params3)
    belief = np.zeros((3, 2))
    belief[1, 0] = 1.0  # lane 2, OK
    predicted = predict(belief, cpts.lane, cpts.sensor)
    assert np.allclose(predicted.sum(axis=1), cpts.lane[1], rtol=0, atol=1e-15)
    assert np.allclose(predicted.sum(axis=0), [params3.p1, 1 - params3.p1], rtol=0, atol=1e-15)


def test_predict_matches_double_loop_oracle():
    rng = np.random.default_rng(21)
    cpts = CptSet.from_params(run01())
    for _ in range(20):
        belief = rng.uniform(0, 1, (4, 2))
        belief /= belief.sum()
        expected = np.zeros((4, 2))
        for l in range(4):
            for s in range(2):
                for l2 in range(4):
                    for s2 in range(2):
                        expected[l2, s2] += belief[l, s] * cpts.lane[l, l2] * cpts.sensor[s, s2]
        assert np.allclose(predict(belief, cpts.lane, cpts.sensor), expected, rtol=0, atol=1e-12)


def test_predict_dimension_mismatch(params3):
    cpts = CptSet.from_params(params3)
    with pytest.raises(ParameterError):
        predict(np.full((4, 2), 0.125), cpts.lane, cpts.sensor)


# --- update ----------------------------------------------------------------------

def test_uninformative_evidence_is_identity(params3):
    cpts = CptSet.from_params(params3)
    rng = np.random.default_rng(22)
    for _ in range(20):
        belief = rng.uniform(0, 1, (3, 2))
        belief /= belief.sum()
        posterior = update(
            belief, np.full(3, 1 / 3), np.array([0.5, 0.5]), cpts.detector, cpts.wor
        )
        assert np.allclose(posterior, belief, rtol=0, atol=1e-14)


def test_hard_evidence_limit():
    params = HmmParams(n=2, sigma1=0.5, sigma2=1e-3, p1=0.9, p2=0.9, p3=0.9, p4=0.9, bv=0)
    cpts = CptSet.from_params(params)
    belief = init_belief(params)
    posterior = update(belief, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                       cpts.detector, cpts.wor)
    marginal = posterior.sum(axis=1)
    # The BAD-sensor channel keeps a sliver of mass on lane 2 even under
    # hard evidence; the marginal still concentrates overwhelmingly.
    assert marginal[0] > 0.9 and marginal[0] > 10 * marginal[1]
    assert posterior[:, 0].sum() > posterior[:, 1].sum()


def test_update_rejects_bad_shapes(params3):
    cpts = CptSet.from_params(params3)
    belief = init_belief(params3)
    with pytest.raises(ParameterError):
        update(belief, np.full(4, 0.25), np.array([0.5, 0.5]), cpts.detector, cpts.wor)


# --- map estimate ------------------------------------------------------------------

def test_map_uniform_tie_breaks_low(params3):
    estimate = map_estimate(init_belief(params3))
    assert estimate.map_lane == 1
    assert estimate.map_lane_prob == pytest.approx(1 / 3)


def test_map_plain_argmax():
    belief = np.array([[0.05, 0.05], [0.35, 0.35], [0.1, 0.1]])
    estimate = map_estimate(belief)
    assert estimate.map_lane == 2
    assert estimate.map_lane_prob == pytest.approx(0.7)


def test_map_concentrated_bad_sensor():
    belief = np.zeros((3, 2))
    belief[2, 1] = 1.0
    estimate = map_estimate(belief)
    assert estimate.map_lane == 3
    assert estimate.sensor_ok_prob == 0.0


# --- step and full-filter properties ------------------------------------------------

def test_step_with_uninformative_evidence_is_prediction_only(params3):
    lane_filter = LaneFilter(params3)
    cpts = lane_filter.cpts
    estimate = lane_filter.step(np.full(3, 1 / 3), np.array([0.5, 0.5]))
    expected = np.full(3, 1 / 3) @ cpts.lane
    assert np.allclose(estimate.lane_marginal, expected, rtol=0, atol=1e-14)


def test_step_hard_evidence_monotone(params3):
    lane_filter = LaneFilter(params3)
    hard = np.array([1.0, 0.0, 0.0])
    wor = np.array([1.0, 0.0])
    history = []
    evidence = []
    for _ in range(3):
        history.append(lane_filter.step(hard, wor).lane_marginal[0])
        # Every prefix posterior must also agree with the enumeration oracle.
        evidence.append((hard, wor))
        oracle = enumerate_posterior(lane_filter.cpts, init_belief(params3), evidence)
        assert np.allclose(lane_filter.belief, oracle, rtol=0, atol=1e-12)
    assert history[0] < history[1] < history[2]


def test_step_deterministic(params3):
    def run():
        lane_filter = LaneFilter(params3)
        rng = np.random.default_rng(42)
        out = []
        for _ in range(50):
            tvn, wor = random_evidence(rng, 3)
            out.append(lane_filter.step(tvn, wor).lane_marginal)
        return np.array(out)

    assert run().tobytes() == run().tobytes()


def test_filter_matches_enumeration_oracle_small():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(5):
            params = random_params(rng, n)
            lane_filter = LaneFilter(params)
            evidence = [random_evidence(rng, n) for _ in range(5)]
            for tvn, wor in evidence:
                lane_filter.step(tvn, wor)
            oracle = enumerate_posterior(
                lane_filter.cpts, init_belief(params), evidence
            )
            assert np.allclose(lane_filter.belief, oracle, rtol=0, atol=1e-9)


def test_enumeration_oracle_self_consistent():
    # The vectorized trajectory table must agree with a literal loop over
    # itertools trajectories before it is trusted to judge the filter.
    rng = np.random.default_rng(24)
    params = random_params(rng, 2)
    cpts = CptSet.from_params(params)
    evidence = [random_evidence(rng, 2) for _ in range(4)]
    b0 = init_belief(params)
    fast = enumerate_posterior(cpts, b0, evidence)
    literal = enumerate_posterior_literal(cpts, b0, evidence)
    assert np.allclose(fast, literal, rtol=0, atol=1e-12)


def test_normalization_preserved_random_steps():
    rng = np.random.default_rng(25)
    for _ in range(200):
        params = random_params(rng, int(rng.integers(1, 6)))
        lane_filter = LaneFilter(params)
        for _ in range(5):
            tvn, wor = random_evidence(rng, params.n)
            lane_filter.step(tvn, wor)
            assert abs(lane_filter.belief.sum() - 1.0) <= 1e-12
            assert np.all(lane_filter.belief >= 0.0)


def test_belief_stays_strictly_positive():
    # Open-domain parameters keep all CPT entries positive; sigma is kept
    # away from the underflow regime where erf differences round to 0.
    rng = np.random.default_rng(26)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        params = random_params(rng, n, sigma_lo=0.5)
        lane_filter = LaneFilter(params)
        for _ in range(30):
            tvn, wor = random_evidence(rng, n)
            lane_filter.step(tvn, wor)
        assert np.all(lane_filter.belief > 0.0)


def test_late_hard_observation_can_flip_map(params3):
    lane_filter = LaneFilter(params3)
    for _ in range(50):
        lane_filter.step(np.array([0.9, 0.05, 0.05]), np.array([0.9, 0.1]))
    assert map_estimate(lane_filter.belief).map_lane == 1
    for _ in range(10):
        lane_filter.step(np.array([0.001, 0.001, 0.998]), np.array([0.9, 0.1]))
    assert map_estimate(lane_filter.belief).map_lane == 3


def test_tentative_scale_invariance(params3):
    from lanehmm.inverse_sensor import normalize_tentative

    cpts = CptSet.from_params(params3)
    rng = np.random.default_rng(27)
    belief = rng.uniform(0, 1, (3, 2))
    belief /= belief.sum()
    raw = np.array([0.0, 3.0, 1.0])
    reference = update(belief, normalize_tentative(raw, 3), np.array([0.7, 0.3]),
                       cpts.detector, cpts.wor)
    for scale in (2.0, 0.25, 64.0):  # powers of two scale exactly
        scaled = update(belief, normalize_tentative(scale * raw, 3),
                        np.array([0.7, 0.3]), cpts.detector, cpts.wor)
        assert scaled.tobytes() == reference.tobytes()
    for scale in (3.0, 0.7, 11.3):
        scaled = update(belief, normalize_tentative(scale * raw, 3),
                        np.array([0.7, 0.3]), cpts.detector, cpts.wor)
        assert np.allclose(scaled, reference, rtol=0, atol=1e-12)


# --- candidate axis ------------------------------------------------------------------

def test_candidate_axis_is_bitwise_k_single_filters():
    # The tuner's sweep stacks K candidates; each must follow exactly the
    # path its own LaneFilter takes, or the sweep and the reference route
    # can disagree on near-tied MAP decisions.
    from lanehmm.inverse_sensor import normalize_tentative

    rng = np.random.default_rng(28)
    for n in (1, 2, 3, 4, 5):
        candidates = [random_params(rng, n) for _ in range(6)]
        filters = [LaneFilter(p) for p in candidates]

        def stack(name):
            return np.stack([getattr(f.cpts, name) for f in filters])

        belief = np.stack([init_belief(p) for p in candidates])
        for _ in range(40):
            raw = rng.integers(0, 4, (len(candidates), n)).astype(float)
            tvn = normalize_tentative(raw, n)
            frac = float(rng.uniform(0.0, 1.0))
            wor = np.array([frac, 1.0 - frac])
            belief = predict(belief, stack("lane"), stack("sensor"))
            belief = update(belief, tvn, wor, stack("detector"), stack("wor"))
            for k, lane_filter in enumerate(filters):
                assert np.array_equal(tvn[k], normalize_tentative(raw[k], n))
                lane_filter.step(tvn[k], wor)
                assert belief[k].tobytes() == lane_filter.belief.tobytes()


def test_forward_block_is_bitwise_predict_update():
    # One likelihood/forward block over B frames and K candidates holds the
    # beliefs that B predict/update calls leave.
    from lanehmm.inverse_sensor import normalize_tentative

    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4, 5):
        candidates = [random_params(rng, n) for _ in range(4)]
        cpts = [CptSet.from_params(p) for p in candidates]

        def stack(name):
            return np.stack([getattr(c, name) for c in cpts])

        tvn = normalize_tentative(rng.integers(0, 4, (9, len(cpts), n)).astype(float), n)
        frac = rng.uniform(0.0, 1.0, 9)
        wor = np.stack([frac, 1.0 - frac], axis=1)
        belief = np.stack([init_belief(p) for p in candidates])
        block = forward(belief, stack("lane"), stack("sensor"),
                        likelihood(tvn, wor, stack("detector"), stack("wor")))
        assert block.shape == (9, len(cpts), n, 2)
        for t in range(9):
            belief = predict(belief, stack("lane"), stack("sensor"))
            belief = update(belief, tvn[t], wor[t], stack("detector"), stack("wor"))
            assert block[t].tobytes() == belief.tobytes()


def test_forward_rejects_mismatched_block(params3):
    cpts = CptSet.from_params(params3)
    lik = likelihood(np.full((5, 3), 1 / 3), np.full((5, 2), 0.5), cpts.detector, cpts.wor)
    assert lik.shape == (5, 3, 2)
    with pytest.raises(ParameterError):
        forward(np.full((4, 2), 0.125), np.full((4, 4), 0.25), cpts.sensor, lik)
    with pytest.raises(ParameterError):
        likelihood(np.full((2, 5, 3), 1 / 3), np.full((2, 5, 2), 0.5), cpts.detector, cpts.wor)


@pytest.mark.parametrize("k", [None, 3])
def test_forward_zero_normalizer_is_internal_error(params3, k):
    # A frame whose likelihood is zero in every state leaves nothing to
    # normalize; the block raises, with no RuntimeWarning on the way.
    cpts = CptSet.from_params(params3)
    lead = () if k is None else (k,)

    def stack(table):
        return table if k is None else np.stack([table] * k)

    lik = np.full((6,) + lead + (3, 2), 0.5)
    lik[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InternalError, match="zero normalizer"):
            forward(stack(init_belief(params3)), stack(cpts.lane), stack(cpts.sensor), lik)


def test_candidate_axis_shapes_must_agree(params3):
    cpts = CptSet.from_params(params3)
    belief = np.stack([init_belief(params3)] * 2)
    with pytest.raises(ParameterError):
        predict(belief, cpts.lane, np.stack([cpts.sensor] * 2))
    with pytest.raises(ParameterError):
        update(belief, np.full((2, 3), 1 / 3), np.array([0.5, 0.5]),
               np.stack([cpts.detector] * 3), np.stack([cpts.wor] * 2))
