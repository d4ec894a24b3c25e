import numpy as np
import pytest

from lanehmm.errors import ParameterError
from lanehmm.model_core import (
    MAX_LANES,
    HmmParams,
    RuntimeConfig,
    build_detector_cpt,
    build_lane_cpt,
    build_sensor_cpt,
    build_wor_cpt,
    discretize_normal,
    list_presets,
    load_preset,
    parse_params_text,
)

from conftest import random_params
from oracles import quadrature_lane_distribution

# Frozen output of the trapezoid-rule oracle (step 1e-4) for the Table V
# run-01 sigma; see oracles.quadrature_lane_distribution.
RUN01_SIGMA1_LANE1 = np.array(
    [9.26620687e-01, 7.33750014e-02, 4.31156695e-06, 5.38423381e-14]
)
RUN01_SIGMA2_LANE1 = np.array(
    [6.90657235e-01, 2.88951149e-01, 2.01770719e-02, 2.14545114e-04]
)


# --- discretize_normal -------------------------------------------------------

def test_discretize_tiny_sigma_concentrates():
    assert np.allclose(discretize_normal(2, 1e-6, 4), [0, 1, 0, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.1, 0.336, 1.0, 2.9])
def test_discretize_symmetry_about_middle_lane(sigma):
    probs = discretize_normal(2, sigma, 3)
    assert probs[0] == pytest.approx(probs[2], abs=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_discretize_matches_frozen_oracle_run01():
    assert np.allclose(discretize_normal(1, 0.336, 4), RUN01_SIGMA1_LANE1, rtol=0, atol=1e-8)


def test_discretize_matches_oracle_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        mu = float(rng.uniform(1, n))
        sigma = float(rng.uniform(0.05, 3.0))
        expected = quadrature_lane_distribution(mu, sigma, n, step=2e-5)
        assert np.allclose(discretize_normal(mu, sigma, n), expected, rtol=0, atol=1e-8)


def test_discretize_reflection_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        # Quantized mu keeps the reflected mean n+1-mu exactly representable.
        mu = 1 + int(rng.integers(0, (n - 1) * 2**16 + 1)) / 2**16
        sigma = float(rng.uniform(0.05, 3.0))
        forward = discretize_normal(mu, sigma, n)
        mirrored = discretize_normal(n + 1 - mu, sigma, n)
        assert np.array_equal(forward, mirrored[::-1])


def test_discretize_mode_at_mean_lane():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        i = int(rng.integers(1, n + 1))
        sigma = float(rng.uniform(0.05, max(n - 1e-9, 0.06)))
        probs = discretize_normal(i, sigma, n)
        assert np.argmax(probs) == i - 1


@pytest.mark.parametrize(
    "mu, sigma, n",
    [(0.4, 1.0, 3), (3.7, 1.0, 3), (2, -0.1, 3), (2, 0.0, 3), (1, 1.0, 0)],
)
def test_discretize_rejects_bad_arguments(mu, sigma, n):
    with pytest.raises(ParameterError):
        discretize_normal(mu, sigma, n)


# --- CPT construction --------------------------------------------------------

def run01():
    return HmmParams(n=4, sigma1=0.336, sigma2=0.696, p1=0.895, p2=0.894,
                     p3=0.690, p4=0.461, bv=7)


def test_lane_cpt_single_lane():
    params = HmmParams(n=1, sigma1=0.5, sigma2=0.5, p1=0.9, p2=0.9, p3=0.9, p4=0.9, bv=1)
    assert np.array_equal(build_lane_cpt(params), [[1.0]])


def test_lane_cpt_middle_row_symmetric():
    params = HmmParams(n=3, sigma1=0.77, sigma2=0.5, p1=0.9, p2=0.9, p3=0.9, p4=0.9, bv=1)
    cpt = build_lane_cpt(params)
    assert cpt[1, 0] == pytest.approx(cpt[1, 2], abs=1e-15)


def test_lane_cpt_rows_match_oracle_run01():
    cpt = build_lane_cpt(run01())
    for i in range(1, 5):
        expected = quadrature_lane_distribution(i, 0.336, 4)
        assert np.allclose(cpt[i - 1], expected, rtol=0, atol=1e-8)
    assert np.allclose(cpt[0], RUN01_SIGMA1_LANE1, rtol=0, atol=1e-8)


def test_sensor_cpt_run01_values():
    assert np.array_equal(
        build_sensor_cpt(run01()), [[0.895, 1 - 0.895], [1 - 0.894, 0.894]]
    )


def test_sensor_cpt_memoryless():
    params = HmmParams(n=2, sigma1=0.5, sigma2=0.5, p1=0.5, p2=0.5, p3=0.9, p4=0.9, bv=0)
    assert np.array_equal(build_sensor_cpt(params), [[0.5, 0.5], [0.5, 0.5]])


def test_sensor_cpt_run02_values():
    params = HmmParams(n=4, sigma1=0.481, sigma2=0.296, p1=0.16, p2=0.97,
                       p3=0.613, p4=0.975, bv=9)
    assert np.allclose(build_sensor_cpt(params), [[0.16, 0.84], [0.03, 0.97]], rtol=0, atol=1e-15)


def test_detector_cpt_bad_rows_uniform():
    params = HmmParams(n=2, sigma1=0.5, sigma2=1.3, p1=0.9, p2=0.9, p3=0.9, p4=0.9, bv=0)
    cpt = build_detector_cpt(params)
    assert np.array_equal(cpt[1], np.full((2, 2), 0.5))


def test_detector_cpt_ok_rows_match_oracle_run01():
    cpt = build_detector_cpt(run01())
    assert np.allclose(cpt[0, 0], RUN01_SIGMA2_LANE1, rtol=0, atol=1e-8)
    for lane in range(1, 5):
        assert np.allclose(
            cpt[0, lane - 1], quadrature_lane_distribution(lane, 0.696, 4), rtol=0, atol=1e-8
        )
    assert np.all(cpt[1] == 0.25)


def test_detector_cpt_tiny_sigma_is_identity():
    params = HmmParams(n=3, sigma1=0.5, sigma2=1e-6, p1=0.9, p2=0.9, p3=0.9, p4=0.9, bv=0)
    assert np.allclose(build_detector_cpt(params)[0], np.eye(3), rtol=0, atol=1e-12)


def test_wor_cpt_run01_values():
    assert np.allclose(
        build_wor_cpt(run01()), [[0.690, 0.310], [0.539, 0.461]], rtol=0, atol=1e-15
    )


def test_wor_cpt_run02_values():
    params = HmmParams(n=4, sigma1=0.481, sigma2=0.296, p1=0.16, p2=0.97,
                       p3=0.613, p4=0.975, bv=9)
    assert np.allclose(build_wor_cpt(params), [[0.613, 0.387], [0.025, 0.975]], rtol=0, atol=1e-15)


def test_boundary_probabilities_rejected():
    with pytest.raises(ParameterError):
        HmmParams(n=4, sigma1=0.5, sigma2=0.5, p1=0.9, p2=0.9, p3=1.0, p4=1.0, bv=0)


def test_cpt_rows_stochastic_over_random_draws():
    # Module invariant: 1e5 random parameter draws, every row sums to 1
    # within 1e-12 with no negative entries.
    # The rows of each batch of 1000 draws are checked at once.
    rng = np.random.default_rng(11)
    for _ in range(100):
        sums, lows = [], []
        for _ in range(1000):
            params = random_params(rng, n=int(rng.integers(1, 9)))
            for cpt in (
                build_lane_cpt(params),
                build_sensor_cpt(params),
                build_detector_cpt(params),
                build_wor_cpt(params),
            ):
                rows = cpt.reshape(-1, cpt.shape[-1])
                sums.append(rows.sum(axis=1))
                lows.append(rows.min())
        assert np.min(lows) >= 0.0
        assert np.allclose(np.concatenate(sums), 1.0, rtol=0, atol=1e-12)


# --- parameter domain and files ----------------------------------------------

@pytest.mark.parametrize(
    "field, value",
    [("n", 0), ("n", MAX_LANES + 1), ("sigma1", 0.0), ("sigma2", -1.0), ("p1", 0.0), ("p2", 1.0),
     ("p3", -0.2), ("p4", 1.7), ("bv", -1.0)],
)
def test_params_domain_enforced(field, value):
    good = dict(n=3, sigma1=0.4, sigma2=0.4, p1=0.9, p2=0.9, p3=0.8, p4=0.8, bv=2.0)
    good[field] = value
    with pytest.raises(ParameterError):
        HmmParams(**good)


def test_runtime_config_domain():
    with pytest.raises(ParameterError):
        RuntimeConfig(lane_width=0.5, compat_tolerance=0.6)
    with pytest.raises(ParameterError):
        RuntimeConfig(hysteresis_fraction=1.0)
    with pytest.raises(ParameterError):
        RuntimeConfig(lri_window=0)


def test_parse_params_text_roundtrip():
    text = "# comment\nn=4\nsigma1=0.336\nsigma2=0.696\np1=0.895\np2=0.894\np3=0.690\np4=0.461\nbv=7\n"
    assert parse_params_text(text) == run01()


def test_parse_params_text_errors():
    with pytest.raises(ParameterError, match="missing"):
        parse_params_text("n=3\n")
    with pytest.raises(ParameterError, match="unknown"):
        parse_params_text("zeta=1\n")
    with pytest.raises(ParameterError, match="duplicate"):
        parse_params_text("n=3\nn=4\n")


PARAMS_TEXT = "n={n}\nsigma1=0.5\nsigma2=0.5\np1=0.9\np2=0.9\np3=0.9\np4=0.9\nbv=1\n"


@pytest.mark.parametrize("n", ["3.7", "3.0"])
def test_parse_params_text_requires_integer_n(n):
    with pytest.raises(ParameterError, match=f"^p:1: bad value for n: '{n}'$"):
        parse_params_text(PARAMS_TEXT.format(n=n), source="p")


@pytest.mark.parametrize("field", ["sigma1", "sigma2", "bv"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_params_require_finite_values(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        run01().replace(**{field: value})


@pytest.mark.parametrize("n", [3.7, float("inf"), float("nan")])
def test_params_require_integral_n(n):
    with pytest.raises(ParameterError, match="n must be an integer"):
        run01().replace(n=n)


def test_presets_ship_all_ten_runs():
    names = list_presets()
    assert names == [f"italy-run{i:02d}" for i in range(1, 6)] + [
        f"spain-run{i:02d}" for i in range(6, 11)
    ]
    assert load_preset("italy-run01") == run01()
    spain10 = load_preset("spain-run10")
    assert spain10.sigma2 == 2.907 and spain10.n == 3 and spain10.bv == 5


def test_preset_dir_override(tmp_path, monkeypatch):
    (tmp_path / "custom.params").write_text(
        "n=2\nsigma1=0.3\nsigma2=0.3\np1=0.9\np2=0.9\np3=0.9\np4=0.9\nbv=1\n"
    )
    monkeypatch.setenv("LANEHMM_PRESET_DIR", str(tmp_path))
    assert list_presets() == ["custom"]
    assert load_preset("custom").n == 2
    with pytest.raises(ParameterError, match="unknown preset"):
        load_preset("italy-run01")
