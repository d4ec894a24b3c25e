import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from lanehmm.inverse_sensor import tentative_parts
from lanehmm.model_core import HmmParams, RuntimeConfig

FIXTURES = Path(__file__).parent / "fixtures"

# Properties test the same examples on every run, with no per-example time
# limit: tier-1 stays deterministic on a slow or loaded host.
settings.register_profile("lanehmm", deadline=None, derandomize=True, database=None)
settings.load_profile("lanehmm")


@pytest.fixture
def cfg():
    return RuntimeConfig()


@pytest.fixture
def params3():
    return HmmParams(n=3, sigma1=0.4, sigma2=0.4, p1=0.9, p2=0.9, p3=0.8, p4=0.8, bv=2.0)


def random_params(rng: np.random.Generator, n: int, sigma_lo: float = 0.05) -> HmmParams:
    return HmmParams(
        n=n,
        sigma1=float(rng.uniform(sigma_lo, 3.0)),
        sigma2=float(rng.uniform(sigma_lo, 3.0)),
        p1=float(rng.uniform(0.01, 0.999)),
        p2=float(rng.uniform(0.01, 0.999)),
        p3=float(rng.uniform(0.01, 0.999)),
        p4=float(rng.uniform(0.01, 0.999)),
        bv=float(rng.integers(0, 11)),
    )


def tentative(lines, params: HmmParams, cfg: RuntimeConfig) -> np.ndarray:
    """One frame's full tentative vector, base + bv * bonus."""
    base, bonus = tentative_parts(lines, params.n, cfg)
    return base + params.bv * bonus
