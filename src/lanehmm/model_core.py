"""Model parameterization and conditional probability tables.

The lane HMM is parameterized by (n, sigma1, sigma2, p1..p4, bv).  Lane
dynamics and detector accuracy are normal densities discretized over unit
lane intervals and renormalized (sigma values are therefore in lane-index
units); the sensor-health transition and the reliability observation are
two-state tables.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParameterError

_SQRT2 = math.sqrt(2.0)

PARAM_FIELDS = ("n", "sigma1", "sigma2", "p1", "p2", "p3", "p4", "bv")


def _check_prob(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must lie in the open interval (0, 1), got {value}")


@dataclass(frozen=True)
class HmmParams:
    """The model parameter vector.

    n        number of lanes (lane 1 = leftmost)
    sigma1   lane-transition std. dev., lane-index units
    sigma2   detector-accuracy std. dev., lane-index units
    p1, p2   sensor-state persistence: P(OK stays OK), P(BAD stays BAD)
    p3, p4   reliability-observation accuracy given OK / BAD
    bv       bonus weight added for continuous lines
    """

    n: int
    sigma1: float
    sigma2: float
    p1: float
    p2: float
    p3: float
    p4: float
    bv: float

    def __post_init__(self) -> None:
        if not float(self.n).is_integer() or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n}")
        if not 0 < self.sigma1 < math.inf:
            raise ParameterError(f"sigma1 must be finite and > 0, got {self.sigma1}")
        if not 0 < self.sigma2 < math.inf:
            raise ParameterError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        for name in ("p1", "p2", "p3", "p4"):
            _check_prob(name, getattr(self, name))
        if not 0 <= self.bv < math.inf:
            raise ParameterError(f"bv must be finite and >= 0, got {self.bv}")

    def replace(self, **changes) -> "HmmParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class RuntimeConfig:
    """Geometry and line-tracking thresholds that are not part of the HMM."""

    lane_width: float = 3.5
    compat_tolerance: float = 0.6
    lri_window: int = 10
    hysteresis_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.lane_width > 0:
            raise ParameterError(f"lane_width must be > 0, got {self.lane_width}")
        if not self.compat_tolerance > 0:
            raise ParameterError(
                f"compat_tolerance must be > 0, got {self.compat_tolerance}"
            )
        if self.lane_width <= self.compat_tolerance:
            raise ParameterError(
                "lane_width must exceed compat_tolerance "
                f"({self.lane_width} <= {self.compat_tolerance})"
            )
        if int(self.lri_window) != self.lri_window or self.lri_window < 1:
            raise ParameterError(f"lri_window must be an integer >= 1, got {self.lri_window}")
        if not 0.0 < self.hysteresis_fraction < 1.0:
            raise ParameterError(
                f"hysteresis_fraction must lie in (0, 1), got {self.hysteresis_fraction}"
            )


def discretize_normal(mu: float, sigma: float, n: int) -> np.ndarray:
    """Discretize N(mu, sigma^2) over the n unit lane intervals.

    Entry i (1-based lane i) is the integral of the density over
    [i - 0.5, i + 0.5] in lane-index coordinates; the entries are then
    renormalized to sum to 1, since the roadway is finite while the
    normal has unbounded support.
    """
    if int(n) != n or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    if not 1 <= mu <= n:
        raise ParameterError(f"mu must lie in [1, {n}], got {mu}")
    probs = np.empty(n)
    for i in range(1, n + 1):
        lo = ((i - 0.5) - mu) / sigma
        hi = ((i + 0.5) - mu) / sigma
        # Single subtraction of sign-symmetric erf values keeps the result
        # exactly mirror-symmetric under lane reflection.
        probs[i - 1] = 0.5 * (math.erf(hi / _SQRT2) - math.erf(lo / _SQRT2))
    total = math.fsum(probs)  # exact, so normalization is order-independent
    if total <= 0.0:
        # With sigma very small and mu on a lane center, all mass is inside
        # one interval; a zero total would mean mu was out of range.
        raise ParameterError("discretized normal has no mass on the roadway")
    return probs / total


def build_lane_cpt(params: HmmParams) -> np.ndarray:
    """Lane transition table: row i is the discretized N(i, sigma1^2)."""
    n = params.n
    cpt = np.empty((n, n))
    for i in range(1, n + 1):
        cpt[i - 1] = discretize_normal(i, params.sigma1, n)
    return cpt


def build_sensor_cpt(params: HmmParams) -> np.ndarray:
    """Sensor-state transition table, states ordered (OK, BAD)."""
    return np.array(
        [
            [params.p1, 1.0 - params.p1],
            [1.0 - params.p2, params.p2],
        ]
    )


def build_detector_cpt(params: HmmParams) -> np.ndarray:
    """Detector output table, shape (2, n, n) indexed (sensor state, true lane).

    OK rows are discretized normals centered on the true lane with sigma2;
    BAD rows are uniform because a failed detector carries no lane
    information.
    """
    n = params.n
    cpt = np.empty((2, n, n))
    for lane in range(1, n + 1):
        cpt[0, lane - 1] = discretize_normal(lane, params.sigma2, n)
    cpt[1, :, :] = 1.0 / n
    return cpt


def build_wor_cpt(params: HmmParams) -> np.ndarray:
    """Reliability-observation table, rows = sensor state (OK, BAD)."""
    return np.array(
        [
            [params.p3, 1.0 - params.p3],
            [1.0 - params.p4, params.p4],
        ]
    )


@dataclass(frozen=True)
class CptSet:
    """All four tables built from one parameter vector, shared read-only."""

    n: int
    lane: np.ndarray      # (n, n)
    sensor: np.ndarray    # (2, 2)
    detector: np.ndarray  # (2, n, n)
    wor: np.ndarray       # (2, 2)

    @classmethod
    def from_params(cls, params: HmmParams) -> "CptSet":
        return cls(
            n=params.n,
            lane=build_lane_cpt(params),
            sensor=build_sensor_cpt(params),
            detector=build_detector_cpt(params),
            wor=build_wor_cpt(params),
        )


# --- parameter files and presets -------------------------------------------

def parse_key_values(text: str, source: str, converters: dict) -> dict:
    """The `key=value` lines of a parameter file or simulator config.

    Blank lines and `#` comments are ignored.  Each key must be one of
    `converters` and appear at most once; its value is
    `converters[key](value)`, and a ValueError there makes it a bad value.
    Every fault is a ParameterError at `source:line`.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, where = raw.split("#", 1)[0].strip(), f"{source}:{lineno}"
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{where}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in converters:
            raise ParameterError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ParameterError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = converters[key](value)
        except ValueError:
            raise ParameterError(f"{where}: bad value for {key}: {value!r}") from None
    return values


def parse_params_text(text: str, source: str = "<string>") -> HmmParams:
    """Parse the plain key=value parameter format; all eight parameters
    must be present, `n` an integer."""
    values = parse_key_values(text, source, {key: float for key in PARAM_FIELDS} | {"n": int})
    missing = [k for k in PARAM_FIELDS if k not in values]
    if missing:
        raise ParameterError(f"{source}: missing parameters: {', '.join(missing)}")
    return HmmParams(**values)


def load_params(path: str | Path) -> HmmParams:
    path = Path(path)
    return parse_params_text(path.read_text(encoding="utf-8"), source=str(path))


def format_params(params: HmmParams) -> str:
    lines = [f"n={params.n}"]
    for key in PARAM_FIELDS[1:]:
        lines.append(f"{key}={getattr(params, key)!r}")
    return "\n".join(lines) + "\n"


def save_params(path: str | Path, params: HmmParams) -> None:
    Path(path).write_text(format_params(params), encoding="utf-8")


PRESET_DIR_ENV = "LANEHMM_PRESET_DIR"


def preset_dir() -> Path:
    override = os.environ.get(PRESET_DIR_ENV)
    if override:
        return Path(override)
    return Path(str(resources.files("lanehmm").joinpath("data", "presets")))


def list_presets() -> list[str]:
    directory = preset_dir()
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.params"))


def load_preset(name: str) -> HmmParams:
    path = preset_dir() / f"{name}.params"
    if not path.is_file():
        known = ", ".join(list_presets()) or "(none)"
        raise ParameterError(f"unknown preset {name!r}; available: {known}")
    return load_params(path)
