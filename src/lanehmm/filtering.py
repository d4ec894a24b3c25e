"""The HMM engine: joint belief over (lane, sensor state) with soft evidence.

The belief is the exact joint distribution, an (n, 2) matrix with sensor
states ordered (OK, BAD).  Prediction applies the lane and sensor
transition tables jointly; the update applies the tentative vector and the
WOR pair as virtual evidence, i.e. as likelihood weights rather than hard
observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .model_core import CptSet, HmmParams


@dataclass(frozen=True)
class FrameEstimate:
    """Per-frame readout of the belief."""

    map_lane: int
    map_lane_prob: float
    lane_marginal: np.ndarray
    sensor_ok_prob: float


def init_belief(params: HmmParams) -> np.ndarray:
    """Initial joint belief: uniform over lanes times (0.5, 0.5)."""
    return np.outer(np.full(params.n, 1.0 / params.n), [0.5, 0.5])


def predict(belief: np.ndarray, lane_cpt: np.ndarray, sensor_cpt: np.ndarray) -> np.ndarray:
    """One transition step of the joint belief.

    Lane and sensor state evolve independently (there is no edge between
    them in the model), so the joint transition factorizes:

        P'(l', s') = sum_{l, s} P(l, s) * lane_cpt[l, l'] * sensor_cpt[s, s']

    Every argument may carry leading candidate axes, shared by all three,
    so one call advances K parameter candidates at once.
    """
    lead, n = belief.shape[:-2], belief.shape[-2]
    if lane_cpt.shape != lead + (n, n) or sensor_cpt.shape != lead + (2, 2):
        raise ParameterError(
            f"CPT shapes {lane_cpt.shape}/{sensor_cpt.shape} do not match belief {belief.shape}"
        )
    return lane_cpt.swapaxes(-1, -2) @ belief @ sensor_cpt


def likelihood(
    tentative: np.ndarray,
    wor: np.ndarray,
    detector_cpt: np.ndarray,
    wor_cpt: np.ndarray,
) -> np.ndarray:
    """Virtual-evidence likelihood of every joint state, shape (..., n, 2).

    The likelihood of state (l, s) is the expected probability of the
    soft observation under that state:

        lik(l, s) = (sum_o tentative[o] * detector_cpt[s, l, o])
                  * (sum_k wor[k] * wor_cpt[s, k])

    The CPTs may carry leading candidate axes; tentative carries the same
    axes and the WOR pair none, both optionally behind one leading frame
    axis, which the result keeps in front.
    """
    lead, n = detector_cpt.shape[:-3], detector_cpt.shape[-1]
    tentative = np.asarray(tentative, dtype=float)
    wor = np.asarray(wor, dtype=float)
    frames = tentative.shape[:tentative.ndim - len(lead) - 1]
    if (len(frames) > 1 or tentative.shape != frames + lead + (n,)
            or detector_cpt.shape[-3:] != (2, n, n)):
        raise ParameterError("tentative/detector CPT dimensions do not match belief")
    if wor.shape != frames + (2,) or wor_cpt.shape != lead + (2, 2):
        raise ParameterError("WOR evidence must have two entries")
    wor = wor.reshape(frames + (1,) * len(lead) + (2,))
    lane_term = (detector_cpt @ tentative[..., None, :, None])[..., 0]  # (..., 2, n): SS, lane
    wor_term = (wor_cpt @ wor[..., :, None])[..., 0]                    # (..., 2)
    lik = lane_term.swapaxes(-1, -2)                                    # (..., n, 2)
    lik *= wor_term[..., None, :]
    return lik


def _normalized(posterior: np.ndarray) -> np.ndarray:
    total = posterior.sum(axis=(-2, -1), keepdims=True)
    if not total.all():
        # Unreachable with open-interval parameters (all CPT entries > 0).
        raise InternalError("zero normalizer in update; parameter domain violated upstream")
    return posterior / total


def update(
    belief: np.ndarray,
    tentative: np.ndarray,
    wor: np.ndarray,
    detector_cpt: np.ndarray,
    wor_cpt: np.ndarray,
) -> np.ndarray:
    """Bayes update with the tentative vector and WOR as virtual evidence.

    belief, tentative and the CPTs may carry the same leading candidate
    axes as in predict; the WOR pair is shared by all candidates.
    """
    lik = likelihood(tentative, wor, detector_cpt, wor_cpt)
    if lik.shape != belief.shape:
        raise ParameterError("tentative/detector CPT dimensions do not match belief")
    return _normalized(belief * lik)


def forward(
    belief: np.ndarray, lane_cpt: np.ndarray, sensor_cpt: np.ndarray, lik: np.ndarray
) -> np.ndarray:
    """Filter `belief` through a block of B frames; the B posteriors, (B, ..., n, 2).

    `lik` is the block's `likelihood`.  Each step is predict and update
    with the same arithmetic, so the posteriors are bitwise those of B
    predict/update calls.
    """
    if lik.shape[-2:] != belief.shape[-2:] or lik.shape[1:] != lane_cpt.shape[:-1] + (2,):
        raise ParameterError(f"likelihood block {lik.shape} does not match belief {belief.shape}")
    lane_t = lane_cpt.swapaxes(-1, -2)
    posteriors = np.empty(lik.shape)
    for i, step_lik in enumerate(lik):
        belief = _normalized(((lane_t @ belief) @ sensor_cpt) * step_lik)
        posteriors[i] = belief
    return posteriors


def lane_marginal(belief: np.ndarray) -> np.ndarray:
    """P(lane) of joint beliefs (..., n, 2): OK mass plus BAD mass."""
    return belief[..., 0] + belief[..., 1]


def map_estimate(belief: np.ndarray) -> FrameEstimate:
    """MAP lane readout; ties break toward the lowest lane index."""
    marginal = lane_marginal(belief)
    idx = int(np.argmax(marginal))
    return FrameEstimate(
        map_lane=idx + 1,
        map_lane_prob=float(marginal[idx]),
        lane_marginal=marginal,
        sensor_ok_prob=float(belief[:, 0].sum()),
    )


class LaneFilter:
    """Stateful per-sequence filter: predict, update, read out, repeat.

    Single-writer; CPTs are shared read-only, so independent instances can
    run concurrently.
    """

    def __init__(self, params: HmmParams):
        self.params = params
        self.cpts = CptSet.from_params(params)
        self.belief = init_belief(params)

    def step(self, tentative: np.ndarray, wor: np.ndarray) -> FrameEstimate:
        """Advance one frame: transition, weigh in the evidence, read the MAP lane."""
        belief = predict(self.belief, self.cpts.lane, self.cpts.sensor)
        belief = update(belief, tentative, wor, self.cpts.detector, self.cpts.wor)
        self.belief = belief
        return map_estimate(belief)
