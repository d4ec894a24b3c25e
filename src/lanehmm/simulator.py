"""Synthetic highway sequence generator.

Produces detector logs with known ground truth: a vehicle that changes
lanes by linear lateral interpolation, n+1 boundary lines observed with
per-line dropouts and offset noise, and a detector health state that
follows a two-state Markov chain (optionally a fixed-duration burst
process, to test the filter against a mismatched failure model).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dataset_io import FrameRecord, LineEntry, SequenceHeader
from .errors import ParameterError
from .model_core import parse_key_values

FAILURE_MODES = ("markov", "fixed")


@dataclass(frozen=True)
class SimConfig:
    n_lanes: int = 3
    lane_width_m: float = 3.5
    fps: float = 10.0
    duration_frames: int = 1000
    lane_change_prob: float = 0.01
    lane_change_duration: int = 20
    fail_prob: float = 0.05
    recover_prob: float = 0.2
    detect_prob_ok: float = 0.9
    detect_prob_bad: float = 0.1
    offset_noise_sd_m: float = 0.2
    seed: int = 0
    failure_mode: str = "markov"
    fail_duration: int = 10
    gnss_origin: tuple[float, float] | None = None
    speed_mps: float = 30.0

    def __post_init__(self) -> None:
        if self.n_lanes < 1:
            raise ParameterError(f"n_lanes must be >= 1, got {self.n_lanes}")
        if not 0 < self.lane_width_m < math.inf:
            raise ParameterError("lane_width_m must be finite and > 0")
        if not 0 < self.fps < math.inf:
            raise ParameterError("fps must be finite and > 0")
        if not math.isfinite(self.speed_mps):
            raise ParameterError("speed_mps must be finite")
        if self.duration_frames < 1:
            raise ParameterError("duration_frames must be >= 1")
        if self.lane_change_duration < 1:
            raise ParameterError("lane_change_duration must be >= 1")
        # Zero is allowed for the switch-off cases (steady lane, no failures).
        if not 0.0 <= self.lane_change_prob < 1.0:
            raise ParameterError("lane_change_prob must lie in [0, 1)")
        if not 0.0 <= self.fail_prob < 1.0:
            raise ParameterError("fail_prob must lie in [0, 1)")
        if not 0.0 < self.recover_prob <= 1.0:
            raise ParameterError("recover_prob must lie in (0, 1]")
        if not 0.0 < self.detect_prob_ok <= 1.0:
            raise ParameterError("detect_prob_ok must lie in (0, 1]")
        if not 0.0 <= self.detect_prob_bad < 1.0:
            raise ParameterError("detect_prob_bad must lie in [0, 1)")
        if not 0 <= self.offset_noise_sd_m < math.inf:
            raise ParameterError("offset_noise_sd_m must be finite and >= 0")
        if self.gnss_origin is not None and not all(map(math.isfinite, self.gnss_origin)):
            raise ParameterError("gnss_origin must be finite")
        if self.failure_mode not in FAILURE_MODES:
            raise ParameterError(f"failure_mode must be one of {FAILURE_MODES}")
        if self.fail_duration < 1:
            raise ParameterError("fail_duration must be >= 1")

    def replace(self, **changes) -> "SimConfig":
        return dataclasses.replace(self, **changes)


def _lat_lon(text: str) -> tuple[float, float]:
    lat, lon = text.split(",")
    return float(lat), float(lon)


_SIM_CONVERTERS = {
    "n_lanes": int, "lane_width_m": float, "fps": float,
    "duration_frames": int, "lane_change_prob": float,
    "lane_change_duration": int, "fail_prob": float, "recover_prob": float,
    "detect_prob_ok": float, "detect_prob_bad": float,
    "offset_noise_sd_m": float, "seed": int, "failure_mode": str,
    "fail_duration": int, "speed_mps": float, "gnss_origin": _lat_lon,
}


def parse_sim_config(text: str, source: str = "<string>", **overrides) -> SimConfig:
    """Parse the key=value simulator config format; overrides win."""
    values = parse_key_values(text, source, _SIM_CONVERTERS)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return SimConfig(**values)


@dataclass(frozen=True)
class SimTruth:
    gt_lane: np.ndarray    # (T,) int
    crossing: np.ndarray   # (T,) bool
    sensor_ok: np.ndarray  # (T,) bool


def simulate(config: SimConfig) -> tuple[SequenceHeader, list[FrameRecord], SimTruth]:
    """Generate one sequence; deterministic given config.seed.

    All random draws are taken from pre-generated arrays in a fixed order,
    so the output stream depends only on the seed (PCG64 keeps it
    platform-independent for a given numpy build).
    """
    n = config.n_lanes
    W = config.lane_width_m
    T = config.duration_frames
    rng = np.random.default_rng(config.seed)
    u_change = rng.random(T)
    u_dir = rng.random(T)
    u_fail = rng.random(T)
    u_detect = rng.random((T, n + 1))
    z_noise = rng.standard_normal((T, n + 1))

    lane = 1 + n // 2
    v = (lane - 0.5) * W  # lateral position, meters from the left road edge
    change_from = change_to = 0
    change_step = 0
    changing = False
    ok = True
    bad_left = 0  # remaining BAD frames in "fixed" failure mode

    gt_lane = np.empty(T, dtype=int)
    crossing = np.zeros(T, dtype=bool)
    sensor_ok = np.empty(T, dtype=bool)
    frames = []
    for t in range(T):
        if not changing and n > 1 and u_change[t] < config.lane_change_prob:
            changing = True
            change_step = 0
            change_from = lane
            if lane == 1:
                change_to = 2
            elif lane == n:
                change_to = n - 1
            else:
                change_to = lane + 1 if u_dir[t] < 0.5 else lane - 1
        if changing:
            change_step += 1
            frac = change_step / config.lane_change_duration
            v = ((change_from - 0.5) + frac * (change_to - change_from)) * W
            crossing[t] = True
            if change_step >= config.lane_change_duration:
                changing = False
                lane = change_to
        else:
            v = (lane - 0.5) * W

        if config.failure_mode == "markov":
            if ok:
                ok = u_fail[t] >= config.fail_prob
            else:
                ok = u_fail[t] < config.recover_prob
        else:
            if bad_left > 0:
                bad_left -= 1
                ok = bad_left == 0
            elif ok and u_fail[t] < config.fail_prob:
                ok = False
                bad_left = config.fail_duration  # counts this frame
        sensor_ok[t] = ok

        gt_lane[t] = min(max(round(v / W + 0.5), 1), n)

        detect_p = config.detect_prob_ok if ok else config.detect_prob_bad
        lines = []
        for j in range(n + 1):
            if u_detect[t, j] < detect_p:
                offset = j * W - v + config.offset_noise_sd_m * z_noise[t, j]
                lines.append(
                    LineEntry(
                        track_id=f"b{j}",
                        offset_m=offset,
                        continuous=j == 0 or j == n,
                        detected=True,
                    )
                )

        gnss = None
        if config.gnss_origin is not None:
            lat0, lon0 = config.gnss_origin
            east_m = t * config.speed_mps / config.fps
            dlon = math.degrees(east_m / (6371000.0 * math.cos(math.radians(lat0))))
            gnss = (lat0, lon0 + dlon)

        frames.append(
            FrameRecord(
                frame_id=t,
                timestamp_s=t / config.fps,
                lines=tuple(lines),
                gnss=gnss,
                gt_lane=int(gt_lane[t]),
                crossing=bool(crossing[t]),
            )
        )

    header = SequenceHeader(
        n_lanes=n,
        lane_width_m=W,
        fps=config.fps,
        source=f"simulator seed={config.seed}",
    )
    return header, frames, SimTruth(gt_lane=gt_lane, crossing=crossing, sensor_ok=sensor_ok)


def inject_burst(
    frames: list[FrameRecord],
    start: int,
    length: int,
    mode: str,
    header: SequenceHeader | None = None,
    seed: int = 0,
) -> list[FrameRecord]:
    """Force a failure window onto an existing sequence.

    "dropout" empties the line list of every frame in [start, start+length);
    "clutter" adds one spurious line per frame at an offset drawn uniformly
    over the roadway span (requires the header for the geometry).
    """
    if mode not in ("dropout", "clutter"):
        raise ParameterError(f"unknown burst mode {mode!r}")
    if length < 0:
        raise ParameterError("burst length must be >= 0")
    if mode == "clutter" and header is None:
        raise ParameterError("clutter mode needs the sequence header for geometry")
    rng = np.random.default_rng(seed)
    out = []
    for frame in frames:
        if not start <= frame.frame_id < start + length:
            out.append(frame)
            continue
        if mode == "dropout":
            out.append(dataclasses.replace(frame, lines=()))
        else:
            span = header.n_lanes * header.lane_width_m
            spurious = LineEntry(
                track_id="clutter",
                offset_m=float(rng.uniform(-span, span)),
                continuous=False,
                detected=True,
            )
            out.append(dataclasses.replace(frame, lines=frame.lines + (spurious,)))
    return out
