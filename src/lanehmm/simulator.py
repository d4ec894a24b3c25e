"""Synthetic highway sequence generator.

Produces detector logs with known ground truth as a `SequenceTable`: a
vehicle that changes lanes by linear lateral interpolation, n+1 boundary
lines observed with per-line dropouts and offset noise, and a detector
health state that follows a two-state Markov chain (optionally a
fixed-duration burst process, to test the filter against a mismatched
failure model).  The table's `gt` and `crossing` columns are the truth.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dataset_io import LINE_COLUMNS, SequenceHeader, SequenceTable
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


def simulate(config: SimConfig) -> tuple[SequenceHeader, SequenceTable, np.ndarray]:
    """Generate one sequence and its per-frame sensor health (True for OK).

    Deterministic given config.seed: all random draws are taken from
    pre-generated arrays in a fixed order, so the output depends only on
    the seed (PCG64 keeps it platform-independent for a given numpy
    build).  The lane changes and the sensor chain run frame by frame; the
    lines, timestamps and GNSS fixes of all frames are then drawn at once.
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
    change_from = change_to = change_step = 0
    changing = False
    ok = True
    bad_left = 0  # remaining BAD frames in "fixed" failure mode

    position = np.empty(T)  # lateral position, meters from the left road edge
    crossing = np.zeros(T, dtype=bool)
    sensor_ok = np.empty(T, dtype=bool)
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
            position[t] = ((change_from - 0.5) + frac * (change_to - change_from)) * W
            crossing[t] = True
            if change_step >= config.lane_change_duration:
                changing = False
                lane = change_to
        else:
            position[t] = (lane - 0.5) * W

        if config.failure_mode == "markov":
            ok = u_fail[t] >= config.fail_prob if ok else u_fail[t] < config.recover_prob
        elif bad_left > 0:
            bad_left -= 1
            ok = bad_left == 0
        elif ok and u_fail[t] < config.fail_prob:
            ok = False
            bad_left = config.fail_duration  # counts this frame
        sensor_ok[t] = ok

    # Boundary j of frame t is seen if u_detect[t, j] < its detection probability.
    detect_p = np.where(sensor_ok, config.detect_prob_ok, config.detect_prob_bad)
    line_frame, j = np.nonzero(u_detect < detect_p[:, None])
    boundaries = j[np.sort(np.unique(j, return_index=True)[1])]  # first-appearance order
    code = np.empty(n + 1, dtype=int)
    code[boundaries] = np.arange(len(boundaries))

    gnss = np.full((T, 2), math.nan)
    if config.gnss_origin is not None:
        lat0, lon0 = config.gnss_origin
        east_m = np.arange(T) * config.speed_mps / config.fps
        gnss[:, 0] = lat0
        gnss[:, 1] = lon0 + np.degrees(east_m / (6371000.0 * math.cos(math.radians(lat0))))

    table = SequenceTable(
        frame_ids=np.arange(T),
        t=np.arange(T) / config.fps,
        gt=np.clip(np.round(position / W + 0.5), 1, n).astype(int),
        crossing=crossing,
        gnss=gnss,
        source_line=np.zeros(T, dtype=int),
        line_frame=line_frame,
        track=code[j],
        offset=(j * W - position[line_frame]) + config.offset_noise_sd_m * z_noise[line_frame, j],
        cont=(j == 0) | (j == n),
        det=np.ones_like(j, dtype=bool),
        lri=np.full_like(j, -1),
        valid=np.full_like(j, -1, dtype=np.int8),
        track_ids=tuple(f"b{b}" for b in boundaries.tolist()),
    )
    header = SequenceHeader(n_lanes=n, lane_width_m=W, fps=config.fps,
                            source=f"simulator seed={config.seed}")
    return header, table, sensor_ok


def inject_burst(
    table: SequenceTable,
    start: int,
    length: int,
    mode: str,
    header: SequenceHeader | None = None,
    seed: int = 0,
) -> SequenceTable:
    """Force a failure window onto a sequence table.

    "dropout" drops the lines of every frame whose id lies in
    [start, start+length); "clutter" appends one spurious line to each of
    those frames, at an offset drawn uniformly over the roadway span
    (requires the header for the geometry).
    """
    if mode not in ("dropout", "clutter"):
        raise ParameterError(f"unknown burst mode {mode!r}")
    if length < 0:
        raise ParameterError("burst length must be >= 0")
    if mode == "clutter" and header is None:
        raise ParameterError("clutter mode needs the sequence header for geometry")
    in_window = (start <= table.frame_ids) & (table.frame_ids < start + length)
    lines = {name: getattr(table, name) for name in LINE_COLUMNS}
    if mode == "dropout":
        keep = ~in_window[table.line_frame]
        return dataclasses.replace(table, **{name: lines[name][keep] for name in lines})
    window = np.flatnonzero(in_window)
    track_ids = table.track_ids + ("clutter",) * ("clutter" not in table.track_ids)
    span = header.n_lanes * header.lane_width_m
    added = {
        "line_frame": window, "track": track_ids.index("clutter"),
        "offset": np.random.default_rng(seed).uniform(-span, span, size=len(window)),
        "cont": False, "det": True, "lri": -1, "valid": -1,
    }
    # A stable sort puts each spurious line after its frame's own lines.
    order = np.argsort(np.concatenate([table.line_frame, window]), kind="stable")
    return dataclasses.replace(table, track_ids=track_ids, **{
        name: np.concatenate([column, np.full(len(window), added[name], column.dtype)])[order]
        for name, column in lines.items()
    })
