"""Workload definitions and the seeded input generator.

Every input file is produced here from the benchmark seed with the
package's own simulator; the program under test only ever sees the files.
The same seed gives byte-identical files.  Why each workload exists is
recorded in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from lanehmm.dataset_io import write_sequence
from lanehmm.inverse_sensor import LriTracker
from lanehmm.model_core import RuntimeConfig
from lanehmm.simulator import SimConfig, simulate

FRAMES = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "run" or "tune"
    sim: SimConfig        # seed is replaced by the benchmark seed
    preset: str | None    # run workloads only
    logged_lri: bool      # write lri/valid into the file (header lri_source=log)

    def argv(self, sequence: Path, results: Path, timeline: Path) -> list[str]:
        """The command line a user would type for this workload."""
        if self.command == "run":
            return ["run", "--input", str(sequence), "--preset", self.preset,
                    "--out", str(results), "--trace", str(timeline)]
        return ["tune", "--input", str(sequence), "--budget", "500",
                "--refine", "2", "--seed", "7"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-3lane",
            command="run",
            sim=SimConfig(n_lanes=3, duration_frames=FRAMES),
            preset="spain-run06",
            logged_lri=False,
        ),
        Workload(
            name="run-4lane-logged",
            command="run",
            sim=SimConfig(n_lanes=4, duration_frames=FRAMES, detect_prob_ok=0.85,
                          detect_prob_bad=0.05, offset_noise_sd_m=0.25),
            preset="italy-run01",
            logged_lri=True,
        ),
        Workload(
            name="tune-3lane",
            command="tune",
            sim=SimConfig(n_lanes=3, duration_frames=FRAMES),
            preset=None,
            logged_lri=False,
        ),
    )
}


def _with_logged_lri(header, frames):
    """Replay LriTracker once and store its lri/valid fields in every line."""
    tracker = LriTracker(RuntimeConfig(lane_width=header.lane_width_m))
    logged = []
    for frame in frames:
        tracked = tracker.update([entry.to_observation() for entry in frame.lines])
        lines = tuple(
            dataclasses.replace(entry, lri=t.lri, is_valid=t.is_valid)
            for entry, t in zip(frame.lines, tracked)
        )
        logged.append(dataclasses.replace(frame, lines=lines))
    return dataclasses.replace(header, lri_source="log"), logged


def generate(workload: Workload, seed: int, path: Path) -> int:
    """Write the workload's input sequence for `seed`; returns its frame count."""
    header, frames, _ = simulate(workload.sim.replace(seed=seed))
    if workload.logged_lri:
        header, frames = _with_logged_lri(header, frames)
    write_sequence(path, header, frames)
    return len(frames)
