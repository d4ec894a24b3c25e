"""Per-command correctness checks.

Every check returns a list of problems; an empty list is a pass.  A command
with any problem counts as failed, and is never retried or dropped.
"""

from __future__ import annotations

import json
from pathlib import Path

from lanehmm import tuner
from lanehmm.dataset_io import read_results, read_sequence
from lanehmm.errors import LaneHmmError
from lanehmm.model_core import HmmParams

from workloads import Workload

# The paper's acceptance bar: the filtered model beats the detector-only
# baseline by at least ten accuracy points.
MIN_ACCURACY_GAIN = 0.10


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def parse_stdout(rc, stdout: str) -> tuple[dict | None, list[str]]:
    """Exit code 0 and exactly one JSON object on stdout."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != 1:
        return None, problems + [f"{len(lines)} stdout lines, expected one JSON object"]
    try:
        summary = json.loads(lines[0])
    except ValueError:
        return None, problems + ["stdout is not JSON"]
    if not isinstance(summary, dict):
        return None, problems + ["stdout JSON is not an object"]
    return summary, problems


def check_selfcheck(rc, stdout: str) -> list[str]:
    summary, problems = parse_stdout(rc, stdout)
    if summary is not None and summary.get("ok") is not True:
        problems.append(f"selfcheck diverged: {summary.get('divergence')}")
    return problems


class CommandChecker:
    """Checks every command of one workload against its generated input.

    Also derives the accuracy metrics from the command's outputs.  All
    commands of a workload run the same argv on the same input, so every
    summary must equal the first one; this also proves that a traced
    command printed the same JSON as an untraced one.
    """

    def __init__(self, workload: Workload, sequence: Path, results: Path):
        self.workload = workload
        self.results = results
        header, frames = read_sequence(sequence)
        self.frames = list(frames)
        self.train_half, _ = tuner.split_half(header, self.frames)
        self.first_summary: dict | None = None

    def check(self, rc, stdout: str) -> tuple[dict | None, list[str]]:
        """Returns ({model_accuracy, holdout_accuracy, candidate_frames} or None, problems)."""
        summary, problems = parse_stdout(rc, stdout)
        if summary is None:
            return None, problems
        if self.first_summary is None:
            self.first_summary = summary
        elif summary != self.first_summary:
            problems.append("summary differs from the first command's")
        try:
            if self.workload.command == "run":
                derived = self._check_run(summary, problems)
            else:
                derived = self._check_tune(summary, problems)
        except (KeyError, TypeError, ValueError, LaneHmmError) as exc:
            return None, problems + [f"malformed output: {exc!r}"]
        return (None if problems else derived), problems

    def _check_run(self, summary: dict, problems: list[str]) -> dict:
        try:
            _, records = read_results(self.results)
        except (LaneHmmError, OSError) as exc:
            problems.append(f"results file unreadable: {exc}")
            return {}
        ids = [r.frame_id for r in records]
        if ids != [f.frame_id for f in self.frames]:
            problems.append(f"results file has {len(ids)} records for {len(self.frames)} "
                            "input frames, or other frame ids")
            return {}
        model = summary["metrics"]["model"]["accuracy"]
        baseline = summary["metrics"]["baseline"]["accuracy"]
        if not model >= baseline + MIN_ACCURACY_GAIN:
            problems.append(f"model accuracy {model} < baseline {baseline} + "
                            f"{MIN_ACCURACY_GAIN}")
        # The preset was tuned on other recordings, so every frame is held out.
        return {"model_accuracy": model, "holdout_accuracy": model,
                "candidate_frames": len(self.frames)}

    def _check_tune(self, summary: dict, problems: list[str]) -> dict:
        best = HmmParams(**summary["best_params"])
        reference = tuner.objective(best, [self.train_half])
        if summary["train_accuracy"] != reference:
            problems.append(f"train_accuracy {summary['train_accuracy']} != unbatched "
                            f"objective {reference}")
        return {"model_accuracy": summary["train_accuracy"],
                "holdout_accuracy": summary["holdout_accuracy"],
                "candidate_frames": summary["trials"] * len(self.train_half[1])}
