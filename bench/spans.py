"""Span recording for the traced benchmark run, from outside the program.

The benchmark installs timing wrappers around lanehmm's layer entry points
at every module binding the program calls through (a from-import creates a
binding of its own), plus the `LriTracker.update` and `LaneFilter.step`
methods.  Spans (id, parent, name, start, end) stay in memory; the
per-layer metrics are aggregated from them after the command and the spans
are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

from lanehmm import dataset_io, evaluation, inverse_sensor, pipeline, tuner
from lanehmm.filtering import LaneFilter

ROOT = "cli.main"


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float


class Recorder:
    """Collects spans and counters of one traced command.  Single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counts: Counter = Counter()
        self._spans: list[list] = []
        self._stack: list[int] = []

    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._spans]

    def _open(self, name: str) -> list:
        span = [len(self._spans), self._stack[-1] if self._stack else -1, name,
                self.clock(), None]
        self._spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[4] = self.clock()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`fn` timed as a span called `name`; count(counts, args, result) may add counts."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return timed

    def wrap_iter(self, name: str, items: Iterator, counter: str) -> Iterator:
        """Time every step of a lazy iterator as a span, counting the items."""
        while True:
            span = self._open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._close(span)
            self.counts[counter] += 1
            yield item


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def _count_lines(counts, args, result) -> None:
    counts["inverse_sensor.lines_in"] += len(args[0])


def _count_bytes_in(counts, args, result) -> None:
    counts["dataset_io.bytes_in"] += os.path.getsize(args[0])


def _count_bytes_out(counts, args, result) -> None:
    counts["dataset_io.bytes_out"] += os.path.getsize(args[0])


def _count_candidates(kind: str) -> Callable:
    def count(counts, args, result) -> None:
        frames = sum(len(seq_frames) for _, seq_frames in args[1])
        counts[f"tuner.{kind}_candidates"] += len(result.trials)
        counts[f"tuner.{kind}_candidate_frames"] += len(result.trials) * frames
    return count


# (function, span name, counter); every lanehmm module binding of the
# function is replaced while tracing.
_FUNCTIONS = (
    (pipeline.run_sequence, "pipeline.run_sequence", None),
    (pipeline.build_evidence, "pipeline.build_evidence", None),
    (inverse_sensor.tentative_parts, "inverse_sensor.tentative_parts", _count_lines),
    (inverse_sensor.compute_wor, "inverse_sensor.compute_wor", None),
    (evaluation.detector_baseline, "evaluation.detector_baseline", None),
    (evaluation.evaluate, "evaluation.evaluate", None),
    (evaluation.make_timeline, "evaluation.make_timeline", None),
    (tuner.random_search, "tuner.random_search", _count_candidates("sweep")),
    (tuner.coordinate_refine, "tuner.coordinate_refine", _count_candidates("refine")),
    (tuner.objective, "tuner.objective", None),
    (dataset_io.write_results, "dataset_io.write_results", _count_bytes_out),
)
_METHODS = (
    (inverse_sensor.LriTracker, "update", "inverse_sensor.LriTracker.update"),
    (LaneFilter, "step", "filtering.LaneFilter.step"),
)


def _lanehmm_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "lanehmm" or name.startswith("lanehmm.")]


@contextmanager
def installed(recorder: Recorder):
    """Replace the layer entry points with timed wrappers; restore them on exit."""
    timed_open = recorder.wrap("dataset_io.read_sequence", dataset_io.read_sequence,
                               _count_bytes_in)

    @functools.wraps(dataset_io.read_sequence)
    def read_sequence(path):
        # The call only parses the header; frames are parsed as they are consumed.
        header, frames = timed_open(path)
        return header, recorder.wrap_iter("dataset_io.read_sequence.frames", frames,
                                          "dataset_io.frames_in")

    replacements = [(dataset_io.read_sequence, read_sequence)]
    replacements += [(fn, recorder.wrap(name, fn, count)) for fn, name, count in _FUNCTIONS]
    patches = []
    for module in _lanehmm_modules():
        for attr, value in list(vars(module).items()):
            for original, wrapper in replacements:
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
    for cls, attr, name in _METHODS:
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, recorder.wrap(name, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced command (see bench/README.md)."""
    spans = recorder.spans()
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        self_s[span.name] += own[span.id]
        calls[span.name] += 1
    counts = recorder.counts
    sweep_s = self_s["tuner.random_search"]
    refine_s = self_s["tuner.coordinate_refine"]
    frames_in = counts["dataset_io.frames_in"]
    return {
        "inverse_sensor.lri_update_s": self_s["inverse_sensor.LriTracker.update"],
        "inverse_sensor.lri_update_calls": calls["inverse_sensor.LriTracker.update"],
        "inverse_sensor.tentative_s": self_s["inverse_sensor.tentative_parts"],
        "inverse_sensor.tentative_calls": calls["inverse_sensor.tentative_parts"],
        "inverse_sensor.wor_s": self_s["inverse_sensor.compute_wor"],
        "inverse_sensor.lines_in": counts["inverse_sensor.lines_in"],
        "inverse_sensor.passes_per_frame":
            calls["inverse_sensor.tentative_parts"] / frames_in if frames_in else 0.0,
        "evaluation.baseline_self_s": self_s["evaluation.detector_baseline"],
        "evaluation.evaluate_s": self_s["evaluation.evaluate"],
        "evaluation.timeline_s": self_s["evaluation.make_timeline"],
        "filtering.step_s": self_s["filtering.LaneFilter.step"],
        "filtering.step_calls": calls["filtering.LaneFilter.step"],
        "pipeline.run_sequence_self_s": self_s["pipeline.run_sequence"],
        "pipeline.build_evidence_self_s": self_s["pipeline.build_evidence"],
        "tuner.random_search_self_s": sweep_s,
        "tuner.refine_self_s": refine_s,
        "tuner.objective_self_s": self_s["tuner.objective"],
        "tuner.candidates": counts["tuner.sweep_candidates"] + counts["tuner.refine_candidates"],
        "tuner.candidate_frames":
            counts["tuner.sweep_candidate_frames"] + counts["tuner.refine_candidate_frames"],
        "tuner.sweep_candidate_frames_per_s":
            counts["tuner.sweep_candidate_frames"] / sweep_s if sweep_s else 0.0,
        "tuner.refine_candidate_frames_per_s":
            counts["tuner.refine_candidate_frames"] / refine_s if refine_s else 0.0,
        "dataset_io.read_s":
            self_s["dataset_io.read_sequence"] + self_s["dataset_io.read_sequence.frames"],
        "dataset_io.write_results_s": self_s["dataset_io.write_results"],
        "dataset_io.bytes_in": counts["dataset_io.bytes_in"],
        "dataset_io.bytes_out": counts["dataset_io.bytes_out"],
        "cli.self_s": self_s[ROOT],
    }


def write_spans(path, commands: list[list[Span]]) -> None:
    """Write the spans of every traced command as TSV, times relative to its root."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("command\tid\tparent\tname\tstart_s\tend_s\n")
        for index, spans in enumerate(commands):
            t0 = spans[0].start if spans else 0.0
            for s in spans:
                fh.write(f"{index}\t{s.id}\t{s.parent}\t{s.name}\t"
                         f"{s.start - t0:.9f}\t{s.end - t0:.9f}\n")
