"""Sequence and result file parsing/serialization.

Files are line-delimited: a single JSON header object on the first
non-comment line, then one JSON object per frame (or per result record).
The format is documented in docs/format.md; the header carries
`format=1`.  `#` lines are comments.

`read_table` reads a sequence into numpy columns, a `SequenceTable`, the
simulator's output type too, which `write_sequence` writes; iterating
one yields `FrameRecord`s, as `read_sequence` does.  `run_sequence`
returns a `ResultTable` of columns, which `write_results` formats.

LRI and validity are normally recomputed from the per-frame `det` flags
so the hysteresis logic is exercised; logs converted from recordings that
already carry them can set `lri_source="log"` in the header to ingest the
precomputed values instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from itertools import islice, starmap
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import SequenceFormatError, decode_fault
from .inverse_sensor import MAX_LINE_OFFSET_M, RawLineObservation
from .model_core import MAX_LANES

FORMAT_VERSION = 1
INT64 = range(-2**63, 2**63)  # the JSON integers a numpy int column holds
LRI_SOURCES = ("recompute", "log")
PROB_TOLERANCE = 1e-9  # how far a results file's probabilities may stray from [0, 1] and sum 1


@dataclass(frozen=True)
class SequenceHeader:
    n_lanes: int
    lane_width_m: float = 3.5
    fps: float = 10.0
    source: str = ""
    lri_source: str = "recompute"

    def __post_init__(self) -> None:
        if not 1 <= self.n_lanes <= MAX_LANES:
            raise SequenceFormatError(
                f"n_lanes must be >= 1 and <= {MAX_LANES}, got {self.n_lanes}")
        if not self.lane_width_m > 0:
            raise SequenceFormatError(f"lane_width_m must be > 0, got {self.lane_width_m}")
        if not self.fps > 0:
            raise SequenceFormatError(f"fps must be > 0, got {self.fps}")
        if self.lri_source not in LRI_SOURCES:
            raise SequenceFormatError(f"lri_source must be one of {LRI_SOURCES}")


@dataclass(frozen=True)
class LineEntry:
    """One line of one frame as stored in the log.

    `lri`/`is_valid` are only present on logs with precomputed reliability
    (header lri_source="log").
    """

    track_id: str
    offset_m: float
    continuous: bool
    detected: bool
    lri: int | None = None
    is_valid: bool | None = None

    def to_observation(self) -> RawLineObservation:
        return RawLineObservation(
            track_id=self.track_id,
            offset_m=self.offset_m,
            continuous=self.continuous,
            detected=self.detected,
        )


@dataclass(frozen=True)
class FrameRecord:
    frame_id: int
    timestamp_s: float
    lines: tuple[LineEntry, ...]
    gnss: tuple[float, float] | None = None
    gt_lane: int | None = None
    crossing: bool = False


_FRAME_COLUMNS = ("frame_ids", "t", "gt", "crossing", "gnss", "source_line")
LINE_COLUMNS = ("line_frame", "track", "offset", "cont", "det", "lri", "valid")


@dataclass(frozen=True, eq=False)
class SequenceTable:
    """A sequence's frames and line entries as numpy columns, in file order.

    Frame columns have one row per frame; line columns one row per line
    entry, `line_frame` giving its frame's row.  A track is a code into
    `track_ids`; the readers and the simulator number tracks in order of
    first appearance.  Absent optional fields read -1 (`gt`, `lri`,
    `valid`) or NaN (`gnss`).
    `source_line` is each frame's line in the file at `path`, 0 for a
    table built in memory.
    """

    frame_ids: np.ndarray    # (T,) int
    t: np.ndarray            # (T,) float
    gt: np.ndarray           # (T,) int
    crossing: np.ndarray     # (T,) bool
    gnss: np.ndarray         # (T, 2) float
    source_line: np.ndarray  # (T,) int
    line_frame: np.ndarray   # (L,) int, nondecreasing
    track: np.ndarray        # (L,) int
    offset: np.ndarray       # (L,) float
    cont: np.ndarray         # (L,) bool
    det: np.ndarray          # (L,) bool
    lri: np.ndarray          # (L,) int
    valid: np.ndarray        # (L,) int8: 1, 0 or -1
    track_ids: tuple[str, ...] = ()
    path: Path | None = None

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, rows: slice) -> "SequenceTable":
        """The table of a contiguous range of frames, e.g. `table[:mid]`."""
        if type(rows) is not slice:
            raise TypeError(f"a SequenceTable slices contiguous frame ranges only, got {rows!r}")
        if rows.step not in (None, 1):
            raise ValueError("a SequenceTable slices contiguous frame ranges only")
        start, stop, _ = rows.indices(len(self))
        stop = max(start, stop)
        lines = slice(*np.searchsorted(self.line_frame, [start, stop]))
        columns = {name: getattr(self, name)[start:stop] for name in _FRAME_COLUMNS}
        columns.update({name: getattr(self, name)[lines] for name in LINE_COLUMNS})
        columns["line_frame"] = columns["line_frame"] - start
        return dataclasses.replace(self, **columns)

    def error(self, message: str, frame: int) -> SequenceFormatError:
        """A format error located at frame row `frame`'s line, where it has one."""
        line = int(self.source_line[frame])
        return SequenceFormatError(message, path=self.path, line=line or None)

    def check(self, header: SequenceHeader) -> None:
        """Raise the table's first content fault through `error`.

        The rules: an annotated `gt` lies in [1, n_lanes], every |offset| <
        MAX_LINE_OFFSET_M, under lri_source=log every line carries `lri` and
        `valid`, no track appears twice in one frame, and frame ids strictly
        increase.  The first faulty frame wins, and in it the first rule.
        """
        n, ids, lines = header.n_lanes, self.frame_ids, self.line_frame
        frames = np.arange(len(ids))
        keys = lines * len(self.track_ids) + self.track
        order = np.argsort(keys, kind="stable")
        twice = np.zeros(len(keys), dtype=bool)
        twice[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        rules = (  # (faulty rows, each row's frame, the message of row i)
            ((self.gt != -1) & ((self.gt < 1) | (self.gt > n)), frames,
             lambda i: f"gt_lane {self.gt[i]} outside [1, {n}]"),
            (~(np.abs(self.offset) < MAX_LINE_OFFSET_M), lines,
             lambda i: f"line offset out of sanity bounds: {float(self.offset[i])}"),
            (((self.lri < 0) | (self.valid < 0)) & (header.lri_source == "log"), lines,
             lambda i: f"line {self.track_ids[self.track[i]]!r} lacks precomputed "
                       "lri/valid fields"),
            (twice, lines, lambda i: f"track id {self.track_ids[self.track[i]]!r} "
                                     "reported twice in one frame"),
            (ids[1:] <= ids[:-1], frames[1:],
             lambda i: f"frame ids not strictly increasing ({ids[i + 1]} after {ids[i]})"),
        )
        faults = [(frame_of[i], message(i))
                  for bad, frame_of, message in rules for i in np.flatnonzero(bad)[:1]]
        if faults:
            frame, message = min(faults, key=lambda fault: fault[0])
            raise self.error(message, frame)

    @classmethod
    def from_frames(cls, frames: Iterable[FrameRecord]) -> "SequenceTable":
        """The table of frame records; it has no `path`."""
        frames = list(frames)
        entries = [entry for frame in frames for entry in frame.lines]
        T, L = len(frames), len(entries)
        codes: dict[str, int] = {}
        nan = (math.nan, math.nan)
        return cls(
            frame_ids=np.fromiter((f.frame_id for f in frames), int, T),
            t=np.fromiter((f.timestamp_s for f in frames), float, T),
            gt=np.fromiter((-1 if f.gt_lane is None else f.gt_lane for f in frames), int, T),
            crossing=np.fromiter((f.crossing for f in frames), bool, T),
            gnss=np.array([f.gnss or nan for f in frames], dtype=float).reshape(T, 2),
            source_line=np.zeros(T, dtype=int),
            line_frame=np.repeat(np.arange(T), [len(f.lines) for f in frames]),
            track=np.fromiter((codes.setdefault(e.track_id, len(codes)) for e in entries),
                              int, L),
            offset=np.fromiter((e.offset_m for e in entries), float, L),
            cont=np.fromiter((e.continuous for e in entries), bool, L),
            det=np.fromiter((e.detected for e in entries), bool, L),
            lri=np.fromiter((-1 if e.lri is None else e.lri for e in entries), int, L),
            valid=np.fromiter((-1 if e.is_valid is None else e.is_valid for e in entries),
                              np.int8, L),
            track_ids=tuple(codes),
        )

    def _rows(self) -> Iterator[tuple]:
        """Per frame: its id, t, gt, crossing, lat, lon and its lines' column values."""
        entries = zip(*(getattr(self, name).tolist() for name in LINE_COLUMNS[1:]))
        counts = np.bincount(self.line_frame, minlength=len(self)).tolist()
        for frame_id, t, gt, crossing, (lat, lon), count in zip(
                *(getattr(self, name).tolist() for name in _FRAME_COLUMNS[:5]), counts):
            yield frame_id, t, gt, crossing, lat, lon, islice(entries, count)

    def __iter__(self) -> Iterator[FrameRecord]:
        """The table as frame records, one frame at a time; `from_frames` inverts it."""
        for frame_id, t, gt, crossing, lat, lon, entries in self._rows():
            lines = tuple(
                LineEntry(self.track_ids[track], offset, cont, det,
                          None if lri < 0 else lri, None if valid < 0 else bool(valid))
                for track, offset, cont, det, lri, valid in entries)
            yield FrameRecord(frame_id, t, lines, None if math.isnan(lat) else (lat, lon),
                              None if gt < 0 else gt, crossing)


@dataclass(frozen=True)
class ResultRecord:
    frame_id: int
    map_lane: int
    lane_marginal: tuple[float, ...]
    sensor_ok_prob: float
    tentative: tuple[float, ...]
    wor_frac: float

    def __post_init__(self) -> None:
        if abs(sum(self.lane_marginal) - 1.0) > PROB_TOLERANCE:
            raise SequenceFormatError(
                f"lane marginal of frame {self.frame_id} does not sum to 1"
            )


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Per-frame estimates of one sequence as columns; row t is frame t."""

    frame_ids: np.ndarray       # (T,) int
    map_lane: np.ndarray        # (T,) int, 1-based
    lane_marginal: np.ndarray   # (T, n)
    sensor_ok_prob: np.ndarray  # (T,)
    tentative: np.ndarray       # (T, n)
    wor_frac: np.ndarray        # (T,)

    def __len__(self) -> int:
        return len(self.frame_ids)


# --- parsing ----------------------------------------------------------------

def _parse_json_line(raw: str, path, lineno: int) -> dict:
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # a ValueError is not always a JSONDecodeError
        reason = (exc.msg if isinstance(exc, json.JSONDecodeError) else "nested too deeply"
                  if isinstance(exc, RecursionError) else "integer has too many digits")
        raise SequenceFormatError(f"invalid JSON ({reason})", path=path, line=lineno) from None
    if not isinstance(obj, dict):
        raise SequenceFormatError("expected a JSON object", path=path, line=lineno)
    return obj


def _content_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                stripped = raw.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                yield lineno, stripped
        except UnicodeDecodeError:
            lineno, message = decode_fault(path)
            raise SequenceFormatError(message, path=path, line=lineno) from None


def _strict(value, kind: type, name: str, path, lineno: int):
    """`value` if it is exactly a JSON `kind`: bool, int, str, or for
    `float` any JSON number a double holds finitely (returned as a float).

    No coercion: "false" is not a boolean, 2.9 is not a lane index, 5 is
    not a track id and "1.5", NaN or 10**400 is not a timestamp.
    """
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    what = {bool: "boolean", int: "integer", str: "string", float: "finite number"}[kind]
    raise SequenceFormatError(
        f"{name} must be a JSON {what}, got {value!r}", path=path, line=lineno
    )


def _required(obj: dict, key: str, kind: type, what: str, path, lineno: int):
    """`obj[key]` through `_strict`; a missing key is a format error too."""
    if key not in obj:
        raise SequenceFormatError(f"{what} lacks field '{key}'", path=path, line=lineno)
    return _strict(obj[key], kind, key, path, lineno)


def _parse_header(obj: dict, path, lineno: int, expect_content: str) -> SequenceHeader:
    if type(obj.get("format")) is not int or obj["format"] != FORMAT_VERSION:
        raise SequenceFormatError(
            f"missing or unsupported format version (expected {FORMAT_VERSION})",
            path=path, line=lineno,
        )
    content = obj.get("content", "sequence")
    if content != expect_content:
        raise SequenceFormatError(
            f"expected a {expect_content} file, header says {content!r}",
            path=path, line=lineno,
        )
    try:
        return SequenceHeader(
            n_lanes=_required(obj, "n_lanes", int, "header", path, lineno),
            lane_width_m=_strict(obj.get("lane_width_m", 3.5), float, "lane_width_m",
                                 path, lineno),
            fps=_strict(obj.get("fps", 10.0), float, "fps", path, lineno),
            source=_strict(obj.get("source", ""), str, "source", path, lineno),
            lri_source=_strict(obj.get("lri_source", "recompute"), str, "lri_source",
                               path, lineno),
        )
    except SequenceFormatError as exc:
        if exc.line is not None:  # a field check, already located
            raise
        raise SequenceFormatError(str(exc), path=path, line=lineno) from None


def _read_header(lines: Iterator[tuple[int, str]], path: Path, content: str) -> SequenceHeader:
    try:
        lineno, raw = next(lines)
    except StopIteration:
        raise SequenceFormatError("file has no header line", path=path) from None
    return _parse_header(_parse_json_line(raw, path, lineno), path, lineno, content)


def _int64_fault(columns, path) -> SequenceFormatError:
    """The error of the first value, by line, outside INT64 in (name, values, lines)."""
    lineno, name, value = min((lineno, name, value) for name, values, lines in columns
                              for value, lineno in zip(values, lines) if value not in INT64)
    return SequenceFormatError(f"{name} must be a JSON integer in the signed 64-bit range, "
                               f"got {value}", path=path, line=lineno)


def _read_frames(lines: Iterator[tuple[int, str]], header: SequenceHeader,
                 path: Path) -> SequenceTable:
    """The frame lines of a sequence file, parsed and type-checked into a table.

    One pass, one `json.loads` per line: each field gets an inline type
    test, and `_strict` or `_required` runs only for a field that fails
    it, to convert an integral number to a float or raise its error.  The
    content rules are `SequenceTable.check`'s, which the callers run once
    the parse lists are freed.
    """
    isfinite = math.isfinite

    def fault(message: str) -> SequenceFormatError:  # at the line being read
        return SequenceFormatError(message, path=path, line=lineno)

    codes: dict[str, int] = {}
    frame_ids, ts, gts, crossings, gnss, source_lines = [], [], [], [], [], []
    line_frame, tracks, offsets, conts, dets, lris, valids = [], [], [], [], [], [], []
    for lineno, raw in lines:
        obj = _parse_json_line(raw, path, lineno)
        frame_id = obj.get("id")
        if type(frame_id) is not int:
            _required(obj, "id", int, "frame", path, lineno)
        t = obj.get("t")
        if type(t) is not float or not isfinite(t):
            t = _required(obj, "t", float, "frame", path, lineno)
        crossing = obj.get("crossing", False)
        if type(crossing) is not bool:
            _strict(crossing, bool, "crossing", path, lineno)
        fix = obj.get("gnss")
        if fix is None:
            gnss += (math.nan, math.nan)
        elif type(fix) is list and len(fix) == 2:
            gnss += (_strict(x, float, "gnss", path, lineno) for x in fix)
        else:
            raise fault("gnss must be [lat, lon]")
        gt = obj.get("gt")
        if gt is None:
            gt = -1
        elif type(gt) is not int:
            _strict(gt, int, "gt", path, lineno)
        elif gt < 0:  # would read as the column's "no annotation"
            raise fault(f"gt_lane {gt} outside [1, {header.n_lanes}]")
        entries = obj.get("lines", [])
        if type(entries) is not list:
            raise fault(f"lines must be a JSON array of objects, got {entries!r}")
        frame = len(frame_ids)
        for entry in entries:
            if type(entry) is not dict:
                raise fault(f"lines must be a JSON array of objects, got an entry {entry!r}")
            track = entry.get("track")
            if type(track) is not str:
                _required(entry, "track", str, "line entry", path, lineno)
            offset = entry.get("offset")
            if type(offset) is not float or not isfinite(offset):
                offset = _required(entry, "offset", float, "line entry", path, lineno)
            cont = entry.get("cont")
            if type(cont) is not bool:
                _required(entry, "cont", bool, "line entry", path, lineno)
            det = entry.get("det")
            if type(det) is not bool:
                _required(entry, "det", bool, "line entry", path, lineno)
            lri = entry.get("lri", -1)
            if type(lri) is not int:
                _strict(lri, int, "lri", path, lineno)
            valid = entry.get("valid", -1)
            if type(valid) is not bool and "valid" in entry:
                _strict(valid, bool, "valid", path, lineno)
            if lri < 0 and "lri" in entry:
                raise fault(f"lri must be a JSON integer >= 0, got {lri}")
            line_frame.append(frame)
            tracks.append(codes.setdefault(track, len(codes)))
            offsets.append(offset)
            conts.append(cont)
            dets.append(det)
            lris.append(lri)
            valids.append(valid)
        frame_ids.append(frame_id)
        ts.append(t)
        gts.append(gt)
        crossings.append(crossing)
        source_lines.append(lineno)
    try:
        return SequenceTable(
            frame_ids=np.array(frame_ids, dtype=int),
            t=np.array(ts, dtype=float),
            gt=np.array(gts, dtype=int),
            crossing=np.array(crossings, dtype=bool),
            gnss=np.array(gnss, dtype=float).reshape(-1, 2),
            source_line=np.array(source_lines, dtype=int),
            line_frame=np.array(line_frame, dtype=int),
            track=np.array(tracks, dtype=int),
            offset=np.array(offsets, dtype=float),
            cont=np.array(conts, dtype=bool),
            det=np.array(dets, dtype=bool),
            lri=np.array(lris, dtype=int),
            valid=np.array(valids, dtype=np.int8),
            track_ids=tuple(codes),
            path=path,
        )
    except OverflowError:
        lri_lines = [source_lines[frame] for frame in line_frame]
        raise _int64_fault((("id", frame_ids, source_lines), ("gt", gts, source_lines),
                            ("lri", lris, lri_lines)), path) from None


def read_table(path: str | Path) -> tuple[SequenceHeader, SequenceTable]:
    """Read a sequence file into columns.

    Raises SequenceFormatError with the offending line number on malformed
    records, missing header, or non-monotonic frame ids.
    """
    path = Path(path)
    lines = _content_lines(path)
    header = _read_header(lines, path, "sequence")
    table = _read_frames(lines, header, path)
    table.check(header)
    return header, table


def read_sequence(path: str | Path) -> tuple[SequenceHeader, Iterator[FrameRecord]]:
    """`read_table`'s header and its frames as records; the call raises the
    file's first format error, with its line number."""
    header, table = read_table(path)
    return header, iter(table)


# --- serialization ----------------------------------------------------------

def _write(path: str | Path, header: SequenceHeader, content: str,
           lines: Iterable[str]) -> None:
    """Write the header line of a `content` file, then `lines`."""
    path = Path(path)
    head = {"format": FORMAT_VERSION, "content": content, **dataclasses.asdict(header)}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise SequenceFormatError(f"cannot write {content}: {exc}", path=path) from None


def _frame_lines(table: SequenceTable) -> Iterator[str]:
    """The frame lines of `table`, each the text `json.dumps` gives its frame
    object; gnss is left out where NaN, gt, lri and valid where negative."""
    quoted = [json.dumps(track_id) for track_id in table.track_ids]
    flag = ("false", "true")
    for frame_id, t, gt, crossing, lat, lon, entries in table._rows():
        lines = ", ".join(
            f'{{"track": {quoted[track]}, "offset": {offset!r}, "cont": {flag[cont]}, '
            f'"det": {flag[det]}' + (f', "lri": {lri}' if lri >= 0 else "")
            + (f', "valid": {flag[valid]}' if valid >= 0 else "") + "}"
            for track, offset, cont, det, lri, valid in entries)
        gnss = "" if math.isnan(lat) else f'"gnss": [{lat!r}, {lon!r}], '
        gt = "" if gt < 0 else f', "gt": {gt}'
        yield (f'{{"id": {frame_id}, "t": {t!r}, {gnss}"lines": [{lines}]{gt}, '
               f'"crossing": {flag[crossing]}}}\n')


def write_sequence(path: str | Path, header: SequenceHeader,
                   frames: SequenceTable | Iterable[FrameRecord]) -> None:
    """Write a sequence file from a table's columns; records become a table first."""
    if not isinstance(frames, SequenceTable):
        frames = SequenceTable.from_frames(frames)
    _write(path, header, "sequence", _frame_lines(frames))


def write_results(path: str | Path, header: SequenceHeader, results: ResultTable) -> None:
    """Write per-frame estimates; the file round-trips through read_results.

    Each row is one format template filled with `repr`s of Python ints and
    floats, the same text `json.dumps` gives for the finite values a
    filter produces.
    """
    vector = ", ".join(["{!r}"] * results.lane_marginal.shape[1])
    template = ('{{"id": {!r}, "map_lane": {!r}, "marginal": [' + vector
                + '], "sensor_ok": {!r}, "tentative": [' + vector + '], "wor": {!r}}}\n')
    rows = zip(
        results.frame_ids.tolist(), results.map_lane.tolist(),
        *results.lane_marginal.T.tolist(), results.sensor_ok_prob.tolist(),
        *results.tentative.T.tolist(), results.wor_frac.tolist(),
    )
    _write(path, header, "results", starmap(template.format, rows))


def read_results(path: str | Path) -> tuple[SequenceHeader, list[ResultRecord]]:
    """Read a results file as strictly as a sequence file.

    `id` and `map_lane` must be JSON integers, `map_lane` must lie in
    [1, n_lanes], `marginal` and `tentative` must have n_lanes entries,
    the marginal must sum to 1, its entries, `sensor_ok` and `wor` must lie
    in [0, 1] (both within PROB_TOLERANCE), `tentative` entries must be
    >= 0, ids must strictly increase and every float must be
    finite; any failure is a SequenceFormatError with the line
    number.  A line whose fields all pass an inline type test becomes a
    record directly; only another calls `_strict` on each field.
    """
    path = Path(path)
    lines = _content_lines(path)
    header = _read_header(lines, path, "results")
    n = header.n_lanes
    isfinite = math.isfinite
    unit = ("marginal",) * n + ("sensor_ok", "wor")  # the fields that lie in [0, 1]

    def fault(message: str) -> SequenceFormatError:  # at the line being read
        return SequenceFormatError(message, path=path, line=lineno)

    records = []
    for lineno, raw in lines:
        obj = _parse_json_line(raw, path, lineno)
        frame_id, map_lane = obj.get("id"), obj.get("map_lane")
        marginal, tentative = obj.get("marginal"), obj.get("tentative")
        sensor_ok, wor = obj.get("sensor_ok"), obj.get("wor")
        # A NaN or infinite term makes the sum non-finite; so does an
        # overflow of finite terms, which the slow path then accepts.
        fast = (type(frame_id) is int and type(map_lane) is int
                and type(marginal) is list and type(tentative) is list
                and type(sensor_ok) is float and type(wor) is float
                and set(map(type, marginal + tentative)) == {float}
                and isfinite(sum(marginal) + sum(tentative) + sensor_ok + wor))
        try:
            if not fast:
                frame_id = _strict(obj["id"], int, "id", path, lineno)
                map_lane = _strict(obj["map_lane"], int, "map_lane", path, lineno)
                marginal = [_strict(x, float, "marginal", path, lineno) for x in obj["marginal"]]
                sensor_ok = _strict(obj["sensor_ok"], float, "sensor_ok", path, lineno)
                tentative = [_strict(x, float, "tentative", path, lineno)
                             for x in obj["tentative"]]
                wor = _strict(obj["wor"], float, "wor", path, lineno)
            record = ResultRecord(frame_id, map_lane, tuple(marginal), sensor_ok,
                                  tuple(tentative), wor)
        except KeyError as exc:
            raise fault(f"result lacks field {exc}") from None
        except TypeError as exc:
            raise fault(f"bad result field: {exc}") from None
        except SequenceFormatError as exc:
            if exc.line is not None:  # a field check, already located
                raise
            raise fault(str(exc)) from None
        for name, values in (("marginal", record.lane_marginal), ("tentative", record.tentative)):
            if len(values) != n:
                raise fault(f"{name} must have {n} entries, got {len(values)}")
        if not 1 <= record.map_lane <= n:
            raise fault(f"map_lane {record.map_lane} outside [1, {n}]")
        values = record.lane_marginal + (record.sensor_ok_prob, record.wor_frac)
        for name, value in zip(unit, values):
            if not -PROB_TOLERANCE <= value <= 1.0 + PROB_TOLERANCE:
                raise fault(f"{name} must lie in [0, 1], got {value}")
        if min(record.tentative) < 0:
            raise fault(f"tentative must be >= 0, got {min(record.tentative)}")
        if records and record.frame_id <= records[-1].frame_id:
            raise fault(f"frame ids not strictly increasing ({record.frame_id} after "
                        f"{records[-1].frame_id})")
        records.append(record)
    # Ids strictly increase, so all lie in INT64 if the first and last do.
    if records and not (records[0].frame_id in INT64 and records[-1].frame_id in INT64):
        lines = [lineno for lineno, _ in _content_lines(path)][1:]  # after the header
        raise _int64_fault([("id", [r.frame_id for r in records], lines)], path)
    return header, records
