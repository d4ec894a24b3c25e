"""Sequence and result file parsing/serialization.

Files are line-delimited: a single JSON header object on the first
non-comment line, then one JSON object per frame (or per result record).
The format is documented in docs/format.md; the header carries
`format=1`.  `#` lines are comments.

`read_table` reads a sequence straight into numpy columns, a
`SequenceTable`; `read_sequence` gives the same content as
`FrameRecord`s.  `run_sequence` returns its estimates as a `ResultTable`
of columns, which `write_results` formats.

LRI and validity are normally recomputed from the per-frame `det` flags
so the hysteresis logic is exercised; logs converted from recordings that
already carry them can set `lri_source="log"` in the header to ingest the
precomputed values instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import SequenceFormatError
from .inverse_sensor import MAX_LINE_OFFSET_M, RawLineObservation

FORMAT_VERSION = 1
LRI_SOURCES = ("recompute", "log")


@dataclass(frozen=True)
class SequenceHeader:
    n_lanes: int
    lane_width_m: float = 3.5
    fps: float = 10.0
    source: str = ""
    lri_source: str = "recompute"

    def __post_init__(self) -> None:
        if self.n_lanes < 1:
            raise SequenceFormatError(f"n_lanes must be >= 1, got {self.n_lanes}")
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
_LINE_COLUMNS = ("line_frame", "track", "offset", "cont", "det", "lri", "valid")


@dataclass(frozen=True, eq=False)
class SequenceTable:
    """A sequence's frames and line entries as numpy columns, in file order.

    Frame columns have one row per frame; line columns one row per line
    entry, `line_frame` giving its frame's row.  A track is a code into
    `track_ids`, numbered in order of first appearance.  Absent optional
    fields read -1 (`gt`, `lri`, `valid`) or NaN (`gnss`).
    `source_line` is each frame's line in the file at `path`, 0 for a
    table built from frames.
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
        if rows.step not in (None, 1):
            raise ValueError("a SequenceTable slices contiguous frame ranges only")
        start, stop, _ = rows.indices(len(self))
        stop = max(start, stop)
        lines = slice(*np.searchsorted(self.line_frame, [start, stop]))
        columns = {name: getattr(self, name)[start:stop] for name in _FRAME_COLUMNS}
        columns.update({name: getattr(self, name)[lines] for name in _LINE_COLUMNS})
        columns["line_frame"] = columns["line_frame"] - start
        return dataclasses.replace(self, **columns)

    def error(self, message: str, frame: int) -> SequenceFormatError:
        """A format error located at frame row `frame`'s line, where it has one."""
        line = int(self.source_line[frame])
        return SequenceFormatError(message, path=self.path, line=line or None)

    @classmethod
    def from_frames(cls, frames: Iterable[FrameRecord]) -> "SequenceTable":
        """The table of frame records, such as the simulator's; it has no `path`."""
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

    def frames(self) -> list[FrameRecord]:
        """The table as frame records, the inverse of `from_frames`."""
        entries = [
            LineEntry(self.track_ids[track], offset, cont, det,
                      None if lri < 0 else lri, None if valid < 0 else bool(valid))
            for track, offset, cont, det, lri, valid in zip(
                self.track.tolist(), self.offset.tolist(), self.cont.tolist(),
                self.det.tolist(), self.lri.tolist(), self.valid.tolist())
        ]
        bounds = np.searchsorted(self.line_frame, np.arange(len(self) + 1)).tolist()
        return [
            FrameRecord(frame_id, t, tuple(entries[bounds[i]:bounds[i + 1]]),
                        None if math.isnan(lat) else (lat, lon),
                        None if gt < 0 else gt, crossing)
            for i, (frame_id, t, (lat, lon), gt, crossing) in enumerate(zip(
                self.frame_ids.tolist(), self.t.tolist(), self.gnss.tolist(),
                self.gt.tolist(), self.crossing.tolist()))
        ]


@dataclass(frozen=True)
class ResultRecord:
    frame_id: int
    map_lane: int
    lane_marginal: tuple[float, ...]
    sensor_ok_prob: float
    tentative: tuple[float, ...]
    wor_frac: float

    def __post_init__(self) -> None:
        if abs(sum(self.lane_marginal) - 1.0) > 1e-9:
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
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"invalid JSON ({exc.msg})", path=path, line=lineno) from None
    if not isinstance(obj, dict):
        raise SequenceFormatError("expected a JSON object", path=path, line=lineno)
    return obj


def _content_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped


def _strict(value, kind: type, name: str, path, lineno: int):
    """`value` if it is exactly a JSON `kind`: bool, int, str, or for
    `float` any finite JSON number (returned as a float).

    No coercion: "false" is not a boolean, 2.9 is not a lane index, 5 is
    not a track id and "1.5" or NaN is not a timestamp.
    """
    if kind is float:
        if type(value) in (int, float) and math.isfinite(value):
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
    if obj.get("format") != FORMAT_VERSION:
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
            source=str(obj.get("source", "")),
            lri_source=str(obj.get("lri_source", "recompute")),
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


def _read_frames(lines: Iterator[tuple[int, str]], header: SequenceHeader,
                 path: Path) -> SequenceTable:
    """The frame lines of a sequence file, parsed and checked into a table.

    One pass, one `json.loads` per line: each field gets an inline type
    test, and `_strict` or `_required` runs only for a field that fails
    it, to convert an integral number to a float or raise its error.
    """
    require_lri = header.lri_source == "log"
    n_lanes = header.n_lanes
    isfinite = math.isfinite
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
            raise SequenceFormatError("gnss must be [lat, lon]", path=path, line=lineno)
        gt = obj.get("gt")
        if gt is None:
            gt = -1
        else:
            if type(gt) is not int:
                _strict(gt, int, "gt", path, lineno)
            if not 1 <= gt <= n_lanes:
                raise SequenceFormatError(
                    f"gt_lane {gt} outside [1, {n_lanes}]", path=path, line=lineno
                )
        entries = obj.get("lines", [])
        if type(entries) is not list:
            raise SequenceFormatError(
                f"lines must be a JSON array of objects, got {entries!r}",
                path=path, line=lineno,
            )
        frame = len(frame_ids)
        first = len(tracks)
        for entry in entries:
            if type(entry) is not dict:
                raise SequenceFormatError(
                    f"lines must be a JSON array of objects, got an entry {entry!r}",
                    path=path, line=lineno,
                )
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
            if not abs(offset) < MAX_LINE_OFFSET_M:
                raise SequenceFormatError(
                    f"line offset out of bounds: {offset}", path=path, line=lineno
                )
            if lri < 0 and "lri" in entry:
                raise SequenceFormatError(
                    f"lri must be a JSON integer >= 0, got {lri}", path=path, line=lineno
                )
            if require_lri and (lri < 0 or valid == -1):
                raise SequenceFormatError(
                    "lri_source=log requires lri and valid on every line",
                    path=path, line=lineno,
                )
            line_frame.append(frame)
            tracks.append(codes.setdefault(track, len(codes)))
            offsets.append(offset)
            conts.append(cont)
            dets.append(det)
            lris.append(lri)
            valids.append(valid)
        if len(set(tracks[first:])) < len(tracks) - first:
            seen = set()
            for entry in entries:
                if entry["track"] in seen:
                    raise SequenceFormatError(
                        f"track id {entry['track']!r} reported twice in one frame",
                        path=path, line=lineno,
                    )
                seen.add(entry["track"])
        if frame_ids and frame_id <= frame_ids[-1]:
            raise SequenceFormatError(
                f"frame ids not strictly increasing ({frame_id} after {frame_ids[-1]})",
                path=path, line=lineno,
            )
        frame_ids.append(frame_id)
        ts.append(t)
        gts.append(gt)
        crossings.append(crossing)
        source_lines.append(lineno)
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


def read_table(path: str | Path) -> tuple[SequenceHeader, SequenceTable]:
    """Read a sequence file into columns.

    Raises SequenceFormatError with the offending line number on malformed
    records, missing header, or non-monotonic frame ids.
    """
    path = Path(path)
    lines = _content_lines(path)
    header = _read_header(lines, path, "sequence")
    return header, _read_frames(lines, header, path)


def read_sequence(path: str | Path) -> tuple[SequenceHeader, Iterator[FrameRecord]]:
    """Open a sequence file: the header now, its frames as they are consumed.

    The frames are `read_table`'s, so the first one consumed raises the
    file's first format error, with its line number.
    """
    path = Path(path)
    lines = _content_lines(path)
    header = _read_header(lines, path, "sequence")

    def frames() -> Iterator[FrameRecord]:
        yield from _read_frames(lines, header, path).frames()

    return header, frames()


# --- serialization ----------------------------------------------------------

def _header_obj(header: SequenceHeader, content: str) -> dict:
    return {
        "format": FORMAT_VERSION,
        "content": content,
        "n_lanes": header.n_lanes,
        "lane_width_m": header.lane_width_m,
        "fps": header.fps,
        "source": header.source,
        "lri_source": header.lri_source,
    }


def _line_obj(entry: LineEntry) -> dict:
    obj = {
        "track": entry.track_id,
        "offset": entry.offset_m,
        "cont": entry.continuous,
        "det": entry.detected,
    }
    if entry.lri is not None:
        obj["lri"] = entry.lri
    if entry.is_valid is not None:
        obj["valid"] = entry.is_valid
    return obj


def _frame_obj(frame: FrameRecord) -> dict:
    obj: dict = {"id": frame.frame_id, "t": frame.timestamp_s}
    if frame.gnss is not None:
        obj["gnss"] = list(frame.gnss)
    obj["lines"] = [_line_obj(entry) for entry in frame.lines]
    if frame.gt_lane is not None:
        obj["gt"] = frame.gt_lane
    obj["crossing"] = frame.crossing
    return obj


def write_sequence(
    path: str | Path, header: SequenceHeader, frames: Iterable[FrameRecord]
) -> None:
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_header_obj(header, "sequence")) + "\n")
            for frame in frames:
                fh.write(json.dumps(_frame_obj(frame)) + "\n")
    except OSError as exc:
        raise SequenceFormatError(f"cannot write sequence: {exc}", path=path) from None


def write_results(path: str | Path, header: SequenceHeader, results: ResultTable) -> None:
    """Write per-frame estimates; the file round-trips through read_results.

    Each row is one format template filled with `repr`s of Python ints and
    floats, the same text `json.dumps` gives for the finite values a
    filter produces.
    """
    path = Path(path)
    vector = ", ".join(["{!r}"] * results.lane_marginal.shape[1])
    template = ('{{"id": {!r}, "map_lane": {!r}, "marginal": [' + vector
                + '], "sensor_ok": {!r}, "tentative": [' + vector + '], "wor": {!r}}}\n')
    rows = zip(
        results.frame_ids.tolist(), results.map_lane.tolist(),
        *results.lane_marginal.T.tolist(), results.sensor_ok_prob.tolist(),
        *results.tentative.T.tolist(), results.wor_frac.tolist(),
    )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_header_obj(header, "results")) + "\n")
            fh.writelines(starmap(template.format, rows))
    except OSError as exc:
        raise SequenceFormatError(f"cannot write results: {exc}", path=path) from None


def read_results(path: str | Path) -> tuple[SequenceHeader, list[ResultRecord]]:
    """Read a results file as strictly as a sequence file.

    `id` and `map_lane` must be JSON integers, `map_lane` must lie in
    [1, n_lanes], `marginal` and `tentative` must have n_lanes entries and
    the marginal must sum to 1, ids must strictly increase and every float
    must be finite; any failure is a SequenceFormatError with the line
    number.
    """
    path = Path(path)
    lines = _content_lines(path)
    header = _read_header(lines, path, "results")
    records = []
    for lineno, raw in lines:
        obj = _parse_json_line(raw, path, lineno)

        def strict(value, kind, name):
            return _strict(value, kind, name, path, lineno)

        try:
            record = ResultRecord(
                frame_id=strict(obj["id"], int, "id"),
                map_lane=strict(obj["map_lane"], int, "map_lane"),
                lane_marginal=tuple(strict(x, float, "marginal") for x in obj["marginal"]),
                sensor_ok_prob=strict(obj["sensor_ok"], float, "sensor_ok"),
                tentative=tuple(strict(x, float, "tentative") for x in obj["tentative"]),
                wor_frac=strict(obj["wor"], float, "wor"),
            )
        except KeyError as exc:
            raise SequenceFormatError(f"result lacks field {exc}", path=path, line=lineno) from None
        except TypeError as exc:
            raise SequenceFormatError(f"bad result field: {exc}", path=path, line=lineno) from None
        except SequenceFormatError as exc:
            if exc.line is not None:  # a field check, already located
                raise
            raise SequenceFormatError(str(exc), path=path, line=lineno) from None
        for name, values in (("marginal", record.lane_marginal), ("tentative", record.tentative)):
            if len(values) != header.n_lanes:
                raise SequenceFormatError(
                    f"{name} must have {header.n_lanes} entries, got {len(values)}",
                    path=path, line=lineno,
                )
        if not 1 <= record.map_lane <= header.n_lanes:
            raise SequenceFormatError(
                f"map_lane {record.map_lane} outside [1, {header.n_lanes}]",
                path=path, line=lineno,
            )
        if records and record.frame_id <= records[-1].frame_id:
            raise SequenceFormatError(
                f"frame ids not strictly increasing ({record.frame_id} after "
                f"{records[-1].frame_id})",
                path=path, line=lineno,
            )
        records.append(record)
    return header, records
