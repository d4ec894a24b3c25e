"""Sequence and result file parsing/serialization.

Files are line-delimited: a single JSON header object on the first
non-comment line, then one JSON object per frame (or per result record).
The format is documented in docs/format.md; the header carries
`format=1`.  `#` lines are comments.

LRI and validity are normally recomputed from the per-frame `det` flags
so the hysteresis logic is exercised; logs converted from recordings that
already carry them can set `lri_source="log"` in the header to ingest the
precomputed values instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
            n_lanes=int(obj["n_lanes"]),
            lane_width_m=float(obj.get("lane_width_m", 3.5)),
            fps=float(obj.get("fps", 10.0)),
            source=str(obj.get("source", "")),
            lri_source=str(obj.get("lri_source", "recompute")),
        )
    except KeyError as exc:
        raise SequenceFormatError(f"header lacks field {exc}", path=path, line=lineno) from None
    except (TypeError, ValueError) as exc:
        raise SequenceFormatError(f"bad header field: {exc}", path=path, line=lineno) from None


def _strict(value, kind: type, name: str, path, lineno: int):
    """`value` if it is exactly a JSON `kind`: bool, int, or for `float`
    any finite JSON number (returned as a float).

    No coercion: "false" is not a boolean, 2.9 is not a lane index and
    "1.5" or NaN is not a timestamp.
    """
    if kind is float:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    elif type(value) is kind:
        return value
    what = {bool: "boolean", int: "integer", float: "finite number"}[kind]
    raise SequenceFormatError(
        f"{name} must be a JSON {what}, got {value!r}", path=path, line=lineno
    )


def _parse_line_entry(obj: dict, path, lineno: int, require_lri: bool) -> LineEntry:
    try:
        entry = LineEntry(
            track_id=str(obj["track"]),
            offset_m=_strict(obj["offset"], float, "offset", path, lineno),
            continuous=_strict(obj["cont"], bool, "cont", path, lineno),
            detected=_strict(obj["det"], bool, "det", path, lineno),
            lri=_strict(obj["lri"], int, "lri", path, lineno) if "lri" in obj else None,
            is_valid=_strict(obj["valid"], bool, "valid", path, lineno)
            if "valid" in obj else None,
        )
    except KeyError as exc:
        raise SequenceFormatError(f"line entry lacks field {exc}", path=path, line=lineno) from None
    except (TypeError, ValueError) as exc:
        raise SequenceFormatError(f"bad line entry: {exc}", path=path, line=lineno) from None
    if abs(entry.offset_m) >= MAX_LINE_OFFSET_M:
        raise SequenceFormatError(
            f"line offset out of bounds: {entry.offset_m}", path=path, line=lineno
        )
    if entry.lri is not None and entry.lri < 0:
        raise SequenceFormatError(
            f"lri must be a JSON integer >= 0, got {entry.lri}", path=path, line=lineno
        )
    if require_lri and (entry.lri is None or entry.is_valid is None):
        raise SequenceFormatError(
            "lri_source=log requires lri and valid on every line", path=path, line=lineno
        )
    return entry


def _parse_frame(obj: dict, header: SequenceHeader, path, lineno: int) -> FrameRecord:
    require_lri = header.lri_source == "log"
    try:
        frame_id = _strict(obj["id"], int, "id", path, lineno)
        timestamp = _strict(obj["t"], float, "t", path, lineno)
        raw_lines = obj.get("lines", [])
        gnss = obj.get("gnss")
        gt = obj.get("gt")
        crossing = _strict(obj.get("crossing", False), bool, "crossing", path, lineno)
    except KeyError as exc:
        raise SequenceFormatError(f"frame lacks field {exc}", path=path, line=lineno) from None
    except (TypeError, ValueError) as exc:
        raise SequenceFormatError(f"bad frame field: {exc}", path=path, line=lineno) from None
    if gnss is not None:
        if not (isinstance(gnss, list) and len(gnss) == 2):
            raise SequenceFormatError("gnss must be [lat, lon]", path=path, line=lineno)
        gnss = tuple(_strict(x, float, "gnss", path, lineno) for x in gnss)
    if gt is not None:
        _strict(gt, int, "gt", path, lineno)
        if not 1 <= gt <= header.n_lanes:
            raise SequenceFormatError(
                f"gt_lane {gt} outside [1, {header.n_lanes}]", path=path, line=lineno
            )
    lines = tuple(
        _parse_line_entry(entry, path, lineno, require_lri) for entry in raw_lines
    )
    track_ids = set()
    for entry in lines:
        if entry.track_id in track_ids:
            raise SequenceFormatError(
                f"track id {entry.track_id!r} reported twice in one frame",
                path=path, line=lineno,
            )
        track_ids.add(entry.track_id)
    return FrameRecord(
        frame_id=frame_id,
        timestamp_s=timestamp,
        lines=lines,
        gnss=gnss,
        gt_lane=gt,
        crossing=crossing,
    )


def read_sequence(path: str | Path) -> tuple[SequenceHeader, Iterator[FrameRecord]]:
    """Open a sequence file; frames are parsed lazily, in file order.

    Raises SequenceFormatError with the offending line number on malformed
    records, missing header, or non-monotonic frame ids.
    """
    path = Path(path)
    lines = _content_lines(path)
    try:
        lineno, raw = next(lines)
    except StopIteration:
        raise SequenceFormatError("file has no header line", path=path) from None
    header = _parse_header(_parse_json_line(raw, path, lineno), path, lineno, "sequence")

    def frames() -> Iterator[FrameRecord]:
        last_id = None
        for lineno, raw in lines:
            frame = _parse_frame(_parse_json_line(raw, path, lineno), header, path, lineno)
            if last_id is not None and frame.frame_id <= last_id:
                raise SequenceFormatError(
                    f"frame ids not strictly increasing ({frame.frame_id} after {last_id})",
                    path=path, line=lineno,
                )
            last_id = frame.frame_id
            yield frame

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


def write_results(
    path: str | Path, header: SequenceHeader, results: Iterable[ResultRecord]
) -> None:
    """Write per-frame estimates; the file round-trips through read_results."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_header_obj(header, "results")) + "\n")
            for rec in results:
                obj = {
                    "id": rec.frame_id,
                    "map_lane": rec.map_lane,
                    "marginal": list(rec.lane_marginal),
                    "sensor_ok": rec.sensor_ok_prob,
                    "tentative": list(rec.tentative),
                    "wor": rec.wor_frac,
                }
                fh.write(json.dumps(obj) + "\n")
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
    try:
        lineno, raw = next(lines)
    except StopIteration:
        raise SequenceFormatError("file has no header line", path=path) from None
    header = _parse_header(_parse_json_line(raw, path, lineno), path, lineno, "results")
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
