"""Lane-count prior from a local cartographic extract.

Stands in for a live OpenStreetMap query: the extract is a small text
file of road segments with lane counts (mirroring the OSM `lanes` way
tag), loaded once and queried by nearest segment, measuring every
segment.  Distances use an equirectangular local approximation, adequate
for query radii well below a kilometer at highway latitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import MapExtractError, ParameterError, SegmentNotFoundError, decode_fault

EARTH_RADIUS_M = 6371000.0


@dataclass(frozen=True)
class RoadSegment:
    id: str
    polyline: tuple[tuple[float, float], ...]  # (lat, lon) degrees
    lane_count: int
    lane_width_m: float | None = None

    def __post_init__(self) -> None:
        if len(self.polyline) < 2:
            raise MapExtractError(f"segment {self.id!r} needs at least 2 points")
        if self.lane_count < 1:
            raise MapExtractError(f"segment {self.id!r} has lane_count < 1")
        if not all(math.isfinite(x) for point in self.polyline for x in point):
            raise MapExtractError(f"segment {self.id!r} has a non-finite coordinate")
        if self.lane_width_m is not None and not 0 < self.lane_width_m < math.inf:
            raise MapExtractError(f"segment {self.id!r} lane width must be finite and > 0, "
                                  f"got {self.lane_width_m}")


@dataclass(frozen=True)
class LookupResult:
    lane_count: int
    segment_id: str
    distance_m: float
    lane_width_m: float | None = None


def _local_xy(lat: float, lon: float, lat0: float, lon0: float) -> tuple[float, float]:
    # Equirectangular projection; the mean-latitude cosine keeps distances
    # symmetric under swapping the two points and the error well below 0.1%
    # at sub-kilometer lookup radii.
    x = math.radians(lon - lon0) * math.cos(math.radians((lat + lat0) / 2.0)) * EARTH_RADIUS_M
    y = math.radians(lat - lat0) * EARTH_RADIUS_M
    return x, y


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = min(max(t, 0.0), 1.0)
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class MapExtract:
    """Immutable collection of segments; `nearest` measures every one."""

    def __init__(self, segments: list[RoadSegment]):
        by_id: dict[str, RoadSegment] = {}
        for seg in segments:
            if seg.id in by_id:
                raise MapExtractError(f"duplicate segment id {seg.id!r}")
            by_id[seg.id] = seg
        # Sorted by id so lookups are insertion-order independent and ties
        # resolve to the lowest id.
        self.segments = tuple(by_id[key] for key in sorted(by_id))

    def __len__(self) -> int:
        return len(self.segments)

    def distance_to(self, segment: RoadSegment, lat: float, lon: float) -> float:
        """Great-circle distance (equirectangular approximation) in meters."""
        px, py = 0.0, 0.0
        pts = [_local_xy(la, lo, lat, lon) for la, lo in segment.polyline]
        best = math.inf
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            best = min(best, _point_segment_distance(px, py, ax, ay, bx, by))
        return best

    def nearest(self, lat: float, lon: float, radius_m: float) -> LookupResult:
        if not radius_m > 0:
            raise ParameterError(f"map radius must be > 0, got {radius_m}")
        if not -90 <= lat <= 90:
            raise ParameterError(f"lat must be finite and in [-90, 90], got {lat}")
        if not math.isfinite(lon):
            raise ParameterError(f"lon must be finite, got {lon}")
        hits = [(dist, seg) for seg in self.segments
                if (dist := self.distance_to(seg, lat, lon)) <= radius_m]
        if not hits:
            raise SegmentNotFoundError(f"no segment within {radius_m} m of ({lat}, {lon})")
        dist, seg = min(hits, key=lambda hit: hit[0])  # the first, lowest id, wins a tie
        return LookupResult(seg.lane_count, seg.id, dist, seg.lane_width_m)


def load_extract(path: str | Path) -> MapExtract:
    """Parse the extract format: `id | lane_count | lane_width? | lat,lon;...`.

    One segment per line; `#` comments and blank lines are skipped; the
    lane-width field may be empty.
    """
    path = Path(path)
    segments = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MapExtractError(f"cannot read extract {path}: {exc}") from None
    except UnicodeDecodeError:
        lineno, message = decode_fault(path)
        raise MapExtractError(f"{path}:{lineno}: {message}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 4:
            raise MapExtractError(
                f"{path}:{lineno}: expected 4 '|'-separated fields, got {len(parts)}"
            )
        seg_id, lanes_str, width_str, poly_str = parts
        if not seg_id:
            raise MapExtractError(f"{path}:{lineno}: empty segment id")
        try:
            lane_count = int(lanes_str)
            lane_width = float(width_str) if width_str else None
            points = []
            for pair in poly_str.split(";"):
                lat_str, lon_str = pair.split(",")
                points.append((float(lat_str), float(lon_str)))
        except ValueError as exc:
            raise MapExtractError(f"{path}:{lineno}: {exc}") from None
        try:
            segments.append(
                RoadSegment(
                    id=seg_id,
                    polyline=tuple(points),
                    lane_count=lane_count,
                    lane_width_m=lane_width,
                )
            )
        except MapExtractError as exc:
            raise MapExtractError(f"{path}:{lineno}: {exc}") from None
    try:
        return MapExtract(segments)
    except MapExtractError as exc:
        raise MapExtractError(f"{path}: {exc}") from None

