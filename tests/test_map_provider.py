import math

import numpy as np
import pytest

from lanehmm.errors import MapExtractError, SegmentNotFoundError
from lanehmm.map_provider import (
    MapExtract,
    RoadSegment,
    load_extract,
    lookup_lane_count,
)

from conftest import FIXTURES


def segment(seg_id, points, lanes=2, width=None):
    return RoadSegment(id=seg_id, polyline=tuple(points), lane_count=lanes,
                       lane_width_m=width)


def test_fixture_extract_loads_and_answers():
    extract = load_extract(FIXTURES / "extract3.map")
    assert len(extract) == 3
    hit = lookup_lane_count((45.5001, 9.15), extract, radius_m=50)
    assert hit.lane_count == 4
    assert hit.segment_id == "a4-west"
    assert hit.lane_width_m == 3.5
    ramp = lookup_lane_count((45.515, 9.1501), extract, radius_m=50)
    assert ramp.lane_count == 1 and ramp.segment_id == "ramp-1"


def test_empty_extract_is_valid():
    extract = MapExtract([])
    assert len(extract) == 0
    with pytest.raises(SegmentNotFoundError):
        extract.nearest(45.0, 9.0, 50.0)


def test_duplicate_id_rejected_by_name():
    seg = segment("dup", [(45.0, 9.0), (45.0, 9.1)])
    with pytest.raises(MapExtractError, match="'dup'"):
        MapExtract([seg, segment("dup", [(46.0, 9.0), (46.0, 9.1)])])


def test_vertex_hit_distance_zero():
    extract = MapExtract([segment("s", [(45.5, 9.1), (45.5, 9.2)], lanes=4)])
    hit = lookup_lane_count((45.5, 9.1), extract, radius_m=10)
    assert hit.lane_count == 4 and hit.segment_id == "s"
    assert hit.distance_m == 0.0


def test_far_away_not_found():
    extract = MapExtract([segment("s", [(45.5, 9.1), (45.5, 9.2)])])
    with pytest.raises(SegmentNotFoundError):
        lookup_lane_count((45.59, 9.15), extract, radius_m=50)  # ~10 km north


def test_equidistant_tie_breaks_to_lowest_id():
    # Two parallel segments the same distance north and south of the query.
    north = segment("b", [(45.501, 9.0), (45.501, 9.3)], lanes=3)
    south = segment("a", [(45.499, 9.0), (45.499, 9.3)], lanes=2)
    extract = MapExtract([north, south])
    hit = extract.nearest(45.5, 9.15, radius_m=500)
    assert hit.segment_id == "a"


def test_degenerate_segment_distance_symmetric():
    point_seg = segment("p", [(45.5, 9.1), (45.5, 9.1)])
    extract = MapExtract([point_seg])
    d1 = extract.distance_to(point_seg, 45.6, 9.2)
    reverse = MapExtract([segment("q", [(45.6, 9.2), (45.6, 9.2)])])
    d2 = reverse.distance_to(reverse.segments[0], 45.5, 9.1)
    assert d1 == pytest.approx(d2, rel=1e-6)


def test_returned_distance_never_exceeds_radius():
    rng = np.random.default_rng(41)
    segments = [
        segment(f"s{i}", [(45.5 + rng.uniform(-0.01, 0.01), 9.1 + rng.uniform(-0.01, 0.01)),
                          (45.5 + rng.uniform(-0.01, 0.01), 9.1 + rng.uniform(-0.01, 0.01))])
        for i in range(20)
    ]
    extract = MapExtract(segments)
    for _ in range(100):
        lat = 45.5 + rng.uniform(-0.01, 0.01)
        lon = 9.1 + rng.uniform(-0.01, 0.01)
        radius = float(rng.uniform(10, 2000))
        try:
            hit = extract.nearest(lat, lon, radius)
        except SegmentNotFoundError:
            continue
        assert hit.distance_m <= radius


def test_insertion_order_irrelevant():
    segs = [
        segment("a", [(45.5, 9.10), (45.5, 9.12)]),
        segment("b", [(45.6, 9.10), (45.6, 9.12)], lanes=3),
        segment("c", [(45.7, 9.10), (45.7, 9.12)], lanes=4),
    ]
    forward = MapExtract(segs).nearest(45.6001, 9.11, 500)
    backward = MapExtract(segs[::-1]).nearest(45.6001, 9.11, 500)
    assert forward == backward


def test_distance_accuracy_against_haversine():
    seg = segment("s", [(45.5, 9.1), (45.5, 9.2)])
    extract = MapExtract([seg])
    lat, lon = 45.504, 9.15  # ~445 m north of the segment
    expected = 2 * 6371000.0 * math.asin(abs(math.sin(math.radians(lat - 45.5) / 2)))
    assert extract.distance_to(seg, lat, lon) == pytest.approx(expected, rel=1e-3)


def test_parse_errors_report_line():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.map"
        bad.write_text("ok | 2 | | 45.0,9.0;45.1,9.0\nbroken-line-without-fields\n")
        with pytest.raises(MapExtractError, match=":2:"):
            load_extract(bad)
        single_point = Path(tmp) / "point.map"
        single_point.write_text("p | 2 | | 45.0,9.0\n")
        with pytest.raises(MapExtractError, match="at least 2"):
            load_extract(single_point)
        zero_lanes = Path(tmp) / "lanes.map"
        zero_lanes.write_text("z | 0 | | 45.0,9.0;45.1,9.0\n")
        with pytest.raises(MapExtractError, match="lane_count"):
            load_extract(zero_lanes)


@pytest.mark.parametrize(
    "line, message",
    [
        ("s1 | 3 | nan | 45.5,9.1;45.5,9.2", "lane width must be finite and > 0, got nan"),
        ("s1 | 3 | inf | 45.5,9.1;45.5,9.2", "lane width must be finite and > 0, got inf"),
        ("s1 | 3 | 0 | 45.5,9.1;45.5,9.2", "lane width must be finite and > 0, got 0.0"),
        ("s1 | 3 | -3.5 | 45.5,9.1;45.5,9.2", "lane width must be finite and > 0, got -3.5"),
        ("s1 | 3 | 3.5 | 45.5,nan;45.5,9.2", "has a non-finite coordinate"),
        ("s1 | 3 | | nan,9.1;45.5,9.2", "has a non-finite coordinate"),
        ("s1 | 3 | | 45.5,9.1;inf,9.2", "has a non-finite coordinate"),
        ("s1 | 3 | | 45.5,9.1;45.5,-inf", "has a non-finite coordinate"),
    ],
)
def test_extract_rejects_non_finite_values(tmp_path, line, message):
    path = tmp_path / "bad.map"
    path.write_text("# one segment\n" + line + "\n")
    with pytest.raises(MapExtractError, match=f"^{path}:2: segment 's1' {message}$"):
        load_extract(path)
