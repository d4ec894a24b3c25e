import json

import numpy as np
import pytest

from lanehmm.dataset_io import (
    FrameRecord,
    LineEntry,
    ResultRecord,
    SequenceHeader,
    read_results,
    read_sequence,
    write_results,
    write_sequence,
)
from lanehmm.errors import SequenceFormatError

from conftest import FIXTURES


def random_frame(rng, frame_id, n=3):
    lines = tuple(
        LineEntry(
            track_id=f"b{j}",
            offset_m=float(rng.uniform(-20, 20)),
            continuous=bool(rng.integers(2)),
            detected=bool(rng.integers(2)),
        )
        for j in range(rng.integers(0, 5))
    )
    return FrameRecord(
        frame_id=frame_id,
        timestamp_s=float(rng.uniform(0, 1000)),
        lines=lines,
        gnss=(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        if rng.integers(2)
        else None,
        gt_lane=int(rng.integers(1, n + 1)) if rng.integers(2) else None,
        crossing=bool(rng.integers(2)),
    )


# --- reading -----------------------------------------------------------------

def test_logged_lri_fixture_parses():
    header, frames = read_sequence(FIXTURES / "logged_lri.seq")
    assert header.n_lanes == 3 and header.lri_source == "log"
    (frame,) = list(frames)
    offsets = [line.offset_m for line in frame.lines]
    assert offsets == [-9.15, -6.47, -2.15, 0.99]
    assert [line.lri for line in frame.lines] == [10, 9, 7, 0]
    assert [line.is_valid for line in frame.lines] == [True, False, True, False]
    assert [line.continuous for line in frame.lines] == [True, False, False, True]


def test_header_only_is_empty_stream():
    header, frames = read_sequence(FIXTURES / "minimal.seq")
    assert header.n_lanes == 3
    assert list(frames) == []


def test_gt_out_of_range_reports_line():
    header, frames = read_sequence(FIXTURES / "bad_gt.seq")
    with pytest.raises(SequenceFormatError, match="gt_lane 5"):
        list(frames)


def test_missing_header(tmp_path):
    path = tmp_path / "empty.seq"
    path.write_text("# only a comment\n")
    with pytest.raises(SequenceFormatError, match="no header"):
        read_sequence(path)


def test_non_monotonic_ids_rejected(tmp_path):
    path = tmp_path / "dup.seq"
    path.write_text(
        '{"format": 1, "n_lanes": 2}\n'
        '{"id": 3, "t": 0.0, "lines": [], "crossing": false}\n'
        '{"id": 3, "t": 0.1, "lines": [], "crossing": false}\n'
    )
    header, frames = read_sequence(path)
    with pytest.raises(SequenceFormatError, match="strictly increasing"):
        list(frames)


def test_bad_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text('{"format": 1, "n_lanes": 2}\n{oops\n')
    header, frames = read_sequence(path)
    with pytest.raises(SequenceFormatError, match=":2:"):
        list(frames)


def test_log_source_requires_lri_fields(tmp_path):
    path = tmp_path / "log.seq"
    path.write_text(
        '{"format": 1, "n_lanes": 2, "lri_source": "log"}\n'
        '{"id": 0, "t": 0.0, "lines": [{"track": "a", "offset": 1.0, "cont": false, "det": true}], "crossing": false}\n'
    )
    header, frames = read_sequence(path)
    with pytest.raises(SequenceFormatError, match="lri"):
        list(frames)


@pytest.mark.parametrize("lri_source", ["recompute", "log"])
def test_duplicate_track_id_in_frame_reports_line(tmp_path, lri_source):
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True,
            "lri": 10, "valid": True}
    path = tmp_path / "dup_track.seq"
    path.write_text(
        json.dumps({"format": 1, "n_lanes": 3, "lri_source": lri_source}) + "\n"
        + json.dumps({"id": 0, "t": 0.0, "lines": [line]}) + "\n"
        + json.dumps({"id": 1, "t": 0.1, "lines": [line, dict(line, offset=1.75)]}) + "\n"
    )
    header, frames = read_sequence(path)
    with pytest.raises(SequenceFormatError, match=r":3: track id 'b0' reported twice"):
        list(frames)


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("line", "cont", "false"),
        ("line", "det", "no"),
        ("line", "det", 1),
        ("line", "valid", "true"),
        ("line", "lri", 7.0),
        ("line", "lri", True),
        ("frame", "crossing", 0),
        ("frame", "crossing", "false"),
        ("frame", "id", 2.5),
        ("frame", "id", "2"),
        ("frame", "gt", 2.9),
        ("frame", "gt", True),
        ("frame", "t", float("nan")),
        ("frame", "t", float("inf")),
        ("frame", "t", float("-inf")),
        ("frame", "t", "0.5"),
        ("frame", "gnss", [float("nan"), 9.2]),
        ("frame", "gnss", [45.5, float("inf")]),
        ("line", "offset", "-1.75"),
        ("line", "offset", float("nan")),
        ("line", "offset", True),
    ],
)
def test_reader_is_type_strict(tmp_path, where, field, value):
    line = {"track": "b0", "offset": -1.75, "cont": True, "det": True,
            "lri": 10, "valid": True}
    frame = {"id": 2, "t": 0.0, "lines": [line], "gt": 2, "crossing": False}
    (line if where == "line" else frame)[field] = value
    path = tmp_path / "typed.seq"
    path.write_text('{"format": 1, "n_lanes": 3, "lri_source": "log"}\n'
                    + json.dumps(frame) + "\n")
    header, frames = read_sequence(path)
    with pytest.raises(SequenceFormatError, match=f":2: {field} must be a JSON"):
        list(frames)


# --- round trips ----------------------------------------------------------------

def test_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    header = SequenceHeader(n_lanes=3, lane_width_m=3.7, fps=10.0, source="rt")
    frames = [random_frame(rng, i) for i in range(200)]
    path = tmp_path / "rt.seq"
    write_sequence(path, header, frames)
    header2, frames2 = read_sequence(path)
    assert header2 == header
    assert list(frames2) == frames


def test_results_round_trip_exact(tmp_path):
    rng = np.random.default_rng(32)
    header = SequenceHeader(n_lanes=4)
    records = []
    for i in range(1000):
        marginal = rng.uniform(0.01, 1.0, 4)
        marginal /= marginal.sum()
        records.append(
            ResultRecord(
                frame_id=i,
                map_lane=int(np.argmax(marginal)) + 1,
                lane_marginal=tuple(float(x) for x in marginal),
                sensor_ok_prob=float(rng.uniform(0, 1)),
                tentative=tuple(float(x) for x in rng.uniform(0, 9, 4)),
                wor_frac=float(rng.uniform(0, 1)),
            )
        )
    path = tmp_path / "rt.res"
    write_results(path, header, records)
    header2, records2 = read_results(path)
    assert header2 == header
    assert records2 == records  # exact field equality, floats included


RESULT = {"id": 3, "map_lane": 2, "marginal": [0.25, 0.5, 0.25], "sensor_ok": 0.5,
          "tentative": [0.0, 1.0, 0.0], "wor": 0.5}


INTEGER = "must be a JSON integer"
FINITE = "must be a JSON finite number"


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("id", 3.0, INTEGER, id="id-float"),
        pytest.param("id", "3", INTEGER, id="id-string"),
        pytest.param("map_lane", 2.9, INTEGER, id="map_lane-float"),
        pytest.param("map_lane", True, INTEGER, id="map_lane-bool"),
        pytest.param("map_lane", 7, r"7 outside \[1, 3\]", id="map_lane-above"),
        pytest.param("map_lane", 0, r"0 outside \[1, 3\]", id="map_lane-zero"),
        pytest.param("marginal", [float("nan"), 0.5, 0.5], FINITE, id="marginal-nan"),
        pytest.param("sensor_ok", float("inf"), FINITE, id="sensor_ok-inf"),
        pytest.param("tentative", [0.0, "1", 0.0], FINITE, id="tentative-string"),
        pytest.param("wor", float("nan"), FINITE, id="wor-nan"),
        pytest.param("wor", None, FINITE, id="wor-null"),
        pytest.param("marginal", [1.0], "must have 3 entries, got 1", id="marginal-short"),
        pytest.param("tentative", [0.0], "must have 3 entries, got 1", id="tentative-short"),
    ],
)
def test_results_reader_is_type_strict(tmp_path, field, value, message):
    path = tmp_path / "typed.res"
    path.write_text('{"format": 1, "content": "results", "n_lanes": 3}\n'
                    + json.dumps(RESULT) + "\n"
                    + json.dumps({**RESULT, "id": 4, field: value}) + "\n")
    with pytest.raises(SequenceFormatError, match=f":3: {field} {message}"):
        read_results(path)


def test_results_unnormalized_marginal_reports_line(tmp_path):
    path = tmp_path / "unnormalized.res"
    path.write_text('{"format": 1, "content": "results", "n_lanes": 3}\n'
                    + json.dumps(dict(RESULT, marginal=[0.9, 0.3, 0.1])) + "\n")
    with pytest.raises(SequenceFormatError,
                       match=":2: lane marginal of frame 3 does not sum to 1"):
        read_results(path)


@pytest.mark.parametrize("next_id", [3, 2])
def test_results_ids_strictly_increase(tmp_path, next_id):
    path = tmp_path / "order.res"
    path.write_text('{"format": 1, "content": "results", "n_lanes": 3}\n'
                    + json.dumps(RESULT) + "\n"
                    + json.dumps(dict(RESULT, id=next_id)) + "\n")
    with pytest.raises(SequenceFormatError, match=":3: frame ids not strictly increasing"):
        read_results(path)


def test_write_unwritable_path(tmp_path):
    header = SequenceHeader(n_lanes=2)
    with pytest.raises(SequenceFormatError, match="cannot write"):
        write_results(tmp_path / "no" / "such" / "dir.res", header, [])


def test_results_reject_unnormalized_marginal():
    with pytest.raises(SequenceFormatError, match="sum to 1"):
        ResultRecord(
            frame_id=0,
            map_lane=1,
            lane_marginal=(0.9, 0.3),
            sensor_ok_prob=0.5,
            tentative=(1.0, 0.0),
            wor_frac=0.5,
        )


def test_reading_results_as_sequence_fails(tmp_path):
    path = tmp_path / "r.res"
    write_results(path, SequenceHeader(n_lanes=2), [])
    with pytest.raises(SequenceFormatError, match="expected a sequence"):
        read_sequence(path)


def test_parsing_is_locale_independent(tmp_path):
    import locale

    path = tmp_path / "loc.seq"
    write_sequence(
        path,
        SequenceHeader(n_lanes=2),
        [FrameRecord(frame_id=0, timestamp_s=1.5,
                     lines=(LineEntry("a", -1.75, False, True),))],
    )
    candidates = ["de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8"]
    original = locale.setlocale(locale.LC_NUMERIC)
    chosen = None
    for name in candidates:
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
            chosen = name
            break
        except locale.Error:
            continue
    if chosen is None:
        pytest.skip("no comma-decimal locale installed")
    try:
        header, frames = read_sequence(path)
        (frame,) = list(frames)
        assert frame.timestamp_s == 1.5
        assert frame.lines[0].offset_m == -1.75
    finally:
        locale.setlocale(locale.LC_NUMERIC, original)

