import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanehmm.dataset_io import (
    FrameRecord,
    LineEntry,
    ResultRecord,
    ResultTable,
    SequenceHeader,
    SequenceTable,
    read_results,
    read_sequence,
    read_table,
    write_results,
    write_sequence,
)
from lanehmm.errors import SequenceFormatError
from lanehmm.model_core import MAX_LANES

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


def result_table(records, n):
    """The columns of ResultRecords, as run_sequence returns them."""
    return ResultTable(
        frame_ids=np.array([r.frame_id for r in records], dtype=int),
        map_lane=np.array([r.map_lane for r in records], dtype=int),
        lane_marginal=np.array([r.lane_marginal for r in records], dtype=float).reshape(-1, n),
        sensor_ok_prob=np.array([r.sensor_ok_prob for r in records], dtype=float),
        tentative=np.array([r.tentative for r in records], dtype=float).reshape(-1, n),
        wor_frac=np.array([r.wor_frac for r in records], dtype=float),
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
    with pytest.raises(SequenceFormatError, match="gt_lane 5"):
        header, frames = read_sequence(FIXTURES / "bad_gt.seq")
        list(frames)


def test_negative_gt_is_not_read_as_unannotated(tmp_path):
    # -1 marks "no annotation" in the table's gt column
    path = tmp_path / "negative_gt.seq"
    path.write_text('{"format": 1, "n_lanes": 3}\n{"id": 0, "t": 0.0, "gt": -1}\n')
    with pytest.raises(SequenceFormatError, match=r":2: gt_lane -1 outside \[1, 3\]$"):
        read_table(path)


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
    with pytest.raises(SequenceFormatError, match="strictly increasing"):
        header, frames = read_sequence(path)
        list(frames)


def test_bad_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text('{"format": 1, "n_lanes": 2}\n{oops\n')
    with pytest.raises(SequenceFormatError, match=":2:"):
        header, frames = read_sequence(path)
        list(frames)


def test_log_source_requires_lri_fields(tmp_path):
    path = tmp_path / "log.seq"
    path.write_text(
        '{"format": 1, "n_lanes": 2, "lri_source": "log"}\n'
        '{"id": 0, "t": 0.0, "lines": [{"track": "a", "offset": 1.0, "cont": false, "det": true}], "crossing": false}\n'
    )
    with pytest.raises(SequenceFormatError, match="lri"):
        header, frames = read_sequence(path)
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
    with pytest.raises(SequenceFormatError, match=r":3: track id 'b0' reported twice"):
        header, frames = read_sequence(path)
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
        ("line", "lri", -500),
        ("frame", "lines", 5),
        ("frame", "lines", [5]),
        ("line", "track", None),
        ("line", "track", 5),
        ("frame", "id", 10**23),
        ("frame", "id", 2**63),
        ("frame", "id", -2**63 - 1),
        ("frame", "gt", 10**23),
        ("line", "lri", 10**23),
        pytest.param("frame", "t", 10**400, id="t-huge-integer"),
        pytest.param("frame", "gnss", [45.5, -10**400], id="gnss-huge-integer"),
        pytest.param("line", "offset", -10**400, id="offset-huge-integer"),
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
    with pytest.raises(SequenceFormatError, match=f":2: {field} must be a JSON"):
        header, frames = read_sequence(path)
        list(frames)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_lanes", 2.9, "n_lanes must be a JSON integer"),
        ("n_lanes", True, "n_lanes must be a JSON integer"),
        ("n_lanes", 0, "n_lanes must be >= 1"),
        ("n_lanes", MAX_LANES + 1, f"n_lanes must be >= 1 and <= {MAX_LANES}, got {MAX_LANES + 1}"),
        ("lane_width_m", "3.5", "lane_width_m must be a JSON finite number"),
        ("lane_width_m", float("nan"), "lane_width_m must be a JSON finite number"),
        ("lane_width_m", 0, "lane_width_m must be > 0"),
        ("fps", "Infinity", "fps must be a JSON finite number"),
        ("fps", float("inf"), "fps must be a JSON finite number"),
        ("fps", -10, "fps must be > 0"),
        pytest.param("lane_width_m", 10**400, "lane_width_m must be a JSON finite number",
                     id="lane_width_m-huge-integer"),
        pytest.param("fps", -10**400, "fps must be a JSON finite number",
                     id="fps-huge-integer"),
        ("format", True, "missing or unsupported format version"),
        ("format", 1.0, "missing or unsupported format version"),
        ("source", {"a": [1, 2]}, "source must be a JSON string"),
        ("source", 5, "source must be a JSON string"),
        ("lri_source", ["log"], "lri_source must be a JSON string"),
    ],
)
def test_header_is_type_strict(tmp_path, field, value, message):
    path = tmp_path / "header.seq"
    path.write_text(json.dumps({"format": 1, "n_lanes": 3, field: value}) + "\n")
    with pytest.raises(SequenceFormatError, match=f":1: {message}"):
        read_table(path)


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


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def logs(draw):
    """A header and frames as a log would carry them, in either LRI source."""
    n = draw(st.integers(1, 5))
    log = draw(st.booleans())
    optional = (lambda s: s) if log else (lambda s: st.none() | s)
    line = st.builds(
        lambda offset, cont, det, lri, valid: (offset, cont, det, lri, valid),
        st.floats(-49.9, 49.9), st.booleans(), st.booleans(),
        optional(st.integers(0, 20)), optional(st.booleans()),
    )
    frames = []
    frame_id = draw(st.integers(-5, 5))
    for _ in range(draw(st.integers(0, 8))):
        lines = draw(st.dictionaries(st.text(max_size=3), line, max_size=4))
        frames.append(FrameRecord(
            frame_id=frame_id,
            timestamp_s=draw(finite),
            lines=tuple(LineEntry(track, *fields) for track, fields in lines.items()),
            gnss=draw(st.none() | st.tuples(finite, finite)),
            gt_lane=draw(st.none() | st.integers(1, n)),
            crossing=draw(st.booleans()),
        ))
        frame_id += draw(st.integers(1, 3))
    header = SequenceHeader(n_lanes=n, lri_source="log" if log else "recompute")
    return header, frames


@given(logs())
@settings(max_examples=200)
def test_read_table_equals_table_of_the_frames_written(tmp_path_factory, log):
    header, frames = log
    path = tmp_path_factory.getbasetemp() / "log.seq"
    write_sequence(path, header, frames)
    read_header, read = read_table(path)
    built = SequenceTable.from_frames(frames)
    assert read_header == header
    for name in ("frame_ids", "t", "gt", "crossing", "gnss", "line_frame", "track", "offset",
                 "cont", "det", "lri", "valid"):
        a, b = getattr(read, name), getattr(built, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
    assert read.track_ids == built.track_ids
    assert read.source_line.tolist() == list(range(2, len(frames) + 2))
    assert list(read) == list(built) == frames


def test_table_slices_are_tables_of_the_frame_slices():
    rng = np.random.default_rng(33)
    frames = [random_frame(rng, i) for i in range(40)]
    table = SequenceTable.from_frames(frames)
    for rows in (slice(None, 20), slice(20, None), slice(5, 5), slice(38, 100)):
        assert list(table[rows]) == frames[rows]
    with pytest.raises(ValueError, match="contiguous"):
        table[::2]
    with pytest.raises(TypeError, match="^a SequenceTable slices contiguous frame ranges "
                                        "only, got 0$"):
        table[0]


def json_dumps_sequence(header, frames):
    """The text of the per-frame `json.dumps` sequence writer that the
    columnar writer replaced, kept as its reference."""
    lines = [json.dumps({"format": 1, "content": "sequence", "n_lanes": header.n_lanes,
                         "lane_width_m": header.lane_width_m, "fps": header.fps,
                         "source": header.source, "lri_source": header.lri_source})]
    for frame in frames:
        obj = {"id": frame.frame_id, "t": frame.timestamp_s}
        if frame.gnss is not None:
            obj["gnss"] = list(frame.gnss)
        obj["lines"] = []
        for entry in frame.lines:
            line = {"track": entry.track_id, "offset": entry.offset_m,
                    "cont": entry.continuous, "det": entry.detected}
            if entry.lri is not None:
                line["lri"] = entry.lri
            if entry.is_valid is not None:
                line["valid"] = entry.is_valid
            obj["lines"].append(line)
        if frame.gt_lane is not None:
            obj["gt"] = frame.gt_lane
        obj["crossing"] = frame.crossing
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [5e-324, -5e-324, -0.0, 0.0, 1e16, 1e-300, 1.7976931348623157e308,
               -1e308, 0.1 + 0.2, 123456789.0]


@st.composite
def frame_lists(draw):
    """Frame records with every optional field present or absent, any finite
    float, and track ids with quotes, escapes and non-ASCII characters."""
    number = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    track = st.text(max_size=4) | st.sampled_from(['"', "\\", "b\"0'", "é", "车道", "\x00\n"])
    entry = st.builds(LineEntry, track, number, st.booleans(), st.booleans(),
                      st.none() | st.integers(0, 2**62), st.none() | st.booleans())
    frame = st.builds(
        FrameRecord, st.integers(-2**62, 2**62), number,
        st.lists(entry, max_size=4, unique_by=lambda e: e.track_id).map(tuple),
        st.none() | st.tuples(number, number), st.none() | st.integers(0, 2**62),
        st.booleans())
    return draw(st.lists(frame, max_size=6))


@given(frame_lists(), st.sampled_from(["recompute", "log"]))
@settings(max_examples=200)
def test_sequence_writer_matches_json_dumps(tmp_path_factory, frames, lri_source):
    header = SequenceHeader(n_lanes=3, lane_width_m=3.25, source="wrîter \"q\"",
                            lri_source=lri_source)
    table = SequenceTable.from_frames(frames)
    expected = json_dumps_sequence(header, frames)
    path = tmp_path_factory.getbasetemp() / "w.seq"
    for written in (table, list(table), frames):
        write_sequence(path, header, written)
        assert path.read_text(encoding="utf-8") == expected


def json_dumps_results(header, results):
    """The text of the per-record `json.dumps` results writer that the
    one-template writer replaced, kept as its reference."""
    lines = [json.dumps({"format": 1, "content": "results", "n_lanes": header.n_lanes,
                         "lane_width_m": header.lane_width_m, "fps": header.fps,
                         "source": header.source, "lri_source": header.lri_source})]
    for frame_id, lane, marginal, ok, tentative, wor in zip(
            results.frame_ids.tolist(), results.map_lane.tolist(),
            results.lane_marginal.tolist(), results.sensor_ok_prob.tolist(),
            results.tentative.tolist(), results.wor_frac.tolist()):
        lines.append(json.dumps({"id": frame_id, "map_lane": lane, "marginal": marginal,
                                 "sensor_ok": ok, "tentative": tentative, "wor": wor}))
    return "\n".join(lines) + "\n"


@st.composite
def result_tables(draw):
    n = draw(st.integers(1, 5))
    T = draw(st.integers(0, 6))
    value = finite | st.sampled_from([5e-324, -5e-324, -0.0, 0.0, 1e16, 2.0, 1e-7, 123456789.0])

    def column(*shape):
        return np.array(draw(st.lists(value, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))), dtype=float).reshape(shape)

    return ResultTable(
        frame_ids=np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=T, max_size=T)),
                           dtype=int),
        map_lane=np.array(draw(st.lists(st.integers(1, n), min_size=T, max_size=T)), dtype=int),
        lane_marginal=column(T, n),
        sensor_ok_prob=column(T),
        tentative=column(T, n),
        wor_frac=column(T),
    )


EDGE_VALUES = ResultTable(
    frame_ids=np.array([0, 10**15]),
    map_lane=np.array([1, 3]),
    lane_marginal=np.array([[5e-324, 1.0, -0.0], [0.25, 0.5, 0.25]]),
    sensor_ok_prob=np.array([-0.0, 1.0]),
    tentative=np.array([[1e16, 2.0, 0.0], [3.0, 1e-300, 7.5]]),
    wor_frac=np.array([1.0, 0.1 + 0.2]),
)


@example(EDGE_VALUES)
@given(result_tables())
@settings(max_examples=200)
def test_results_writer_matches_json_dumps(tmp_path_factory, results):
    header = SequenceHeader(n_lanes=results.lane_marginal.shape[1], source="writer")
    path = tmp_path_factory.getbasetemp() / "r.res"
    write_results(path, header, results)
    assert path.read_text(encoding="utf-8") == json_dumps_results(header, results)


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
    write_results(path, header, result_table(records, 4))
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
        pytest.param("id", 10**23, INTEGER, id="id-above-int64"),
        pytest.param("id", 2**63, INTEGER, id="id-just-above-int64"),
        pytest.param("marginal", [1.5, -0.5, 0.0], r"must lie in \[0, 1\], got 1.5",
                     id="marginal-above-one"),
        pytest.param("marginal", [0.0, 1.0 + 1e-6, -1e-6], r"must lie in \[0, 1\], got 1.000001",
                     id="marginal-just-above-one"),
        pytest.param("sensor_ok", 7.0, r"must lie in \[0, 1\], got 7.0", id="sensor_ok-above-one"),
        pytest.param("wor", -2.0, r"must lie in \[0, 1\], got -2.0", id="wor-negative"),
        pytest.param("tentative", [0.0, -3.0, 0.0], "must be >= 0, got -3.0",
                     id="tentative-negative"),
        pytest.param("marginal", [10**400, 0.0, 0.0], FINITE, id="marginal-huge-integer"),
        pytest.param("sensor_ok", 10**400, FINITE, id="sensor_ok-huge-integer"),
        pytest.param("tentative", [0.0, -10**400, 0.0], FINITE, id="tentative-huge-integer"),
        pytest.param("wor", 10**400, FINITE, id="wor-huge-integer"),
    ],
)
def test_results_reader_is_type_strict(tmp_path, field, value, message):
    path = tmp_path / "typed.res"
    path.write_text('{"format": 1, "content": "results", "n_lanes": 3}\n'
                    + json.dumps(RESULT) + "\n"
                    + json.dumps({**RESULT, "id": 4, field: value}) + "\n")
    with pytest.raises(SequenceFormatError, match=f":3: {field} {message}"):
        read_results(path)


# Any JSON value: unbounded integers, floats with NaN and +-inf, strings,
# null, arrays and objects.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
LINE = {"track": "b0", "offset": -1.75, "cont": True, "det": True, "lri": 10, "valid": True}


@st.composite
def edited(draw, template):
    """`template`, or once in four times any JSON value, with at most one
    field dropped and two set to any JSON value."""
    if draw(st.integers(0, 3)) == 0:
        return draw(ANY_JSON)
    obj = dict(template)
    keys = st.sampled_from([*template, "other"])
    for key in draw(st.lists(keys, max_size=1)):
        obj.pop(key, None)
    for key in draw(st.lists(keys, max_size=2)):
        obj[key] = draw(ANY_JSON)
    return obj


@st.composite
def json_line_files(draw):
    """A sequence or results file, header included, of `edited` lines."""
    content = draw(st.sampled_from(["sequence", "results"]))
    header = {"format": 1, "content": content, "n_lanes": 3,
              "lri_source": draw(st.sampled_from(["recompute", "log"]))}
    lines = [draw(st.just(header) | edited(header))]
    for i in range(draw(st.integers(0, 5))):
        if content == "results":
            template = {**RESULT, "id": i}
        else:
            entries = draw(st.lists(edited(LINE), max_size=3))
            template = {"id": i, "t": 0.1 * i, "gt": 1, "gnss": [45.0, 9.0], "lines": entries}
        lines.append(draw(edited(template)))
    return content, "".join(json.dumps(line) + "\n" for line in lines)


HUGE = "1" + "0" * 400  # an integer no double holds


@example(("sequence", '{"format": 1, "n_lanes": 3}\n{"id": 0, "t": %s, "lines": []}\n' % HUGE))
@example(("results", '{"format": 1, "content": "results", "n_lanes": 3}\n'
          + json.dumps(RESULT).replace('"wor": 0.5', '"wor": ' + HUGE) + "\n"))
@given(json_line_files())
@settings(max_examples=200)
def test_any_json_lines_read_or_fail_as_format_errors(tmp_path_factory, case):
    content, text = case
    path = tmp_path_factory.getbasetemp() / "any.jsonl"
    path.write_text(text, encoding="utf-8")
    try:
        (read_table if content == "sequence" else read_results)(path)
    except SequenceFormatError:
        pass


def test_results_probabilities_may_stray_by_rounding(tmp_path):
    """Marginal entries, sensor_ok and wor within 1e-9 of [0, 1] are read."""
    path = tmp_path / "rounded.res"
    path.write_text('{"format": 1, "content": "results", "n_lanes": 3}\n'
                    + json.dumps({**RESULT, "marginal": [1.0 + 5e-10, -5e-10, 0.0],
                                  "sensor_ok": -1e-10, "wor": 1.0 + 1e-10}) + "\n")
    (record,) = read_results(path)[1]
    assert record.lane_marginal == (1.0 + 5e-10, -5e-10, 0.0)


def test_int64_extreme_ids_strictly_increase(tmp_path):
    """The first and last int64 values are ids like any other, in order."""
    sequence, results = tmp_path / "extreme.seq", tmp_path / "extreme.res"
    sequence.write_text('{"format": 1, "n_lanes": 3}\n'
                        + json.dumps({"id": -2**63, "t": 0.0, "lines": []}) + "\n"
                        + json.dumps({"id": 2**63 - 1, "t": 0.1, "lines": []}) + "\n")
    results.write_text('{"format": 1, "content": "results", "n_lanes": 3}\n'
                       + json.dumps({**RESULT, "id": -2**63}) + "\n"
                       + json.dumps({**RESULT, "id": 2**63 - 1}) + "\n")
    assert read_table(sequence)[1].frame_ids.tolist() == [-2**63, 2**63 - 1]
    assert [r.frame_id for r in read_results(results)[1]] == [-2**63, 2**63 - 1]


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
        write_results(tmp_path / "no" / "such" / "dir.res", header, result_table([], 2))


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
    write_results(path, SequenceHeader(n_lanes=2), result_table([], 2))
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

