"""Exception hierarchy shared by all lanehmm modules, and `decode_fault`."""

from pathlib import Path


class LaneHmmError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LaneHmmError):
    """A model parameter or runtime configuration value is out of its domain."""


class ConfigError(LaneHmmError):
    """Inconsistent or conflicting run configuration (e.g. preset vs. header)."""


class SequenceFormatError(LaneHmmError):
    """A sequence or results file failed to parse.

    Carries the source path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)


class MapExtractError(LaneHmmError):
    """A map extract file failed to parse or violates its schema."""


class SegmentNotFoundError(LaneHmmError):
    """No road segment within the query radius."""


class EmptyObjectiveError(LaneHmmError):
    """The tuning objective has no evaluable (non-crossing, annotated) frames."""


class InternalError(LaneHmmError):
    """An invariant that should be unreachable was violated (upstream bug)."""


def decode_fault(path) -> tuple[int, str]:
    """(line, message) of the first non-UTF-8 bytes of `path`, for a reader
    whose decode failed; lines end as in text mode, at \\n, \\r\\n or \\r."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        return line, f"not UTF-8 text ({exc.reason})"
    raise OSError(f"{path} changed while it was read")
