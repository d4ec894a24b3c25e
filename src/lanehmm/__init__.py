"""Ego-lane estimation from noisy line detections.

An HMM over (lane, sensor state) filters the soft evidence produced by an
inverse sensor model from any road-line detector's output, yielding a
stable per-frame ego-lane estimate with explicit handling of transient
detector failures.
"""

from .dataset_io import (
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
from .errors import LaneHmmError, ParameterError
from .evaluation import (
    ComparisonReport,
    EvalResult,
    compare,
    detector_baseline,
    evaluate,
    make_timeline,
)
from .filtering import (
    FrameEstimate,
    LaneFilter,
    forward,
    init_belief,
    likelihood,
    map_estimate,
    predict,
    update,
)
from .inverse_sensor import (
    LriTracker,
    RawLineObservation,
    TrackedLine,
    compute_wor,
    expected_boundary_offsets,
    implied_lane_from_continuous,
    line_compatible,
    normalize_tentative,
    tentative_parts,
)
from .map_provider import MapExtract, RoadSegment, load_extract
from .model_core import (
    CptSet,
    HmmParams,
    RuntimeConfig,
    build_detector_cpt,
    build_lane_cpt,
    build_sensor_cpt,
    build_wor_cpt,
    discretize_normal,
    list_presets,
    load_params,
    load_preset,
)
from .pipeline import build_evidence, run_sequence
from .simulator import SimConfig, inject_burst, simulate
from .tuner import BOUNDS, BV_CHOICES, TunerResult, coordinate_refine, objective, random_search

__version__ = "0.1.0"
