"""Strictness-gated single-pass streaming clustering.

Each incoming point is scored feature-by-feature against every live
centroid; a configurable strictness percentage decides whether the point
joins its best-matching cluster or founds a new one. The package exposes
the engine, stream ingestion, snapshot persistence, and a CLI wrapper.
"""

from .engine import (
    ClusteringEngine,
    assign,
    centroid,
    run_stream,
    should_match_features,
)
from .errors import (
    BadDimensionality,
    ChecksumMismatch,
    ClusteringError,
    DimensionMismatch,
    FeatureSumOverflow,
    InvariantViolation,
    NegativeFeature,
    NonFiniteFeature,
    ParseError,
    SnapshotError,
    SnapshotFormatError,
    StrictnessOutOfRange,
    VersionUnsupported,
)
from .ingestion import (
    PointStream,
    SkippedLine,
    parse_csv_line,
    parse_jsonl_line,
    stream_points,
    to_csv_line,
)
from .model import (
    AssignmentOutcome,
    Cluster,
    ClusterState,
    Config,
    DataPoint,
    DecisionPath,
    MatchProfile,
    validate_config,
    validate_point,
    verify_state,
)
from .persistence import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    load_snapshot,
    save_snapshot,
)
from .similarity import (
    feature_similarity,
    match_profile,
    qualifies,
    qualifying_range,
    scale_above_100,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentOutcome",
    "BadDimensionality",
    "ChecksumMismatch",
    "Cluster",
    "ClusterState",
    "ClusteringEngine",
    "ClusteringError",
    "Config",
    "DataPoint",
    "DecisionPath",
    "DimensionMismatch",
    "FeatureSumOverflow",
    "InvariantViolation",
    "MatchProfile",
    "NegativeFeature",
    "NonFiniteFeature",
    "ParseError",
    "PointStream",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SkippedLine",
    "SnapshotError",
    "SnapshotFormatError",
    "StrictnessOutOfRange",
    "VersionUnsupported",
    "assign",
    "centroid",
    "feature_similarity",
    "load_snapshot",
    "match_profile",
    "parse_csv_line",
    "parse_jsonl_line",
    "qualifies",
    "qualifying_range",
    "run_stream",
    "save_snapshot",
    "scale_above_100",
    "should_match_features",
    "stream_points",
    "to_csv_line",
    "validate_config",
    "validate_point",
    "verify_state",
    "__version__",
]
