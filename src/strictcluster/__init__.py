"""Strictness-gated single-pass streaming clustering.

Each incoming point is scored feature-by-feature against every live
centroid; a configurable strictness percentage decides whether the point
joins its best-matching cluster or founds a new one. The package exposes
the engine, stream ingestion, snapshot persistence, and a CLI wrapper.
"""

from .engine import (
    ClusteringEngine,
    feature_similarity,
    qualifying_range,
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
from .ingestion import PointStream
from .model import (
    AssignmentOutcome,
    Cluster,
    ClusterState,
    Config,
    DataPoint,
    DecisionPath,
    validate_point,
    verify_state,
)
from .persistence import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    load_snapshot,
    save_snapshot,
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
    "NegativeFeature",
    "NonFiniteFeature",
    "ParseError",
    "PointStream",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "StrictnessOutOfRange",
    "VersionUnsupported",
    "feature_similarity",
    "load_snapshot",
    "qualifying_range",
    "run_stream",
    "save_snapshot",
    "should_match_features",
    "validate_point",
    "verify_state",
    "__version__",
]
