"""Exception hierarchy shared by all strictcluster modules."""

from __future__ import annotations


class ClusteringError(Exception):
    """Base class for every error raised by this package.

    ``line_number`` is the input line that triggered the error, set by
    :class:`~strictcluster.ingestion.PointStream` or, for an error in
    assigning that line's point, by the CLI. ``point_seq`` is the 0-based
    stream position of the point that
    :meth:`~strictcluster.engine.ClusteringEngine.assign` was placing, set
    by ``assign`` itself. Each stays ``None`` otherwise. These two are the
    only fields an error carries; anything finer, such as a position
    within the line, is in its message.
    """

    line_number: int | None = None
    point_seq: int | None = None


class StrictnessOutOfRange(ClusteringError):
    """Strictness must be a real number in (0, 100]."""


class BadDimensionality(ClusteringError):
    """Feature count must be a positive integer."""


class DimensionMismatch(ClusteringError):
    """A point's feature vector does not match the configured width."""


class NegativeFeature(ClusteringError):
    """Feature values must be >= 0."""


class NonFiniteFeature(ClusteringError):
    """Feature values must be finite (no NaN or infinity)."""


class FeatureSumOverflow(ClusteringError):
    """A point would drive a cluster's feature sum past the largest float."""


class ParseError(ClusteringError):
    """A line of input text could not be parsed into a feature vector, or a
    feature given to a DataPoint is no number it takes (see DataPoint).

    Where in the line is said in the message alone: a CSV field by its
    1-based column, a JSON syntax error by its 1-based character."""


class InvariantViolation(ClusteringError):
    """Internal consistency check failed (engine state or loaded snapshot)."""


class SnapshotError(ClusteringError):
    """Base class for snapshot save/load failures."""


class SnapshotFormatError(SnapshotError):
    """Snapshot file is structurally unreadable."""


class ChecksumMismatch(SnapshotError):
    """Snapshot payload does not hash to the recorded checksum."""


class VersionUnsupported(SnapshotError):
    """Snapshot was written with a format version this build cannot read."""
