"""Domain types and validation for the streaming clustering engine.

All types here are immutable values; the engine is the only component
that mutates anything, and it does so on its own private buffers.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadDimensionality,
    DimensionMismatch,
    InvariantViolation,
    NegativeFeature,
    NonFiniteFeature,
    ParseError,
    StrictnessOutOfRange,
)


def _shown(value: object) -> str:
    """repr(value), or a stand-in for an int too long for str() to convert."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return "an integer too long to print"


@dataclass(frozen=True, slots=True)
class Config:
    """Run-wide settings: strictness percentage and feature-vector width."""

    strictness: float  # in (0, 100]
    n_features: int  # in [1, sys.maxsize // 8]: numpy shapes no wider float64 row

    def __post_init__(self):
        s = self.strictness
        if not isinstance(s, (int, float)) or isinstance(s, bool):
            raise StrictnessOutOfRange(f"strictness must be a real number, got {s!r}")
        # before float(), which overflows on 10**400; NaN fails both comparisons
        if not (0.0 < s <= 100.0):
            raise StrictnessOutOfRange(f"strictness must be in (0, 100], got {_shown(s)}")
        n = self.n_features
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= sys.maxsize // 8:
            raise BadDimensionality(
                f"n_features must be an integer in [1, {sys.maxsize // 8}], got {_shown(n)}"
            )
        object.__setattr__(self, "strictness", float(s))


def _as_float(value: object, position: int) -> float:
    """float(value) for the feature at ``position``, 1-based; ParseError for a
    str, bytes, bytearray, bool or numpy bool, and for what float() cannot
    convert, without echoing an integer too large for a float (it may be long)."""
    if not isinstance(value, (str, bytes, bytearray, bool, np.bool_)):
        try:
            return float(value)
        except OverflowError:
            raise ParseError(f"feature {position} is too large for a float") from None
        except (TypeError, ValueError):
            pass
    raise ParseError(f"feature {position} cannot be read as a float: {_shown(value)}")


@dataclass(frozen=True, slots=True)
class DataPoint:
    """One arrival in the stream: its features and optional label. Its stream
    position is numbered by the engine, as ``outcome.point_seq``.

    The features are stored as floats and must be finite and nonnegative. A
    str, bytes, bytearray, bool or numpy bool feature, which the CLI's
    parsers refuse although float() reads it, and one that float() cannot
    convert raise ParseError, naming its position; so do features that are
    not iterable.
    """

    features: tuple[float, ...]
    label: str | None = None  # optional caller-supplied id, carried through outputs

    def __post_init__(self):
        try:
            vals = tuple(self.features)
        except TypeError:
            raise ParseError(
                f"features must be an iterable of numbers, got {_shown(self.features)}"
            ) from None
        # every point the CLI builds is all floats: one type pass, no float()
        if not {float}.issuperset(map(type, vals)):
            vals = tuple(map(_as_float, vals, range(1, len(vals) + 1)))
        # A finite sum rules out nan and inf. The loop names the first bad
        # feature, and also accepts a finite vector whose sum overflows. An
        # empty vector skips it, as min() of nothing fails; the truth test is
        # cheaper per point than min(vals, default=0.0).
        if vals and not (math.isfinite(sum(vals)) and min(vals) >= 0.0):
            for j, v in enumerate(vals):
                if not math.isfinite(v):
                    raise NonFiniteFeature(f"feature {j + 1} is not finite: {v!r}")
                if v < 0.0:
                    raise NegativeFeature(f"feature {j + 1} is negative: {v!r}")
        object.__setattr__(self, "features", vals)


def validate_point(
    features: Sequence[float],
    n_features: int,
    label: str | None = None,
) -> DataPoint:
    """Check that a feature vector has ``n_features`` features and wrap it as
    a DataPoint, which checks its values. ParseError for what has no width."""
    try:
        width = len(features)
    except TypeError:
        raise ParseError(
            f"a point must be a sequence of features, got {_shown(features)}"
        ) from None
    if width != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got {width}")
    return DataPoint(features, label)


@dataclass(frozen=True, slots=True)
class Cluster:
    """A cluster: running feature sums plus the members that produced them.

    No centroid is stored: the engine derives it as sums / count
    (:meth:`ClusteringEngine.centroids`), so the incremental mean never
    drifts from the exact member average.
    """

    id: int  # 1-based creation order
    member_count: int
    feature_sums: tuple[float, ...]
    member_seqs: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ClusterState:
    """Full engine state: config, clusters in creation order, points seen."""

    config: Config
    clusters: tuple[Cluster, ...]
    points_seen: int


class DecisionPath(enum.Enum):
    """Which branch of the assignment dispatch placed a point."""

    EMPTY_LIST_NEW_CLUSTER = "EMPTY_LIST_NEW_CLUSTER"
    SINGLE_QUALIFIED = "SINGLE_QUALIFIED"
    MAX_MATCHED = "MAX_MATCHED"
    AVG_TIEBREAK = "AVG_TIEBREAK"


@dataclass(frozen=True, slots=True)
class AssignmentOutcome:
    """Result of assigning one point.

    For a join, ``matched_count`` and ``qualifying_avg`` are how the point
    scored against the receiving cluster as it stood before the point
    joined; both are None when a new cluster was created.
    """

    point_seq: int
    assigned_cluster_id: int
    created_new: bool
    decision_path: DecisionPath
    matched_count: int | None = None
    qualifying_avg: float | None = None


def verify_state(
    state: ClusterState, points: Iterable[Sequence[float]] | None = None
) -> None:
    """Audit every structural invariant of a ClusterState, the types of its
    fields included; raise InvariantViolation, and no other error, on failure.

    With ``points`` given (the original stream, in arrival order), also
    replays each cluster's members and checks that the stored feature sums
    equal the recomputed ones exactly: the engine makes the same IEEE
    additions in the same order. A point float() cannot read fails too.
    """
    if not (isinstance(state, ClusterState) and isinstance(state.config, Config)
            and type(state.clusters) is tuple):
        raise InvariantViolation("not a ClusterState with a Config and a tuple of clusters")
    n = state.config.n_features
    total = 0
    for pos, cluster in enumerate(state.clusters, start=1):
        # type() rather than isinstance(): bool is an int subclass but no count
        if type(cluster) is not Cluster or (int, int, tuple, tuple) != tuple(map(type, (
            cluster.id, cluster.member_count, cluster.feature_sums, cluster.member_seqs
        ))):
            raise InvariantViolation(
                f"cluster at position {pos}: not a Cluster of integer id and "
                "member_count and tuples of feature_sums and member_seqs"
            )
        if cluster.id != pos:
            raise InvariantViolation(
                "cluster ids must be contiguous from 1; "
                f"found {_shown(cluster.id)} at position {pos}"
            )
        if cluster.member_count < 1:
            raise InvariantViolation(f"cluster {cluster.id} has no members")
        if cluster.member_count != len(cluster.member_seqs):
            raise InvariantViolation(
                f"cluster {cluster.id}: member_count {_shown(cluster.member_count)} "
                f"!= {len(cluster.member_seqs)} recorded members"
            )
        if len(cluster.feature_sums) != n:
            raise InvariantViolation(
                f"cluster {cluster.id}: feature_sums has width {len(cluster.feature_sums)}, expected {n}"
            )
        # one chained comparison per value: nan, inf and negatives all fail it
        for s in cluster.feature_sums:
            if type(s) is not float or not 0.0 <= s < math.inf:
                raise InvariantViolation(
                    f"cluster {cluster.id}: feature sum {_shown(s)} is not a finite "
                    "nonnegative float"
                )
        total += cluster.member_count
    points_seen = state.points_seen
    if type(points_seen) is not int:
        raise InvariantViolation(f"points_seen {points_seen!r} is not an integer")
    if total != points_seen:
        raise InvariantViolation(
            f"member counts sum to {total} but points_seen is {_shown(points_seen)}"
        )
    # Allocated only once points_seen is the true member count, so a forged
    # value cannot ask for a huge buffer. With the counts summing to
    # points_seen, distinct seqs in 0..points_seen-1 partition that range.
    seen = bytearray(points_seen)
    for cluster in state.clusters:
        for seq in cluster.member_seqs:
            if type(seq) is not int or not 0 <= seq < points_seen:
                raise InvariantViolation(
                    "member seqs do not partition 0..points_seen-1: "
                    f"cluster {cluster.id} holds {_shown(seq)}"
                )
            if seen[seq]:
                raise InvariantViolation(f"point seq {seq} appears in more than one cluster")
            seen[seq] = 1

    if points is None:
        return
    stream: list[tuple[float, ...]] = []
    try:  # extend() keeps the points before one that fails: its seq is len(stream)
        stream.extend(tuple(map(float, p)) for p in points)
    except (TypeError, ValueError, OverflowError):
        raise InvariantViolation(f"point seq {len(stream)} cannot be read as floats") from None
    if len(stream) < points_seen:
        raise InvariantViolation(
            f"replay needs {points_seen} points, {len(stream)} were given"
        )
    for cluster in state.clusters:
        replayed = [0.0] * n
        for seq in cluster.member_seqs:
            feats = stream[seq]
            if len(feats) != n:
                raise InvariantViolation(
                    f"point seq {seq} has {len(feats)} features, expected {n}"
                )
            for j in range(n):
                replayed[j] += feats[j]
        for j in range(n):
            got, want = cluster.feature_sums[j], replayed[j]
            if got != want:
                raise InvariantViolation(
                    f"cluster {cluster.id}: feature sum {j + 1} is {got}, replay gives {want}"
                )
