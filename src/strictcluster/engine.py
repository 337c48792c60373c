"""Single-pass streaming assignment loop.

Every arriving point is scored against all current clusters. Clusters whose
matched-feature count reaches the should-match threshold form the qualified
list; the point joins the best of them (most matched features, then highest
average of scaled qualifying similarities, then earliest-created), or founds
a new cluster when the list is empty. Centroids are maintained as running
sums divided by member count.

The per-cluster scan is vectorized with numpy, but every arithmetic step
mirrors this module's :func:`feature_similarity` and the band check
operation for operation, so results are bit-identical to a plain-Python
evaluation.
Centroids are stored feature-major, one contiguous row of length k per
feature, so the scan divides n long rows rather than k rows of n. The
feature sums stay row-major, one row per cluster, as
:meth:`ClusteringEngine.state` and snapshots read them. Both arrays are
exactly k clusters wide, with no spare capacity: a new cluster appends one
row and one column, an O(k * n) copy, the same order of cost as scoring one
point. The per-cluster matched count is a column sum of the band matrix
viewed as uint8, in the smallest unsigned type that holds n. It is exact:
each count is an integer of at most n, which that type holds, so no sum can
wrap. Zero centroid features need no tracked state: only a point's own zero
features can meet a zero centroid feature as 0/0, so only those rows are
fixed up. A point that would drive a feature sum past the largest float is
rejected before any state changes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, FeatureSumOverflow, InvariantViolation
from .model import (
    AssignmentOutcome,
    Cluster,
    ClusterState,
    Config,
    DataPoint,
    DecisionPath,
    MatchProfile,
    validate_point,
)


def feature_similarity(datapoint_value: float, centroid_value: float) -> float | None:
    """Similarity percent of a point feature against a centroid feature.

    Returns None (undefined) when the centroid feature is 0 and the point's
    is positive; such a feature never qualifies. Two exact zeros are
    identical values and score 100. The value is scaled by 100 before the
    division; only when that product overflows (value above about 1.8e306)
    is the ratio taken first, as 100 * (value / centroid).
    """
    if centroid_value == 0.0:
        return 100.0 if datapoint_value == 0.0 else None
    scaled = 100.0 * datapoint_value
    if math.isinf(scaled):
        return 100.0 * (datapoint_value / centroid_value)
    return scaled / centroid_value


def qualifying_range(strictness: float) -> tuple[float, float]:
    """Inclusive similarity band for a matched feature: (strictness, 200 - strictness)."""
    return strictness, 200.0 - strictness


def should_match_features(config: Config) -> int:
    """Minimum number of qualifying features a cluster needs: ceil(n * s / 100).

    Computed exactly in integers, from the float's own ratio p / q, so a
    strictness like 0.07 cannot push a float product such as
    7.000000000000001 past the next integer.
    """
    p, q = config.strictness.as_integer_ratio()
    return -((-p * config.n_features) // (100 * q))


def _qualifying_avg(sims: np.ndarray, band: np.ndarray, i: int) -> float:
    """Average of cluster i's in-band similarities, each v above 100 as 200 - v.

    A plain left-to-right sum in feature order: identical arithmetic to a
    scalar loop over the features.
    """
    total = 0.0
    vals = sims[:, i][band[:, i]].tolist()
    for v in vals:
        total += v if v <= 100.0 else 200.0 - v
    return total / len(vals)


class ClusteringEngine:
    """Mutable stream processor: feed points one at a time via :meth:`assign`.

    Single-writer: one assignment mutates state at a time. Snapshots taken
    with :meth:`state` are plain immutable values and safe to share.
    """

    def __init__(self, config: Config):
        self.config = config
        self._n = config.n_features
        self._lo, self._hi = qualifying_range(config.strictness)
        self._need = should_match_features(config)
        self._count_type = np.min_scalar_type(self._n)
        self._points_seen = 0
        self._sums = np.zeros((0, self._n), dtype=np.float64)
        self._counts: list[int] = []
        # feature-major: column i is cluster i's centroid
        self._cents = np.zeros((self._n, 0), dtype=np.float64)
        self._members: list[list[int]] = []

    @classmethod
    def from_state(cls, state: ClusterState) -> "ClusteringEngine":
        """Rebuild an engine from a saved state; continues exactly where it left off."""
        eng = cls(state.config)
        clusters = state.clusters
        eng._sums = np.array(
            [cl.feature_sums for cl in clusters], dtype=np.float64
        ).reshape(len(clusters), eng._n)
        eng._counts = [cl.member_count for cl in clusters]
        # _join's elementwise total / count, into a C-ordered (n, k) array
        eng._cents = np.ascontiguousarray(eng._sums.T) / np.array(
            eng._counts, dtype=np.float64
        )
        eng._members = [list(cl.member_seqs) for cl in clusters]
        eng._points_seen = state.points_seen
        return eng

    @property
    def cluster_count(self) -> int:
        return len(self._counts)

    @property
    def points_seen(self) -> int:
        return self._points_seen

    @property
    def should_match(self) -> int:
        return self._need

    def centroids(self) -> np.ndarray:
        """Copy of the current centroid matrix, one row per cluster in id order."""
        return self._cents.T.copy()

    def cluster(self, cluster_id: int) -> Cluster:
        """Materialize one cluster as an immutable value."""
        i = cluster_id - 1
        if not 0 <= i < self.cluster_count:
            raise InvariantViolation(f"no cluster with id {cluster_id}")
        return Cluster(
            id=cluster_id,
            member_count=self._counts[i],
            feature_sums=tuple(self._sums[i].tolist()),
            member_seqs=tuple(self._members[i]),
        )

    def state(self) -> ClusterState:
        """Immutable snapshot of the full engine state."""
        clusters = tuple(self.cluster(i + 1) for i in range(self.cluster_count))
        return ClusterState(
            config=self.config, clusters=clusters, points_seen=self._points_seen
        )

    def assign(self, point: DataPoint | Sequence[float]) -> AssignmentOutcome:
        """Place one point and update the receiving cluster.

        Accepts a DataPoint, which checked its values when it was built, or a
        bare feature sequence which is validated first. The outcome's
        ``point_seq`` is the point's 0-based position in the stream, which the
        engine alone numbers. The outcome reports the winner's profile only;
        :meth:`profiles` scores the point against every cluster.
        """
        seq = self._points_seen
        dp = self._coerce(point)
        f = np.asarray(dp.features, dtype=np.float64)

        # Score against every cluster as the state stood before this point.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sims, band, matched = self._score(f, dp.features)
            qualified_ids = (matched >= self._need).nonzero()[0]

            win_avg = None
            if qualified_ids.size == 0:
                widx = -1
                path = DecisionPath.EMPTY_LIST_NEW_CLUSTER
            elif qualified_ids.size == 1:
                widx = int(qualified_ids[0])
                path = DecisionPath.SINGLE_QUALIFIED
            else:
                top = matched[qualified_ids].max()
                tied = qualified_ids[matched[qualified_ids] == top]
                if tied.size == 1:
                    widx = int(tied[0])
                    path = DecisionPath.MAX_MATCHED
                else:
                    # highest average; on an exact tie the earliest-created
                    # cluster (lowest id, the first maximum) keeps the point
                    avgs = [_qualifying_avg(sims, band, i) for i in tied.tolist()]
                    win_avg = max(avgs)
                    widx = int(tied[avgs.index(win_avg)])
                    path = DecisionPath.AVG_TIEBREAK
            if widx >= 0:
                total = self._sums[widx] + f

        if widx < 0:
            return AssignmentOutcome(
                point_seq=seq,
                assigned_cluster_id=self._create(f, seq),
                created_new=True,
                decision_path=path,
            )
        # sums and features are finite and >= 0, so an overflow is +inf
        if math.inf in total.tolist():
            raise FeatureSumOverflow(
                f"point seq {seq} would overflow a feature sum of "
                f"cluster {widx + 1} past the largest float"
            )
        self._join(widx, total, seq)
        # a winner qualified, so it matched at least one feature
        if win_avg is None:
            win_avg = _qualifying_avg(sims, band, widx)
        return AssignmentOutcome(
            point_seq=seq,
            assigned_cluster_id=widx + 1,
            created_new=False,
            decision_path=path,
            winner_profile=MatchProfile(widx + 1, int(matched[widx]), win_avg),
        )

    def profiles(
        self, point: DataPoint | Sequence[float]
    ) -> tuple[MatchProfile, ...]:
        """How ``point`` scores against every cluster, in id order.

        Read-only: it scores as :meth:`assign` would next, against the state
        as it stands, and changes nothing. Assigning the same point then
        reports its winner's entry as ``winner_profile``.
        """
        dp = self._coerce(point)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sims, band, matched = self._score(
                np.asarray(dp.features, dtype=np.float64), dp.features
            )
        return tuple(
            MatchProfile(i + 1, c, _qualifying_avg(sims, band, i) if c else None)
            for i, c in enumerate(matched.tolist())
        )

    # -- internals ---------------------------------------------------------

    def _score(
        self, f: np.ndarray, features: tuple[float, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Similarities, band mask and matched counts of one point, n by k.

        ``f`` is ``features`` as float64. Callers hold np.errstate with
        divide, invalid and over ignored.
        """
        cents = self._cents
        sims = (100.0 * f)[:, None] / cents
        # 100 * d overflows for d above about 1.8e306: those rows divide
        # first, as 100 * (d / c)
        if 100.0 * max(features) == math.inf:
            for j in np.isinf(100.0 * f).nonzero()[0]:
                sims[j] = 100.0 * (f[j] / cents[j])
        # zero centroid feature: an exactly-zero point value is identical
        # (similarity 100, fixed up here from the nan of 0/0); a positive
        # one is undefined and the inf left by the division never falls
        # inside the band. `in` compares with ==, so -0.0 counts as zero.
        if 0.0 in features:
            for j in (f == 0.0).nonzero()[0]:
                row = sims[j]
                row[cents[j] == 0.0] = 100.0
        band = (sims >= self._lo) & (sims <= self._hi)
        matched = np.add.reduce(band.view(np.uint8), axis=0, dtype=self._count_type)
        return sims, band, matched

    def _coerce(self, point: DataPoint | Sequence[float]) -> DataPoint:
        if isinstance(point, DataPoint):
            if len(point.features) != self._n:
                raise DimensionMismatch(
                    f"point seq {self._points_seen} has {len(point.features)} "
                    f"features, config expects {self._n}"
                )
            return point
        return validate_point(point, self.config)

    def _create(self, f: np.ndarray, seq: int) -> int:
        self._sums = np.vstack((self._sums, f))
        self._cents = np.hstack((self._cents, f[:, None]))
        self._counts.append(1)
        self._members.append([seq])
        self._points_seen += 1
        return len(self._counts)

    def _join(self, i: int, total: np.ndarray, seq: int) -> None:
        self._sums[i] = total
        self._counts[i] += 1
        self._cents[:, i] = total / self._counts[i]
        self._members[i].append(seq)
        self._points_seen += 1


def run_stream(
    config: Config, points: Iterable[DataPoint | Sequence[float]]
) -> tuple[ClusterState, list[AssignmentOutcome]]:
    """Fold :meth:`ClusteringEngine.assign` over a whole stream in order."""
    eng = ClusteringEngine(config)
    outcomes = []
    for point in points:
        try:
            outcomes.append(eng.assign(point))
        except Exception as err:
            if getattr(err, "point_seq", None) is None:
                err.point_seq = eng.points_seen  # type: ignore[attr-defined]
            raise
    return eng.state(), outcomes
