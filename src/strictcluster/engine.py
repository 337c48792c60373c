"""Single-pass streaming assignment loop.

Every arriving point is scored against all current clusters. Clusters whose
matched-feature count reaches the should-match threshold form the qualified
list; the point joins the best of them (most matched features, then highest
average of scaled qualifying similarities, then earliest-created), or founds
a new cluster when the list is empty. Centroids are maintained as running
sums divided by member count.

The per-cluster scan is vectorized with numpy, but every arithmetic step
mirrors the scalar definitions in :mod:`strictcluster.similarity` operation
for operation, so results are bit-identical to a plain-Python evaluation.
The per-row matched count is a float matrix-vector product of the band
matrix with a vector of ones. It is exact: every term is 0.0 or 1.0, so
each partial sum is a small integer that float64 holds exactly, whatever
order or thread split the BLAS uses. Zero centroid features need no
tracked state: only a point's own zero features can meet a zero centroid
feature as 0/0, so only those columns are fixed up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
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
from .similarity import qualifying_range

_INITIAL_CAPACITY = 8


def should_match_features(config: Config) -> int:
    """Minimum number of qualifying features a cluster needs: ceil(n * s / 100).

    Computed in exact rational arithmetic so a strictness like 0.07 cannot
    push a float product such as 7.000000000000001 past the next integer.
    """
    return math.ceil(Fraction(config.strictness) * config.n_features / 100)


def centroid(cluster: Cluster) -> tuple[float, ...]:
    """Per-feature mean of the cluster's members."""
    return cluster.centroid()


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
        self._ones = np.ones(self._n, dtype=np.float64)
        self._k = 0
        self._points_seen = 0
        cap = _INITIAL_CAPACITY
        self._sums = np.zeros((cap, self._n), dtype=np.float64)
        self._counts = np.zeros(cap, dtype=np.int64)
        self._centroids = np.zeros((cap, self._n), dtype=np.float64)
        self._members: list[list[int]] = []

    @classmethod
    def from_state(cls, state: ClusterState) -> "ClusteringEngine":
        """Rebuild an engine from a saved state; continues exactly where it left off."""
        eng = cls(state.config)
        k = len(state.clusters)
        eng._ensure_capacity(k)
        for i, cl in enumerate(state.clusters):
            eng._sums[i] = cl.feature_sums
            eng._counts[i] = cl.member_count
            eng._centroids[i] = eng._sums[i] / cl.member_count
            eng._members.append(list(cl.member_seqs))
        eng._k = k
        eng._points_seen = state.points_seen
        return eng

    @property
    def cluster_count(self) -> int:
        return self._k

    @property
    def points_seen(self) -> int:
        return self._points_seen

    @property
    def should_match(self) -> int:
        return self._need

    def centroids(self) -> np.ndarray:
        """Copy of the current centroid matrix, one row per cluster in id order."""
        return self._centroids[: self._k].copy()

    def cluster(self, cluster_id: int) -> Cluster:
        """Materialize one cluster as an immutable value."""
        i = cluster_id - 1
        if not 0 <= i < self._k:
            raise InvariantViolation(f"no cluster with id {cluster_id}")
        return Cluster(
            id=cluster_id,
            member_count=int(self._counts[i]),
            feature_sums=tuple(self._sums[i].tolist()),
            member_seqs=tuple(self._members[i]),
        )

    def state(self) -> ClusterState:
        """Immutable snapshot of the full engine state."""
        clusters = tuple(self.cluster(i + 1) for i in range(self._k))
        return ClusterState(
            config=self.config, clusters=clusters, points_seen=self._points_seen
        )

    def assign(
        self,
        point: DataPoint | Sequence[float],
        *,
        record_profiles: bool = True,
    ) -> AssignmentOutcome:
        """Place one point and update the receiving cluster.

        Accepts a validated DataPoint whose seq continues the stream, or a
        bare feature sequence which is validated and stamped with the next
        seq. With ``record_profiles`` off, only the winner's profile is
        kept, which is much cheaper on wide states.
        """
        dp = self._coerce(point)
        f = np.asarray(dp.features, dtype=np.float64)
        k = self._k

        if k == 0:
            cid = self._create(f, dp.seq)
            return AssignmentOutcome(
                point_seq=dp.seq,
                assigned_cluster_id=cid,
                created_new=True,
                decision_path=DecisionPath.EMPTY_LIST_NEW_CLUSTER,
                profiles=() if record_profiles else None,
            )

        # Score against every cluster as the state stood before this point.
        cents = self._centroids[:k]
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (100.0 * f) / cents
        # zero centroid feature: an exactly-zero point value is identical
        # (similarity 100, fixed up here from the nan of 0/0); a positive one
        # is undefined and the inf left by the division never falls inside
        # the band.
        for j in (f == 0.0).nonzero()[0]:
            col = sims[:, j]
            col[cents[:, j] == 0.0] = 100.0
        band = (sims >= self._lo) & (sims <= self._hi)
        matched = band @ self._ones
        qualified_ids = (matched >= self._need).nonzero()[0]

        if qualified_ids.size == 0:
            cid = self._create(f, dp.seq)
            created = True
            path = DecisionPath.EMPTY_LIST_NEW_CLUSTER
            winner_profile = None
        else:
            if qualified_ids.size == 1:
                widx = int(qualified_ids[0])
                path = DecisionPath.SINGLE_QUALIFIED
            else:
                top = matched[qualified_ids].max()
                tied = qualified_ids[matched[qualified_ids] == top]
                if tied.size == 1:
                    widx = int(tied[0])
                    path = DecisionPath.MAX_MATCHED
                else:
                    widx = self._break_tie(tied, sims, band)
                    path = DecisionPath.AVG_TIEBREAK
            winner_profile = self._profile(widx, sims, band, matched)
            self._join(widx, f, dp.seq)
            cid = widx + 1
            created = False

        profiles = None
        if record_profiles:
            profiles = tuple(self._profile(i, sims, band, matched) for i in range(k))
            if winner_profile is not None:
                winner_profile = profiles[cid - 1]
        return AssignmentOutcome(
            point_seq=dp.seq,
            assigned_cluster_id=cid,
            created_new=created,
            decision_path=path,
            profiles=profiles,
            winner_profile=winner_profile,
        )

    # -- internals ---------------------------------------------------------

    def _coerce(self, point: DataPoint | Sequence[float]) -> DataPoint:
        if isinstance(point, DataPoint):
            if len(point.features) != self._n:
                raise DimensionMismatch(
                    f"point seq {point.seq} has {len(point.features)} features, "
                    f"config expects {self._n}"
                )
            if point.seq != self._points_seen:
                raise InvariantViolation(
                    f"point seq {point.seq} does not continue the stream "
                    f"(expected {self._points_seen})"
                )
            return point
        return validate_point(point, self.config, seq=self._points_seen)

    def _ensure_capacity(self, k: int) -> None:
        cap = self._sums.shape[0]
        if k <= cap:
            return
        new_cap = max(cap * 2, k)
        for name in ("_sums", "_centroids"):
            old = getattr(self, name)
            grown = np.zeros((new_cap, self._n), dtype=np.float64)
            grown[:cap] = old
            setattr(self, name, grown)
        counts = np.zeros(new_cap, dtype=np.int64)
        counts[:cap] = self._counts
        self._counts = counts

    def _create(self, f: np.ndarray, seq: int) -> int:
        i = self._k
        self._ensure_capacity(i + 1)
        self._sums[i] = f
        self._counts[i] = 1
        self._centroids[i] = f
        self._members.append([seq])
        self._k = i + 1
        self._points_seen += 1
        return i + 1

    def _join(self, i: int, f: np.ndarray, seq: int) -> None:
        self._sums[i] += f
        self._counts[i] += 1
        self._centroids[i] = self._sums[i] / self._counts[i]
        self._members[i].append(seq)
        self._points_seen += 1

    def _qualifying_avg(self, sim_row: np.ndarray, band_row: np.ndarray) -> float:
        # Plain sequential sum in feature order: identical arithmetic to the
        # scalar path in similarity.match_profile.
        total = 0.0
        vals = sim_row[band_row].tolist()
        for v in vals:
            total += v if v <= 100.0 else 200.0 - v
        return total / len(vals)

    def _break_tie(self, tied: np.ndarray, sims: np.ndarray, band: np.ndarray) -> int:
        # Highest average of scaled qualifying similarities; on an exact tie
        # the earliest-created cluster (lowest id) keeps the point.
        best_avg = -1.0
        best = int(tied[0])
        for i in tied.tolist():
            avg = self._qualifying_avg(sims[i], band[i])
            if avg > best_avg:
                best_avg = avg
                best = i
        return best

    def _profile(
        self, i: int, sims: np.ndarray, band: np.ndarray, matched: np.ndarray
    ) -> MatchProfile:
        count = int(matched[i])
        avg = self._qualifying_avg(sims[i], band[i]) if count else None
        return MatchProfile(cluster_id=i + 1, matched_count=count, qualifying_avg=avg)


def assign(
    state: ClusterState,
    point: DataPoint | Sequence[float],
    *,
    record_profiles: bool = True,
) -> tuple[ClusterState, AssignmentOutcome]:
    """Pure-value form of one assignment step: state in, new state out."""
    eng = ClusteringEngine.from_state(state)
    outcome = eng.assign(point, record_profiles=record_profiles)
    return eng.state(), outcome


def run_stream(
    config: Config,
    points: Iterable[DataPoint | Sequence[float]],
    *,
    record_profiles: bool = True,
) -> tuple[ClusterState, list[AssignmentOutcome]]:
    """Fold :meth:`ClusteringEngine.assign` over a whole stream in order."""
    eng = ClusteringEngine(config)
    outcomes = []
    for point in points:
        try:
            outcomes.append(eng.assign(point, record_profiles=record_profiles))
        except Exception as err:
            if getattr(err, "point_seq", None) is None:
                err.point_seq = eng.points_seen  # type: ignore[attr-defined]
            raise
    return eng.state(), outcomes
