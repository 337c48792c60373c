"""Single-pass streaming assignment loop.

Every arriving point is checked against all current clusters. Clusters whose
matched-feature count reaches the should-match threshold form the qualified
list; the point joins the best of them (most matched features, then highest
average of scaled qualifying similarities, then earliest-created), or founds
a new cluster when the list is empty. Centroids are maintained as running
sums divided by member count.

Once k is large, :meth:`ClusteringEngine.assign` count-filters first. A
qualifier misses at most n - need features, so among the first m feature
rows it matches at least m - (n - need). The engine scores those m rows of
every cluster, then fully scores only the clusters that reach that count;
the rest cannot qualify. The full kernel scores the kept clusters, so the
outcome is the full scan's, bit for bit. The filter runs when
n - need < m < n (see :func:`_head_rows`) and the rows it can skip,
(n - m) * k, number at least ``_FILTER_MIN_SKIPPED``; below that its extra
numpy calls cost more than the rows they save.

The head pass only has to keep a superset of the clusters that can qualify,
so it screens in float32 (:meth:`ClusteringEngine._screen`): the kernel
divides float32(100 * d) by a float32 mirror of the m head rows of the
centroids and counts the cells inside the band widened by a relative 2**-20
and rounded outward to float32. While every operand is a normal float32,
each is within 2**-24 of its float64 value, so the exact float32 quotient is
within 1 +- 3.01 * 2**-24 of the float64 similarity, about 5x inside the
margin; rounding is monotone, so every float64 in-band cell is in the
screen's band and no cluster that can qualify is dropped. The screen, and
with it the filter, runs only while its operands stay in range. Every point
the filter scores must have every positive feature in [2**-60, 2**60], and
when the screen starts, one check of the state's head rows covers every
point before it: every nonzero head sum at least 2**-60, every head
centroid at most 2**60, every count below 2**53. Every head centroid is
then 0 or within [2**-113, 2**60], which float32 holds as normal numbers.
The mirror is built by that check and kept in step by every create and
join. The first filtered point outside the range, or a state outside it,
turns the screen and the filter off for the engine's lifetime, so no value
outside it is ever cast; every point then scores every cluster in full.

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

from .errors import ClusteringError, FeatureSumOverflow
from .model import (
    AssignmentOutcome,
    Cluster,
    ClusterState,
    Config,
    DataPoint,
    DecisionPath,
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


def _decimal_ratio(value: float) -> tuple[int, int]:
    """The shortest decimal that reads back as ``value``, the digits repr
    prints, as an integer ratio p / q: 0.07 is 7 / 100, 5e-324 is 5 / 10**324.

    For a value below 1e16, whose repr has no positive exponent.
    """
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), 10 ** (len(fraction) - int(exponent or 0))


def should_match_features(config: Config) -> int:
    """Minimum number of qualifying features a cluster needs: ceil(n * s / 100).

    s is read as the decimal it is written as (see :func:`_decimal_ratio`),
    not as the float's binary value, which for 0.07 lies just above 0.07 and
    would make ``Config(0.07, 10_000)`` need 8 instead of 7. The ceiling is
    computed exactly in integers, so no float rounding decides it.
    """
    p, q = _decimal_ratio(config.strictness)
    return -((-p * config.n_features) // (100 * q))


# The count filter runs once it can skip this many divisions per point.
_FILTER_MIN_SKIPPED = 10_000


def _head_rows(n: int, need: int) -> int:
    """Feature rows the count filter scores first: about 1.8 * (n - need).

    At least n - need + 1, so every qualifier must match one of them. The
    filter is off when this is n or more.
    """
    slack = n - need
    return max(9 * slack // 5, slack + 1)


# Positive features in this range keep the float32 screen's operands normal.
_SCREEN_MIN, _SCREEN_MAX = 2.0**-60, 2.0**60


def _fixups(features: tuple[float, ...], ranged: bool) -> tuple[bool, bool, bool]:
    """Whether 100 * d overflows for any feature d, whether any d is zero,
    and, with ``ranged``, whether every positive d lies in
    [_SCREEN_MIN, _SCREEN_MAX] (True without it).

    Without ``ranged``, one max and one ``in`` pass (`in` compares with ==,
    so -0.0 counts as zero). With it, one max and one min pass: features are
    >= 0, so a min of 0 (or -0.0) means a zero feature, and only then does a
    second pass find the smallest positive one.
    """
    if not ranged:
        return 100.0 * max(features) == math.inf, 0.0 in features, True
    top, low = max(features), min(features)
    zeros = low == 0.0
    if zeros:
        low = min((v for v in features if v), default=_SCREEN_MIN)
    return 100.0 * top == math.inf, zeros, _SCREEN_MIN <= low and top <= _SCREEN_MAX


def _qualifying_avg(sims: np.ndarray, band: np.ndarray, i: int) -> float:
    """Average of cluster i's in-band similarities, each v above 100 as 200 - v.

    A plain left-to-right sum in feature order: identical arithmetic to a
    scalar loop over the features. :meth:`ClusteringEngine.profiles`
    computes the same for every cluster at once, and
    ``test_profiles_equal_the_scalar_match_profile`` in tests/test_engine.py
    pins the two forms together bit for bit. :meth:`ClusteringEngine.assign`
    keeps this scalar form because it averages one to a few columns: for one
    column of a 77-cluster matrix, the vector fold took 4.4 us against
    0.9 us at n = 10, and 4.7 us against 3.3 us at n = 100 (Python 3.11,
    numpy 2.4, a 2-vCPU x86-64 VM).
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
        self._head = _head_rows(self._n, self._need)
        self._head_need = self._head - (self._n - self._need)
        self._screens = True  # and with it the filter, until a value out of range
        self._cents32: np.ndarray | None = None  # the head rows' float32 mirror
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

    def centroids(self) -> np.ndarray:
        """Copy of the current centroid matrix, one row per cluster in id order:
        each cluster's feature sums divided by its member count, the IEEE
        division s / count of every sum."""
        return self._cents.T.copy()

    def state(self) -> ClusterState:
        """Immutable snapshot of the full engine state."""
        # row by row: one tolist() of the whole matrix would hold every sum
        # as a Python float at once
        rows = zip(self._counts, self._sums, self._members)
        clusters = tuple(
            Cluster(i, count, tuple(sums.tolist()), tuple(members))
            for i, (count, sums, members) in enumerate(rows, start=1)
        )
        return ClusterState(
            config=self.config, clusters=clusters, points_seen=self._points_seen
        )

    def assign(self, point: DataPoint | Sequence[float]) -> AssignmentOutcome:
        """Place one point and update the receiving cluster.

        Accepts a DataPoint, which checked its values when it was built, or a
        bare feature sequence which is validated first. The outcome's
        ``point_seq`` is the point's 0-based position in the stream, which the
        engine alone numbers; a :class:`ClusteringError` raised for the point
        carries the same position as ``point_seq``. A join's outcome carries
        the winner's matched count and qualifying average; :meth:`profiles`
        scores the point against every cluster.
        """
        seq = self._points_seen
        try:
            dp = self._coerce(point)
        except ClusteringError as err:  # a width or value error
            err.point_seq = seq
            raise
        f = np.asarray(dp.features, dtype=np.float64)
        n, m = self._n, self._head
        filtering = (
            self._screens and m < n and (n - m) * len(self._counts) >= _FILTER_MIN_SKIPPED
        )
        # the range matters only to a point the filter scores; the state
        # check in _start_screen covers every point before the first
        overflows, zeros, in_range = _fixups(dp.features, filtering)
        if not in_range:
            self._screens, self._cents32 = False, None
            filtering = False
        elif filtering and self._cents32 is None:
            filtering = self._start_screen()

        # Score against the state as it stood before this point; once k is
        # large, only the clusters that pass the count filter (module doc).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if filtering:
                # ascending: the kept columns stay in creation order, so an
                # exact tie still goes to the earliest cluster
                kept = self._screen(f, zeros)
                cents = self._cents[:, kept]
            else:
                kept, cents = None, self._cents
            sims, band, matched = self._score(f, cents, overflows, zeros)
            qualified_ids = (matched >= self._need).nonzero()[0]

            # the one to few qualifiers are compared as lists: cheaper than
            # numpy calls on arrays of a few elements
            win_avg = None
            if qualified_ids.size == 0:
                widx = -1
                path = DecisionPath.EMPTY_LIST_NEW_CLUSTER
            elif qualified_ids.size == 1:
                widx = int(qualified_ids[0])
                path = DecisionPath.SINGLE_QUALIFIED
            else:
                ids, counts = qualified_ids.tolist(), matched[qualified_ids].tolist()
                top = max(counts)
                tied = [i for i, c in zip(ids, counts) if c == top]
                if len(tied) == 1:
                    widx = tied[0]
                    path = DecisionPath.MAX_MATCHED
                else:
                    # highest average; on an exact tie the earliest-created
                    # cluster (lowest id, the first maximum) keeps the point
                    avgs = [_qualifying_avg(sims, band, i) for i in tied]
                    win_avg = max(avgs)
                    widx = tied[avgs.index(win_avg)]
                    path = DecisionPath.AVG_TIEBREAK
            if widx >= 0:
                # a winner qualified, so it matched at least one feature
                win_matched = int(matched[widx])
                if win_avg is None:
                    win_avg = _qualifying_avg(sims, band, widx)
                if kept is not None:
                    widx = int(kept[widx])
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
            err = FeatureSumOverflow(
                f"point seq {seq} would overflow a feature sum of "
                f"cluster {widx + 1} past the largest float"
            )
            err.point_seq = seq
            raise err
        self._join(widx, total, seq)
        return AssignmentOutcome(
            point_seq=seq,
            assigned_cluster_id=widx + 1,
            created_new=False,
            decision_path=path,
            matched_count=win_matched,
            qualifying_avg=win_avg,
        )

    def profiles(
        self, point: DataPoint | Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """How ``point`` scores against every cluster: its matched counts
        (intp) and qualifying averages (float64), one per cluster in id order.

        Read-only: it scores as :meth:`assign` would next, against the state
        as it stands, and changes nothing. Assigning the same point then
        reports its winner's entries as the outcome's ``matched_count`` and
        ``qualifying_avg``.

        The averages are :func:`_qualifying_avg`'s bit for bit, nan where
        nothing matched. Each in-band similarity is folded (out of band it
        is 0.0), and np.add.accumulate adds the feature rows in order, so
        every column's total is the scalar loop's left-to-right sum: adding
        0.0 to a nonnegative total changes nothing. (np.add.reduce would sum
        a lone column, k = 1, pairwise.)
        """
        dp = self._coerce(point)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.asarray(dp.features, dtype=np.float64)
            overflows, zeros, _ = _fixups(dp.features, False)
            sims, band, matched = self._score(f, self._cents, overflows, zeros)
            # min(v, 200 - v) is v up to 100 and 200 - v above it
            folded = np.where(band, np.minimum(sims, 200.0 - sims), 0.0)
            avgs = np.add.accumulate(folded, axis=0)[-1] / matched
        return matched.astype(np.intp), avgs

    # -- internals ---------------------------------------------------------

    def _score(
        self, f: np.ndarray, cents: np.ndarray, overflows: bool, zeros: bool, screen: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Similarities, band mask and matched counts of point rows f, n by k.

        ``f`` holds the point's values as float64 for the rows of ``cents``.
        ``overflows`` and ``zeros`` are :func:`_fixups` of the whole point,
        taken once per point. With ``screen``, ``cents`` is the float32
        mirror, and the scaled point is cast to float32 and counted against
        the widened float32 band (:meth:`_screen`). Callers hold np.errstate
        with divide, invalid and over ignored.
        """
        if screen:
            lo, hi, num = self._lo32, self._hi32, (100.0 * f).astype(np.float32)
        else:
            lo, hi, num = self._lo, self._hi, 100.0 * f
        sims = num[:, None] / cents
        # 100 * d overflows for d above about 1.8e306: those rows divide
        # first, as 100 * (d / c)
        if overflows:
            for j in np.isinf(num).nonzero()[0]:
                sims[j] = 100.0 * (f[j] / cents[j])
        # zero centroid feature: an exactly-zero point value is identical
        # (similarity 100, fixed up here from the nan of 0/0); a positive
        # one is undefined and the inf left by the division never falls
        # inside the band. The mirror is 0 exactly where the centroid is.
        if zeros:
            for j in (f == 0.0).nonzero()[0]:
                row = sims[j]
                row[cents[j] == 0.0] = 100.0
        band = (sims >= lo) & (sims <= hi)
        matched = np.add.reduce(band.view(np.uint8), axis=0, dtype=self._count_type)
        return sims, band, matched

    def _screen(self, f: np.ndarray, zeros: bool) -> np.ndarray:
        """Ascending ids of the columns whose float32 head count reaches the
        filter's need: every column that can qualify, and maybe a few more
        (module doc). ``f`` is the whole point as float64, inside the
        screen's range, so no feature overflows.
        """
        head = self._score(f[: self._head], self._cents32, False, zeros, True)[2]
        return (head >= self._head_need).nonzero()[0]

    def _start_screen(self) -> bool:
        """Build the float32 mirror of the head rows if the state lies in the
        screen's range: every nonzero head sum at least _SCREEN_MIN, every
        head centroid at most _SCREEN_MAX and every count below 2**53.
        Otherwise the screen, and with it the filter, stays off for good.
        Returns whether the screen is on."""
        m = self._head
        sums = self._sums[:, :m]
        self._screens = (
            max(self._counts, default=0) < 2**53
            and not ((sums > 0.0) & (sums < _SCREEN_MIN)).any()
            and not (self._cents[:m] > _SCREEN_MAX).any()
        )
        if self._screens:
            # the band widened by 2**-20 and rounded outward (module doc);
            # built here, so an engine that never filters loads no float32 code
            self._lo32 = np.nextafter(np.float32(self._lo * (1 - 2.0**-20)), np.float32(0))
            self._hi32 = np.nextafter(np.float32(self._hi * (1 + 2.0**-20)), np.float32(np.inf))
            self._cents32 = self._cents[:m].astype(np.float32)
        return self._screens

    def _coerce(self, point: DataPoint | Sequence[float]) -> DataPoint:
        if isinstance(point, DataPoint):
            if len(point.features) == self._n:
                return point
            point = point.features  # validate_point raises the width error
        return validate_point(point, self.config)

    def _create(self, f: np.ndarray, seq: int) -> int:
        self._sums = np.vstack((self._sums, f))
        self._cents = np.hstack((self._cents, f[:, None]))
        if self._cents32 is not None:
            self._cents32 = np.concatenate(
                (self._cents32, f[: self._head, None]), axis=1, dtype=np.float32
            )
        self._counts.append(1)
        self._members.append([seq])
        self._points_seen += 1
        return len(self._counts)

    def _join(self, i: int, total: np.ndarray, seq: int) -> None:
        self._sums[i] = total
        self._counts[i] += 1
        self._cents[:, i] = total / self._counts[i]
        if self._cents32 is not None:
            self._cents32[:, i] = self._cents[: self._head, i]
        self._members[i].append(seq)
        self._points_seen += 1


def run_stream(
    config: Config, points: Iterable[DataPoint | Sequence[float]]
) -> tuple[ClusterState, list[AssignmentOutcome]]:
    """Fold :meth:`ClusteringEngine.assign` over a whole stream in order."""
    eng = ClusteringEngine(config)
    outcomes = [eng.assign(point) for point in points]
    return eng.state(), outcomes
