"""Single-pass streaming assignment loop.

Every arriving point is checked against all current clusters. A feature
matches when its similarity lies in the band [s, 200 - s], which the engine
holds in ``_lo`` and ``_hi``. Clusters whose matched-feature count reaches
the should-match threshold form the qualified list; the point joins the best
of them (most matched features, then highest average of scaled qualifying
similarities, then earliest-created), or founds a new cluster when the list
is empty. Centroids are maintained as running sums divided by member count.

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
A traced point (``assign``'s ``_on_profile``) scores every cluster in full
too, but only after its range check and the screen's start, so tracing
changes neither when the screen turns off nor what the mirror holds.

Each cell is the similarity rule that the tests' oracle
(``naive_similarity`` in tests/reference.py) checks bit for bit: the IEEE
float64 quotient 100 * d / c, taken as 100 * (d / c) where 100 * d
overflows (d above about 1.8e306), 100 where d = c = 0, and undefined
where c = 0 < d. The kernel leaves inf in an undefined cell, which no band
holds, and :func:`feature_similarity` writes NaN there. One helper,
:func:`_percents`, does the division and the two fix-ups for both.

A point needs no np.errstate when no float flag can be raised in it: the
quiet path. The point must be neither count-filtered nor traced, every
positive feature must lie in [2**-60, 2**60], and the engine must be
*tame*: every earlier point lay in that range, and no founder had a zero
feature. Then every sum s of a cluster of count c lies in
[2**-60, c * 2**60]: the founder starts it at 2**-60 or more, a join adds 0
or at most 2**60, and rounding is monotone, so fl(s + d) stays at or below
(c + 1) * 2**60, which is exact because every count is below 2**53 (each
member's seq is stored). Every centroid s / c so lies in [2**-113, 2**60],
every 100 * d is 0 or in [2**-54, 2**67], every percent is 0 or in
[2**-114, 2**180], and every sum stays below 2**113. No division, product,
sum or mean can overflow, underflow, divide by zero or meet 0 / 0, and no
join's sum can pass the largest float, so a tame engine skips that
check. A state that :meth:`ClusteringEngine.from_state` loads is tame when
its sums and counts meet the same bounds. Every other point runs under
np.errstate with every flag ignored.

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

import contextlib
import math
from typing import Callable, Iterable, Sequence

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
    verify_state,
)


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


# Positive features in this range keep the float32 screen's operands normal,
# and a tame engine's arithmetic free of float flags (module doc).
_SCREEN_MIN, _SCREEN_MAX = 2.0**-60, 2.0**60

# what a quiet point enters in place of np.errstate
_QUIET = contextlib.nullcontext()


def _fixups(features: Sequence[float]) -> tuple[bool, bool, bool]:
    """Whether 100 * d overflows for any feature d, whether any d is zero, and
    whether every positive d lies in [_SCREEN_MIN, _SCREEN_MAX].

    One max and one min pass: features are >= 0, so a min of 0 (or -0.0)
    means a zero feature, and only then does a second pass find the smallest
    positive one. The flags tell :func:`_percents` which fix-ups a point
    needs, and the range tells ``assign`` whether the point keeps the screen
    and the engine tame (module doc).
    """
    top, low = max(features), min(features)
    zeros = low == 0.0
    if zeros:
        low = min((v for v in features if v), default=_SCREEN_MIN)
    return 100.0 * top == math.inf, zeros, _SCREEN_MIN <= low and top <= _SCREEN_MAX


def _percents(
    f: np.ndarray, num: np.ndarray, cents: np.ndarray, overflows: bool, zeros: bool
) -> np.ndarray:
    """The similarity cells of point rows f against centroid rows cents, n by
    k: num / cents with the rule's two fix-ups (module doc).

    ``num`` is 100 * f, cast to float32 for the screen; ``overflows`` and
    ``zeros`` are :func:`_fixups` of the point. A cell where c = 0 < d is
    left inf. Callers hold np.errstate with every flag ignored, or run a
    point of the quiet path.
    """
    sims = num[:, None] / cents
    # 100 * d overflows for d above about 1.8e306: those rows divide first,
    # as 100 * (d / c)
    if overflows:
        for j in np.isinf(num).nonzero()[0]:
            sims[j] = 100.0 * (f[j] / cents[j])
    # zero centroid feature: an exactly-zero point value is identical
    # (similarity 100, fixed up here from the nan of 0/0); a positive one is
    # undefined and the inf left by the division never falls inside the
    # band. The screen's mirror is 0 exactly where the centroid is.
    if zeros:
        for j in (f == 0.0).nonzero()[0]:
            row = sims[j]
            row[cents[j] == 0.0] = 100.0
    return sims


def feature_similarity(features: Sequence[float], centroids: np.ndarray) -> np.ndarray:
    """Similarity percents of a point's features against every centroid.

    ``centroids`` is a (k, n) matrix, one row per cluster, as
    :meth:`ClusteringEngine.centroids` returns it. The result is the (k, n)
    float64 matrix of the kernel's own cells (:func:`_percents`), with NaN
    where the similarity is undefined (c = 0 < d). A finite d / c past the
    largest float stays inf.

    The CLI's --trace cells, not a public name; ROADMAP item 3 hands the
    trace the decision's own matrix instead.
    """
    f = np.asarray(features, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64).T
    overflows, zeros, _ = _fixups(features)
    with np.errstate(all="ignore"):
        sims = _percents(f, 100.0 * f, cents, overflows, zeros)
    # inf marks both c = 0 < d and an overflowing quotient, so the undefined
    # cells are found from the zero centroid features, when there are any
    if cents.min(initial=math.inf) == 0.0:
        sims[(cents == 0.0) & (f != 0.0)[:, None]] = math.nan
    return sims.T


def _qualifying_avg(sims: np.ndarray, band: np.ndarray, i: int) -> float:
    """Average of cluster i's in-band similarities, each v above 100 as 200 - v.

    A plain left-to-right sum in feature order: identical arithmetic to a
    scalar loop over the features. :meth:`ClusteringEngine.assign` folds
    every cluster at once for its ``_on_profile`` hook, and
    ``test_profiles_equal_the_scalar_match_profile`` in tests/test_engine.py
    pins the two forms together bit for bit. The decision keeps this scalar
    form because it averages one to a few columns: for one column of a
    77-cluster matrix, the vector fold took 4.4 us against 0.9 us at
    n = 10, and 4.7 us against 3.3 us at n = 100 (Python 3.11, numpy 2.4,
    a 2-vCPU x86-64 VM).
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
        self._lo, self._hi = config.strictness, 200.0 - config.strictness
        self._need = should_match_features(config)
        self._count_type = np.min_scalar_type(self._n)
        self._head = _head_rows(self._n, self._need)
        self._head_need = self._head - (self._n - self._need)
        self._screens = True  # and with it the filter, until a value out of range
        self._cents32: np.ndarray | None = None  # the head rows' float32 mirror
        self._tame = True  # no float flag can be raised yet (module doc)
        self._points_seen = 0
        self._sums = np.zeros((0, self._n), dtype=np.float64)
        self._counts: list[int] = []
        # feature-major: column i is cluster i's centroid
        self._cents = np.zeros((self._n, 0), dtype=np.float64)
        self._members: list[list[int]] = []

    @classmethod
    def from_state(cls, state: ClusterState) -> "ClusteringEngine":
        """Rebuild an engine from a saved state; continues exactly where it left off.

        :func:`verify_state` audits the state first: what it refuses raises its error.
        """
        verify_state(state)
        eng = cls(state.config)
        clusters = state.clusters
        eng._sums = np.array(
            [cl.feature_sums for cl in clusters], dtype=np.float64
        ).reshape(len(clusters), eng._n)
        eng._counts = [cl.member_count for cl in clusters]
        counts = np.array(eng._counts, dtype=np.float64)
        # _join's elementwise total / count, into a C-ordered (n, k) array;
        # a sum below the quiet path's bounds can underflow
        with np.errstate(under="ignore"):
            eng._cents = np.ascontiguousarray(eng._sums.T) / counts
        # tame: every sum in [_SCREEN_MIN, count * _SCREEN_MAX] (module doc)
        eng._tame = max(eng._counts, default=0) < 2**53 and bool(
            ((eng._sums >= _SCREEN_MIN) & (eng._sums <= counts[:, None] * _SCREEN_MAX)).all()
        )
        eng._members = [list(cl.member_seqs) for cl in clusters]
        eng._points_seen = state.points_seen
        return eng

    @property
    def cluster_count(self) -> int:
        return len(self._counts)

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

    def assign(
        self,
        point: DataPoint | Sequence[float],
        *,
        _on_profile: Callable[[np.ndarray, np.ndarray], None] | None = None,
    ) -> AssignmentOutcome:
        """Place one point and update the receiving cluster.

        Accepts a DataPoint, which checked its values when it was built, or a
        bare feature sequence which is validated first. The outcome's
        ``point_seq`` is the point's 0-based position in the stream, which the
        engine alone numbers; a :class:`ClusteringError` raised for the point
        carries the same position as ``point_seq``. A join's outcome carries
        the winner's matched count and qualifying average.

        ``_on_profile(matched, avgs)``, private to the CLI's ``--trace``, gets
        how the point scored against every cluster before it was placed: the
        matched counts (intp) and qualifying averages (float64, nan where
        nothing matched), in id order. Such a point skips the count filter,
        after its range check. Each in-band similarity is folded (0.0 out of
        band) and np.add.accumulate adds the rows in feature order, so each
        average is :func:`_qualifying_avg`'s left-to-right sum bit for bit
        (np.add.reduce would sum a lone column, k = 1, pairwise).
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
        overflows, zeros, in_range = _fixups(dp.features)
        # the range turns the screen off only at a point the filter scores;
        # the state check in _start_screen covers every point before the first
        if filtering:
            if not in_range:
                self._screens, self._cents32 = False, None
                filtering = False
            elif self._cents32 is None:
                filtering = self._start_screen()
        if _on_profile is not None:  # a traced point, after its range check
            filtering = False
        self._tame = tame = self._tame and in_range
        quiet = tame and not filtering and _on_profile is None

        # Score against the state as it stood before this point; once k is
        # large, only the clusters that pass the count filter (module doc).
        # A quiet point can raise no float flag, so it enters no np.errstate.
        with _QUIET if quiet else np.errstate(all="ignore"):
            if filtering:
                # ascending: the kept columns stay in creation order, so an
                # exact tie still goes to the earliest cluster
                kept = self._screen(f, zeros)
                cents = self._cents[:, kept]
            else:
                kept, cents = None, self._cents
            sims, band, matched = self._score(f, cents, overflows, zeros)
            if _on_profile is not None:
                # min(v, 200 - v) is v up to 100 and 200 - v above it
                folded = np.where(band, np.minimum(sims, 200.0 - sims), 0.0)
                avgs = np.add.accumulate(folded, axis=0)[-1] / matched
                _on_profile(matched.astype(np.intp), avgs)
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
                    assigned_cluster_id=self._create(f, seq, zeros),
                    created_new=True,
                    decision_path=path,
                )
            # sums and features are finite and >= 0, so an overflow is +inf;
            # a tame engine's sums stay below 2**113 (module doc)
            if not tame and math.inf in total.tolist():
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
        with every flag ignored, or run a point of the quiet path (module doc).
        """
        if screen:
            lo, hi, num = self._lo32, self._hi32, (100.0 * f).astype(np.float32)
        else:
            lo, hi, num = self._lo, self._hi, 100.0 * f
        sims = _percents(f, num, cents, overflows, zeros)
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
        return validate_point(point, self._n)

    def _create(self, f: np.ndarray, seq: int, zeros: bool) -> int:
        if zeros:  # a zero centroid feature ends the quiet path (module doc)
            self._tame = False
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
