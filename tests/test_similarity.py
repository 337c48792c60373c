"""Unit tests for the ratio similarity, the band, and per-cluster profiles.

The band, the fold of overshoot and the per-cluster profile are read from
the profile hook of the engine's assign against clusters of given
centroids, and checked against the scalar profile of the naive reference.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strictcluster import (
    Cluster,
    ClusteringEngine,
    ClusterState,
    Config,
    DataPoint,
    DimensionMismatch,
    InvariantViolation,
    verify_state,
)
from strictcluster.engine import feature_similarity

from golden import GOLDEN_CENTROIDS, GOLDEN_POINTS, GOLDEN_TIEBREAK_AVGS
from reference import assign_profiled, naive_profile, naive_similarity, profile_pairs

# Dyadic rationals are closed under the arithmetic in these formulas, so
# properties that would be approximate on arbitrary doubles hold exactly.
dyadic_positive = st.builds(
    lambda m, e: m * 2.0**e, st.integers(1, 1 << 20), st.integers(-10, 3)
)


def cell(d, c):
    """The one cell of feature_similarity for a one-feature point and centroid."""
    return feature_similarity([d], [[c]])[0, 0]


# zeros, subnormals, features whose 100 * d overflows, tiny centroids
EDGE_FEATURES = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e307, 1e308, sys.float_info.max]
EDGE_CENTROIDS = [0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e10, 1e307, 1e308]


class TestFeatureSimilarity:
    def test_known_ratios(self):
        sims = feature_similarity(
            [9.0, 45.0, 35.0, 41.0], [[10.0, 25.0, 15.0, 45.0], [9.0, 45.0, 35.0, 41.0]]
        )
        assert sims.shape == (2, 4) and sims.dtype == np.float64
        assert sims[0, :2].tolist() == [90.0, 180.0]
        assert sims[0, 2] == pytest.approx(233.3333333, abs=1e-6)
        assert sims[0, 3] == pytest.approx(91.1111111, abs=1e-6)
        assert sims[1].tolist() == [100.0] * 4

    def test_zero_centroid_rules(self):
        [[both_zero, undefined, zero_point]] = feature_similarity(
            [0.0, 5.0, 0.0], [[0.0, 0.0, 5.0]]
        )
        assert both_zero == 100.0
        assert math.isnan(undefined)
        assert zero_point == 0.0

    @given(dyadic_positive)
    def test_identical_dyadic_values_score_exactly_100(self, x):
        assert cell(x, x) == 100.0

    @given(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, exclude_min=True),
    )
    def test_agrees_with_naive_route(self, d, c):
        sim = cell(d, c)
        assert sim == naive_similarity(d, c)
        if 100.0 * d < math.inf:  # scaled first: the normal range keeps its bits
            assert sim == 100.0 * d / c

    def test_overflowing_product_divides_first(self):
        assert 100.0 * 1e307 == math.inf
        assert cell(1e307, 1e307) == 100.0
        assert cell(1.7e308, 1.7e308) == 100.0
        assert cell(1e307, 1e308) == 100.0 * (1e307 / 1e308)
        assert cell(1e307, 1e-300) == math.inf  # never in a band

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sampled_from(EDGE_FEATURES) | st.floats(0.0, sys.float_info.max),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(
                    st.lists(
                        st.sampled_from(EDGE_CENTROIDS) | st.floats(0.0, sys.float_info.max),
                        min_size=n,
                        max_size=n,
                    ),
                    max_size=4,
                ),
            )
        )
    )
    def test_every_cell_is_the_naive_similarity(self, case):
        # bit for bit, NaN where the oracle gives None, whatever the caller's
        # numpy error state
        point, centroids = case
        with np.errstate(all="raise"):
            sims = feature_similarity(
                point, np.array(centroids, dtype=np.float64).reshape(-1, len(point))
            )
        assert sims.shape == (len(centroids), len(point))
        got = [[repr(None if math.isnan(v) else v) for v in row] for row in sims.tolist()]
        want = [[repr(naive_similarity(d, c)) for d, c in zip(point, cent)] for cent in centroids]
        assert got == want


def cluster_with_centroid(values, cid=1):
    return Cluster(
        id=cid,
        member_count=1,
        feature_sums=tuple(float(v) for v in values),
        member_seqs=(cid - 1,),
    )


def engine_arrays(point, centroids, strictness):
    """The engine's matched counts and averages of ``point`` against one
    cluster per centroid, from assign's profile hook."""
    clusters = tuple(cluster_with_centroid(c, i) for i, c in enumerate(centroids, start=1))
    state = ClusterState(Config(strictness, len(point)), clusters, points_seen=len(clusters))
    return assign_profiled(ClusteringEngine.from_state(state), point)[1:]


def engine_profiles(point, centroids, strictness):
    """engine_arrays as (matched count, qualifying average) pairs."""
    return profile_pairs(*engine_arrays(point, centroids, strictness))


def profile(point, centroid, strictness):
    return engine_profiles(point, [centroid], strictness)[0]


def qualifies(d, c, strictness):
    """Whether one feature d against centroid value c matches in the engine."""
    return profile([d], [c], strictness)[0] == 1


class TestQualifyingBand:
    def test_range_endpoints(self):
        for s, hi in ((60.0, 140.0), (100.0, 100.0), (0.5, 199.5)):
            eng = ClusteringEngine(Config(s, 1))
            assert (eng._lo, eng._hi) == (s, hi)

    def test_band_is_inclusive_and_exact(self):
        # 100 * d / 100 is d itself for each of these d
        assert qualifies(60.0, 100.0, 60.0)
        assert qualifies(140.0, 100.0, 60.0)
        assert not qualifies(59.999999999, 100.0, 60.0)
        assert not qualifies(140.000000001, 100.0, 60.0)

    def test_none_never_qualifies(self):
        assert math.isnan(cell(5.0, 0.0))
        assert not qualifies(5.0, 0.0, 1.0)

    def test_strictness_100_admits_only_exact_100(self):
        assert qualifies(7.0, 7.0, 100.0)
        assert not qualifies(99.99999999, 100.0, 100.0)
        assert not qualifies(100.00000001, 100.0, 100.0)

    def test_zero_similarity_never_qualifies(self):
        # the band's lower edge is the (positive) strictness itself
        assert not qualifies(0.0, 5.0, 0.5)

    @given(
        st.integers(1, 100),
        st.integers(0, 1200).map(lambda q: q * 0.25),
    )
    def test_band_check_equals_scaled_comparison(self, strictness, sim):
        # On quarter-integer values both routes are exact, so the band test
        # and "scaled similarity >= strictness" must agree everywhere.
        s = float(strictness)
        scaled = sim if sim <= 100.0 else 200.0 - sim
        assert qualifies(sim, 100.0, s) == (scaled >= s)


class TestScaleAbove100:
    """A qualifying similarity v above 100 enters the average as 200 - v."""

    def test_at_or_below_100_is_identity(self):
        assert profile([100.0], [100.0], 1.0)[1] == 100.0
        assert profile([60.0], [100.0], 1.0)[1] == 60.0
        assert profile([0.5], [100.0], 0.5)[1] == 0.5

    def test_overshoot_folds_back(self):
        assert profile([140.0], [100.0], 60.0)[1] == 60.0
        assert profile([199.5], [100.0], 0.5)[1] == 0.5

    @given(st.builds(lambda m, e: m * 2.0**e, st.integers(1, 1 << 12), st.integers(-12, -6)))
    def test_symmetric_on_dyadic_offsets(self, eps):
        # eps <= 64, so both similarities 100 +- eps are exact and in the band
        _, over = profile([100.0 + eps], [100.0], 1.0)
        _, under = profile([100.0 - eps], [100.0], 1.0)
        assert over == under == 100.0 - eps


class TestMatchProfile:
    def test_tiebreak_profiles_of_the_six_point_example(self):
        # point 4 against C1 = {0, 2} and C3 = {3}, as they stand before it
        (matched1, avg1), (matched3, avg3) = engine_profiles(
            GOLDEN_POINTS[4], [GOLDEN_CENTROIDS[1], GOLDEN_POINTS[3]], 60.0
        )
        assert matched1 == 8
        assert matched3 == 8
        assert round(avg1, 2) == GOLDEN_TIEBREAK_AVGS[1]
        assert round(avg3, 2) == GOLDEN_TIEBREAK_AVGS[3]
        assert avg3 > avg1

    def test_no_qualifier_gives_none_average(self):
        # the hook marks the missing average nan, which profile_pairs reads as None
        matched, avgs = engine_arrays([1000.0, 1000.0], [[1.0, 1.0]], 60.0)
        assert matched.tolist() == [0]
        assert math.isnan(avgs[0])
        assert profile([1000.0, 1000.0], [1.0, 1.0], 60.0) == (0, None)

    def test_only_qualifying_features_enter_the_average(self):
        # sims: 100, 140 -> scaled 60, and 300 which is out of band
        matched, avg = profile([10.0, 14.0, 30.0], [10.0, 10.0, 10.0], 50.0)
        assert matched == 2
        assert avg == 80.0

    def test_undefined_similarity_is_skipped(self):
        matched, avg = profile([3.0, 10.0], [0.0, 10.0], 50.0)
        assert matched == 1
        assert avg == 100.0

    def test_dimension_mismatches_raise(self):
        state = ClusterState(Config(60.0, 2), (cluster_with_centroid([1.0, 2.0]),), 1)
        eng = ClusteringEngine.from_state(state)
        with pytest.raises(DimensionMismatch):
            eng.assign([1.0])
        with pytest.raises(DimensionMismatch):
            eng.assign(DataPoint(features=(1.0,)))
        narrow = ClusterState(Config(60.0, 2), (cluster_with_centroid([1.0]),), 1)
        with pytest.raises(InvariantViolation, match="width 1"):
            verify_state(narrow)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, 1000.0), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 1000.0), min_size=n, max_size=n),
                st.sampled_from([50.0, 60.0, 75.0, 90.0, 100.0]),
            )
        )
    )
    def test_agrees_with_a_naive_loop(self, case):
        point_vals, centroid_vals, strictness = case
        assert profile(point_vals, centroid_vals, strictness) == naive_profile(
            point_vals, centroid_vals, strictness
        )
