"""Engine behavior: the six-point example, dispatch branches, exactness."""

import random

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
    NegativeFeature,
    assign,
    run_stream,
    should_match_features,
    verify_state,
)

from generators import anchored_points, integer_points, random_case, uniform_points
from golden import (
    GOLDEN_ASSIGNMENTS,
    GOLDEN_CENTROIDS,
    GOLDEN_MATCHED,
    GOLDEN_MEMBERSHIPS,
    GOLDEN_N_FEATURES,
    GOLDEN_POINTS,
    GOLDEN_STRICTNESS,
    GOLDEN_TIEBREAK_AVGS,
)
from reference import NaiveClusterer, naive_run, naive_should_match

GOLDEN_CONFIG = Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES)


class TestShouldMatch:
    @pytest.mark.parametrize(
        "strictness,n,expected",
        [
            (60.0, 10, 6),
            (70.0, 20, 14),
            (50.0, 7, 4),
            (100.0, 5, 5),
            (1.0, 1, 1),
            (0.1, 10, 1),
            (99.9999, 4, 4),
            (33.333333333333336, 3, 2),  # just above a third, so it rounds up
        ],
    )
    def test_values(self, strictness, n, expected):
        assert should_match_features(Config(strictness, n)) == expected

    def test_never_below_one_or_above_n(self):
        for n in range(1, 30):
            for s in (0.001, 25.0, 99.999, 100.0):
                need = should_match_features(Config(s, n))
                assert 1 <= need <= n

    @given(st.integers(1, 100), st.integers(1, 1000))
    def test_agrees_with_plain_float_ceil_on_integer_strictness(self, s, n):
        assert should_match_features(Config(float(s), n)) == naive_should_match(float(s), n)


class TestGoldenTrace:
    def test_step_by_step(self):
        eng = ClusteringEngine(GOLDEN_CONFIG)
        assert eng.should_match == 6
        for seq, point in enumerate(GOLDEN_POINTS):
            outcome = eng.assign(point)
            cid, created, path = GOLDEN_ASSIGNMENTS[seq]
            assert outcome.point_seq == seq
            assert outcome.assigned_cluster_id == cid
            assert outcome.created_new is created
            assert outcome.decision_path.value == path
            matched = {p.cluster_id: p.matched_count for p in outcome.profiles}
            assert matched == GOLDEN_MATCHED[seq]
            if seq == 4:
                by_id = {p.cluster_id: p for p in outcome.profiles}
                for cid_, want in GOLDEN_TIEBREAK_AVGS.items():
                    assert round(by_id[cid_].qualifying_avg, 2) == want
                assert outcome.winner_profile.matched_count == 8

        state = eng.state()
        assert len(state.clusters) == 3
        for cluster in state.clusters:
            assert cluster.member_seqs == GOLDEN_MEMBERSHIPS[cluster.id]
            assert list(cluster.centroid()) == GOLDEN_CENTROIDS[cluster.id]
        verify_state(state, GOLDEN_POINTS)

    def test_run_stream_matches_manual_fold(self):
        state, outcomes = run_stream(GOLDEN_CONFIG, GOLDEN_POINTS)
        assert [(o.assigned_cluster_id, o.created_new, o.decision_path.value) for o in outcomes] == GOLDEN_ASSIGNMENTS
        eng = ClusteringEngine(GOLDEN_CONFIG)
        for p in GOLDEN_POINTS:
            eng.assign(p)
        assert eng.state() == state


class TestDispatchBranches:
    def test_first_point_founds_cluster_one(self):
        eng = ClusteringEngine(Config(60.0, 2))
        outcome = eng.assign([4.0, 9.0])
        assert outcome.assigned_cluster_id == 1
        assert outcome.created_new
        assert outcome.decision_path.value == "EMPTY_LIST_NEW_CLUSTER"
        assert outcome.profiles == ()
        assert outcome.winner_profile is None

    def test_max_matched_beats_fewer_matches(self):
        state = ClusterState(
            config=Config(50.0, 3),
            clusters=(
                Cluster(id=1, member_count=1, feature_sums=(10.0, 10.0, 10.0), member_seqs=(0,)),
                Cluster(id=2, member_count=1, feature_sums=(10.0, 10.0, 100.0), member_seqs=(1,)),
            ),
            points_seen=2,
        )
        eng = ClusteringEngine.from_state(state)
        outcome = eng.assign([10.0, 10.0, 14.0])
        # both qualify (need 2), but cluster 1 matches on all three features
        matched = {p.cluster_id: p.matched_count for p in outcome.profiles}
        assert matched == {1: 3, 2: 2}
        assert outcome.decision_path.value == "MAX_MATCHED"
        assert outcome.assigned_cluster_id == 1
        assert not outcome.created_new

    def test_exact_double_tie_keeps_lowest_id(self):
        eng = ClusteringEngine(Config(50.0, 2))
        assert eng.assign([10.0, 40.0]).created_new
        assert eng.assign([40.0, 10.0]).created_new  # 400/25 vs C1: no match
        outcome = eng.assign([20.0, 20.0])
        # against C1 sims are (200, 50), against C2 (50, 200): matched one
        # each, scaled average 50 each, so the earlier cluster keeps it
        profiles = {p.cluster_id: p for p in outcome.profiles}
        assert profiles[1].matched_count == profiles[2].matched_count == 1
        assert profiles[1].qualifying_avg == profiles[2].qualifying_avg == 50.0
        assert outcome.decision_path.value == "AVG_TIEBREAK"
        assert outcome.assigned_cluster_id == 1

    def test_zero_centroid_feature_matches_only_exact_zero(self):
        eng = ClusteringEngine(Config(100.0, 2))
        eng.assign([0.0, 10.0])
        joined = eng.assign([0.0, 10.0])
        assert not joined.created_new  # zero-on-zero scores 100 and qualifies
        third = eng.assign([3.0, 10.0])
        assert third.created_new  # undefined on the zero feature, 1 of 2 < need

    def test_zero_feature_still_joins_when_enough_others_match(self):
        eng = ClusteringEngine(Config(50.0, 2))
        eng.assign([0.0, 10.0])
        outcome = eng.assign([3.0, 10.0])
        assert not outcome.created_new  # need 1, the second feature matches
        assert outcome.winner_profile.matched_count == 1


class TestExactness:
    def test_identical_integer_points_collapse_to_one_cluster_at_100(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 12)
            vector = [float(rng.randint(0, 50)) for _ in range(n)]
            copies = rng.randint(1, 40)
            state, outcomes = run_stream(Config(100.0, n), [vector] * copies)
            assert len(state.clusters) == 1
            assert state.clusters[0].member_count == copies
            for outcome in outcomes[1:]:
                assert outcome.winner_profile.matched_count == n

    def test_cached_centroids_match_derived_ones_bitwise(self):
        rng = random.Random(21)
        for _ in range(20):
            strictness, n, points = random_case(rng, rng.randint(1, 60))
            eng = ClusteringEngine(Config(strictness, n))
            for p in points:
                eng.assign(p)
            cached = eng.centroids()
            for cluster in eng.state().clusters:
                row = cached[cluster.id - 1]
                derived = cluster.centroid()
                assert all(a == b for a, b in zip(row.tolist(), derived))


class TestStreamDiscipline:
    def test_seq_must_continue_the_stream(self):
        eng = ClusteringEngine(Config(60.0, 1))
        with pytest.raises(InvariantViolation):
            eng.assign(DataPoint(seq=5, features=(1.0,)))
        eng.assign(DataPoint(seq=0, features=(1.0,)))
        eng.assign(DataPoint(seq=1, features=(1.0,)))
        with pytest.raises(InvariantViolation):
            eng.assign(DataPoint(seq=1, features=(1.0,)))

    def test_dimension_mismatch(self):
        eng = ClusteringEngine(Config(60.0, 2))
        with pytest.raises(DimensionMismatch):
            eng.assign([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            eng.assign(DataPoint(seq=0, features=(1.0,)))

    def test_bare_sequences_are_validated(self):
        eng = ClusteringEngine(Config(60.0, 2))
        with pytest.raises(NegativeFeature):
            eng.assign([1.0, -1.0])

    def test_run_stream_reports_the_failing_seq(self):
        with pytest.raises(NegativeFeature) as exc:
            run_stream(Config(60.0, 2), [[1.0, 2.0], [1.0, -2.0]])
        assert exc.value.point_seq == 1

    def test_many_new_clusters_grow_capacity(self):
        points = [[3.0**i] for i in range(100)]  # each 300% of the last: never joins
        state, outcomes = run_stream(Config(60.0, 1), points)
        assert len(state.clusters) == 100
        assert [c.id for c in state.clusters] == list(range(1, 101))
        assert all(o.created_new for o in outcomes)
        verify_state(state, points)


class TestStateRoundTrip:
    def test_from_state_reproduces_the_state(self):
        state, _ = run_stream(GOLDEN_CONFIG, GOLDEN_POINTS)
        assert ClusteringEngine.from_state(state).state() == state

    def test_resumed_engine_continues_identically(self):
        rng = random.Random(3)
        for _ in range(10):
            strictness, n, points = random_case(rng, 40)
            cut = rng.randint(0, len(points))
            full_state, full_outcomes = run_stream(Config(strictness, n), points)

            head_state, head_outcomes = run_stream(Config(strictness, n), points[:cut])
            eng = ClusteringEngine.from_state(head_state)
            tail_outcomes = [eng.assign(p) for p in points[cut:]]
            assert eng.state() == full_state
            assert head_outcomes + tail_outcomes == full_outcomes

    def test_pure_assign_leaves_input_state_alone(self):
        state0 = ClusteringEngine(Config(60.0, 1)).state()
        state1, out1 = assign(state0, [5.0])
        state2, out2 = assign(state1, [5.5])
        assert state0.points_seen == 0 and not state0.clusters
        assert state1.points_seen == 1
        assert out1.created_new and not out2.created_new
        assert state2.clusters[0].member_count == 2


class TestProfileRecording:
    def test_opt_out_skips_per_cluster_profiles_only(self):
        with_profiles = run_stream(GOLDEN_CONFIG, GOLDEN_POINTS, record_profiles=True)
        without = run_stream(GOLDEN_CONFIG, GOLDEN_POINTS, record_profiles=False)
        assert with_profiles[0] == without[0]
        for a, b in zip(with_profiles[1], without[1]):
            assert (a.assigned_cluster_id, a.created_new, a.decision_path) == (
                b.assigned_cluster_id,
                b.created_new,
                b.decision_path,
            )
            assert b.profiles is None
            if b.created_new:
                assert b.winner_profile is None
            else:
                assert b.winner_profile == a.winner_profile

    @pytest.mark.parametrize("record_profiles", [True, False])
    def test_matched_counts_are_python_ints(self, record_profiles):
        # the kernel counts matches in float64; profiles must not leak that
        rng = random.Random(11)
        points = integer_points(rng, 80, 6, hi=8)
        _, outcomes = run_stream(Config(60.0, 6), points, record_profiles=record_profiles)
        profiles = [o.winner_profile for o in outcomes if o.winner_profile is not None]
        for o in outcomes:
            profiles.extend(o.profiles or ())
        assert len(profiles) > (len(outcomes) if record_profiles else 10)
        assert all(type(p.matched_count) is int for p in profiles)


class TestOrderSensitivity:
    def test_arrival_order_can_change_the_outcome(self):
        # single feature, strictness 60: the rolling centroid drags toward
        # later arrivals, so the same multiset of points can split or not
        points = [[100.0], [135.0], [180.0]]
        forward, _ = run_stream(Config(60.0, 1), points)
        backward, _ = run_stream(Config(60.0, 1), points[::-1])
        assert len(forward.clusters) == 2
        assert len(backward.clusters) == 1


class TestAgainstNaiveReference:
    def test_small_streams_agree_exactly(self):
        rng = random.Random(99)
        for _ in range(25):
            strictness, n, points = random_case(rng, rng.randint(1, 60))
            state, outcomes = run_stream(Config(strictness, n), points)
            clusterer, results = naive_run(strictness, n, points)
            got = [(o.assigned_cluster_id, o.created_new, o.decision_path.value) for o in outcomes]
            want = [(cid, created, path) for cid, created, path, _ in results]
            assert got == want
            assert [list(c.member_seqs) for c in state.clusters] == clusterer.members
            for cluster in state.clusters:
                assert list(cluster.centroid()) == clusterer.centroid(cluster.id - 1)

    @staticmethod
    def assert_agrees(strictness, n, points):
        state, outcomes = run_stream(Config(strictness, n), points, record_profiles=False)
        clusterer, results = naive_run(strictness, n, points)
        got = [
            (
                o.assigned_cluster_id,
                o.created_new,
                o.decision_path.value,
                None if o.winner_profile is None else o.winner_profile.matched_count,
            )
            for o in outcomes
        ]
        assert got == results
        assert [list(c.member_seqs) for c in state.clusters] == clusterer.members
        for cluster in state.clusters:
            assert list(cluster.centroid()) == clusterer.centroid(cluster.id - 1)
        return state

    def test_large_state_agrees_exactly(self):
        # k * n passes 10,000, where the BLAS may split the match count
        # across threads; the counts must still be exact integers
        points = uniform_points(random.Random(1200), 1200, 10)
        state = self.assert_agrees(90.0, 10, points)
        assert len(state.clusters) * 10 > 10_000

    def test_zero_heavy_streams_agree_exactly(self):
        rng = random.Random(20)
        streams = [
            (60.0, 6, anchored_points(rng, 200, 6, n_anchors=6, zero_rate=0.2, outlier_rate=0.05)),
            (75.0, 5, integer_points(rng, 200, 5, hi=4)),
        ]
        cases = set()  # (point value is zero, centroid value is zero) pairs met
        for strictness, n, points in streams:
            self.assert_agrees(strictness, n, points)
            naive = NaiveClusterer(strictness, n)
            for p in points:
                for cent in naive.centroids():
                    cases.update((d == 0.0, c == 0.0) for d, c in zip(p, cent))
                naive.add(p)
        assert cases == {(False, False), (False, True), (True, False), (True, True)}
