"""Engine behavior: the six-point example, dispatch branches, exactness."""

import dataclasses
import math
import random
import re
import sys
import warnings
from fractions import Fraction

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
    DecisionPath,
    DimensionMismatch,
    FeatureSumOverflow,
    InvariantViolation,
    NegativeFeature,
    ParseError,
    run_stream,
    verify_state,
)
from strictcluster import engine as engine_module
from strictcluster.engine import _fixups, _head_rows, _qualifying_avg, should_match_features

from children import run_python
from generators import (
    STRICTNESS_CHOICES,
    anchored_points,
    integer_points,
    random_case,
    throughput_points,
    uniform_points,
)
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
from reference import (
    NaiveClusterer,
    assign_profiled,
    naive_centroid,
    naive_profile,
    naive_run,
    naive_should_match,
    naive_similarity,
    profile_pairs,
)

GOLDEN_CONFIG = Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES)
FILTER_MIN_SKIPPED = engine_module._FILTER_MIN_SKIPPED


@pytest.fixture
def force_count_filter(monkeypatch):
    """force_count_filter(on) turns assign's count filter on for every k, or
    off, and returns a list that gets, for each full-kernel pass of assign,
    how many cluster columns it left out."""

    def force(on):
        monkeypatch.setattr(engine_module, "_FILTER_MIN_SKIPPED", 0 if on else math.inf)
        pruned = []
        score = ClusteringEngine._score

        def spy(self, f, cents, *flags):
            if f.size == self._n:
                pruned.append(self.cluster_count - cents.shape[1])
            return score(self, f, cents, *flags)

        monkeypatch.setattr(ClusteringEngine, "_score", spy)
        return pruned

    return force


@pytest.fixture
def screened(monkeypatch):
    """A list that gets the seq of each point that assign count-filters: the
    float32 screen is the filter's one head pass."""
    seqs = []
    screen = ClusteringEngine._screen

    def spy(self, *args):
        seqs.append(self._points_seen)
        return screen(self, *args)

    monkeypatch.setattr(ClusteringEngine, "_screen", spy)
    return seqs


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

    @pytest.mark.parametrize(
        "strictness",
        [0.07, 5e-324, 1e-05, 33.333333333333336, 99.99999999999999, 100.0, 0.1, 60.0],
    )
    def test_equals_the_exact_rational_ceil(self, strictness):
        for n in (1, 2, 3, 7, 99, 100, 101, 1000, 12_345, 999_999, 10**6):
            want = math.ceil(Fraction(repr(strictness)) * n / 100)
            assert should_match_features(Config(strictness, n)) == want, n

    @given(
        st.floats(min_value=0.0, max_value=100.0, exclude_min=True),
        st.integers(1, 10**6),
    )
    def test_equals_the_exact_rational_ceil_on_any_strictness(self, s, n):
        want = math.ceil(Fraction(repr(s)) * n / 100)
        assert should_match_features(Config(s, n)) == want

    @pytest.mark.parametrize(
        "strictness,n,expected",
        # each float lies just above its decimal, so its binary value needs 8 or 2
        [(0.07, 10_000, 7), (0.8, 125, 1), (0.4, 250, 1), (0.1, 1000, 1)],
    )
    def test_reads_the_strictness_as_the_decimal_it_is_written_as(
        self, strictness, n, expected
    ):
        assert math.ceil(Fraction(strictness) * n / 100) == expected + 1
        assert should_match_features(Config(strictness, n)) == expected

    def test_starting_the_cli_imports_neither_fractions_nor_decimal(self):
        code = (
            "import sys; import strictcluster.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        proc = run_python(code)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")


class TestGoldenTrace:
    def test_step_by_step(self):
        eng = ClusteringEngine(GOLDEN_CONFIG)
        assert should_match_features(eng.config) == 6
        for seq, point in enumerate(GOLDEN_POINTS):
            outcome, *arrays = assign_profiled(eng, point)
            profiles = profile_pairs(*arrays)
            cid, created, path = GOLDEN_ASSIGNMENTS[seq]
            assert outcome.point_seq == seq
            assert outcome.assigned_cluster_id == cid
            assert outcome.created_new is created
            assert outcome.decision_path.value == path
            matched = {i: c for i, (c, _) in enumerate(profiles, start=1)}
            assert matched == GOLDEN_MATCHED[seq]
            if seq == 4:
                for cid_, want in GOLDEN_TIEBREAK_AVGS.items():
                    assert round(profiles[cid_ - 1][1], 2) == want
                assert outcome.matched_count == 8

        state = eng.state()
        assert len(state.clusters) == 3
        for cluster in state.clusters:
            assert cluster.member_seqs == GOLDEN_MEMBERSHIPS[cluster.id]
            assert naive_centroid(cluster) == GOLDEN_CENTROIDS[cluster.id]
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
        outcome, *arrays = assign_profiled(eng, [4.0, 9.0])
        assert profile_pairs(*arrays) == []
        assert outcome.assigned_cluster_id == 1
        assert outcome.created_new
        assert outcome.decision_path.value == "EMPTY_LIST_NEW_CLUSTER"
        assert outcome.matched_count is None
        assert outcome.qualifying_avg is None

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
        # both qualify (need 2), but cluster 1 matches on all three features
        outcome, matched, _ = assign_profiled(eng, [10.0, 10.0, 14.0])
        assert matched.tolist() == [3, 2]
        assert outcome.decision_path.value == "MAX_MATCHED"
        assert outcome.assigned_cluster_id == 1
        assert not outcome.created_new

    def test_exact_double_tie_keeps_lowest_id(self):
        eng = ClusteringEngine(Config(50.0, 2))
        assert eng.assign([10.0, 40.0]).created_new
        assert eng.assign([40.0, 10.0]).created_new  # 400/25 vs C1: no match
        # against C1 sims are (200, 50), against C2 (50, 200): matched one
        # each, scaled average 50 each, so the earlier cluster keeps it
        outcome, *arrays = assign_profiled(eng, [20.0, 20.0])
        (matched1, avg1), (matched2, avg2) = profile_pairs(*arrays)
        assert matched1 == matched2 == 1
        assert avg1 == avg2 == 50.0
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
        assert outcome.matched_count == 1


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
                assert outcome.matched_count == n

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
                # the bytes, so that -0.0 and 0.0 differ too
                assert row.tobytes() == np.array(naive_centroid(cluster)).tobytes()


class TestStreamDiscipline:
    def test_dimension_mismatch(self):
        # a DataPoint of the wrong width is refused as a bare sequence is
        eng = ClusteringEngine(Config(60.0, 2))
        for point in ([1.0], DataPoint(features=(1.0,))):
            with pytest.raises(DimensionMismatch) as info:
                eng.assign(point)
            assert (str(info.value), info.value.point_seq) == ("expected 2 features, got 1", 0)
        with pytest.raises(DimensionMismatch):
            eng.assign([1.0, 2.0, 3.0])

    def test_bare_sequences_are_validated(self):
        eng = ClusteringEngine(Config(60.0, 2))
        with pytest.raises(NegativeFeature):
            eng.assign([1.0, -1.0])

    def test_run_stream_reports_the_failing_seq(self):
        # width, value and sum-overflow errors, each at the failing position;
        # assign numbers them, so a manual loop gets the position too
        cases = [
            (DimensionMismatch, Config(60.0, 2), [[1.0, 2.0], [1.0, 2.0, 3.0]], 1),
            (NegativeFeature, Config(60.0, 2), [[1.0, 2.0], [3.0, 4.0], [1.0, -2]], 2),
            (FeatureSumOverflow, Config(50.0, 1), [[1e308], [1e308]], 1),
            # a point that is no sequence of features
            (ParseError, Config(60.0, 1), [[1.0], 5], 1),
            (ParseError, Config(60.0, 1), [[1.0], [2.0], np.array(5.0)], 2),
        ] + [
            # a feature float() refuses, 10**5000 too long even for repr(),
            # or one float() reads but the CLI's parsers refuse
            (ParseError, Config(60.0, 1), [[1.0], [bad]], 1)
            for bad in ["x", None, [1.0], 1 + 2j, 10**400, 10**5000, "1.5", True, b"2",
                        np.bool_(False)]
        ]
        for error, config, points, seq in cases:
            with pytest.raises(error) as exc:
                run_stream(config, points)
            assert exc.value.point_seq == seq
            eng = ClusteringEngine(config)
            with pytest.raises(error) as exc:
                for point in points:
                    eng.assign(point)
            assert exc.value.point_seq == seq
            assert eng.state().points_seen == seq  # the failing point changed nothing

    def test_many_new_clusters_grow_capacity(self):
        points = [[3.0**i] for i in range(100)]  # each 300% of the last: never joins
        state, outcomes = run_stream(Config(60.0, 1), points)
        assert len(state.clusters) == 100
        assert [c.id for c in state.clusters] == list(range(1, 101))
        assert all(o.created_new for o in outcomes)
        verify_state(state, points)

    def test_sum_overflow_rejects_the_point_and_keeps_the_state(self):
        eng = ClusteringEngine(Config(50.0, 2))
        for _ in range(179):
            eng.assign([1e306, 1.0])
        before = eng.state()
        cents = eng.centroids()
        with pytest.raises(FeatureSumOverflow, match="seq 179"):
            eng.assign([1e306, 1.0])
        assert eng.state() == before
        assert eng.centroids().tobytes() == cents.tobytes()
        # the rejected point took no seq: the stream continues from it
        outcome = eng.assign([1.0, 1.0])
        assert outcome.point_seq == 179
        assert eng.state().clusters[outcome.assigned_cluster_id - 1].member_seqs[-1] == 179

    def test_overflowing_similarity_warns_nothing(self):
        # 100 * 1e307 overflows, so that feature divides first and scores
        # 100 * (1e307 / 1e308), about 10, out of the band; no numpy
        # RuntimeWarning escapes, and the point joins on the other feature
        eng = ClusteringEngine(Config(50.0, 2))
        eng.assign([1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = eng.assign([1e307, 1.0])
        assert outcome.assigned_cluster_id == 1
        assert outcome.matched_count == 1


    def test_identical_points_past_1e306_share_a_cluster(self):
        points = [[1e307, 1.0], [1e307, 1.0]]
        _, outcomes = run_stream(Config(90.0, 2), points)
        assert [(o.assigned_cluster_id, o.created_new) for o in outcomes] == [(1, True), (1, False)]
        assert (outcomes[1].matched_count, outcomes[1].qualifying_avg) == (2, 100.0)
        _, results = naive_run(90.0, 2, points)
        assert results == [
            (1, True, "EMPTY_LIST_NEW_CLUSTER", None), (1, False, "SINGLE_QUALIFIED", 2)
        ]


def hand_built(*clusters, points_seen=None):
    """A ClusterState at n=2 of ``clusters``, one point seen per cluster unless
    ``points_seen`` is given."""
    seen = len(clusters) if points_seen is None else points_seen
    return ClusterState(Config(60.0, 2), clusters, seen)


NOT_A_CLUSTER = (
    "cluster at position 1: not a Cluster of integer id and member_count "
    "and tuples of feature_sums and member_seqs"
)
NOT_A_STATE = "not a ClusterState with a Config and a tuple of clusters"
# for a field of a valid two-cluster state: some keep it valid, most do not
FIELD_VALUES = [
    1, 2, 3, 0, True, 2.0, "2", None, 5, (0,), (1,), (0, 2), (2, 0), (0, 0), [0],
    (3.0, 7.0), (9.0, 1.0), (1.0,), (1.0, math.nan), (1.0, -0.5), (1.0, math.inf),
    (1.0, 2), (1.0, True), ((1.0, 2.0), (3.0, 4.0)), [3.0, 7.0], (10**400, 1.0),
]


class TestStateRoundTrip:
    def test_from_state_reproduces_the_state(self):
        state, _ = run_stream(GOLDEN_CONFIG, GOLDEN_POINTS)
        assert ClusteringEngine.from_state(state).state() == state

    def test_resumed_engine_continues_identically(self):
        rng = random.Random(3)
        cases = []
        for _ in range(10):
            strictness, n, points = random_case(rng, 40)
            cases.append((Config(strictness, n), points, [rng.randint(0, len(points))]))
        # Each founder is 1.5x the last in every feature, so it qualifies for
        # no earlier cluster and k passes 8, 16, 32 and 64 one cluster at a
        # time; then a jittered copy of each founder joins it. Resumed at
        # every cut, from_state builds the arrays in one step.
        founders = [[1.5**i, 3.0 * 1.5**i / 7.0, 0.1 * 1.5**i] for i in range(70)]
        points = founders + [[v * rng.uniform(0.99, 1.01) for v in p] for p in founders]
        _, outcomes = run_stream(Config(90.0, 3), points)
        assert [o.created_new for o in outcomes] == [True] * 70 + [False] * 70
        cases.append((Config(90.0, 3), points, range(len(points) + 1)))

        for config, points, cuts in cases:
            full = ClusteringEngine(config)
            full_outcomes = [full.assign(p) for p in points]
            for cut in cuts:
                head = ClusteringEngine(config)
                head_outcomes = [head.assign(p) for p in points[:cut]]
                eng = ClusteringEngine.from_state(head.state())
                assert eng.centroids().tobytes() == head.centroids().tobytes()
                tail_outcomes = [eng.assign(p) for p in points[cut:]]
                assert eng.state() == full.state()
                assert eng.centroids().tobytes() == full.centroids().tobytes()
                assert head_outcomes + tail_outcomes == full_outcomes

    @pytest.mark.parametrize(
        "state,message",
        [
            (hand_built(Cluster(1, 1, (1.0,), (0,))),
             "cluster 1: feature_sums has width 1, expected 2"),
            # a ragged list, which numpy cannot make an array of
            (hand_built(Cluster(1, 1, (1.0, 2.0), (0,)), Cluster(2, 1, (1.0, 2.0, 3.0), (1,))),
             "cluster 2: feature_sums has width 3, expected 2"),
            # no division by zero, so no inf centroid and no RuntimeWarning
            (hand_built(Cluster(1, 1, (1.0, 2.0), (0,)), Cluster(2, 0, (1.0, 2.0), ())),
             "cluster 2 has no members"),
            # a count that numpy would read, and a join would fail on
            (hand_built(Cluster(1, "2", (1.0, 2.0), (0, 1)), points_seen=2), NOT_A_CLUSTER),
            (hand_built(Cluster(1, 1, (math.nan, 2.0), (0,))),
             "cluster 1: feature sum nan is not a finite nonnegative float"),
            (hand_built(Cluster(1, 1, (1.0, -1.0), (0,))),
             "cluster 1: feature sum -1.0 is not a finite nonnegative float"),
            (hand_built(Cluster(2, 1, (1.0, 2.0), (0,))),
             "cluster ids must be contiguous from 1; found 2 at position 1"),
            (hand_built(Cluster(1, 1, (1.0, 2.0), (0,)), points_seen=2),
             "member counts sum to 1 but points_seen is 2"),
            # numpy would make these a (1, 2, 2) array
            (hand_built(Cluster(1, 1, ((1.0, 2.0), (3.0, 4.0)), (0,))),
             "cluster 1: feature sum (1.0, 2.0) is not a finite nonnegative float"),
            # states that cannot be read at all
            (hand_built(Cluster(1, 1, 5, (0,))), NOT_A_CLUSTER),
            (hand_built(Cluster(1, 1, (1.0, 2.0), None)), NOT_A_CLUSTER),
            (hand_built((1, 1, (1.0, 2.0), (0,))), NOT_A_CLUSTER),
            (ClusterState(Config(60.0, 2), None, 0), NOT_A_STATE),
            (ClusterState(None, (Cluster(1, 1, (1.0, 2.0), (0,)),), 1), NOT_A_STATE),
            (None, NOT_A_STATE),
        ],
        ids=["wrong-width", "ragged", "no-members", "count-str", "nan-sum", "negative-sum",
             "ids-from-2", "points-seen-off", "nested-sums", "sums-5", "seqs-None",
             "no-Cluster", "clusters-None", "config-None", "no-state"],
    )
    def test_a_hand_built_state_that_the_arrays_refuse(self, state, message):
        # from_state audits with verify_state: the same refusal, and no other error
        for judge in (verify_state, ClusteringEngine.from_state):
            with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
                judge(state)

    @given(
        st.lists(st.tuples(
            st.integers(0, 1),
            st.sampled_from(["id", "member_count", "feature_sums", "member_seqs"]),
            st.sampled_from(FIELD_VALUES),
        ), max_size=3),
        st.sampled_from([3, 2, 4, True, 3.0]),
    )
    def test_from_state_refuses_exactly_what_verify_state_refuses(self, pokes, points_seen):
        clusters = [Cluster(1, 2, (3.0, 7.0), (0, 2)), Cluster(2, 1, (9.0, 1.0), (1,))]
        for i, field, value in pokes:
            clusters[i] = dataclasses.replace(clusters[i], **{field: value})
        state = hand_built(*clusters, points_seen=points_seen)
        try:
            verify_state(state)
        except InvariantViolation as err:
            with pytest.raises(InvariantViolation, match=f"^{re.escape(str(err))}$"):
                ClusteringEngine.from_state(state)
        else:
            assert ClusteringEngine.from_state(state).state() == state

    def test_pure_assign_leaves_input_state_alone(self):
        # from_state, assign, state(): one step from a state value to the next
        def step(state, point):
            eng = ClusteringEngine.from_state(state)
            outcome = eng.assign(point)
            return eng.state(), outcome

        state0 = ClusteringEngine(Config(60.0, 1)).state()
        state1, out1 = step(state0, [5.0])
        state2, out2 = step(state1, [5.5])
        assert state0.points_seen == 0 and not state0.clusters
        assert state1.points_seen == 1
        assert state1.clusters[0].member_count == 1
        assert out1.created_new and not out2.created_new
        assert state2.clusters[0].member_count == 2
        assert step(state1, [5.5]) == (state2, out2)


def profiled_run(config, points):
    """run_stream with every point assigned through the profile hook, plus
    each point's profile as profile_pairs."""
    eng = ClusteringEngine(config)
    outcomes, profiles = [], []
    for p in points:
        outcome, *arrays = assign_profiled(eng, p)
        outcomes.append(outcome)
        profiles.append(profile_pairs(*arrays))
    return eng.state(), outcomes, profiles


def kernel_avgs(eng, features):
    """_qualifying_avg of every cluster that matches, from the kernel's matrices."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.asarray(features, dtype=np.float64)
        sims, band, matched = eng._score(f, eng._cents, *_fixups(features)[:2])
    return [
        _qualifying_avg(sims, band, i) if c else None for i, c in enumerate(matched.tolist())
    ]


class TestProfileRecording:
    """assign reports the winner's count and average; its profile hook
    reports every cluster's."""

    def assert_winners_are_profiled(self, outcomes, profiles):
        for outcome, before in zip(outcomes, profiles):
            got = (outcome.matched_count, outcome.qualifying_avg)
            if outcome.created_new:
                assert got == (None, None)
            else:
                assert got == before[outcome.assigned_cluster_id - 1]

    def test_profiles_change_nothing_and_give_the_winners_profile(self):
        # assign without the hook reaches the same state and outcomes: the
        # hook, which scores every cluster, changes no decision
        state, outcomes, profiles = profiled_run(GOLDEN_CONFIG, GOLDEN_POINTS)
        assert run_stream(GOLDEN_CONFIG, GOLDEN_POINTS) == (state, outcomes)
        self.assert_winners_are_profiled(outcomes, profiles)

    def test_winners_profile_matches_profiles_after_a_tie_break(self):
        # over a third of these points take the tie-break, whose winner is
        # often not the last tied cluster; its average is reused, not redone
        config, points = Config(60.0, 6), integer_points(random.Random(11), 300, 6, hi=8)
        _, outcomes, profiles = profiled_run(config, points)
        ties = [o for o in outcomes if o.decision_path is DecisionPath.AVG_TIEBREAK]
        assert len(ties) > 100
        self.assert_winners_are_profiled(outcomes, profiles)

    @pytest.mark.parametrize("with_profiles", [True, False])
    def test_matched_counts_are_python_ints(self, with_profiles):
        # the kernel counts matches in uint8; neither the outcome nor the
        # profile hook may leak that
        rng = random.Random(11)
        points = integer_points(rng, 80, 6, hi=8)
        eng = ClusteringEngine(Config(60.0, 6))
        counts, arrays = [], []
        for p in points:
            if with_profiles:
                outcome, matched, _ = assign_profiled(eng, p)
                arrays.append(matched)
            else:
                outcome = eng.assign(p)
            counts.append(outcome.matched_count)
        counts = [c for c in counts if c is not None]
        assert len(counts) > 10
        assert all(type(c) is int for c in counts)
        assert len(arrays) == (len(points) if with_profiles else 0)
        assert all(a.dtype == np.intp for a in arrays)

    @pytest.mark.parametrize(
        "strictness,n,make,ties",
        [
            pytest.param(
                60.0, 10,
                lambda rng: throughput_points(rng, 300, n_anchors=100, outlier_rate=0.04),
                True,
                id="tie-heavy-n10",
            ),
            pytest.param(
                60.0, 8,
                lambda rng: anchored_points(
                    rng, 300, 8, n_anchors=40, zero_rate=0.2, outlier_rate=0.05
                ),
                True,
                id="zero-heavy-n8",
            ),
            pytest.param(
                75.0, 5, lambda rng: integer_points(rng, 300, 5, hi=4), True, id="integer-n5"
            ),
            # k stays 1, where a reduction of the one column would sum pairwise
            pytest.param(
                50.0, 10,
                lambda rng: anchored_points(rng, 200, 10, n_anchors=1, spread=0.3),
                False,
                id="one-cluster-n10",
            ),
            # rows where 100 * d overflows and the similarity divides first
            pytest.param(
                90.0, 3, lambda rng: extreme_streams()[0][2], False, id="extreme-magnitudes-n3"
            ),
            pytest.param(
                60.0, 6, lambda rng: zero_heavy_streams(-0.0)[0][2], False,
                id="negative-zero-heavy-n6",
            ),
            # need = n: only an exact copy of a centroid matches
            pytest.param(
                100.0, 3, lambda rng: integer_points(rng, 200, 3, hi=2), False, id="s100-n3"
            ),
        ],
    )
    def test_profiles_equal_the_scalar_match_profile(self, strictness, n, make, ties):
        # every cluster's profile of one point must be the scalar
        # reference's and _qualifying_avg's, qualifying_avg bit for bit
        eng = ClusteringEngine(Config(strictness, n))
        lo, hi = strictness, 200.0 - strictness
        tiebreaks = pairwise_differs = 0
        for seq, p in enumerate(make(random.Random(31))):
            dp = DataPoint(tuple(p))
            centroids = [naive_centroid(c) for c in eng.state().clusters]
            want = [naive_profile(dp.features, cent, strictness) for cent in centroids]
            scalar_avgs = kernel_avgs(eng, dp.features)
            outcome, matched, avgs = assign_profiled(eng, dp)
            got = profile_pairs(matched, avgs)
            assert got == want
            assert [avg for _, avg in got] == scalar_avgs
            # == cannot tell a numpy integer from an int: check the arrays'
            # types, and that nan marks exactly the clusters nothing matched
            assert (matched.dtype, avgs.dtype) == (np.intp, np.float64)
            assert np.isnan(avgs).tolist() == (matched == 0).tolist()
            tiebreaks += outcome.decision_path is DecisionPath.AVG_TIEBREAK
            for cent in centroids:
                folded = []
                for v in map(naive_similarity, dp.features, cent):
                    in_band = v is not None and lo <= v <= hi
                    folded.append((v if v <= 100.0 else 200.0 - v) if in_band else 0.0)
                total = 0.0
                for v in folded:
                    total += v
                pairwise_differs += float(np.sum(folded)) != total
        if ties:
            assert tiebreaks > 0
        if n >= 8:  # numpy sums 8 or more values pairwise
            assert pairwise_differs > 0


class TestOrderSensitivity:
    def test_arrival_order_can_change_the_outcome(self):
        # single feature, strictness 60: the rolling centroid drags toward
        # later arrivals, so the same multiset of points can split or not
        points = [[100.0], [135.0], [180.0]]
        forward, _ = run_stream(Config(60.0, 1), points)
        backward, _ = run_stream(Config(60.0, 1), points[::-1])
        assert len(forward.clusters) == 2
        assert len(backward.clusters) == 1


def random_case_streams():
    rng = random.Random(99)
    return [random_case(rng, rng.randint(1, 60)) for _ in range(25)]


def n300_streams():
    return [
        (
            strictness,
            300,
            anchored_points(
                random.Random(300), 120, 300, n_anchors=4, spread=0.04, outlier_rate=0.1
            ),
        )
        for strictness in (90.0, 50.0)
    ]


def extreme_streams():
    # features past 1e306, where 100 * d overflows and the similarity
    # divides first, mixed with ordinary ones; 40 points keep every
    # feature sum below the largest float
    rng = random.Random(307)
    anchors = [[2e306, 3e305, 1.0], [4e306, 3e306, 2.0], [2.5e306, 1e306, 5.0]]
    points = [[v * rng.uniform(0.97, 1.03) for v in rng.choice(anchors)] for _ in range(40)]
    return [(90.0, 3, points)]


def zero_heavy_streams(zero):
    rng = random.Random(20)
    streams = [
        (60.0, 6, anchored_points(rng, 200, 6, n_anchors=6, zero_rate=0.2, outlier_rate=0.05)),
        (75.0, 5, integer_points(rng, 200, 5, hi=4)),
    ]
    return [
        (strictness, n, [[zero if v == 0.0 else v for v in p] for p in points])
        for strictness, n, points in streams
    ]


# Streams for the differential test with the count filter forced on and off.
FILTER_STREAMS = {
    # the bench's wide shape: k passes the size where the filter runs unforced
    "anchored-n100-s75": lambda: [
        (
            75.0,
            100,
            anchored_points(
                random.Random(75), 300, 100, n_anchors=250, spread=0.15, outlier_rate=0.04
            ),
        )
    ],
    # need = n: the head is one row, and every survivor must match it
    "s100": lambda: [
        (100.0, n, integer_points(random.Random(n), 200, n, hi=2)) for n in (2, 3, 5)
    ],
    "random-cases": random_case_streams,
    "n300": n300_streams,
    "extreme-magnitudes": extreme_streams,
    "zero-heavy": lambda: zero_heavy_streams(0.0),
    "negative-zero-heavy": lambda: zero_heavy_streams(-0.0),
}


class TestAgainstNaiveReference:
    def test_small_streams_agree_exactly(self):
        for strictness, n, points in random_case_streams():
            state, outcomes = run_stream(Config(strictness, n), points)
            clusterer, results = naive_run(strictness, n, points)
            got = [(o.assigned_cluster_id, o.created_new, o.decision_path.value) for o in outcomes]
            want = [(cid, created, path) for cid, created, path, _ in results]
            assert got == want
            assert [list(c.member_seqs) for c in state.clusters] == clusterer.members
            for cluster in state.clusters:
                assert naive_centroid(cluster) == clusterer.centroid(cluster.id - 1)

    @staticmethod
    def assert_agrees(strictness, n, points):
        state, outcomes = run_stream(Config(strictness, n), points)
        clusterer, results = naive_run(strictness, n, points)
        assert outcome_keys(outcomes) == results
        assert [list(c.member_seqs) for c in state.clusters] == clusterer.members
        for cluster in state.clusters:
            assert naive_centroid(cluster) == clusterer.centroid(cluster.id - 1)
        return state

    def test_large_state_agrees_exactly(self):
        # k * n passes 10,000: a state far past the initial capacity, grown
        # many times, must still score every cluster exactly
        points = uniform_points(random.Random(1200), 1200, 10)
        state = self.assert_agrees(90.0, 10, points)
        assert len(state.clusters) * 10 > 10_000

    @pytest.mark.parametrize("strictness", [90.0, 50.0])
    def test_wide_points_need_a_wider_count_type(self, strictness):
        # n = 300: a matched count can pass 255, which a uint8 count would wrap
        [(_, n, points)] = [w for w in n300_streams() if w[0] == strictness]
        state = self.assert_agrees(strictness, n, points)
        assert len(state.clusters) > 1
        assert max(c.member_count for c in state.clusters) > 1
        _, outcomes = run_stream(Config(strictness, n), points)
        counts = [o.matched_count for o in outcomes if not o.created_new]
        assert max(counts) > 255

    def test_extreme_magnitudes_agree_exactly(self):
        [stream] = extreme_streams()
        state = self.assert_agrees(*stream)
        assert 1 < len(state.clusters) < 20

    def test_zero_heavy_streams_agree_exactly(self):
        self.assert_zero_heavy_streams_agree(0.0)

    def test_zero_heavy_streams_with_negative_zeros_agree_exactly(self):
        self.assert_zero_heavy_streams_agree(-0.0)

    def assert_zero_heavy_streams_agree(self, zero):
        cases = set()  # (point value is zero, centroid value is zero) pairs met
        for strictness, n, points in zero_heavy_streams(zero):
            self.assert_agrees(strictness, n, points)
            naive = NaiveClusterer(strictness, n)
            for p in points:
                for cent in naive.centroids():
                    cases.update((d == 0.0, c == 0.0) for d, c in zip(p, cent))
                naive.add(p)
        assert cases == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("on", [True, False], ids=["filter-on", "filter-off"])
    @pytest.mark.parametrize("name", list(FILTER_STREAMS))
    def test_count_filter_forced_agrees_exactly(
        self, name, on, force_count_filter, screened
    ):
        # the filter drops only clusters that cannot qualify, so forced on at
        # every k or off it must give the oracle's outcomes bit for bit
        pruned = force_count_filter(on)
        for strictness, n, points in FILTER_STREAMS[name]():
            state = self.assert_agrees(strictness, n, points)
            if name == "anchored-n100-s75":  # the filter runs here unforced
                m = _head_rows(n, should_match_features(Config(strictness, n)))
                assert m < n and (n - m) * len(state.clusters) >= FILTER_MIN_SKIPPED
        # features past 2**60 keep the float32 screen, and so the filter, off
        if on and name != "extreme-magnitudes":
            assert max(pruned) > 0  # no case passes without pruning a column
            assert screened
        else:
            assert not any(pruned)
            assert not screened


class TestCountFilter:
    @pytest.mark.parametrize("strictness", STRICTNESS_CHOICES)
    def test_head_rows_leave_every_qualifier_a_match_or_switch_off(self, strictness):
        for n in range(1, 301):
            need = should_match_features(Config(strictness, n))
            m = _head_rows(n, need)
            assert m >= n or n - need < m < n

    def test_forced_filter_keeps_tie_breaks_and_the_earliest_winner(self, force_count_filter):
        # integer points of 0..2 tie often, many on the exact average too;
        # the tied columns' indices must map back to the earliest cluster
        pruned = force_count_filter(True)
        eng = ClusteringEngine(Config(60.0, 6))
        ties = exact_ties = 0
        for p in integer_points(random.Random(11), 300, 6, hi=2):
            # a hooked point skips the filter: probe a copy, assign unhooked
            probe = ClusteringEngine.from_state(eng.state())
            before = profile_pairs(*assign_profiled(probe, p)[1:])
            outcome = eng.assign(p)
            if outcome.created_new:
                continue
            win = (outcome.matched_count, outcome.qualifying_avg)
            assert win == before[outcome.assigned_cluster_id - 1]
            if outcome.decision_path is DecisionPath.AVG_TIEBREAK:
                ties += 1
                best = [cid for cid, q in enumerate(before, start=1) if q == win]
                assert outcome.assigned_cluster_id == best[0]
                exact_ties += len(best) > 1
        assert ties > 100
        assert exact_ties > 0
        assert max(pruned) > 0


def engine_with_centroids(strictness, cents):
    """An engine of one-point clusters: column i of ``cents``, n by k, is
    cluster i's centroid."""
    n, k = cents.shape
    clusters = tuple(
        Cluster(
            id=i + 1,
            member_count=1,
            feature_sums=tuple(cents[:, i].tolist()),
            member_seqs=(i,),
        )
        for i in range(k)
    )
    return ClusteringEngine.from_state(ClusterState(Config(strictness, n), clusters, k))


def head_kept(eng, point):
    """The columns that a float64 head pass and the float32 screen keep. The
    float64 head counts the oracle's in-band similarities on the first m
    rows, the ones a cluster needs ``_head_need`` of to be able to qualify."""
    m, lo, hi = eng._head, eng.config.strictness, 200.0 - eng.config.strictness
    kept64 = []
    for i, cent in enumerate(eng.centroids().tolist()):
        sims = [naive_similarity(d, c) for d, c in zip(point[:m], cent[:m])]
        if sum(sim is not None and lo <= sim <= hi for sim in sims) >= eng._head_need:
            kept64.append(i)
    assert eng._start_screen()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kept32 = eng._screen(np.asarray(point, dtype=np.float64), 0.0 in point)
    return kept64, kept32.tolist()


def assert_mirror_in_step(eng):
    want = eng._cents[: eng._head].astype(np.float32)
    assert eng._cents32.shape == want.shape
    assert eng._cents32.tobytes() == want.tobytes()


def outcome_keys(outcomes):
    """The outcomes as the oracle's (cluster id, created, path, matched) tuples."""
    return [
        (o.assigned_cluster_id, o.created_new, o.decision_path.value, o.matched_count)
        for o in outcomes
    ]


IN_SCREEN_RANGE = st.floats(2.0**-60, 2.0**60)


def band(strictness):
    """The inclusive similarity band [lo, hi] of an engine at ``strictness``."""
    eng = ClusteringEngine(Config(strictness, 1))
    return eng._lo, eng._hi


@st.composite
def screen_cases(draw):
    """A strictness, a point and an n by k centroid matrix in the screen's
    range, most cells at a similarity near or on the band's edges."""
    strictness = draw(st.sampled_from(STRICTNESS_CHOICES))
    n, k = draw(st.integers(1, 24)), draw(st.integers(1, 8))
    lo, hi = band(strictness)
    ratio = (
        st.sampled_from([lo, hi])
        | st.floats(lo * 0.999, hi * 1.001)
        | st.floats(1e-3, 400.0)
    )
    point = [draw(st.sampled_from([0.0, -0.0]) | IN_SCREEN_RANGE) for _ in range(n)]
    cents = np.empty((n, k))
    for j, d in enumerate(point):
        for i in range(k):
            if d == 0.0 or draw(st.integers(0, 9)) == 0:
                cents[j, i] = draw(st.just(0.0) | IN_SCREEN_RANGE)
            else:
                cents[j, i] = min(max(100.0 * d / draw(ratio), 2.0**-60), 2.0**60)
    return strictness, point, cents


# Strictness values for the band-edge cases; at 0.07 the filter never runs,
# since its head would be wider than n.
EDGE_STRICTNESS = (60.0, 75.0, 90.0, 99.996, 0.07)
EDGE_CENTROIDS = (1e-10, 5.5e-7, 2.0**40) + tuple(1.0 + j / 97.0 for j in range(100))


def edge_cell(target, outward):
    """A (c, d) pair whose float64 similarity fl(fl(100 * d) / c) is exactly
    ``target``, d stepped by ulps from target * c / 100. Of all such pairs
    over EDGE_CENTROIDS, the one whose float32 quotient lies furthest outward
    (-1 down, +1 up): a float32 band rounded to nearest would miss it."""
    cells = []
    for c in EDGE_CENTROIDS:
        for direction in (math.inf, -math.inf):
            d = target * c / 100.0
            for _ in range(40):
                if 100.0 * d / c == target:
                    cells.append((c, d))
                    break
                d = math.nextafter(d, direction)
            else:
                continue
            break
    assert len(cells) >= 10, target
    return max(cells, key=lambda cd: outward * float(np.float32(100.0 * cd[1]) / np.float32(cd[0])))


def edge_streams():
    """(strictness, in band, [centroid point, edge point]) for each strictness
    and each target on a band edge or one float64 ulp either side of it."""
    n = 20
    for strictness in EDGE_STRICTNESS:
        lo, hi = band(strictness)
        targets = [  # (target, outward, in band)
            (math.nextafter(lo, -math.inf), -1, False),
            (lo, -1, True),
            (math.nextafter(lo, math.inf), -1, True),
            (math.nextafter(hi, -math.inf), 1, True),
            (hi, 1, True),
            (math.nextafter(hi, math.inf), 1, False),
        ]
        for target, outward, inside in targets:
            c, d = edge_cell(target, outward)
            yield strictness, inside, [[c] * n, [d] * n]


# A feature value and whether it lies in the float32 screen's range.
RANGE_VALUES = [
    (2.0**-60, True),
    (2.0**60, True),
    (0.0, True),
    (-0.0, True),
    (math.nextafter(2.0**-60, 0.0), False),
    (math.nextafter(2.0**60, math.inf), False),
    (5e-324, False),
    (1e300, False),
    (1e307, False),
]


def ulps_around(value):
    return [math.nextafter(value, 0.0), value, math.nextafter(value, math.inf)]


# The largest d for which 100 * d is finite.
OVERFLOW_EDGE = 1.7976931348623156e306

# Features at every edge _fixups decides on, and one ulp either side.
FIXUP_EDGES = (
    [0.0, -0.0, 5e-324, math.nextafter(5e-324, math.inf), sys.float_info.max]
    + ulps_around(2.0**-60)
    + ulps_around(2.0**60)
    + ulps_around(OVERFLOW_EDGE)
)


class TestHeadScreen:
    """The count filter's float32 head screen (module doc of engine.py)."""

    def test_the_overflow_edge_is_the_last_finite_100_d(self):
        assert 100.0 * OVERFLOW_EDGE < math.inf
        assert 100.0 * math.nextafter(OVERFLOW_EDGE, math.inf) == math.inf

    @given(
        st.lists(
            st.sampled_from(FIXUP_EDGES) | st.floats(0.0, sys.float_info.max),
            min_size=1,
            max_size=12,
        )
    )
    def test_fixups_match_their_plain_definitions(self, features):
        f = tuple(features)
        assert _fixups(f) == (
            100.0 * max(f) == math.inf,
            0.0 in f,
            all(2.0**-60 <= v <= 2.0**60 for v in f if v > 0.0),
        )

    @given(screen_cases())
    def test_screen_keeps_every_column_the_float64_head_keeps(self, case):
        strictness, point, cents = case
        kept64, kept32 = head_kept(engine_with_centroids(strictness, cents), point)
        assert set(kept64) <= set(kept32)
        assert kept32 == sorted(set(kept32))

    def test_band_edges_keep_their_column(self):
        for strictness, inside, (cents, point) in edge_streams():
            eng = engine_with_centroids(strictness, np.array(cents)[:, None])
            kept64, kept32 = head_kept(eng, point)
            assert kept64 == ([0] if inside else [])
            assert set(kept64) <= set(kept32)

    def test_band_edges_agree_with_the_oracle(self, force_count_filter, screened):
        force_count_filter(True)
        for strictness, inside, points in edge_streams():
            del screened[:]
            n = len(points[0])
            state = TestAgainstNaiveReference.assert_agrees(strictness, n, points)
            assert len(state.clusters) == (1 if inside else 2)
            m = _head_rows(n, should_match_features(Config(strictness, n)))
            assert screened == ([0, 1] if m < n else [])

    @pytest.mark.parametrize("value,in_range", RANGE_VALUES, ids=repr)
    def test_screen_stops_at_the_first_point_out_of_its_range(
        self, value, in_range, force_count_filter, screened
    ):
        pruned = force_count_filter(True)
        [(strictness, n, points)] = FILTER_STREAMS["anchored-n100-s75"]()
        at = 60
        special = list(points[at])
        special[0] = value
        stream = points[:at] + [special] + points[at:120]
        eng = ClusteringEngine(Config(strictness, n))
        outcomes = []
        for p in stream:
            outcomes.append(eng.assign(p))
            if in_range or len(outcomes) <= at:
                assert_mirror_in_step(eng)
            else:
                assert eng._cents32 is None
        _, results = naive_run(strictness, n, stream)
        assert outcome_keys(outcomes) == results
        # out of range, every later point scores every cluster in full
        assert screened == list(range(len(stream) if in_range else at))
        assert any(pruned[:at])
        assert any(pruned[at:]) == in_range

    @pytest.mark.parametrize("resumed", [True, False], ids=["resumed", "in-process"])
    @pytest.mark.parametrize(
        "value,in_range",
        [(2.0**-60, True), (2.0**60, True), (math.nextafter(2.0**-60, 0.0), False), (2.0**61, False)],
        ids=repr,
    )
    def test_a_loaded_state_out_of_its_range_turns_the_filter_off(
        self, value, in_range, resumed, force_count_filter, screened
    ):
        # a point with every feature at value founds a cluster, so its head
        # sums (or centroid) sit at value; the unforced filter is off at this
        # k, so the state holds them without the screen having seen them, and
        # only the state check at the first filtered point can turn it off
        [(strictness, n, points)] = FILTER_STREAMS["anchored-n100-s75"]()
        stream = points[:40] + [[value] * n] + points[40:100]
        head = ClusteringEngine(Config(strictness, n))
        founded = [head.assign(p) for p in stream[:50]][40]
        assert head._cents32 is None and not screened
        assert founded.created_new
        assert head.state().clusters[founded.assigned_cluster_id - 1].feature_sums == (value,) * n

        pruned = force_count_filter(True)
        eng = ClusteringEngine.from_state(head.state()) if resumed else head
        tail = [eng.assign(p) for p in stream[50:]]
        _, results = naive_run(strictness, n, stream)
        assert outcome_keys(tail) == results[50:]
        assert screened == (list(range(50, len(stream))) if in_range else [])
        assert any(pruned) == in_range
        if in_range:
            assert_mirror_in_step(eng)
        else:
            assert eng._cents32 is None

    def test_a_point_out_of_range_before_the_filter_starts_does_not_stop_it(
        self, force_count_filter, screened
    ):
        # only the state's head rows meet the screen, so a value past the
        # range in a later feature of a point the filter never scored leaves
        # the state check nothing to refuse
        [(strictness, n, points)] = FILTER_STREAMS["anchored-n100-s75"]()
        stream = points[:40] + [points[40][:-1] + [2.0**61]] + points[41:100]
        eng = ClusteringEngine(Config(strictness, n))
        head = [eng.assign(p) for p in stream[:50]]
        assert eng._screens and eng._cents32 is None and not screened

        pruned = force_count_filter(True)
        tail = [eng.assign(p) for p in stream[50:]]
        _, results = naive_run(strictness, n, stream)
        assert outcome_keys(head + tail) == results
        assert screened == list(range(50, len(stream)))
        assert any(pruned)
        assert_mirror_in_step(eng)

    def test_the_mirror_stays_in_step_across_a_resume(self, screened):
        # the bench's wide shape, unforced: the filter starts at k = 182
        points = anchored_points(
            random.Random(75), 400, 100, n_anchors=250, spread=0.15, outlier_rate=0.04
        )
        config = Config(75.0, 100)
        eng = ClusteringEngine(config)
        for p in points[:300]:
            eng.assign(p)
            if screened:
                assert_mirror_in_step(eng)
        assert 0 < len(screened) < 300

        resumed = ClusteringEngine.from_state(eng.state())
        assert resumed._cents32 is None  # built by the first filtered assign
        for p in points[300:]:
            assert resumed.assign(p) == eng.assign(p)
            assert_mirror_in_step(resumed)
        assert resumed.state() == eng.state()
        # both engines screened every point after the resume
        assert screened[-200:] == sorted(list(range(300, 400)) * 2)

    def test_traced_points_past_the_switch_change_no_decision_and_no_screen(self, screened):
        # the wide shape, unforced: the filter starts at k = 182, before point
        # 300; point 320's first feature lies below the screen's range, so
        # it turns the screen off whether it is traced or not
        points = anchored_points(
            random.Random(75), 340, 100, n_anchors=250, spread=0.15, outlier_rate=0.04
        )
        points[320][0] = 1e-30
        assert points[320][0] < 2.0**-60
        head = ClusteringEngine(Config(75.0, 100))
        for p in points[:300]:
            head.assign(p)
        assert screened
        del screened[:]
        plain, traced = (ClusteringEngine.from_state(head.state()) for _ in range(2))
        for seq, p in enumerate(points[300:], start=300):
            k = traced.cluster_count
            outcome, matched, avgs = assign_profiled(traced, p)
            assert outcome == plain.assign(p)
            assert traced._screens == plain._screens == (seq < 320)
            # every cluster's profile; the winner's is the outcome's
            assert matched.size == avgs.size == k
            if not outcome.created_new:
                cid = outcome.assigned_cluster_id
                assert (outcome.matched_count, outcome.qualifying_avg) == (
                    matched[cid - 1], avgs[cid - 1]
                )
            if seq < 320:  # built at point 300 by the screen's start, then kept
                assert_mirror_in_step(traced)
            else:
                assert traced._cents32 is None
        assert traced.state() == plain.state()
        # only the unhooked engine screened, and only until point 320
        assert screened == list(range(300, 320))


def assign_strictly(strictness, n, points, state=None):
    """(engine, outcomes) of ``points`` fed to a new engine, or to one resumed
    from ``state``: once under numpy's default error state with every warning
    an error, and once with every float flag raising. The two runs must agree
    bit for bit; the first is returned."""
    runs = []
    for errstate in ({}, {"all": "raise"}):
        with warnings.catch_warnings(), np.errstate(**errstate):
            warnings.simplefilter("error")
            if state is None:
                eng = ClusteringEngine(Config(strictness, n))
            else:
                eng = ClusteringEngine.from_state(state)
            runs.append((eng, [eng.assign(p) for p in points]))
    (eng, outcomes), (again, again_outcomes) = runs
    assert again_outcomes == outcomes
    assert again.state() == eng.state()
    assert again.centroids().tobytes() == eng.centroids().tobytes()
    return eng, outcomes


def assert_oracle_agrees(strictness, n, points, eng, outcomes):
    """The oracle's outcomes of the last len(outcomes) points, and its
    memberships and centroids, bit for bit."""
    clusterer, results = naive_run(strictness, n, points)
    assert outcome_keys(outcomes) == results[len(points) - len(outcomes) :]
    assert [list(c.member_seqs) for c in eng.state().clusters] == clusterer.members
    assert eng.centroids().tolist() == clusterer.centroids()


BELOW, ABOVE = math.nextafter(2.0**-60, 0.0), math.nextafter(2.0**60, math.inf)

# (stream at s = 50 and n = 2, whether the engine is still tame after it)
QUIET_EDGES = {
    "2**-60": ([[1.0, 1.0], [2.0**-60, 1.0], [2.0**-60, 1.0], [1.0, 2.0**-60]], True),
    "2**60": ([[1.0, 1.0], [2.0**60, 1.0], [2.0**60, 1.0], [1.0, 2.0**60]], True),
    "ulp-below-2**-60": ([[1.0, 1.0], [BELOW, 1.0], [BELOW, 1.0], [1.0, BELOW]], False),
    "ulp-above-2**60": ([[1.0, 1.0], [ABOVE, 1.0], [ABOVE, 1.0], [1.0, ABOVE]], False),
    # 2**-60 against 2**60 and back: percents of about 2**-114 and 2**180
    "both-edges": ([[2.0**60, 2.0**-60], [2.0**-60, 2.0**60], [2.0**60, 2.0**60]], True),
    # C1 is [1, 0.5] after the join, so the zero's cell is 0 / 0.5
    "zero-joins": ([[1.0, 1.0], [1.0, 0.0], [1.5, 0.0]], True),
    # C2 holds a zero: 0 / 0 and 5 / 0 cells follow
    "zero-founds": ([[1.0, 1.0], [0.0, 3.0], [0.0, 3.0], [5.0, 3.0]], False),
}

# (founding points of the saved state, whether a resumed engine is tame)
LOADED_SUMS = {
    "zero-sum": ([[0.0, 1.0]], False),
    "sum-below-2**-60": ([[BELOW, 1.0]], False),
    "sum-past-count*2**60": ([[2.0**61, 1.0]], False),
    "sum-at-count*2**60": ([[2.0**60, 1.0], [2.0**60, 1.0]], True),
    "sum-at-2**-60": ([[2.0**-60, 1.0]], True),
}

# the caller's np.errstate(all="raise") once made each of these raise
ERRSTATE_REPROS = {
    "underflowing-cell": lambda: run_stream(Config(90.0, 2), [[1e10, 1.0], [1e-300, 1.0]]),
    "underflowing-join": lambda: run_stream(
        Config(50.0, 2), [[1e-310, 1.0], [2e-310, 1.0], [3e-310, 1.0]]
    ),
    "underflowing-load": lambda: ClusteringEngine.from_state(
        ClusterState(Config(50.0, 1), (Cluster(1, 3, (1e-310,), (0, 1, 2)),), 3)
    ).centroids().tobytes(),
}


class TestQuietPath:
    """A point that can raise no float flag skips np.errstate (module doc of
    engine.py); the caller's numpy error state changes no outcome."""

    @pytest.mark.parametrize("name", list(QUIET_EDGES))
    def test_range_edges_and_zeros_agree_with_the_oracle(self, name):
        points, tame = QUIET_EDGES[name]
        eng, outcomes = assign_strictly(50.0, 2, points)
        assert_oracle_agrees(50.0, 2, points, eng, outcomes)
        assert eng._tame is tame
        assert not all(o.created_new for o in outcomes)

    @pytest.mark.parametrize("name", list(LOADED_SUMS))
    def test_a_resumed_state_is_tame_only_inside_the_bounds(self, name):
        head, tame = LOADED_SUMS[name]
        native = ClusteringEngine(Config(50.0, 2))
        for p in head:
            native.assign(p)
        assert native._tame is tame
        tail = [head[0], [1.0, 1.0], [5.0, 1.0], [1.0, 2.0**-60]]
        eng, outcomes = assign_strictly(50.0, 2, tail, native.state())
        assert_oracle_agrees(50.0, 2, head + tail, eng, outcomes)
        assert ClusteringEngine.from_state(native.state())._tame is tame

    def test_a_feature_sum_overflow_still_raises_with_its_seq(self):
        points = [[1e306, 1.0]] * 180
        with pytest.raises(FeatureSumOverflow, match="seq 179") as info:
            assign_strictly(50.0, 2, points)
        assert info.value.point_seq == 179
        eng, outcomes = assign_strictly(50.0, 2, points[:179])
        assert_oracle_agrees(50.0, 2, points[:179], eng, outcomes)

    def test_only_a_point_that_can_raise_a_flag_enters_errstate(self, monkeypatch):
        entered = []
        errstate = np.errstate

        def spy(**flags):
            entered.append(flags)
            return errstate(**flags)

        monkeypatch.setattr(np, "errstate", spy)
        eng = ClusteringEngine(Config(50.0, 2))
        for p in QUIET_EDGES["both-edges"][0] + QUIET_EDGES["zero-joins"][0]:
            eng.assign(p)
        assert entered == []
        assign_profiled(eng, [1.0, 1.0])  # a traced point folds 0 / 0 averages
        assert entered == [{"all": "ignore"}]
        eng.assign([ABOVE, 1.0])  # not tame from here on
        eng.assign([1.0, 1.0])
        assert entered == [{"all": "ignore"}] * 3
        assert not eng._tame

    @pytest.mark.parametrize("name", list(ERRSTATE_REPROS))
    def test_the_callers_errstate_changes_nothing(self, name):
        with np.errstate(all="raise"):
            raised = ERRSTATE_REPROS[name]()
        assert raised == ERRSTATE_REPROS[name]()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([1.0, 2.0**-70, 2.0**-1060, 2.0**70, 1e305]),
        st.booleans(),
    )
    def test_any_generated_stream_ignores_the_callers_errstate(self, seed, length, scale, traced):
        # scaled past the quiet path's range, into subnormals, and to where
        # a feature sum can overflow; traced points fold their averages
        strictness, n, points = random_case(random.Random(seed), length)
        points = [[v * scale for v in p] for p in points]

        def run():
            eng = ClusteringEngine(Config(strictness, n))
            got = []
            try:
                for p in points:
                    got.append(assign_profiled(eng, p)[0] if traced else eng.assign(p))
            except FeatureSumOverflow as err:
                got.append((str(err), err.point_seq))
            return eng.state(), got, eng.centroids().tobytes()

        with np.errstate(all="raise"):
            raised = run()
        assert raised == run()
