"""Unit tests for the domain types and the state auditor."""

import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strictcluster import (
    BadDimensionality,
    Cluster,
    ClusteringEngine,
    ClusterState,
    Config,
    DataPoint,
    DimensionMismatch,
    InvariantViolation,
    NegativeFeature,
    NonFiniteFeature,
    ParseError,
    StrictnessOutOfRange,
    run_stream,
    validate_point,
    verify_state,
)

from golden import GOLDEN_ILL_TYPED, GOLDEN_N_FEATURES, GOLDEN_POINTS, GOLDEN_STRICTNESS

GOOD = Config(60.0, 10)


class TestConfig:
    def test_accepts_range_and_coerces_to_float(self):
        cfg = Config(60, 3)
        assert cfg.strictness == 60.0
        assert isinstance(cfg.strictness, float)
        assert Config(0.5, 1).strictness == 0.5
        assert Config(100.0, 2).strictness == 100.0

    @pytest.mark.parametrize(
        "bad",
        [0.0, -1.0, 100.000001, 150, float("nan"), float("inf"), "60", None, True,
         pytest.param(10**400, id="10**400"), pytest.param(10**5000, id="10**5000")],
    )
    def test_rejects_bad_strictness(self, bad):
        with pytest.raises(StrictnessOutOfRange):
            Config(bad, 3)

    @pytest.mark.parametrize(
        "bad", [0, -1, 2.5, True, None, "3", pytest.param(-(10**5000), id="-10**5000"),
                sys.maxsize // 8 + 1, pytest.param(10**400, id="10**400")]
    )
    def test_rejects_bad_width(self, bad):
        with pytest.raises(BadDimensionality):
            Config(60.0, bad)

    def test_the_widest_config_makes_an_engine(self):
        # numpy cannot shape a float64 row one feature wider, not even an empty one
        eng = ClusteringEngine(Config(60.0, sys.maxsize // 8))
        assert eng.centroids().shape == (0, sys.maxsize // 8)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GOOD.strictness = 50.0


class TestValidatePoint:
    def test_coerces_to_float_tuple(self):
        dp = validate_point([1, 2.5, 3], 3, label="a")
        assert dp.features == (1.0, 2.5, 3.0)
        assert isinstance(dp.features, tuple)
        assert dp.label == "a"

    def test_zero_and_negative_zero_are_fine(self):
        dp = validate_point([0.0, -0.0], 2)
        assert dp.features == (0.0, 0.0)

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_point([1.0, 2.0], 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteFeature):
            validate_point([1.0, bad], 2)

    def test_negative(self):
        with pytest.raises(NegativeFeature) as exc:
            validate_point([1.0, -0.25], 2)
        assert "feature 2" in str(exc.value)

    @given(
        st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_accepts_any_finite_nonnegative_vector(self, values):
        dp = validate_point(values, len(values))
        assert dp.features == tuple(values)

    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from(
                    [-0.0, 0.0, 1e308, 1.7e308, -1e-300, math.nan, math.inf, -math.inf]
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),
    )
    def test_agrees_with_a_per_value_check(self, values, wrong_width):
        # the accept-at-once route (finite sum, nonnegative min) must give the
        # same point, or the same error for the same first bad feature
        width = len(values) + wrong_width
        outcomes = []
        for validate in (validate_point, per_value_validate_point):
            try:
                dp = validate(values, width, label="x")
                outcomes.append((dp.label, [repr(v) for v in dp.features]))
            except (DimensionMismatch, NonFiniteFeature, NegativeFeature) as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1]

    def test_finite_vector_whose_sum_overflows_is_valid(self):
        dp = validate_point([1e308, 1e308], 2)
        assert dp.features == (1e308, 1e308)


class TestDataPoint:
    @pytest.mark.parametrize(
        "features,error,message",
        [((-1.0, 5.0), NegativeFeature, "feature 1 is negative: -1.0"),
         ((math.nan, 5.0), NonFiniteFeature, "feature 1 is not finite: nan"),
         ((5.0, -math.inf), NonFiniteFeature, "feature 2 is not finite: -inf"),
         ((5.0, -2.0, math.nan), NegativeFeature, "feature 2 is negative: -2.0"),
         ((1.0, "x"), ParseError, "feature 2 cannot be read as a float: 'x'"),
         ((None, 1.0), ParseError, "feature 1 cannot be read as a float: None"),
         # an integer no float holds is not echoed, however many digits it has
         ((1.0, 2.0, 10**400), ParseError, "feature 3 is too large for a float"),
         ((1.0, 2.0, 10**5000), ParseError, "feature 3 is too large for a float"),
         # float() reads these, but the CLI's parsers refuse them
         (("1.5", 2.0), ParseError, "feature 1 cannot be read as a float: '1.5'"),
         ((1.0, True), ParseError, "feature 2 cannot be read as a float: True"),
         ((1.0, 2.0, " 2 "), ParseError, "feature 3 cannot be read as a float: ' 2 '"),
         ((1.0, 2.0, 3.0, "1_0"), ParseError, "feature 4 cannot be read as a float: '1_0'"),
         ((False,), ParseError, "feature 1 cannot be read as a float: False"),
         ((1.0, b"2"), ParseError, "feature 2 cannot be read as a float: b'2'"),
         ((1.0, bytearray(b"2")), ParseError,
          "feature 2 cannot be read as a float: bytearray(b'2')"),
         # a numpy bool is no bool subclass, but is refused as one
         ((np.bool_(True), 2.0), ParseError,
          f"feature 1 cannot be read as a float: {np.bool_(True)!r}"),
         (np.array([2.0, 0.0]) > 1.0, ParseError,
          f"feature 1 cannot be read as a float: {np.bool_(True)!r}"),
         # no iterable of features at all
         (5, ParseError, "features must be an iterable of numbers, got 5"),
         (None, ParseError, "features must be an iterable of numbers, got None")],
    )
    def test_an_invalid_point_cannot_be_built(self, features, error, message):
        # refused here, or the engine would take it into a sum that no snapshot loads
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DataPoint(features)

    def test_an_iterator_that_is_no_float_is_a_parse_error(self):
        # the iterator is read once, into the tuple that is checked
        with pytest.raises(ParseError, match=r"^feature 2 cannot be read as a float: 'x'$"):
            DataPoint(iter([1.0, "x"]))

    def test_features_are_stored_as_a_float_tuple(self):
        dp = DataPoint([1, 2.5, 3], label="a")
        assert dp.features == (1.0, 2.5, 3.0)
        assert all(type(v) is float for v in dp.features)
        # numbers of other types are converted; an all-float vector is kept
        assert DataPoint([np.float64(2.5), Fraction(1, 4)]).features == (2.5, 0.25)
        assert DataPoint(iter([1.5, 2.0])).features == (1.5, 2.0)


def per_value_validate_point(features, n_features, label=None):
    """validate_point checking one value at a time: the reference."""
    vals = tuple(float(v) for v in features)
    if len(vals) != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got {len(vals)}")
    for j, v in enumerate(vals):
        if not math.isfinite(v):
            raise NonFiniteFeature(f"feature {j + 1} is not finite: {v!r}")
        if v < 0.0:
            raise NegativeFeature(f"feature {j + 1} is negative: {v!r}")
    return DataPoint(features=vals, label=label)


class TestCluster:
    def test_frozen(self):
        c = Cluster(id=1, member_count=1, feature_sums=(1.0,), member_seqs=(0,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.member_count = 2


def make_state(**overrides):
    """A small hand-built valid state; overrides poke holes in it."""
    fields = dict(
        config=Config(60.0, 2),
        clusters=(
            Cluster(id=1, member_count=2, feature_sums=(3.0, 7.0), member_seqs=(0, 2)),
            Cluster(id=2, member_count=1, feature_sums=(9.0, 1.0), member_seqs=(1,)),
        ),
        points_seen=3,
    )
    fields.update(overrides)
    return ClusterState(**fields)


class TestVerifyState:
    def test_valid_state_passes(self):
        verify_state(make_state())

    def test_empty_state_passes(self):
        verify_state(ClusterState(config=Config(60.0, 2), clusters=(), points_seen=0))

    def test_ids_must_be_contiguous_from_one(self):
        state = make_state()
        swapped = (
            dataclasses.replace(state.clusters[0], id=2),
            dataclasses.replace(state.clusters[1], id=1),
        )
        with pytest.raises(InvariantViolation, match="contiguous"):
            verify_state(make_state(clusters=swapped))

    def test_member_count_positive(self):
        bad = dataclasses.replace(make_state().clusters[1], member_count=0, member_seqs=())
        with pytest.raises(InvariantViolation, match="no members"):
            verify_state(make_state(clusters=(make_state().clusters[0], bad), points_seen=2))

    def test_member_count_matches_seqs(self):
        bad = dataclasses.replace(make_state().clusters[1], member_count=2)
        with pytest.raises(InvariantViolation, match="recorded members"):
            verify_state(make_state(clusters=(make_state().clusters[0], bad)))

    def test_sums_width(self):
        bad = dataclasses.replace(make_state().clusters[1], feature_sums=(9.0,))
        with pytest.raises(InvariantViolation, match="width"):
            verify_state(make_state(clusters=(make_state().clusters[0], bad)))

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_sums_finite_nonnegative(self, value):
        bad = dataclasses.replace(make_state().clusters[1], feature_sums=(9.0, value))
        with pytest.raises(InvariantViolation, match="finite nonnegative"):
            verify_state(make_state(clusters=(make_state().clusters[0], bad)))

    def test_no_duplicate_membership(self):
        bad = dataclasses.replace(make_state().clusters[1], member_seqs=(0,))
        with pytest.raises(InvariantViolation, match="more than one cluster"):
            verify_state(make_state(clusters=(make_state().clusters[0], bad)))

    def test_counts_sum_to_points_seen(self):
        with pytest.raises(InvariantViolation, match="points_seen"):
            verify_state(make_state(points_seen=5))

    def test_seqs_partition_the_stream(self):
        shifted = dataclasses.replace(make_state().clusters[1], member_seqs=(3,))
        with pytest.raises(InvariantViolation, match="partition"):
            verify_state(make_state(clusters=(make_state().clusters[0], shifted)))

    @pytest.mark.parametrize(
        "path,value",
        [
            *(pytest.param(*field, id=name) for name, field in GOLDEN_ILL_TYPED.items()),
            pytest.param(("clusters", 0, "member_count"), 2.0, id="member_count-2.0"),
        ],
    )
    def test_ill_typed_fields_are_rejected(self, path, value):
        # the values that a snapshot load refuses, set on the state directly
        state, _ = run_stream(Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES), GOLDEN_POINTS)
        verify_state(state)
        if path == ("points_seen",):
            state = dataclasses.replace(state, points_seen=value)
        else:
            _, i, field, *j = path
            clusters = list(state.clusters)
            if j:  # one entry of a tuple field
                entries = list(getattr(clusters[i], field))
                entries[j[0]] = value
                value = tuple(entries)
            clusters[i] = dataclasses.replace(clusters[i], **{field: value})
            state = dataclasses.replace(state, clusters=tuple(clusters))
        with pytest.raises(InvariantViolation):
            verify_state(state)

    def test_replay_accepts_matching_stream(self):
        points = [[1.0, 3.0], [9.0, 1.0], [2.0, 4.0]]
        verify_state(make_state(), points)

    def test_replay_with_too_few_points_is_a_violation(self):
        with pytest.raises(InvariantViolation, match="^replay needs 3 points, 2 were given$"):
            verify_state(make_state(), [[1.0, 3.0], [9.0, 1.0]])

    def test_replay_with_a_narrow_point_is_a_violation(self):
        with pytest.raises(
            InvariantViolation, match="^point seq 2 has 1 features, expected 2$"
        ):
            verify_state(make_state(), [[1.0, 3.0], [9.0, 1.0], [2.0]])

    @pytest.mark.parametrize(
        "points,seq",
        [([["x", 2.0]], 0), ([5], 0), ([[1.0, 3.0], [10**400, 1.0]], 1), (5, 0)],
        ids=["str", "no-sequence", "too-large", "no-iterable"],
    )
    def test_replay_of_a_point_that_float_cannot_read_is_a_violation(self, points, seq):
        with pytest.raises(
            InvariantViolation, match=f"^point seq {seq} cannot be read as floats$"
        ):
            verify_state(make_state(), points)

    def test_replay_rejects_drifted_sums(self):
        points = [[1.0, 3.0], [9.0, 1.0], [2.0, 4.0]]
        drifted = dataclasses.replace(
            make_state().clusters[0], feature_sums=(3.0 + 1e-3, 7.0)
        )
        with pytest.raises(InvariantViolation, match="replay"):
            verify_state(make_state(clusters=(drifted, make_state().clusters[1])), points)

    def test_replay_rejects_a_one_ulp_nudge(self):
        points = [[1.0, 3.0], [9.0, 1.0], [2.0, 4.0]]
        for nudge in (math.nextafter(3.0, math.inf), math.nextafter(3.0, 0.0)):
            nudged = dataclasses.replace(
                make_state().clusters[0], feature_sums=(nudge, 7.0)
            )
            with pytest.raises(InvariantViolation, match="replay"):
                verify_state(
                    make_state(clusters=(nudged, make_state().clusters[1])), points
                )


class TestOutcomeTypes:
    def test_datapoint_is_frozen(self):
        dp = DataPoint(features=(1.0,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dp.features = (2.0,)

    def test_nan_strictness_rejected_via_comparison(self):
        # NaN fails both range comparisons rather than slipping through
        assert not (0.0 < math.nan <= 100.0)
        with pytest.raises(StrictnessOutOfRange):
            Config(math.nan, 1)
