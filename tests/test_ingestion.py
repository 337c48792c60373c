"""Parsing and stream-validation tests for the CSV and JSONL readers."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strictcluster import (
    Config,
    DimensionMismatch,
    NegativeFeature,
    ParseError,
    PointStream,
    parse_csv_line,
    parse_jsonl_line,
    stream_points,
    to_csv_line,
)

CFG2 = Config(60.0, 2)
CFG3 = Config(60.0, 3)


class TestCsvLine:
    def test_parses_numbers(self):
        dp = parse_csv_line("10,15.5,2e1", CFG3, seq=4)
        assert dp.features == (10.0, 15.5, 20.0)
        assert dp.seq == 4
        assert dp.label is None

    def test_tolerates_field_whitespace(self):
        assert parse_csv_line(" 1 ,\t2 ", CFG2).features == (1.0, 2.0)

    def test_bad_number_reports_the_column(self):
        with pytest.raises(ParseError) as exc:
            parse_csv_line("1,two,3", CFG3)
        assert exc.value.column == 2
        assert "'two'" in str(exc.value)

    @pytest.mark.parametrize("line,col", [("1_0,2", 1), ("2,1_000.5", 2), ("1,2e1_0", 2)])
    def test_digit_separators_are_not_numbers(self, line, col):
        # float() would read 1_0 as 10; the CSV syntax does not
        with pytest.raises(ParseError) as exc:
            parse_csv_line(line, CFG2)
        assert exc.value.column == col
        assert "not a number" in str(exc.value)

    def test_wrong_arity(self):
        with pytest.raises(DimensionMismatch):
            parse_csv_line("1,2", CFG3)

    def test_negative_value(self):
        with pytest.raises(NegativeFeature):
            parse_csv_line("1,-2", CFG2)

    def test_round_trip_is_exact(self):
        dp = parse_csv_line("0.1,0.30000000000000004", CFG2)
        again = parse_csv_line(to_csv_line(dp), CFG2)
        assert again.features == dp.features

    @given(
        st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_any_finite_vector(self, values):
        cfg = Config(60.0, len(values))
        line = ",".join(repr(v) for v in values)
        dp = parse_csv_line(line, cfg)
        assert dp.features == tuple(values)
        assert parse_csv_line(to_csv_line(dp), cfg).features == dp.features


class TestJsonlLine:
    def test_parses_object_with_label(self):
        dp = parse_jsonl_line('{"features": [1, 2.5], "id": "a7"}', CFG2, seq=3)
        assert dp.features == (1.0, 2.5)
        assert dp.label == "a7"
        assert dp.seq == 3

    def test_label_is_optional(self):
        assert parse_jsonl_line('{"features": [1, 2]}', CFG2).label is None

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("[1, 2]", "object"),
            ('{"points": [1, 2]}', "features"),
            ('{"features": 3}', "array"),
            ('{"features": [1, true]}', "not a number"),
            ('{"features": [1, "2"]}', "not a number"),
            ('{"features": [1, 2], "id": 9}', "string"),
            ('{"features": [1, 2]', "invalid JSON"),
            pytest.param(
                '{"features": [1, 1' + "0" * 400 + "]}",
                '"features"[2]: integer too large for a float',
                id="401-digit-integer",
            ),
            pytest.param(
                '{"features": [1, 1' + "0" * 5000 + "]}",
                "integer literal too long",
                id="5001-digit-integer",
            ),
            pytest.param(
                '{"features": ' + "[" * 100_000 + "]}", "nested too deeply", id="deep-nesting"
            ),
        ],
    )
    def test_malformed_objects(self, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_jsonl_line(line, CFG2)
        assert fragment in str(exc.value)

    def test_validation_still_applies(self):
        with pytest.raises(DimensionMismatch):
            parse_jsonl_line('{"features": [1]}', CFG2)
        with pytest.raises(NegativeFeature):
            parse_jsonl_line('{"features": [1, -2]}', CFG2)


def collect(stream):
    return list(stream)


class TestPointStream:
    def test_assigns_consecutive_seqs(self):
        stream = PointStream(io.StringIO("1,2\n3,4\n5,6\n"), "csv", CFG2)
        points = collect(stream)
        assert [p.seq for p in points] == [0, 1, 2]
        assert points[1].features == (3.0, 4.0)

    def test_infers_config_from_first_record(self):
        stream = PointStream(io.StringIO("1,2,3\n4,5,6\n"), "csv", strictness=75.0)
        assert stream.config is None
        points = collect(stream)
        assert stream.config == Config(75.0, 3)
        assert len(points) == 2

    def test_header_line_is_skipped(self):
        points = collect(PointStream(io.StringIO("x,y\n1,2\n"), "csv", CFG2))
        assert [p.features for p in points] == [(1.0, 2.0)]

    def test_numeric_first_line_is_not_a_header(self):
        points = collect(PointStream(io.StringIO("1,2\n3,4\n"), "csv", CFG2))
        assert len(points) == 2

    def test_digit_separated_first_field_is_not_a_number(self):
        # one definition of "number" for data and for header detection
        points = collect(PointStream(io.StringIO("1_0,2\n3,4\n"), "csv", CFG2))
        assert [p.features for p in points] == [(3.0, 4.0)]
        stream = PointStream(io.StringIO("1,2\n1_0,2\n"), "csv", CFG2)
        with pytest.raises(ParseError) as exc:
            collect(stream)
        assert exc.value.line_number == 2

    def test_header_detection_only_applies_to_the_first_content_line(self):
        stream = PointStream(io.StringIO("1,2\nx,y\n"), "csv", CFG2)
        with pytest.raises(ParseError) as exc:
            collect(stream)
        assert exc.value.line_number == 2

    def test_blank_lines_are_ignored_everywhere(self):
        text = "\n\nx,y\n1,2\n\n3,4\n   \n"
        points = collect(PointStream(io.StringIO(text), "csv", CFG2))
        assert [p.seq for p in points] == [0, 1]

    def test_crlf_and_bytes_sources(self):
        data = b"1,2\r\n3,4\r\n"
        points = collect(PointStream(io.BytesIO(data), "csv", CFG2))
        assert [p.features for p in points] == [(1.0, 2.0), (3.0, 4.0)]

    def test_halt_raises_with_line_number(self):
        stream = PointStream(io.StringIO("1,2\n1,oops\n3,4\n"), "csv", CFG2)
        it = iter(stream)
        assert next(it).seq == 0
        with pytest.raises(ParseError) as exc:
            next(it)
        assert exc.value.line_number == 2

    def test_skip_reports_and_continues(self):
        seen = []
        stream = PointStream(
            io.StringIO("1,2\n1,oops\n3,4\n5,-1\n7,8\n"),
            "csv",
            CFG2,
            on_error="skip",
            on_skip=seen.append,
        )
        points = collect(stream)
        assert [p.seq for p in points] == [0, 1, 2]  # skipped lines use no seq
        assert [p.features[0] for p in points] == [1.0, 3.0, 7.0]
        assert [s.line_number for s in seen] == [2, 4]
        assert str(seen[0]).startswith("line 2: ")

    def test_width_change_mid_stream(self):
        stream = PointStream(io.StringIO("1,2\n1,2,3\n"), "csv", strictness=60.0)
        with pytest.raises(DimensionMismatch) as exc:
            collect(stream)
        assert exc.value.line_number == 2

    def test_start_seq_offsets_numbering(self):
        points = collect(PointStream(io.StringIO("1,2\n3,4\n"), "csv", CFG2, start_seq=6))
        assert [p.seq for p in points] == [6, 7]

    def test_jsonl_stream_carries_labels(self):
        text = '{"features": [1, 2], "id": "a"}\n{"features": [3, 4]}\n'
        points = collect(PointStream(io.StringIO(text), "jsonl", CFG2))
        assert [p.label for p in points] == ["a", None]

    def test_empty_source_yields_nothing(self):
        stream = PointStream(io.StringIO(""), "csv", strictness=60.0)
        assert collect(stream) == []
        assert stream.config is None

    def test_constructor_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PointStream(io.StringIO(""), "tsv", CFG2)
        with pytest.raises(ValueError):
            PointStream(io.StringIO(""), "csv", CFG2, on_error="ignore")
        with pytest.raises(ValueError):
            PointStream(io.StringIO(""), "csv")  # neither config nor strictness

    def test_stream_points_wrapper(self):
        points = list(stream_points(io.StringIO("1,2\n"), "csv", CFG2))
        assert [p.features for p in points] == [(1.0, 2.0)]
