"""Parsing and stream-validation tests for the CSV and JSONL readers."""

import io
import json
import subprocess

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strictcluster import (
    ClusteringError,
    Config,
    DimensionMismatch,
    NegativeFeature,
    NonFiniteFeature,
    ParseError,
    PointStream,
)
from strictcluster.cli import main
from strictcluster.engine import ClusteringEngine
from strictcluster.ingestion import _parse_csv_fields, _parse_jsonl_fields
from strictcluster.model import validate_point

from children import ENV, PYTHON

CFG2 = Config(60.0, 2)


def only_point(text, fmt, n_features):
    """The one point a PointStream reads from a one-line source."""
    (point,) = PointStream(io.BytesIO(text.encode()), fmt, n_features)
    return point


class TestCsvLine:
    def test_parses_numbers(self):
        dp = only_point("10,15.5,2e1", "csv", 3)
        assert dp.features == (10.0, 15.5, 20.0)
        assert dp.label is None

    def test_tolerates_field_whitespace(self):
        assert _parse_csv_fields(" 1 ,\t2 ") == [1.0, 2.0]

    def test_bad_number_reports_the_column(self):
        with pytest.raises(ParseError, match=r"^column 2: 'two' is not a number$"):
            _parse_csv_fields("1,two,3")

    @pytest.mark.parametrize("line,col", [("1_0,2", 1), ("2,1_000.5", 2), ("1,2e1_0", 2)])
    def test_digit_separators_are_not_numbers(self, line, col):
        # float() would read 1_0 as 10; the CSV syntax does not
        with pytest.raises(ParseError, match=f"^column {col}: .* is not a number$"):
            _parse_csv_fields(line)

    def test_wrong_arity(self):
        with pytest.raises(DimensionMismatch):
            only_point("1,2", "csv", 3)

    def test_negative_value(self):
        with pytest.raises(NegativeFeature):
            only_point("1,-2", "csv", 2)

    def test_round_trip_is_exact(self):
        dp = only_point("0.1,0.30000000000000004", "csv", 2)
        assert dp.features == (0.1, 0.30000000000000004)
        again = only_point(",".join(map(repr, dp.features)), "csv", 2)
        assert again.features == dp.features

    @given(
        st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_any_finite_vector(self, values):
        line = ",".join(repr(v) for v in values)
        assert only_point(line, "csv", len(values)).features == tuple(values)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", " ", "\t", " \t", "\x0b", "\x0c", "\xa0", "\u3000"]),
                st.one_of(
                    st.floats().map(repr),
                    st.integers(min_value=0, max_value=10**6).map(str),
                    st.sampled_from(
                        ["", "nan", "inf", "-inf", "Infinity", "1_0", "2e1_0", "1e",
                         "x", "feature_1", "id", "+.5", "1 2", "\u0663"]
                    ),
                ),
                st.sampled_from(["", " ", "\t", "\t ", "\xa0"]),
            ).map("".join),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    def test_whole_line_parse_agrees_with_per_field_parse(self, fields, trailing_comma):
        # a line without "_" is parsed in one float() pass; the values, or
        # the error and the column it names, must be those of the per-field parse
        line = ",".join(fields) + ("," if trailing_comma else "")
        outcomes = []
        for parse in (_parse_csv_fields, per_field_parse):
            try:
                outcomes.append([repr(v) for v in parse(line)])
            except ParseError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]


def per_field_parse(line):
    """CSV fields parsed one at a time: the reference for the one-pass parse."""
    values = []
    for col, field in enumerate(line.split(","), start=1):
        text = field.strip()
        try:
            if "_" in text:
                raise ValueError(text)
            values.append(float(text))
        except ValueError:
            raise ParseError(f"column {col}: {text!r} is not a number") from None
    return values


class TestJsonlLine:
    def test_parses_object_with_label(self):
        dp = only_point('{"features": [1, 2.5], "id": "a7"}', "jsonl", 2)
        assert dp.features == (1.0, 2.5)
        assert dp.label == "a7"

    def test_label_is_optional(self):
        assert only_point('{"features": [1, 2]}', "jsonl", 2).label is None

    def test_the_features_list_is_handed_on_as_read(self):
        # only the JSON shape is checked here; DataPoint judges the values
        assert _parse_jsonl_fields('{"features": [1, true, null, "x"]}') == (
            [1, True, None, "x"], None
        )

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("[1, 2]", "object"),
            ('{"points": [1, 2]}', "features"),
            ('{"features": 3}', "array"),
            # a shape error of the line, not a width of 0 for Config to refuse
            ('{"features": []}', '"features" must be a non-empty array of numbers'),
            ('{"features": [1, true]}', "feature 2 cannot be read as a float: True"),
            ('{"features": [1, "2"]}', "feature 2 cannot be read as a float: '2'"),
            ('{"features": [null, 2]}', "feature 1 cannot be read as a float: None"),
            ('{"features": [1, [2]]}', "feature 2 cannot be read as a float: [2]"),
            ('{"features": [1, {}]}', "feature 2 cannot be read as a float: {}"),
            ('{"features": [1, 2], "id": 9}', "string"),
            ('{"features": [1, 2]', "invalid JSON"),
            # the position is a character, as a CSV error's column is a field
            ('{"features": [1,', "invalid JSON at character 17: Expecting value"),
            pytest.param(
                '{"features": [1, 1' + "0" * 400 + "]}",
                "feature 2 is too large for a float",
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
            only_point(line, "jsonl", 2)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_finite_literal_is_not_finite(self, literal):
        with pytest.raises(NonFiniteFeature, match="^feature 2 is not finite: "):
            only_point(f'{{"features": [1, {literal}]}}', "jsonl", 2)

    def test_the_width_is_judged_before_the_values(self):
        with pytest.raises(DimensionMismatch, match="^expected 2 features, got 3$"):
            only_point('{"features": [1, "x", 3]}', "jsonl", 2)

    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.integers(min_value=10**308, max_value=10**400),
                st.booleans(),
                st.none(),
                st.text(max_size=3),
                st.lists(st.integers(), max_size=2),
                st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
            ),
            max_size=6,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_the_accepted_lines_and_values_are_those_of_per_value_parse(
        self, feats, width
    ):
        # DataPoint alone judges a JSONL feature: it accepts the lines that
        # the per-value type pass and validate_point together accepted, with
        # the same values, and fails with the same error class at the width
        line = json.dumps({"features": feats})
        outcomes = []
        for read in (
            lambda: only_point(line, "jsonl", width).features,
            lambda: validate_point(per_value_parse(line), width).features,
        ):
            try:
                outcomes.append([repr(v) for v in read()])
            except ClusteringError as err:
                outcomes.append(type(err) if len(feats) == width else None)
        assert outcomes[0] == outcomes[1]

    def test_validation_still_applies(self):
        with pytest.raises(DimensionMismatch):
            only_point('{"features": [1]}', "jsonl", 2)
        with pytest.raises(NegativeFeature):
            only_point('{"features": [1, -2]}', "jsonl", 2)


def per_value_parse(line):
    """JSONL features converted one at a time by the JSON type rule: the
    reference for the features a JSONL line may hold."""
    values = []
    for col, v in enumerate(json.loads(line)["features"], start=1):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f'"features"[{col}]: {v!r} is not a number')
        try:
            values.append(float(v))
        except OverflowError:
            raise ParseError(f'"features"[{col}]: integer too large for a float') from None
    return values


def collect(stream):
    return list(stream)


def engine_seqs(points, config):
    """The seqs an engine gives the points as they arrive."""
    engine = ClusteringEngine(config)
    return [engine.assign(p).point_seq for p in points]


class TestPointStream:
    def test_assigns_consecutive_seqs(self):
        stream = PointStream(io.BytesIO(b"1,2\n3,4\n5,6\n"), "csv", 2)
        points = collect(stream)
        assert engine_seqs(points, CFG2) == [0, 1, 2]
        assert points[1].features == (3.0, 4.0)

    def test_infers_the_width_from_the_first_record(self):
        stream = PointStream(io.BytesIO(b"1,2,3\n4,5,6\n"), "csv")
        assert stream.n_features is None
        points = collect(stream)
        assert stream.n_features == 3
        assert len(points) == 2

    def test_header_line_is_skipped(self):
        points = collect(PointStream(io.BytesIO(b"x,y\n1,2\n"), "csv", 2))
        assert [p.features for p in points] == [(1.0, 2.0)]

    def test_numeric_first_line_is_not_a_header(self):
        points = collect(PointStream(io.BytesIO(b"1,2\n3,4\n"), "csv", 2))
        assert len(points) == 2

    def test_digit_separated_first_field_is_not_a_number(self):
        # one definition of "number" for data and for header detection
        points = collect(PointStream(io.BytesIO(b"1_0,2\n3,4\n"), "csv", 2))
        assert [p.features for p in points] == [(3.0, 4.0)]
        stream = PointStream(io.BytesIO(b"1,2\n1_0,2\n"), "csv", 2)
        with pytest.raises(ParseError) as exc:
            collect(stream)
        assert exc.value.line_number == 2

    def test_header_detection_only_applies_to_the_first_content_line(self):
        stream = PointStream(io.BytesIO(b"1,2\nx,y\n"), "csv", 2)
        with pytest.raises(ParseError) as exc:
            collect(stream)
        assert exc.value.line_number == 2

    def test_blank_lines_are_ignored_everywhere(self):
        text = "\n\nx,y\n1,2\n\n3,4\n   \n"
        points = collect(PointStream(io.BytesIO(text.encode()), "csv", 2))
        assert [p.features for p in points] == [(1.0, 2.0), (3.0, 4.0)]

    def test_crlf_and_bytes_sources(self, tmp_path, capsys):
        data = b"1,2\r\n3,4\r\n"
        points = collect(PointStream(io.BytesIO(data), "csv", 2))
        assert [p.features for p in points] == [(1.0, 2.0), (3.0, 4.0)]
        # through --input, a CRLF file gives what the same file with LF endings does
        code, out, err = run_cli("file", data, [], tmp_path, capsys)
        assert (code, len(out.splitlines()), err) == (0, 2, "")
        assert run_cli("file", data.replace(b"\r", b""), [], tmp_path, capsys) == (
            code, out, err
        )

    def test_a_line_ends_at_newline_only_on_every_route(self, tmp_path, capsys):
        # line 1 is a header; in line 2 the lone \r is part of a field
        data = b"a\rb\n1,2\r3,4\n5,6\n"
        argv = ["--on-error", "skip"]
        from_file = run_cli("file", data, argv, tmp_path, capsys)
        from_stdin = run_cli("stdin", data, argv, tmp_path, capsys)
        assert from_file == from_stdin
        code, out, err = from_file
        assert [json.loads(line)["seq"] for line in out.splitlines()] == [0]
        assert err == "strictcluster: skipped line 2: column 2: '2\\r3' is not a number\n"
        seen = []
        stream = PointStream(io.BytesIO(data), "csv", 2, on_skip=seen.append)
        assert [p.features for p in collect(stream)] == [(5.0, 6.0)]
        assert [
            f"strictcluster: skipped line {e.line_number}: {e}\n" for e in seen
        ] == [err]

    def test_halt_raises_with_line_number(self):
        stream = PointStream(io.BytesIO(b"1,2\n1,oops\n3,4\n"), "csv", 2)
        it = iter(stream)
        assert next(it).features == (1.0, 2.0)
        with pytest.raises(ParseError) as exc:
            next(it)
        assert exc.value.line_number == 2

    def test_skip_reports_and_continues(self):
        seen = []
        stream = PointStream(
            io.BytesIO(b"1,2\n1,oops\n3,4\n5,-1\n7,8\n"),
            "csv",
            2,
            on_skip=seen.append,
        )
        points = collect(stream)
        assert engine_seqs(points, CFG2) == [0, 1, 2]  # skipped lines use no seq
        assert [p.features[0] for p in points] == [1.0, 3.0, 7.0]
        # the callback is handed each line's error itself, its line number set
        assert [type(e) for e in seen] == [ParseError, NegativeFeature]
        assert [e.line_number for e in seen] == [2, 4]
        assert str(seen[0]) == "column 2: 'oops' is not a number"

    def test_width_change_mid_stream(self):
        stream = PointStream(io.BytesIO(b"1,2\n1,2,3\n"), "csv")
        with pytest.raises(DimensionMismatch) as exc:
            collect(stream)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("csv", "-1,2,3\n1,2\n3,4\n"),
            ("csv", "1,nan,3\n1,2\n3,4\n"),
            ("jsonl", '{"features": [1, 2, null]}\n{"features": [1, 2]}\n'
                      '{"features": [3, 4]}\n'),
            ("jsonl", '{"features": []}\n{"features": [1, 2]}\n{"features": [3, 4]}\n'),
        ],
        ids=["negative", "nan", "jsonl-null", "jsonl-empty"],
    )
    def test_an_invalid_first_line_does_not_fix_the_width(self, fmt, text):
        # the first valid line fixes the width, not the first line read
        seen = []
        stream = PointStream(
            io.BytesIO(text.encode()), fmt, on_skip=seen.append
        )
        assert [p.features for p in collect(stream)] == [(1.0, 2.0), (3.0, 4.0)]
        assert stream.n_features == 2
        assert [e.line_number for e in seen] == [1]
        # under halt, the bad line ends the stream before any width is fixed
        stream = PointStream(io.BytesIO(text.encode()), fmt)
        with pytest.raises(ClusteringError) as exc:
            collect(stream)
        assert (exc.value.line_number, stream.n_features) == (1, None)

    def test_jsonl_stream_carries_labels(self):
        text = '{"features": [1, 2], "id": "a"}\n{"features": [3, 4]}\n'
        points = collect(PointStream(io.BytesIO(text.encode()), "jsonl", 2))
        assert [p.label for p in points] == ["a", None]

    def test_empty_source_yields_nothing(self):
        stream = PointStream(io.BytesIO(b""), "csv")
        assert collect(stream) == []
        assert stream.n_features is None

    def test_constructor_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PointStream(io.BytesIO(b""), "tsv", 2)
        # the width is the one setting a stream checks: a Config is no width
        for width in (0, -1, True, 2.0, "2", CFG2):
            with pytest.raises(ValueError, match="n_features must be a positive int or None"):
                PointStream(io.BytesIO(b""), "csv", width)
        with pytest.raises(TypeError):
            PointStream(io.BytesIO(b""), "csv", strictness=500.0)


# line 2 of each holds the byte 0xff, which no UTF-8 text holds
NOT_UTF8 = {
    "csv": b"1,2\n1,\xff2\n3,4\n",
    "jsonl": b'{"features": [1, 2]}\n{"features": [1, 2], "id": "\xff"}\n'
    b'{"features": [3, 4]}\n',
}


def run_cli(route, data, argv, tmp_path, capsys):
    """(exit code, stdout, stderr) of ``run --strictness 60`` reading data.

    "stdin" runs a child whose stdin decodes strictly, as under a UTF-8
    locale; "file" runs in process with --input.
    """
    argv = ["run", "--strictness", "60", *argv]
    if route == "stdin":
        proc = subprocess.run(
            [PYTHON, "-m", "strictcluster", *argv],
            input=data,
            capture_output=True,
            env={**ENV, "PYTHONIOENCODING": "utf-8:strict"},
            timeout=60,
        )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    path = tmp_path / "input"
    path.write_bytes(data)
    code = main([*argv, "--input", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


class TestEncoding:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bytes_not_utf8_halt_at_their_line(self, fmt):
        stream = PointStream(io.BytesIO(NOT_UTF8[fmt]), fmt, 2)
        with pytest.raises(ParseError, match="^not valid UTF-8$") as exc:
            collect(stream)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bytes_not_utf8_are_skipped_as_a_bad_line(self, fmt):
        seen = []
        stream = PointStream(io.BytesIO(NOT_UTF8[fmt]), fmt, 2, on_skip=seen.append)
        assert [p.features for p in collect(stream)] == [(1.0, 2.0), (3.0, 4.0)]
        assert [(e.line_number, str(e)) for e in seen] == [(2, "not valid UTF-8")]

    @pytest.mark.parametrize("policy", ["halt", "skip"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("route", ["file", "stdin"])
    def test_cli_bytes_not_utf8_are_a_bad_line(self, route, fmt, policy, tmp_path, capsys):
        code, out, err = run_cli(
            route, NOT_UTF8[fmt], ["--format", fmt, "--on-error", policy], tmp_path, capsys
        )
        seqs = [json.loads(line)["seq"] for line in out.splitlines()]
        if policy == "halt":
            assert (code, seqs) == (1, [0])
            assert err == "strictcluster: error: line 2: not valid UTF-8\n"
        else:
            assert (code, seqs) == (0, [0, 1])
            assert err == "strictcluster: skipped line 2: not valid UTF-8\n"

    @pytest.mark.parametrize("route", ["file", "stdin"])
    def test_cli_drops_a_byte_order_mark(self, route, tmp_path, capsys):
        code, out, err = run_cli(
            route, b"\xef\xbb\xbf3,4\n3,4\n", ["--summary"], tmp_path, capsys
        )
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[-1])["points_seen"] == 2

    def test_a_first_line_not_utf8_is_not_taken_as_a_header(self):
        stream = PointStream(io.BytesIO(b"\xff,y\n1,2\n"), "csv", 2)
        with pytest.raises(ParseError, match="^not valid UTF-8$") as exc:
            collect(stream)
        assert exc.value.line_number == 1
        # it is the first content line, so the line after it is no header either
        seen = []
        stream = PointStream(
            io.BytesIO(b"\xff,y\nx,y\n1,2\n"), "csv", 2, on_skip=seen.append
        )
        assert [p.features for p in collect(stream)] == [(1.0, 2.0)]
        assert [(e.line_number, str(e)) for e in seen] == [
            (1, "not valid UTF-8"), (2, "column 1: 'x' is not a number")
        ]

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("csv", "\ufeff3,4\n3,4\n"),
            ("csv", "\ufeffx,y\n3,4\n3,4\n"),
            ("jsonl", '\ufeff{"features": [3, 4]}\n{"features": [3, 4]}\n'),
        ],
        ids=["csv-bytes", "csv-header-bytes", "jsonl-bytes"],
    )
    def test_one_byte_order_mark_at_the_start_is_dropped(self, fmt, text):
        points = collect(PointStream(io.BytesIO(text.encode()), fmt, 2))
        assert [p.features for p in points] == [(3.0, 4.0), (3.0, 4.0)]

    @pytest.mark.parametrize(
        "fmt,text,bad_line",
        [
            ("csv", "3,4\n\ufeff3,4\n", 2),
            ("csv", "3,4\n3,\ufeff4\n", 2),
            ("jsonl", '{"features": [3, 4]}\n\ufeff{"features": [3, 4]}\n', 2),
            ("jsonl", '\ufeff\ufeff{"features": [3, 4]}\n{"features": [3, 4]}\n', 1),
        ],
    )
    def test_a_byte_order_mark_elsewhere_is_a_parse_error(self, fmt, text, bad_line):
        stream = PointStream(io.BytesIO(text.encode()), fmt, 2)
        with pytest.raises(ParseError) as exc:
            collect(stream)
        assert exc.value.line_number == bad_line
