"""Robustness gate for inputs: token soup through ``strictcluster run``.

Whatever the input, a run exits 0 or 1, never with a traceback; an exit of
1 writes exactly one ``strictcluster: error:`` line, its last; and a run
under ``--on-error skip`` writes the records that a halting run writes over
the lines it kept, read from its skip notes.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from strictcluster.cli import main

# enough examples to mix every token kind, few enough to keep the suite quick
GATE = settings(max_examples=100, deadline=None)

CSV_TOKENS = [
    b"0", b"1", b"2", b"2.5", b"10", b"1e1", b" 3 ", b"-0.0", b"1e308",
    b"-1", b"nan", b"inf", b"-inf", b"1e999", b"1_0", b"x", b"", b"1" + b"0" * 400,
    b"\xff", b"\xef\xbb\xbf1", b"2\r3", b"\t",
]
JSON_TOKENS = [
    b"{", b"}", b"[", b"]", b":", b",", b'"features"', b'"id"', b"1", b"2.5",
    b"-1", b"true", b"null", b"NaN", b'"x"', b"1e999", b"1" + b"0" * 400, b"\xff",
]
JSON_VALUES = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.sampled_from([0.5, 2.5, 1e308, -1, -0.0, float("nan"), float("inf"), 10**400]),
    st.booleans(),
    st.none(),
    st.sampled_from(["x", "1", ""]),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)


# two small features: lines that join and found clusters, so records follow
PAIRS = st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=2)
# a second such line joins the first, and its sum overflows: exit 1 under skip too
HUGE = [1e308, 1e308]


def csv_lines():
    soup = st.lists(st.sampled_from(CSV_TOKENS), max_size=3).map(b",".join)
    pairs = PAIRS.map(lambda pair: b"%d,%d" % tuple(pair))
    return st.one_of(soup, soup, soup, pairs, pairs, st.just(b"1e308,1e308"))


def jsonl_lines():
    objects = st.fixed_dictionaries(
        {"features": st.one_of(
            st.lists(JSON_VALUES, max_size=3), PAIRS, PAIRS, st.just(HUGE)
        )},
        optional={"id": st.one_of(st.text(max_size=2), st.integers(0, 3))},
    ).map(json_line)
    soup = st.lists(st.sampled_from(JSON_TOKENS), max_size=6).map(b"".join)
    return st.one_of(objects, objects, soup)


def json_line(obj):
    return json.dumps(obj).encode()


def soup(lines):
    """Lines joined by newlines, some ending in CR, with an optional last newline."""
    return st.tuples(
        st.lists(st.tuples(lines, st.sampled_from([b"", b"", b"\r"])), max_size=8),
        st.booleans(),
    ).map(lambda t: b"\n".join(a + b for a, b in t[0]) + (b"\n" if t[1] else b""))


def run_main(data, fmt, policy, *extra):
    """(exit code, records bytes, stderr lines) of ``run`` over ``data``."""
    with tempfile.TemporaryDirectory() as where:
        source, records = os.path.join(where, "in"), os.path.join(where, "out")
        with open(source, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([
                "run", "--strictness", "60", "--format", fmt, "--on-error", policy,
                "--input", source, "--output", records, *extra,
            ])
        with open(records, "rb") as fh:
            out = fh.read()
    return code, out, err.getvalue().splitlines()


def check_exit(code, err):
    assert code in (0, 1)
    assert not any("Traceback" in line for line in err)
    errors = [line for line in err if line.startswith("strictcluster: error:")]
    assert errors == (err[-1:] if code == 1 else [])


SKIP_NOTE = re.compile(r"strictcluster: skipped line (\d+): ")


def kept_lines(data, err):
    """``data`` without the lines that the skip notes in ``err`` name."""
    skipped = {int(m.group(1)) for m in map(SKIP_NOTE.match, err) if m}
    lines = data.split(b"\n")
    return b"\n".join(line for i, line in enumerate(lines, start=1) if i not in skipped)


@GATE
@given(st.sampled_from(["csv", "jsonl"]).flatmap(
    lambda fmt: st.tuples(st.just(fmt), soup(csv_lines() if fmt == "csv" else jsonl_lines()))
))
def test_token_soup_exits_cleanly_and_skip_equals_halt_over_kept_lines(case):
    fmt, data = case
    halted = run_main(data, fmt, "halt", "--summary")
    check_exit(halted[0], halted[2])
    assert not any(SKIP_NOTE.match(line) for line in halted[2])

    code, out, err = run_main(data, fmt, "skip", "--summary")
    check_exit(code, err)
    # a skip run differs from a halting one only by the lines it skipped
    kept = run_main(kept_lines(data, err), fmt, "halt", "--summary")
    assert (kept[0], kept[1]) == (code, out)
    if code == 0:
        assert kept[2] == []
        if halted[0] == 0:
            assert halted[1] == out  # nothing was skipped


def invalid_csv_lines():
    """A CSV line that is no point at any width: one field is no feature."""
    good = st.sampled_from([b"1", b"2.5", b"0", b"7"])
    bad = st.sampled_from([b"-1", b"nan", b"inf", b"1e999", b"x", b"", b"1_0", b"\xff"])
    return st.tuples(st.lists(good, max_size=3), bad, st.integers(0, 3)).map(
        lambda t: b",".join(t[0][: t[2]] + [t[1]] + t[0][t[2]:])
    )


def invalid_jsonl_lines():
    """A JSONL line that is no point at any width."""
    bad_value = st.sampled_from([-1, float("nan"), float("inf"), None, True, "1", [1], 10**400])
    return st.one_of(
        st.tuples(st.lists(st.integers(0, 9), max_size=3), bad_value, st.integers(0, 3)).map(
            lambda t: json_line({"features": t[0][: t[2]] + [t[1]] + t[0][t[2]:]})
        ),
        st.sampled_from([b"[1, 2]", b"{}", b'{"features": 3}', b"{", b"\xff"]),
    )


def valid_rows(fmt):
    rows = st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=2), max_size=6
    )
    if fmt == "csv":
        return rows.map(lambda rs: b"".join(b"%d,%d\n" % tuple(r) for r in rs))
    return rows.map(lambda rs: b"".join(json_line({"features": r}) + b"\n" for r in rs))


@GATE
@given(st.sampled_from(["csv", "jsonl"]).flatmap(
    lambda fmt: st.tuples(
        st.just(fmt),
        invalid_csv_lines() if fmt == "csv" else invalid_jsonl_lines(),
        valid_rows(fmt),
    )
))
def test_an_invalid_first_line_leaves_every_record_unchanged(case):
    # the first valid line, not the first line read, fixes the width
    fmt, bad, good = case
    alone = run_main(good, fmt, "skip", "--summary")
    code, out, err = run_main(bad + b"\n" + good, fmt, "skip", "--summary")
    assert (code, out) == (alone[0], alone[1]) == (0, out)
    assert len(err) <= 1  # a skip note, unless the line read as a CSV header
