"""Robustness gate: token soup through ``strictcluster run``, and snapshot
payloads near the real shape through ``inspect`` and ``resume``.

Whatever the input, a command exits 0 or 1, never with a traceback; an exit
of 1 writes exactly one ``strictcluster: error:`` line, its last. A run
under ``--on-error skip`` writes the records, trace tables and snapshot that
a halting run writes over the lines it kept, read from its skip notes. Every
snapshot a run writes loads in ``inspect``, and resuming it over no input
writes it again byte for byte. A checksummed payload loads in both commands
or in neither, and what loads passes ``verify_state``.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from strictcluster import load_snapshot, verify_state
from strictcluster.cli import main

from reference import checksummed

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


def cli(*args):
    """(exit code, stdout, stderr lines) of ``strictcluster *args``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue().splitlines()


def run_main(data, fmt, policy, *extra, snapshot=False):
    """(exit code, records bytes, stderr lines, snapshot) of ``run`` over
    ``data``; with ``snapshot``, the run is given --snapshot-out, and the
    snapshot is the bytes it wrote, checked by check_snapshot, or None."""
    with tempfile.TemporaryDirectory() as where:
        source, records, snap = (os.path.join(where, name) for name in ("in", "out", "snap"))
        with open(source, "wb") as fh:
            fh.write(data)
        code, _, err = cli(
            "run", "--strictness", "60", "--format", fmt, "--on-error", policy,
            "--input", source, "--output", records, *extra,
            *(("--snapshot-out", snap) if snapshot else ()),
        )
        with open(records, "rb") as fh:
            out = fh.read()
        saved = None
        if os.path.exists(snap):
            with open(snap, "rb") as fh:
                saved = fh.read()
            check_snapshot(snap, saved)
    return code, out, err, saved


def check_snapshot(snap, saved):
    """The snapshot at ``snap`` loads in inspect, and a resume of it over no
    input writes ``saved`` again."""
    code, _, err = cli("inspect", "--snapshot-in", snap)
    assert (code, err) == (0, [])
    again = snap + ".again"
    code, _, err = cli(
        "resume", "--snapshot-in", snap, "--input", os.devnull, "--output", os.devnull,
        "--snapshot-out", again,
    )
    assert (code, err) == (0, [])
    with open(again, "rb") as fh:
        assert fh.read() == saved


def check_exit(code, err):
    assert code in (0, 1)
    assert not any("Traceback" in line for line in err)
    errors = [line for line in err if line.startswith("strictcluster: error:")]
    assert errors == (err[-1:] if code == 1 else [])


SKIP_NOTE = re.compile(r"strictcluster: skipped line (\d+): ")
NO_SNAPSHOT = "strictcluster: no snapshot written: empty input leaves the feature width unknown"


def traces(err):
    return [line for line in err if line.startswith("[trace]")]


def untraced(err):
    return [line for line in err if not line.startswith("[trace]")]


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
    flags = ("--summary", "--trace")
    halted = run_main(data, fmt, "halt", *flags, snapshot=True)
    check_exit(halted[0], halted[2])
    assert not any(SKIP_NOTE.match(line) for line in halted[2])

    code, out, err, saved = run_main(data, fmt, "skip", *flags, snapshot=True)
    check_exit(code, err)
    assert (saved is not None) <= (code == 0)  # a failed run saves nothing
    # a skip run differs from a halting one only by the lines it skipped
    kept = run_main(kept_lines(data, err), fmt, "halt", *flags, snapshot=True)
    assert (kept[0], kept[1], traces(kept[2]), kept[3]) == (code, out, traces(err), saved)
    if code == 0:
        assert untraced(kept[2]) == ([] if saved is not None else [NO_SNAPSHOT])
        if halted[0] == 0:
            assert (halted[1], halted[3]) == (out, saved)  # nothing was skipped


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
    code, out, err, _ = run_main(bad + b"\n" + good, fmt, "skip", "--summary")
    assert (code, out) == (alone[0], alone[1]) == (0, out)
    assert len(err) <= 1  # a skip note, unless the line read as a CSV header


# A valid payload (two clusters at n=2, three points seen), and the places
# where the payload test puts its values: fields, and entries of lists.
PAYLOAD = {
    "config": {"strictness": 60.0, "n_features": 2},
    "points_seen": 3,
    "clusters": [
        {"id": 1, "member_count": 2, "feature_sums": [3.0, 7.0], "member_seqs": [0, 2]},
        {"id": 2, "member_count": 1, "feature_sums": [9.0, 1.0], "member_seqs": [1]},
    ],
}
PAYLOAD_PATHS = [
    (), ("config",), ("config", "strictness"), ("config", "n_features"), ("points_seen",),
    ("clusters",), ("clusters", 0), ("clusters", 2),
    *((("clusters", i, field) for i in (0, 1)
       for field in ("id", "member_count", "feature_sums", "member_seqs"))),
    ("clusters", 0, "feature_sums", 1), ("clusters", 1, "feature_sums", 2),
    ("clusters", 0, "member_seqs", 1), ("clusters", 1, "member_seqs", 0),
]
DELETE = object()  # takes the key or entry out
PAYLOAD_VALUES = [
    DELETE, None, True, False, 0, 1, 2, 3, -1, 1.0, 2.0, 2.5, -0.0, 9.0, 1e308, 10**12,
    10**400, math.nan, math.inf, "1", "x", [], [1], [0, 2], [1.0], [3.0, 7.0], [9.0, 1.0],
    [3.0, 7.0, 1.0], [3, 7], [True, 1.0], [[3.0, 7.0]], [[1.0, 2.0], [3.0, 4.0]], {},
    {"id": 1}, {"id": 3, "member_count": 1, "feature_sums": [1.0, 1.0], "member_seqs": [3]},
]


def poked(pokes):
    """PAYLOAD with each (path, value) of ``pokes`` put in where the path
    still leads: the value replaces what is there, or a list gains it at its
    end, or DELETE takes the key or entry out."""
    doc = copy.deepcopy(PAYLOAD)
    for path, value in pokes:
        if not path:
            doc = None if value is DELETE else copy.deepcopy(value)
            continue
        *parents, last = path
        node = doc
        try:
            for key in parents:
                node = node[key]
            if value is DELETE:
                del node[last]
            elif isinstance(node, dict):
                node[last] = copy.deepcopy(value)
            elif isinstance(node, list):
                node[last:last + 1] = [copy.deepcopy(value)]
        except (KeyError, IndexError, TypeError):
            pass  # the path leads nowhere in this payload
    return doc


def write_snapshot(path, doc):
    """A snapshot file of the payload ``doc`` under a valid checksum."""
    with open(path, "wb") as fh:
        fh.write(checksummed(json.dumps(doc, separators=(",", ":"))).encode())


@GATE
@given(st.lists(
    st.tuples(st.sampled_from(PAYLOAD_PATHS), st.sampled_from(PAYLOAD_VALUES)), max_size=3
))
# no clusters at a width no array can take: a traceback until Config refused it
@example([(("config", "n_features"), 10**400), (("clusters",), []), (("points_seen",), 0)])
@example([])
def test_a_checksummed_payload_loads_in_both_commands_or_in_neither(pokes):
    with tempfile.TemporaryDirectory() as where:
        snap, again = os.path.join(where, "in.snap"), os.path.join(where, "again.snap")
        write_snapshot(snap, poked(pokes))
        shown = cli("inspect", "--snapshot-in", snap)
        resumed = cli(
            "resume", "--snapshot-in", snap, "--input", os.devnull, "--output", os.devnull,
            "--summary", "--snapshot-out", again,
        )
        for code, _, err in (shown, resumed):
            check_exit(code, err)
        assert shown[0] == resumed[0]
        if shown[0] == 0:
            state = load_snapshot(snap)
            verify_state(state)
            assert shown[1].splitlines()[2] == f"points seen: {state.points_seen}"
            assert load_snapshot(again) == state
        else:
            assert shown[2] == resumed[2]  # the same one line
            assert not os.path.exists(again)
