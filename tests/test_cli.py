"""End-to-end CLI tests: run, resume, inspect, exit codes, output shape."""

import gc
import io
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strictcluster import (
    AssignmentOutcome,
    Cluster,
    ClusteringEngine,
    ClusterState,
    Config,
    DataPoint,
    DecisionPath,
    run_stream,
    save_snapshot,
)
from strictcluster import cli
from strictcluster import engine as engine_module
from strictcluster.__main__ import process_main
from strictcluster.cli import (
    TRACE_LIMIT,
    _assignment_record,
    _exact,
    _fmt2,
    _fmt2_array,
    _write_summary,
    main,
)

from children import ENV, PYTHON
from generators import anchored_points, throughput_points
from golden import GOLDEN_CSV, GOLDEN_N_FEATURES, GOLDEN_POINTS, GOLDEN_STRICTNESS
from reference import (
    assign_profiled,
    naive_centroid,
    naive_profile,
    naive_should_match,
    naive_similarity,
    profile_pairs,
)

EXPECTED_CIDS = [1, 2, 1, 3, 3, 2]
EXPECTED_CREATED = [True, True, False, True, False, False]

C2_ROW = "C2: size 2  centroid 9.5 33.5 19 45 11 43.5 50 48 9.5 22.5"

# 100 * v reaches 2**40 here; _fmt2_array takes its fast path only below it
FAST_CAP = 2.0**40 / 100

any_float = st.one_of(
    st.floats(),
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    ),
    st.floats(min_value=FAST_CAP),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, float("inf"), float("-inf"),
                     FAST_CAP, float(np.nextafter(FAST_CAP, 0.0)), 1.1e10, 1e16, 1e306]),
)


def records_of(text):
    return [json.loads(line) for line in text.splitlines() if line]


def resumed_engine(case):
    """An engine built by from_state and fed the rest of its stream, so its
    centroids come from the load, a create or a join: "resume", the golden
    stream split after three points; "negative-zero", a stream whose first
    cluster keeps a -0.0 feature sum through the load and a join, and whose
    last is created after the load with one."""
    if case == "resume":
        config, points, split = Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES), GOLDEN_POINTS, 3
    else:
        config, split = Config(60.0, 2), 2
        points = [(-0.0, 1.0), (-0.0, 1.1), (3.0, -0.0), (3.0, 0.0), (-0.0, 1.2), (7.0, -0.0)]
    head = ClusteringEngine(config)
    for p in points[:split]:
        head.assign(p)
    eng = ClusteringEngine.from_state(head.state())
    for p in points[split:]:
        eng.assign(p)
    return eng


class TestRun:
    def test_golden_stream_records_and_summary(self, golden_csv, capsys):
        code = main(["run", "--strictness", "60", "--input", str(golden_csv), "--summary"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        recs = records_of(out)
        assignments = [r for r in recs if r["kind"] == "assignment"]
        assert [r["cluster_id"] for r in assignments] == EXPECTED_CIDS
        assert [r["created_new"] for r in assignments] == EXPECTED_CREATED
        assert [r["seq"] for r in assignments] == list(range(6))
        for r in assignments:
            assert r["matched_count"] is None if r["created_new"] else r["matched_count"] >= 6
        summary = recs[-1]
        assert summary["kind"] == "summary"
        assert summary["clusters"] == 3
        assert summary["sizes"] == [2, 2, 2]
        assert summary["points_seen"] == 6
        assert summary["centroids"][1] == [9.5, 33.5, 19.0, 45.0, 11.0, 43.5, 50.0, 48.0, 9.5, 22.5]

    def test_without_summary_flag_no_summary_record(self, golden_csv, capsys):
        main(["run", "--strictness", "60", "--input", str(golden_csv)])
        out, _ = capsys.readouterr()
        assert all(r["kind"] == "assignment" for r in records_of(out))

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1,2\n1.05,2.1\n")))
        code = main(["run", "--strictness", "60", "--summary"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert records_of(out)[-1]["clusters"] == 1

    def test_trace_goes_to_stderr_with_table_values(self, golden_csv, capsys):
        code = main(["run", "--strictness", "60", "--input", str(golden_csv), "--trace"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "[trace]" not in out
        assert "[trace] point 4: band [60, 140], needs 6 of 10" in err
        assert "121.43" in err  # point 4 vs cluster 1, first feature
        assert "57.69" in err  # point 4 vs cluster 1, fourth feature
        assert "matched 8  avg 93.63" in err
        assert "joins C3 (matched-count tie, best qualifying average 93.63)" in err
        assert "joins C1 (only qualifying cluster)" in err

    def test_trace_prints_the_band_exactly(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1,2\n")))
        code = main(["run", "--strictness", "99.996", "--trace"])
        _, err = capsys.readouterr()
        assert code == 0
        assert "[trace] point 0: band [99.996, 100.004], needs 2 of 2" in err

    def test_identical_points_past_1e306_share_a_cluster(self, capsys, monkeypatch):
        # 100 * 1e307 overflows, so the similarity divides first: 100 * (1 / 1)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1e307,1\n1e307,1\n")))
        code = main(["run", "--strictness", "90", "--trace"])
        out, err = capsys.readouterr()
        assert code == 0
        assert [r["cluster_id"] for r in records_of(out)] == [1, 1]
        assert "[trace]   C1: 100 100  matched 2  avg 100\n" in err
        assert "joins C1 (only qualifying cluster)" in err

    def test_trace_prints_a_similarity_from_1e16_up_as_its_repr(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1,1\n1e20,1\n")))
        code = main(["run", "--strictness", "60", "--trace"])
        _, err = capsys.readouterr()
        assert code == 0
        assert "[trace]   C1: 1e+22 100  matched 1  avg 100\n" in err

    def test_trace_writes_each_point_s_table_at_once(self, monkeypatch):
        # stderr is line-buffered: a write per row would be a system call per row
        writes = []
        monkeypatch.setattr(cli, "_note", writes.append)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1,2\n1,2.2\n5,9\n5,9.5\n")))
        assert main(["run", "--strictness", "60", "--trace"]) == 0
        head = "[trace] point {}: band [60, 140], needs 2 of 2\n"
        assert writes == [  # k = 0, 1, 1 and 2 rows
            head.format(0) + "[trace]   -> founds C1 (no qualifying cluster)\n",
            head.format(1) + "[trace]   C1: 100 110  matched 2  avg 95\n"
            "[trace]   -> joins C1 (only qualifying cluster)\n",
            head.format(2) + "[trace]   C1: 500 428.57  matched 0\n"
            "[trace]   -> founds C2 (no qualifying cluster)\n",
            head.format(3) + "[trace]   C1: 500 452.38  matched 0\n"
            "[trace]   C2: 100 105.56  matched 2  avg 97.22\n"
            "[trace]   -> joins C2 (only qualifying cluster)\n",
        ]

    def test_trace_stops_after_1000_points(self, tmp_path, capsys):
        data = tmp_path / "many.csv"
        data.write_text("7\n" * 1500)
        code = main(["run", "--strictness", "60", "--input", str(data), "--trace"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err.count("[trace] point ") == 1000
        assert "trace stopped after 1000 points" in err
        assert len(records_of(out)) == 1500

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_only_traced_points_score_every_cluster(self, trace, tmp_path, capsys, monkeypatch):
        # each point, traced or not, makes one full-width pass of assign's
        # kernel: the trace's counts and averages come from the pass that
        # decides. Past the count filter's switch, here moved down to k = 10
        # (m = 2 head rows at n = 10, s = 90), an untraced point is screened
        # and its pass may skip clusters; a traced one is never screened.
        switch = 10
        monkeypatch.setattr(engine_module, "_FILTER_MIN_SKIPPED", (10 - 2) * switch)
        passes, screened = [], []
        score, screen = ClusteringEngine._score, ClusteringEngine._screen

        def score_spy(self, f, cents, *flags):
            if f.size == self._n:
                passes.append((self._points_seen, self.cluster_count, cents.shape[1]))
            return score(self, f, cents, *flags)

        def screen_spy(self, *args):
            screened.append(self._points_seen)
            return screen(self, *args)

        monkeypatch.setattr(ClusteringEngine, "_score", score_spy)
        monkeypatch.setattr(ClusteringEngine, "_screen", screen_spy)
        points = anchored_points(random.Random(7), TRACE_LIMIT + 100, 10, n_anchors=12)
        data = tmp_path / "many.csv"
        data.write_text("".join(",".join(map(repr, p)) + "\n" for p in points))
        code = main(["run", "--strictness", "90", "--input", str(data)] + ["--trace"] * trace)
        out, _ = capsys.readouterr()
        assert code == 0
        assert len(records_of(out)) == len(points)
        assert [seq for seq, _, _ in passes] == list(range(len(points)))
        for seq, k, scored in passes:
            filtered = k >= switch and not (trace and seq < TRACE_LIMIT)
            assert (seq in screened) == filtered
            assert scored == k or filtered
        # traced points past the switch, and clusters skipped past it
        assert any(k >= switch for seq, k, _ in passes if seq < TRACE_LIMIT)
        assert any(scored < k for _, k, scored in passes)

    @pytest.mark.parametrize(
        "points,want,row",
        [
            # C1 matches neither feature of the second point: its average is 0 / 0
            pytest.param(
                [[1.0, 1.0], [100.0, 100.0]], (0, None),
                "C1: 10000 10000  matched 0\n", id="no-match",
            ),
            # c = 0 < d: an undefined cell, where 200 - inf is computed and masked
            pytest.param(
                [[0.0, 1.0], [5.0, 1.0]], (1, 100.0),
                "C1: undef 100  matched 1  avg 100\n", id="undefined-cell",
            ),
        ],
    )
    def test_profiles_and_trace_warn_nothing(self, points, want, row, capsys, monkeypatch):
        text = "".join(",".join(repr(v) for v in p) + "\n" for p in points)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        eng = ClusteringEngine(Config(50.0, 2))
        eng.assign(points[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, *profiles = assign_profiled(eng, points[1])
            code = main(["run", "--strictness", "50", "--trace"])
        _, err = capsys.readouterr()
        assert profile_pairs(*profiles) == [want]
        assert code == 0
        assert f"[trace]   {row}" in err

    def test_trace_changes_no_record_and_no_snapshot(self, tmp_path, capsys):
        # tie-heavy, and longer than the trace, so untraced points follow traced ones
        points = throughput_points(
            random.Random(31), TRACE_LIMIT + 200, n_anchors=100, outlier_rate=0.04
        )
        data = tmp_path / "ties.csv"
        data.write_text("".join(",".join(repr(v) for v in p) + "\n" for p in points))
        written = {}
        for flags in ((), ("--trace",)):
            records, snap = tmp_path / f"out{len(flags)}.jsonl", tmp_path / f"s{len(flags)}.snap"
            code = main(["run", "--strictness", "60", "--input", str(data), "--summary",
                         "--output", str(records), "--snapshot-out", str(snap), *flags])
            assert code == 0
            written[flags] = records.read_bytes(), snap.read_bytes()
        _, err = capsys.readouterr()
        assert f"trace stopped after {TRACE_LIMIT} points" in err
        assert written[("--trace",)] == written[()]
        assert b'"decision_path":"AVG_TIEBREAK"' in written[()][0]

    def test_a_resume_traces_points_past_the_filter_switch(self, tmp_path, capsys):
        # the wide shape: the count filter runs from k = 182, before point
        # 300, and point 320's first feature lies below the screen's range
        points = anchored_points(
            random.Random(75), 340, 100, n_anchors=250, spread=0.15, outlier_rate=0.04
        )
        points[320][0] = 1e-30
        head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
        for path, part in ((head, points[:300]), (tail, points[300:])):
            path.write_text("".join(",".join(map(repr, p)) + "\n" for p in part))
        snap = tmp_path / "head.snap"
        argv = ["--input", str(head), "--output", str(tmp_path / "head.jsonl")]
        assert main(["run", "--strictness", "75", "--snapshot-out", str(snap), *argv]) == 0
        written = {}
        for flags in ((), ("--trace",)):
            records, out = tmp_path / f"out{len(flags)}.jsonl", tmp_path / f"s{len(flags)}.snap"
            code = main(["resume", "--snapshot-in", str(snap), "--input", str(tail),
                         "--output", str(records), "--snapshot-out", str(out), *flags])
            assert code == 0
            written[flags] = records.read_bytes(), out.read_bytes()
        _, err = capsys.readouterr()
        assert written[("--trace",)] == written[()]
        assert err == render_trace(points, Config(75.0, 100), start=300)[0]

    def test_output_file_and_byte_identical_reruns(self, golden_csv, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            code = main(
                ["run", "--strictness", "60", "--input", str(golden_csv),
                 "--output", str(out), "--summary"]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(records_of(out1.read_text())) == 7

    def test_jsonl_input_carries_labels(self, tmp_path, capsys):
        data = tmp_path / "points.jsonl"
        data.write_text(
            '{"features": [1, 2], "id": "first"}\n{"features": [1, 2]}\n'
        )
        main(["run", "--strictness", "60", "--format", "jsonl", "--input", str(data)])
        out, _ = capsys.readouterr()
        assert [r["label"] for r in records_of(out)] == ["first", None]

    def test_a_label_with_a_newline_cannot_forge_trace_lines(self, tmp_path, capsys):
        forged = "a\n[trace]   -> joins C9 (forged)"
        data = tmp_path / "points.jsonl"
        data.write_text(
            json.dumps({"features": [1, 2], "id": forged}) + "\n"
            + json.dumps({"features": [1, 2], "id": "plain id"}) + "\n"
        )
        code = main(
            ["run", "--strictness", "60", "--format", "jsonl", "--input", str(data), "--trace"]
        )
        out, err = capsys.readouterr()
        assert code == 0
        lines = err.splitlines()
        # point 0 founds C1 (header, decision); point 1 joins it (header, row, decision)
        assert sum(line.startswith("[trace]") for line in lines) == len(lines) == 5
        assert sum(line.startswith("[trace]   -> ") for line in lines) == 2
        assert lines[0].startswith(f"[trace] point 0 ({json.dumps(forged)}): ")
        assert lines[2].startswith("[trace] point 1 (plain id): ")
        assert [r["label"] for r in records_of(out)] == [forged, "plain id"]

    def test_on_error_skip_reports_and_exits_zero(self, tmp_path, capsys):
        # each bad line 2, CSV and JSONL: its skip note, byte for byte, and the
        # same "line 2: ..." text in the error line of a halt
        for fmt, bad, text in [
            ("csv", b"1,zap", "column 2: 'zap' is not a number"),
            ("csv", b"1,\xff2", "not valid UTF-8"),
            ("csv", b"1,2,3", "expected 2 features, got 3"),
            # DataPoint judges a JSONL feature, so it reads as the library's error
            ("jsonl", b'{"features": [1, "x"]}', "feature 2 cannot be read as a float: 'x'"),
            ("jsonl", b'{"features": [1, true]}', "feature 2 cannot be read as a float: True"),
            # the width is checked before the values
            ("jsonl", b'{"features": [1, 2, "x"]}', "expected 2 features, got 3"),
            ("jsonl", b"[1, 2]", "expected a JSON object"),
            ("jsonl", b'{"features": []}', '"features" must be a non-empty array of numbers'),
            ("jsonl", b'{"features": [1, 2], "id": "\xff"}', "not valid UTF-8"),
            ("jsonl", b'{"features": [1, 2, 3]}', "expected 2 features, got 3"),
            ("jsonl", b'{"features": [1,', "invalid JSON at character 17: Expecting value"),
        ]:
            good = [b"1,2", b"3,4"] if fmt == "csv" else [
                b'{"features": [1, 2]}', b'{"features": [3, 4]}'
            ]
            data = tmp_path / f"bad.{fmt}"
            data.write_bytes(b"\n".join([good[0], bad, good[1]]) + b"\n")
            argv = ["run", "--strictness", "60", "--format", fmt, "--input", str(data)]
            code = main([*argv, "--on-error", "skip"])
            out, err = capsys.readouterr()
            assert (code, err) == (0, f"strictcluster: skipped line 2: {text}\n")
            assert [r["seq"] for r in records_of(out)] == [0, 1]
            code = main([*argv, "--on-error", "halt"])
            out, err = capsys.readouterr()
            assert (code, err) == (1, f"strictcluster: error: line 2: {text}\n")
            assert [r["seq"] for r in records_of(out)] == [0]

    def test_on_error_halt_exits_one_with_line_number(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n1,zap\n3,4\n")
        code = main(["run", "--strictness", "60", "--input", str(data)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "line 2" in err
        assert len(records_of(out)) == 1  # the valid point before the failure

    def test_halt_leaves_earlier_records_in_the_output_and_no_snapshot(
        self, tmp_path, capsys
    ):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n1,2.1\n1,-2\n3,4\n")
        out, snap = tmp_path / "out.jsonl", tmp_path / "state.snap"
        code = main(
            ["run", "--strictness", "60", "--input", str(data), "--output", str(out),
             "--snapshot-out", str(snap), "--summary"]
        )
        _, err = capsys.readouterr()
        assert code == 1
        assert "line 3" in err
        assert [r["seq"] for r in records_of(out.read_text())] == [0, 1]
        assert not snap.exists()

    @pytest.mark.parametrize("policy", ["halt", "skip"])
    def test_feature_sum_overflow_exits_one_before_the_state_goes_bad(
        self, policy, tmp_path, capsys
    ):
        # the 180th 1e306 would take the sum past the largest float; the
        # blank first line puts that point on line 181
        data = tmp_path / "big.csv"
        data.write_text("\n" + "1e306,1\n" * 200)
        out, snap = tmp_path / "out.jsonl", tmp_path / "state.snap"
        code = main(
            ["run", "--strictness", "50", "--input", str(data), "--output", str(out),
             "--snapshot-out", str(snap), "--summary", "--on-error", policy]
        )
        _, err = capsys.readouterr()
        assert code == 1
        assert err == (
            "strictcluster: error: line 181: point seq 179 would overflow a "
            "feature sum of cluster 1 past the largest float\n"
        )
        assert [r["seq"] for r in records_of(out.read_text())] == list(range(179))
        assert not snap.exists()

    def test_no_qualifying_cluster_takes_the_empty_list_path(self, capsys, monkeypatch):
        # EMPTY_LIST_NEW_CLUSTER whenever nothing qualifies, also with k > 0
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(b"10,10\n100,100\n10.5,10\n"))
        )
        code = main(["run", "--strictness", "60"])
        out, _ = capsys.readouterr()
        assert code == 0
        first, second, third = out.splitlines()
        assert json.loads(first)["decision_path"] == "EMPTY_LIST_NEW_CLUSTER"
        assert second == (
            '{"kind":"assignment","seq":1,"cluster_id":2,"created_new":true,'
            '"matched_count":null,"decision_path":"EMPTY_LIST_NEW_CLUSTER","label":null}'
        )
        assert json.loads(third)["decision_path"] == "SINGLE_QUALIFIED"

    @pytest.mark.parametrize("policy", ["halt", "skip"])
    def test_huge_jsonl_integer_is_a_bad_line(self, policy, tmp_path, capsys):
        data = tmp_path / "huge.jsonl"
        huge = "1" + "0" * 400  # valid JSON, but no float can hold it
        data.write_text(
            '{"features": [1, 2]}\n'
            f'{{"features": [1, {huge}]}}\n'
            '{"features": [3, 4]}\n'
        )
        argv = ["run", "--strictness", "60", "--format", "jsonl", "--input", str(data)]
        code = main(argv + ["--on-error", policy])
        out, err = capsys.readouterr()
        # the 401 digits are not echoed
        text = "line 2: feature 2 is too large for a float\n"
        if policy == "halt":
            assert code == 1
            assert err == f"strictcluster: error: {text}"
            assert [r["seq"] for r in records_of(out)] == [0]
        else:
            assert code == 0
            assert err == f"strictcluster: skipped {text}"
            assert [r["seq"] for r in records_of(out)] == [0, 1]

    def test_empty_input_is_success(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        code = main(["run", "--strictness", "60", "--input", str(data), "--summary"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert records_of(out) == [
            {"kind": "summary", "points_seen": 0, "clusters": 0, "sizes": [], "centroids": []}
        ]

    def test_empty_input_with_snapshot_out_warns_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        snap = tmp_path / "state.snap"
        code = main(
            ["run", "--strictness", "60", "--input", str(data), "--snapshot-out", str(snap)]
        )
        _, err = capsys.readouterr()
        assert code == 0
        assert "no snapshot written" in err
        assert not snap.exists()

    def test_out_of_range_strictness_is_a_data_error(self, golden_csv, capsys):
        code = main(["run", "--strictness", "150", "--input", str(golden_csv)])
        _, err = capsys.readouterr()
        assert code == 1
        assert "strictness" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["run", "--strictness", "60", "--input", str(tmp_path / "nope.csv")])
        _, err = capsys.readouterr()
        assert code == 1
        assert "error" in err

    def test_a_device_as_both_input_and_output_is_not_refused(self, capsys):
        # only a regular file is truncated by opening it; a device is not
        code = main(
            ["run", "--strictness", "60", "--input", os.devnull, "--output", os.devnull]
        )
        assert code == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "make",
        [pytest.param(getattr(os, "mkfifo", None), id="fifo", marks=pytest.mark.skipif(
            not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")),
         pytest.param(os.mkdir, id="directory")],
    )
    def test_a_snapshot_out_that_is_no_regular_file_is_refused_and_kept(
        self, make, tmp_path, capsys
    ):
        node = tmp_path / "p"
        make(node)
        kind = os.stat(node).st_mode
        # the absent input shows the refusal comes before the input is read
        code = main(["run", "--strictness", "60", "--input", str(tmp_path / "absent.csv"),
                     "--snapshot-out", str(node)])
        assert code == 1
        assert capsys.readouterr() == ("", (
            f"strictcluster: error: --snapshot-out {node} is not a regular file; "
            "the snapshot would replace it\n"
        ))
        assert os.stat(node).st_mode == kind
        assert list(tmp_path.iterdir()) == [node]  # no temp file either

    @pytest.mark.parametrize("parent_is_file", [False, True], ids=["missing", "a-file"])
    def test_a_snapshot_out_in_no_directory_is_refused_before_the_run(
        self, golden_csv, tmp_path, capsys, parent_is_file
    ):
        # the save's temp file would fail only after every record was written
        parent = tmp_path / "nodir"
        if parent_is_file:
            parent.write_text("kept")
        records = tmp_path / "out.jsonl"
        snap = parent / "x.snap"
        code = main(["run", "--strictness", "60", "--input", str(golden_csv),
                     "--output", str(records), "--snapshot-out", str(snap)])
        out, err = capsys.readouterr()
        assert code == 1
        assert (out, err) == ("", (
            f"strictcluster: error: --snapshot-out {snap}: {parent} is not an "
            "existing directory; the snapshot could not be written\n"
        ))
        assert ".tmp" not in err
        assert not records.exists()
        assert sorted(tmp_path.iterdir()) == sorted(
            [golden_csv, *([parent] if parent_is_file else [])]
        )

    @pytest.mark.parametrize("command", [
        ["run", "--strictness", "60"], ["resume", "--snapshot-in", "absent.snap"],
    ], ids=["run", "resume"])
    def test_an_empty_snapshot_out_is_refused_before_the_run(
        self, command, tmp_path, capsys
    ):
        # the absent input (and snapshot) show the refusal comes before either is read
        code = main([*command, "--input", str(tmp_path / "absent.csv"), "--snapshot-out", ""])
        assert code == 1
        assert capsys.readouterr() == ("", (
            "strictcluster: error: --snapshot-out is empty; the snapshot could not be written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self, golden_csv, tmp_path, capsys):
        code = main(
            ["run", "--strictness", "60", "--input", str(golden_csv),
             "--output", str(tmp_path / "missing" / "out.jsonl")]
        )
        assert code == 1
        capsys.readouterr()


class TestSnapshotCommands:
    def run_with_snapshot(self, golden_csv, tmp_path):
        snap = tmp_path / "state.snap"
        code = main(
            ["run", "--strictness", "60", "--input", str(golden_csv),
             "--output", str(tmp_path / "out.jsonl"), "--snapshot-out", str(snap)]
        )
        assert code == 0
        return snap

    def test_inspect_prints_the_final_state(self, golden_csv, tmp_path, capsys):
        snap = self.run_with_snapshot(golden_csv, tmp_path)
        code = main(["inspect", "--snapshot-in", str(snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "strictness: 60"
        assert lines[1] == "features: 10"
        assert lines[2] == "points seen: 6"
        assert lines[3] == "3 clusters"
        assert C2_ROW in lines

    def test_inspect_prints_the_strictness_exactly(self, tmp_path, capsys):
        snap = tmp_path / "fine.snap"
        save_snapshot(ClusteringEngine(Config(0.004, 3)).state(), snap)
        code = main(["inspect", "--snapshot-in", str(snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.splitlines()[0] == "strictness: 0.004"

    def test_inspect_empty_state(self, tmp_path, capsys):
        from strictcluster import ClusteringEngine, Config, save_snapshot

        snap = tmp_path / "empty.snap"
        save_snapshot(ClusteringEngine(Config(60.0, 10)).state(), snap)
        code = main(["inspect", "--snapshot-in", str(snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "0 clusters" in out
        assert "points seen: 0" in out

    def test_inspect_prints_a_centroid_from_1e16_up_as_its_repr(self, tmp_path, capsys):
        eng = ClusteringEngine(Config(60.0, 4))
        eng.assign([1e306, 1e16, 9999999999999998.0, 0.5])
        snap = tmp_path / "huge.snap"
        save_snapshot(eng.state(), snap)
        code = main(["inspect", "--snapshot-in", str(snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "C1: size 1  centroid 1e+306 1e+16 9999999999999998 0.5\n" in out

    @pytest.mark.parametrize("case", ["edges", "resume", "negative-zero"])
    def test_inspect_prints_each_centroid_value_as_fmt2_does(self, case, tmp_path, capsys):
        if case == "edges":
            # -0.0, half hundredths and the floats either side of them, and
            # values from 1e16 up; cluster 2's centroid is its sums divided by 3
            halves = [0.125, 0.375, 1.005, 2.675, 0.045, 12345.675]
            near = [float(np.nextafter(h, to)) for h in halves for to in (0.0, np.inf)]
            sums = (-0.0, *halves, *near, 1e16, 2.5e17, 1e300)
            state = ClusterState(
                Config(60.0, len(sums)),
                (Cluster(1, 1, sums, (0,)), Cluster(2, 3, tuple(3.0 * v for v in sums), (1, 2, 3))),
                4,
            )
        else:
            state = resumed_engine(case).state()
        snap = tmp_path / "centroids.snap"
        save_snapshot(state, snap)
        code = main(["inspect", "--snapshot-in", str(snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        rows = out.splitlines()[4:]
        assert rows == [
            f"C{c.id}: size {c.member_count}  "
            f"centroid {' '.join(_fmt2(v) for v in naive_centroid(c))}"
            for c in state.clusters
        ]
        if case == "edges":
            assert rows[0].split("centroid ")[1].split()[:5] == ["-0", "0.12", "0.38", "1", "2.67"]
            assert rows[0].endswith(" 1e+16 2.5e+17 1e+300")
        elif case == "negative-zero":
            assert rows[0].startswith("C1: size 3  centroid -0 ")

    def test_resume_matches_uninterrupted_run(self, golden_csv, tmp_path, capsys):
        lines = GOLDEN_CSV.splitlines(keepends=True)
        head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
        head.write_text("".join(lines[:4]))
        tail.write_text("".join(lines[4:]))

        full_snap = tmp_path / "full.snap"
        main(["run", "--strictness", "60", "--input", str(golden_csv),
              "--output", str(tmp_path / "full.jsonl"), "--snapshot-out", str(full_snap)])

        head_snap = tmp_path / "head.snap"
        main(["run", "--strictness", "60", "--input", str(head),
              "--output", str(tmp_path / "head.jsonl"), "--snapshot-out", str(head_snap)])
        resumed_snap = tmp_path / "resumed.snap"
        code = main(["resume", "--snapshot-in", str(head_snap), "--input", str(tail),
                     "--snapshot-out", str(resumed_snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert resumed_snap.read_bytes() == full_snap.read_bytes()
        assert [r["seq"] for r in records_of(out)] == [4, 5]
        assert [r["cluster_id"] for r in records_of(out)] == [3, 2]

    def test_resume_with_wrong_width_input(self, golden_csv, tmp_path, capsys):
        snap = self.run_with_snapshot(golden_csv, tmp_path)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("1,2,3\n")
        code = main(["resume", "--snapshot-in", str(snap), "--input", str(narrow)])
        _, err = capsys.readouterr()
        assert code == 1
        assert "line 1" in err
        assert "features" in err

    def test_resume_with_corrupted_snapshot(self, golden_csv, tmp_path, capsys):
        snap = self.run_with_snapshot(golden_csv, tmp_path)
        header, payload = snap.read_text().splitlines()
        snap.write_text(header + "\n" + payload.replace(":6", ":7", 1) + "\n")
        code = main(["resume", "--snapshot-in", str(snap), "--input", str(golden_csv)])
        _, err = capsys.readouterr()
        assert code == 1
        assert "checksum" in err

    @pytest.mark.parametrize("spelling", ["same-path", "dot-path", "hard-link"])
    def test_output_naming_the_snapshot_in_is_refused_and_the_snapshot_kept(
        self, golden_csv, tmp_path, capsys, spelling
    ):
        snap = self.run_with_snapshot(golden_csv, tmp_path)
        before = snap.read_bytes()
        output = {
            "same-path": str(snap),
            "dot-path": str(tmp_path / "." / snap.name),
            "hard-link": str(tmp_path / "link.snap"),
        }[spelling]
        if spelling == "hard-link":
            os.link(snap, output)
        capsys.readouterr()
        # the input does not exist: the refusal comes before it is opened
        code = main(["resume", "--snapshot-in", str(snap),
                     "--input", str(tmp_path / "absent.csv"), "--output", output])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == (
            f"strictcluster: error: --output {output} is the --snapshot-in file; "
            "records and a snapshot cannot share a file\n"
        )
        assert snap.read_bytes() == before
        assert main(["inspect", "--snapshot-in", str(snap)]) == 0
        assert C2_ROW in capsys.readouterr().out

    def test_output_naming_the_snapshot_out_is_refused_and_the_snapshot_kept(
        self, golden_csv, tmp_path, capsys
    ):
        snap = self.run_with_snapshot(golden_csv, tmp_path)
        before = snap.read_bytes()
        capsys.readouterr()
        code = main(["run", "--strictness", "60", "--input", str(golden_csv),
                     "--output", str(snap), "--snapshot-out", str(snap)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == (
            f"strictcluster: error: --output {snap} is the --snapshot-out file; "
            "records and a snapshot cannot share a file\n"
        )
        assert snap.read_bytes() == before
        assert main(["inspect", "--snapshot-in", str(snap)]) == 0
        assert C2_ROW in capsys.readouterr().out
        # refused by path too, before the file exists
        fresh = tmp_path / "fresh.x"
        code = main(["run", "--strictness", "60", "--input", str(golden_csv),
                     "--output", str(fresh), "--snapshot-out", str(fresh)])
        assert code == 1
        assert not fresh.exists()

    def test_resuming_in_place_stays_legal(self, golden_csv, tmp_path, capsys):
        lines = GOLDEN_CSV.splitlines(keepends=True)
        head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
        head.write_text("".join(lines[:4]))
        tail.write_text("".join(lines[4:]))
        snap, full = tmp_path / "state.snap", tmp_path / "full.snap"
        main(["run", "--strictness", "60", "--input", str(golden_csv),
              "--snapshot-out", str(full)])
        main(["run", "--strictness", "60", "--input", str(head), "--snapshot-out", str(snap)])
        code = main(["resume", "--snapshot-in", str(snap), "--input", str(tail),
                     "--output", str(tmp_path / "out.jsonl"), "--snapshot-out", str(snap)])
        assert code == 0
        assert snap.read_bytes() == full.read_bytes()

    def test_inspect_missing_snapshot(self, tmp_path, capsys):
        code = main(["inspect", "--snapshot-in", str(tmp_path / "absent.snap")])
        _, err = capsys.readouterr()
        assert code == 1
        assert "error" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["run"],  # --strictness is required
            ["frobnicate"],
            ["run", "--strictness", "60", "--format", "tsv"],
            ["run", "--strictness", "sixty"],
            ["resume"],  # --snapshot-in is required
            ["resume", "--snapshot-in", "x.snap", "--strictness", "50"],
            ["inspect"],
        ],
    )
    def test_exit_code_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "run" in out and "resume" in out and "inspect" in out


class TestRendering:
    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from(list(DecisionPath)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
        st.one_of(
            st.none(),
            st.text(),
            st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "\u2028", "caf\xe9",
                             "\U0001f600", "\ud800", "</script>"]),
        ),
    )
    def test_assignment_record_is_the_compact_json_dump(self, seq, cid, path, matched, label):
        created = matched is None
        outcome = AssignmentOutcome(
            point_seq=seq,
            assigned_cluster_id=cid,
            created_new=created,
            decision_path=path,
            matched_count=matched,
            qualifying_avg=None if created else 90.0,
        )
        rec = {
            "kind": "assignment",
            "seq": seq,
            "cluster_id": cid,
            "created_new": created,
            "matched_count": matched,
            "decision_path": path.value,
            "label": label,
        }
        got = _assignment_record(DataPoint((1.0,), label), outcome)
        assert got == json.dumps(rec, separators=(",", ":"))

    @pytest.mark.parametrize(
        "case", ["golden", "awkward-floats", "resume", "negative-zero", "empty-input"]
    )
    def test_summary_record_is_the_one_shot_dump(self, case):
        if case == "golden":
            eng = ClusteringEngine(Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES))
            for p in GOLDEN_POINTS:
                eng.assign(p)
        elif case == "awkward-floats":
            eng = ClusteringEngine.from_state(ClusterState(
                Config(60.0, 3),
                (
                    Cluster(1, 3, (5e-324, 1e306, 0.0), (0, 1, 2)),
                    Cluster(2, 1, (0.1, 1.0 / 3.0, 7.0), (3,)),
                ),
                4,
            ))
        elif case == "empty-input":
            eng = None  # no point arrived, so there is no engine
        else:
            eng = resumed_engine(case)
        state = None if eng is None else eng.state()
        if state is None:
            doc = {"kind": "summary", "points_seen": 0, "clusters": 0,
                   "sizes": [], "centroids": []}
        else:
            doc = {
                "kind": "summary",
                "points_seen": state.points_seen,
                "clusters": len(state.clusters),
                "sizes": [c.member_count for c in state.clusters],
                "centroids": [naive_centroid(c) for c in state.clusters],
            }
        out = io.StringIO()
        _write_summary(out, eng, state)
        assert out.getvalue() == json.dumps(doc, separators=(",", ":")) + "\n"
        if case == "negative-zero":
            assert '"sizes":[3,2,1],"centroids":[[-0.0,' in out.getvalue()
            assert out.getvalue().endswith(',[7.0,-0.0]]}\n')

    def test_trace_matches_a_table_rendered_from_the_scalar_route(self, tmp_path, capsys):
        # zero-heavy stream: undefined cells (c = 0 < d) and 0/0 cells (= 100)
        points = anchored_points(
            random.Random(5), 120, 6, n_anchors=8, zero_rate=0.2, outlier_rate=0.05
        )
        data = tmp_path / "zeros.csv"
        data.write_text("".join(",".join(repr(v) for v in p) + "\n" for p in points))
        code = main(["run", "--strictness", "60", "--input", str(data), "--trace"])
        _, err = capsys.readouterr()
        assert code == 0
        want, cells = render_trace(points, Config(60.0, 6))
        assert err == want
        # and cells past the lookup table of integer parts (0 to 999)
        assert cells["undef"] > 0 and cells["0/0"] > 0 and cells["1000+"] > 0

    def test_trace_matches_the_scalar_route_at_the_formatter_edges(self, tmp_path, capsys):
        # -0.0 against a positive centroid is a -0 cell; 1e300 against 1e-10
        # is a finite quotient that overflows to inf; 1e307 overflows 100 * d
        points = [
            (1.0, 1e-10, 5.0, 2.0),
            (-0.0, 1e300, 1e307, 2.0),
            (1.0, 1e-10, 1e307, 2.2),
            (0.125, 2e-10, 1e12, 0.0),
            (-0.0, 1e300, 1e307, 1.9),
            (1.0, 1e-10, 5.5, 2.1),
        ]
        data = tmp_path / "edges.csv"
        data.write_text("".join(",".join(repr(v) for v in p) + "\n" for p in points))
        code = main(["run", "--strictness", "60", "--input", str(data), "--trace"])
        _, err = capsys.readouterr()
        assert code == 0
        want, _ = render_trace(points, Config(60.0, 4))
        assert err == want
        cells = {
            cell
            for line in err.splitlines()
            if line.startswith("[trace]   C")
            for cell in line.split(": ")[1].split("  ")[0].split()
        }
        assert {"-0", "inf", "undef", "1e+297"} <= cells

    @given(st.lists(any_float, max_size=40))
    def test_fmt2_array_equals_fmt2_per_value(self, values):
        arr = np.array(values, dtype=np.float64)
        want = ["undef" if v != v else _fmt2(v) for v in values]
        assert _fmt2_array(arr) == want

    def test_fmt2_array_at_the_lookup_table_edges(self):
        # the last integer part in the table (999) and the first past it, the
        # hundredths either side of 999.995, and the fast path's cap
        def ulps(v, count):
            out, lo, hi = [v], v, v
            for _ in range(count):
                lo, hi = float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, np.inf))
                out += [lo, hi]
            return out

        values = [999.99, *ulps(999.995, 2), 1000.0, 1000.005, 99_999.995, *ulps(FAST_CAP, 2)]
        texts = _fmt2_array(np.array(values, dtype=np.float64))
        assert texts == [_fmt2(v) for v in values]
        # 999.995 rounds up to 1000, the floats below it down to 999.99
        assert texts[:10] == ["999.99", "1000", "999.99", "1000", "999.99", "1000",
                              "1000", "1000", "99999.99", "10995116277.76"]

    @given(
        st.lists(st.integers(min_value=0, max_value=2**41), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_fmt2_array_at_the_half_hundredths(self, hs, ulps):
        # (h + 0.5) / 100 and a few ulps either side, plus (q +- 2**-11) / 100:
        # the cells nearest to where .2f rounds the other way
        values = []
        for h in hs:
            mid = (h + 0.5) / 100
            lo = hi = mid
            values.append(mid)
            for _ in range(ulps):
                lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
                values += [float(lo), float(hi)]
            values += [(h - 2.0**-11) / 100, (h + 2.0**-11) / 100]
        arr = np.array(values, dtype=np.float64)
        assert _fmt2_array(arr) == [_fmt2(v) for v in values]


DECISIONS = {
    DecisionPath.EMPTY_LIST_NEW_CLUSTER: "founds C{} (no qualifying cluster)",
    DecisionPath.SINGLE_QUALIFIED: "joins C{} (only qualifying cluster)",
    DecisionPath.MAX_MATCHED: "joins C{} (most matched features)",
    DecisionPath.AVG_TIEBREAK: "joins C{} (matched-count tie, best qualifying average {})",
}


def render_trace(points, config, start=0):
    """The --trace stderr of a run, from the oracle's naive_similarity and
    naive_profile; with ``start``, of a resume after the first start points."""
    eng = ClusteringEngine(config)
    for p in points[:start]:
        eng.assign(p)
    lines, cells = [], {"undef": 0, "0/0": 0, "1000+": 0}
    band = f"[{_exact(config.strictness)}, {_exact(200.0 - config.strictness)}]"
    for seq, p in enumerate(points[start:], start=start):
        dp = DataPoint(tuple(p))
        lines.append(
            f"[trace] point {seq}: band {band}, "
            f"needs {naive_should_match(config.strictness, config.n_features)} "
            f"of {config.n_features}"
        )
        profiles = {}
        for cluster in eng.state().clusters:
            cid, centroid = cluster.id, naive_centroid(cluster)
            row = []
            for d, c in zip(dp.features, centroid):
                sim = naive_similarity(d, c)
                text = "undef" if sim is None else _fmt2(sim)
                whole = text.partition(".")[0]
                cells["undef"] += sim is None
                cells["0/0"] += d == c == 0.0
                cells["1000+"] += whole.isdigit() and int(whole) >= 1000
                row.append(text)
            matched, avg = profiles[cid] = naive_profile(dp.features, centroid, config.strictness)
            tail = "" if avg is None else f"  avg {_fmt2(avg)}"
            lines.append(f"[trace]   C{cid}: {' '.join(row)}  matched {matched}{tail}")
        outcome = eng.assign(dp)
        cid = outcome.assigned_cluster_id
        avg = profiles[cid][1] if cid in profiles else None
        decision = DECISIONS[outcome.decision_path].format(cid, None if avg is None else _fmt2(avg))
        lines.append(f"[trace]   -> {decision}")
    return "".join(line + "\n" for line in lines), cells


class TestSubprocess:
    def test_module_entry_point(self, golden_csv):
        proc = subprocess.run(
            [PYTHON, "-m", "strictcluster", "run", "--strictness", "60",
             "--input", str(golden_csv), "--summary"],
            capture_output=True,
            text=True,
            timeout=60,
            env=ENV,
        )
        assert proc.returncode == 0
        assert records_of(proc.stdout)[-1]["sizes"] == [2, 2, 2]

    @pytest.mark.parametrize(
        "stream,redirect,command",
        [
            pytest.param("stdin", "<&-", "run", id="stdin-<&-"),
            pytest.param("stdout", ">&-", "run", id="stdout->&-"),
            pytest.param("stdout", ">&-", "inspect", id="inspect-stdout->&-"),
        ],
    )
    def test_a_closed_standard_stream_is_one_error_line(
        self, stream, redirect, command, tmp_path
    ):
        # the shell closes the descriptor, so Python starts with sys.<stream> None
        snap = tmp_path / "s.snap"
        save_snapshot(run_stream(Config(60.0, 2), [[1.0, 2.0]])[0], str(snap))
        args = "run --strictness 60" if command == "run" else 'inspect --snapshot-in "$1"'
        proc = subprocess.run(
            ["sh", "-c", f'exec "$0" -m strictcluster {args} {redirect}',
             PYTHON, str(snap)],
            input=None if stream == "stdin" else b"1,2\n",
            capture_output=True,
            timeout=60,
            env=ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"strictcluster: error: {stream} is closed\n"

    @staticmethod
    def run_child(args, stdin, redirect=""):
        # stderr buffered, as in a plain shell: PYTHONUNBUFFERED would hide a
        # failed write that Python retries when it flushes at exit
        env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run(
            ["sh", "-c", f'exec "$0" -m strictcluster run --strictness 60 "$@" {redirect}',
             PYTHON, *args],
            input=stdin,
            capture_output=True,
            timeout=60,
            env=env,
        )

    # 2>&- starts Python with sys.stderr None; 2</dev/null leaves a stderr
    # whose every write fails with EBADF
    CLOSED_STDERR = pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])

    @CLOSED_STDERR
    def test_skip_notes_to_a_closed_stderr_change_nothing(self, redirect, tmp_path):
        stdin = b"1,2\n1,x\n3,4\n"
        snaps = [tmp_path / "open.json", tmp_path / "closed.json"]
        opened = self.run_child(["--on-error", "skip", "--snapshot-out", snaps[0]], stdin)
        closed = self.run_child(
            ["--on-error", "skip", "--snapshot-out", snaps[1]], stdin, redirect
        )
        assert opened.stderr == b"strictcluster: skipped line 2: column 2: 'x' is not a number\n"
        assert (closed.returncode, closed.stderr) == (0, b"")
        assert len(records_of(closed.stdout.decode())) == 2
        assert closed.stdout == opened.stdout
        assert snaps[1].read_bytes() == snaps[0].read_bytes()

    @CLOSED_STDERR
    def test_a_trace_to_a_closed_stderr_changes_nothing(self, redirect):
        stdin = b"1,2\n1,2.1\n3,4\n5,6\n5,6\n"
        opened = self.run_child(["--trace"], stdin)
        closed = self.run_child(["--trace"], stdin, redirect)
        assert opened.stderr.count(b"[trace]   -> ") == 5
        assert (closed.returncode, closed.stderr) == (0, b"")
        assert len(records_of(closed.stdout.decode())) == 5
        assert closed.stdout == opened.stdout

    @CLOSED_STDERR
    def test_a_halt_with_a_closed_stderr_still_exits_1(self, redirect):
        stdin = b"1,2\n3,4\n1,x\n5,6\n"
        opened = self.run_child([], stdin)
        closed = self.run_child([], stdin, redirect)
        assert opened.returncode == 1
        assert opened.stderr == b"strictcluster: error: line 3: column 2: 'x' is not a number\n"
        assert (closed.returncode, closed.stderr) == (1, b"")
        assert len(records_of(closed.stdout.decode())) == 2
        assert closed.stdout == opened.stdout

    @pytest.mark.parametrize("route", ["file", "stdin"])
    def test_output_naming_the_input_is_refused_and_the_input_kept(self, route, tmp_path):
        data = tmp_path / "pts.csv"
        data.write_bytes(b"1,2\n1.1,2\n5,9\n")
        args = ["--output", str(data)]
        if route == "file":
            proc = self.run_child(["--input", str(data), *args], None)
        else:
            proc = self.run_child(args, None, f'< "{data}"')
        assert proc.returncode == 1
        assert proc.stderr == (
            f"strictcluster: error: --output {data} is the input file; "
            "it would be truncated\n"
        ).encode()
        assert proc.stdout == b""
        assert data.read_bytes() == b"1,2\n1.1,2\n5,9\n"

    RECORDS_ON_INPUT = "--output - is the input file; records and the input cannot share a file"
    SNAPSHOT_ON_INPUT = "--snapshot-out {} is the input file; the snapshot would replace it"

    @pytest.mark.parametrize(
        "args,redirect,refusal",
        [(["--input", "{}"], '>> "{}"', RECORDS_ON_INPUT),
         ([], '< "{}" >> "{}"', RECORDS_ON_INPUT),
         (["--input", "{}", "--snapshot-out", "{}"], "", SNAPSHOT_ON_INPUT),
         (["--snapshot-out", "{}"], '< "{}"', SNAPSHOT_ON_INPUT)],
        ids=["input-appended", "stdin-appended", "input-snapshot-out", "stdin-snapshot-out"],
    )
    def test_a_write_onto_the_input_is_refused_and_the_input_kept(
        self, args, redirect, refusal, tmp_path
    ):
        data = tmp_path / "pts.csv"
        data.write_bytes(b"1,2\n1.1,2\n5,9\n")
        proc = self.run_child(
            [arg.format(data) for arg in args], None, redirect.format(data, data)
        )
        assert proc.returncode == 1
        assert proc.stderr == f"strictcluster: error: {refusal.format(data)}\n".encode()
        assert proc.stdout == b""
        assert data.read_bytes() == b"1,2\n1.1,2\n5,9\n"
        assert list(tmp_path.iterdir()) == [data]  # no snapshot and no temp file

    @pytest.mark.parametrize(
        "command,redirect",
        [("run --strictness 60 --snapshot-out", ">"),
         ("run --strictness 60 --snapshot-out", ">>"),
         ("resume --snapshot-in", ">>")],
        ids=["run-fresh", "run-existing", "resume"],
    )
    def test_stdout_on_a_snapshot_is_refused_and_the_snapshot_kept(
        self, command, redirect, tmp_path
    ):
        data, snap = tmp_path / "pts.csv", tmp_path / "o.x"
        data.write_bytes(b"1,2\n1.1,2\n5,9\n")
        if redirect == ">>":
            assert main(["run", "--strictness", "60", "--input", str(data),
                         "--output", os.devnull, "--snapshot-out", str(snap)]) == 0
        before = snap.read_bytes() if snap.exists() else b""
        # the absent input shows the refusal comes before the input is read
        proc = subprocess.run(
            ["sh", "-c", f'exec "$0" -m strictcluster {command} "$1" --input "$2" '
             f'{redirect} "$1"', PYTHON, snap, tmp_path / "absent.csv"],
            capture_output=True,
            timeout=60,
            env=ENV,
        )
        flag = command.split()[-1]
        assert proc.returncode == 1
        assert proc.stderr == (
            f"strictcluster: error: --output - is the {flag} file; "
            "records and a snapshot cannot share a file\n"
        ).encode()
        assert snap.read_bytes() == before

    def test_console_script_if_installed(self, golden_csv):
        exe = shutil.which("strictcluster")
        if exe is None:
            if os.environ.get("GITHUB_ACTIONS"):
                # CI installs the package, so the script must run in every job
                pytest.fail("console script not on PATH, though CI installs the package")
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "run", "--strictness", "60", "--input", str(golden_csv)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert len(records_of(proc.stdout)) == 6


class TestProcessEntry:
    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()  # leave this process's collector as it was

    def test_freezes_before_main_and_passes_its_exit_code(self, monkeypatch, unfreeze):
        before = gc.get_freeze_count()
        seen = []

        def fake_main():
            seen.append((gc.get_freeze_count(), gc.isenabled()))
            return 7

        monkeypatch.setattr(cli, "main", fake_main)
        assert process_main() == 7
        assert len(seen) == 1
        frozen, enabled = seen[0]
        assert frozen > before and enabled
        assert gc.isenabled()

    def test_main_in_process_freezes_nothing(self, golden_csv, tmp_path):
        before = gc.get_freeze_count()
        code = main(["run", "--strictness", "60", "--input", str(golden_csv),
                     "--output", str(tmp_path / "out.jsonl")])
        assert code == 0
        assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "value,text",
    [(60.0, "60"), (140.0, "140"), (0.004, "0.004"), (200.0 - 99.996, "100.004"),
     (1e-05, "1e-05"), (5e-324, "5e-324"), (33.333333333333336, "33.333333333333336")],
)
def test_exact_prints_the_shortest_text_that_reads_back(value, text):
    assert _exact(value) == text
    assert float(text) == value
