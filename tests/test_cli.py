"""End-to-end CLI tests: run, resume, inspect, exit codes, output shape."""

import io
import json
import shutil
import subprocess
import sys

import pytest

from strictcluster.cli import main

from golden import GOLDEN_CSV

EXPECTED_CIDS = [1, 2, 1, 3, 3, 2]
EXPECTED_CREATED = [True, True, False, True, False, False]

C2_ROW = "C2: size 2  centroid 9.5 33.5 19 45 11 43.5 50 48 9.5 22.5"


def records_of(text):
    return [json.loads(line) for line in text.splitlines() if line]


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
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,2\n1.05,2.1\n"))
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

    def test_trace_stops_after_1000_points(self, tmp_path, capsys):
        data = tmp_path / "many.csv"
        data.write_text("7\n" * 1500)
        code = main(["run", "--strictness", "60", "--input", str(data), "--trace"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err.count("[trace] point ") == 1000
        assert "trace stopped after 1000 points" in err
        assert len(records_of(out)) == 1500

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

    def test_on_error_skip_reports_and_exits_zero(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n1,zap\n3,4\n")
        code = main(
            ["run", "--strictness", "60", "--input", str(data), "--on-error", "skip"]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "skipped line 2" in err
        assert [r["seq"] for r in records_of(out)] == [0, 1]

    def test_on_error_halt_exits_one_with_line_number(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n1,zap\n3,4\n")
        code = main(["run", "--strictness", "60", "--input", str(data)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "line 2" in err
        assert len(records_of(out)) == 1  # the valid point before the failure

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
        assert "Traceback" not in err
        assert "too large for a float" in err
        if policy == "halt":
            assert code == 1
            assert err.startswith("strictcluster: error: line 2: ")
            assert [r["seq"] for r in records_of(out)] == [0]
        else:
            assert code == 0
            assert "skipped line 2" in err
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

    def test_inspect_empty_state(self, tmp_path, capsys):
        from strictcluster import ClusteringEngine, Config, save_snapshot

        snap = tmp_path / "empty.snap"
        save_snapshot(ClusteringEngine(Config(60.0, 10)).state(), snap)
        code = main(["inspect", "--snapshot-in", str(snap)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "0 clusters" in out
        assert "points seen: 0" in out

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


class TestSubprocess:
    def test_module_entry_point(self, golden_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "strictcluster", "run", "--strictness", "60",
             "--input", str(golden_csv), "--summary"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert records_of(proc.stdout)[-1]["sizes"] == [2, 2, 2]

    def test_console_script_if_installed(self, golden_csv):
        exe = shutil.which("strictcluster")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "run", "--strictness", "60", "--input", str(golden_csv)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert len(records_of(proc.stdout)) == 6
