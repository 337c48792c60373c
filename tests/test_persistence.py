"""Snapshot save/load: exact round trips and corruption handling."""

import dataclasses
import hashlib
import json
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from strictcluster import (
    ChecksumMismatch,
    Cluster,
    ClusteringEngine,
    ClusterState,
    Config,
    InvariantViolation,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotFormatError,
    VersionUnsupported,
    load_snapshot,
    run_stream,
    save_snapshot,
)
from strictcluster.cli import main

from generators import random_case
from golden import GOLDEN_ILL_TYPED, GOLDEN_N_FEATURES, GOLDEN_POINTS, GOLDEN_STRICTNESS


@pytest.fixture
def golden_state():
    state, _ = run_stream(Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES), GOLDEN_POINTS)
    return state


def test_file_layout(golden_state, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    header = json.loads(lines[0])
    assert header["format"] == SNAPSHOT_FORMAT
    assert header["format_version"] == SNAPSHOT_VERSION
    assert len(header["payload_sha256"]) == 64
    payload = json.loads(lines[1])
    assert payload["points_seen"] == 6
    assert len(payload["clusters"]) == 3


def test_round_trip_equality(golden_state, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    assert load_snapshot(path) == golden_state
    assert load_snapshot(str(path)) == golden_state


def test_round_trip_is_bit_exact_on_awkward_floats(tmp_path):
    # 0.1 and 1/3 have no finite decimal form; repr round-tripping must
    # reproduce the identical doubles anyway
    state = ClusterState(
        config=Config(100.0 / 3.0, 2),
        clusters=(
            Cluster(id=1, member_count=3, feature_sums=(0.30000000000000004, 1.0 / 3.0), member_seqs=(0, 1, 2)),
        ),
        points_seen=3,
    )
    path = tmp_path / "state.snap"
    save_snapshot(state, path)
    loaded = load_snapshot(path)
    assert repr(loaded.config.strictness) == repr(state.config.strictness)
    assert repr(loaded.clusters[0].feature_sums) == repr(state.clusters[0].feature_sums)


def one_shot_snapshot(state):
    """The file as a single json.dumps of the whole payload document gives it."""
    doc = {
        "config": {
            "strictness": state.config.strictness,
            "n_features": state.config.n_features,
        },
        "points_seen": state.points_seen,
        "clusters": [
            {
                "id": c.id,
                "member_count": c.member_count,
                "feature_sums": list(c.feature_sums),
                "member_seqs": list(c.member_seqs),
            }
            for c in state.clusters
        ],
    }
    payload = json.dumps(doc, separators=(",", ":"))
    header = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "format_version": SNAPSHOT_VERSION,
            "payload_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        },
        separators=(",", ":"),
    )
    return (header + "\n" + payload + "\n").encode("utf-8")


AWKWARD_STATE = ClusterState(
    config=Config(100.0 / 3.0, 3),
    clusters=(
        Cluster(id=1, member_count=1, feature_sums=(5e-324, 1e306, 0.0), member_seqs=(1,)),
        Cluster(id=2, member_count=1, feature_sums=(0.0, 0.1, 1.0 / 3.0), member_seqs=(0,)),
    ),
    points_seen=2,
)


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(None, id="golden"),
        pytest.param(AWKWARD_STATE, id="awkward-floats"),
        pytest.param(ClusterState(Config(60.0, 4), (), 0), id="zero-clusters"),
    ],
)
def test_saved_bytes_are_the_one_shot_dump(golden_state, tmp_path, state):
    state = golden_state if state is None else state
    path = tmp_path / "state.snap"
    save_snapshot(state, path)
    assert path.read_bytes() == one_shot_snapshot(state)
    assert load_snapshot(path) == state


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_converted_line_endings_load(golden_state, tmp_path, newline):
    # a text tool that rewrote the line endings leaves a loadable snapshot,
    # as a universal-newline read of the file has always made it
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert load_snapshot(path) == golden_state


def test_random_states_round_trip_bitwise(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "state.snap"
    for i in range(200):
        strictness, n, points = random_case(rng, rng.randint(1, 50))
        state, _ = run_stream(Config(strictness, n), points)
        save_snapshot(state, path)
        assert path.read_bytes() == one_shot_snapshot(state)
        loaded = load_snapshot(path)
        assert loaded == state
        for a, b in zip(loaded.clusters, state.clusters):
            assert repr(a.feature_sums) == repr(b.feature_sums)


def test_resume_through_snapshot_continues_bit_exactly(tmp_path):
    rng = random.Random(12)
    for _ in range(10):
        strictness, n, points = random_case(rng, 40)
        cut = rng.randint(0, len(points))
        full, _ = run_stream(Config(strictness, n), points)

        head, _ = run_stream(Config(strictness, n), points[:cut])
        path = tmp_path / "head.snap"
        save_snapshot(head, path)
        eng = ClusteringEngine.from_state(load_snapshot(path))
        for p in points[cut:]:
            eng.assign(p)
        assert eng.state() == full


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter that imports the package and the
    test helpers; its stdout."""
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": f"{here.parent / 'src'}{os.pathsep}{here}"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# _hashlib maps OpenSSL's libcrypto; numpy.random imports secrets, whose hmac
# imports _hashlib
OPENSSL_MODULES = ("_hashlib", "numpy.random")


def test_a_cli_process_never_loads_openssl(golden_csv, tmp_path):
    bare = run_child(
        "import sys, numpy; print(sorted(set(sys.argv[1:]) & set(sys.modules)))",
        *OPENSSL_MODULES,
    )
    if bare != "[]\n":  # numpy 1.x imports numpy.random
        pytest.skip(f"import numpy alone loads {bare.strip()}")
    out = run_child("""
import os, sys
from strictcluster.cli import main
data, snap, *names = sys.argv[1:]
files = ["--input", data, "--output", os.devnull, "--snapshot-out", snap]
assert main(["run", "--strictness", "60", *files]) == 0
assert main(["resume", "--snapshot-in", snap, *files]) == 0
assert main(["inspect", "--snapshot-in", snap]) == 0
print(sorted(set(names) & set(sys.modules)))
""", golden_csv, tmp_path / "state.snap", *OPENSSL_MODULES)
    assert out.splitlines()[-1] == "[]"


def test_the_hashlib_fallback_writes_the_same_bytes(golden_state, tmp_path):
    # an interpreter built without its own SHA-256 module
    path = tmp_path / "state.snap"
    run_child("""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from strictcluster import Config, load_snapshot, persistence, run_stream, save_snapshot
from golden import GOLDEN_N_FEATURES, GOLDEN_POINTS, GOLDEN_STRICTNESS
assert persistence.sha256 is hashlib.sha256
state, _ = run_stream(Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES), GOLDEN_POINTS)
save_snapshot(state, sys.argv[1])
assert load_snapshot(sys.argv[1]) == state
""", path)
    assert path.read_bytes() == one_shot_snapshot(golden_state)
    assert load_snapshot(path) == golden_state


def test_save_replaces_existing_file_and_leaves_no_leftovers(golden_state, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    first = path.read_bytes()
    save_snapshot(golden_state, path)
    assert path.read_bytes() == first  # same state serializes identically
    assert [p.name for p in tmp_path.iterdir()] == ["state.snap"]


def test_a_failed_replace_leaves_the_old_snapshot_and_no_temp_file(
    golden_state, tmp_path, monkeypatch
):
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    before = path.read_bytes()
    more, _ = run_stream(Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES), GOLDEN_POINTS[:2])

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        save_snapshot(more, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.snap"]


def test_save_into_missing_directory_raises_oserror(golden_state, tmp_path):
    with pytest.raises(OSError):
        save_snapshot(golden_state, tmp_path / "nope" / "state.snap")


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_snapshot(tmp_path / "absent.snap")


@pytest.mark.parametrize("mode", [0o644, 0o640], ids=oct)
def test_a_replaced_snapshot_keeps_its_mode(golden_state, tmp_path, mode):
    # the temp file that replaces it is made 0600, whatever the umask
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    path.chmod(mode)
    save_snapshot(golden_state, path)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert load_snapshot(path) == golden_state


def test_a_new_snapshot_is_mode_0600(golden_state, tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(golden_state, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


class TestCorruption:
    def write(self, tmp_path, state):
        path = tmp_path / "state.snap"
        save_snapshot(state, path)
        return path

    def test_missing_payload_line(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)
        path.write_text(path.read_text().splitlines()[0])  # drop the newline too
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_header_not_json(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)
        path.write_text("not json\n{}\n")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_wrong_format_name(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)
        header, payload = path.read_text().splitlines()
        doc = json.loads(header)
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc) + "\n" + payload + "\n")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    @pytest.mark.parametrize("digest", [None, 64, "absent"])
    def test_a_header_without_its_checksum(self, golden_state, tmp_path, digest):
        path = self.write(tmp_path, golden_state)
        header, payload = path.read_text().splitlines()
        doc = json.loads(header)
        if digest == "absent":
            del doc["payload_sha256"]
        else:
            doc["payload_sha256"] = digest
        path.write_text(json.dumps(doc) + "\n" + payload + "\n")
        with pytest.raises(
            SnapshotFormatError, match="^snapshot header is missing payload_sha256$"
        ):
            load_snapshot(path)

    def test_unsupported_version_wins_over_bad_checksum(self, golden_state, tmp_path):
        # version is checked before the checksum, so a version bump with a
        # now-stale checksum must still report VersionUnsupported
        path = self.write(tmp_path, golden_state)
        header, payload = path.read_text().splitlines()
        doc = json.loads(header)
        doc["format_version"] = 999
        path.write_text(json.dumps(doc) + "\n" + payload + "x\n")
        with pytest.raises(VersionUnsupported):
            load_snapshot(path)

    def test_tampered_payload_fails_the_checksum(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)
        header, payload = path.read_text().splitlines()
        tampered = payload.replace('"points_seen":6', '"points_seen":7', 1)
        assert tampered != payload
        path.write_text(header + "\n" + tampered + "\n")
        with pytest.raises(ChecksumMismatch):
            load_snapshot(path)

    def rewrite_payload(self, path, mutate):
        """Apply ``mutate`` to the payload document and fix the checksum."""
        import hashlib

        header, payload = path.read_text().splitlines()
        doc = json.loads(payload)
        mutate(doc)
        new_payload = json.dumps(doc, separators=(",", ":"))
        head = json.loads(header)
        head["payload_sha256"] = hashlib.sha256(new_payload.encode()).hexdigest()
        path.write_text(
            json.dumps(head, separators=(",", ":")) + "\n" + new_payload + "\n"
        )

    def test_consistent_checksum_but_inconsistent_state(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)

        def break_counts(doc):
            doc["clusters"][0]["member_count"] = 5

        self.rewrite_payload(path, break_counts)
        with pytest.raises(InvariantViolation):
            load_snapshot(path)

    def test_out_of_range_config_in_payload(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)

        def break_config(doc):
            doc["config"]["strictness"] = 150.0

        self.rewrite_payload(path, break_config)
        with pytest.raises(InvariantViolation):
            load_snapshot(path)

    def test_missing_keys_in_payload(self, golden_state, tmp_path):
        path = self.write(tmp_path, golden_state)

        def drop_key(doc):
            del doc["clusters"][0]["feature_sums"]

        self.rewrite_payload(path, drop_key)
        with pytest.raises(InvariantViolation):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "path,value",
        [
            *(pytest.param(*field, id=name) for name, field in GOLDEN_ILL_TYPED.items()),
            pytest.param(("clusters", 0, "feature_sums", 0), 2, id="sum-2-is-valid"),
        ],
    )
    def test_ill_typed_fields_are_rejected(self, golden_state, tmp_path, capsys, path, value):
        # each of these loaded at face value after int() or float(), with a
        # valid checksum; an integer sum is a number and loads as a float
        snap = self.write(tmp_path, golden_state)

        def put(doc):
            for key in path[:-1]:
                doc = doc[key]
            doc[path[-1]] = value

        self.rewrite_payload(snap, put)
        if value == 2:  # the valid case
            sums = load_snapshot(snap).clusters[0].feature_sums
            assert sums[0] == 2.0 and type(sums[0]) is float
            return
        with pytest.raises(InvariantViolation, match="snapshot payload is inconsistent"):
            load_snapshot(snap)
        assert main(["inspect", "--snapshot-in", str(snap)]) == 1
        assert capsys.readouterr().out == ""

    def test_bytes_not_utf8_are_a_format_error(self, golden_state, tmp_path, capsys):
        # a valid snapshot with one byte of its payload made invalid UTF-8
        path = self.write(tmp_path, golden_state)
        path.write_bytes(path.read_bytes().replace(b'"clusters"', b'"clust\xffrs"'))
        with pytest.raises(SnapshotFormatError, match="^snapshot is not UTF-8 text$"):
            load_snapshot(path)
        for argv in (["inspect"], ["resume", "--input", str(tmp_path / "absent.csv")]):
            assert main(argv + ["--snapshot-in", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "strictcluster: error: snapshot is not UTF-8 text\n"

    def test_unparseable_payload_with_matching_checksum(self, golden_state, tmp_path):
        import hashlib

        path = self.write(tmp_path, golden_state)
        header = json.loads(path.read_text().splitlines()[0])
        garbage = "{broken"
        header["payload_sha256"] = hashlib.sha256(garbage.encode()).hexdigest()
        path.write_text(json.dumps(header) + "\n" + garbage + "\n")
        with pytest.raises(InvariantViolation):
            load_snapshot(path)

    DEEP = "[" * 200_000

    @pytest.mark.parametrize(
        "header,payload,error,reason",
        [(DEEP, "{}", SnapshotFormatError,
          "unreadable snapshot header: invalid JSON: nested too deeply"),
         ('{"format_version":' + "9" * 5001 + "}", "{}", SnapshotFormatError,
          "unreadable snapshot header: invalid JSON: integer literal too long"),
         (None, DEEP, InvariantViolation,
          "snapshot payload is inconsistent: invalid JSON: nested too deeply")],
        ids=["deep-header", "header-5001-digits", "deep-payload"],
    )
    def test_json_the_decoder_refuses_is_one_error_line(
        self, tmp_path, capsys, header, payload, error, reason
    ):
        # the decoder itself fails on these, with a RecursionError or ValueError
        if header is None:  # a valid header, so the payload is decoded
            header = json.dumps({
                "format": SNAPSHOT_FORMAT,
                "format_version": SNAPSHOT_VERSION,
                "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
            })
        path = tmp_path / "state.snap"
        path.write_text(header + "\n" + payload + "\n")
        with pytest.raises(error, match=f"^{re.escape(reason)}$"):
            load_snapshot(path)
        assert main(["inspect", "--snapshot-in", str(path)]) == 1
        assert capsys.readouterr() == ("", f"strictcluster: error: {reason}\n")
