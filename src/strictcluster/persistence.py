"""Snapshot a ClusterState to a file and restore it bit-exactly.

File layout is two lines of UTF-8 JSON:

    {"format": "strictcluster-snapshot", "format_version": 1, "payload_sha256": "<hex>"}
    {"config": {...}, "points_seen": N, "clusters": [...]}

The checksum is the SHA-256 of the payload line's exact bytes and is
verified before any payload field is used. Floats are written with their
shortest round-trip representation, so feature sums (and therefore derived
centroids) survive a save/load cycle with identical bits. Running sums,
not centroids, are persisted: centroids are always derived, so a resumed
run can never drift from an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import (
    ChecksumMismatch,
    ClusteringError,
    InvariantViolation,
    SnapshotFormatError,
    VersionUnsupported,
)
from .model import Cluster, ClusterState, Config, verify_state

SNAPSHOT_FORMAT = "strictcluster-snapshot"
SNAPSHOT_VERSION = 1


def _payload(state: ClusterState) -> str:
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
    return json.dumps(doc, separators=(",", ":"))


def save_snapshot(state: ClusterState, destination: str | os.PathLike) -> None:
    """Write the state atomically: a temp file in place, then os.replace."""
    dest = Path(destination)
    payload = _payload(state)
    header = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "format_version": SNAPSHOT_VERSION,
            "payload_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        },
        separators=(",", ":"),
    )
    fd, tmp_name = tempfile.mkstemp(dir=dest.parent, prefix=dest.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n" + payload + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, dest)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_snapshot(source: str | os.PathLike) -> ClusterState:
    """Read a snapshot back; the result passes every ClusterState invariant."""
    try:
        text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SnapshotFormatError("snapshot is not UTF-8 text") from None
    header_line, sep, rest = text.partition("\n")
    if not sep:
        raise SnapshotFormatError("snapshot is missing its payload line")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as err:
        raise SnapshotFormatError(f"unreadable snapshot header: {err.msg}") from None
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError("not a strictcluster snapshot")
    version = header.get("format_version")
    if version != SNAPSHOT_VERSION:
        raise VersionUnsupported(
            f"snapshot format version {version!r} is not supported (expected {SNAPSHOT_VERSION})"
        )
    expected = header.get("payload_sha256")
    if not isinstance(expected, str):
        raise SnapshotFormatError("snapshot header is missing payload_sha256")

    payload_text = rest[:-1] if rest.endswith("\n") else rest
    digest = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
    if digest != expected:
        raise ChecksumMismatch(
            "snapshot payload does not match its checksum (file truncated or altered)"
        )

    try:
        doc = json.loads(payload_text)
        config = Config(doc["config"]["strictness"], doc["config"]["n_features"])
        clusters = tuple(map(_cluster, doc["clusters"]))
        points_seen = doc["points_seen"]
        if type(points_seen) is not int:
            raise TypeError(f"points_seen {points_seen!r} is not an integer")
        state = ClusterState(config=config, clusters=clusters, points_seen=points_seen)
    except InvariantViolation:
        raise
    except (ClusteringError, KeyError, TypeError, ValueError, OverflowError) as err:
        raise InvariantViolation(f"snapshot payload is inconsistent: {err}") from err
    verify_state(state)
    return state


def _cluster(doc: dict) -> Cluster:
    """One payload cluster: integer id, count and seqs, and number sums."""
    sums, seqs = doc["feature_sums"], doc["member_seqs"]
    # type() rather than isinstance(): bool is an int subclass but not a number
    if not set(map(type, [doc["id"], doc["member_count"], *seqs])) <= {int}:
        raise TypeError(
            f"cluster {doc['id']!r}: id, member_count and member_seqs must be integers"
        )
    if not set(map(type, sums)) <= {int, float}:
        raise TypeError(f"cluster {doc['id']}: feature_sums must be numbers")
    return Cluster(
        id=doc["id"],
        member_count=doc["member_count"],
        feature_sums=tuple(map(float, sums)),
        member_seqs=tuple(seqs),
    )
