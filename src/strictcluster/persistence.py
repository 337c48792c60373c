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

The digest comes from the interpreter's own SHA-256 module, as random.py
takes its sha512, because importing hashlib loads OpenSSL's libcrypto,
about 3.4 MB resident, into every CLI process for one digest per snapshot.
The built-in module hashes about five times slower than OpenSSL with SHA
extensions: 2.3 against 0.4 ms for an 826 kB payload on an x86-64 Xeon.
hashlib's sha256 stands in only where the interpreter was built without
that module.

Neither direction builds the whole file as text more than once. A save
writes the payload one cluster at a time through an incremental SHA-256, so
it holds one cluster's text beyond the state; the header goes in last, over
a placeholder of the same width at the start of the file (the digest is
always 64 hex digits). A load reads the file's bytes once and hashes and
decodes the payload through a memoryview of them, and frees the payload
text once it is parsed. Lines end at LF, CRLF or CR on load, as in a
universal-newline text read.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import tempfile
from pathlib import Path
from typing import Iterator

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256

from .errors import (
    ChecksumMismatch,
    ClusteringError,
    InvariantViolation,
    ParseError,
    SnapshotFormatError,
    VersionUnsupported,
)
from .ingestion import parse_json
from .model import Cluster, ClusterState, Config, verify_state

SNAPSHOT_FORMAT = "strictcluster-snapshot"
SNAPSHOT_VERSION = 1


_SEPARATORS = (",", ":")


def _header(digest: str) -> bytes:
    """The header line, without its newline; as wide for any 64-hex digest."""
    return json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "format_version": SNAPSHOT_VERSION,
            "payload_sha256": digest,
        },
        separators=_SEPARATORS,
    ).encode("ascii")


def _payload_chunks(state: ClusterState) -> Iterator[bytes]:
    """The payload line's bytes, one cluster at a time: together exactly
    json.dumps(doc, separators=(",", ":")) of the whole payload document."""
    frame = json.dumps(
        {
            "config": {
                "strictness": state.config.strictness,
                "n_features": state.config.n_features,
            },
            "points_seen": state.points_seen,
            "clusters": [],
        },
        separators=_SEPARATORS,
    )
    yield frame[:-2].encode("ascii")  # up to the clusters' "["
    for i, c in enumerate(state.clusters):
        text = json.dumps(
            {
                "id": c.id,
                "member_count": c.member_count,
                "feature_sums": c.feature_sums,
                "member_seqs": c.member_seqs,
            },
            separators=_SEPARATORS,
        )
        yield (("," if i else "") + text).encode("ascii")
    yield b"]}"


def save_snapshot(state: ClusterState, destination: str | os.PathLike) -> None:
    """Write the state atomically: a temp file in place, then os.replace.

    The payload is hashed as it is written, and the header, whose digest
    field is always 64 hex digits wide, goes last into the space left for it.
    A snapshot that replaces a file keeps that file's permission bits; a new
    one has mkstemp's mode, 0600.
    """
    dest = Path(destination)
    fd, tmp_name = tempfile.mkstemp(dir=dest.parent, prefix=dest.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(dest).st_mode))
            fh.write(_header("0" * 64) + b"\n")
            digest = sha256()
            for chunk in _payload_chunks(state):
                digest.update(chunk)
                fh.write(chunk)
            fh.write(b"\n")
            fh.seek(0)
            fh.write(_header(digest.hexdigest()))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, dest)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_lines(source: str | os.PathLike) -> tuple[str, str, str]:
    """The header text, the payload text and the payload's SHA-256, from one
    read of the file's bytes.

    Line endings are universal newlines, as in a text-mode read: a CRLF or
    CR ends a line as LF does. The whole file must be UTF-8, which is
    checked before the payload line is looked for.
    """
    data = Path(source).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    view = memoryview(data)
    cut = data.find(b"\n")
    header = view[:cut] if cut >= 0 else view
    end = len(data) - 1 if data.endswith(b"\n") else len(data)
    payload = view[cut + 1 : end]  # the payload line without its newline
    try:
        header_text, payload_text = str(header, "utf-8"), str(payload, "utf-8")
    except UnicodeDecodeError:
        raise SnapshotFormatError("snapshot is not UTF-8 text") from None
    if cut < 0:
        raise SnapshotFormatError("snapshot is missing its payload line")
    return header_text, payload_text, sha256(payload).hexdigest()


def load_snapshot(source: str | os.PathLike) -> ClusterState:
    """Read a snapshot back; the result passes every ClusterState invariant."""
    header_line, payload_text, digest = _read_lines(source)
    try:
        header = parse_json(header_line)
    except ParseError as err:
        raise SnapshotFormatError(f"unreadable snapshot header: {err}") from None
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
    if digest != expected:
        raise ChecksumMismatch(
            "snapshot payload does not match its checksum (file truncated or altered)"
        )

    try:
        doc = parse_json(payload_text)
        del payload_text  # free the text before the clusters are built
        match doc:  # the shape that _payload_chunks writes; the values are verify_state's
            case {
                "config": {"strictness": strictness, "n_features": n_features},
                "points_seen": points_seen,
                "clusters": list(clusters),
            }:
                pass
            case _:
                raise InvariantViolation(
                    'the payload must be an object with "config" (an object with "strictness" '
                    'and "n_features"), "points_seen" and "clusters" (an array)'
                )
        state = ClusterState(
            config=Config(strictness, n_features),
            clusters=tuple(map(_cluster, clusters, range(1, len(clusters) + 1))),
            points_seen=points_seen,
        )
        verify_state(state)
    except ClusteringError as err:
        raise InvariantViolation(f"snapshot payload is inconsistent: {err}") from err
    return state


def _cluster(doc: object, pos: int) -> Cluster:
    """The payload cluster at ``pos``, 1-based, for verify_state to judge;
    an int sum becomes a float."""
    # a guard, not list() class patterns: two of those cost about 1.3 us per cluster
    match doc:
        case {"id": cid, "member_count": count, "feature_sums": sums, "member_seqs": seqs} if (
            type(sums) is list and type(seqs) is list
        ):
            pass
        case _:
            raise InvariantViolation(
                f'cluster at position {pos} must be an object with "id", "member_count", '
                '"feature_sums" (an array) and "member_seqs" (an array)'
            )
    if not {float}.issuperset(map(type, sums)):  # every sum a save writes is a float
        for j, s in enumerate(sums):
            # type() rather than isinstance(): a bool is an int but no sum
            if type(s) is int:
                try:
                    sums[j] = float(s)
                except OverflowError:
                    raise InvariantViolation(
                        f"cluster at position {pos}: feature sum {j + 1} is too large "
                        "for a float"
                    ) from None
    return Cluster(cid, count, tuple(sums), tuple(seqs))
