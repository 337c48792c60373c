"""Command-line front end: cluster a stream, snapshot, resume, inspect.

Machine output (stdout or --output) is JSONL: one assignment record per
point, plus an optional summary record. Diagnostics, skipped-line reports
and the --trace tables go to stderr, so piping stdout stays clean. Writes
to stderr are best effort: a closed or failing stderr never changes the
records, the snapshot or the exit code.
Exit codes: 0 success, 1 data or snapshot error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from typing import IO, Iterator

import numpy as np

from .engine import ClusteringEngine, feature_similarity
from .errors import ClusteringError
from .ingestion import PointStream
from .model import (
    AssignmentOutcome,
    ClusterState,
    Config,
    DataPoint,
    DecisionPath,
)
from .persistence import load_snapshot, save_snapshot

PROG = "strictcluster"
TRACE_LIMIT = 1000  # points traced per invocation before output is cut off


def _exact(value: float) -> str:
    """A setting as given, the shortest text that reads back as it: repr
    without a trailing .0, so 60, 0.004, 100.004. _fmt2 is for measurements."""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


# _fmt2's text after the integer part, for 0..99 hundredths: "", ".01", ..., ".5"
_HUNDREDTHS = tuple(f".{h:02d}".rstrip("0").rstrip(".") for h in range(100))


def _fmt2(value: float) -> str:
    """2-decimal display with trailing zeros dropped: 9.5, 19, 233.33.

    From 1e16 up, where .2f would print digits past the float's precision,
    the shortest repr: 1e+306.
    """
    if value >= 1e16:
        return repr(float(value))
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text or "0"


def _fmt2_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int], list[str]]:
    """_fmt2's text for every value of a flat float64 array, "undef" for nan,
    as lookups: (whole, hundredths, at, heads).

    Value i's text is its integer part's text, _int_texts()[whole[i]], then
    _HUNDREDTHS[hundredths[i]], except that at position at[j] the integer
    part's text is heads[j]; whole is below 1000 everywhere.

    Below 2**40, y = 100 * v lies within 2**-14 of the exact product and
    y - rint(y) is exact, so where y is more than 2**-11 off a half, rint(y)
    is the integer count of hundredths that .2f prints. Those cells are
    looked up from it, an integer part of 1000 or more through an f-string;
    the rest (nan, -0.0, inf, 1.1e10 and above, near-halves) go through
    _fmt2, with an empty tail.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = 100.0 * values
        q = np.rint(y)
        fast = (y < 2.0**40) & (abs(y - q) < 0.5 - 2.0**-11) & ~np.signbit(values)
    slow = ~fast
    q[slow] = 0.0
    whole, hundredths = np.divmod(q.astype(np.int64), 100)
    # q, not whole: no integer compare (see _TraceTexts)
    at = ((q >= 100_000.0) | slow).nonzero()[0]
    if not at.size:
        return whole, hundredths, [], []
    heads = [
        f"{w}" if f else "undef" if v != v else _fmt2(v)
        for w, f, v in zip(whole[at].tolist(), fast[at].tolist(), values[at].tolist())
    ]
    whole[at] = 0
    return whole, hundredths, at.tolist(), heads


def _int_texts() -> tuple[str, ...]:
    """The integer parts' texts, "0" to "999"."""
    return tuple(map(str, range(1000)))


def _fmt2_array(values: np.ndarray) -> list[str]:
    """_fmt2's text for every value of a flat float64 array, "undef" for nan."""
    whole, hundredths, at, heads = _fmt2_parts(values)
    ints = list(map(_int_texts().__getitem__, whole.tolist()))
    for i, head in zip(at, heads):
        ints[i] = head
    return [w + _HUNDREDTHS[h] for w, h in zip(ints, hundredths.tolist())]


@contextlib.contextmanager
def _open_input(path: str) -> Iterator[IO[bytes]]:
    """The input's bytes, which PointStream decodes as UTF-8 line by line."""
    if path == "-":
        if sys.stdin is None:  # what Python leaves when fd 0 is closed
            raise OSError("stdin is closed")
        yield sys.stdin.buffer
    else:
        with open(path, "rb") as fh:
            yield fh


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[IO[str]]:
    """The records' stream."""
    if path == "-":
        if sys.stdout is None:  # what Python leaves when fd 1 is closed
            raise OSError("stdout is closed")
        yield sys.stdout
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _note(text: str) -> None:
    """Write text to stderr, best effort: a failed write is dropped."""
    if sys.stderr is None:  # what Python leaves when fd 2 is closed
        return
    try:
        sys.stderr.write(text)
    except OSError:  # EBADF when fd 2 was reused by a read-only file
        # the failed text stays in stderr's buffer, and Python's flush at
        # exit would fail on it again and exit 120: drop the stream instead
        sys.stderr = None


def _diagnostic(err: BaseException) -> str:
    msg = str(err)
    line = getattr(err, "line_number", None)
    return f"line {line}: {msg}" if line is not None else msg


def _report_skip(err: ClusteringError) -> None:
    _note(f"{PROG}: skipped {_diagnostic(err)}\n")


def _assignment_record(dp: DataPoint, outcome: AssignmentOutcome) -> str:
    """The record json.dumps(..., separators=(",", ":")) gives, built directly."""
    matched = outcome.matched_count
    return (
        f'{{"kind":"assignment","seq":{outcome.point_seq},'
        f'"cluster_id":{outcome.assigned_cluster_id},'
        f'"created_new":{"true" if outcome.created_new else "false"},'
        f'"matched_count":{"null" if matched is None else matched},'
        f'"decision_path":"{outcome.decision_path.value}",'
        f'"label":{"null" if dp.label is None else json.dumps(dp.label)}}}'
    )


def _write_summary(
    out: IO[str], engine: ClusteringEngine | None, state: ClusterState | None
) -> None:
    """Write the summary record, the text json.dumps(..., separators=(",", ":"))
    gives, one centroid row of the engine at a time; ``state`` is the
    engine's, and both are None for an empty input."""
    if state is None:
        points_seen, clusters, centroids = 0, (), ()
    else:
        points_seen, clusters = state.points_seen, state.clusters
        centroids = engine.centroids()
    out.write(
        f'{{"kind":"summary","points_seen":{points_seen},'
        f'"clusters":{len(clusters)},'
        f'"sizes":[{",".join(str(c.member_count) for c in clusters)}],'
        '"centroids":['
    )
    for i, row in enumerate(centroids):
        out.write(("," if i else "") + json.dumps(row.tolist(), separators=(",", ":")))
    out.write("]}\n")


def _sim_rows(engine: ClusteringEngine, dp: DataPoint) -> np.ndarray:
    """Similarity of dp against every centroid as it stands before insertion.

    One flat float64 array, cluster by cluster, with nan where the
    similarity is undefined: feature_similarity never returns nan, and
    numpy stores its None as nan.
    """
    cents = engine.centroids().ravel().tolist()
    sims = map(feature_similarity, dp.features * engine.cluster_count, cents)
    return np.array(list(sims), dtype=np.float64)


def _decision_text(outcome: AssignmentOutcome) -> str:
    cid = outcome.assigned_cluster_id
    path = outcome.decision_path
    if path is DecisionPath.EMPTY_LIST_NEW_CLUSTER:
        return f"founds C{cid} (no qualifying cluster)"
    if path is DecisionPath.SINGLE_QUALIFIED:
        return f"joins C{cid} (only qualifying cluster)"
    if path is DecisionPath.MAX_MATCHED:
        return f"joins C{cid} (most matched features)"
    avg = _fmt2(outcome.qualifying_avg)
    return f"joins C{cid} (matched-count tie, best qualifying average {avg})"


class _TraceTexts:
    """The texts that one invocation's --trace tables are taken from, built at
    its first traced point. The header is the engine's own band and need,
    read from it as ``_on_profile`` is: a private contract with the engine.

    ``pool`` is one object array: the integer parts' texts "0" to "999"
    (_int_texts), "" (EMPTY), then at the pool indices in ``spaced`` and
    ``ended`` each hundredths tail with a space and with a newline after it,
    at those in ``matched`` the matched texts for counts 0 to n, and last the
    row labels (``labels``).

    The trace adds and compares no integer arrays, so indices are taken from
    these arrays: a run does no such arithmetic elsewhere, and the pages of
    numpy's code for it would add to the run's peak memory (64 KB each for
    the add and the compare, numpy 2.4 on x86-64).
    """

    EMPTY = 1000

    def __init__(self, engine: ClusteringEngine):
        self.n = n = engine.config.n_features
        band = f"band [{_exact(engine._lo)}, {_exact(engine._hi)}]"
        self.head = f"{band}, needs {engine._need} of {n}\n"
        self._texts = [
            *_int_texts(),
            "",
            *(t + " " for t in _HUNDREDTHS),
            *(t + "\n" for t in _HUNDREDTHS),
            " matched 0",
            *(f" matched {c}  avg " for c in range(1, n + 1)),
        ]
        self.spaced = np.arange(1001, 1101)
        self.ended = np.arange(1101, 1201)
        self.matched = np.arange(1201, 1202 + n)
        self._labels = np.arange(0)
        self.pool = np.array(self._texts, dtype=object)

    def labels(self, k: int) -> np.ndarray:
        """The pool indices of rows 1 to k's labels, "[trace]   C1: " and on."""
        have = self._labels.size
        if k > have:
            # room for twice k rows, so that the pool is rebuilt log(k) times
            self._texts += (f"[trace]   C{i}: " for i in range(have + 1, 2 * k + 1))
            self._labels = np.arange(len(self._texts) - 2 * k, len(self._texts))
            self.pool = np.array(self._texts, dtype=object)
        return self._labels[:k]


def _print_trace(
    texts: _TraceTexts,
    dp: DataPoint,
    sims: np.ndarray,
    matched: np.ndarray,
    avgs: np.ndarray,
    outcome: AssignmentOutcome,
) -> None:
    """Print dp's table: its similarity cells, matched count and qualifying
    average against each cluster, then the decision.

    The k rows are one (k, 2n + 4) grid of indices into texts.pool: per row,
    its label, each cell's integer part and its tail with a space, the
    matched text, and the average's integer part and its tail with a
    newline (_fmt2_parts). One take and one join make the rows; the cells
    that _fmt2_parts spells out are written over the taken parts first.
    """
    tag = f"point {outcome.point_seq}"
    if dp.label:
        # a newline or other control character in a label could forge lines
        label = dp.label if dp.label.isprintable() else json.dumps(dp.label)
        tag += f" ({label})"
    rows = ""
    k, n = matched.size, texts.n
    if k:
        has = matched.astype(bool)  # not matched > 0 (see _TraceTexts)
        # per row, the n cells, then the average, or 0 where nothing matched
        cells = np.concatenate((sims.reshape(k, n), np.where(has, avgs, 0.0)[:, None]), axis=1)
        whole, hundredths, at, heads = _fmt2_parts(cells.ravel())
        whole = whole.reshape(k, n + 1)
        hundredths = hundredths.reshape(k, n + 1)
        width = 2 * n + 4
        grid = np.empty((k, width), dtype=np.intp)
        grid[:, 0] = texts.labels(k)
        grid[:, 1 : 2 * n : 2] = whole[:, :n]
        grid[:, 2 : 2 * n + 1 : 2] = texts.spaced.take(hundredths[:, :n])
        grid[:, 2 * n + 1] = texts.matched.take(matched)
        grid[:, 2 * n + 2] = np.where(has, whole[:, n], texts.EMPTY)
        grid[:, 2 * n + 3] = texts.ended.take(hundredths[:, n])
        parts = texts.pool.take(grid.ravel()).tolist()
        for i, head in zip(at, heads):
            row, col = divmod(i, n + 1)
            parts[row * width + 2 * col + 1 + (col == n)] = head
        rows = "".join(parts)
    # one write per point: stderr is line-buffered, so a write per row would
    # be a system call per row
    _note(f"[trace] {tag}: {texts.head}{rows}[trace]   -> {_decision_text(outcome)}\n")


def _cluster_stream(
    args: argparse.Namespace,
    engine: ClusteringEngine | None,
    source: IO[bytes],
    out: IO[str],
) -> ClusteringEngine | None:
    """Feed every valid point of ``source`` to the engine, one record each."""
    stream = PointStream(
        source,
        args.format,
        engine.config.n_features if engine is not None else None,
        on_skip=_report_skip if args.on_error == "skip" else None,
    )
    traced = 0
    texts = None
    profile: list[np.ndarray] = []  # a traced point's counts and averages

    def keep(matched: np.ndarray, avgs: np.ndarray) -> None:
        profile[:] = matched, avgs

    for dp in stream:
        if engine is None:
            engine = ClusteringEngine(Config(args.strictness, stream.n_features))
        do_trace = args.trace and traced < TRACE_LIMIT
        # Tables must reflect the pre-insertion state, so compute them first.
        if do_trace:
            sims = _sim_rows(engine, dp)
        try:
            outcome = engine.assign(dp, _on_profile=keep if do_trace else None)
        except ClusteringError as err:
            err.line_number = stream.line_number
            raise
        if do_trace:
            if texts is None:
                texts = _TraceTexts(engine)
            _print_trace(texts, dp, sims, *profile, outcome)
            traced += 1
            if traced == TRACE_LIMIT:
                _note(f"{PROG}: trace stopped after {TRACE_LIMIT} points\n")
        out.write(_assignment_record(dp, outcome) + "\n")
    return engine


def _file_keys(path: str | None, std: str | None = None) -> set[object]:
    """What names the file at ``path``: its absolute path, unless it exists and
    is no regular file, and the (device, inode) of a regular file. With ``std``
    ("stdin" or "stdout"), a path of - is the file behind that stream."""
    if path is None:
        return set()
    by_stream = std is not None and path == "-"
    names: set[object] = set() if by_stream else {os.path.abspath(path)}
    try:
        st = os.fstat(getattr(sys, std).fileno()) if by_stream else os.stat(path)
    except (AttributeError, OSError, ValueError):  # no stream, descriptor or file yet
        return names
    if not stat.S_ISREG(st.st_mode):  # a device or a pipe: opening it truncates nothing
        return set()
    return names | {(st.st_dev, st.st_ino)}


def _check_files(args: argparse.Namespace) -> None:
    """Refuse a command that would write a file it reads: records never share a
    file with the input or a snapshot, and --snapshot-out never names the input.
    --snapshot-out may name --snapshot-in, to resume in place. Refuse also an
    existing --snapshot-out that is no regular file, which the snapshot would
    replace: a FIFO, a device or a directory; and an empty --snapshot-out or
    one whose directory does not exist, which the save would find only after
    the whole stream had been clustered and its records written."""
    out = args.snapshot_out
    if out == "":
        raise OSError("--snapshot-out is empty; the snapshot could not be written")
    if out is not None and os.path.exists(out) and not os.path.isfile(out):
        raise OSError(
            f"--snapshot-out {out} is not a regular file; the snapshot would replace it"
        )
    where = os.path.dirname(out) if out else ""
    if where and not os.path.isdir(where):
        raise OSError(
            f"--snapshot-out {out}: {where} is not an existing directory; "
            "the snapshot could not be written"
        )
    keys = {
        "--output": _file_keys(args.output, "stdout"),
        "input": _file_keys(args.input, "stdin"),
        "--snapshot-in": _file_keys(getattr(args, "snapshot_in", None)),
        "--snapshot-out": _file_keys(args.snapshot_out),
    }
    shared = "records and a snapshot cannot share a file"
    # a stdout on the input was opened by the shell, which may have truncated it
    truncated = "records and the input cannot share a file" if args.output == "-" else (
        "it would be truncated")
    for writer, path, read, why in (
        ("--output", args.output, "--snapshot-in", shared),
        ("--output", args.output, "--snapshot-out", shared),
        ("--output", args.output, "input", truncated),
        ("--snapshot-out", args.snapshot_out, "input", "the snapshot would replace it"),
    ):
        if keys[writer] & keys[read]:
            raise OSError(f"{writer} {path} is the {read} file; {why}")


def cmd_cluster(args: argparse.Namespace) -> int:
    """``run`` and ``resume``: they differ only in how the engine starts."""
    _check_files(args)
    engine: ClusteringEngine | None = None
    if args.command == "resume":
        engine = ClusteringEngine.from_state(load_snapshot(args.snapshot_in))
    else:
        # Surface a bad strictness before reading anything (the width
        # placeholder is irrelevant; only the range check matters here).
        Config(args.strictness, 1)
    with _open_input(args.input) as source, _open_output(args.output) as out:
        engine = _cluster_stream(args, engine, source, out)
        state = None  # taken once, for both the summary and the snapshot
        if engine is not None and (args.summary or args.snapshot_out):
            state = engine.state()
        if args.summary:
            _write_summary(out, engine, state)
    if args.snapshot_out:
        if state is None:
            _note(
                f"{PROG}: no snapshot written: empty input leaves the "
                "feature width unknown\n"
            )
        else:
            save_snapshot(state, args.snapshot_out)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    state = load_snapshot(args.snapshot_in)
    clusters = state.clusters
    k, n = len(clusters), state.config.n_features
    cells = _fmt2_array(ClusteringEngine.from_state(state).centroids().ravel())
    with _open_output("-") as out:  # the records' route: a closed stdout is an error
        out.write(
            f"strictness: {_exact(state.config.strictness)}\nfeatures: {n}\n"
            f"points seen: {state.points_seen}\n{k} cluster{'' if k == 1 else 's'}\n"
        )
        for i, c in enumerate(clusters):
            row = " ".join(cells[i * n : (i + 1) * n])
            out.write(f"C{c.id}: size {c.member_count}  centroid {row}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Stream points into strictness-gated clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("csv", "jsonl"),
            default="csv",
            help="input record format (default csv)",
        )
        p.add_argument(
            "--input", default="-", metavar="PATH", help="input file, or - for stdin"
        )
        p.add_argument(
            "--output",
            default="-",
            metavar="PATH",
            help="assignment records file, or - for stdout",
        )
        p.add_argument(
            "--snapshot-out", metavar="PATH", help="write the final state here"
        )
        p.add_argument(
            "--on-error",
            choices=("halt", "skip"),
            default="halt",
            help="what to do with an invalid input line (default halt)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help=f"print per-point similarity tables to stderr (first {TRACE_LIMIT} points)",
        )
        p.add_argument(
            "--summary",
            action="store_true",
            help="append a final summary record to the output",
        )

    p_run = sub.add_parser("run", help="cluster a stream from scratch")
    p_run.add_argument(
        "--strictness",
        type=float,
        required=True,
        help="qualifying percentage, 0 < s <= 100",
    )
    add_io(p_run)
    p_run.set_defaults(func=cmd_cluster)

    p_resume = sub.add_parser(
        "resume", help="continue from a snapshot (strictness comes from it)"
    )
    p_resume.add_argument(
        "--snapshot-in", required=True, metavar="PATH", help="snapshot to continue from"
    )
    add_io(p_resume)
    p_resume.set_defaults(func=cmd_cluster)

    p_inspect = sub.add_parser(
        "inspect", help="print a snapshot's config and clusters"
    )
    p_inspect.add_argument(
        "--snapshot-in", required=True, metavar="PATH", help="snapshot to describe"
    )
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ClusteringError, OSError) as err:
        _note(f"{PROG}: error: {_diagnostic(err)}\n")
        return 1

