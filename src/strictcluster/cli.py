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
import gc
import json
import os
import stat
import sys
from typing import IO, Iterator

import numpy as np

from .engine import ClusteringEngine, feature_similarity, qualifying_range
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


def _fmt2_array(values: np.ndarray) -> list[str]:
    """_fmt2's text for every value of a flat float64 array, "undef" for nan.

    Below 2**40, y = 100 * v lies within 2**-14 of the exact product and
    y - rint(y) is exact, so where y is more than 2**-11 off a half, rint(y)
    is the integer count of hundredths that .2f prints. Those cells are
    built from it; the rest (nan, -0.0, inf, 1.1e10 and above, near-halves)
    go through _fmt2.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = 100.0 * values
        q = np.rint(y)
        fast = (y < 2.0**40) & (abs(y - q) < 0.5 - 2.0**-11) & ~np.signbit(values)
    slow = ~fast
    q[slow] = 0.0
    whole, hundredths = np.divmod(q.astype(np.int64), 100)
    texts = [
        f"{w}{_HUNDREDTHS[h]}" for w, h in zip(whole.tolist(), hundredths.tolist())
    ]
    if slow.any():
        vals = values.tolist()
        for i in slow.nonzero()[0].tolist():
            v = vals[i]
            texts[i] = "undef" if v != v else _fmt2(v)
    return texts


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


def _write_summary(out: IO[str], state: ClusterState | None) -> None:
    """Write the summary record, the text json.dumps(..., separators=(",", ":"))
    gives, one centroid at a time; None is the state of an empty input."""
    if state is None:
        points_seen, clusters = 0, ()
    else:
        points_seen, clusters = state.points_seen, state.clusters
    out.write(
        f'{{"kind":"summary","points_seen":{points_seen},'
        f'"clusters":{len(clusters)},'
        f'"sizes":[{",".join(str(c.member_count) for c in clusters)}],'
        '"centroids":['
    )
    for i, c in enumerate(clusters):
        out.write(("," if i else "") + json.dumps(c.centroid(), separators=(",", ":")))
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


def _print_trace(
    engine: ClusteringEngine,
    dp: DataPoint,
    sims: np.ndarray,
    matched: np.ndarray,
    avgs: np.ndarray,
    outcome: AssignmentOutcome,
) -> None:
    """Print dp's table: its similarity cells, matched count and qualifying
    average against each cluster, then the decision."""
    cfg = engine.config
    n = cfg.n_features
    lo, hi = qualifying_range(cfg.strictness)
    tag = f"point {outcome.point_seq}"
    if dp.label:
        # a newline or other control character in a label could forge lines
        label = dp.label if dp.label.isprintable() else json.dumps(dp.label)
        tag += f" ({label})"
    lines = [
        f"[trace] {tag}: band [{_exact(lo)}, {_exact(hi)}], "
        f"needs {engine.should_match} of {n}"
    ]
    cells = _fmt2_array(np.concatenate((sims, avgs)))
    avg_cells = cells[sims.size :]
    for i, c in enumerate(matched.tolist()):
        row = " ".join(cells[i * n : (i + 1) * n])
        extra = f"  matched {c}  avg {avg_cells[i]}" if c else "  matched 0"
        lines.append(f"[trace]   C{i + 1}: {row}{extra}")
    lines.append(f"[trace]   -> {_decision_text(outcome)}\n")
    # one write per point: stderr is line-buffered, so print() per row is a
    # system call per row
    _note("\n".join(lines))


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
        engine.config if engine is not None else None,
        strictness=None if engine is not None else args.strictness,
        on_skip=_report_skip if args.on_error == "skip" else None,
    )
    traced = 0
    for dp in stream:
        if engine is None:
            engine = ClusteringEngine(stream.config)
        do_trace = args.trace and traced < TRACE_LIMIT
        # Tables must reflect the pre-insertion state, so compute them first.
        if do_trace:
            sims, (matched, avgs) = _sim_rows(engine, dp), engine.profiles(dp)
        try:
            outcome = engine.assign(dp)
        except ClusteringError as err:
            err.line_number = stream.line_number
            raise
        if do_trace:
            _print_trace(engine, dp, sims, matched, avgs, outcome)
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
    replace: a FIFO, a device or a directory; and a --snapshot-out whose
    directory does not exist, which the save would find only after the
    whole stream had been clustered and its records written."""
    out = args.snapshot_out
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
            _write_summary(out, state)
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
    print(f"strictness: {_exact(state.config.strictness)}")
    print(f"features: {state.config.n_features}")
    print(f"points seen: {state.points_seen}")
    n = len(state.clusters)
    print(f"{n} cluster" + ("" if n == 1 else "s"))
    for c in state.clusters:
        cent = " ".join(_fmt2_array(np.array(c.centroid(), dtype=np.float64)))
        print(f"C{c.id}: size {c.member_count}  centroid {cent}")
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


def process_main() -> int:
    """The process entry of ``python -m strictcluster`` and the console script.

    Importing this module has imported the package and numpy. gc.freeze()
    moves every object they made out of the cyclic collector's reach, so
    the run's full collections, and the one Python makes at exit, no
    longer walk them: about 9 ms of an empty ``run``. main() does not
    freeze, so an in-process caller keeps normal collection.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
