"""Command-line front end: cluster a stream, snapshot, resume, inspect.

Machine output (stdout or --output) is JSONL: one assignment record per
point, plus an optional summary record. Diagnostics, skipped-line reports
and the --trace tables go to stderr, so piping stdout stays clean.
Exit codes: 0 success, 1 data or snapshot error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO, Iterator

from .engine import ClusteringEngine
from .errors import ClusteringError
from .ingestion import PointStream, SkippedLine
from .model import AssignmentOutcome, DataPoint, DecisionPath, validate_config
from .persistence import load_snapshot, save_snapshot
from .similarity import feature_similarity, qualifying_range

PROG = "strictcluster"
TRACE_LIMIT = 1000  # points traced per invocation before output is cut off


def _fmt2(value: float) -> str:
    """2-decimal display with trailing zeros dropped: 9.5, 19, 233.33."""
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text or "0"


def _sim_text(value: float | None) -> str:
    return "undef" if value is None else _fmt2(value)


@contextlib.contextmanager
def _open_input(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdout
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _report_skip(skipped: SkippedLine) -> None:
    print(f"{PROG}: skipped {skipped}", file=sys.stderr)


def _diagnostic(err: BaseException) -> str:
    msg = str(err)
    line = getattr(err, "line_number", None)
    return f"line {line}: {msg}" if line is not None else msg


def _assignment_record(dp: DataPoint, outcome: AssignmentOutcome) -> str:
    wp = outcome.winner_profile
    rec = {
        "kind": "assignment",
        "seq": outcome.point_seq,
        "cluster_id": outcome.assigned_cluster_id,
        "created_new": outcome.created_new,
        "matched_count": None if wp is None else wp.matched_count,
        "decision_path": outcome.decision_path.value,
        "label": dp.label,
    }
    return json.dumps(rec, separators=(",", ":"))


def _summary_record(engine: ClusteringEngine | None) -> str:
    if engine is None:
        doc = {
            "kind": "summary",
            "points_seen": 0,
            "clusters": 0,
            "sizes": [],
            "centroids": [],
        }
    else:
        state = engine.state()
        doc = {
            "kind": "summary",
            "points_seen": state.points_seen,
            "clusters": len(state.clusters),
            "sizes": [c.member_count for c in state.clusters],
            "centroids": [list(c.centroid()) for c in state.clusters],
        }
    return json.dumps(doc, separators=(",", ":"))


def _sim_rows(engine: ClusteringEngine, dp: DataPoint) -> list[list[float | None]]:
    """Similarity of dp against every centroid as it stands before insertion."""
    return [
        [feature_similarity(d, c) for d, c in zip(dp.features, centroid)]
        for centroid in engine.centroids().tolist()
    ]


def _decision_text(outcome: AssignmentOutcome) -> str:
    cid = outcome.assigned_cluster_id
    path = outcome.decision_path
    if path is DecisionPath.EMPTY_LIST_NEW_CLUSTER:
        return f"founds C{cid} (no qualifying cluster)"
    if path is DecisionPath.SINGLE_QUALIFIED:
        return f"joins C{cid} (only qualifying cluster)"
    if path is DecisionPath.MAX_MATCHED:
        return f"joins C{cid} (most matched features)"
    avg = outcome.winner_profile.qualifying_avg
    return f"joins C{cid} (matched-count tie, best qualifying average {_fmt2(avg)})"


def _print_trace(
    engine: ClusteringEngine,
    dp: DataPoint,
    rows: list[list[float | None]],
    outcome: AssignmentOutcome,
) -> None:
    cfg = engine.config
    lo, hi = qualifying_range(cfg.strictness)
    tag = f"point {dp.seq}" + (f" ({dp.label})" if dp.label else "")
    print(
        f"[trace] {tag}: band [{_fmt2(lo)}, {_fmt2(hi)}], "
        f"needs {engine.should_match} of {cfg.n_features}",
        file=sys.stderr,
    )
    for row, profile in zip(rows, outcome.profiles):
        sims = " ".join(_sim_text(v) for v in row)
        extra = f"  matched {profile.matched_count}"
        if profile.qualifying_avg is not None:
            extra += f"  avg {_fmt2(profile.qualifying_avg)}"
        print(f"[trace]   C{profile.cluster_id}: {sims}{extra}", file=sys.stderr)
    print(f"[trace]   -> {_decision_text(outcome)}", file=sys.stderr)


def _cluster_stream(
    args: argparse.Namespace,
    engine: ClusteringEngine | None,
    source: IO[str],
    out: IO[str],
) -> ClusteringEngine | None:
    """Feed every valid point of ``source`` to the engine, one record each."""
    stream = PointStream(
        source,
        args.format,
        engine.config if engine is not None else None,
        strictness=None if engine is not None else args.strictness,
        on_error=args.on_error,
        on_skip=_report_skip,
        start_seq=engine.points_seen if engine is not None else 0,
    )
    traced = 0
    for dp in stream:
        if engine is None:
            engine = ClusteringEngine(stream.config)
        do_trace = args.trace and traced < TRACE_LIMIT
        # Tables must reflect the pre-insertion state, so compute them first.
        rows = _sim_rows(engine, dp) if do_trace else None
        outcome = engine.assign(dp, record_profiles=do_trace)
        if do_trace:
            _print_trace(engine, dp, rows, outcome)
            traced += 1
            if traced == TRACE_LIMIT:
                print(
                    f"{PROG}: trace stopped after {TRACE_LIMIT} points",
                    file=sys.stderr,
                )
        out.write(_assignment_record(dp, outcome) + "\n")
    return engine


def cmd_run(args: argparse.Namespace) -> int:
    # Surface a bad strictness before reading anything (the width placeholder
    # is irrelevant; only the range check matters here).
    validate_config(args.strictness, 1)
    engine: ClusteringEngine | None = None
    with _open_input(args.input) as source, _open_output(args.output) as out:
        engine = _cluster_stream(args, None, source, out)
        if args.summary:
            out.write(_summary_record(engine) + "\n")
    if args.snapshot_out:
        if engine is None:
            print(
                f"{PROG}: no snapshot written: empty input leaves the "
                "feature width unknown",
                file=sys.stderr,
            )
        else:
            save_snapshot(engine.state(), args.snapshot_out)
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    engine = ClusteringEngine.from_state(load_snapshot(args.snapshot_in))
    with _open_input(args.input) as source, _open_output(args.output) as out:
        engine = _cluster_stream(args, engine, source, out)
        if args.summary:
            out.write(_summary_record(engine) + "\n")
    if args.snapshot_out:
        save_snapshot(engine.state(), args.snapshot_out)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    state = load_snapshot(args.snapshot_in)
    print(f"strictness: {_fmt2(state.config.strictness)}")
    print(f"features: {state.config.n_features}")
    print(f"points seen: {state.points_seen}")
    n = len(state.clusters)
    print(f"{n} cluster" + ("" if n == 1 else "s"))
    for c in state.clusters:
        cent = " ".join(_fmt2(v) for v in c.centroid())
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
    p_run.set_defaults(func=cmd_run)

    p_resume = sub.add_parser(
        "resume", help="continue from a snapshot (strictness comes from it)"
    )
    p_resume.add_argument(
        "--snapshot-in", required=True, metavar="PATH", help="snapshot to continue from"
    )
    add_io(p_resume)
    p_resume.set_defaults(func=cmd_resume)

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
        print(f"{PROG}: error: {_diagnostic(err)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
