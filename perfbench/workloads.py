"""The benchmark's workloads: seeded inputs and the CLI invocations over them.

Inputs come from the test suite's own generators (``tests/generators.py``),
so the benchmark streams are the streams the acceptance gates use. Each
workload is written to files in a work directory before any timing starts;
the CLI sees only those files. Why each workload exists is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from generators import anchored_points, throughput_points  # tests/generators.py

# Valid points per workload run, full size and smoke size.
SIZES = {
    "anchored-s90": (20_000, 400),
    "anchored-s60": (20_000, 400),
    "wide-jsonl-resume": (6_000, 300),
}

# One malformed line follows every MALFORMED_EVERY-th valid point of the
# wide workload. The cycle mixes broken JSON, a missing key, a wrong width
# and a negative value, so every kind of skip is exercised.
MALFORMED_EVERY = 100
_MALFORMED = (
    '{"id": "bad", "features": [1.0, 2.0',
    '{"id": "bad"}',
    json.dumps({"id": "bad", "features": [1.0] * 99}),
    json.dumps({"id": "bad", "features": [-1.0] + [1.0] * 99}),
    "not json at all",
)


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # csv or jsonl
    strictness: float
    n_features: int
    segments: int  # 1 = one `run`; more = `run` then a chain of `resume`
    cli_trace: bool  # pass --trace, and hash the trace on stderr
    summary: bool  # pass --summary
    malformed: bool  # inject malformed lines, run with --on-error skip


WORKLOADS = {
    w.name: w
    for w in (
        Workload("anchored-s90", "csv", 90.0, 10, 1, False, True, False),
        Workload("anchored-s60", "csv", 60.0, 10, 1, True, True, False),
        Workload("wide-jsonl-resume", "jsonl", 75.0, 100, 6, False, False, True),
    )
}


@dataclass
class Invocation:
    args: list[str]  # CLI arguments after the program name
    points: int  # valid points this invocation assigns
    input: str
    output: str
    stdout: str
    stderr: str
    snapshot_in: str | None
    snapshot_out: str | None


@dataclass
class Plan:
    workload: Workload
    workdir: Path
    points: list[list[float]]  # every valid point, in stream order
    invocations: list[Invocation]
    setup: Invocation  # the last invocation's flags, fed an empty input
    expected_skips: int

    @property
    def valid_points(self) -> int:
        return len(self.points)

    @property
    def final_snapshot(self) -> Path:
        return self.workdir / self.invocations[-1].snapshot_out

    def path(self, name: str) -> Path:
        return self.workdir / name


def generate_points(wl: Workload, seed: int, n: int) -> list[list[float]]:
    rng = random.Random(seed)
    if wl.n_features == 10:
        # The criterion-6 stream of tests/test_acceptance.py.
        return throughput_points(rng, n, n_anchors=300, outlier_rate=0.04)
    return anchored_points(
        rng, n, wl.n_features, n_anchors=300, spread=0.15, outlier_rate=0.04
    )


def _line(wl: Workload, seq: int, point: list[float]) -> str:
    if wl.fmt == "csv":
        return ",".join(repr(v) for v in point)
    return json.dumps({"id": f"p{seq}", "features": point})


def _invocation(wl: Workload, workdir: Path, i: int, points: int, inp: str,
                snap_in: str | None, out: str, snap_out: str) -> Invocation:
    def at(name: str) -> str:
        return str(workdir / name)

    if snap_in is None:
        args = ["run", "--strictness", repr(wl.strictness)]
    else:
        args = ["resume", "--snapshot-in", at(snap_in)]
    args += ["--format", wl.fmt, "--input", at(inp), "--output", at(out),
             "--snapshot-out", at(snap_out)]
    if wl.malformed:
        args += ["--on-error", "skip"]
    if wl.cli_trace:
        args.append("--trace")
    if wl.summary:
        args.append("--summary")
    return Invocation(args, points, inp, out, f"stdout-{i}.txt", f"stderr-{i}.txt",
                      snap_in, snap_out)


def prepare(wl: Workload, seed: int, n: int, workdir: Path) -> Plan:
    """Write the workload's input files and return the invocations over them."""
    points = generate_points(wl, seed, n)
    per_segment = -(-n // wl.segments)
    invocations = []
    skips = 0
    for i in range(wl.segments):
        lo, hi = i * per_segment, min(n, (i + 1) * per_segment)
        name = f"input-{i}.{wl.fmt}"
        with open(workdir / name, "w", encoding="utf-8", newline="\n") as fh:
            for seq in range(lo, hi):
                fh.write(_line(wl, seq, points[seq]) + "\n")
                # Never the first line of a run: a wrong-width first line
                # would fix the stream's width.
                if wl.malformed and seq % MALFORMED_EVERY == MALFORMED_EVERY - 1:
                    fh.write(_MALFORMED[skips % len(_MALFORMED)] + "\n")
                    skips += 1
        snap_in = None if i == 0 else f"state-{i - 1}.snap"
        invocations.append(_invocation(wl, workdir, i, hi - lo, name, snap_in,
                                       f"out-{i}.jsonl", f"state-{i}.snap"))
    empty = f"empty.{wl.fmt}"
    (workdir / empty).write_text("", encoding="utf-8")
    last = invocations[-1]
    setup_snap_in = None if last.snapshot_in is None else last.snapshot_out
    setup = _invocation(wl, workdir, len(invocations), 0, empty, setup_snap_in,
                        "setup-out.jsonl", "setup-state.snap")
    return Plan(wl, workdir, points, invocations, setup, skips)
