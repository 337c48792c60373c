#!/usr/bin/env python3
"""Benchmark of the strictcluster CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload anchored-s90 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root. The benchmark writes each workload's seeded
inputs to a scratch directory under ``perfbench/.work`` and then:

* ``--trace 0`` runs the real CLI (``python -m strictcluster``) as a child
  process, one invocation at a time, repeating the workload for
  ``--seconds`` and reporting the end-to-end metrics as medians over the
  repetitions. Each child's wall time is scaled to a reference CPU speed,
  measured by a probe on the child's CPU while it runs (see ``launcher.py``);
  the unscaled figures are printed beside them;
* ``--trace 1`` calls ``strictcluster.cli.main`` in-process, alternating
  repetitions with and without the spans of ``spans.py``, and reports the
  per-layer metrics.

Every repetition's outputs are checked against the SHA-256 digests recorded
in ``expected_hashes.json`` for the workload, size and seed (for a seed with
none recorded, against the first repetition). The first repetition is also
checked in depth: records against the final snapshot, ``verify_state``
replay of the stream, ``inspect`` on every snapshot written, and the number
of skipped lines. A point fails when its invocation exits non-zero or a
check covering it fails; any failure makes the command exit 1.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The lines before it list
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
HASHES = BENCH / "expected_hashes.json"
SETUP_PER_REP = 3  # empty-input invocations timed after each repetition
# Wall times are scaled to a CPU on which launcher.probe_kernel takes this
# long (about its time beside a child on the 2-core x86-64 build VM at the
# faster of its speeds).
REF_PROBE_S = 0.0004
SKIP_NOTE = b"strictcluster: skipped line "
# One self time per layer; together they add up to trace.wall_s.
SELF_TIMES = ("cli.self_s", "ingestion.self_s", "model.self_s", "engine.self_s",
              "persistence.self_s", "similarity.busy_s")


class Launcher:
    """Client of ``launcher.py``: runs one child at a time, waits for it."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self._env = env

    def run(self, args: list[str], stdout: Path, stderr: Path) -> dict:
        """Run ``python -m strictcluster <args>``; see launcher.py for the reply."""
        req = {
            "argv": [sys.executable, "-m", "strictcluster", *args],
            "cwd": str(ROOT),
            "env": self._env,
            "stdout": str(stdout),
            "stderr": str(stderr),
        }
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def scaled_wall(res: dict) -> float:
    """A child's wall time at the reference CPU speed (see launcher.py)."""
    return res["wall_s"] * REF_PROBE_S / res["probe_s"]


def sha256_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def digests(plan) -> dict[str, str]:
    """Digests of the outputs that the recorded hashes cover."""
    d = {
        "assignments": sha256_files([plan.path(i.output) for i in plan.invocations]),
        "snapshot": sha256_files([plan.final_snapshot]),
    }
    if plan.workload.cli_trace:
        d["trace"] = sha256_files([plan.path(i.stderr) for i in plan.invocations])
    return d


def count_skips(plan) -> int:
    return sum(
        plan.path(i.stderr).read_bytes().count(SKIP_NOTE) for i in plan.invocations
    )


def scored_rows(plan) -> int:
    """Cluster rows scored, derived from the records: clusters before each point."""
    rows = clusters = 0
    for inv in plan.invocations:
        with open(plan.path(inv.output), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["kind"] == "assignment":
                    rows += clusters
                    clusters += rec["created_new"]
    return rows


def check_outputs(plan, launcher: Launcher) -> list[str]:
    """In-depth checks of one repetition's outputs; returns the problems found."""
    from strictcluster import load_snapshot, verify_state

    wl = plan.workload
    problems = []
    state = load_snapshot(plan.final_snapshot)
    owner = {s: c.id for c in state.clusters for s in c.member_seqs}
    seq = created = 0
    for inv in plan.invocations:
        with open(plan.path(inv.output), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if wl.summary:
            summary = records.pop()
            if summary.get("kind") != "summary" or summary["points_seen"] != seq + inv.points:
                problems.append(f"{inv.output}: bad summary record")
        if len(records) != inv.points:
            problems.append(f"{inv.output}: {len(records)} records for {inv.points} points")
        for rec in records:
            label = f"p{seq}" if wl.fmt == "jsonl" else None
            if (rec.get("kind"), rec.get("seq"), rec.get("label")) != ("assignment", seq, label):
                problems.append(f"{inv.output}: unexpected record {rec}")
                break
            if owner.get(seq) != rec["cluster_id"]:
                problems.append(f"point {seq}: record and snapshot disagree on its cluster")
                break
            created += rec["created_new"]
            seq += 1
    if wl.summary and summary.get("clusters") != len(state.clusters):
        problems.append("summary cluster count differs from the snapshot")
    if created != len(state.clusters):
        problems.append(f"{created} clusters founded, snapshot has {len(state.clusters)}")
    try:
        verify_state(state, plan.points)
    except Exception as err:  # any failure of the audit is a finding
        problems.append(f"verify_state replay: {err}")
    skips = count_skips(plan)
    if skips != plan.expected_skips:
        problems.append(f"{skips} lines skipped, {plan.expected_skips} injected")
    for inv in plan.invocations:
        res = launcher.run(["inspect", "--snapshot-in", str(plan.path(inv.snapshot_out))],
                           plan.path("inspect.out"), plan.path("inspect.err"))
        if res["rc"] != 0:
            problems.append(f"inspect {inv.snapshot_out} exited {res['rc']}")
    return problems


def checked_first_rep(plan, launcher: Launcher, recorded: dict | None):
    """Check the first repetition in depth.

    Returns the problems found, the digests every later repetition must
    match (the recorded ones, if any) and the digests observed.
    """
    try:
        problems = check_outputs(plan, launcher)
        observed = digests(plan)
    except Exception as err:  # a missing or unreadable output is a finding
        return [f"outputs unreadable: {err!r}"], None, None
    if recorded is not None and observed != recorded:
        problems.append("output digests differ from the recorded ones")
    return problems, recorded or observed, observed


def rep_ok(plan, rcs: list[int], ref: dict | None) -> bool:
    if any(rc != 0 for rc in rcs) or ref is None:
        return False
    try:
        return digests(plan) == ref
    except OSError:
        return False


# -- end to end ---------------------------------------------------------------


def run_untraced(plan, seconds: float, launcher: Launcher, recorded: dict | None) -> dict:
    def rep():
        return [launcher.run(inv.args, plan.path(inv.stdout), plan.path(inv.stderr))
                for inv in plan.invocations]

    # Untimed first repetition: fills the bytecode caches and gives the
    # outputs that the in-depth checks read.
    first = rep()
    problems, ref, observed = checked_first_rep(plan, launcher, recorded)
    if any(r["rc"] != 0 for r in first):
        problems.append(f"exit codes {[r['rc'] for r in first]}")

    # walls[i] / raw_walls[i]: the scaled / unscaled walls of invocation i.
    walls = [[] for _ in plan.invocations]
    raw_walls = [[] for _ in plan.invocations]
    setups, raw_setups, slowdowns = [], [], []
    peak_kb = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not setups or time.perf_counter() < deadline:
        results = rep()
        attempted += plan.valid_points
        if not rep_ok(plan, [r["rc"] for r in results], ref):
            failed += plan.valid_points
        for i, r in enumerate(results):
            walls[i].append(scaled_wall(r))
            raw_walls[i].append(r["wall_s"])
        # Set-up samples are spread over the whole window, like the reps.
        setup = [launcher.run(plan.setup.args, plan.path(plan.setup.stdout),
                              plan.path(plan.setup.stderr)) for _ in range(SETUP_PER_REP)]
        if any(r["rc"] != 0 for r in setup) and "empty input failed" not in problems:
            problems.append("empty input failed")
        setups += [scaled_wall(r) for r in setup]
        raw_setups += [r["wall_s"] for r in setup]
        slowdowns += [r["probe_s"] / REF_PROBE_S for r in results + setup]
        peak_kb = max([peak_kb] + [r["maxrss_kb"] for r in results + setup])

    def rate(per_invocation: list[list[float]]) -> float:
        # Each invocation's median wall, summed: the invocations of a
        # repetition meet different CPU speeds, so their medians are steadier
        # than the median of the repetitions' sums.
        return plan.valid_points / sum(statistics.median(w) for w in per_invocation)

    return {
        "problems": problems,
        "digests": observed,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": {
            "points_per_s": (rate(walls), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        },
        "notes": [f"{len(walls[0])} timed repetitions of {plan.valid_points} points, "
                  f"{len(setups)} of the empty input",
                  f"unscaled wall times: points_per_s {rate(raw_walls)!r} 1/s, "
                  f"setup_s {statistics.median(raw_setups)!r} s; CPU slowdown against "
                  f"the reference, from the probe: median {statistics.median(slowdowns):.3f}, "
                  f"range {min(slowdowns):.3f}..{max(slowdowns):.3f}"],
    }


# -- traced, in-process ---------------------------------------------------------


def in_process_rep(plan, main) -> tuple[list[int], float]:
    rcs, wall = [], 0.0
    for inv in plan.invocations:
        with open(plan.path(inv.stdout), "w", encoding="utf-8") as out, \
                open(plan.path(inv.stderr), "w", encoding="utf-8", newline="\n") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rcs.append(main(inv.args))
            wall += time.perf_counter() - t0
    return rcs, wall


def span_guard(plan, tracer) -> list[str]:
    """Every wrapper must have intercepted the calls the workload makes."""
    n = plan.valid_points
    resumes = sum(inv.snapshot_in is not None for inv in plan.invocations)
    calls = tracer.calls
    expect = [
        ("engine.assign", calls["engine.assign"] == n, f"== {n}"),
        ("ingestion", calls["ingestion"] >= n, f">= {n}"),
        ("model.validate_point", calls["model.validate_point"] >= n, f">= {n}"),
        ("engine.state", calls["engine.state"] >= len(plan.invocations), ">= invocations"),
        ("persistence.save", calls["persistence.save"] == len(plan.invocations), "== invocations"),
        ("persistence.load", calls["persistence.load"] == resumes, f"== {resumes}"),
        ("engine.from_state", calls["engine.from_state"] == resumes, f"== {resumes}"),
        ("model.verify_state", calls["model.verify_state"] == resumes, f"== {resumes}"),
    ]
    if plan.workload.cli_trace:
        expect.append(("similarity", calls["similarity"] > 0, "> 0"))
    problems = [f"span {name}: {calls[name]} calls, expected {want}"
                for name, ok, want in expect if not ok]
    if tracer.rows_scored != scored_rows(plan):
        problems.append("engine.rows_scored disagrees with the records")
    if tracer.self_sum_error() > 1e-6:
        problems.append(f"self times miss the traced wall by {tracer.self_sum_error()} s")
    return problems


def layer_metrics(plan, tracer) -> dict[str, tuple[float, str]]:
    b, st = tracer.busy, tracer.self_time
    n = plan.valid_points
    rows = tracer.rows_scored
    trace_bytes = sum(
        sum(len(line) for line in plan.path(inv.stderr).read_bytes().splitlines(True)
            if line.startswith(b"[trace]"))
        for inv in plan.invocations
    )
    m = {
        "ingestion.busy_s": (b["ingestion"], "s"),
        "ingestion.self_s": (st["ingestion"], "s"),
        "ingestion.us_per_point": (b["ingestion"] / n * 1e6, "us"),
        "ingestion.lines_read": (sum(
            plan.path(inv.input).read_bytes().count(b"\n") for inv in plan.invocations), "count"),
        "ingestion.lines_skipped": (count_skips(plan), "count"),
        "model.validate_point_s": (b["model.validate_point"], "s"),
        "model.verify_state_s": (b["model.verify_state"], "s"),
        "model.self_s": (st["model.validate_point"] + st["model.verify_state"], "s"),
        "engine.assign.busy_s": (b["engine.assign"], "s"),
        "engine.assign.p50_us": (statistics.median(tracer.assign_s) * 1e6, "us"),
        "engine.assign.p99_us": (statistics.quantiles(tracer.assign_s, n=100)[98] * 1e6, "us"),
        "engine.rows_scored": (rows, "count"),
        "engine.ns_per_row": (b["engine.assign"] / max(rows, 1) * 1e9, "ns"),
        "engine.clusters": (tracer.clusters, "count"),
        "engine.join_share": (tracer.joins / n, "ratio"),
        "engine.state_s": (b["engine.state"], "s"),
        "engine.from_state_s": (b["engine.from_state"], "s"),
        "engine.self_s": (st["engine.assign"] + st["engine.state"] + st["engine.from_state"], "s"),
        "persistence.save_s": (b["persistence.save"], "s"),
        "persistence.load_s": (b["persistence.load"], "s"),
        "persistence.snapshot_bytes": (plan.final_snapshot.stat().st_size, "bytes"),
        "persistence.self_s": (st["persistence.save"] + st["persistence.load"], "s"),
        "similarity.calls": (tracer.calls["similarity"], "count"),
        "similarity.busy_s": (b["similarity"], "s"),
        "cli.self_s": (st["cli.main"], "s"),
        "cli.output_bytes": (sum(plan.path(i.output).stat().st_size for i in plan.invocations), "bytes"),
        "cli.trace_bytes": (trace_bytes, "bytes"),
        "trace.wall_s": (tracer.wall, "s"),
    }
    for path, count in tracer.paths.items():
        m[f"engine.path.{path}"] = (count, "count")
    return m


def run_traced(plan, seconds: float, launcher: Launcher, recorded: dict | None) -> dict:
    import spans
    import strictcluster.cli as cli

    first_rcs, _ = in_process_rep(plan, cli.main)  # warm-up, untimed
    problems, ref, observed = checked_first_rep(plan, launcher, recorded)
    if any(rc != 0 for rc in first_rcs):
        problems.append(f"exit codes {first_rcs}")

    def traced_rep():
        tracer = spans.Tracer()
        with spans.instrument(tracer) as main:
            rcs, wall = in_process_rep(plan, main)
        if rep_ok(plan, rcs, ref):
            problems.extend(p for p in span_guard(plan, tracer) if p not in problems)
            traced.append(layer_metrics(plan, tracer))
            return wall, 0
        return wall, plan.valid_points

    def plain_rep():
        rcs, wall = in_process_rep(plan, cli.main)
        return wall, 0 if rep_ok(plan, rcs, ref) else plan.valid_points

    # Traced and untraced repetitions run in pairs, in alternating order;
    # the overhead is the median of the paired differences, which cancels
    # machine speed that drifts slower than one pair.
    traced, overheads = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not overheads or time.perf_counter() < deadline:
        if len(overheads) % 2 == 0:
            (t_wall, t_failed), (p_wall, p_failed) = traced_rep(), plain_rep()
        else:
            (p_wall, p_failed), (t_wall, t_failed) = plain_rep(), traced_rep()
        overheads.append(t_wall - p_wall)
        attempted += 2 * plan.valid_points
        failed += t_failed + p_failed

    metrics = {}
    for name, (_, unit) in (traced[0].items() if traced else ()):
        # Counts repeat exactly; only times need a median.
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (pick(t[name][0] for t in traced), unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    notes = [f"{len(overheads)} pairs of traced and untraced repetitions"]
    if traced:
        wall = metrics["trace.wall_s"][0]
        shares = ", ".join(f"{name.split('.')[0]} {metrics[name][0] / wall:.1%}"
                           for name in SELF_TIMES)
        notes.append(f"self-time shares of the traced wall: {shares}")
    return {
        "problems": problems,
        "digests": observed,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": metrics,
        "notes": notes,
    }


# -- driver -----------------------------------------------------------------------


def load_hashes(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 launcher: Launcher, hashes: dict) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]
    n = workloads.SIZES[name][1 if smoke else 0]
    recorded = hashes.get(name, {}).get(str(n), {}).get(str(seed))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        plan = workloads.prepare(wl, seed, n, workdir)
        runner = run_traced if trace else run_untraced
        result = runner(plan, seconds, launcher, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["recorded"] = recorded
    result["key"] = (name, str(n), str(seed))
    return result


def report(name: str, result: dict) -> None:
    for note in result["notes"]:
        print(f"{name}: {note}")
    if result["recorded"] is None:
        status = "no digests recorded for this seed"
    elif result["recorded"] == result["digests"]:
        status = "match the recorded digests"
    else:
        status = "DIFFER from the recorded digests"
    print(f"{name}: outputs {status}: {json.dumps(result['digests'])}")
    for problem in result["problems"]:
        print(f"{name}: FAILED CHECK: {problem}")
    share = result["failed"] / result["attempted"]
    print(f"{name}: error_share = {share!r} ratio ({result['failed']} of {result['attempted']} points failed)")
    for metric, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name}: {metric} = {value!r} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="anchored-s90, anchored-s60, wide-jsonl-resume, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload repeats its timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the in-process traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="a few hundred points per workload, for the bench's own tests")
    parser.add_argument("--hashes", type=Path, default=HASHES,
                        help="recorded output digests (default perfbench/expected_hashes.json)")
    parser.add_argument("--record-hashes", action="store_true",
                        help="add the digests of a seed with none recorded, when every check passes")
    args = parser.parse_args(argv)

    if not (SRC / "strictcluster" / "cli.py").is_file() or not (ROOT / "tests" / "generators.py").is_file():
        print(f"perfbench: {ROOT} holds no strictcluster sources (src/, tests/generators.py)",
              file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(BENCH)]
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)

    # Start the launcher while this process is still small (see launcher.py).
    launcher = Launcher()
    try:
        hashes = load_hashes(args.hashes)
        modes = (False, True) if args.workload == "all" else (bool(args.trace),)
        results = []
        for name in names:
            for trace in modes:
                res = run_workload(name, args.seed, args.seconds, trace, args.smoke,
                                   launcher, hashes)
                report(name, res)
                results.append((name, res))
    finally:
        launcher.close()

    correct = all(not r["problems"] and r["failed"] == 0 for _, r in results)
    if args.record_hashes and correct:
        for _, res in results:
            if res["recorded"] is None:
                wl, n, seed = res["key"]
                hashes.setdefault(wl, {}).setdefault(n, {})[seed] = res["digests"]
        args.hashes.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    prefix = len(results) > 1
    metrics = {
        (f"{name}/{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, res in results
        for metric, (value, unit) in res["metrics"].items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
