"""Start benchmark children one at a time and report what each cost.

The benchmark starts this process before it imports numpy or builds its
inputs, and launches every CLI invocation through it. Linux carries a
process's peak resident size over ``exec``, so a child forked straight from
the large benchmark process would report the benchmark's own size as its
``ru_maxrss``; forked from this small process it reports its own peak. For
the same reason this process imports nothing beyond the standard library.

This process pins itself, and so every child, to one CPU. While a child
runs, a probe thread here times a fixed pure-Python kernel on that CPU every
``PROBE_EVERY_S`` seconds (about 4% of the CPU). Shared virtual machines
change the speed of a virtual CPU by up to ~1.8x within seconds; the mean
probe time over a child's run, less the slowest and fastest tenth of the
samples, measures the speed the child ran at, and ``run.py`` scales the
child's wall time by it.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": str, "env": {...}, "stdout": path, "stderr": path}``,
answered by one JSON line on stdout, ``{"rc": int, "wall_s": float,
"maxrss_kb": int, "probe_s": float}``. The process exits when stdin
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

PROBE_EVERY_S = 0.01

# The probe's data is small, so that it stays in cache and its time follows
# the CPU's speed rather than what the child left in the cache.
_TABLE = {f"k{i}": i * 0.5 for i in range(256)}
_KEYS = sorted(_TABLE, reverse=True)
_RECORD = {"id": "p1", "features": [i * 0.125 for i in range(10)]}


def probe_kernel() -> float:
    """A fixed mix of integer, float, dict, string and JSON work, ~0.3 ms."""
    n = 0
    for i in range(400):
        n += i * i % 7
    x = 0.0
    for key in _KEYS:
        x += _TABLE[key] * 1.5
    for _ in range(20):
        x += len(json.loads(json.dumps(_RECORD))["features"])
    return n + x


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the slowest and fastest tenth (a preempted probe is slow)."""
    cut = len(samples) // 10
    kept = sorted(samples)[cut:len(samples) - cut]
    return sum(kept) / len(kept)


class Probe(threading.Thread):
    """Times ``probe_kernel`` at once and then every PROBE_EVERY_S until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while True:
            t0 = time.perf_counter()
            probe_kernel()
            self.samples.append(time.perf_counter() - t0)
            if self._halt.wait(PROBE_EVERY_S):
                return

    def stop(self) -> list[float]:
        self._halt.set()
        self.join()
        return self.samples


def main() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            probe = Probe()
            probe.start()
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(
                    req["argv"],
                    cwd=req["cwd"],
                    env=req["env"],
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=err,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                samples = probe.stop()
        # wait4 reaped the child; tell Popen so it does not try again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                 "probe_s": trimmed_mean(samples)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
