"""Spans around the public callables of each strictcluster layer.

The traced run calls ``strictcluster.cli.main`` in-process with the
callables below replaced by timing wrappers. The wrappers live here, in the
benchmark, not in the program: ``instrument()`` patches them in and puts the
originals back on exit. A span's self time is its duration minus the time of
the spans it encloses, so the self times of all spans add up to the time of
the ``cli.main`` spans.

A *leaf* span pushes no frame, which keeps the cost of the very frequent
spans low; a leaf that started calling another wrapped callable would count
that time twice, and ``Tracer.self_sum_error`` would show it.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator

import strictcluster.cli as cli
import strictcluster.ingestion as ingestion
import strictcluster.persistence as persistence
from strictcluster.engine import ClusteringEngine
from strictcluster.ingestion import PointStream

DECISION_PATHS = (
    "EMPTY_LIST_NEW_CLUSTER",
    "NO_QUALIFIED_NEW_CLUSTER",
    "SINGLE_QUALIFIED",
    "MAX_MATCHED",
    "AVG_TIEBREAK",
)


class Tracer:
    """In-memory span totals: duration, self time and count per span name."""

    def __init__(self) -> None:
        self._stack = [[0.0]]  # one child-time accumulator per open node span
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.assign_s: list[float] = []
        self.rows_scored = 0
        self.joins = 0
        self.clusters = 0
        self.paths: Counter[str] = Counter({p: 0 for p in DECISION_PATHS})

    def _close(self, name: str, dur: float, child: float) -> None:
        self._stack[-1][0] += dur
        self.busy[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1

    def node(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self._close(name, dur, frame[0])

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - t0, 0.0)

        return wrapper

    def assign(self, fn: Callable) -> Callable:
        """Leaf span for ClusteringEngine.assign that also counts its work."""

        def wrapper(engine, *args, **kwargs):
            self.rows_scored += engine.cluster_count
            t0 = perf_counter()
            try:
                outcome = fn(engine, *args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._close("engine.assign", dur, 0.0)
                self.assign_s.append(dur)
            self.paths[outcome.decision_path.value] += 1
            self.joins += not outcome.created_new
            self.clusters = engine.cluster_count
            return outcome

        return wrapper

    def iteration(self, fn: Callable) -> Callable:
        """Node span around each step of a PointStream iteration."""

        def wrapper(stream):
            inner = fn(stream)
            while True:
                frame = [0.0]
                self._stack.append(frame)
                t0 = perf_counter()
                try:
                    point = next(inner)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    self._stack.pop()
                    self._close("ingestion", dur, frame[0])
                yield point

        return wrapper

    @property
    def wall(self) -> float:
        """Total time of the top-level spans (the cli.main calls)."""
        return self._stack[0][0]

    def self_sum_error(self) -> float:
        """How far the self times miss the top-level time; 0 up to rounding."""
        return abs(sum(self.self_time.values()) - self.wall)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Callable[[list[str]], int]]:
    """Patch the span wrappers in; yield a traced ``cli.main``."""
    patches = [
        (PointStream, "__iter__", tracer.iteration(PointStream.__iter__)),
        (ingestion, "validate_point",
         tracer.leaf("model.validate_point", ingestion.validate_point)),
        (ClusteringEngine, "assign", tracer.assign(ClusteringEngine.assign)),
        (ClusteringEngine, "state", tracer.leaf("engine.state", ClusteringEngine.state)),
        (ClusteringEngine, "from_state", classmethod(tracer.leaf(
            "engine.from_state", ClusteringEngine.__dict__["from_state"].__func__))),
        (cli, "save_snapshot", tracer.leaf("persistence.save", cli.save_snapshot)),
        (cli, "load_snapshot", tracer.node("persistence.load", cli.load_snapshot)),
        (persistence, "verify_state",
         tracer.leaf("model.verify_state", persistence.verify_state)),
        (cli, "feature_similarity", tracer.leaf("similarity", cli.feature_similarity)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer.node("cli.main", cli.main)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
