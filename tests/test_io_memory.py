"""The snapshot and summary writers hold one cluster's text, not the file's.

tracemalloc counts what a writer allocates beyond the state it is given.
A writer that builds the whole document as one string allocates several
times the file's size; one that writes a cluster at a time allocates a
fraction of it.
"""

import random
import tracemalloc

from strictcluster import Cluster, ClusteringEngine, ClusterState, Config, save_snapshot
from strictcluster.cli import _write_summary


def wide_state(k=1500, n=12):
    rng = random.Random(3)
    clusters = tuple(
        Cluster(
            id=i + 1,
            member_count=2,
            feature_sums=tuple(rng.uniform(0.0, 1e6) for _ in range(n)),
            member_seqs=(2 * i, 2 * i + 1),
        )
        for i in range(k)
    )
    return ClusterState(Config(75.0, n), clusters, 2 * k)


def peak_allocated(write):
    """Peak bytes allocated by ``write()`` beyond what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        # once first: what the first traced call leaves in caches and free
        # lists is not the writer's
        write()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_save_snapshot_allocates_less_than_the_file(tmp_path):
    state = wide_state()
    path = tmp_path / "state.snap"
    peak = peak_allocated(lambda: save_snapshot(state, path))
    size = path.stat().st_size
    assert size > 300_000
    assert peak < size, (peak, size)


def test_summary_writer_allocates_less_than_the_record(tmp_path):
    state = wide_state()
    engine = ClusteringEngine.from_state(state)
    path = tmp_path / "summary.jsonl"

    def write():
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            _write_summary(out, engine, state)

    peak = peak_allocated(write)
    size = path.stat().st_size
    assert size > 300_000
    assert peak < size, (peak, size)
