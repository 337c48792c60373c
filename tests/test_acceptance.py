"""The six acceptance gates, one test each.

Every test prints a live "[criterion N] PASS/FAIL" line (capture is
bypassed), so any pytest log shows which gates ran and how they ended.
Tolerances are pinned in the assertions below and are not configurable.
"""

import contextlib
import json
import math
import random
import time

from strictcluster import (
    ClusteringEngine,
    Config,
    DecisionPath,
    load_snapshot,
    run_stream,
    save_snapshot,
    verify_state,
)
from strictcluster.engine import feature_similarity, should_match_features
from strictcluster.model import validate_point

from generators import power_of_two_factors, random_case, throughput_points
from golden import (
    GOLDEN_CENTROIDS,
    GOLDEN_MEMBERSHIPS,
    GOLDEN_N_FEATURES,
    GOLDEN_POINTS,
    GOLDEN_STRICTNESS,
    GOLDEN_TABLES,
    cents,
)
from reference import assign_profiled, naive_centroid, naive_run, profile_pairs

GOLDEN_CONFIG = Config(GOLDEN_STRICTNESS, GOLDEN_N_FEATURES)


@contextlib.contextmanager
def criterion(capsys, number, title):
    with capsys.disabled():
        try:
            yield
        except BaseException:
            print(f"[criterion {number}] FAIL  {title}", flush=True)
            raise
        print(f"[criterion {number}] PASS  {title}", flush=True)


def test_criterion_1_golden_trace(capsys):
    with criterion(capsys, 1, "six-point stream: 3 clusters, memberships, centroids to 1e-9, < 1 s"):
        t0 = time.perf_counter()
        state, _ = run_stream(GOLDEN_CONFIG, GOLDEN_POINTS)
        elapsed = time.perf_counter() - t0
        assert len(state.clusters) == 3
        for cluster in state.clusters:
            assert cluster.member_seqs == GOLDEN_MEMBERSHIPS[cluster.id]
            for got, want in zip(naive_centroid(cluster), GOLDEN_CENTROIDS[cluster.id]):
                assert abs(got - want) <= 1e-9
        assert elapsed < 1.0


def test_criterion_2_similarity_tables(capsys):
    with criterion(capsys, 2, "similarity tables match to two decimals (0.01)"):
        eng = ClusteringEngine(GOLDEN_CONFIG)
        computed = {}
        for seq, point in enumerate(GOLDEN_POINTS):
            dp = validate_point(point, GOLDEN_N_FEATURES)
            for cid in range(1, eng.cluster_count + 1):
                centroid = naive_centroid(eng.state().clusters[cid - 1])
                computed[(seq, cid)] = [
                    feature_similarity(d, c) for d, c in zip(dp.features, centroid)
                ]
            eng.assign(dp)
        assert set(GOLDEN_TABLES) <= set(computed)
        for key, expected_row in GOLDEN_TABLES.items():
            assert len(computed[key]) == len(expected_row)
            for got, want in zip(computed[key], expected_row):
                assert got is not None
                assert abs(cents(got) - cents(want)) <= 1, (key, got, want)


def test_criterion_3_tiebreak_numerics(capsys):
    with criterion(capsys, 3, "tie at 8 matches resolved by averages 87.87 vs 93.63"):
        eng = ClusteringEngine(GOLDEN_CONFIG)
        for point in GOLDEN_POINTS[:4]:
            eng.assign(point)
        outcome, *arrays = assign_profiled(eng, GOLDEN_POINTS[4])
        (matched1, avg1), _, (matched3, avg3) = profile_pairs(*arrays)
        assert matched1 == 8
        assert matched3 == 8
        assert abs(avg1 - 87.87) <= 0.01
        assert abs(avg3 - 93.63) <= 0.01
        assert outcome.assigned_cluster_id == 3
        assert outcome.decision_path is DecisionPath.AVG_TIEBREAK
        assert not outcome.created_new


def test_criterion_4_required_match_counts(capsys):
    with criterion(capsys, 4, "required matches: (60, 10) -> 6 and (70, 20) -> 14, exactly"):
        assert should_match_features(Config(60.0, 10)) == 6
        assert should_match_features(Config(70.0, 20)) == 14


def _replay_invariant(n_streams):
    rng = random.Random(501)
    for _ in range(n_streams):
        strictness, n, points = random_case(rng, rng.randint(1, 60))
        state, _ = run_stream(Config(strictness, n), points)
        verify_state(state, points)
        for cluster in state.clusters:
            centroid = naive_centroid(cluster)
            for j in range(n):
                # independent summation route on purpose
                mean = math.fsum(points[s][j] for s in cluster.member_seqs) / cluster.member_count
                assert math.isclose(centroid[j], mean, rel_tol=1e-9, abs_tol=1e-12)


def _scaling_equivariance(n_streams):
    rng = random.Random(502)
    for _ in range(n_streams):
        strictness, n, points = random_case(rng, rng.randint(2, 60))
        factors = power_of_two_factors(rng, n)
        scaled = [[v * f for v, f in zip(p, factors)] for p in points]
        eng_a = ClusteringEngine(Config(strictness, n))
        eng_b = ClusteringEngine(Config(strictness, n))
        for p, q in zip(points, scaled):
            out_a, *prof_a = assign_profiled(eng_a, p)
            out_b, *prof_b = assign_profiled(eng_b, q)
            assert profile_pairs(*prof_a) == profile_pairs(*prof_b)
            assert (out_a.assigned_cluster_id, out_a.created_new, out_a.decision_path) == (
                out_b.assigned_cluster_id,
                out_b.created_new,
                out_b.decision_path,
            )
        state_a, state_b = eng_a.state(), eng_b.state()
        for ca, cb in zip(state_a.clusters, state_b.clusters):
            assert ca.member_seqs == cb.member_seqs
            for va, vb, f in zip(naive_centroid(ca), naive_centroid(cb), factors):
                assert vb == va * f  # power-of-two factors keep this exact


def _oracle_equivalence(n_long, n_short):
    rng = random.Random(503)
    lengths = [rng.randint(1, 200) for _ in range(n_long)]
    lengths += [rng.randint(1, 80) for _ in range(n_short)]
    for length in lengths:
        strictness, n, points = random_case(rng, length)
        state, outcomes = run_stream(Config(strictness, n), points)
        clusterer, results = naive_run(strictness, n, points)
        got = [
            (o.assigned_cluster_id, o.created_new, o.decision_path.value) for o in outcomes
        ]
        assert got == [(cid, created, path) for cid, created, path, _ in results]
        for outcome, (_, created, _, matched) in zip(outcomes, results):
            if not created:
                assert outcome.matched_count == matched
        assert [list(c.member_seqs) for c in state.clusters] == clusterer.members
        for cluster in state.clusters:
            # bit-for-bit, not approximately: same summation order by design
            assert naive_centroid(cluster) == clusterer.centroid(cluster.id - 1)


def _suffix_resume(n_splits, tmp_path):
    rng = random.Random(504)
    done = 0
    while done < n_splits:
        strictness, n, points = random_case(rng, rng.randint(4, 80))
        full, _ = run_stream(Config(strictness, n), points)
        for _ in range(4):
            cut = rng.randint(0, len(points))
            head, _ = run_stream(Config(strictness, n), points[:cut])
            snap = tmp_path / "resume.snap"
            save_snapshot(head, snap)
            eng = ClusteringEngine.from_state(load_snapshot(snap))
            for p in points[cut:]:
                eng.assign(p)
            final = eng.state()
            assert final == full
            for a, b in zip(final.clusters, full.clusters):
                assert repr(a.feature_sums) == repr(b.feature_sums)
            done += 1


def _determinism(n_streams):
    rng = random.Random(505)
    for _ in range(n_streams):
        strictness, n, points = random_case(rng, rng.randint(1, 120))
        blobs = []
        for _ in range(2):
            state, outcomes = run_stream(Config(strictness, n), points)
            realized = {
                "assignments": [
                    [o.point_seq, o.assigned_cluster_id, o.created_new, o.decision_path.value]
                    for o in outcomes
                ],
                "members": [list(c.member_seqs) for c in state.clusters],
                "sums": [[repr(v) for v in c.feature_sums] for c in state.clusters],
            }
            blobs.append(json.dumps(realized, separators=(",", ":")).encode())
        assert blobs[0] == blobs[1]


def test_criterion_5_property_suite(capsys, tmp_path):
    with criterion(capsys, 5, "property suite over random streams"):
        _replay_invariant(1000)
        print("  - centroid-is-mean replay held on 1000 streams (1e-9 relative)")
        _scaling_equivariance(200)
        print("  - scaling equivariance held on 200 streams")
        _oracle_equivalence(200, 800)
        print("  - naive-reference equivalence held on 1000 streams")
        _suffix_resume(100, tmp_path)
        print("  - snapshot suffix-resume equivalence held on 100 split points")
        _determinism(50)
        print("  - byte-identical determinism held on 50 streams")


def test_criterion_6_throughput(capsys):
    with criterion(capsys, 6, "100k x 10 at strictness 90: < 60 s, per-point cost at worst linear in clusters"):
        rng = random.Random(606)
        points = throughput_points(rng, 100_000, n_anchors=300, outlier_rate=0.04)
        eng = ClusteringEngine(Config(90.0, 10))
        window = 10_000
        per_point, k_mid = [], []
        start = time.perf_counter()
        for w in range(10):
            chunk = points[w * window : (w + 1) * window]
            k_before = eng.cluster_count
            t0 = time.perf_counter()
            for p in chunk:
                eng.assign(p)
            per_point.append((time.perf_counter() - t0) / window)
            k_mid.append((k_before + eng.cluster_count) / 2)
        total = time.perf_counter() - start
        print(
            f"  - {total:.2f} s total, {eng.cluster_count} clusters,"
            f" per-point {per_point[0] * 1e6:.0f} -> {per_point[-1] * 1e6:.0f} us"
        )
        assert eng.state().points_seen == 100_000
        assert total < 60.0
        assert eng.cluster_count >= 500  # "many clusters" is part of the setup
        k_growth = k_mid[-1] / k_mid[0]
        assert k_growth >= 3.0  # cluster count must actually grow for the next check to mean anything
        cost_growth = per_point[-1] / per_point[0]
        assert cost_growth <= 3.0 * k_growth
