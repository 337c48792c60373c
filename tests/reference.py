"""Deliberately naive reimplementation of the clustering procedure.

Used as a differential oracle: pure-Python floats, no shared code with the
package, and O(points) centroid recomputation from the stored members every
time one is needed. Slow on purpose; any disagreement with the engine is a
bug in one of the two.

Summation orders are the natural ones (feature order within a point, member
order within a cluster), which are also the orders the engine uses, so
matching results can be asserted bit-for-bit, not just approximately.
"""

import math
from fractions import Fraction


def naive_similarity(value, centroid_value):
    if centroid_value == 0.0:
        return 100.0 if value == 0.0 else None
    if math.isinf(100.0 * value):  # value above about 1.8e306: divide first
        return 100.0 * (value / centroid_value)
    return 100.0 * value / centroid_value


def naive_profile(point, centroid, strictness):
    """(matched count, average of the folded qualifying similarities) of one
    point against one centroid; the average is None when nothing matched.

    A similarity v qualifies inside [strictness, 200 - strictness] and is
    folded to 200 - v above 100, so over- and undershoot average alike.
    """
    lo, hi = strictness, 200.0 - strictness
    matched = 0
    total = 0.0
    for d, c in zip(point, centroid):
        sim = naive_similarity(d, c)
        if sim is None or not (lo <= sim <= hi):
            continue
        matched += 1
        total += sim if sim <= 100.0 else 200.0 - sim
    return matched, (total / matched if matched else None)


def profile_pairs(matched, avgs):
    """The two arrays of assign's profile hook as naive_profile's pairs, one
    per cluster: (matched count, average), Python ints and floats, with None
    for the average where nothing matched."""
    return [(c, a if c else None) for c, a in zip(matched.tolist(), avgs.tolist())]


def assign_profiled(eng, point):
    """eng.assign(point) with the profile hook that --trace uses:
    (outcome, matched, avgs), the point's counts and averages against every
    cluster as they stood before it. For a read-only probe, call it on
    ClusteringEngine.from_state(eng.state())."""
    arrays = []
    outcome = eng.assign(point, _on_profile=lambda *got: arrays.extend(got))
    return outcome, *arrays


def naive_centroid(cluster):
    """A cluster value's centroid: each feature sum divided by its member count."""
    return [s / cluster.member_count for s in cluster.feature_sums]


def naive_should_match(strictness, n_features):
    """ceil(n * s / 100) with s read as the decimal that repr prints."""
    return math.ceil(Fraction(repr(float(strictness))) * n_features / 100)


class NaiveClusterer:
    """Single-pass clusterer that keeps whole points and no running sums."""

    def __init__(self, strictness, n_features):
        self.strictness = float(strictness)
        self.n_features = n_features
        self.points = []  # every point in arrival order
        self.members = []  # members[i] = list of seqs in cluster i+1, join order

    def centroid(self, idx):
        seqs = self.members[idx]
        cent = []
        for j in range(self.n_features):
            total = 0.0
            for seq in seqs:
                total += self.points[seq][j]
            cent.append(total / len(seqs))
        return cent

    def centroids(self):
        return [self.centroid(i) for i in range(len(self.members))]

    def add(self, point):
        """Place one point; returns (cluster_id, created_new, path, matched)."""
        point = [float(v) for v in point]
        assert len(point) == self.n_features
        need = naive_should_match(self.strictness, self.n_features)

        qualified = []  # (cluster index, matched count, avg of scaled sims)
        for idx in range(len(self.members)):
            matched, avg = naive_profile(point, self.centroid(idx), self.strictness)
            if matched >= need:
                qualified.append((idx, matched, avg))

        seq = len(self.points)
        self.points.append(point)

        if not qualified:
            self.members.append([seq])
            return len(self.members), True, "EMPTY_LIST_NEW_CLUSTER", None
        if len(qualified) == 1:
            path = "SINGLE_QUALIFIED"
            winner = qualified[0]
        else:
            top = max(q[1] for q in qualified)
            tied = [q for q in qualified if q[1] == top]
            if len(tied) == 1:
                path = "MAX_MATCHED"
                winner = tied[0]
            else:
                path = "AVG_TIEBREAK"
                winner = tied[0]  # earliest cluster keeps the point on a tie
                for cand in tied[1:]:
                    if cand[2] > winner[2]:
                        winner = cand
        self.members[winner[0]].append(seq)
        return winner[0] + 1, False, path, winner[1]


def naive_run(strictness, n_features, points):
    """Cluster a whole stream; returns (clusterer, list of add() results)."""
    clusterer = NaiveClusterer(strictness, n_features)
    results = [clusterer.add(p) for p in points]
    return clusterer, results
