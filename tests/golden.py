"""Hand-checked six-point example used across the test suite.

Ten features per point, strictness 60, so a cluster qualifies when at
least ceil(10 * 60 / 100) = 6 feature similarities land inside [60, 140].
The stream ends with three clusters of two members each. Every number
below was computed by hand from the ratio formula; similarity tables are
recorded to two decimals and asserted within +/-0.01 so the last digit's
rounding direction never matters.
"""

GOLDEN_STRICTNESS = 60.0
GOLDEN_N_FEATURES = 10

GOLDEN_POINTS = [
    [10, 15, 20, 25, 30, 35, 40, 45, 50, 55],
    [9, 35, 18, 45, 10, 32, 60, 41, 10, 20],
    [18, 13, 18, 27, 30, 38, 38, 41, 49, 57],
    [20, 20, 18, 5, 15, 34, 50, 43, 10, 50],
    [17, 17, 18, 15, 22, 35, 44, 43, 10, 53],
    [10, 32, 20, 45, 12, 55, 40, 55, 9, 25],
]

GOLDEN_CSV = "\n".join(",".join(str(v) for v in row) for row in GOLDEN_POINTS) + "\n"

# (cluster_id, created_new, decision path) per point, in arrival order.
GOLDEN_ASSIGNMENTS = [
    (1, True, "EMPTY_LIST_NEW_CLUSTER"),
    (2, True, "EMPTY_LIST_NEW_CLUSTER"),
    (1, False, "SINGLE_QUALIFIED"),
    (3, True, "EMPTY_LIST_NEW_CLUSTER"),
    (3, False, "AVG_TIEBREAK"),
    (2, False, "SINGLE_QUALIFIED"),
]

# matched-feature counts per point against each pre-existing cluster
GOLDEN_MATCHED = [
    {},
    {1: 4},
    {1: 9, 2: 5},
    {1: 5, 2: 5},
    {1: 8, 2: 5, 3: 8},
    {1: 4, 2: 9, 3: 5},
]

GOLDEN_MEMBERSHIPS = {1: (0, 2), 2: (1, 5), 3: (3, 4)}

GOLDEN_CENTROIDS = {
    1: [14.0, 14.0, 19.0, 26.0, 30.0, 36.5, 39.0, 43.0, 49.5, 56.0],
    2: [9.5, 33.5, 19.0, 45.0, 11.0, 43.5, 50.0, 48.0, 9.5, 22.5],
    3: [18.5, 18.5, 18.0, 10.0, 18.5, 34.5, 47.0, 43.0, 10.0, 51.5],
}

# Point 4's matched count ties at 8 between clusters 1 and 3; the higher
# average of the scaled qualifying similarities decides in favor of 3.
GOLDEN_TIEBREAK_AVGS = {1: 87.87, 3: 93.63}

# Expected similarity tables, keyed (point seq, cluster id), one value per
# feature of the point against that cluster's pre-insertion centroid.
GOLDEN_TABLES = {
    (1, 1): [90, 233.34, 90, 180, 33.34, 91.43, 150, 91.11, 20, 36.36],
    (2, 1): [180, 86.67, 90, 108, 100, 108.57, 95, 91.11, 98, 103.64],
    (2, 2): [200, 37.14, 100, 60, 300, 118.75, 63.33, 100, 490, 285],
    (3, 1): [142.86, 142.86, 94.74, 19.23, 50, 93.15, 128.21, 100, 20.20, 89.29],
    (3, 2): [222.22, 57.14, 100, 11.11, 150, 106.25, 83.33, 104.88, 100, 250],
    (4, 1): [121.43, 121.43, 94.74, 57.69, 73.33, 95.89, 112.82, 100, 20.20, 94.64],
    (4, 2): [188.89, 48.57, 100, 33.33, 220, 109.38, 73.33, 104.88, 100, 265],
    (4, 3): [85, 85, 100, 300, 146.67, 102.94, 88, 100, 100, 106],
    (5, 1): [71.43, 228.57, 105.26, 173.08, 40, 150.68, 102.56, 127.91, 18.18, 44.64],
    (5, 2): [111.11, 91.43, 111.11, 100, 120, 171.88, 66.67, 134.15, 90, 125],
    (5, 3): [54.05, 172.97, 111.11, 450, 64.86, 159.42, 85.11, 127.91, 90, 48.54],
}

# Ill-typed values for fields of the golden state, each at its path in the
# snapshot payload document: a load and verify_state must refuse every one.
GOLDEN_ILL_TYPED = {
    "member_count-2.9": (("clusters", 0, "member_count"), 2.9),
    "member-seq-1.5": (("clusters", 1, "member_seqs", 0), 1.5),
    "member-seq-string": (("clusters", 1, "member_seqs", 0), "1"),
    "points_seen-6.5": (("points_seen",), 6.5),
    "points_seen-6.0": (("points_seen",), 6.0),
    "id-true": (("clusters", 0, "id"), True),
    "id-1.0": (("clusters", 0, "id"), 1.0),
    "sum-true": (("clusters", 0, "feature_sums", 0), True),
    "sum-string": (("clusters", 0, "feature_sums", 0), "1"),
    "sum-401-digits": (("clusters", 0, "feature_sums", 0), 10**400),
}


def cents(value):
    """A 2-decimal value as an integer count of hundredths."""
    return round(value * 100.0)
