"""Ratio similarity between a point feature and a cluster centroid feature.

A feature's similarity is 100 * value / centroid, read as a percentage:
100 means identical, 50 means half the centroid, 150 means one-and-a-half
times the centroid. A feature "qualifies" (counts as matched) when its
similarity lies inside the inclusive band [strictness, 200 - strictness],
so equal amounts of undershoot and overshoot are treated alike.
"""

from __future__ import annotations

import math


def feature_similarity(datapoint_value: float, centroid_value: float) -> float | None:
    """Similarity percent of a point feature against a centroid feature.

    Returns None (undefined) when the centroid feature is 0 and the point's
    is positive; such a feature never qualifies. Two exact zeros are
    identical values and score 100. The value is scaled by 100 before the
    division; only when that product overflows (value above about 1.8e306)
    is the ratio taken first, as 100 * (value / centroid).
    """
    if centroid_value == 0.0:
        return 100.0 if datapoint_value == 0.0 else None
    scaled = 100.0 * datapoint_value
    if math.isinf(scaled):
        return 100.0 * (datapoint_value / centroid_value)
    return scaled / centroid_value


def qualifying_range(strictness: float) -> tuple[float, float]:
    """Inclusive similarity band for a matched feature: (strictness, 200 - strictness)."""
    return strictness, 200.0 - strictness
