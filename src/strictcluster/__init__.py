"""Strictness-gated single-pass streaming clustering.

Each incoming point is scored feature-by-feature against every live
centroid; a configurable strictness percentage decides whether the point
joins its best-matching cluster or founds a new one. The package exposes
the engine, stream ingestion, snapshot persistence, and a CLI wrapper.

Importing the package loads no submodule and no numpy (PEP 562): a public
name imports its submodule the first time it is read. So the process entry
(:func:`strictcluster.__main__.process_main`) runs before numpy is imported,
and can import the CLI with the cyclic collector off.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it, in __all__'s order
_SUBMODULE = {
    "AssignmentOutcome": "model",
    "BadDimensionality": "errors",
    "ChecksumMismatch": "errors",
    "Cluster": "model",
    "ClusterState": "model",
    "ClusteringEngine": "engine",
    "ClusteringError": "errors",
    "Config": "model",
    "DataPoint": "model",
    "DecisionPath": "model",
    "DimensionMismatch": "errors",
    "FeatureSumOverflow": "errors",
    "InvariantViolation": "errors",
    "NegativeFeature": "errors",
    "NonFiniteFeature": "errors",
    "ParseError": "errors",
    "PointStream": "ingestion",
    "SnapshotError": "errors",
    "SnapshotFormatError": "errors",
    "StrictnessOutOfRange": "errors",
    "VersionUnsupported": "errors",
    "load_snapshot": "persistence",
    "run_stream": "engine",
    "save_snapshot": "persistence",
    "verify_state": "model",
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str) -> object:
    """A public name, from its submodule, imported on first use and then
    kept here, so later reads do not come back to this function."""
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
