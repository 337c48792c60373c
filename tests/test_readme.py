"""The README's "Library use" section against the package it documents."""

import builtins
import re
from pathlib import Path

import strictcluster
from strictcluster import ClusteringError

from golden import GOLDEN_ASSIGNMENTS, GOLDEN_POINTS

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_library_use_block_runs_verbatim(capsys):
    block = library_use().split("```python\n", 1)[1].split("```", 1)[0]
    scope = {"stream": GOLDEN_POINTS}
    exec(block, scope)
    want = [
        f"{seq} {cid} {created}" for seq, (cid, created, _) in enumerate(GOLDEN_ASSIGNMENTS)
    ]
    assert capsys.readouterr().out.splitlines() == want
    assert scope["eng2"].state() == scope["state"]


def test_library_use_names_every_public_name():
    section = library_use()
    for name in strictcluster.__all__:
        obj = getattr(strictcluster, name)
        if name == "__version__" or (
            isinstance(obj, type) and issubclass(obj, ClusteringError)
        ):
            continue  # errors are listed as ClusteringError and its subclasses
        assert f"`{name}" in section, name
    assert "`ClusteringError` and its subclasses" in section


def test_library_use_names_only_public_names():
    # every bare CamelCase name in an inline code span, fenced code aside
    prose = re.sub(r"```.*?```", "", library_use(), flags=re.DOTALL)
    names = set(re.findall(r"`([A-Z][A-Za-z0-9]*)`", prose))
    assert "ClusteringEngine" in names  # the pattern finds what it should
    for name in names:
        assert name in strictcluster.__all__ or hasattr(builtins, name), name
