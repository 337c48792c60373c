"""Package metadata: the distribution and the package agree."""

from pathlib import Path

import pytest

import strictcluster

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_names_the_package_and_its_version():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "strictcluster"
    assert project["version"] == strictcluster.__version__
