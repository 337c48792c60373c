"""Package metadata: the distribution and the package agree."""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

import strictcluster

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_names_the_package_and_its_version():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "strictcluster"
    assert project["version"] == strictcluster.__version__


def test_the_console_script_names_the_entry_that_module_execution_calls(monkeypatch):
    script = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, attr = script["strictcluster"].partition(":")
    calls = []

    def entry():
        calls.append(attr)
        return 3

    monkeypatch.setattr(importlib.import_module(module), attr, entry)
    # runpy warns when the module it runs was imported already
    monkeypatch.delitem(sys.modules, "strictcluster.__main__", raising=False)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("strictcluster", run_name="__main__", alter_sys=False)
    assert calls == [attr]
    assert exc.value.code == 3
