"""Package metadata: the distribution and the package agree."""

import ast
import gc
import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

import strictcluster
from strictcluster import cli

from children import run_python

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def project():
    """pyproject.toml's [project] table; the test skips before Python 3.11."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]


def test_pyproject_names_the_package_and_its_version():
    table = project()
    assert table["name"] == "strictcluster"
    assert table["version"] == strictcluster.__version__


def test_the_console_script_names_the_entry_that_module_execution_calls(monkeypatch):
    module, _, attr = project()["scripts"]["strictcluster"].partition(":")
    assert module == "strictcluster.__main__"  # the module python -m runs
    entry = getattr(importlib.import_module(module), attr)
    # runpy executes __main__ afresh, so the shared entry is seen through
    # the CLI function it calls, not by replacing the entry itself
    calls = []

    def fake_main():
        calls.append(gc.get_freeze_count() > 0)
        gc.unfreeze()  # so the next call shows its own freeze
        return 3

    monkeypatch.setattr(cli, "main", fake_main)
    # runpy warns when the module it runs was imported already
    monkeypatch.delitem(sys.modules, "strictcluster.__main__", raising=False)
    try:
        assert entry() == 3
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("strictcluster", run_name="__main__", alter_sys=False)
    finally:
        gc.unfreeze()  # leave this process's collector as it was
    assert calls == [True, True]  # both ran the entry, which freezes first
    assert exc.value.code == 3


def test_importing_the_package_loads_no_numpy_and_no_submodule():
    code = (
        "import sys, strictcluster; print(sorted(m for m in sys.modules "
        "if m == 'numpy' or m.startswith(('numpy.', 'strictcluster.'))))"
    )
    proc = run_python(code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("name", sorted(strictcluster._SUBMODULE))
def test_every_public_name_is_its_submodule_object(name):
    module = importlib.import_module(f"strictcluster.{strictcluster._SUBMODULE[name]}")
    assert getattr(strictcluster, name) is getattr(module, name)


def test_dir_lists_the_public_names_and_nothing_else_resolves():
    assert dir(strictcluster) == sorted(strictcluster.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'process_main'"):
        strictcluster.process_main


@pytest.mark.parametrize(
    "name",
    ["feature_similarity", "qualifying_range", "should_match_features", "validate_point",
     "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"],
)
def test_a_name_that_only_the_cli_or_the_tests_read_is_not_public(name):
    assert name not in strictcluster.__all__
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(strictcluster, name)


@pytest.mark.parametrize(
    "module, name",
    [("engine", "feature_similarity"), ("engine", "should_match_features"), ("model", "validate_point"),
     ("persistence", "SNAPSHOT_FORMAT"), ("persistence", "SNAPSHOT_VERSION")],
)
def test_a_helper_that_left_the_root_stays_in_its_submodule(module, name):
    value = getattr(importlib.import_module(f"strictcluster.{module}"), name)
    # a function stays callable; a constant stays the text or number a save writes
    assert callable(value) if name.islower() else type(value) in (str, int)


PACKAGE_DIR = Path(strictcluster.__file__).resolve().parent


def root_imports(source):
    """The names that a module of the package imports from the package root:
    ``import strictcluster``, ``from strictcluster import x`` and
    ``from . import x`` where x is no submodule; and the count of all its
    imports."""
    submodules = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    found, seen = [], 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            seen += 1
            found += [a.name for a in node.names if a.name.split(".")[0] == "strictcluster"]
        elif isinstance(node, ast.ImportFrom):
            seen += 1
            root = (node.level == 1 and node.module is None) or (
                node.level == 0 and node.module == "strictcluster"
            )
            if root:
                found += [a.name for a in node.names if a.name not in submodules]
    return found, seen


def test_the_package_imports_its_own_names_from_submodules_only():
    # so a shorter __all__ cannot break the program itself
    assert root_imports("import strictcluster\nfrom . import Config, engine\n") == (
        ["strictcluster", "Config"],
        2,
    )
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "engine.py", "model.py"}
    for path in modules:
        found, seen = root_imports(path.read_text(encoding="utf-8"))
        assert found == [], path.name
        assert seen, path.name  # the walk saw the module's imports


def interpreter_reads(source):
    """How often ``source`` names the running interpreter: ``sys.executable``,
    or ``executable`` imported from sys."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            count += node.attr == "executable" and getattr(node.value, "id", None) == "sys"
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            count += any(alias.name == "executable" for alias in node.names)
    return count


def test_only_the_child_helper_names_the_interpreter():
    # so every child a test starts runs under the helper's env, which puts
    # the package that this process imported on its path
    assert interpreter_reads("import sys\nfrom sys import executable\nsys.executable\n") == 2
    found = {}
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        if count := interpreter_reads(path.read_text(encoding="utf-8")):
            found[path.name] = count
    assert found == {"children.py": 1}


def test_submodules_import_from_the_package():
    from strictcluster import cli, engine

    assert cli is sys.modules["strictcluster.cli"]
    assert engine is sys.modules["strictcluster.engine"]
    assert cli.main.__module__ == "strictcluster.cli"


# Calls the console script's entry as the script would, and records the
# collections that start between the entry's call and cli.main's call.
ENTRY_PROBE = """
import gc, importlib, json, sys

module, attr = sys.argv[1].split(":")
entry = getattr(importlib.import_module(module), attr)
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(1))
at_entry = [None]
at_main = []

def profile(frame, event, arg):
    if event != "call":
        return
    if frame.f_code is entry.__code__ and at_entry[0] is None:
        at_entry[0] = len(starts)
    elif (frame.f_code.co_name == "main" and not at_main
          and frame.f_globals.get("__name__") == "strictcluster.cli"):
        at_main.extend((len(starts), gc.isenabled(), gc.get_freeze_count()))

sys.argv = ["strictcluster", "run", "--strictness", "60"]
sys.setprofile(profile)
code = entry()
sys.setprofile(None)
sys.stdout.flush()
print(json.dumps({"code": code, "at_entry": at_entry[0], "at_main": at_main}), file=sys.stderr)
"""


def test_the_entry_imports_the_cli_without_a_collection_and_freezes_it():
    script = project()["scripts"]
    proc = run_python(ENTRY_PROBE, script["strictcluster"], input="1,2\n1,2.2\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"cluster_id":1,') == 2
    seen = json.loads(proc.stderr)
    starts_at_main, enabled, frozen = seen["at_main"]
    assert seen["code"] == 0
    assert starts_at_main == seen["at_entry"]  # the CLI's imports started no collection
    assert enabled and frozen > 0
