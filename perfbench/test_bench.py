"""Smoke tests of the benchmark itself: a few hundred points per workload.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--seed", "1",
         "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def test_every_metric_is_printed_with_its_unit_and_outputs_match():
    proc = run_bench("--workload", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for wl in SPEC["workloads"]:
        name = wl["name"]
        assert f"{name}: outputs match the recorded digests" in proc.stdout
        assert f"{name}: error_share = 0.0 ratio" in proc.stdout
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = result["metrics"][f"{name}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert f"{name}: {metric['name']} = " in proc.stdout
    assert len(result["metrics"]) == len(SPEC["workloads"]) * (
        len(SPEC["end_to_end"]) + len(SPEC["per_layer"]))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_an_altered_digest_fails_the_run(tmp_path, trace):
    hashes = json.loads((BENCH / "expected_hashes.json").read_text(encoding="utf-8"))
    recorded = hashes["anchored-s60"]["400"]["1"]
    recorded["trace"] = "0" * 64
    altered = tmp_path / "hashes.json"
    altered.write_text(json.dumps(hashes), encoding="utf-8")
    proc = run_bench("--workload", "anchored-s60", "--trace", trace,
                     "--hashes", str(altered))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "anchored-s90", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
