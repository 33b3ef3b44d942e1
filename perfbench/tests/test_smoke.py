"""Smoke tests of the benchmark at tiny N.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
Each test drives ``perfbench/run.py`` as the benchmark driver does, in a
subprocess, and reads its last output line.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args, script=RUN, cwd=ROOT):
    return subprocess.run(
        [sys.executable, script, "--tiny", "--seconds", "0.2", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(*args):
    out = _run(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result, stdout = _result("--workload", workload, "--seed", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        assert f"  {metric['name']} " in stdout  # the readable table
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_wrong_pinned_digest_is_a_failed_operation(tmp_path):
    pins = tmp_path / "pins.json"
    args = ("--workload", "sat-1024", "--seed", "0", "--trace", "1")
    assert _run(*args, "--write-pins", str(pins)).returncode == 0
    good, _ = _result(*args, "--pins", str(pins))
    assert good["correct"] and good["metrics"]["fail_ratio"]["value"] == 0

    data = json.loads(pins.read_text())
    data["sat-1024"]["slot_run"] = "0" * 64
    pins.write_text(json.dumps(data))
    bad, _ = _result(*args, "--pins", str(pins))
    assert not bad["correct"] and bad["failed"] >= 1
    assert bad["metrics"]["fail_ratio"]["value"] > 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(
        "--workload", "sat-1024", script=str(tmp_path / "perfbench" / "run.py"), cwd=tmp_path
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
