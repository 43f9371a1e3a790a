"""Tests of the benchmark itself: metric names, repeatability, seeding.

They run the smallest `member` workload (--seconds 1) in subprocesses,
three at once, so they add a few seconds to the test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _start(seed, trace, root=ROOT):
    return subprocess.Popen(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload",
         "member", "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc, seed, trace):
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    line = json.loads(out.strip().splitlines()[-1])
    saved = json.loads((HERE / "out" / f"result-member-{seed}-{trace}.json")
                       .read_text())
    return line, saved


@pytest.fixture(scope="module")
def runs():
    """An untraced run and two traced runs of one seed."""
    procs = [(_start(7, 0), 7, 0), (_start(7, 1), 7, 1)]
    first = _finish(*procs[1])
    second = _finish(_start(7, 1), 7, 1)
    return _finish(*procs[0]), first, second


def test_metric_names_match_benchmark_json(runs):
    (plain, _), (traced, _), _ = runs
    assert list(plain) == ["correct", "attempted", "failed", "metrics"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert plain["correct"] and plain["failed"] == 0


def test_one_seed_repeats_work_counts_and_results(runs):
    (plain, plain_saved), (a, a_saved), (b, b_saved) = runs
    counts = [k for k in a["metrics"] if not k.endswith("_s")]
    assert counts
    assert {k: a["metrics"][k]["value"] for k in counts} == \
        {k: b["metrics"][k]["value"] for k in counts}
    assert a["metrics"]["gb.buchberger.calls"]["value"] > 0
    assert a["attempted"] == b["attempted"] == plain["attempted"]
    assert a_saved["results_sha256"] == b_saved["results_sha256"] == \
        plain_saved["results_sha256"]
    assert a["correct"] and b["correct"]


@pytest.mark.parametrize("workload", ["member", "closure"])
def test_seeds_give_different_inputs(workload):
    one = workloads.make_inputs(workload, 1, 1)
    assert one == workloads.make_inputs(workload, 1, 1)
    assert one != workloads.make_inputs(workload, 2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _start(1, 0, root=tmp_path)
    out, _err = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in out
