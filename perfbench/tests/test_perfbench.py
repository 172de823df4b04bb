"""Tests of the benchmark itself, at its smallest sizes.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def bench(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=600)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_checks_every_result_on_two_seeds():
    p = bench("--smoke")
    assert p.returncode == 0, p.stdout + p.stderr
    assert p.stdout.strip().endswith("seed check at smoke sizes: ok")


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, kind):
    p = bench("--workload", "slice-limit", "--seconds", "0", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench("--workload", "horn-scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
