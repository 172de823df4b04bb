"""The hand-written trajectory files agree with the runs they list.

Every `BENCH_<n>.json` at the repository root that lists `runs` gives,
per workload and metric, each side's runs in pair order, their median
and inclusive quartiles, and in how many pairs the change beat the
parent.  This recomputes those figures from the runs.  The runs are
rounded to 4 decimals, so a figure may differ from its recomputation
by up to 1e-4.  Which way is better comes from BENCHMARK.json.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
FILES = sorted(p for p in ROOT.glob("BENCH_*.json") if '"runs"' in p.read_text())


def summaries(node, path=()):
    """(path, dict) for every dict under node that lists runs."""
    if isinstance(node, dict):
        if "runs" in node:
            yield path, node
        for key, value in node.items():
            yield from summaries(value, path + (key,))


def test_the_trajectory_files_are_found():
    assert any(p.name == "BENCH_15.json" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_medians_quartiles_and_pair_counts_match_the_runs(path):
    found = list(summaries(json.loads(path.read_text())))
    assert found
    for where, metric in found:
        runs = metric["runs"]
        assert len(runs["parent"]) == len(runs["change"]) == metric["pairs"], where
        for side in ("parent", "change"):
            q1, median, q3 = statistics.quantiles(runs[side], n=4, method="inclusive")
            for name, value in (("q1", q1), ("median", median), ("q3", q3)):
                assert abs(metric[side][name] - value) <= 1e-4 + 1e-9, (where, side, name)
        lower = BETTER.get(where[-1], "lower") == "lower"
        better = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        assert metric["change_better_in_pairs"] == better, where
