"""The summary that ``scripts/bench_pairs.py`` writes, on synthetic runs: no process is started."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "wall_s": {"name": "wall_s", "unit": "s", "better": "lower"},
    "device_rounds_per_s": {"name": "device_rounds_per_s", "unit": "1/s", "better": "higher"},
}


def _runs(parent: dict, change: dict, failed_change: int = 0) -> list:
    """One run per side per pair, the parent first in odd pairs, as ``main`` orders them."""
    runs = []
    for pair in range(len(parent["wall_s"])):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            values = parent if side == "parent" else change
            result = {
                "failed": failed_change if side == "change" and pair == 0 else 0,
                "metrics": {name: {"value": series[pair]} for name, series in values.items()},
            }
            runs.append({"side": side, "workload": "pre_fleet", "seed": 11, "digest": f"d-{side}", "result": result})
    return runs


def test_summary_counts_wins_and_reports_median_ratio_quartiles_and_extremes():
    parent = {"wall_s": [1.0, 1.2, 0.9, 1.1], "device_rounds_per_s": [10.0, 10.0, 10.0, 10.0]}
    change = {"wall_s": [0.8, 1.3, 0.7, 1.0], "device_rounds_per_s": [11.0, 9.0, 12.0, 10.0]}
    entry = bench_pairs._summary(_runs(parent, change, failed_change=2), METRICS)
    assert (entry["workload"], entry["seed"], entry["pairs"]) == ("pre_fleet", 11, 4)
    assert (entry["digest_parent"], entry["digest_change"]) == ("d-parent", "d-change")
    assert (entry["failed_parent"], entry["failed_change"]) == (0, 2)

    wall = entry["metrics"]["wall_s"]
    assert wall["change_wins"] == "3/4"  # lower is better: pairs 1, 3 and 4
    assert wall["change_over_parent_median"] == round(0.9 / 1.05, 4)
    assert wall["parent_min_max"] == [0.9, 1.2]
    assert wall["change_min_max"] == [0.7, 1.3]
    assert wall["parent_q1_median_q3"] == pytest.approx([0.975, 1.05, 1.125])
    assert wall["change_q1_median_q3"] == pytest.approx([0.775, 0.9, 1.075])

    rate = entry["metrics"]["device_rounds_per_s"]
    assert rate["change_wins"] == "2/4"  # higher is better, and a tie is no win
    assert rate["change_over_parent_median"] == 1.05
    assert (rate["parent_min_max"], rate["change_min_max"]) == ([10.0, 10.0], [9.0, 12.0])
    assert (rate["better"], rate["unit"]) == ("higher", "1/s")


def test_summary_of_digest_runs_carries_the_note_and_no_metrics():
    runs = _runs({"wall_s": [1.0]}, {"wall_s": [1.0]})
    entry = bench_pairs._summary(runs, METRICS, note="digest runs only")
    assert entry["note"] == "digest runs only" and "metrics" not in entry
    assert entry["pairs"] == 1
