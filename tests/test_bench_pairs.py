"""The summary arithmetic of scripts/bench_pairs.py, on fixed numbers."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.0, 12.0, 11.0, 8.0]


def test_side_summary_has_the_exclusive_quartiles():
    # sorted: 8 9 10 10 11 11 12 12 13 14; q1 at rank 2.75, q3 at rank 8.25
    assert bench_pairs.side_summary(PARENT) == {
        "median": 11.0, "q1": 9.75, "q3": 12.25, "spread": round(2.5 / 11.0, 6), "runs": PARENT,
    }


def test_a_higher_is_better_metric_counts_the_pairs_the_change_raised():
    change = [x + 1.0 for x in PARENT[:8]] + [11.0, 7.0]  # one tie, one loss
    s = bench_pairs.summarise(PARENT, change, "higher")
    # sorted: 7 10 11 11 11 12 13 13 14 15
    assert s["change"]["median"] == 11.5
    assert s["pairs_change_better"] == "8/10"
    assert s["change_over_parent"] == round(11.5 / 11.0, 4)
    assert s["worse_than_parent_by"] == round(1.0 - 11.5 / 11.0, 4)
    assert s["median_gain"] == 0.5
    assert s["parent_quartile_distance"] == 2.5


def test_a_lower_is_better_metric_counts_the_pairs_the_change_lowered():
    change = [x * 0.5 for x in PARENT]
    s = bench_pairs.summarise(PARENT, change, "lower")
    assert s["pairs_change_better"] == "10/10"
    assert s["change_over_parent"] == 0.5
    assert s["worse_than_parent_by"] == pytest.approx(-0.5)
    assert s["median_gain"] == 5.5


def test_a_warm_run_is_the_median_round_in_milliseconds():
    # sorted: 0.002 0.0025 0.003 0.004; the median is 0.00275 s
    assert bench_pairs.round_median_ms([0.004, 0.002, 0.003, 0.0025]) == 2.75


def test_the_warm_summary_is_a_lower_is_better_metric_without_a_bound():
    runs = {"parent": PARENT, "change": [x - 1.0 for x in PARENT]}
    s = bench_pairs.warm_summary(runs)
    assert (s["unit"], s["better"], s["bound"]) == ("ms", "lower", None)
    assert s["rounds"] == bench_pairs.WARM_ROUNDS
    assert s["runs_per_side"] == 10
    assert s["parent"]["median"] == 11.0 and s["change"]["median"] == 10.0
    assert s["pairs_change_better"] == "10/10"
    assert s["median_gain"] == 1.0
    assert s["parent_quartile_distance"] == 2.5


def test_the_tier1_summary_is_a_lower_is_better_metric_without_a_bound():
    # fixed (seconds, pytest summary) pairs; no suite is started here
    runs = {"parent": [(20.0, "635 passed"), (18.0, "635 passed"), (19.0, "635 passed"), (21.0, "635 passed")],
            "change": [(19.5, "650 passed"), (18.5, "650 passed"), (18.0, "650 passed"), (20.0, "650 passed")]}
    s = bench_pairs.tier1_summary(runs)
    assert (s["unit"], s["better"], s["bound"]) == ("s", "lower", None)
    assert s["command"] == "python -m pytest -q --continue-on-collection-errors"
    assert s["tests"] == {"parent": "635 passed", "change": "650 passed"}
    assert s["runs_per_side"] == 4
    assert s["parent"]["runs"] == [20.0, 18.0, 19.0, 21.0]
    assert s["parent"]["median"] == 19.5 and s["change"]["median"] == 19.0
    assert s["pairs_change_better"] == "3/4"
    assert s["median_gain"] == 0.5


def test_sides_alternate_the_parent_first_on_odd_rounds():
    order = []
    trees = {"parent": "P", "change": "C"}
    runs = bench_pairs.alternate(trees, [1, 2, 3], lambda tree: order.append(tree) or len(order), "round")
    assert order == ["P", "C", "C", "P", "P", "C"]
    assert runs == {"parent": [1, 4, 5], "change": [2, 3, 6]}


def test_each_per_layer_metric_is_summarised_with_its_direction_and_no_bound():
    # fixed --trace 1 results over BENCHMARK.json's per-layer metrics; no benchmark is started here
    per_layer = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["per_layer"]

    def result(emit_ms, traced_rate):
        values = {m["name"]: 1.0 for m in per_layer} | {
            "scenarios.emit_report_ms": emit_ms, "trace.traced_ops_per_s": traced_rate,
            "measures.decomposition_infimum_oracle_calls": 0}
        return {"correct": True, "failed": 0, "attempted": 100,
                "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}

    results = {"parent": [result(0.13, 900.0), result(0.12, 1000.0), result(0.11, 950.0)],
               "change": [result(0.08, 1000.0), result(0.07, 1100.0), result(0.09, 900.0)]}
    s = bench_pairs.workload_summary(results, per_layer)
    assert s["runs_per_side"] == 3 and s["all_correct"]
    assert {m["name"] for m in per_layer} <= set(s)
    assert {(s[m["name"]]["better"], s[m["name"]]["bound"]) for m in per_layer} == {("lower", None), ("higher", None)}
    emit = s["scenarios.emit_report_ms"]
    assert (emit["unit"], emit["better"]) == ("ms", "lower")
    assert emit["parent"]["median"] == 0.12 and emit["change"]["median"] == 0.08
    assert emit["pairs_change_better"] == "3/3"
    rate = s["trace.traced_ops_per_s"]
    assert rate["better"] == "higher" and rate["pairs_change_better"] == "2/3"
    assert rate["median_gain"] == 50.0
    # a count that stays at 0 has no ratio and no spread
    oracle = s["measures.decomposition_infimum_oracle_calls"]
    assert oracle["parent"]["spread"] is None
    assert oracle["change_over_parent"] is None and oracle["worse_than_parent_by"] is None
    assert oracle["median_gain"] == 0


def test_each_per_layer_time_is_also_summarised_as_its_share_of_the_run():
    # fixed --trace 1 results whose times double from run to run, as on a slower machine; no benchmark is started here
    per_layer = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["per_layer"]

    def result(emit_ms, construct_ms):
        values = {m["name"]: 0.0 if m["unit"] == "ms" else 7.0 for m in per_layer} | {
            "scenarios.emit_report_ms": emit_ms, "states.construct_ms": construct_ms}
        return {"correct": True, "failed": 0, "attempted": 100,
                "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}

    one = bench_pairs.with_shares(result(0.75, 0.25), per_layer)["metrics"]
    assert one["scenarios.emit_report_ms_share"]["value"] == 0.75
    assert one["states.construct_ms_share"]["value"] == 0.25
    assert one["linalg.validate_density_ms_share"]["value"] == 0.0
    assert one["scenarios.emit_report_ms"]["value"] == 0.75
    # only times have shares, and a run that spent no traced time has shares of 0
    assert not any(name.endswith("_calls_share") or name.endswith("_per_s_share") for name in one)
    assert bench_pairs.with_shares(result(0.0, 0.0), per_layer)["metrics"]["states.construct_ms_share"]["value"] == 0.0

    results = {"parent": [result(0.75, 0.25), result(1.5, 0.5), result(3.0, 1.0)],
               "change": [result(0.5, 0.5), result(2.0, 2.0), result(0.25, 0.25)]}
    s = bench_pairs.layer_summary(results, per_layer)
    times = [m for m in per_layer if m["unit"] == "ms"]
    assert {m["name"] for m in per_layer} | {f"{m['name']}_share" for m in times} <= set(s)
    emit = s["scenarios.emit_report_ms_share"]
    assert (emit["unit"], emit["better"], emit["bound"]) == ("share", "lower", None)
    assert emit["parent"]["runs"] == [0.75, 0.75, 0.75] and emit["change"]["runs"] == [0.5, 0.5, 0.5]
    assert emit["pairs_change_better"] == "3/3"
    assert emit["change_over_parent"] == round(0.5 / 0.75, 4)
    # the times themselves still move with the runs
    assert s["scenarios.emit_report_ms"]["parent"]["runs"] == [0.75, 1.5, 3.0]
    assert s["scenarios.emit_report_ms"]["pairs_change_better"] == "2/3"
    assert s["scenarios.build_state_calls"]["parent"]["median"] == 7.0


def test_seeds_are_one_seed_or_an_inclusive_range_and_an_empty_range_is_refused(capsys):
    assert bench_pairs.seed_range("2") == [2]
    assert bench_pairs.seed_range("2-4") == [2, 3, 4]
    with pytest.raises(argparse.ArgumentTypeError, match="'5-3'"):
        bench_pairs.seed_range("5-3")
    # as the scripts read it: an argparse error, exit 2
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=bench_pairs.seed_range)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--seeds", "5-3"])
    assert exc.value.code == 2
    assert "empty seed range '5-3'" in capsys.readouterr().err
