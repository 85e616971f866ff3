"""The summary that bench/record.py writes into BENCH_<pr>.json, on fixed numbers,
and its allocation peaks."""
import importlib.util
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

METRICS = [{"name": "op_s", "better": "lower", "bound": 0.25},
           {"name": "rate", "better": "higher", "bound": 0.1}]


def _pairs(parent, change, name="op_s"):
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def test_quartiles_are_inclusive_and_a_single_run_is_its_own_quartiles():
    assert record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert record.quartiles([0.4]) == {"q1": 0.4, "median": 0.4, "q3": 0.4}


def test_a_gain_needs_nine_of_ten_wins_and_a_gap_wider_than_the_parent_spread():
    parent = [0.44, 0.45, 0.43, 0.46, 0.44, 0.45, 0.44, 0.43, 0.45, 0.44]
    change = [0.41, 0.42, 0.40, 0.43, 0.41, 0.42, 0.41, 0.40, 0.42, 0.45]
    s = record.summarize(_pairs(parent, change), METRICS[:1])["op_s"]
    assert s["parent"] == {"q1": 0.44, "median": 0.44, "q3": 0.45}
    assert s["change"]["median"] == pytest.approx(0.415)
    assert (s["change_wins"], s["pairs"]) == (9, 10)
    assert s["median_change_pct"] == pytest.approx(-5.6818, abs=1e-4)
    assert s["gain_rule_met"] and s["within_bound"]

    # a tie counts for neither side: 8 wins of 10 is not enough
    change[0] = parent[0]
    s = record.summarize(_pairs(parent, change), METRICS[:1])["op_s"]
    assert s["change_wins"] == 8 and not s["gain_rule_met"]


def test_a_gap_inside_the_parent_spread_is_no_gain():
    parent = [0.40, 0.50, 0.40, 0.50]
    change = [0.39, 0.49, 0.39, 0.49]
    s = record.summarize(_pairs(parent, change), METRICS[:1])["op_s"]
    assert s["change_wins"] == 4 and not s["gain_rule_met"]


def test_bounds_follow_the_metric_direction():
    # a higher-is-better metric 20% down breaks a 10% bound; 5% down does not
    worse = record.summarize(_pairs([100.0, 100.0], [80.0, 80.0], "rate"), METRICS[1:])["rate"]
    assert worse["change_wins"] == 0 and not worse["within_bound"]
    near = record.summarize(_pairs([100.0, 100.0], [95.0, 95.0], "rate"), METRICS[1:])["rate"]
    assert near["within_bound"]
    better = record.summarize(_pairs([100.0] * 10, [120.0] * 10, "rate"), METRICS[1:])["rate"]
    assert better["change_wins"] == 10 and better["gain_rule_met"]


def test_fewer_than_ten_pairs_claim_no_gain():
    s = record.summarize(_pairs([0.5] * 9, [0.4] * 9), METRICS[:1])["op_s"]
    assert s["change_wins"] == 9 and s["within_bound"] and not s["gain_rule_met"]


def test_seed_lists_and_ranges():
    assert record.parse_seeds("5001-5003") == [5001, 5002, 5003]
    assert record.parse_seeds("7,9,20-21") == [7, 9, 20, 21]


def test_runs_of_the_same_commits_add_up_and_others_replace_them():
    revs = {"parent": "a" * 40, "change": "b" * 40}

    def runs(seeds, parent_failed=0, change_failed=1):
        return [{"seed": s,
                 "parent": {"metrics": {"op_s": 0.5}, "failed": parent_failed, "attempted": 10},
                 "change": {"metrics": {"op_s": 0.4}, "failed": change_failed, "attempted": 10}}
                for s in seeds]

    first = record.add_runs(None, revs, 30, runs(range(1, 6)), [], METRICS[:1])
    assert first["seeds"] == [1, 2, 3, 4, 5] and not first["summary"]["op_s"]["gain_rule_met"]
    both = record.add_runs(first, revs, 30, runs(range(6, 11)), [{"traced": 1}], METRICS[:1])
    assert both["seeds"] == list(range(1, 11)) and both["traced"] == [{"traced": 1}]
    assert both["failed"] == {"parent": 0, "change": 10}
    assert both["summary"]["op_s"]["change_wins"] == 10
    # faster in every pair, but failing where the parent did not: no gain
    assert not both["summary"]["op_s"]["gain_rule_met"]
    # as many failures on both sides keep the gain
    equal = record.add_runs(None, revs, 30, runs(range(1, 11), 1, 1), [], METRICS[:1])
    assert equal["summary"]["op_s"]["gain_rule_met"]
    wrong = runs(range(1, 11), 0, 0)
    wrong[3]["parent"]["correct"] = False
    assert not record.add_runs(None, revs, 30, wrong, [], METRICS[:1])["summary"]["op_s"][
        "gain_rule_met"]
    other = record.add_runs(both, {**revs, "change": "c" * 40}, 30, runs([7]), [], METRICS[:1])
    assert other["seeds"] == [7] and other["change"] == "c" * 40


def test_allocation_peaks_of_two_exports_of_one_tree_agree(tmp_path):
    """tracemalloc peaks do not depend on the directory a checkout sits in,
    unlike the benchmark's peak RSS."""
    peaks = []
    for name in ("one", "two"):
        for part in ("src", "perfbench"):
            shutil.copytree(_PATH.parent.parent / part, tmp_path / name / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        peaks.append(record.alloc_run(str(tmp_path / name), "infer416", 3, smoke=True))
    for key in ("alloc_setup_mb", "alloc_op_mb"):
        assert peaks[0][key] > 0
        assert peaks[1][key] == pytest.approx(peaks[0][key], rel=1e-4)
