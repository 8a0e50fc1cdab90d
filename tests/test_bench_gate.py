"""The engine bench gate (``benchmarks/bench_engine.py``) on synthetic rows.

:func:`gate` is pure, so every rule is checked here without timing
anything: the 25% per-N ratio floors of both families against the
baseline, the absolute 3x bars at N=1024, the lossy > 1.0x bar, and
what still applies when no baseline exists.
"""

import copy
import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench():
    path = os.path.join(REPO_ROOT, "benchmarks", "bench_engine.py")
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

#: (family, speedup column, sizes) as bench_engine.measure writes them.
FAMILIES = [("fast_vs_reference", "speedup", (64, 256, 1024)),
            ("kernel_vs_fast", "kernel_speedup", (256, 1024, 4096))]


def _doc(ratio=5.0, lossy=10.0):
    """A measurement document with every speedup at *ratio*."""
    doc = {"bench": "engine", "mode": "smoke",
           "schedule": "overlap_handoff_T4"}
    for family, column, sizes in FAMILIES:
        doc[family] = {"rows": [{"n": n, column: ratio} for n in sizes]}
    doc["kernel_vs_fast"]["lossy"] = {"n": 1024, "loss_rate": 0.2,
                                      "kernel_speedup": lossy}
    return doc


def _set(doc, family, column, n, value):
    doc = copy.deepcopy(doc)
    for row in doc[family]["rows"]:
        if row["n"] == n:
            row[column] = value
    return doc


def _failures(doc, baseline=None):
    return [line for line, ok in bench.gate(doc, baseline) if not ok]


def test_gate_passes_at_baseline():
    assert _failures(_doc(), _doc()) == []


@pytest.mark.parametrize("family, column, sizes", FAMILIES)
def test_ratio_floor_is_25_percent_below_baseline(family, column, sizes):
    baseline = _doc()
    for n in sizes:
        failures = _failures(_set(baseline, family, column, n, 5.0 * 0.74),
                             baseline)
        assert len(failures) == 1 and f"N={n}:" in failures[0]
        assert "baseline" in failures[0]
        assert _failures(_set(baseline, family, column, n, 5.0 * 0.76),
                         baseline) == []


@pytest.mark.parametrize("family, column, label", [
    ("fast_vs_reference", "speedup", "fast/reference"),
    ("kernel_vs_fast", "kernel_speedup", "kernel/fast")])
def test_absolute_3x_bar_at_n1024(family, column, label):
    # A baseline of 3.5x puts the ratio floor (2.625x) below 2.9x, so
    # only the absolute bar can fail.
    baseline = _doc(ratio=3.5)
    failures = _failures(_set(baseline, family, column, 1024, 2.9), baseline)
    assert failures == [f"N=1024: {label} 2.90x vs absolute bar 3.0x"]
    assert _failures(_set(baseline, family, column, 1024, 3.0),
                     baseline) == []


def test_lossy_bar_requires_beating_fast():
    failures = _failures(_doc(lossy=1.0), _doc())
    assert len(failures) == 1 and "lossy bar" in failures[0]
    assert _failures(_doc(lossy=1.01), _doc()) == []


def test_no_baseline_skips_ratios_but_keeps_bars():
    slow = _set(_doc(), "kernel_vs_fast", "kernel_speedup", 256, 1.5)
    assert _failures(slow, None) == []
    assert _failures(slow, _doc()) != []
    assert not any("baseline" in line for line, _ in bench.gate(slow, None))
    assert len(_failures(_set(slow, "fast_vs_reference", "speedup",
                              1024, 2.9))) == 1
    assert len(_failures(_set(slow, "kernel_vs_fast", "kernel_speedup",
                              1024, 2.9))) == 1
    assert len(_failures(_doc(lossy=0.9))) == 1


def test_missing_bar_row_fails():
    doc = _doc()
    doc["kernel_vs_fast"]["rows"] = [
        row for row in doc["kernel_vs_fast"]["rows"] if row["n"] != 1024]
    assert len(_failures(doc)) == 1


def _committed(name):
    with open(os.path.join(REPO_ROOT, "results", name)) as fh:
        return json.load(fh)


def test_committed_record_passes_committed_baseline():
    record = _committed("BENCH_engine.json")
    baseline = _committed("bench_engine_baseline.json")
    assert record["mode"] == baseline["mode"] == "smoke"
    assert _failures(record, baseline) == []


def test_smoke_budgets_match_the_baseline_workload():
    # A ratio floor only holds for the workload it was measured on.
    baseline = _committed("bench_engine_baseline.json")
    for family, budgets in (("fast_vs_reference", bench.FAST_REF_ROUNDS),
                            ("kernel_vs_fast", bench.KERNEL_ROUNDS)):
        assert {row["n"]: row["rounds_timed"]
                for row in baseline[family]["rows"]} == budgets["smoke"]
    lossy = baseline["kernel_vs_fast"]["lossy"]
    assert (lossy["n"], lossy["loss_rate"], lossy["rounds_timed"]) == (
        bench.LOSSY_N, bench.LOSSY_RATE,
        bench.KERNEL_ROUNDS["smoke"][bench.LOSSY_N])
