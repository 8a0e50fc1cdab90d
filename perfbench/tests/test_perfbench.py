"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import ast
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import passes  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cell_builds(workload):
    cells = workloads.cells(workload, 0)
    assert len({cid for cid, _, _ in cells}) == len(cells)
    for _, spec, seed in cells:
        _, schedule, sim = passes.build_cell(spec, seed)
        assert len(sim.nodes) == schedule.num_nodes


def test_default_base_reproduces_documented_seeds():
    assert workloads.seed_base(0) == 0
    bank = workloads.SEED_BASES
    assert workloads.seed_base(len(bank) + 3) == bank[3]
    sweep = workloads.cells("sweep_small", 0)
    assert len(sweep) == 150
    assert sorted({seed for _, _, seed in sweep}) == list(range(1, 11))
    assert {seed for _, _, seed in workloads.cells("pernode_count", 0)} == \
        {1, 2, 3, 4}


def test_expected_rows_cover_every_cell_of_every_base():
    with open(passes.EXPECTED_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    assert table["columns"] == list(passes.COLUMNS)
    assert table["seed_bases"] == list(workloads.SEED_BASES)
    correct = passes.COLUMNS.index("correct")
    for workload in workloads.WORKLOADS:
        for base in workloads.SEED_BASES:
            rows = table["workloads"][workload][str(base)]
            ids = {cid for cid, _, _ in workloads.cells(workload, base)}
            assert set(rows) == ids
            assert all(vals[correct] is True for vals in rows.values())


def _small_cells():
    return [c for c in workloads.cells("sweep_small", 0)
            if c[0].startswith("exact_count/fresh_spanning/n=16/")][:2]


def test_recorded_rows_pass_and_a_perturbed_row_fails():
    cells = _small_cells()
    expected = passes.load_expected("sweep_small", 0)
    assert passes.run_inprocess(cells, expected)["failures"] == []

    cid = cells[0][0]
    rounds = passes.COLUMNS.index("rounds")
    perturbed = dict(expected)
    perturbed[cid] = list(expected[cid])
    perturbed[cid][rounds] += 1
    for tracer, timer in ((None, None), (Tracer(), None),
                          (None, refclock.RefTimer())):
        failures = passes.run_inprocess(cells, perturbed, tracer,
                                        timer)["failures"]
        assert len(failures) == 1 and failures[0].startswith(cid)

    failures = passes.run_executor(cells, perturbed)[2]
    assert len(failures) == 1 and failures[0].startswith(cid)


def test_ref_timer_scales_each_group_by_the_loops_around_it(monkeypatch):
    nominal = refclock.REF_NOMINAL_S
    loops = iter([nominal, 3 * nominal, nominal])
    monkeypatch.setattr(refclock, "reference_s", lambda: next(loops))
    timer = refclock.RefTimer()
    timer.add_before(1.0)                 # scaled by the first loop: 1x
    timer.add(refclock.GROUP_S / 2)       # pending, no loop yet
    timer.add(refclock.GROUP_S / 2)       # group done: loops 1x and 3x
    timer.add(0.01)                       # scaled on close: loops 3x, 1x
    timer.close()
    assert timer.wall_s == pytest.approx(1.0 + refclock.GROUP_S + 0.01)
    assert timer.ref_s == pytest.approx(1.0 + refclock.GROUP_S / 2 + 0.005)
    with pytest.raises(StopIteration):
        next(loops)


def test_missing_or_raising_cell_fails():
    assert passes.mismatch({"error": "ValueError()"}, [1]) is not None
    row = dict(zip(passes.COLUMNS, (5, 5, 10, 10, 2, True)))
    assert passes.mismatch(row, None) is not None
    assert passes.mismatch(row, [5, 5, 10, 10, 2, True]) is None
    assert passes.mismatch({**row, "correct": False},
                           [5, 5, 10, 10, 2, False]) is not None


def _check_self_times(tracer):
    spans = tracer.spans
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for (_, start, end, _, _), own, kids in zip(
            spans, tracer.self_times(), children):
        assert own >= 0
        assert own + kids == pytest.approx(end - start, abs=1e-9)


def test_self_times_plus_children_sum_to_duration():
    tracer = Tracer()
    inner = tracer.wrap("dynamics.leaf", lambda: time.sleep(0.001))
    with tracer.span("engine.root"):
        with tracer.span("setup.child"):
            inner()
        inner()
    with tracer.span("harness.other"):
        pass
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, -1]
    _check_self_times(tracer)

    traced = Tracer()
    cells = _small_cells()
    passes.run_inprocess(cells, passes.load_expected("sweep_small", 0),
                         traced)
    names = {s[0] for s in traced.spans}
    assert {"bench.cell", "engine.run", "dynamics.adjacency",
            "setup.nodes_build", "harness.oracle"} <= names
    _check_self_times(traced)
    by_cell = traced.layer_self_times()
    assert set(by_cell) == {cid for cid, _, _ in cells}


def test_benchmark_imports_nothing_from_the_backend_registry():
    for name in os.listdir(BENCH):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            else:
                continue
            assert not any(m.startswith("repro.simnet.backends")
                           for m in modules), name
            assert not {"get_backend", "register_backend"} & set(names), name


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    layer_map.pop("_doc")
    assert set(layer_map) == set(run.PER_LAYER)
    names = set(workloads.WORKLOADS)
    for entry in layer_map.values():
        assert entry["moves"] in set(run.END_TO_END) | {"none"}
        assert set(entry["workloads"]) <= names
