"""One pass over a workload's cells, in a fresh process.

``run.py`` starts this script once per pass, so every pass pays its own
imports and returns its memory; it prints one JSON object as the last
line of its standard output.  By hand::

    python3 perfbench/passes.py --workload pernode_count --base 0 \\
        --mode plain

Modes:

``plain``
    The workload as a user runs it, untraced.  ``pernode_count`` and
    ``batch_count`` run their cells serially in-process through
    ``repro.harness.runner.run_trial``; ``sweep_small`` runs its cells
    through ``ParallelExecutor`` into a fresh, empty ``ResultCache``.
``setup``
    Imports, then builds every cell's schedule, nodes and
    ``Simulator`` without running a round: the set-up sample.

    Both report their time in reference seconds (``refclock.py``) as
    ``wall_s`` or ``setup_s``, and in wall-clock seconds as
    ``clock_s``.
``inproc``
    Every cell serially in-process through ``run_trial``: the baseline
    a traced pass is compared against.
``traced``
    Every cell serially in-process with spans and ``profile=True``;
    ``sweep_small`` then runs the cells untraced in-process once more,
    as the pool's baseline, and through the executor with spans around
    the pool and every cache write.

Every row is checked against the recorded expected row of its cell
(``expected.json``): a cell that raises, fails its oracle, or whose
deterministic columns differ counts as failed.
"""

import os
import sys
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.exec import ParallelExecutor, ResultCache  # noqa: E402
from repro.harness.runner import run_trial  # noqa: E402
from repro.simnet import RngRegistry, Simulator  # noqa: E402

import workloads  # noqa: E402
from refclock import RefTimer  # noqa: E402
from tracer import NULL_TRACER, Tracer  # noqa: E402

IMPORT_S = perf_counter() - _T0

#: The deterministic row columns every cell is checked on.
COLUMNS = ("rounds", "last_decision_round", "broadcast_bits",
           "delivered_messages", "max_message_bits", "correct")

EXPECTED_PATH = os.path.join(HERE, "expected.json")

_ADJ_HITS = ("span_hits", "fingerprint_hits")


def load_expected(workload, base, path=EXPECTED_PATH):
    """``{cell id: [expected column values]}`` for one workload and base."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    return table["workloads"][workload][str(base)]


def mismatch(row, expected):
    """Why *row* fails against *expected* (a list in COLUMNS order), or None."""
    if row.get("error"):
        return f"raised {row['error']}"
    if expected is None:
        return "no expected row recorded"
    got = [row.get(col) for col in COLUMNS]
    if got != list(expected):
        diff = {col: (want, have) for col, want, have
                in zip(COLUMNS, expected, got) if want != have}
        return f"row differs from expected (expected, got): {diff}"
    if row.get("correct") is not True:
        return "oracle failed"
    return None


def build_cell(spec, seed, tracer=NULL_TRACER, profile=False):
    """Build a cell's schedule, nodes and Simulator as ``run_trial`` does.

    Returns ``(config, schedule, simulator)``.
    """
    config = spec.to_config()
    with tracer.span("setup.schedule_build"):
        schedule = config.schedule_factory(seed)
    with tracer.span("setup.nodes_build"):
        nodes = list(config.node_factory(schedule, seed))
    with tracer.span("setup.simulator_init"):
        sim = Simulator(schedule, nodes, rng=RngRegistry(seed),
                        bandwidth_bits=config.bandwidth_bits,
                        profile=profile)
    return config, schedule, sim


def run_traced_cell(spec, seed, tracer):
    """Set up and run one cell the way ``run_trial`` does, with spans
    around every step and ``profile=True``.

    Returns ``(row, engine record)``; the engine record holds the
    profiled phase seconds, tier rounds and adjacency-cache counters.
    """
    config, schedule, sim = build_cell(spec, seed, tracer, profile=True)
    before = dict(schedule.adjacency_stats)
    schedule.adjacency = tracer.wrap("dynamics.adjacency",
                                     schedule.adjacency)
    with tracer.span("engine.run"):
        result = sim.run(max_rounds=config.max_rounds, until=config.until,
                         quiescence_window=config.quiescence_window,
                         allow_timeout=config.allow_timeout)
    with tracer.span("harness.oracle"):
        correct = (bool(config.oracle(result.outputs, schedule))
                   if config.oracle is not None else None)
    metrics = result.metrics
    after = schedule.adjacency_stats
    engine = {
        "phases": dict(metrics.phase_seconds),
        "tiers": dict(metrics.engine_stats),
        "csr_builds": after["builds"] - before["builds"],
        "adjacency_hits": sum(after[k] - before[k] for k in _ADJ_HITS),
    }
    row = {
        "rounds": result.rounds,
        "last_decision_round": metrics.last_decision_round,
        "broadcast_bits": metrics.broadcast_bits,
        "delivered_messages": metrics.delivered_messages,
        "max_message_bits": sim.metrics.max_broadcast_bits,
        "correct": correct,
    }
    return row, engine


def run_inprocess(cells, expected, tracer=None, timer=None):
    """Run *cells* serially in-process, checking each row.

    Untraced, every cell goes through ``run_trial``, timed by *timer*
    when one is given; with a *tracer*, through ``run_traced_cell``.
    Returns a dict with the loop's wall time (``cells_s``), failure
    messages and, when traced, the summed engine records.
    """
    out = {"cells_s": 0.0, "failures": [], "phases": {}, "tiers": {},
           "csr_builds": 0, "adjacency_hits": 0}
    start = perf_counter()
    for cid, spec, seed in cells:
        engine = {}
        try:
            if timer is not None:
                row = timer.time(run_trial, spec, seed).as_row()
            elif tracer is None:
                row = run_trial(spec, seed).as_row()
            else:
                tracer.cell = cid
                with tracer.span("bench.cell"):
                    row, engine = run_traced_cell(spec, seed, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted
            traceback.print_exc()
            row = {"error": repr(exc)}
        why = mismatch(row, expected.get(cid))
        if why is not None:
            out["failures"].append(f"{cid} seed={seed}: {why}")
        for key in ("phases", "tiers"):
            for name, value in engine.get(key, {}).items():
                out[key][name] = out[key].get(name, 0) + value
        out["csr_builds"] += engine.get("csr_builds", 0)
        out["adjacency_hits"] += engine.get("adjacency_hits", 0)
    out["cells_s"] = perf_counter() - start
    if tracer is not None:
        tracer.cell = None
    return out


def run_executor(cells, expected, tracer=NULL_TRACER, timer=None):
    """Run *cells* through ``ParallelExecutor`` into a fresh cache,
    counting the pool's wall time on *timer* when one is given.

    Returns ``(pool seconds, workers, failure messages)``.
    """
    workers = min(workloads.SWEEP_WORKERS, os.cpu_count() or 1)
    cache_root = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(cache_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=cache_root)
    try:
        cache = ResultCache(cache_dir)
        if tracer.enabled:
            cache.put = tracer.wrap("exec.cache_put", cache.put)
        executor = ParallelExecutor(workers=workers, cache=cache,
                                    on_error="record")
        tasks = [(spec, seed) for _, spec, seed in cells]
        start = perf_counter()
        with tracer.span("exec.pool"):
            if timer is None:
                report = executor.run(tasks)
            else:
                report = timer.time(executor.run, tasks)
        pool_s = perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    failures = []
    for (cid, _, seed), row in zip(cells, report.rows):
        why = mismatch(row, expected.get(cid))
        if why is not None:
            failures.append(f"{cid} seed={seed}: {why}")
    return pool_s, workers, failures


def probe_setup(cells, timer):
    """Build every cell without running a round, timed by *timer*."""
    for _, spec, seed in cells:
        timer.time(build_cell, spec, seed)


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def traced_layers(tracer, inproc):
    """Per-layer figures of a traced in-process pass."""
    adj = tracer.totals("dynamics.adjacency")
    run = tracer.totals("engine.run")
    phases = inproc["phases"]
    tiers = inproc["tiers"]
    rounds = sum(tiers.values())
    return {
        "dynamics.adjacency_s": adj["s"],
        "dynamics.adjacency_calls": adj["count"],
        "dynamics.csr_builds": inproc["csr_builds"],
        "dynamics.adjacency_hit_ratio": (
            inproc["adjacency_hits"] / adj["count"] if adj["count"] else 0.0),
        "engine.compose_s": phases.get("compose", 0.0),
        "engine.reveal_s": phases.get("reveal", 0.0),
        "engine.deliver_s": phases.get("deliver", 0.0),
        "engine.drain_s": phases.get("drain", 0.0),
        "engine.run_s": run["s"],
        "engine.run_self_s": run["self_s"],
        "engine.unattributed_s": run["s"] - sum(phases.values()),
        "engine.batch_rounds": tiers.get("batch", 0),
        "engine.fast_rounds": tiers.get("fast", 0),
        "engine.reference_rounds": tiers.get("reference", 0),
        "engine.batch_round_share": (
            tiers.get("batch", 0) / rounds if rounds else 0.0),
        "setup.schedule_build_s": tracer.totals("setup.schedule_build")["s"],
        "setup.nodes_build_s": tracer.totals("setup.nodes_build")["s"],
        "setup.simulator_init_s": tracer.totals("setup.simulator_init")["s"],
        "harness.oracle_s": tracer.totals("harness.oracle")["s"],
    }


def run_pass(workload, base, mode, spans_path=None):
    """Run one pass and return its summary dict."""
    cells = workloads.cells(workload, base)
    expected = load_expected(workload, base)
    summary = {"workload": workload, "base": base, "mode": mode}
    sweep = workload == "sweep_small"
    if mode in ("plain", "setup"):
        # Imports, then the timed work, in reference seconds (refclock).
        timer = RefTimer()
        timer.add_before(IMPORT_S)
        if mode == "setup":
            probe_setup(cells, timer)
            summary["attempted"] = 0
            failures = []
        elif sweep:
            failures = run_executor(cells, expected, timer=timer)[2]
        else:
            failures = run_inprocess(cells, expected, timer=timer)["failures"]
        timer.close()
        metric = "wall_s" if mode == "plain" else "setup_s"
        summary[metric] = timer.ref_s
        summary["clock_s"] = timer.wall_s
    elif mode == "inproc":
        inproc = run_inprocess(cells, expected)
        summary["cells_s"] = inproc["cells_s"]
        failures = inproc["failures"]
    elif mode == "traced":
        tracer = Tracer()
        inproc = run_inprocess(cells, expected, tracer)
        summary["cells_s"] = inproc["cells_s"]
        failures = inproc["failures"]
        layers = traced_layers(tracer, inproc)
        layers.update({"exec.pool_overhead_s": 0.0,
                       "exec.cache_put_s": 0.0, "exec.cache_puts": 0})
        attempted = len(cells)
        if sweep:
            # The pool's baseline: the same cells untraced, in this
            # process, which is as warm as the parent the workers fork.
            warm = run_inprocess(cells, expected)
            pool_s, workers, pool_failures = run_executor(
                cells, expected, tracer)
            puts = tracer.totals("exec.cache_put")
            layers.update({
                "exec.pool_overhead_s": pool_s - warm["cells_s"] / workers,
                "exec.cache_put_s": puts["s"],
                "exec.cache_puts": puts["count"]})
            failures += warm["failures"] + pool_failures
            attempted += 2 * len(cells)
        summary["layers"] = layers
        summary["attempted"] = attempted
        if spans_path:
            tracer.write(spans_path, workload=workload, base=base)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    summary.setdefault("attempted", len(cells))
    summary["failed"] = len(failures)
    summary["failures"] = failures
    summary["peak_rss_mb"] = peak_rss_mb()
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--base", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "inproc", "traced", "setup"))
    parser.add_argument("--spans", default=None,
                        help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)
    summary = run_pass(args.workload, args.base, args.mode, args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
