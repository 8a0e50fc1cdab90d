"""Run one benchmark workload and print its metrics as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload pernode_count --seed 0 \\
        --seconds 30 --trace 0

Each workload is a fixed list of cells (see ``workloads.py``) run as a
closed loop: a cell starts when the previous one finishes, or, in
``sweep_small``, when a pool worker frees up.  Every pass over the
cells runs in a fresh process (``passes.py``), so each pass pays its
own imports.  Units of passes repeat until the next one would end
after ``--seconds``; medians over the units are reported.

``--trace 0`` repeats pairs of a ``plain`` pass, the workload as a
user runs it, and a ``setup`` pass, which only builds the cells, at
least twice, and reports the end-to-end metrics; their times are in
reference seconds (``refclock.py``), which cancel the host's speed
drift, and the wall-clock medians go to standard error.
``--trace 1`` repeats pairs of an untraced and a traced in-process
pass and reports the per-layer metrics, in wall-clock seconds,
including ``trace.overhead_ratio``, the traced pass's cell time over
the untraced one's; traced passes run the engine with
``profile=True``, which is slower than the fused default loop.
Spans go to ``.bench_build/perfbench/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
progress and failure messages go to standard error.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "dynamics.adjacency_s": "s",
    "dynamics.adjacency_calls": "count",
    "dynamics.csr_builds": "count",
    "dynamics.adjacency_hit_ratio": "ratio",
    "engine.compose_s": "s",
    "engine.reveal_s": "s",
    "engine.deliver_s": "s",
    "engine.drain_s": "s",
    "engine.run_s": "s",
    "engine.run_self_s": "s",
    "engine.unattributed_s": "s",
    "engine.batch_rounds": "count",
    "engine.fast_rounds": "count",
    "engine.reference_rounds": "count",
    "engine.batch_round_share": "ratio",
    "setup.schedule_build_s": "s",
    "setup.nodes_build_s": "s",
    "setup.simulator_init_s": "s",
    "exec.pool_overhead_s": "s",
    "exec.cache_put_s": "s",
    "exec.cache_puts": "count",
    "harness.oracle_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: A pass that takes longer is killed and the run fails.
PASS_TIMEOUT_S = 170

#: No further pass starts once a run has taken this long.
RUN_BUDGET_S = 120


class PassFailed(RuntimeError):
    """A pass process exited abnormally (not a failed cell)."""


def _child_env():
    # REPRO_* variables select engines, profiling and event recording;
    # the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run(cmd):
    """Run *cmd* in its own process group; return its standard output."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{cmd[1:]} exceeded {PASS_TIMEOUT_S}s") from None
    except BaseException:
        # Interrupted or terminated: take the pass and its workers along.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise PassFailed(f"{cmd[1:]} exited {proc.returncode}:\n"
                         f"{err[-2000:]}")
    sys.stderr.write(err)
    return out


def run_pass(workload, base, mode, spans=None):
    """One ``passes.py`` process; returns its summary dict."""
    cmd = [sys.executable, os.path.join(HERE, "passes.py"),
           "--workload", workload, "--base", str(base), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", spans]
    return json.loads(_run(cmd).strip().splitlines()[-1])


def warm_up():
    """Compile the sources and load the libraries once before timing,
    so the first pass does not pay costs users pay only once."""
    _run([sys.executable, "-c",
          "import compileall, sys\n"
          "for d in sys.argv[1:]: compileall.compile_dir(d, quiet=1)\n"
          "import repro.baselines, repro.core, repro.dynamics, repro.exec\n",
          os.path.join(ROOT, "src"), HERE])


def end_to_end(units):
    return {
        "wall_s": statistics.median(p["wall_s"] for p, _ in units),
        "setup_s": statistics.median(s["setup_s"] for _, s in units),
        "peak_rss_mb": max(p["peak_rss_mb"] for p, _ in units),
    }


def per_layer(units):
    samples = {name: [] for name in PER_LAYER}
    for base_pass, traced in units:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (
            traced["cells_s"] / base_pass["cells_s"])
        for name in PER_LAYER:
            samples[name].append(layers[name])
    return {name: statistics.median(vals) for name, vals in samples.items()}


def _print_layer_self_times(spans):
    """Print the last traced pass's self time per layer, per workload
    and per cell, from the header of its spans file."""
    with open(spans, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    print(f"self time by layer, {header['workload']}: "
          + ", ".join(f"{layer} {s:.3f}s" for layer, s
                      in sorted(header["self_s_by_layer"].items())),
          file=sys.stderr)
    for cell, layers in header["self_s_by_cell"].items():
        print(f"  {cell}: " + ", ".join(
            f"{layer} {s:.3f}s" for layer, s in sorted(layers.items())),
            file=sys.stderr)


def measure(workload, seed, seconds, trace):
    """Run units until the next would end after *seconds*; returns the
    result object the benchmark prints."""
    base = workloads.seed_base(seed)
    warm_up()
    spans_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    units = []
    start = perf_counter()
    while True:
        if trace:
            spans = os.path.join(
                spans_dir, f"spans-{workload}-seed{seed}-{len(units)}.jsonl")
            units.append((run_pass(workload, base, "inproc"),
                          run_pass(workload, base, "traced", spans)))
        else:
            units.append((run_pass(workload, base, "plain"),
                          run_pass(workload, base, "setup")))
        elapsed = perf_counter() - start
        next_end = elapsed * (len(units) + 1) / len(units)
        enough = len(units) >= (1 if trace else 2)
        if (enough and next_end > seconds) or next_end > RUN_BUDGET_S:
            break
    passes = [p for u in units for p in u]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for msg in p["failures"][:5]:
            print(f"FAILED {p['workload']} ({p['mode']}): {msg}",
                  file=sys.stderr)
    if trace:
        _print_layer_self_times(spans)
    values = per_layer(units) if trace else end_to_end(units)
    units_of = PER_LAYER if trace else END_TO_END
    print(f"{workload} seed={seed} base={base}: {len(units)} units in "
          f"{perf_counter() - start:.1f}s, {attempted} cells, "
          f"{failed} failed", file=sys.stderr)
    if not trace:
        clock = [statistics.median(u[i]["clock_s"] for u in units)
                 for i in (0, 1)]
        print(f"wall-clock medians: plain {clock[0]:.3f}s, "
              f"setup {clock[1]:.3f}s", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
