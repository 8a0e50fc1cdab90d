"""Engine tier benchmark: batch kernels vs fast path vs reference loops.

Both comparisons run on the T=4 overlap-handoff schedule and land in one
``results/BENCH_engine.json``:

* ``fast_vs_reference`` — null-broadcast nodes (constant broadcast, no
  decisions) through warmed-up ``Simulator.step()`` calls at
  N ∈ {64, 256, 1024}.  Compose and deliver are near-free, so this
  isolates the per-node engine's own round overhead (see
  ``docs/PERFORMANCE.md``).
* ``kernel_vs_fast`` — :class:`~repro.core.max_compute.SublinearMax`
  nodes (int payloads, segment-max delivery) through ``Simulator.run()``,
  so the batch-kernel tier engages, at N ∈ {256, 1024, 4096}; plus a
  ``lossy`` row at N=1024 under per-edge Bernoulli loss, kernel against
  the per-node fast path.

Usage::

    python benchmarks/bench_engine.py                   # full budgets
    python benchmarks/bench_engine.py --smoke           # the CI gate
    python benchmarks/bench_engine.py --write-baseline  # refresh baseline
    pytest benchmarks/bench_engine.py --benchmark-only  # part of make bench

Every measurement is checked by :func:`gate`:

* per N, each family's speedup ratio (fast/reference, kernel/fast) must
  stay within 25% of the committed ``results/bench_engine_baseline.json``
  — ratios, not absolute timings, so the gate is machine-portable.  The
  baseline is smoke-sized, so only smoke runs are compared with it;
* absolute bars: fast/reference ≥ 3x and kernel/fast ≥ 3x at N=1024,
  and the loss-masked kernels must beat the fast path outright
  (lossy kernel/fast > 1.0x).
"""

import argparse
import json
import os
import sys
from time import perf_counter

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # source checkout without `pip install -e .`
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import RngRegistry, Simulator
from repro.core.max_compute import SublinearMax
from repro.dynamics import OverlapHandoffAdversary
from repro.simnet.node import Algorithm

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "results"),
)
OUT_NAME = "BENCH_engine.json"
BASELINE_NAME = "bench_engine_baseline.json"

#: The three dispatch tiers, as (column label, engine argument).
TIERS = (("kernel", "fast"),
         ("fast", "fast-nobatch"),
         ("reference", "reference"))

#: Rounds timed per (tier, N) cell, by mode.  The smoke budgets keep one
#: gate run around a minute; the reference loop at N=4096 is the
#: pacing item.
FAST_REF_ROUNDS = {"full": {64: 3000, 256: 1000, 1024: 300},
                   "smoke": {64: 600, 256: 300, 1024: 120}}
KERNEL_ROUNDS = {"full": {256: 600, 1024: 200, 4096: 60},
                 "smoke": {256: 240, 1024: 80, 4096: 24}}

#: Per-edge Bernoulli loss probability and N of the lossy row.
LOSSY_RATE = 0.2
LOSSY_N = 1024

#: (family, speedup column, label) of each gated comparison.
FAMILIES = (("fast_vs_reference", "speedup", "fast/reference"),
            ("kernel_vs_fast", "kernel_speedup", "kernel/fast"))

#: Absolute acceptance bars: (family, speedup column, label, N, bar).
BARS = (("fast_vs_reference", "speedup", "fast/reference", 1024, 3.0),
        ("kernel_vs_fast", "kernel_speedup", "kernel/fast", 1024, 3.0))

#: The lossy kernel/fast ratio must exceed this (beat, not match, fast).
LOSSY_BAR = 1.0

#: Largest tolerated drop of a speedup ratio below its baseline.
MAX_REGRESSION = 0.25


class _NullBroadcast(Algorithm):
    """Minimal node: constant broadcast, no decisions."""

    name = "null_broadcast"

    def compose(self, ctx):
        return 1

    def deliver(self, ctx, inbox):
        self.mark_changed(False)


def _schedule(n):
    return OverlapHandoffAdversary(n, 4, noise_edges=0, seed=0)


def _step_rounds_per_sec(engine: str, n: int, rounds: int,
                         warmup: int = 5, reps: int = 3) -> float:
    """Best-of-*reps* rounds/sec of null-broadcast nodes via ``step()``."""
    best = 0.0
    for _ in range(reps):
        nodes = [_NullBroadcast(i) for i in range(n)]
        sim = Simulator(_schedule(n), nodes, rng=RngRegistry(0),
                        engine=engine)
        for _ in range(warmup):
            sim.step()
        start = perf_counter()
        for _ in range(rounds):
            sim.step()
        best = max(best, rounds / (perf_counter() - start))
    return best


def _run_rounds_per_sec(engine: str, n: int, rounds: int, reps: int = 2,
                        loss_rate: float = 0.0) -> float:
    """Best-of-*reps* rounds/sec of SublinearMax nodes via ``run()``.

    ``run()`` (not bare ``step()``) so the batch tier activates; the
    population stabilises but never halts, so ``until="halted"``
    executes exactly *rounds* rounds per rep.
    """
    best = 0.0
    for _ in range(reps):
        nodes = [SublinearMax(i, value=(i * 9176 + 37) % 100003)
                 for i in range(n)]
        sim = Simulator(_schedule(n), nodes, rng=RngRegistry(0),
                        engine=engine, loss_rate=loss_rate)
        start = perf_counter()
        result = sim.run(max_rounds=rounds, until="halted",
                         allow_timeout=True)
        elapsed = perf_counter() - start
        assert result.rounds == rounds
        if engine == "fast" and sim._tier_rounds["batch"] != rounds:
            raise AssertionError(
                f"batch tier did not engage: {sim._tier_rounds}")
        best = max(best, rounds / elapsed)
    return best


def measure(mode: str) -> dict:
    """Both comparisons at the *mode* (``"full"`` or ``"smoke"``) budgets."""
    fast_ref = []
    for n, rounds in FAST_REF_ROUNDS[mode].items():
        fast = _step_rounds_per_sec("fast", n, rounds)
        reference = _step_rounds_per_sec("reference", n, rounds)
        fast_ref.append({
            "n": n,
            "rounds_timed": rounds,
            "fast_rounds_per_sec": round(fast, 1),
            "reference_rounds_per_sec": round(reference, 1),
            "speedup": round(fast / reference, 3),
        })
    kernel = []
    for n, rounds in KERNEL_ROUNDS[mode].items():
        rates = {label: _run_rounds_per_sec(engine, n, rounds)
                 for label, engine in TIERS}
        kernel.append({
            "n": n,
            "rounds_timed": rounds,
            "kernel_rounds_per_sec": round(rates["kernel"], 1),
            "fast_rounds_per_sec": round(rates["fast"], 1),
            "reference_rounds_per_sec": round(rates["reference"], 1),
            "kernel_speedup": round(rates["kernel"] / rates["fast"], 3),
            "fast_speedup": round(rates["fast"] / rates["reference"], 3),
        })
    rounds = KERNEL_ROUNDS[mode][LOSSY_N]
    rates = {label: _run_rounds_per_sec(engine, LOSSY_N, rounds,
                                        loss_rate=LOSSY_RATE)
             for label, engine in TIERS if label != "reference"}
    lossy = {
        "n": LOSSY_N,
        "loss_rate": LOSSY_RATE,
        "rounds_timed": rounds,
        "kernel_rounds_per_sec": round(rates["kernel"], 1),
        "fast_rounds_per_sec": round(rates["fast"], 1),
        "kernel_speedup": round(rates["kernel"] / rates["fast"], 3),
    }
    return {"bench": "engine", "mode": mode,
            "schedule": "overlap_handoff_T4",
            "fast_vs_reference": {"nodes": "null_broadcast",
                                  "rows": fast_ref},
            "kernel_vs_fast": {"nodes": "sublinear_max", "rows": kernel,
                               "lossy": lossy}}


def gate(doc: dict, baseline=None):
    """The checks a measurement *doc* must pass, as ``[(line, ok)]``.

    Pure: no timing, no I/O.  With *baseline* ``None`` the ratio checks
    are skipped; the absolute bars always apply.
    """
    checks = []
    for family, column, label, n, bar in BARS:
        row = next((r for r in doc[family]["rows"] if r["n"] == n), None)
        value = row[column] if row is not None else 0.0
        checks.append((f"N={n}: {label} {value:.2f}x vs absolute bar "
                       f"{bar:.1f}x", value >= bar))
    lossy = doc["kernel_vs_fast"]["lossy"]
    checks.append((f"N={lossy['n']} loss={lossy['loss_rate']}: kernel/fast "
                   f"{lossy['kernel_speedup']:.2f}x vs lossy bar "
                   f"{LOSSY_BAR:.1f}x (must exceed)",
                   lossy["kernel_speedup"] > LOSSY_BAR))
    if baseline is None:
        return checks
    for family, column, label in FAMILIES:
        base_by_n = {r["n"]: r for r in baseline[family]["rows"]}
        for row in doc[family]["rows"]:
            base = base_by_n.get(row["n"])
            if base is None:
                continue
            floor = (1.0 - MAX_REGRESSION) * base[column]
            checks.append((f"N={row['n']}: {label} {row[column]:.2f}x vs "
                           f"baseline {base[column]:.2f}x (floor "
                           f"{floor:.2f}x)", row[column] >= floor))
    return checks


def _write(doc: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _print_rows(doc: dict) -> None:
    for row in doc["fast_vs_reference"]["rows"]:
        print(f"  N={row['n']}: fast {row['fast_rounds_per_sec']:.0f} r/s, "
              f"reference {row['reference_rounds_per_sec']:.0f} r/s "
              f"(fast/reference {row['speedup']:.2f}x, null broadcast)")
    for row in doc["kernel_vs_fast"]["rows"]:
        print(f"  N={row['n']}: kernel {row['kernel_rounds_per_sec']:.0f} "
              f"r/s, fast {row['fast_rounds_per_sec']:.0f} r/s, reference "
              f"{row['reference_rounds_per_sec']:.0f} r/s "
              f"(kernel/fast {row['kernel_speedup']:.2f}x, "
              f"fast/reference {row['fast_speedup']:.2f}x, SublinearMax)")
    lossy = doc["kernel_vs_fast"]["lossy"]
    print(f"  N={lossy['n']} loss={lossy['loss_rate']}: kernel "
          f"{lossy['kernel_rounds_per_sec']:.0f} r/s, fast "
          f"{lossy['fast_rounds_per_sec']:.0f} r/s "
          f"(kernel/fast {lossy['kernel_speedup']:.2f}x)")


def _measure_and_gate(mode: str, results_dir: str) -> bool:
    """Measure, write ``BENCH_engine.json``, print the gate; True = pass."""
    doc = measure(mode)
    out_path = os.path.join(results_dir, OUT_NAME)
    _write(doc, out_path)
    print(f"[bench-engine] {mode} -> {out_path}")
    _print_rows(doc)
    baseline = None
    if mode == "smoke":
        baseline_path = os.path.join(results_dir, BASELINE_NAME)
        if os.path.exists(baseline_path):
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        else:
            print(f"[bench-engine] no baseline at {baseline_path}; ratio "
                  f"gate skipped (absolute bars still enforced)")
    checks = gate(doc, baseline)
    for line, ok in checks:
        print(f"  {line} -> {'ok' if ok else 'REGRESSED'}")
    return all(ok for _, ok in checks)


def test_engine_tiers(benchmark, results_dir, quick):
    """Both engine comparisons, persisted and gated (smoke budgets when
    ``REPRO_BENCH_QUICK=1``)."""
    mode = "smoke" if quick else "full"
    passed = benchmark.pedantic(
        lambda: _measure_and_gate(mode, results_dir), rounds=1)
    assert passed, "engine bench gate failed; see the transcript above"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine tier benchmark / CI smoke gate")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="smoke-sized run gated against the committed "
                           f"baseline (results/{BASELINE_NAME}) and the "
                           "absolute bars")
    mode.add_argument("--write-baseline", action="store_true",
                      help="write a smoke-sized measurement as the new "
                           "committed baseline instead of gating")
    args = parser.parse_args(argv)
    if args.write_baseline:
        doc = measure("smoke")
        path = os.path.join(RESULTS_DIR, BASELINE_NAME)
        _write(doc, path)
        print(f"[bench-engine] baseline -> {path}")
        _print_rows(doc)
        return 0
    passed = _measure_and_gate("smoke" if args.smoke else "full",
                               RESULTS_DIR)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
