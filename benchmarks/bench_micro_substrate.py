"""Microbenchmarks of the substrate hot paths.

Not tied to a paper table; these track the performance of the pieces
every experiment sits on (engine round throughput, flood-closure
diameter computation, promise verification, sketch merging), so
regressions in the substrate show up independently of the experiment
numbers.  The engine tier comparison and its CI gate live in
``bench_engine.py``.
"""

import numpy as np

from repro import RngRegistry, Simulator
from repro.core import ApproxCount, ExactCount
from repro.core.sketches import ExponentialCountSketch
from repro.dynamics import (
    OverlapHandoffAdversary,
    StaticAdversary,
    dynamic_diameter,
    random_regular_expander,
    verify_t_interval_connectivity,
)


def test_engine_round_throughput(benchmark):
    """Rounds/second of the bare engine at N=256 (ExactCount payloads)."""
    n = 256
    sched = StaticAdversary(
        n, random_regular_expander(n, 4, np.random.default_rng(0)))
    nodes = [ExactCount(i) for i in range(n)]
    sim = Simulator(sched, nodes, rng=RngRegistry(0))

    benchmark(sim.step)


def test_flood_closure_diameter(benchmark):
    """Bit-packed all-pairs flood closure at N=512."""
    n = 512
    sched = StaticAdversary(
        n, random_regular_expander(n, 4, np.random.default_rng(1)))
    result = benchmark(lambda: dynamic_diameter(sched))
    assert result < 16


def test_promise_verification(benchmark):
    """Sliding-window T-interval verification, 200 rounds at N=128."""
    adv = OverlapHandoffAdversary(128, 4, noise_edges=16, seed=3)
    ok = benchmark(
        lambda: verify_t_interval_connectivity(adv, 4, horizon=200))
    assert ok[0]


def test_sketch_aggregation_round(benchmark):
    """One simulated round of min-vector aggregation at N=128, k=64."""
    n = 128
    sched = OverlapHandoffAdversary(n, 2, seed=5)
    nodes = [ApproxCount(i, width=64) for i in range(n)]
    sim = Simulator(sched, nodes, rng=RngRegistry(5))
    benchmark(sim.step)


def test_sketch_estimator(benchmark):
    """Estimator evaluation cost (vectorised Gamma inverse)."""
    sk = ExponentialCountSketch(256)
    rng = np.random.default_rng(2)
    minima = rng.exponential(1.0 / 500, size=256)
    est = benchmark(lambda: sk.estimate(minima))
    assert 100 < est < 2500
