"""The benchmark's workloads: fixed lists of ``(cell id, TrialSpec, seed)``.

Every workload is generated from one *seed base*.  ``--seed n`` on the
command line selects ``SEED_BASES[n % len(SEED_BASES)]``; the expected
deterministic row of every cell is recorded for every base in the bank
(``expected.json``, written by ``record_expected.py``), so any seed the
benchmark is given is checked against rows taken at the commit that
defined it.  Base 0 is the default and reproduces the cells the
workloads were sized on.

Trial seeds are ``10 * base + r`` for replicate ``r`` (1..10 in
``sweep_small``, 1..4 in ``pernode_count``, 1 elsewhere), so two bases
never share a trial seed.

Why each workload (the one-line forms are in ``BENCHMARK.json``):

* ``pernode_count`` -- the per-node fast-tier cells that carry most
  rounds of the full experiment run.  The three algorithms split a
  round differently: token dissemination is compose-heavy, KLO is
  reveal-heavy (``n/8`` noise edges defeat ``stable_until``, so nearly
  every round builds a fresh CSR), hybrid Count is deliver-heavy and
  halts.  Token dissemination and hybrid Count stop after a number of
  rounds that depends on the seed (880-1406 for token dissemination
  at N=256), so each runs as four replicates at a smaller N: the
  pass's work then varies little from one seed base to the next.
* ``batch_count`` -- the NumPy batch-kernel tier at N=4096, where
  per-node compose is near zero (the bypass case for compose fixes)
  and ApproxCount's per-node sketch-width solve makes set-up heavy.
  The noise-free ``overlap_handoff`` Max cell is served from the
  adjacency span cache: the bypass case for reveal fixes.
* ``sweep_small`` -- 150 short cells through the process-pool executor
  into a fresh result cache, where per-cell executor and cache cost is
  a large share of the wall clock.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["SEED_BASES", "WORKLOADS", "SWEEP_WORKERS", "seed_base",
           "trial_seed", "cells"]

#: The seed bases whose expected rows are recorded.  Base 24 is left
#: out: its ApproxCount cell (seed 241) misses eps=0.25 at N=4096, a
#: miss ApproxCount's delta=0.05 allows, and a cell that fails its
#: oracle counts as failed.  ``record_expected.py`` refuses to record a
#: bank in which any cell fails its oracle.
SEED_BASES = tuple(b for b in range(33) if b != 24)

WORKLOADS = ("pernode_count", "batch_count", "sweep_small")

#: Process-pool size of ``sweep_small`` (capped by the CPU count).
SWEEP_WORKERS = 2


def seed_base(seed: int) -> int:
    """The seed base a command-line ``--seed`` selects."""
    return SEED_BASES[int(seed) % len(SEED_BASES)]


def trial_seed(base: int, replicate: int) -> int:
    """Trial seed of *replicate* (1-based) under *base*."""
    return 10 * base + replicate


def _pernode(TrialSpec, base: int):
    lowdiam = "lowdiam_handoff"
    cells = [
        (f"token_dissemination_knownN/n=128/r={r}", TrialSpec(
            schedule=lowdiam, schedule_params={"n": 128, "T": 2},
            nodes="token_dissemination",
            node_params={"n": 128, "known_count": True},
            max_rounds=40 * 128 + 400, until="decided",
            oracle="count_exact"), trial_seed(base, r))
        for r in range(1, 5)
    ]
    # KLO is deterministic and topology-oblivious: 4204 rounds at
    # N=32 for every seed; the budget is the T1 grid's.
    cells.append(("klo_count/n=32", TrialSpec(
        schedule=lowdiam, schedule_params={"n": 32, "T": 2},
        nodes="klo_count", node_params={"n": 32},
        max_rounds=2 * 4204 + 200, until="halted",
        oracle="count_exact"), trial_seed(base, 1)))
    cells += [
        (f"hybrid_count/n=64/r={r}", TrialSpec(
            schedule=lowdiam, schedule_params={"n": 64, "T": 2},
            nodes="hybrid_count", node_params={"n": 64},
            max_rounds=10 * 64 + 400, until="halted",
            oracle="count_exact"), trial_seed(base, r))
        for r in range(1, 5)
    ]
    return cells


def _batch(TrialSpec, base: int):
    n = 4096
    seed = trial_seed(base, 1)
    stop = {"max_rounds": 20 * n + 2000, "until": "quiescent",
            "quiescence_window": 64}
    return [
        ("exact_count_ours/n=4096", TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": 2},
            nodes="exact_count", node_params={"n": n},
            oracle="count_exact", **stop), seed),
        ("approx_count_ours/n=4096", TrialSpec(
            schedule="lowdiam_handoff", schedule_params={"n": n, "T": 2},
            nodes="approx_count",
            node_params={"n": n, "eps": 0.25, "delta": 0.05},
            oracle="count_approx", oracle_params={"eps": 0.25},
            **stop), seed),
        ("sublinear_max/overlap_T4/n=4096", TrialSpec(
            schedule="overlap_handoff", schedule_params={"n": n, "T": 4},
            nodes="sublinear_max_modvalue", node_params={"n": n},
            oracle="max_modvalue", **stop), seed),
    ]


def _sweep(TrialSpec, base: int):
    def families(n: int):
        stop = {"max_rounds": 40 * n + 4000, "until": "quiescent",
                "quiescence_window": 32}
        return [
            ("sublinear_consensus/repaired_mobility", TrialSpec(
                schedule="repaired_mobility",
                schedule_params={"n": n, "T": 2},
                nodes="sublinear_consensus", node_params={"n": n},
                oracle="consensus_valid", **stop)),
            ("exact_count/alternating_matchings", TrialSpec(
                schedule="alternating_matchings", schedule_params={"n": n},
                nodes="exact_count", node_params={"n": n},
                oracle="count_exact", **stop)),
            ("sublinear_max/static_ring_of_cliques", TrialSpec(
                schedule="static_ring_of_cliques",
                schedule_params={"n": n, "num_cliques": 4},
                nodes="sublinear_max_modvalue", node_params={"n": n},
                oracle="max_modvalue", **stop)),
            ("pipelined_exact_count/lowdiam_handoff", TrialSpec(
                schedule="lowdiam_handoff", schedule_params={"n": n, "T": 2},
                nodes="pipelined_exact_count",
                node_params={"n": n, "ids_per_message": 4},
                # Streaming ids 4 per message goes quiet for longer
                # than 32 rounds before it converges; 96 is the
                # experiments' window for this algorithm.
                max_rounds=80 * n + 8000, until="quiescent",
                quiescence_window=96, bandwidth_bits=160,
                oracle="count_exact")),
            ("exact_count/fresh_spanning", TrialSpec(
                schedule="fresh_spanning", schedule_params={"n": n},
                nodes="exact_count", node_params={"n": n},
                oracle="count_exact", **stop)),
        ]

    return [
        (f"{family}/n={n}/r={r}", spec, trial_seed(base, r))
        for n in (16, 32, 64)
        for family, spec in families(n)
        for r in range(1, 11)
    ]


_BUILDERS = {"pernode_count": _pernode, "batch_count": _batch,
             "sweep_small": _sweep}


def cells(workload: str, base: int) -> List[Tuple[str, object, int]]:
    """The ``(cell id, TrialSpec, trial seed)`` list of *workload*."""
    from repro.exec import TrialSpec

    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {list(WORKLOADS)}")
    if base not in SEED_BASES:
        raise ValueError(f"seed base {base} is not in the recorded bank")
    return _BUILDERS[workload](TrialSpec, base)
