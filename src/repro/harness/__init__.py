"""S7 — experiment harness.

* :mod:`~repro.harness.runner` — generic run-one-trial machinery:
  resolve a :class:`repro.exec.TrialSpec`, build schedule + nodes,
  execute, check output correctness with the spec's oracle, extract the
  measured quantities;
* :mod:`~repro.harness.experiments` — one function per experiment id
  (T1–T3, F1–F6 from DESIGN.md §3 and the extensions X1–X2), each
  returning an :class:`~repro.harness.experiments.ExperimentResult`
  with raw rows and rendered tables/figures;
* :mod:`~repro.harness.sweeps` — cartesian parameter sweeps over specs;
* :mod:`~repro.harness.io` — persistence of results (CSV + JSON + the
  rendered text) under a results directory;
* :mod:`~repro.harness.cli` — ``repro-experiments`` entry point that runs
  any subset of experiments and writes everything to disk.

Every trial is a :class:`~repro.exec.TrialSpec`.  T1, F2, F3, T2, F6
and X1 route their cells through the :mod:`repro.exec` executor, which
adds worker processes, a content-addressed result cache, and crash-safe
resume on top of the same measurement semantics
(``--workers/--cache-dir/--resume`` on the CLI); F1 and F5 reuse T1's
rows.  F4 and T3 call :func:`run_trial` serially because they read each
trial's output sample and counters, which rows do not carry.  X2 drives
the :class:`~repro.simnet.engine.Simulator` directly to set a message
loss rate.
"""

from .runner import TrialResult, run_trial, run_replicates
from .experiments import (
    ExperimentResult,
    EXPERIMENTS,
    run_experiment,
)
from .io import save_experiment, load_rows
from .sweeps import grid_points, sweep, sweep_with_report, aggregate_rows
from .claims import Claim, CLAIMS, check_claims, render_claims

__all__ = [
    "TrialResult",
    "run_trial",
    "run_replicates",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "save_experiment",
    "load_rows",
    "grid_points",
    "sweep",
    "sweep_with_report",
    "aggregate_rows",
    "Claim",
    "CLAIMS",
    "check_claims",
    "render_claims",
]
