"""Generic trial execution.

A *trial* is one simulation: a schedule factory, a node factory, stop
configuration, and an optional correctness oracle.  :func:`run_trial`
executes it and returns a :class:`TrialResult` with the standard measured
quantities (rounds, last-final-decision round, bits, correctness);
:func:`run_replicates` repeats over seeds.

The measured quantity of record for stabilizing algorithms is
``last_decision_round`` — the round in which the last node fixed the
decision it never retracted (see :mod:`repro.core.termination`); for
halting algorithms it coincides with the total rounds executed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..obs import events as obs_events
from ..obs.recorder import Recorder, events_dir
from ..simnet.engine import RunResult, Simulator, engine_default
from ..simnet.node import Algorithm
from ..simnet.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..exec.specs import TrialSpec

__all__ = ["TrialConfig", "TrialResult", "run_trial", "run_replicates",
           "record_phase_seconds", "phase_totals", "reset_phase_totals",
           "record_engine_stats", "engine_totals", "reset_engine_totals",
           "NONDURABLE_ROW_PREFIXES", "durable_row"]

#: Row-column prefixes that are run-mode telemetry, not measured data:
#: wall-clock ``phase.*`` timings, ``engine.*`` dispatch-tier round
#: splits, ``obs.*`` event-stream counters, and ``cache.*`` hit/miss
#: counters.  The executor strips them before a row enters the journal
#: or the content-addressed result cache, and ``save_experiment``
#: strips them from persisted artefacts, so a cache-hit rerun and a
#: fresh (profiled or recorded) run produce byte-identical artefacts —
#: the equality ``python -m repro.report --check`` relies on.
NONDURABLE_ROW_PREFIXES = ("phase.", "engine.", "obs.", "cache.")


def durable_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """*row* without telemetry columns (the same object when clean).

    Strips every :data:`NONDURABLE_ROW_PREFIXES` column; rows that carry
    none are returned as-is (no copy) so the common unprofiled,
    unrecorded path stays allocation-free.
    """
    if any(key.startswith(NONDURABLE_ROW_PREFIXES) for key in row):
        return {key: value for key, value in row.items()
                if not key.startswith(NONDURABLE_ROW_PREFIXES)}
    return row if isinstance(row, dict) else dict(row)

# Process-wide accumulation of per-phase engine timings (profiled runs
# only).  Every profiled trial executed in this process feeds it via
# run_trial; the executor additionally feeds it with rows returned from
# worker processes.  The CLI's --profile flag renders the totals after
# each experiment — per-trial timings never enter the content-addressed
# result cache (wall-clock values are not deterministic row data).
_PHASE_TOTALS: Dict[str, float] = {}
_PHASE_TRIALS = 0


def record_phase_seconds(
        phase_seconds: Optional[Mapping[str, float]]) -> None:
    """Add one profiled trial's per-phase timings to the process totals."""
    global _PHASE_TRIALS
    if not phase_seconds:
        return
    _PHASE_TRIALS += 1
    for name, seconds in phase_seconds.items():
        _PHASE_TOTALS[name] = _PHASE_TOTALS.get(name, 0.0) + float(seconds)


def phase_totals() -> Tuple[Dict[str, float], int]:
    """``(accumulated per-phase seconds, number of profiled trials)``."""
    return dict(_PHASE_TOTALS), _PHASE_TRIALS


def reset_phase_totals() -> None:
    """Clear the process-wide phase-timing accumulator."""
    global _PHASE_TRIALS
    _PHASE_TOTALS.clear()
    _PHASE_TRIALS = 0


# Same pattern for the engine's per-tier round counts (batch kernels /
# per-node fast path / reference loops): profiled trials report them via
# RunMetrics.engine_stats, the CLI renders the dispatch split so a
# "kernels are engaging" sanity check is one --profile run away.
_ENGINE_TOTALS: Dict[str, int] = {}


def record_engine_stats(engine_stats: Optional[Mapping[str, int]]) -> None:
    """Add one profiled trial's per-tier round counts to process totals."""
    if not engine_stats:
        return
    for tier, rounds in engine_stats.items():
        _ENGINE_TOTALS[tier] = _ENGINE_TOTALS.get(tier, 0) + int(rounds)


def engine_totals() -> Dict[str, int]:
    """Accumulated rounds executed per engine dispatch tier."""
    return dict(_ENGINE_TOTALS)


def reset_engine_totals() -> None:
    """Clear the process-wide engine-tier accumulator."""
    _ENGINE_TOTALS.clear()


ScheduleFactory = Callable[[int], object]         # seed -> schedule
NodeFactory = Callable[[object, int], Sequence[Algorithm]]  # (schedule, seed) -> nodes
Oracle = Callable[[Dict[int, Any], object], bool]  # (outputs, schedule) -> ok

#: Anything :func:`run_trial` accepts: a lambda-based config or a
#: declarative, picklable spec (see :mod:`repro.exec.specs`).
TrialLike = Union["TrialConfig", "TrialSpec"]


@dataclass
class TrialConfig:
    """Everything needed to run one simulation trial.

    Attributes
    ----------
    schedule_factory:
        ``seed -> schedule``; called once per trial.
    node_factory:
        ``(schedule, seed) -> [Algorithm, ...]``.
    max_rounds:
        Round budget.
    until / quiescence_window:
        Stop condition, as in :meth:`repro.simnet.engine.Simulator.run`.
    stop_when:
        Optional oracle stop predicate over the simulator.
    oracle:
        Optional output-correctness check ``(outputs, schedule) -> bool``.
    bandwidth_bits:
        Optional CONGEST budget (overflows counted, not fatal).
    allow_timeout:
        Forward to the engine; timeouts then yield ``stop_reason ==
        "max_rounds"`` instead of raising.

    The engine tier and per-phase profiling are process-wide settings
    (:func:`repro.simnet.engine.engine_default` and
    :func:`~repro.simnet.engine.profile_default`; the CLI's ``--engine``
    and ``--profile`` flags, ``REPRO_ENGINE`` and ``REPRO_PROFILE``).
    """

    schedule_factory: ScheduleFactory
    node_factory: NodeFactory
    max_rounds: int
    until: str = "halted"
    quiescence_window: int = 1
    stop_when: Optional[Callable[[Simulator], bool]] = None
    oracle: Optional[Oracle] = None
    bandwidth_bits: Optional[int] = None
    allow_timeout: bool = False


@dataclass(frozen=True)
class TrialResult:
    """Measured quantities of one trial (flattened into result rows)."""

    seed: int
    rounds: int
    last_decision_round: Optional[int]
    first_decision_round: Optional[int]
    broadcast_bits: int
    delivered_messages: int
    max_message_bits: int
    correct: Optional[bool]
    stop_reason: str
    outputs_sample: Any
    counters: Dict[str, int]
    phase_seconds: Optional[Dict[str, float]] = None
    engine_stats: Optional[Dict[str, int]] = None
    obs_counters: Optional[Dict[str, int]] = None
    cache_counters: Optional[Dict[str, int]] = None

    def as_row(self, **extra: Any) -> Dict[str, Any]:
        """Flatten to a results row, merging experiment parameters."""
        row = {
            "seed": self.seed,
            "rounds": self.rounds,
            "last_decision_round": self.last_decision_round,
            "broadcast_bits": self.broadcast_bits,
            "delivered_messages": self.delivered_messages,
            "max_message_bits": self.max_message_bits,
            "correct": self.correct,
            "stop_reason": self.stop_reason,
        }
        if self.phase_seconds is not None:
            for name, seconds in sorted(self.phase_seconds.items()):
                row[f"phase.{name}_s"] = seconds
        if self.engine_stats is not None:
            for tier, rounds in sorted(self.engine_stats.items()):
                row[f"engine.{tier}_rounds"] = rounds
        if self.obs_counters is not None:
            for kind, count in sorted(self.obs_counters.items()):
                row[f"obs.{kind}"] = count
        if self.cache_counters is not None:
            for name, count in sorted(self.cache_counters.items()):
                row[f"cache.{name}"] = count
        row.update(extra)
        return row


# Per-process counter distinguishing trial event streams that share a
# seed (e.g. replicates of different grid points); combined with the PID
# it keeps every worker's stream files collision-free without locks.
_STREAM_SEQ = 0


def _open_trial_recorder(label: str, spec_key: str, seed: int,
                         config: TrialConfig) -> Optional[Recorder]:
    """A JSONL recorder for this trial, or None when events are off."""
    global _STREAM_SEQ
    out_dir = events_dir()
    if out_dir is None:
        return None
    _STREAM_SEQ += 1
    path = os.path.join(
        out_dir, f"trial-{os.getpid()}-{_STREAM_SEQ:04d}-seed{seed}.jsonl")
    recorder = Recorder.to_jsonl(path)
    recorder.emit(obs_events.TrialEvent(
        seed=seed, label=label, spec=spec_key,
        engine=engine_default(),
        until=config.until, max_rounds=config.max_rounds))
    return recorder


def run_trial(config: TrialLike, seed: int) -> TrialResult:
    """Execute one trial with the given seed.

    Accepts either a :class:`TrialConfig` or a declarative
    :class:`repro.exec.TrialSpec` (resolved via its ``to_config``); all
    randomness derives from ``RngRegistry(seed)``, never ambient state,
    so equal inputs reproduce byte-identical results in any process.

    When a process-wide events directory is configured (the CLI's
    ``--events DIR`` flag or ``REPRO_EVENTS_DIR``; see
    :mod:`repro.obs`), the trial additionally writes a schema-validated
    ``trial-*.jsonl`` event stream there, headed by a provenance
    record.  Recording never changes the measured results — the engine
    guarantees recorded and unrecorded runs are bit-identical.  Recorded
    results additionally carry ``obs.*`` event counters and ``cache.*``
    hit/miss counters; like ``phase.*`` / ``engine.*`` these are
    telemetry, stripped wherever rows are persisted (see
    :func:`durable_row`).
    """
    label = spec_key = ""
    if not isinstance(config, TrialConfig):
        label = config.label()
        spec_key = config.key(seed)
        config = config.to_config()
    schedule = config.schedule_factory(seed)
    nodes = list(config.node_factory(schedule, seed))
    recorder = _open_trial_recorder(label, spec_key, seed, config)
    sim = Simulator(
        schedule, nodes, rng=RngRegistry(seed),
        bandwidth_bits=config.bandwidth_bits,
        recorder=recorder,
    )
    try:
        result: RunResult = sim.run(
            max_rounds=config.max_rounds,
            until=config.until,
            quiescence_window=config.quiescence_window,
            stop_when=config.stop_when,
            allow_timeout=config.allow_timeout,
        )
    finally:
        if recorder is not None:
            recorder.close()
    obs_counters = recorder.summary() if recorder is not None else None
    cache_counters = sim.cache_stats() if recorder is not None else None
    correct: Optional[bool] = None
    if config.oracle is not None:
        correct = bool(config.oracle(result.outputs, schedule))
    sample = next(iter(result.outputs.values()), None)
    record_phase_seconds(result.metrics.phase_seconds)
    record_engine_stats(result.metrics.engine_stats)
    return TrialResult(
        seed=seed,
        rounds=result.rounds,
        last_decision_round=result.metrics.last_decision_round,
        first_decision_round=result.metrics.first_decision_round,
        broadcast_bits=result.metrics.broadcast_bits,
        delivered_messages=result.metrics.delivered_messages,
        max_message_bits=sim.metrics.max_broadcast_bits,
        correct=correct,
        stop_reason=result.stop_reason,
        outputs_sample=sample,
        counters=dict(result.metrics.counters),
        phase_seconds=(dict(result.metrics.phase_seconds)
                       if result.metrics.phase_seconds is not None else None),
        engine_stats=(dict(result.metrics.engine_stats)
                      if result.metrics.engine_stats is not None else None),
        obs_counters=obs_counters,
        cache_counters=cache_counters,
    )


def run_replicates(config: TrialLike,
                   seeds: Sequence[int]) -> List[TrialResult]:
    """Run the trial once per seed, collecting all results."""
    return [run_trial(config, seed) for seed in seeds]
