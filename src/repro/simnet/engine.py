"""The lock-step round engine.

:class:`Simulator` wires together a *dynamic-graph schedule* (anything
satisfying the :class:`ScheduleLike` duck type — in practice the classes in
:mod:`repro.dynamics`), a list of :class:`~repro.simnet.node.Algorithm`
nodes, and the metrics/trace machinery, and executes synchronous rounds:

1. every non-halted node composes its broadcast payload (graph not yet
   visible to it);
2. the schedule's graph for the round delivers each payload to the
   sender's current neighbours;
3. every non-halted node consumes its inbox;
4. decision-lifecycle events are drained into metrics and traces.

Stop conditions
---------------
``run`` stops at the first of:

* all nodes **halted** (``until="halted"``, the default);
* all nodes **decided** (``until="decided"``) — appropriate for algorithms
  that decide exactly once;
* all nodes decided and reporting no state change for
  ``quiescence_window`` consecutive rounds (``until="quiescent"``) —
  appropriate for *stabilizing* algorithms whose decisions may be
  tentatively wrong and later retracted (see
  :mod:`repro.core.termination` for why this matters in this model);
* a user predicate (``stop_when``);
* the round budget ``max_rounds`` (raising
  :class:`~repro.errors.NotTerminatedError` unless ``allow_timeout``).

Engines
-------
Rounds execute on one of three in-tree **tiers** (see
:mod:`repro.simnet.backends`), held as the fixed ordered tuple
:data:`TIERS` — batch kernels, then the fast path, then the reference
loops.  When :meth:`Simulator.run` starts it walks the tuple and
engages the first tier that does not decline the run; every tier passed
over leaves a structured
:class:`~repro.simnet.backends.base.CapabilityDiff` (surfaced through
``engine_tier`` observability events).  All tiers produce **identical**
:class:`RunResult`\\ s (golden-equivalence tested across topologies ×
algorithms × loss rates):

* **batch kernels** (overlay) — when every node is an instance of one
  algorithm class exposing the ``__batch_kernel__`` hook (see
  :mod:`repro.simnet.backends.batch`), whole rounds execute as NumPy
  segment-reduces over the CSR adjacency, with decisions/halts/metrics
  reconciled from the arrays.  Message loss is handled natively via a
  vectorised per-edge Bernoulli delivery view; trace recorders, strict
  bandwidth, ``stop_when`` predicates, and adaptive schedules decline
  the tier.  The first halt event retires it to the fast tier.
* **fast** — consumes the schedule's interval-aware CSR adjacency (see
  :meth:`repro.dynamics.GraphSchedule.adjacency`), tracks the
  non-halted *active set* incrementally so per-round work is
  ``O(active)``, reuses one :class:`RoundContext` per node, and computes
  live degrees vectorised over the CSR.  Schedules that expose only the
  minimal :class:`ScheduleLike` duck type (no ``adjacency``) decline it.
* **reference** — the straightforward per-node loops, kept as the
  executable specification the other tiers are tested against; it
  serves every run.

The ``engine`` argument picks where the walk may go (:data:`ENGINES`):
``"fast"`` (default) tries all three tiers, ``"fast-nobatch"`` skips the
batch kernels, and ``"reference"`` pins the reference loops.

Profiling
---------
Pass ``profile=True`` (or set the module default via
:func:`set_profile_default` / the ``REPRO_PROFILE=1`` environment
variable, which is what the harness CLI's ``--profile`` flag does) to
collect monotonic per-phase wall-clock totals — ``compose``, ``reveal``,
``deliver``, ``drain`` — surfaced as
:attr:`~repro.simnet.metrics.RunMetrics.phase_seconds`.  Profiled runs
execute the same round loops as unprofiled ones; the fast tier reads
the clock at its phase boundaries (see
:func:`repro.simnet.backends.fast.run_fast_round`).

Observability
-------------
Pass ``recorder=`` a :class:`repro.obs.Recorder` to stream structured
events (per-round broadcast/delivery totals, decision lifecycles,
engine-tier dispatch decisions with reasons, cache hit/miss counters).
The hook is zero-overhead when absent — one ``is None`` check per round,
no event objects allocated; when present, each round runs on the same
tier loop as an unrecorded one, wrapped by
:meth:`Simulator._step_recorded`, which derives the events from the
round's metric and decision-state deltas.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .._validate import require_choice, require_positive_int
from ..errors import ConfigurationError, NotTerminatedError
from ..obs import events as obs_events
from ..obs.recorder import Recorder
from .backends import (BatchBackend, CapabilityDiff, EngineBackend,
                       FastBackend, ReferenceBackend)
from .message import bit_size
from .metrics import MetricsCollector, RunMetrics
from .node import Algorithm, RoundContext
from .rng import RngRegistry
from .trace import TraceRecorder

__all__ = ["Simulator", "RunResult", "ScheduleLike", "TIERS", "ENGINES",
           "ENGINE_TIERS", "set_profile_default", "profile_default",
           "set_engine_default", "engine_default"]

#: Phase names of the per-round profiling breakdown, in execution order.
PHASES = ("compose", "reveal", "deliver", "drain")

#: The engine tiers, in the order a run tries them.  Batch is the only
#: overlay: it runs on top of the fast tier and retires to it mid-run.
TIERS: Tuple[EngineBackend, ...] = (
    BatchBackend(), FastBackend(), ReferenceBackend())
_BATCH, _FAST, _REFERENCE = TIERS

#: Tier names, in order; the key set of per-run tier accounting.
ENGINE_TIERS: Tuple[str, ...] = tuple(tier.name for tier in TIERS)

#: Values ``Simulator(engine=...)`` and the CLIs' ``--engine`` accept.
ENGINES: Tuple[str, ...] = ("fast", "fast-nobatch", "reference")

_PROFILE_DEFAULT = os.environ.get("REPRO_PROFILE", "") not in ("", "0")

#: Process default installed by :func:`set_engine_default`; ``None``
#: means "no setter call yet" and resolves to ``"fast"``.
_ENGINE_DEFAULT: Optional[str] = None


def set_engine_default(engine: str) -> None:
    """Set the process-wide default for ``Simulator(engine=None)``.

    The harness CLI's ``--engine`` flag calls this before running
    experiments (same pattern as :func:`set_profile_default`).

    Precedence: a non-empty ``REPRO_ENGINE`` environment variable
    **wins over** this setter — :func:`engine_default` reads the
    environment on every call, so an operator's env pin survives any
    in-process configuration.  Unset (or empty) ``REPRO_ENGINE`` defers
    to the value installed here.
    """
    global _ENGINE_DEFAULT
    require_choice(engine, "engine", ENGINES)
    _ENGINE_DEFAULT = engine
    env = os.environ.get("REPRO_ENGINE", "")
    # Env-wins is a documented invariant; fail loudly if it regresses.
    assert engine_default() == (env or engine), (
        "REPRO_ENGINE must take precedence over set_engine_default()")


def engine_default() -> str:
    """Current process-wide engine default.

    A non-empty ``REPRO_ENGINE`` environment variable always wins;
    otherwise the value installed by :func:`set_engine_default`, falling
    back to ``"fast"``.
    """
    env = os.environ.get("REPRO_ENGINE", "")
    if env:
        return env
    return _ENGINE_DEFAULT if _ENGINE_DEFAULT is not None else "fast"


def set_profile_default(enabled: bool) -> None:
    """Set the process-wide default for ``Simulator(profile=None)``.

    The harness CLI's ``--profile`` flag calls this before running
    experiments, so every simulator the experiment grids construct picks
    up per-phase timing without threading a flag through every spec
    (worker processes inherit the setting under the default ``fork``
    start method).
    """
    global _PROFILE_DEFAULT
    _PROFILE_DEFAULT = bool(enabled)


def profile_default() -> bool:
    """Current process-wide profiling default."""
    return _PROFILE_DEFAULT


class ScheduleLike(Protocol):
    """Duck type the engine requires of a dynamic-graph schedule."""

    @property
    def num_nodes(self) -> int:  # pragma: no cover - protocol
        """Number of nodes."""
        ...

    def neighbors(self, round_index: int) -> Sequence[Sequence[int]]:  # pragma: no cover
        """Adjacency (lists of node *indices*) of the 1-based round's graph."""
        ...


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Simulator.run` call.

    Attributes
    ----------
    metrics:
        Frozen complexity accounting for the run.
    outputs:
        Final decision value per node id (missing nodes never decided).
    rounds:
        Rounds executed (equal to ``metrics.rounds``).
    stop_reason:
        One of ``"halted"``, ``"decided"``, ``"quiescent"``, ``"predicate"``,
        ``"max_rounds"``.
    """

    metrics: RunMetrics
    outputs: Dict[int, Any]
    rounds: int
    stop_reason: str

    def unanimous_output(self) -> Any:
        """Return the single common output, or raise if nodes disagree.

        Convenience for problems (Count, Max, Consensus) whose spec
        requires all nodes to output the same value.
        """
        values = set(self.outputs.values())
        if len(values) != 1:
            raise AssertionError(f"nodes disagree: {sorted(map(repr, values))[:10]}")
        return next(iter(values))


class Simulator:
    """Round engine binding a schedule to a set of protocol nodes.

    Parameters
    ----------
    schedule:
        The dynamic-graph schedule (see :mod:`repro.dynamics`).
    nodes:
        One :class:`Algorithm` per schedule index, in index order.  Node
        *ids* may be arbitrary distinct ints; node *indices* (their
        position in this list) are what the schedule's adjacency refers to.
    rng:
        Registry from which each node's private stream is drawn
        (component name ``"node"``).  A fresh seed-0 registry by default.
    bandwidth_bits:
        If given, the CONGEST-style per-message bit budget.  Violations
        raise :class:`~repro.errors.BandwidthExceededError` when
        ``strict_bandwidth`` is true, otherwise they are tallied in the
        ``bandwidth_overflows`` counter.
    id_bits:
        Width charged for :class:`~repro.simnet.message.NodeId` values.
    trace:
        Optional :class:`TraceRecorder`.
    loss_rate:
        EXTENSION beyond the paper's model (used by experiment X2): each
        *directed delivery* is independently dropped with this
        probability (seeded from *rng*, component ``"loss"``).  Note
        that message loss silently weakens the adversary's promise — the
        effective per-round graph is a random subgraph — so halting
        known-bound algorithms lose their correctness guarantee, while
        the stabilizing core remains eventually correct as long as
        information keeps flowing.
    engine:
        ``"fast"``, ``"fast-nobatch"``, or ``"reference"``; see the
        module docstring.  All produce identical results —
        ``"reference"`` exists as the executable specification and for
        debugging, ``"fast-nobatch"`` is the fast path with batch-kernel
        dispatch disabled.  ``None`` (default) resolves to
        :func:`engine_default`.
    profile:
        Collect per-phase wall-clock totals (see the module docstring).
        ``None`` (default) resolves to :func:`profile_default`.
    recorder:
        Optional :class:`repro.obs.Recorder` receiving the structured
        event stream (see the module docstring).  ``None`` (default)
        records nothing and costs nothing.
    """

    def __init__(
        self,
        schedule: ScheduleLike,
        nodes: Sequence[Algorithm],
        rng: Optional[RngRegistry] = None,
        bandwidth_bits: Optional[int] = None,
        strict_bandwidth: bool = False,
        id_bits: int = 32,
        trace: Optional[TraceRecorder] = None,
        loss_rate: float = 0.0,
        engine: Optional[str] = None,
        profile: Optional[bool] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if len(nodes) != schedule.num_nodes:
            raise ConfigurationError(
                f"schedule has {schedule.num_nodes} nodes but {len(nodes)} "
                f"Algorithm instances were supplied"
            )
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("node ids must be distinct")
        if bandwidth_bits is not None:
            require_positive_int(bandwidth_bits, "bandwidth_bits")
        if engine is None:
            engine = engine_default()
        require_choice(engine, "engine", ENGINES)
        self.schedule = schedule
        self.nodes: List[Algorithm] = list(nodes)
        self.rng = rng if rng is not None else RngRegistry(0)
        self.bandwidth_bits = bandwidth_bits
        self.strict_bandwidth = bool(strict_bandwidth)
        self.id_bits = require_positive_int(id_bits, "id_bits")
        self.trace = trace
        if not (0.0 <= float(loss_rate) < 1.0):
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = float(loss_rate)
        self._loss_rng = self.rng.for_component("loss") if loss_rate else None
        self.metrics = MetricsCollector()
        self.round_index = 0
        self._node_rngs = [
            self.rng.for_node("node", node.node_id) for node in self.nodes
        ]
        self._quiescent_streak = 0
        n = len(self.nodes)
        # Payload objects repeat across rounds once protocols converge
        # (see AggregateNode's encode cache); memoize their bit cost by
        # identity, keeping a strong ref so the id stays valid.  Bounded
        # by evicting the oldest quarter, so converged-payload entries
        # survive cache pressure.
        self._bits_cache: Dict[int, Tuple[Any, int]] = {}
        self._bits_cache_cap = max(64, 4 * n)
        # Cache misses, and the hits of recorded rounds (their lookups,
        # one per per-node-tier broadcast, less their misses).
        self._bits_misses = 0
        self._bits_hits = 0
        if profile is None:
            profile = _PROFILE_DEFAULT
        self.profile = bool(profile)
        self._phase_seconds: Optional[Dict[str, float]] = (
            {name: 0.0 for name in PHASES} if self.profile else None)
        # Fast-path state: one reusable context per node, the ascending
        # active (non-halted) index list maintained incrementally, the
        # halted mask consumed by the vectorised live-degree computation,
        # and reusable payload/sendable scratch.
        self._contexts = [
            RoundContext(0, self._node_rngs[i], self.metrics.incr)
            for i in range(n)
        ]
        self._active: List[int] = list(range(n))
        self._halted_mask = np.zeros(n, dtype=bool)
        self._any_halted = False
        self._payloads: List[Any] = [None] * n
        self._sendable: List[bool] = [False] * n
        # Adaptive schedules inspect node state; give them the node list.
        bind = getattr(schedule, "bind", None)
        if bind is not None:
            bind(self.nodes)
        # Static run features a tier may decline, as requirement names
        # (the CapabilityDiff vocabulary) in engine_tier event order.
        # Dynamic ones — a stop_when predicate, a pre-halted population,
        # a custom metrics override, the batch kernel probe — are judged
        # by the tiers' decline() when run() starts.
        self._features: Tuple[str, ...] = tuple(name for name, posed in (
            ("trace", trace is not None),
            ("loss", self.loss_rate != 0.0),
            ("strict-bandwidth",
             self.strict_bandwidth and bandwidth_bits is not None),
            ("adaptive-schedule", bind is not None),
            ("adjacency-free-schedule",
             getattr(schedule, "adjacency", None) is None),
            ("recorder", recorder is not None),
        ) if posed)
        self._engine_request = engine
        # The persistent tier follows from static features alone: the
        # fast tier declines only on those, the reference tier never.
        fast_ok = (self._pinned_decline(_FAST) is None
                   and _FAST.decline(self) is None)
        base = _FAST if fast_ok else _REFERENCE
        self._base_backend: EngineBackend = base
        self._active_backend: EngineBackend = base
        #: Name of the persistent (non-overlay) tier; the batch kernels
        #: engage on top of it during run().
        self.engine = base.name
        self._batch_live = False
        self._batch_kernel: Optional[Any] = None
        self._batch_ctx: Optional[Any] = None
        self._batch_pending: Optional[List[Tuple[int, List[tuple]]]] = None
        #: Rounds executed per dispatch tier (surfaced via
        #: RunMetrics.engine_stats when profiling).
        self._tier_rounds: Dict[str, int] = {tier: 0 for tier in ENGINE_TIERS}
        # Observability (see the module docstring): everything below is
        # allocated only when a recorder is attached, so the unrecorded
        # hot path pays one `is None` check per round and nothing else.
        self.recorder = recorder
        self._adj_stats_base: Optional[Dict[str, int]] = None
        self._rec_halted: Optional[set] = None
        self._rec_nodes_by_id: Optional[Dict[int, Algorithm]] = None
        if recorder is not None:
            self._rec_nodes_by_id = {node.node_id: node for node in self.nodes}
            self._rec_halted = {
                node.node_id for node in self.nodes if node._halted}
            adj_stats = getattr(schedule, "adjacency_stats", None)
            if adj_stats is not None:
                self._adj_stats_base = dict(adj_stats)

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Per-cache hit/miss counters of this run (recorded runs only).

        Flat ``{"adjacency_hits": ..., "adjacency_misses": ...,
        "payload_bits_hits": ..., "payload_bits_misses": ...}`` — the
        same numbers the end-of-run ``CacheEvent`` stream carries,
        shaped for ``cache.*`` result-row columns.  ``None`` when no
        recorder is attached (the unrecorded hot path tallies nothing).
        """
        if self.recorder is None:
            return None
        stats: Dict[str, int] = {}
        delta = self._adjacency_delta()
        if delta is not None:
            stats["adjacency_hits"] = (delta.get("span_hits", 0)
                                       + delta.get("fingerprint_hits", 0))
            stats["adjacency_misses"] = delta.get("builds", 0)
        stats["payload_bits_hits"] = self._bits_hits
        stats["payload_bits_misses"] = self._bits_misses
        return stats

    def _adjacency_delta(self) -> Optional[Dict[str, int]]:
        """The schedule's adjacency-cache counters since this simulator
        was built, or ``None`` when the schedule keeps none."""
        adj_stats = getattr(self.schedule, "adjacency_stats", None)
        if adj_stats is None:
            return None
        base = self._adj_stats_base or {}
        return {key: adj_stats[key] - base.get(key, 0) for key in adj_stats}

    # -- payload costing -----------------------------------------------------

    def _payload_bits(self, payload: Any) -> int:
        """Bit cost of *payload*, memoized by object identity.

        On overflow the **oldest quarter** of entries is evicted (dict
        insertion order) rather than dropping the whole cache, so the
        long-lived converged payloads that motivate the memoization keep
        their entries under pressure from transient ones.
        """
        cache = self._bits_cache
        entry = cache.get(id(payload))
        if entry is not None and entry[0] is payload:
            return entry[1]
        self._bits_misses += 1
        bits = bit_size(payload, self.id_bits)
        if len(cache) >= self._bits_cache_cap:
            for key in list(islice(iter(cache), self._bits_cache_cap // 4)):
                del cache[key]
        cache[id(payload)] = (payload, bits)
        return bits

    # -- single round --------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one round."""
        if self.recorder is None:
            self._step_inner()
        else:
            self._step_recorded(self.recorder)

    def _step_inner(self) -> None:
        """One round via whichever tier is live."""
        backend = self._active_backend
        tiers = self._tier_rounds
        tiers[backend.name] = tiers.get(backend.name, 0) + 1
        backend.run_round(self)

    def _step_recorded(self, rec: Recorder) -> None:
        """One round with the observability stream attached.

        Emits per-round :class:`~repro.obs.events.RoundEvent` /
        :class:`~repro.obs.events.DeliveryEvent` totals (deltas of the
        metric sums, so the events hold regardless of dispatch tier),
        per-node :class:`~repro.obs.events.DecisionEvent` lifecycle
        changes (diffed from the decision/halt state, which is how one
        implementation covers all three tiers), and a mid-run
        :class:`~repro.obs.events.EngineTierEvent` when the batch kernel
        falls back to the per-node path.  It also counts the round's
        payload-bits cache lookups for :meth:`cache_stats`.
        """
        metrics = self.metrics
        prev_broadcasts = metrics.broadcasts
        prev_bbits = metrics.broadcast_bits
        prev_msgs = metrics.delivered_messages
        prev_dbits = metrics.delivered_bits
        prev_decisions = dict(metrics._decision_rounds)
        prev_misses = self._bits_misses
        was_backend = self._active_backend
        tier = was_backend.name

        self._step_inner()

        r = self.round_index
        broadcasts = metrics.broadcasts - prev_broadcasts
        if was_backend is not _BATCH:
            # The per-node tiers cost every broadcast through the
            # payload-bits cache; the batch kernels never consult it.
            self._bits_hits += broadcasts - (self._bits_misses - prev_misses)
        rec.emit(obs_events.RoundEvent(
            round=r, tier=tier,
            broadcasts=broadcasts,
            broadcast_bits=metrics.broadcast_bits - prev_bbits,
            max_broadcast_bits=metrics.max_broadcast_bits))
        rec.emit(obs_events.DeliveryEvent(
            round=r,
            messages=metrics.delivered_messages - prev_msgs,
            bits=metrics.delivered_bits - prev_dbits))
        now = metrics._decision_rounds
        if now != prev_decisions:
            by_id = self._rec_nodes_by_id
            for node_id, decided_round in now.items():
                if prev_decisions.get(node_id) != decided_round:
                    node = by_id[node_id]
                    rec.emit(obs_events.DecisionEvent(
                        round=r, node_id=node_id, action="decide",
                        value=node.output if node.decided else None))
            for node_id in prev_decisions:
                if node_id not in now:
                    rec.emit(obs_events.DecisionEvent(
                        round=r, node_id=node_id, action="retract"))
        halted_seen = self._rec_halted
        for node in self.nodes:
            if node._halted and node.node_id not in halted_seen:
                halted_seen.add(node.node_id)
                rec.emit(obs_events.DecisionEvent(
                    round=r, node_id=node.node_id, action="halt"))
        if was_backend is not self._active_backend:
            # The batch kernel retired mid-round on the first halt event.
            reason = "halt event deactivated the batch kernel"
            diff = CapabilityDiff(backend=was_backend.name,
                                  missing=("mid-run-halt",), detail=reason)
            rec.emit(obs_events.EngineTierEvent(
                round=r, tier=self._active_backend.name, action="fallback",
                reason=reason, declined=[diff.to_payload()]))

    # -- tier selection -------------------------------------------------------

    def _pinned_decline(self, tier: EngineBackend) -> Optional[CapabilityDiff]:
        """The decline the ``engine`` argument itself imposes on *tier*."""
        engine = self._engine_request
        if engine == "reference" and tier is not _REFERENCE:
            return CapabilityDiff(backend=tier.name,
                                  detail="engine='reference'")
        if engine == "fast-nobatch" and tier is _BATCH:
            return CapabilityDiff(backend=tier.name,
                                  detail="batch kernels disabled")
        return None

    def _select_backends(self, stop_when: Optional[Callable]
                         ) -> List[CapabilityDiff]:
        """Walk :data:`TIERS` and engage the first tier that serves the run.

        Returns every decline, in tier order, for the ``engine_tier``
        select event.  The walk always ends on :attr:`engine`'s tier at
        the latest: the fast tier declines only on static features,
        which already decided :attr:`engine` at construction, and the
        reference tier never declines.
        """
        declined: List[CapabilityDiff] = []
        for tier in TIERS:
            diff = self._pinned_decline(tier) or tier.decline(self, stop_when)
            if diff is None:
                self._active_backend = tier
                break
            declined.append(diff)
        return declined

    # -- stop-condition helpers ----------------------------------------------

    def _all_halted(self) -> bool:
        if self.engine == "fast":
            return not self._active
        return all(node.halted for node in self.nodes)

    def _all_decided_or_halted(self) -> bool:
        if self._batch_live:
            return bool(self._batch_kernel.decided.all())
        if self.engine == "fast":
            nodes = self.nodes
            return all(nodes[i]._decided for i in self._active)
        return all(node.decided or node.halted for node in self.nodes)

    # -- full run --------------------------------------------------------------

    def run(
        self,
        max_rounds: int,
        until: str = "halted",
        quiescence_window: int = 1,
        stop_when: Optional[Callable[["Simulator"], bool]] = None,
        allow_timeout: bool = False,
    ) -> RunResult:
        """Execute rounds until a stop condition fires.

        See the module docstring for the semantics of each *until* value.
        """
        require_positive_int(max_rounds, "max_rounds")
        require_choice(until, "until", ("halted", "decided", "quiescent"))
        require_positive_int(quiescence_window, "quiescence_window")

        stop_reason = "max_rounds"
        declined = self._select_backends(stop_when)
        rec = self.recorder
        if rec is not None:
            chosen = self._active_backend
            if chosen is _BATCH:
                reason = "population batch kernel engaged"
            else:
                # Order-preserving dedup: engine="reference" declines two
                # tiers with the same clause.
                clauses: List[str] = []
                for diff in declined:
                    clause = diff.render()
                    if clause not in clauses:
                        clauses.append(clause)
                reason = "; ".join(clauses)
            rec.emit(obs_events.EngineTierEvent(
                round=self.round_index, tier=chosen.name, action="select",
                reason=reason,
                declined=[d.to_payload() for d in declined] or None))
        try:
            while self.round_index < max_rounds:
                self.step()
                if stop_when is not None and stop_when(self):
                    stop_reason = "predicate"
                    break
                if until == "halted":
                    if self._all_halted():
                        stop_reason = "halted"
                        break
                elif until == "decided":
                    if self._all_decided_or_halted():
                        stop_reason = "decided"
                        break
                else:  # quiescent
                    if (self._quiescent_streak >= quiescence_window
                            and self._all_decided_or_halted()):
                        stop_reason = "quiescent"
                        break
        finally:
            # Whatever happens, node objects must reflect the backend's
            # state before anyone (including the error path below, or a
            # later run() call) inspects them.  reconcile() is idempotent;
            # a batch kernel that retired mid-run already reconciled itself.
            self._active_backend.reconcile(self)

        if rec is not None:
            delta = self._adjacency_delta()
            if delta is not None:
                rec.emit(obs_events.CacheEvent(
                    round=self.round_index, cache="adjacency",
                    hits=delta.get("span_hits", 0)
                    + delta.get("fingerprint_hits", 0),
                    misses=delta.get("builds", 0),
                    detail=(f"span_hits={delta.get('span_hits', 0)} "
                            f"fingerprint_hits="
                            f"{delta.get('fingerprint_hits', 0)} "
                            f"evictions={delta.get('evictions', 0)}")))
            rec.emit(obs_events.CacheEvent(
                round=self.round_index, cache="payload_bits",
                hits=self._bits_hits,
                misses=self._bits_misses,
                detail=f"entries={len(self._bits_cache)}"))
            tiers = self._tier_rounds
            rec.emit(obs_events.SummaryEvent(
                rounds=self.round_index, stop_reason=stop_reason,
                broadcast_bits=self.metrics.broadcast_bits,
                delivered_messages=self.metrics.delivered_messages,
                batch_rounds=tiers.get("batch", 0),
                fast_rounds=tiers.get("fast", 0),
                reference_rounds=tiers.get("reference", 0)))

        if stop_reason == "max_rounds" and not allow_timeout:
            undecided = tuple(
                node.node_id for node in self.nodes
                if not (node.decided or node.halted)
            )
            raise NotTerminatedError(
                f"round budget of {max_rounds} exhausted under "
                f"until={until!r} ({len(undecided)} nodes undecided)",
                rounds_executed=self.round_index, undecided=undecided,
            )

        outputs = {
            node.node_id: node.output for node in self.nodes if node.decided
        }
        phase_seconds = (
            dict(self._phase_seconds) if self._phase_seconds is not None
            else None)
        engine_stats = dict(self._tier_rounds) if self.profile else None
        return RunResult(
            metrics=self.metrics.snapshot(phase_seconds=phase_seconds,
                                          engine_stats=engine_stats),
            outputs=outputs,
            rounds=self.round_index,
            stop_reason=stop_reason,
        )
