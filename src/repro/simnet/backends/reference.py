"""The reference backend: straightforward per-node loops.

This is the executable specification the other tiers are golden-tested
against (``tests/test_fastpath_equivalence.py``): one Python-level
``compose``/``deliver`` call per node per round, with delivery, loss
draws, and decision draining written exactly as the paper's round model
reads.  It supports every run feature — including schedules that expose
only the minimal :class:`~repro.simnet.engine.ScheduleLike` duck type —
and is therefore the last tier of the engine's chain; it never
declines.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List

from ...errors import BandwidthExceededError
from ..node import RoundContext
from ..trace import TraceEvent
from .base import EngineBackend

__all__ = ["ReferenceBackend", "run_reference_round"]


def run_reference_round(sim: Any) -> None:
    """One round via the per-node loops (the executable spec).

    Behaviour is the contract; see the module docstring.
    """
    sim.round_index += 1
    r = sim.round_index
    nodes = sim.nodes
    n = len(nodes)
    trace = sim.trace
    prof = sim._phase_seconds
    if trace is not None:
        trace.record(TraceEvent(r, "round", None))

    # Phase 1: compose (graph not yet revealed to nodes).
    t0 = perf_counter() if prof is not None else 0.0
    payloads: List[Any] = [None] * n
    for i in range(n):
        node = nodes[i]
        if node.halted:
            continue
        ctx = RoundContext(r, sim._node_rngs[i], sim.metrics.incr)
        payloads[i] = node.compose(ctx)

    # Phase 2: reveal the round's graph and account for transmissions.
    if prof is not None:
        t1 = perf_counter()
        prof["compose"] += t1 - t0
        t0 = t1
    neighbors = sim.schedule.neighbors(r)
    halted = [node.halted for node in nodes]
    for i in range(n):
        payload = payloads[i]
        if payload is None:
            continue
        bits = sim._payload_bits(payload)
        if sim.bandwidth_bits is not None and bits > sim.bandwidth_bits:
            if sim.strict_bandwidth:
                raise BandwidthExceededError(
                    f"node {nodes[i].node_id} composed a {bits}-bit "
                    f"message; budget is {sim.bandwidth_bits} bits",
                    node_id=nodes[i].node_id, bits=bits,
                    limit=sim.bandwidth_bits,
                )
            sim.metrics.incr("bandwidth_overflows")
        live_degree = sum(1 for j in neighbors[i] if not halted[j])
        sim.metrics.on_broadcast(bits, live_degree)
        if trace is not None:
            trace.record(TraceEvent(r, "broadcast", nodes[i].node_id, payload))

    # Phase 3: deliver inboxes.
    if prof is not None:
        t1 = perf_counter()
        prof["reveal"] += t1 - t0
        t0 = t1
    all_changed_false = True
    loss_rng = sim._loss_rng
    loss_rate = sim.loss_rate
    for j in range(n):
        node = nodes[j]
        if node.halted:
            continue
        inbox = [
            payloads[i] for i in neighbors[j]
            if payloads[i] is not None and not halted[i]
        ]
        if loss_rng is not None and inbox:
            kept = loss_rng.random(len(inbox)) >= loss_rate
            dropped = len(inbox) - int(kept.sum())
            if dropped:
                sim.metrics.incr("messages_lost", dropped)
                inbox = [m for m, keep in zip(inbox, kept) if keep]
        ctx = RoundContext(r, sim._node_rngs[j], sim.metrics.incr)
        node.deliver(ctx, inbox)
        if node.state_changed:
            all_changed_false = False
        # Phase 4: drain decision events.
        for event in node._drain_events():
            kind = event[0]
            if kind == "decide":
                sim.metrics.on_decision(node.node_id, r)
                if trace is not None:
                    trace.record(TraceEvent(r, "decide", node.node_id,
                                            event[1]))
            elif kind == "retract":
                sim.metrics.on_retraction(node.node_id)
                if trace is not None:
                    trace.record(TraceEvent(r, "retract", node.node_id))
            elif kind == "halt":
                if trace is not None:
                    trace.record(TraceEvent(r, "halt", node.node_id))
    if prof is not None:
        t1 = perf_counter()
        prof["deliver"] += t1 - t0  # drain interleaved with delivery

    sim._quiescent_streak = (
        sim._quiescent_streak + 1 if all_changed_false else 0
    )
    sim.metrics.on_round_executed()


class ReferenceBackend(EngineBackend):
    """Per-node loops; serves every run, so it is the last tier."""

    name = "reference"
    summary = "per-node loops, the executable specification (serves every run)"

    def run_round(self, sim: Any) -> None:
        run_reference_round(sim)
