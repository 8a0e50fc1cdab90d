"""The fast backend: vectorized per-node rounds over cached CSR adjacency.

Observable-for-observable equivalent to the reference loops (same
metrics, same trace event stream, same RNG consumption, same node
callback order); the differences are purely mechanical — iteration over
the incrementally-maintained active set instead of ``range(n)``, one
reusable :class:`~repro.simnet.node.RoundContext` per node, CSR
adjacency shared across stable T-interval windows, live degrees
computed vectorised, and reveal, delivery and drain fused into one pass
over the active set (:func:`run_fast_round`, the tier's only round
loop; profiling, tracing, recording and strict bandwidth hook into it
rather than replacing it).  Requires a schedule exposing ``adjacency()``;
minimal :class:`~repro.simnet.engine.ScheduleLike` schedules are
declined to the reference backend instead.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List, Optional

import numpy as np

from ...errors import BandwidthExceededError
from ..message import bit_size
from ..trace import TraceEvent
from .base import CapabilityDiff, EngineBackend

__all__ = ["FastBackend", "run_fast_round"]


def run_fast_round(sim: Any) -> None:
    """One round: compose, then reveal, deliver and drain in one pass.

    After the compose loop and the round's CSR adjacency, a single pass
    over the active set accounts each sender's broadcast, delivers its
    inbox to each live node and drains that node's decision events.  The
    result equals the reference tier's phase-by-phase loops: the
    per-(node, round) metric updates are commutative sums, the loss RNG
    is drawn in delivery order only, and per-node drain order is kept.

    Phase boundaries show only where a feature needs them:

    * profiling times ``compose`` | ``reveal`` (``adjacency(r)`` and the
      live degrees) | ``deliver`` (the pass, broadcast accounting
      included) at round boundaries, and ``drain`` around each non-empty
      decision-event list, subtracted from ``deliver``;
    * strict bandwidth and tracing add one pre-pass over the senders
      (:func:`_check_broadcasts`), so a budget violation raises before
      any ``deliver()`` and every broadcast trace event precedes the
      round's decide/retract/halt events — the reference tier's trace
      order.
    """
    sim.round_index += 1
    r = sim.round_index
    nodes = sim.nodes
    trace = sim.trace
    prof = sim._phase_seconds
    metrics = sim.metrics
    if trace is not None:
        trace.record(TraceEvent(r, "round", None))

    active = sim._active
    payloads = sim._payloads
    contexts = sim._contexts
    halted_mask = sim._halted_mask

    # Compose (graph not yet revealed to nodes).
    t0 = perf_counter() if prof is not None else 0.0
    senders: List[int] = []
    halted_in_compose = False
    for i in active:
        node = nodes[i]
        ctx = contexts[i]
        ctx.round_index = r
        payload = node.compose(ctx)
        payloads[i] = payload
        if payload is not None:
            senders.append(i)
        if node._halted:
            halted_mask[i] = True
            halted_in_compose = True
    if halted_in_compose:
        sim._any_halted = True

    # Reveal the round's graph and the senders' live degrees.
    t1 = perf_counter() if prof is not None else 0.0
    csr = sim.schedule.adjacency(r)
    if not sim._any_halted:
        live: List[int] = csr.degree_list()
    else:
        # live[i] = #non-halted neighbours of i, via a prefix sum over
        # the CSR (reduceat mis-handles empty neighbour runs).
        alive = ~halted_mask
        cum = np.zeros(len(csr.indices) + 1, dtype=np.int64)
        np.cumsum(alive[csr.indices], out=cum[1:])
        live = (cum[csr.indptr[1:]] - cum[csr.indptr[:-1]]).tolist()
    t2 = perf_counter() if prof is not None else 0.0

    bandwidth_bits = sim.bandwidth_bits
    strict = sim.strict_bandwidth and bandwidth_bits is not None
    if strict or trace is not None:
        _check_broadcasts(sim, r, senders, strict)

    # Deliver: account, deliver and drain per active node.
    sendable = sim._sendable
    all_send = not sim._any_halted and len(senders) == len(active)
    if all_send:
        # Every neighbour's payload is delivered: gather the flat
        # CSR-ordered payload list in one C-level pass, then each
        # node's inbox is a plain slice of it.
        flat_inbox = list(map(payloads.__getitem__, csr.indices_list()))
        bounds = csr.indptr_list()
        nlists = None
    else:
        for i in senders:
            if not halted_mask[i]:
                sendable[i] = True
        flat_inbox = bounds = None
        nlists = csr.neighbor_lists()
    loss_rng = sim._loss_rng
    loss_rate = sim.loss_rate
    # When on_broadcast has not been overridden on the instance, the
    # per-sender sums are accumulated in locals and flushed once per
    # round — same totals, ~N fewer calls per round.
    aggregate = "on_broadcast" not in metrics.__dict__
    on_broadcast = metrics.on_broadcast
    on_decision = metrics.on_decision
    bits_cache = sim._bits_cache
    n_bcast = sum_bits = n_msgs = sum_dbits = max_bits = 0
    prev_payload = prev_bits = None
    all_changed_false = True
    halted_in_deliver = False
    drain_s = 0.0
    for j in active:
        payload = payloads[j]
        if payload is not None:
            # Converged protocols broadcast one shared object from
            # every node; the single-entry memo short-circuits the
            # per-sender cache lookup in that steady state.
            if payload is prev_payload:
                bits = prev_bits
            else:
                entry = bits_cache.get(id(payload))
                if entry is not None and entry[0] is payload:
                    bits = entry[1]
                else:
                    bits = sim._payload_bits(payload)
                prev_payload, prev_bits = payload, bits
            if bandwidth_bits is not None and bits > bandwidth_bits:
                metrics.incr("bandwidth_overflows")
            if aggregate:
                degree = live[j]
                n_bcast += 1
                n_msgs += degree
                sum_bits += bits
                sum_dbits += bits * degree
                if bits > max_bits:
                    max_bits = bits
            else:
                on_broadcast(bits, live[j])
        if halted_in_compose and halted_mask[j]:
            continue  # halted during this round's compose
        if all_send:
            inbox = flat_inbox[bounds[j]:bounds[j + 1]]
        else:
            inbox = [payloads[k] for k in nlists[j] if sendable[k]]
        if loss_rng is not None and inbox:
            kept = loss_rng.random(len(inbox)) >= loss_rate
            dropped = len(inbox) - int(kept.sum())
            if dropped:
                metrics.incr("messages_lost", dropped)
                inbox = [m for m, keep in zip(inbox, kept) if keep]
        node = nodes[j]
        node.deliver(contexts[j], inbox)
        if node._state_changed:
            all_changed_false = False
        events = node._events
        if events:
            td = perf_counter() if prof is not None else 0.0
            node._events = []
            node_id = node.node_id
            for event in events:
                kind = event[0]
                if kind == "decide":
                    on_decision(node_id, r)
                    if trace is not None:
                        trace.record(TraceEvent(r, "decide", node_id,
                                                event[1]))
                elif kind == "retract":
                    metrics.on_retraction(node_id)
                    if trace is not None:
                        trace.record(TraceEvent(r, "retract", node_id))
                else:  # halt
                    halted_mask[j] = True
                    halted_in_deliver = True
                    if trace is not None:
                        trace.record(TraceEvent(r, "halt", node_id))
            if prof is not None:
                drain_s += perf_counter() - td
    if not all_send:
        for i in senders:
            sendable[i] = False
    if aggregate and n_bcast:
        metrics.broadcasts += n_bcast
        metrics.delivered_messages += n_msgs
        metrics.broadcast_bits += sum_bits
        metrics.delivered_bits += sum_dbits
        if max_bits > metrics.max_broadcast_bits:
            metrics.max_broadcast_bits = max_bits

    if halted_in_compose or halted_in_deliver:
        sim._any_halted = True
        sim._active = [i for i in active if not halted_mask[i]]

    sim._quiescent_streak = (
        sim._quiescent_streak + 1 if all_changed_false else 0
    )
    metrics.on_round_executed()
    if prof is not None:
        prof["compose"] += t1 - t0
        prof["reveal"] += t2 - t1
        prof["deliver"] += perf_counter() - t2 - drain_s
        prof["drain"] += drain_s


def _check_broadcasts(sim: Any, r: int, senders: List[int],
                      strict: bool) -> None:
    """Strict budget check and broadcast trace events, before delivery.

    Walks the senders in index order, as the reference tier's reveal
    loop does: a violating sender raises
    :class:`~repro.errors.BandwidthExceededError` after the broadcast
    events of the senders before it.  Payloads are costed without
    touching the bits cache, so the pass's lookups, and the recorder's
    miss tally, follow the reference tier's sequence exactly.
    """
    nodes = sim.nodes
    payloads = sim._payloads
    trace = sim.trace
    bits_cache = sim._bits_cache
    limit = sim.bandwidth_bits
    for i in senders:
        payload = payloads[i]
        if strict:
            entry = bits_cache.get(id(payload))
            if entry is not None and entry[0] is payload:
                bits = entry[1]
            else:
                bits = bit_size(payload, sim.id_bits)
            if bits > limit:
                raise BandwidthExceededError(
                    f"node {nodes[i].node_id} composed a {bits}-bit "
                    f"message; budget is {limit} bits",
                    node_id=nodes[i].node_id, bits=bits, limit=limit,
                )
        if trace is not None:
            trace.record(TraceEvent(r, "broadcast", nodes[i].node_id, payload))


class FastBackend(EngineBackend):
    """Vectorized per-node rounds; needs the schedule's CSR adjacency."""

    name = "fast"
    summary = ("per-node rounds over the cached CSR adjacency "
               "(needs a schedule with adjacency())")

    def decline(self, sim: Any,
                stop_when: Optional[Any] = None) -> Optional[CapabilityDiff]:
        if "adjacency-free-schedule" in sim._features:
            return CapabilityDiff(backend=self.name,
                                  missing=("adjacency-free-schedule",))
        return None

    def run_round(self, sim: Any) -> None:
        run_fast_round(sim)
