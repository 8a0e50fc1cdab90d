"""The engine-tier protocol: structured declines and per-round hooks.

An **engine tier** is one way of executing simulation rounds — the
batch kernels, the vectorized fast path, or the reference per-node
loops.  The engine walks the fixed tuple of the three
(:data:`repro.simnet.engine.TIERS`) in that order when
``Simulator.run()`` starts; a tier that cannot serve the run explains
why as a structured :class:`CapabilityDiff` — the machine-readable
"why was this tier declined" that feeds the observability layer's
``engine_tier`` events.

Each tier has three hooks:

``decline(sim, stop_when)``
    Return ``None`` to serve the run, or a :class:`CapabilityDiff`
    naming the run features (see :data:`REQUIREMENTS` for the
    vocabulary) it cannot serve.  A tier that accepts installs its
    per-run state here (the batch tier builds its population kernel).

``run_round(sim)``
    Execute exactly one synchronous round.  The contract is bit-for-bit
    equivalence: every tier must produce the same
    :class:`~repro.simnet.engine.RunResult` (metrics, outputs, rounds,
    stop reason) as the reference loops for any run it accepted.

``reconcile(sim)``
    Called when the run ends (or the tier retires mid-run), before
    anything else may observe the node objects.  Tiers that hold
    population state outside the nodes (the batch tier's
    struct-of-arrays kernels) write it back here; it must be idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["CapabilityDiff", "EngineBackend", "REQUIREMENTS"]

#: Human-readable phrasing per requirement name.  The names are the
#: stable vocabulary of :attr:`CapabilityDiff.missing` in
#: ``engine_tier`` observability events.
REQUIREMENTS: Dict[str, str] = {
    "loss": "loss_rate > 0",
    "trace": "trace recorder attached",
    "stop-when": "stop_when predicate inspects run state",
    "strict-bandwidth": "strict bandwidth budget",
    "mixed-population": "heterogeneous node population",
    "adaptive-schedule": "adaptive schedule binds node state",
    "pre-halted": "population already contains halted nodes",
    "mid-run-halt": "halt event deactivated the backend",
    "custom-metrics": "custom on_broadcast metrics override",
    "recorder": "event recorder attached",
    "adjacency-free-schedule": "schedule exposes no CSR adjacency",
    "kernel-population": "population has no batch kernel",
}


@dataclass(frozen=True)
class CapabilityDiff:
    """Why a tier was declined, as a structured capability diff.

    ``missing`` lists the requirement names the tier cannot serve;
    ``detail`` carries free-text context — a configuration pin
    (``"engine='reference'"``) or a dynamic probe verdict (the batch
    tier's kernel-builder explanation).  Either part may be empty, never
    both.  :meth:`to_payload` is the JSON shape embedded in
    :class:`~repro.obs.events.EngineTierEvent` ``declined`` entries.
    """

    backend: str
    missing: Tuple[str, ...] = ()
    detail: str = ""

    def render(self) -> str:
        """One human-readable clause.

        A ``detail`` (probe verdict or configuration pin) subsumes the
        requirement names it explains, so it renders alone; otherwise
        the clause is the joined requirement descriptions.
        """
        if self.detail:
            return self.detail
        parts = [REQUIREMENTS.get(name, name) for name in self.missing]
        return "; ".join(parts) if parts else f"{self.backend} declined"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-encodable dict for the observability event stream."""
        return {"backend": self.backend,
                "missing": list(self.missing),
                "detail": self.detail}


class EngineBackend:
    """Base class for the engine tiers (see the module docstring).

    ``name`` is the tier's key in per-run tier accounting and in
    ``engine_tier`` events; ``summary`` is its one-line description for
    ``--list-engines``.
    """

    name: str = ""
    summary: str = ""

    def decline(self, sim: Any,
                stop_when: Optional[Any] = None) -> Optional[CapabilityDiff]:
        """``None`` serves the run; a diff declines it."""
        return None

    def run_round(self, sim: Any) -> None:
        """Execute exactly one synchronous round on *sim*."""
        raise NotImplementedError

    def reconcile(self, sim: Any) -> None:
        """Write tier-held state back into the node objects.

        Idempotent; called when the run ends or the tier retires.
        """
        return None
