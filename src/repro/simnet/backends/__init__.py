"""The three in-tree engine tiers.

Batch kernels (an overlay over the fast path), the vectorized fast
path, and the reference loops.  :mod:`repro.simnet.engine` holds them
as one fixed ordered tuple (:data:`repro.simnet.engine.TIERS`) and
walks it when a run starts; see ``docs/ENGINES.md``.
"""

from __future__ import annotations

from .base import CapabilityDiff, EngineBackend
from .batch import BatchBackend
from .fast import FastBackend
from .reference import ReferenceBackend

__all__ = [
    "CapabilityDiff",
    "EngineBackend",
    "BatchBackend",
    "FastBackend",
    "ReferenceBackend",
]
