"""The fixed engine-tier chain and its structured declines.

Covers:

1. The **fallback matrix**: run features (message loss, tracing, a
   ``stop_when`` predicate, a heterogeneous population, a strict
   CONGEST budget) × engine requests, asserting which tier the walk
   engages, the exact ``engine_tier`` select event (reason and the
   ordered :class:`~repro.simnet.backends.base.CapabilityDiff`
   payloads), and that the recorded run is bit-identical to the
   unrecorded one.

2. **Process defaults**: the ``REPRO_ENGINE`` environment variable
   always wins over :func:`repro.simnet.engine.set_engine_default`.

3. **Telemetry-column normalization**: recorded rows carry ``obs.*`` /
   ``cache.*`` counters, and the executor's journal + result cache
   strip them so cache hits and fresh runs compare equal.
"""

import pytest

from repro.core.exact_count import ExactCount, ExactCountKnownBound
from repro.dynamics import OverlapHandoffAdversary
from repro.errors import ConfigurationError
from repro.exec.executor import ParallelExecutor
from repro.exec.specs import TrialSpec
from repro.harness.runner import durable_row, run_trial
from repro.obs import Recorder
from repro.obs.recorder import set_events_dir
from repro.simnet import RngRegistry, Simulator, TraceRecorder
from repro.simnet.backends import CapabilityDiff
from repro.simnet.engine import engine_default, set_engine_default

ENGINES = ("fast", "fast-nobatch", "reference")

#: Scenario -> the run feature it poses.  Each is crossed with every
#: engine request below.
SCENARIOS = ("plain", "loss", "trace", "stop_when", "mixed",
             "strict_bandwidth")


def _handoff(seed):
    return OverlapHandoffAdversary(18, 3, noise_edges=2, seed=seed)


def _nodes(schedule, mixed=False):
    n = schedule.num_nodes
    if mixed:
        # Interoperable but distinct classes: kernels need one exact class.
        return [ExactCount(i) if i % 2 else ExactCountKnownBound(i, 3 * n)
                for i in range(n)]
    return [ExactCount(i) for i in range(n)]


def _run_scenario(scenario, engine, seed=7, recorder=None):
    schedule = _handoff(seed)
    sim = Simulator(
        schedule,
        _nodes(schedule, mixed=(scenario == "mixed")),
        rng=RngRegistry(seed),
        loss_rate=0.25 if scenario == "loss" else 0.0,
        strict_bandwidth=(scenario == "strict_bandwidth"),
        bandwidth_bits=100_000 if scenario == "strict_bandwidth" else None,
        trace=TraceRecorder() if scenario == "trace" else None,
        engine=engine,
        recorder=recorder,
    )
    stop_when = (lambda s: False) if scenario == "stop_when" else None
    result = sim.run(max_rounds=600, until="quiescent", quiescence_window=16,
                     stop_when=stop_when, allow_timeout=True)
    return sim, result


_PIN_REFERENCE = [
    {"backend": "batch", "missing": [], "detail": "engine='reference'"},
    {"backend": "fast", "missing": [], "detail": "engine='reference'"},
]
_NO_BATCH = [
    {"backend": "batch", "missing": [], "detail": "batch kernels disabled"},
]


def _batch_declined(missing, detail=""):
    return [{"backend": "batch", "missing": [missing], "detail": detail}]


_MIXED = "heterogeneous population (ExactCountKnownBound + ExactCount)"

#: (scenario, engine) -> the select event's (tier, reason, declined),
#: verbatim.  The declined payloads are the full ordered list.
_SELECT = {
    ("plain", "fast"): ("batch", "population batch kernel engaged", None),
    ("loss", "fast"): ("batch", "population batch kernel engaged", None),
    ("trace", "fast"): ("fast", "trace recorder attached",
                        _batch_declined("trace")),
    ("stop_when", "fast"): ("fast", "stop_when predicate inspects run state",
                            _batch_declined("stop-when")),
    ("mixed", "fast"): ("fast", _MIXED,
                        _batch_declined("mixed-population", _MIXED)),
    ("strict_bandwidth", "fast"): ("fast", "strict bandwidth budget",
                                   _batch_declined("strict-bandwidth")),
}
for _scenario in SCENARIOS:
    _SELECT[(_scenario, "fast-nobatch")] = (
        "fast", "batch kernels disabled", _NO_BATCH)
    _SELECT[(_scenario, "reference")] = (
        "reference", "engine='reference'", _PIN_REFERENCE)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fallback_matrix(scenario, engine):
    recorder = Recorder.in_memory()
    sim, recorded = _run_scenario(scenario, engine, recorder=recorder)
    tier, reason, declined = _SELECT[(scenario, engine)]

    # 1. The selected tier executed every round; the others none.
    assert sim._tier_rounds[tier] == recorded.rounds
    for other in ("batch", "fast", "reference"):
        if other != tier:
            assert sim._tier_rounds[other] == 0, (
                f"{scenario}/{engine}: unexpected {other} rounds")

    # 2. Exactly one engine_tier event, the select, carrying the full
    #    ordered list of structured declines.
    (select,) = recorder.of_kind("engine_tier")
    assert select.action == "select"
    assert select.round == 0
    assert select.tier == tier
    assert select.reason == reason
    assert select.declined == declined
    # The rendered reason and the structured diffs agree.
    for payload in declined or ():
        diff = CapabilityDiff(backend=payload["backend"],
                              missing=tuple(payload["missing"]),
                              detail=payload["detail"])
        assert diff.render() in select.reason

    # 3. Recording never changes the measured results.
    _, plain = _run_scenario(scenario, engine)
    assert recorded.outputs == plain.outputs
    assert recorded.rounds == plain.rounds
    assert recorded.stop_reason == plain.stop_reason
    assert recorded.metrics == plain.metrics


@pytest.mark.parametrize("scenario", ["plain", "loss", "stop_when"])
def test_tiers_agree_across_fallback_matrix(scenario):
    """Whatever tier the walk engages, results are bit-identical."""
    results = {engine: _run_scenario(scenario, engine)[1]
               for engine in ENGINES}
    ref = results["reference"]
    for engine in ("fast", "fast-nobatch"):
        assert results[engine].outputs == ref.outputs
        assert results[engine].rounds == ref.rounds
        assert results[engine].metrics == ref.metrics


# --------------------------------------------------------------------------
# process defaults: REPRO_ENGINE always wins
# --------------------------------------------------------------------------

def test_env_var_wins_over_set_engine_default(monkeypatch):
    from repro.simnet import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_ENGINE_DEFAULT", None)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert engine_default() == "fast"

    set_engine_default("reference")
    assert engine_default() == "reference"

    monkeypatch.setenv("REPRO_ENGINE", "fast-nobatch")
    assert engine_default() == "fast-nobatch"  # env wins

    # Even a later in-process call cannot override the environment …
    set_engine_default("reference")
    assert engine_default() == "fast-nobatch"

    # … but it becomes the default again once the variable is gone.
    monkeypatch.delenv("REPRO_ENGINE")
    assert engine_default() == "reference"


def test_set_engine_default_validates_against_registry(monkeypatch):
    from repro.simnet import engine as engine_mod

    monkeypatch.setattr(engine_mod, "_ENGINE_DEFAULT", None)
    with pytest.raises(ConfigurationError):
        set_engine_default("warp-drive")


# --------------------------------------------------------------------------
# telemetry-column normalization (obs.* / cache.* never enter the cache)
# --------------------------------------------------------------------------

_SPEC = TrialSpec(schedule="lowdiam_handoff",
                  schedule_params={"n": 12, "T": 2},
                  nodes="exact_count", node_params={"n": 12},
                  max_rounds=1000, until="quiescent", quiescence_window=16,
                  oracle="count_exact")


def test_recorded_rows_normalize_to_unrecorded_rows(tmp_path):
    plain_row = run_trial(_SPEC, 4).as_row()
    set_events_dir(str(tmp_path))
    try:
        recorded_row = run_trial(_SPEC, 4).as_row()
    finally:
        set_events_dir(None)
    assert any(k.startswith("obs.") for k in recorded_row)
    assert any(k.startswith("cache.") for k in recorded_row)
    assert not any(k.startswith(("obs.", "cache.")) for k in plain_row)
    assert durable_row(recorded_row) == plain_row
    assert durable_row(plain_row) is plain_row  # clean rows pass through


def test_executor_cache_hits_match_recorded_fresh_rows(tmp_path):
    """A warm rerun serves the stripped row; it must equal the durable
    form of the fresh recorded row (``repro.report --check`` parity)."""
    cells = [(_SPEC, 5)]
    events = tmp_path / "events"
    events.mkdir()
    set_events_dir(str(events))
    try:
        fresh = ParallelExecutor(cache=str(tmp_path / "cache")).run(cells)
        assert fresh.executed == 1
        assert any(k.startswith("obs.") for k in fresh.rows[0])
        warm = ParallelExecutor(cache=str(tmp_path / "cache")).run(cells)
    finally:
        set_events_dir(None)
    assert warm.executed == 0
    assert warm.cache_hits == 1
    assert warm.rows[0] == durable_row(fresh.rows[0])
    assert not any(k.startswith(("phase.", "engine.", "obs.", "cache."))
                   for k in warm.rows[0])
