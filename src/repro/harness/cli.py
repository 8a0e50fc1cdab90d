"""``repro-experiments`` — regenerate the evaluation from the command line.

Examples::

    repro-experiments --quick t1 f1          # fast smoke of two experiments
    repro-experiments --all --out results/   # the full reconstructed eval
    repro-experiments f3 --workers 4 --cache-dir .repro-cache --resume
    repro-experiments --list

``--workers/--cache-dir/--resume`` configure the :mod:`repro.exec`
executor for the grid-shaped experiments (T1, F1, F3, F5, F6, X1): the
measurement cells fan out across worker processes, completed rows are
content-addressed on disk, and an interrupted run re-executes only the
missing cells.  Parallel rows are byte-identical to serial rows.

``--profile`` turns on the engine's per-phase timing (see
``docs/PERFORMANCE.md``): every freshly executed trial contributes
``compose`` / ``reveal`` / ``deliver`` / ``drain`` wall-clock totals to
a process-wide accumulator, and after each experiment the CLI prints
what that experiment added to it.  The timings never enter the
content-addressed result cache (they are not deterministic row data).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exec.executor import ExecOptions
from ..simnet.engine import ENGINES, TIERS
from .experiments import EXPERIMENTS, run_experiment, run_f1, run_f5, run_t1
from .io import save_experiment

__all__ = ["main", "render_engine_list"]


def render_engine_list() -> str:
    """The engine choices, then one line per tier in the order a run
    tries them (``--list-engines``; see ``docs/ENGINES.md``)."""
    lines = ["engines: " + " ".join(ENGINES)]
    lines.extend(f"  {tier.name:<10} {tier.summary}" for tier in TIERS)
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Regenerate the tables and figures of the "
                     "reconstructed HJSWY SPAA'22 evaluation."))
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({' '.join(EXPERIMENTS)})")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken sizes (smoke test)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also save artefacts under DIR")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--claims", action="store_true",
                        help="certify the reproduction claims against "
                             "saved results (use with --out DIR or the "
                             "default results/)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the experiment grids "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache; reruns "
                             "execute only missing cells")
    parser.add_argument("--resume", action="store_true",
                        help="resume interrupted runs from the journal "
                             "kept under CACHE_DIR")
    parser.add_argument("--profile", action="store_true",
                        help="collect per-phase engine timings "
                             "(compose/reveal/deliver/drain) plus the "
                             "per-tier dispatch counts (batch kernels / "
                             "fast / reference) and print an aggregate "
                             "after each experiment")
    parser.add_argument("--engine", default=None, choices=ENGINES,
                        help="engine for every simulator the experiments "
                             "construct: fast (default) tries the batch "
                             "kernels, then the fast path, then the "
                             "reference loops; fast-nobatch skips the "
                             "kernels; reference pins the reference loops "
                             "(all choices produce identical results)")
    parser.add_argument("--list-engines", action="store_true",
                        help="list the engine choices and the three "
                             "tiers they walk, then exit")
    parser.add_argument("--events", default=None, metavar="DIR",
                        help="record schema-validated JSONL event streams "
                             "(one trial-*.jsonl per trial) under DIR and "
                             "merge them into DIR/events.jsonl afterwards; "
                             "see docs/OBSERVABILITY.md")
    return parser


#: ``(per-phase seconds, profiled trials, rounds per tier)`` so far.
_Snapshot = Tuple[Dict[str, float], int, Dict[str, int]]


def _profile_snapshot() -> _Snapshot:
    """The process-wide profiling accumulators at this instant."""
    from .runner import engine_totals, phase_totals

    totals, trials = phase_totals()
    return totals, trials, engine_totals()


def _timed(run: Callable[..., Any], *args: Any, **kwargs: Any
           ) -> Tuple[Any, Tuple[float, _Snapshot, _Snapshot]]:
    """``run(*args, **kwargs)`` plus its wall time and the profiling
    snapshots taken either side of it."""
    before = _profile_snapshot()
    started = time.perf_counter()
    result = run(*args, **kwargs)
    elapsed = time.perf_counter() - started
    return result, (elapsed, before, _profile_snapshot())


def _render_profile(before: _Snapshot, after: _Snapshot) -> str:
    """One-line summary of the per-phase timings and tier rounds that
    accrued between two :func:`_profile_snapshot` calls."""
    totals = {name: seconds - before[0].get(name, 0.0)
              for name, seconds in after[0].items()}
    trials = after[1] - before[1]
    tiers = {tier: rounds - before[2].get(tier, 0)
             for tier, rounds in after[2].items()
             if rounds != before[2].get(tier, 0)}
    if trials == 0:
        return ("[profile] no trials executed (cached/resumed rows carry "
                "no timings; rerun against a cold cache to measure)")
    grand = sum(totals.values()) or 1.0
    parts = ", ".join(
        f"{name} {value:.3f}s ({100 * value / grand:.0f}%)"
        for name, value in sorted(totals.items()))
    line = f"[profile] {trials} trials: {parts}"
    if tiers:
        tier_parts = ", ".join(
            f"{tier} {rounds}" for tier, rounds in sorted(tiers.items()))
        line += f"\n[profile] engine rounds by tier: {tier_parts}"
    return line


def _exec_options(args: argparse.Namespace) -> Optional[ExecOptions]:
    if args.workers <= 1 and not args.cache_dir and not args.resume:
        return None
    if args.resume and not args.cache_dir:
        raise SystemExit("--resume needs --cache-dir (the journal lives "
                         "under the cache directory)")
    journal_dir = None
    if args.cache_dir:
        import os

        journal_dir = os.path.join(args.cache_dir, "journals")
    return ExecOptions(
        workers=args.workers,
        cache_dir=args.cache_dir,
        journal_dir=journal_dir,
        resume=args.resume,
        progress=args.workers > 1,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0
    if args.list_engines:
        print(render_engine_list())
        return 0
    if args.claims:
        from .claims import check_claims, render_claims

        results_dir = args.out or "results"
        claims = check_claims(results_dir)
        print(render_claims(claims))
        return 0 if all(c.verdict != "FAILS" for c in claims) else 1
    ids = list(EXPERIMENTS) if args.all else [e.lower() for e in args.experiments]
    if not ids:
        _parser().print_help()
        return 2
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    if args.profile:
        from ..simnet.engine import set_profile_default

        set_profile_default(True)
    if args.engine:
        from ..simnet.engine import set_engine_default

        set_engine_default(args.engine)
    if args.events:
        import os

        from ..obs.recorder import set_events_dir

        os.makedirs(args.events, exist_ok=True)
        set_events_dir(args.events)
    exec_opts = _exec_options(args)

    # T1 feeds F1 and F5; share its rows when several are requested.
    # Its cost is measured where it runs and reported for t1.
    t1 = None
    if "t1" in ids or ("f1" in ids and "f5" in ids):
        t1 = _timed(run_t1, quick=args.quick, exec_opts=exec_opts)

    for exp_id in ids:
        if exp_id == "t1" and t1 is not None:
            result, cost = t1
        elif exp_id in ("f1", "f5") and t1 is not None:
            run = run_f1 if exp_id == "f1" else run_f5
            result, cost = _timed(run, quick=args.quick, t1=t1[0],
                                  exec_opts=exec_opts)
        else:
            result, cost = _timed(run_experiment, exp_id, quick=args.quick,
                                  exec_opts=exec_opts)
        elapsed, before, after = cost
        print(result.render())
        print(f"[{exp_id} finished in {elapsed:.1f}s]\n")
        if args.profile:
            print(_render_profile(before, after))
            print()
        if args.out:
            path = save_experiment(result, args.out)
            print(f"[saved to {path}]\n")
    if args.events:
        from ..obs.merge import merge_event_streams

        merged, summary = merge_event_streams(args.events)
        print(f"[events merged to {merged}: {summary.render()}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
