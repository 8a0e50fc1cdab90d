"""Result persistence.

Each experiment's artefacts land under a results directory as::

    results/<exp_id>/rows.csv      raw measured rows
    results/<exp_id>/rows.json     same rows, JSON (types preserved)
    results/<exp_id>/report.txt    rendered tables + ASCII figures

so that EXPERIMENTS.md can reference stable paths and reruns diff cleanly.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from ..analysis.tables import rows_to_csv
from .experiments import ExperimentResult
from .runner import durable_row

__all__ = ["save_experiment", "load_rows"]


def save_experiment(result: ExperimentResult, results_dir: str) -> str:
    """Write the experiment's artefacts; returns the experiment directory.

    Telemetry columns (``phase.*`` timings, ``engine.*`` tier splits,
    ``obs.*`` / ``cache.*`` counters — see
    :data:`repro.harness.runner.NONDURABLE_ROW_PREFIXES`) are stripped
    before persisting, so artefacts — and the generated documents
    checked by ``python -m repro.report --check`` — are identical
    whether the rows came from a fresh profiled/recorded run or a cache
    hit.
    """
    exp_dir = os.path.join(results_dir, result.exp_id.lower())
    os.makedirs(exp_dir, exist_ok=True)
    rows = [durable_row(row) for row in result.rows]
    with open(os.path.join(exp_dir, "rows.csv"), "w") as fh:
        fh.write(rows_to_csv(rows))
    with open(os.path.join(exp_dir, "rows.json"), "w") as fh:
        json.dump({"exp_id": result.exp_id, "title": result.title,
                   "rows": rows}, fh, indent=2, default=str)
    with open(os.path.join(exp_dir, "report.txt"), "w") as fh:
        fh.write(result.render() + "\n")
    return exp_dir


def load_rows(results_dir: str, exp_id: str) -> List[Dict[str, Any]]:
    """Load a previously saved experiment's rows (JSON, types preserved)."""
    path = os.path.join(results_dir, exp_id.lower(), "rows.json")
    with open(path) as fh:
        return json.load(fh)["rows"]
