"""Record the expected deterministic row of every benchmark cell.

Runs every cell of every workload, for every seed base in the bank,
through ``repro.harness.runner.run_trial`` and writes the
``passes.COLUMNS`` of each row to ``expected.json``.  The benchmark
counts a cell whose row differs as failed, so a change that alters
simulated results cannot pass as a speed-up.  Re-record only when a
change to the simulated results is intended::

    python3 perfbench/record_expected.py

Exits non-zero, writing nothing, if any cell fails its oracle.
"""

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Pool processes; a batch_count cell peaks near 1.1 GB, so two.
WORKERS = 2


def record(task):
    """``(workload, base, {cell id: column values})`` for one task."""
    from repro.harness.runner import run_trial

    from passes import COLUMNS

    workload, base = task
    rows = {}
    for cid, spec, seed in workloads.cells(workload, base):
        row = run_trial(spec, seed).as_row()
        rows[cid] = [row[col] for col in COLUMNS]
    return workload, base, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "expected.json"))
    args = parser.parse_args(argv)
    from passes import COLUMNS

    tasks = [(w, b) for b in workloads.SEED_BASES
             for w in workloads.WORKLOADS]
    table = {w: {} for w in workloads.WORKLOADS}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        for workload, base, rows in pool.imap_unordered(record, tasks):
            table[workload][str(base)] = rows
            print(f"{workload} base {base}: {len(rows)} cells", flush=True)
    wrong = [(w, b, cid) for w, bases in table.items()
             for b, rows in bases.items() for cid, vals in rows.items()
             if vals[COLUMNS.index("correct")] is not True]
    if wrong:
        print(f"{len(wrong)} cells fail their oracle: {wrong[:10]}",
              file=sys.stderr)
        return 1
    # One line per (workload, base) keeps the file diffable.
    lines = [f'{{"columns": {json.dumps(list(COLUMNS))},',
             f' "seed_bases": {json.dumps(list(workloads.SEED_BASES))},',
             ' "workloads": {']
    for wi, workload in enumerate(workloads.WORKLOADS):
        lines.append(f'  {json.dumps(workload)}: {{')
        bases = sorted(table[workload], key=int)
        for bi, base in enumerate(bases):
            sep = "," if bi < len(bases) - 1 else ""
            body = json.dumps(table[workload][base], sort_keys=True,
                              separators=(",", ":"))
            lines.append(f'   {json.dumps(base)}: {body}{sep}')
        lines.append("  }" + ("," if wi < len(workloads.WORKLOADS) - 1
                              else ""))
    lines.append(" }}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
