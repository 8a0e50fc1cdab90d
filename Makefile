# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test test-fast lint bench bench-quick bench-smoke experiments sweep-parallel docs docs-check examples clean

install:
	pip install -e .

test:
	$(PY) -m pytest tests/

test-fast:
	$(PY) -m pytest tests/ -m "not slow" -x -q

# Lint + strict type-check the engine-tier package (the three tiers in
# src/repro/simnet/backends/ are held to the strictest bar; config in
# pyproject.toml).  Each tool is skipped with a notice when
# not installed, so the target is usable from the bare runtime
# environment; CI installs both and enforces them.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check src/repro/simnet/backends; \
	else echo "[lint] ruff not installed; skipping (pip install ruff)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
	    mypy --strict src/repro/simnet/backends; \
	else echo "[lint] mypy not installed; skipping (pip install mypy)"; fi

bench:           ## full-size: regenerates every table/figure into results/
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_QUICK=1 $(PY) -m pytest benchmarks/ --benchmark-only

bench-smoke:     ## CI gate: engine tier speedups vs baseline and bars
	$(PY) benchmarks/bench_engine.py --smoke

experiments:     ## same data via the CLI
	$(PY) -m repro.harness.cli --all --out results/

# Grid experiments on $(WORKERS) workers with a warm content-addressed
# cache; rerun after an interrupt to resume only the missing cells.
WORKERS ?= 4
sweep-parallel:
	$(PY) -m repro.harness.cli t1 f3 f6 x1 --workers $(WORKERS) \
	    --cache-dir .repro-cache --resume --out results/

docs:            ## regenerate EXPERIMENTS.md and docs/RESULTS.md from results/
	$(PY) -m repro.report

docs-check:      ## CI gate: fail when committed docs drift from results/
	$(PY) -m repro.report --check
	$(PY) tools/check_links.py

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/sensor_swarm_census.py
	$(PY) examples/adversary_gallery.py
	$(PY) examples/bandwidth_budget.py
	$(PY) examples/consensus_under_churn.py

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
