"""The generated-docs pipeline: determinism, drift gates, link checking.

``docs/RESULTS.md`` and ``EXPERIMENTS.md`` are build artifacts of the
committed ``results/`` directory; CI's ``make docs-check`` fails when
they drift.  These tests pin the contract locally:

* regeneration from the committed artefacts is byte-identical to the
  committed documents (the golden-docs guarantee);
* the generator is deterministic — two builds produce equal bytes;
* ``python -m repro.report --check`` exits 0 when both documents are in
  sync and 1 when either drifts, without writing;
* every relative Markdown link in README/docs resolves.
"""

import os
import subprocess
import sys

import pytest

from repro.report import build_report, build_results_markdown
from repro.report import main as report_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(REPO_ROOT, "results")


def _read(*parts):
    with open(os.path.join(REPO_ROOT, *parts)) as fh:
        return fh.read()


def test_results_md_matches_committed(monkeypatch):
    # The committed document embeds the relative artefact path in its
    # header (as `make docs` produces it), so regenerate from the root.
    monkeypatch.chdir(REPO_ROOT)
    assert build_results_markdown("results") == _read("docs", "RESULTS.md"), (
        "docs/RESULTS.md drifted from results/ — run `make docs` and "
        "commit the regenerated document")


def test_experiments_md_matches_committed(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert build_report("results") == _read("EXPERIMENTS.md"), (
        "EXPERIMENTS.md drifted from results/ — run `make docs` and "
        "commit the regenerated document")


def test_results_md_generation_is_deterministic():
    assert build_results_markdown(RESULTS) == build_results_markdown(RESULTS)


def _write_docs(root):
    """Both generated documents, regenerated under *root*."""
    paths = [root / "EXPERIMENTS.md", root / "docs" / "RESULTS.md"]
    paths[1].parent.mkdir()
    paths[0].write_text(build_report(RESULTS))
    paths[1].write_text(build_results_markdown(RESULTS))
    return paths


def test_check_mode_passes_in_sync_and_writes_nothing(tmp_path):
    paths = _write_docs(tmp_path)
    before = [path.stat().st_mtime_ns for path in paths]
    code = report_main(["--results", RESULTS, "--root", str(tmp_path),
                        "--check"])
    assert code == 0
    assert [path.stat().st_mtime_ns for path in paths] == before


def test_check_mode_fails_on_drift(tmp_path, capsys):
    paths = _write_docs(tmp_path)
    for tampered in paths:
        clean = tampered.read_text()
        tampered.write_text(clean + "tampered\n")
        code = report_main(["--results", RESULTS, "--root", str(tmp_path),
                            "--check"])
        assert code == 1
        err = capsys.readouterr().err
        assert "out of date" in err and tampered.name in err
        assert tampered.read_text().endswith("tampered\n")  # not rewritten
        tampered.write_text(clean)


def test_missing_experiment_renders_placeholder(tmp_path):
    text = build_results_markdown(str(tmp_path))
    assert "not yet run" in text
    # claims degrade to UNKNOWN, never crash, on an empty directory
    assert "UNKNOWN" in text


def test_link_checker_passes_on_repo():
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_links.py"),
         REPO_ROOT],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "all relative links resolve" in proc.stdout


def test_link_checker_catches_dangling_link(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "see [the plan](docs/PLAN.md) and [home](https://example.com)\n")
    (docs / "OK.md").write_text("[back](../README.md)\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "check_links.py"),
         str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "docs/PLAN.md" in proc.stderr
    assert "example.com" not in proc.stderr  # external links are skipped


@pytest.mark.parametrize("doc", ["RESULTS.md", "OBSERVABILITY.md"])
def test_new_docs_exist_and_are_nonempty(doc):
    text = _read("docs", doc)
    assert len(text) > 1000
