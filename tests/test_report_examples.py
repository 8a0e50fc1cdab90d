"""Tests for the EXPERIMENTS.md generator and smoke tests of the examples."""

import os
import subprocess
import sys

import pytest

from repro.harness.experiments import ExperimentResult
from repro.harness.io import save_experiment
from repro.report import build_report, main as report_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestReportBuilder:
    def _seed_results(self, tmp_path):
        result = ExperimentResult(
            "T1", "Count scaling demo", rows=[{"n": 8, "rounds": 5}],
            tables={"t1": "algorithm  n\n---  ---\nours  8"})
        save_experiment(result, str(tmp_path))
        return tmp_path

    def test_includes_measured_blocks(self, tmp_path):
        self._seed_results(tmp_path)
        text = build_report(str(tmp_path))
        assert "T1 — Count scaling demo" in text
        assert "algorithm  n" in text
        assert "**Expected.**" in text

    def test_missing_experiments_marked(self, tmp_path):
        self._seed_results(tmp_path)
        text = build_report(str(tmp_path))
        assert "not yet run" in text  # f2..t3 absent

    def test_main_writes_file(self, tmp_path, capsys):
        self._seed_results(tmp_path)
        root = tmp_path / "root"
        code = report_main(["--results", str(tmp_path), "--root", str(root)])
        assert code == 0
        experiments_md = (root / "EXPERIMENTS.md").read_text()
        assert "T1 — Count scaling demo" in experiments_md
        assert (root / "docs" / "RESULTS.md").exists()
        assert capsys.readouterr().out.count("wrote") == 2


def run_example(name, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", name)],
        capture_output=True, text=True, timeout=timeout,
    )


class TestExamples:
    """Each example must run to completion and print its key output."""

    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "SublinearMax" in proc.stdout
        assert "KCommitteeCount" in proc.stdout

    def test_adversary_gallery(self):
        proc = run_example("adversary_gallery.py")
        assert proc.returncode == 0, proc.stderr
        assert "adaptive path hider" in proc.stdout
        assert "promise_ok" in proc.stdout

    def test_consensus_under_churn(self):
        proc = run_example("consensus_under_churn.py")
        assert proc.returncode == 0, proc.stderr
        assert "consensus value" in proc.stdout
        assert "plan-0" in proc.stdout

    @pytest.mark.slow
    def test_sensor_swarm_census(self):
        proc = run_example("sensor_swarm_census.py")
        assert proc.returncode == 0, proc.stderr
        assert "census" in proc.stdout

    @pytest.mark.slow
    def test_bandwidth_budget(self):
        proc = run_example("bandwidth_budget.py", timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "greedy" in proc.stdout
