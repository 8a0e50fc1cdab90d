"""Tests for the experiment harness: runner, experiments, io, cli."""

import os

import pytest

from repro.core import ExactCount
from repro.dynamics import FreshSpanningAdversary
from repro.harness import (
    EXPERIMENTS,
    TrialConfig,
    load_rows,
    run_experiment,
    run_replicates,
    run_trial,
    save_experiment,
)
from repro.harness.experiments import ExperimentResult, run_f1, run_f5, run_t1
from repro.harness.cli import main as cli_main


def exact_count_config(n=16):
    return TrialConfig(
        schedule_factory=lambda seed: FreshSpanningAdversary(n, seed=seed),
        node_factory=lambda sched, seed: [ExactCount(i) for i in range(n)],
        max_rounds=4000,
        until="quiescent",
        quiescence_window=32,
        oracle=lambda outputs, sched: all(
            v == sched.num_nodes for v in outputs.values()),
    )


class TestRunner:
    def test_run_trial_measures(self):
        tr = run_trial(exact_count_config(), seed=1)
        assert tr.correct is True
        assert tr.last_decision_round is not None
        assert tr.last_decision_round <= tr.rounds
        assert tr.broadcast_bits > 0
        assert tr.max_message_bits > 0
        assert tr.stop_reason == "quiescent"

    def test_as_row_merges_params(self):
        tr = run_trial(exact_count_config(), seed=1)
        row = tr.as_row(algorithm="exact", n=16)
        assert row["algorithm"] == "exact"
        assert row["rounds"] == tr.rounds

    def test_replicates_one_per_seed(self):
        results = run_replicates(exact_count_config(), seeds=[1, 2, 3])
        assert len(results) == 3
        assert [r.seed for r in results] == [1, 2, 3]

    def test_determinism_across_calls(self):
        a = run_trial(exact_count_config(), seed=7)
        b = run_trial(exact_count_config(), seed=7)
        assert a.rounds == b.rounds
        assert a.broadcast_bits == b.broadcast_bits


class TestExperiments:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "t1", "f1", "f2", "f3", "f4", "t2", "f5", "f6", "t3", "x1", "x2"}

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("t9")

    def test_t1_quick(self):
        result = run_t1(quick=True)
        assert result.rows
        algos = {r["algorithm"] for r in result.rows}
        assert "klo_count" in algos and "exact_count_ours" in algos
        assert all(r.get("correct") in (True, None) for r in result.rows
                   if r["algorithm"] != "approx_count_ours")
        assert "t1" in result.tables

    def test_f1_reuses_t1(self):
        t1 = run_t1(quick=True)
        f1 = run_f1(quick=True, t1=t1)
        slopes = {r["algorithm"]: r["exponent_b"] for r in f1.rows}
        assert slopes["klo_count"] > 1.5
        assert slopes["exact_count_ours"] < 0.6
        assert "f1_loglog" in f1.figures

    def test_f5_produces_crossovers(self):
        t1 = run_t1(quick=True)
        f5 = run_f5(quick=True, t1=t1)
        assert all(r["crossover_N_predicted"] is not None for r in f5.rows)

    def test_render_includes_tables_and_notes(self):
        result = ExperimentResult("X1", "demo", rows=[{"a": 1}],
                                  tables={"t": "TBL"}, notes="note")
        text = result.render()
        assert "X1" in text and "TBL" in text and "note" in text


class TestIo:
    def test_save_and_load(self, tmp_path):
        result = ExperimentResult("T9", "demo",
                                  rows=[{"a": 1, "b": "x"}],
                                  tables={"t": "TBL"})
        exp_dir = save_experiment(result, str(tmp_path))
        assert os.path.exists(os.path.join(exp_dir, "rows.csv"))
        assert os.path.exists(os.path.join(exp_dir, "report.txt"))
        rows = load_rows(str(tmp_path), "t9")
        assert rows == [{"a": 1, "b": "x"}]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "f6" in out

    def test_no_args_shows_help(self, capsys):
        assert cli_main([]) == 2
        # The positional help lists every registered experiment id.
        assert " ".join(EXPERIMENTS) in " ".join(
            capsys.readouterr().out.split())

    def test_unknown_experiment(self, capsys):
        assert cli_main(["zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_quick_run_with_save(self, tmp_path, capsys):
        code = cli_main(["--quick", "f4", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "F4" in out
        assert os.path.exists(tmp_path / "f4" / "rows.csv")

    def test_timing_and_profile_lines_are_per_experiment(self, monkeypatch,
                                                         capsys):
        """T1 runs before the loop that prints timings, and the profile
        accumulators are process-wide: the CLI must still report each
        experiment's own wall time and profile figures."""
        from types import SimpleNamespace

        from repro.harness import cli, runner
        from repro.simnet import engine as engine_mod

        clock = [100.0]
        monkeypatch.setattr(cli, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(engine_mod, "_PROFILE_DEFAULT", False)

        def fake(seconds, phases, tiers):
            def run(*args, **kwargs):
                clock[0] += seconds
                runner.record_phase_seconds(phases)
                runner.record_engine_stats(tiers)
                return SimpleNamespace(render=lambda: "table")
            return run

        monkeypatch.setattr(cli, "run_t1", fake(
            4.5, {"compose": 3.0, "deliver": 1.0}, {"fast": 40}))
        monkeypatch.setattr(cli, "run_experiment", fake(
            2.0, {"compose": 0.5, "deliver": 0.5}, {"batch": 7}))
        runner.reset_phase_totals()
        runner.reset_engine_totals()
        try:
            assert cli_main(["t1", "f4", "--profile"]) == 0
        finally:
            runner.reset_phase_totals()
            runner.reset_engine_totals()
        out = capsys.readouterr().out
        assert "[t1 finished in 4.5s]" in out
        assert "[f4 finished in 2.0s]" in out
        t1_part, f4_part = out.split("[f4 finished")
        assert ("[profile] 1 trials: compose 3.000s (75%), "
                "deliver 1.000s (25%)") in t1_part
        assert "[profile] engine rounds by tier: fast 40" in t1_part
        assert ("[profile] 1 trials: compose 0.500s (50%), "
                "deliver 0.500s (50%)") in f4_part
        assert "[profile] engine rounds by tier: batch 7" in f4_part
