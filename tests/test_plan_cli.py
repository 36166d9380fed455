"""Plan parsing, execution, file output, presets, and the CLI."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import searchlab
from searchlab.channel import bawgn_capacity
import searchlab.plan as plan_mod
from searchlab.cli import build_parser, main
from searchlab.errors import InvalidAlpha, ParseError, StepLimitExceeded, ValidationError
from searchlab.model import new_config
from searchlab.plan import (
    BOUND_COLUMNS,
    PRESET_NAMES,
    SIM_COLUMNS,
    ExperimentPlan,
    load_preset,
    parse_plan,
    run_plan,
)
from searchlab.sim import MAX_TRIALS, run_trials, trial_seed_for
from searchlab.strategies import StrategySpec

MINIMAL = """
{
  "id": "mini",
  "B": 4, "delta": 1, "sigma2": 0.25, "epsilon": 0.01,
  "strategies": [{"kind": "sorted_pm"}],
  "n_trials": 5, "master_seed": 11
}
"""


def plan_doc(**overrides):
    doc = {"id": "t", "B": 4, "delta": 1, "sigma2": 0.25, "epsilon": 0.01}
    doc.update(overrides)
    return json.dumps(doc)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestParsePlan:
    def test_minimal_plan(self):
        plan = parse_plan(MINIMAL)
        assert plan.id == "mini"
        assert plan.n_trials == 5 and plan.master_seed == 11
        assert plan.strategies == (StrategySpec("sorted_pm"),)
        assert dict(plan.axes)["B"] == (4.0,)
        assert plan.swept_params() == []

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValidationError, match="widht"):
            parse_plan(plan_doc(widht=4))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_plan('{\n  "id": "x",\n  "B": ,\n}')
        assert err.value.line == 3
        assert err.value.col > 0

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValidationError, match="sigma2"):
            parse_plan(json.dumps(
                {"id": "t", "B": 4, "delta": 1, "epsilon": 0.01}))

    def test_parameter_fixed_and_swept_rejected(self):
        with pytest.raises(ValidationError, match="both fixed and swept"):
            parse_plan(plan_doc(sweeps=[["B", [4, 8]]]))

    def test_sweep_expansion_order(self):
        plan = parse_plan(json.dumps({
            "id": "t", "sigma2": 0.25, "epsilon": 0.01,
            "sweeps": [["B", [4, 8]], ["delta", [1, 0.5]]]}))
        assert plan.swept_params() == ["B", "delta"]

    def test_q_sweep_requires_capacity_table(self):
        with pytest.raises(ValidationError, match="capacity_table"):
            parse_plan(plan_doc(sweeps=[["q", [0.5]]]))
        with pytest.raises(ValidationError, match="capacity_table"):
            parse_plan(plan_doc(capacity_table={"mode": "composition"}))

    def test_capacity_plans_exclude_sims_and_bounds(self):
        with pytest.raises(ValidationError, match="no strategies"):
            parse_plan(plan_doc(sweeps=[["q", [0.5]]],
                                capacity_table={"mode": "composition"},
                                strategies=[{"kind": "sorted_pm"}]))

    def test_capacity_table_modes(self):
        plan = parse_plan(plan_doc(sweeps=[["q", [0.25, 0.5]]],
                                   capacity_table={"mode": "half_input",
                                                   "total_variances": [0.1]}))
        assert plan.capacity_mode == "half_input"
        assert plan.total_variances == (0.1,)
        with pytest.raises(ValidationError, match="total_variances"):
            parse_plan(plan_doc(sweeps=[["q", [0.5]]],
                                capacity_table={"mode": "composition",
                                                "total_variances": [0.1]}))
        with pytest.raises(ValidationError, match="mode"):
            parse_plan(plan_doc(sweeps=[["q", [0.5]]],
                                capacity_table={"mode": "full"}))

    def test_q_values_bounded(self):
        with pytest.raises(ValidationError, match="q values"):
            parse_plan(plan_doc(sweeps=[["q", [0.0, 0.5]]],
                                capacity_table={"mode": "composition"}))

    def test_strategy_validation(self):
        with pytest.raises(ValidationError, match="unknown strategy kind"):
            parse_plan(plan_doc(strategies=[{"kind": "dfs"}]))
        with pytest.raises(ValidationError, match="alpha"):
            parse_plan(plan_doc(strategies=[{"kind": "two_stage"}]))
        with pytest.raises(ValidationError, match="alpha"):
            parse_plan(plan_doc(strategies=[{"kind": "sorted_pm", "alpha": 0.5}]))
        with pytest.raises(InvalidAlpha):
            parse_plan(plan_doc(strategies=[{"kind": "two_stage", "alpha": 0.7}]))

    def test_bound_set_validation(self):
        with pytest.raises(ValidationError, match="unknown bound"):
            parse_plan(plan_doc(bound_set=["lemma3"]))
        with pytest.raises(ValidationError, match="^bound 'lemma1' named twice$"):
            parse_plan(plan_doc(bound_set=["lemma1", "lemma2", "lemma1"]))

    def test_corollary2_needs_a_width_or_resolution_sweep(self):
        with pytest.raises(ValidationError, match="corollary2"):
            parse_plan(plan_doc(bound_set=["corollary2"]))
        with pytest.raises(ValidationError, match="corollary2"):
            parse_plan(json.dumps({
                "id": "t", "epsilon": 0.01,
                "sweeps": [["B", [4, 8]], ["delta", [1, 0.5]], ["sigma2", [0.25]]],
                "bound_set": ["corollary2"]}))
        ok = parse_plan(json.dumps({
            "id": "t", "delta": 1, "sigma2": 0.25, "epsilon": 0.01,
            "sweeps": [["B", [4, 8]]], "bound_set": ["corollary2"]}))
        assert ok.bound_set == ("corollary2",)

    def test_scalar_field_validation(self):
        with pytest.raises(ValidationError, match="n_trials"):
            parse_plan(plan_doc(n_trials=0))
        # the plan's one seed check, the message of every route
        with pytest.raises(ValidationError,
                           match="^seed must be a non-negative integer, got -3$"):
            parse_plan(plan_doc(master_seed=-3))
        with pytest.raises(ValidationError, match="eta_frac"):
            parse_plan(plan_doc(eta_frac=1.5))
        with pytest.raises(ValidationError, match="id"):
            parse_plan(json.dumps({"B": 4, "delta": 1, "sigma2": 0.25,
                                   "epsilon": 0.01}))


# SHA-256 of every file that run_plan(load_preset(name), out, workers=1)
# writes: the presets' bytes are a contract, so a change to them must be
# recorded here.  Recorded when a fixed bisection level became one
# observation of the mean of its r, which moved fig4's noisy_binary_fixed
# err_rate at sigma2 = 0.0625 and 0.125 (0.0005 -> 0.0).
PRESET_SHA256 = {
    "fig3": {
        "fig3_capacity_vs_probe_size_capacity.csv":
            "45b7069335d0f39d0ecfc21be937fe0c616d09fa04c6dd541ec4f30398585f59",
    },
    "fig4": {
        "fig4_strategies_vs_sigma2_bounds.csv":
            "3033a518c03eca8ff69bf952573b492b72e2286cf7746e4f6dfb6c128b8c34c2",
        "fig4_strategies_vs_sigma2_sim.csv":
            "6e225535cb45317b03511df0bb106f150db197ed9cc0a2974a417e37a391a8e8",
    },
    "fig5": {
        "fig5_scaling_in_width_bounds.csv":
            "f66544e5b033f611bf559a217e80943a83799c11483a31be50fb6f5ea6b5110e",
        "fig5_scaling_in_width_sim.csv":
            "6912892e8169731331365ff4ad70027b5ac526aecabe6024cb0998d7c8bceff2",
    },
    "fig6": {
        "fig6_scaling_in_resolution_bounds.csv":
            "e114fe894cc0e5f805dffd16e0b2ebb7a05f718a0482609ea38eda8a1420bfa5",
        "fig6_scaling_in_resolution_sim.csv":
            "66d98f4f014d44e488e16eca3f5b17310af1b2fa60cda17d90cab9c50ae519b6",
    },
    "fig7": {
        "fig7_capacity_flatness_capacity.csv":
            "5b5feb28b7d31809110d15442bb813e29d11c4d3cad976de8666b8369d79eff2",
    },
    "fig8": {
        "fig8_general_noise_gain_bounds.csv":
            "03273469b36c8b10dbe218995269f08157997891160ef6826cc4a6126301187c",
    },
}


class TestPresets:
    def test_all_presets_parse(self):
        for name in PRESET_NAMES:
            plan = load_preset(name)
            assert plan.id.startswith(name)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError, match="fig9"):
            load_preset("fig9")

    def test_fig4_structure(self):
        plan = load_preset("fig4")
        axes = dict(plan.axes)
        assert axes["B"] == (16.0,) and axes["delta"] == (1.0,)
        assert axes["epsilon"] == (1e-4,)
        assert axes["sigma2"] == (0.0625, 0.125, 0.25, 0.5)
        kinds = [s.kind for s in plan.strategies]
        assert kinds == ["fixed_composition", "sorted_pm",
                         "noisy_binary_fixed", "noisy_binary_variable"]

    def test_fig5_structure(self):
        axes = dict(load_preset("fig5").axes)
        assert axes["B"] == (8.0, 16.0, 32.0, 64.0, 128.0)
        assert axes["delta"] == (1.0,) and axes["sigma2"] == (0.25,)

    def test_fig6_structure(self):
        plan = load_preset("fig6")
        axes = dict(plan.axes)
        assert axes["B"] == (1.0,) and axes["sigma2"] == (0.25,)
        deltas = axes["delta"]
        assert len(deltas) == 5
        assert all(b == a / 2 for a, b in zip(deltas, deltas[1:]))
        assert "corollary2" in plan.bound_set

    def test_fig8_structure(self):
        axes = dict(load_preset("fig8").axes)
        assert axes["gamma"] == (0.5, 1.0, 2.0)
        assert axes["B"] == (25.0,)
        assert load_preset("fig8").bound_set == ("theorem2",)

    def test_fig7_structure(self):
        plan = load_preset("fig7")
        assert plan.capacity_mode == "half_input"
        assert plan.total_variances == (0.005, 0.05, 0.5)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_files_match_recorded_bytes(self, tmp_path, name):
        paths = run_plan(load_preset(name), tmp_path, workers=1)
        got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in paths}
        assert got == PRESET_SHA256[name]

    def test_every_preset_runs_and_stays_finite(self, tmp_path):
        # scaled-down trial counts; finiteness of every reported mean is
        # exactly what the full-size runs guarantee (no step-limit hits)
        for name in PRESET_NAMES:
            paths = run_plan(dataclasses.replace(load_preset(name), n_trials=30),
                             tmp_path / name)
            assert paths
            for path in paths:
                for row in read_csv(path):
                    if "mean_tau" in row:
                        assert math.isfinite(float(row["mean_tau"]))


class TestRunPlan:
    def test_sim_and_bound_files(self, tmp_path):
        plan = parse_plan(plan_doc(strategies=[{"kind": "sorted_pm"}],
                                   bound_set=["lemma1"], n_trials=8,
                                   master_seed=5))
        paths = run_plan(plan, tmp_path)
        assert [p.name for p in paths] == ["t_sim.csv", "t_bounds.csv"]
        sim_rows = read_csv(paths[0])
        assert list(sim_rows[0]) == list(SIM_COLUMNS)
        assert sim_rows[0]["strategy"] == "sorted_pm"
        assert int(sim_rows[0]["n_trials"]) == 8
        bound_rows = read_csv(paths[1])
        assert list(bound_rows[0]) == list(BOUND_COLUMNS)
        assert bound_rows[0]["bound_name"] == "lemma1"
        assert bound_rows[0]["eta"] == ""  # lemma1 takes no slack

    def test_sim_row_matches_direct_batch(self, tmp_path):
        plan = parse_plan(plan_doc(strategies=[{"kind": "sorted_pm"}],
                                   n_trials=12, master_seed=9))
        (path,) = run_plan(plan, tmp_path)
        row = read_csv(path)[0]
        cfg = new_config(4, 1, 0.25, 0.01)
        stats = run_trials(StrategySpec("sorted_pm"), cfg, 12,
                           trial_seed_for(9, 0))
        assert float(row["mean_tau"]) == stats.mean_tau
        assert float(row["err_rate"]) == stats.err_rate
        assert int(row["master_seed"]) == 9

    def test_csv_floats_round_trip_and_json_mirror_matches(self, tmp_path):
        plan = parse_plan(plan_doc(strategies=[{"kind": "sorted_pm"}],
                                   n_trials=7, master_seed=3))
        csv_path, json_path = run_plan(plan, tmp_path, fmt="both")
        csv_row = read_csv(csv_path)[0]
        json_row = json.loads(json_path.read_text())[0]
        assert set(csv_row) == set(json_row)
        for key, jval in json_row.items():
            cval = csv_row[key]
            if jval is None:
                assert cval == ""
            elif isinstance(jval, float):
                assert float(cval) == jval  # repr() loses nothing
            else:
                assert str(jval) == cval

    def test_line_endings_are_lf(self, tmp_path):
        plan = parse_plan(MINIMAL)
        (path,) = run_plan(plan, tmp_path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = parse_plan(MINIMAL)
        (first,) = run_plan(plan, tmp_path)
        before = first.read_bytes()
        (second,) = run_plan(plan, tmp_path)
        assert second.read_bytes() == before

    def test_worker_count_does_not_change_output(self, tmp_path):
        plan = dataclasses.replace(load_preset("fig6"), n_trials=40)
        (a_sim, a_b) = run_plan(plan, tmp_path / "w1", workers=1)
        (b_sim, b_b) = run_plan(plan, tmp_path / "w3", workers=3)
        assert a_sim.read_bytes() == b_sim.read_bytes()
        assert a_b.read_bytes() == b_b.read_bytes()

    @staticmethod
    def fail_sims(plan, workers):
        """A runtime failure of a plan's batches, once out_dir exists."""
        raise StepLimitExceeded("trial 1: two_stage(alpha=1/4) stage 1 "
                                "exceeded 10000000 steps")

    def test_failure_leaves_partial_marker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(plan_mod, "_sim_rows", self.fail_sims)
        plan = ExperimentPlan(
            id="doomed",
            axes=(("B", (16.0,)), ("delta", (1.0,)), ("sigma2", (0.25,)),
                  ("epsilon", (1e-4,))),
            strategies=(StrategySpec("two_stage", alpha=1 / 4),),
            n_trials=4)
        with pytest.raises(StepLimitExceeded):
            run_plan(plan, tmp_path)
        marker = tmp_path / "doomed.partial"
        assert marker.exists()
        assert "StepLimitExceeded" in marker.read_text()

    def test_success_clears_stale_partial_marker(self, tmp_path, monkeypatch):
        axes = (("B", (16.0,)), ("delta", (1.0,)), ("sigma2", (0.25,)),
                ("epsilon", (1e-2,)))
        plan = ExperimentPlan(id="redo", axes=axes, n_trials=2,
                              strategies=(StrategySpec("two_stage", 1 / 4),))
        with monkeypatch.context() as patched:
            patched.setattr(plan_mod, "_sim_rows", self.fail_sims)
            with pytest.raises(StepLimitExceeded):
                run_plan(plan, tmp_path)
        assert (tmp_path / "redo.partial").exists()
        run_plan(plan, tmp_path)
        assert not (tmp_path / "redo.partial").exists()
        assert (tmp_path / "redo_sim.csv").exists()

    def test_failed_write_leaves_no_data_file(self, tmp_path, monkeypatch):
        real_writer = plan_mod.csv.writer

        class FailingAfterOneRow:
            """The module's csv writer, failing at the second data row."""

            def __init__(self, fh, **kwargs):
                self.writer = real_writer(fh, **kwargs)
                self.rows = 0

            def writerow(self, row):
                self.rows += 1
                if self.rows > 2:  # the header and one data row are written
                    raise OSError("disk full")
                return self.writer.writerow(row)

        monkeypatch.setattr(plan_mod.csv, "writer", FailingAfterOneRow)
        plan = parse_plan(plan_doc(id="cut", n_trials=3, strategies=[
            {"kind": "sorted_pm"}, {"kind": "exhaustive"}, {"kind": "sorted_pm"}]))
        with pytest.raises(OSError, match="disk full"):
            run_plan(plan, tmp_path)
        # neither a truncated cut_sim.csv nor its temp file is left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.partial"]
        assert "disk full" in (tmp_path / "cut.partial").read_text()

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="format"):
            run_plan(parse_plan(MINIMAL), tmp_path, fmt="xml")


class TestCapacityTables:
    def test_half_input_flatness_and_golden(self, tmp_path):
        (path,) = run_plan(load_preset("fig7"), tmp_path)
        rows = read_csv(path)
        by_tv = {}
        for row in rows:
            by_tv.setdefault(float(row["sigma2_total"]), []).append(
                (float(row["q"]), float(row["capacity_bits"])))
        # near-noiseless curve is flat near one bit
        low = [c for _, c in by_tv[0.005]]
        assert min(low) >= 0.99
        assert max(low) - min(low) <= 0.05
        # the q = 1/2 column is the plain channel capacity
        for tv, curve in by_tv.items():
            got = dict(curve)[0.5]
            assert got == pytest.approx(bawgn_capacity(0.5, tv), abs=1e-12)

    def test_composition_curves_drop_with_noise_exponent(self, tmp_path):
        (path,) = run_plan(load_preset("fig3"), tmp_path)
        rows = read_csv(path)
        curves = {}
        for row in rows:
            curves.setdefault(float(row["gamma"]), {})[int(row["probe_count"])] = \
                float(row["capacity_bits"])
        g05, g1, g2 = curves[0.5], curves[1.0], curves[2.0]
        assert set(g05) == set(g1) == set(g2)
        for k in g05:
            if k >= 2:
                assert g05[k] > g1[k] > g2[k]
            else:
                assert g05[k] == pytest.approx(g1[k], abs=1e-12)


class TestCli:
    def test_capacity_verb(self, tmp_path, capsys):
        rc = main(["capacity", "--q", "0.5", "--variance", "0.25",
                   "--out", str(tmp_path)])
        assert rc == 0
        row = read_csv(tmp_path / "cli_capacity.csv")[0]
        assert float(row["capacity_bits"]) == bawgn_capacity(0.5, 0.25)
        assert "C(q=0.5" in capsys.readouterr().out

    def test_reused_parser_keeps_no_flags_between_calls(self, tmp_path):
        # main parses with one parser for the process; a repeated (append)
        # flag must not carry an earlier call's values into the next
        assert build_parser() is build_parser()
        first, second, third = (tmp_path / name for name in "abc")
        assert main(["capacity", "--q", "0.5", "--variance", "0.25",
                     "--out", str(first)]) == 0
        assert main(["capacity", "--q", "0.25", "--q", "0.75",
                     "--variance", "1", "--out", str(second)]) == 0
        assert main(["bounds", "--B", "16", "--delta", "1", "--sigma2", "0.25",
                     "--epsilon", "1e-4", "--bound-set", "lemma1",
                     "--out", str(third)]) == 0
        assert [(r["q"], r["variance"])
                for r in read_csv(first / "cli_capacity.csv")] == [("0.5", "0.25")]
        assert [(r["q"], r["variance"])
                for r in read_csv(second / "cli_capacity.csv")] == [
            ("0.25", "1.0"), ("0.75", "1.0")]
        assert [r["bound_name"] for r in
                read_csv(third / "cli_bounds_bounds.csv")] == ["lemma1"]
        assert sorted(p.name for p in third.iterdir()) == ["cli_bounds_bounds.csv"]

    def test_bounds_verb_matches_module(self, tmp_path):
        rc = main(["bounds", "--B", "16", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "1e-4", "--bound-set", "lemma1",
                   "--out", str(tmp_path)])
        assert rc == 0
        row = read_csv(tmp_path / "cli_bounds_bounds.csv")[0]
        from searchlab.bounds import nonadaptive_lower_bound
        assert float(row["value"]) == nonadaptive_lower_bound(
            new_config(16, 1, 0.25, 1e-4))

    def test_bounds_verb_rejects_corollary2(self, tmp_path, capsys):
        rc = main(["bounds", "--B", "16", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "1e-4", "--bound-set", "corollary2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "corollary2" in capsys.readouterr().err

    def test_simulate_verb(self, tmp_path):
        rc = main(["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "0.01", "--strategy", "sorted_pm",
                   "--trials", "6", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        row = read_csv(tmp_path / "cli_simulate_sim.csv")[0]
        assert row["strategy"] == "sorted_pm" and int(row["n_trials"]) == 6

    def test_validation_failures_exit_two(self, tmp_path, capsys):
        rc = main(["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "2.0", "--strategy", "sorted_pm",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--B", "inf"), ("--delta", "nan"),
                                            ("--sigma2", "inf")])
    def test_non_finite_config_exits_two(self, tmp_path, capsys, flag, value):
        args = {"--B": "16", "--delta": "1", "--sigma2": "0.25"}
        args[flag] = value
        rc = main(["bounds", *(x for kv in args.items() for x in kv),
                   "--epsilon", "1e-4", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["0", "nan", "-0.25", "inf"])
    def test_bad_alpha_exits_two(self, tmp_path, capsys, alpha):
        rc = main(["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "0.01", "--strategy", "two_stage",
                   "--alpha", alpha, "--trials", "2", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "Traceback" not in err

    def test_plan_alpha_zero_exits_two(self, tmp_path, capsys):
        plan_file = tmp_path / "p.json"
        plan_file.write_text(plan_doc(strategies=[{"kind": "two_stage",
                                                   "alpha": 0}]))
        rc = main(["sweep", "--plan", str(plan_file), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [["--B", "4", "--gamma", "1000"],
                                       ["--B", "1e9"]])
    def test_oversized_config_exits_two(self, tmp_path, capsys, extra):
        # 4**1000 overflows a float; 1e9 cells exceed the cell-count cap
        rc = main(["bounds", "--delta", "1", "--sigma2", "1", "--epsilon", "0.1",
                   *extra, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
         "--epsilon", "0.01", "--strategy", "sorted_pm", "--trials", "2"],
        ["sweep", "--preset", "fig4", "--trials", "2"],
        ["drift-probe", "--B", "4", "--delta", "1", "--sigma2", "0.25",
         "--epsilon", "0.01", "--strategy", "sorted_pm", "--steps", "10000"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_two(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # every output lands under tmp_path
        rc = main([*argv, "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_one_cell_bounds_name_the_input(self, tmp_path, capsys):
        rc = main(["bounds", "--B", "1", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "0.1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: M = 1 admits no section fraction\n"

    def test_one_cell_lemma1_is_zero(self, tmp_path):
        rc = main(["bounds", "--B", "1", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "0.1", "--bound-set", "lemma1",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "cli_bounds_bounds.csv")
        assert [(r["bound_name"], r["value"]) for r in rows] == [("lemma1", "0.0")]

    def test_drift_probe_steps_above_step_limit_exit_two(self, capsys):
        # refused before the 8-byte-per-step increment array is allocated
        rc = main(["drift-probe", "--B", "16", "--delta", "1", "--sigma2",
                   "0.25", "--epsilon", "1e-4", "--strategy", "sorted_pm",
                   "--steps", "10000000000000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "n_steps" in err and "Traceback" not in err

    def test_tiny_variance_capacity_is_the_noiseless_limit(self, tmp_path,
                                                           capsys):
        # below 1e-3 sd C(q, v) is the noiseless limit H(q), with no grid
        rc = main(["capacity", "--q", "0.5", "--variance", "1e-300",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "cli_capacity.csv")
        assert [(r["variance"], r["capacity_bits"]) for r in rows] == [
            ("1e-300", "1.0")]

    def test_grid_with_one_tiny_variance_writes_both_rows(self, tmp_path):
        # the tiny variance no longer stops the grid: each pair gets its row
        rc = main(["capacity", "--q", "0.5", "--variance", "0.25",
                   "--variance", "1e-300", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "cli_capacity.csv")
        assert [(r["variance"], r["capacity_bits"]) for r in rows] == [
            ("0.25", repr(bawgn_capacity(0.5, 0.25))), ("1e-300", "1.0")]

    @pytest.mark.parametrize("argv, rc, said", [
        (["capacity", "--q", "0.5", "--variance", "1e308"], 0, "= 1.80336"),
        (["bounds", "--B", "2", "--delta", "1", "--sigma2", "1e307",
          "--epsilon", "0.1"], 2, "lemma2 is inf at B=2.0"),
    ], ids=["capacity", "bounds"])
    def test_huge_variance_is_answered_before_allocating(self, tmp_path, capsys,
                                                         argv, rc, said):
        # (1 + 10 sqrt(v))**2 overflows, so C(q, v) is its closed form
        # q(1-q)/(2 v ln 2); the bounds divide by it and overflow, which
        # is refused as out of range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracemalloc.start()
            try:
                got = main([*argv, "--out", str(tmp_path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == rc
        out, err = capsys.readouterr()
        assert said in (out if rc == 0 else err) and "Traceback" not in err
        assert len(err.splitlines()) == (rc != 0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert bool(list(tmp_path.glob("*.csv"))) == (rc == 0)
        assert peak < 2 << 20

    def test_fixed_bisection_level_past_step_limit_exits_three(self, tmp_path,
                                                                capsys):
        # a first level of about 5e8 observations is refused before any
        # draw and any output, so its array of normals is never allocated
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            rc = main(["simulate", "--B", "16", "--delta", "1", "--sigma2", "1e6",
                       "--epsilon", "1e-4", "--strategy", "noisy_binary_fixed",
                       "--trials", "1", "--workers", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: noise variance v(8) = 8000000.0 is too large at epsilon=0.0001: "
            "a trial's levels can take more than 10000000 steps\n")
        assert not out.exists()
        assert peak < 2 << 20

    @pytest.mark.parametrize("sigma2", ["1e18", "1e307"])
    def test_fixed_bisection_level_past_int64_exits_three(self, tmp_path, capsys,
                                                          sigma2):
        # ceil(4 v z^2) passes 2**63, or 4 v z^2 overflows: the config is
        # refused before any output, as a smaller level past the limit is
        out = tmp_path / "out"
        rc = main(["simulate", "--B", "16", "--delta", "1", "--sigma2", sigma2,
                   "--epsilon", "0.1", "--strategy", "noisy_binary_fixed",
                   "--trials", "2", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: noise variance v(8) = {8 * float(sigma2)!r} is too large at "
            f"epsilon=0.1: a trial's levels can take more than 10000000 steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sorted_pm", "fixed_composition",
                                      "exhaustive", "two_stage"])
    def test_unreachable_threshold_exits_three_at_once(self, tmp_path, capsys,
                                                       kind):
        # a ratio at v(1) = 1e300 moves a posterior sum by about 1e-149, so
        # no trial can reach its threshold within STEP_LIMIT steps: the
        # batch is refused before it runs, where it ran for minutes
        argv = ["simulate", "--B", "16", "--delta", "1", "--sigma2", "1e300",
                "--epsilon", "0.1", "--strategy", kind, "--trials", "2",
                "--out", str(tmp_path)]
        start = time.perf_counter()
        rc = main(argv + (["--alpha", "0.5"] if kind == "two_stage" else []))
        assert time.perf_counter() - start < 10.0
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: noise variance v(1) = 1e+300 is too large: no trial can "
            "reach its threshold within 10000000 steps\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_unreachable_first_bisection_level_exits_three_at_once(self, tmp_path,
                                                                   capsys):
        # a ratio at v(8) = 8e300 moves the probed half by about 1e-149, so
        # no trial can end its first level within STEP_LIMIT steps: the
        # batch is refused before it runs, where it ran for seconds into
        # the limit
        start = time.perf_counter()
        rc = main(["simulate", "--B", "16", "--delta", "1", "--sigma2", "1e300",
                   "--epsilon", "1e-4", "--strategy", "noisy_binary_variable",
                   "--trials", "2", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: noise variance v(8) = 8e+300 is too large: no trial can "
            "pass its first level within 10000000 steps\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--preset", "fig8", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["sweep", "--preset", "fig3", "--seed", str(2 ** 64)],
         f"seed must be below 2**64, got {2 ** 64}"),
        (["sweep", "--preset", "fig6", "--trials", "2", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
          "--epsilon", "0.01", "--strategy", "sorted_pm", "--trials", "2",
          "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
    ], ids=["fig8-negative", "fig3-2**64", "fig6-negative", "simulate-negative"])
    def test_bad_seed_refused_before_output(self, tmp_path, capsys, argv,
                                            message):
        # the plan checks master_seed on construction, so no route creates
        # its output directory, a plan without strategies included
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
         "--epsilon", "0.01", "--strategy", "sorted_pm",
         "--trials", "10000000000"],
        ["sweep", "--preset", "fig6", "--trials", "10000000000"],
    ])
    def test_trial_count_above_cap_exits_two(self, tmp_path, capsys, argv):
        rc = main([*argv, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "n_trials" in err and "Traceback" not in err

    def test_plan_trial_count_above_cap_exits_two(self, tmp_path, capsys):
        plan_file = tmp_path / "p.json"
        plan_file.write_text(plan_doc(strategies=[{"kind": "sorted_pm"}],
                                      n_trials=MAX_TRIALS + 1))
        rc = main(["sweep", "--plan", str(plan_file), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "n_trials" in err and "Traceback" not in err
        assert not (tmp_path / "t.partial").exists()  # refused while parsing

    @pytest.mark.parametrize("argv", [
        ["sweep", "--preset", "fig6", "--trials", "20"],
        ["bounds", "--B", "16", "--delta", "1", "--sigma2", "0.25",
         "--epsilon", "1e-4"],
    ], ids=["sweep", "bounds"])
    def test_eta_frac_flag_refused_before_running(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main([*argv, "--eta-frac", "1.5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "eta_frac" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_flag_exits_two(self, tmp_path, capsys, workers):
        rc = main(["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "0.01", "--strategy", "sorted_pm",
                   "--trials", "2", "--workers", workers, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err

    def test_nonpositive_worker_env_exits_two(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("SEARCHLAB_WORKERS", "0")
        rc = main(["sweep", "--preset", "fig6", "--trials", "2",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "SEARCHLAB_WORKERS" in err and "Traceback" not in err

    def test_bad_worker_env_names_the_variable(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("SEARCHLAB_WORKERS", "abc")
        rc = main(["simulate", "--B", "4", "--delta", "1", "--sigma2", "0.25",
                   "--epsilon", "0.01", "--strategy", "sorted_pm",
                   "--trials", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert "SEARCHLAB_WORKERS" in capsys.readouterr().err

    def test_missing_plan_file_exits_three(self, tmp_path, capsys):
        rc = main(["sweep", "--plan", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 3
        capsys.readouterr()

    def test_sweep_plan_file_and_format_both(self, tmp_path):
        plan_file = tmp_path / "p.json"
        plan_file.write_text(MINIMAL)
        rc = main(["sweep", "--plan", str(plan_file), "--trials", "4",
                   "--out", str(tmp_path / "out"), "--format", "both"])
        assert rc == 0
        assert (tmp_path / "out" / "mini_sim.csv").exists()
        assert (tmp_path / "out" / "mini_sim.json").exists()

    def test_sweep_preset_with_env_worker_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEARCHLAB_WORKERS", "2")
        rc = main(["sweep", "--preset", "fig6", "--trials", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig6_scaling_in_resolution_sim.csv").exists()

    def test_seed_override_changes_sim_rows(self, tmp_path):
        base = ["sweep", "--preset", "fig6", "--trials", "15"]
        main(base + ["--out", str(tmp_path / "a"), "--seed", "1"])
        main(base + ["--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "fig6_scaling_in_resolution_sim.csv").read_bytes()
        b = (tmp_path / "b" / "fig6_scaling_in_resolution_sim.csv").read_bytes()
        assert a != b

    def test_drift_probe_verb(self, capsys):
        rc = main(["drift-probe", "--B", "16", "--delta", "1", "--sigma2",
                   "0.25", "--epsilon", "1e-4", "--strategy", "sorted_pm",
                   "--steps", "10000", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_drift = " in out and "capacity_floor = " in out

    def test_module_entry_point(self, tmp_path):
        # the child imports the package from where this process found it
        # (pytest's pythonpath setting is not inherited by a subprocess)
        path = [str(Path(searchlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "searchlab", "capacity", "--q", "0.5",
             "--variance", "1.0", "--out", str(tmp_path)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
        assert proc.returncode == 0
        assert (tmp_path / "cli_capacity.csv").exists()

    def test_import_loads_no_scipy(self):
        # the runtime is numpy and the standard library; scipy serves the
        # tests as an independent reference only
        path = [str(Path(searchlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, searchlab, searchlab.cli; "
             "print('scipy' in sys.modules)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_public_api_names_resolve(self):
        names = searchlab.__all__
        assert len(set(names)) == len(names)
        missing = [name for name in names if not hasattr(searchlab, name)]
        assert missing == []
        star = {}
        exec("from searchlab import *", star)
        assert set(names) <= set(star)

    def test_object_posterior_api_is_gone(self):
        # the running sums are the one posterior path: no object API beside it
        gone = {"Posterior", "init_uniform", "bayes_update", "MeasurementVector",
                "DegeneratePosterior", "WIDE_STEP"}
        assert not gone & set(searchlab.__all__)
        for module in (searchlab, searchlab.errors, searchlab.inference,
                       searchlab.model):
            assert not gone & set(vars(module)), module.__name__

    def test_stand_alone_stage_bounds_are_gone(self):
        # a report's alpha_terms hold the Lemma 2 stage times: no second path
        gone = {"stage1_upper_bound", "stage2_upper_bound"}
        for module in (searchlab, searchlab.bounds):
            assert not gone & set(getattr(module, "__all__", ())), module.__name__
            assert not gone & set(vars(module)), module.__name__

    def test_runs_load_no_numpy_ma(self, tmp_path):
        # numpy.ma, which some numpy functions (np.unique) import lazily, adds
        # about 1.3 MB to a process: no simulation or drift probe loads it
        path = [str(Path(searchlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        config = ["--B", "16", "--delta", "1", "--sigma2", "0.25", "--epsilon", "1e-3"]
        runs = [["simulate", *config, "--strategy", kind, "--trials", "8",
                 "--out", str(tmp_path)]
                + (["--alpha", "0.25"] if kind == "two_stage" else [])
                for kind in ("fixed_composition", "sorted_pm", "two_stage",
                             "noisy_binary_fixed", "noisy_binary_variable",
                             "exhaustive")]
        runs += [["drift-probe", *config, "--strategy", kind, "--steps", "10000"]
                 for kind in ("fixed_composition", "sorted_pm")]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from searchlab.cli import main; "
             f"codes = [main(args) for args in {runs!r}]; "
             "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
        assert proc.stderr == f"{[0] * len(runs)} False\n"

    def test_one_worker_runs_load_no_process_pool(self, tmp_path):
        # the process pool's import loads multiprocessing (with logging,
        # socket and queue) and comes with the first batch on more than one
        # worker; numpy.random (about 6 MB) comes with the first generator,
        # so bounds and capacity runs load neither
        path = [str(Path(searchlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        config = ["--B", "16", "--delta", "1", "--sigma2", "0.25", "--epsilon", "1e-3"]
        quadrature = [["bounds", *config, "--bound-set",
                       "lemma1,lemma2,theorem1,theorem2", "--out", str(tmp_path)],
                      ["capacity", "--q", "0.5", "--variance", "0.25",
                       "--variance", "4", "--out", str(tmp_path)]]
        simulate = [["simulate", *config, "--strategy", "sorted_pm", "--trials",
                     "8", "--workers", "1", "--out", str(tmp_path)]]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, searchlab, searchlab.cli; "
             "from searchlab.cli import main; "
             "names = ('multiprocessing', 'concurrent.futures', 'numpy.random'); "
             "loaded = lambda: [n for n in names if n in sys.modules]; "
             "print(loaded(), file=sys.stderr); "
             f"print([main(a) for a in {quadrature!r}], loaded(), file=sys.stderr); "
             f"print([main(a) for a in {simulate!r}], loaded(), file=sys.stderr)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
        assert proc.stderr.splitlines() == [
            "[]", "[0, 0] []", "[0] ['numpy.random']"]
