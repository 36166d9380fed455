"""The CLI exit-code policy, which lives in the exception types.

A ValidationError (bad input) exits 2; every other exception, a runtime
failure or an error raised by mistake, exits 3; no input prints a
traceback.  Everything here runs in-process and starts no worker.
"""

import ast
import dataclasses
import inspect
import io
import json
import math
import os
import re
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import searchlab
import searchlab.cli as cli_mod
import searchlab.plan as plan_mod
from searchlab import bounds, errors
from searchlab.channel import optimal_composition, solve_a_eta
from searchlab.cli import main
from searchlab.model import new_config
from searchlab.sim import MAX_TRIALS, drift_probe, trial_seed_for
from searchlab.strategies import KINDS, SORTED_PM, StrategySpec

VALIDATION = {"ValidationError", "ParseError", "InvalidEpsilon",
              "NonIntegerLocationCount", "InvalidNoiseModel",
              "NonMonotoneNoise", "InvalidAlpha", "NoFeasibleAlpha",
              "EtaTooLarge", "ProbeCountOutOfRange", "SizeOne"}
RUNTIME = {"StepLimitExceeded", "QuadratureNonConvergence", "NoRootInBracket"}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.SearchLabError)]
BOUNDS = ["bounds", "--B", "16", "--delta", "1", "--sigma2", "0.25",
          "--epsilon", "1e-4"]


def run(argv):
    """main(argv) -> (exit code, stderr), argparse's exits included."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def test_classes_are_classified_by_their_base():
    names = {cls.__name__ for cls in ERROR_CLASSES}
    assert names == VALIDATION | RUNTIME | {"SearchLabError"}
    for cls in ERROR_CLASSES:
        bad_input = cls.__name__ in VALIDATION
        assert issubclass(cls, errors.ValidationError) is bad_input
        assert issubclass(cls, ValueError) is bad_input


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_cli_exit_code_follows_the_class(tmp_path, monkeypatch, cls):
    def fail(plan):
        raise cls("raised on purpose")

    monkeypatch.setattr(plan_mod, "_bound_rows", fail)
    rc, err = run([*BOUNDS, "--out", str(tmp_path)])
    assert rc == (2 if issubclass(cls, errors.ValidationError) else 3)
    assert err == "error: raised on purpose\n"


@pytest.mark.parametrize("exc,shown", [
    (ValueError("internal"), "error: internal"),
    (KeyError("internal"), "error: 'internal'"),
    (RuntimeError(), "error: RuntimeError"),
], ids=["ValueError", "KeyError", "empty-message"])
def test_unintended_errors_exit_three(tmp_path, monkeypatch, exc, shown):
    def fail(plan):
        raise exc

    monkeypatch.setattr(plan_mod, "_bound_rows", fail)
    rc, err = run([*BOUNDS, "--out", str(tmp_path)])
    assert rc == 3
    assert err == shown + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cli_bounds.partial"]


def test_package_raises_no_bare_value_error():
    for path in Path(searchlab.__file__).parent.glob("*.py"):
        assert "raise ValueError(" not in path.read_text(encoding="utf-8"), path


# draws from a generator, and the derivation of a second stream from one
DRAWS = (".integers(", ".normal(", ".standard_normal(", ".random(", ".choice(",
         ".shuffle(", ".jumped(", ".advance(")


def test_only_strategies_draws_from_a_trial_generator():
    # sim builds generators (the seed contract lives there) but draws none,
    # so a change to the random stream is a change to strategies alone
    for path in Path(searchlab.__file__).parent.glob("*.py"):
        if path.name != "strategies.py":
            text = path.read_text(encoding="utf-8")
            assert not [d for d in DRAWS if d in text], path


def test_strategies_holds_one_lockstep_loop():
    # every kind runs as a rule of the one engine, `_search`; a second
    # lockstep loop would be a second copy of its retire and limit logic
    text = (Path(searchlab.__file__).parent / "strategies.py").read_text(
        encoding="utf-8")
    assert text.count("while live.size") == 1


def test_strategies_holds_one_update_path():
    # every rule's rows are running sums, folded by inference.fold_step or
    # fold_sums, or added on their masks by a settle; a
    # renormalizing step, or a mark that picks one, would be a second path.
    # renormalize_log_probs stays imported, as bench/tracer.py patches the
    # name there, but is never read.
    text = (Path(searchlab.__file__).parent / "strategies.py").read_text(
        encoding="utf-8")
    tree = ast.parse(text)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    defs = {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    assert "renormalize_log_probs" not in names and "fold" not in defs
    assert "NON_ADAPTIVE" not in text


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    text = (Path(searchlab.__file__).parent / module).read_text(encoding="utf-8")
    return {node.name: node for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef)}


def test_bounds_holds_one_per_alpha_builder():
    # lemma2, theorem1 and theorem2 are views of one report, built by
    # `_report`; a second per-alpha pass would be a second copy of its
    # checks, capacities and brackets, and a stand-alone stage bound a
    # second copy of its Lemma 2 stage times and their feasibility rules
    defs = _functions("bounds.py")
    assert not {"_alpha_pass", "_stage_sum", "stage1_upper_bound",
                "stage2_upper_bound", "_coarse_capacity"} & set(defs)

    def calls(name):
        return {node.func.id for node in ast.walk(defs[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    for name in ("adaptive_upper_bound", "adaptivity_gain_lower_bound",
                 "general_f_bounds"):
        assert "_report" in calls(name), name
    assert [name for name in defs if "_stage_time" in calls(name)] == ["_report"]


def test_bound_rows_read_one_report_per_point(monkeypatch):
    # lemma2 and theorem1 read one report with the constants; lemma2's row
    # is adaptive_upper_bound and solve_a_eta's value, bit for bit
    built = []

    def counted(config, eta, constants):
        built.append(constants)
        return report(config, eta, constants)

    report = bounds._report
    monkeypatch.setattr(bounds, "_report", counted)
    plan = plan_mod.ExperimentPlan(
        id="t", axes=(("B", (16.0,)), ("delta", (1.0,)), ("sigma2", (0.25,)),
                      ("epsilon", (1e-4,))),
        bound_set=("lemma1", "lemma2", "theorem1"))
    rows = {row["bound_name"]: row for row in plan_mod._bound_rows(plan)}
    assert built == [True]
    config = new_config(16, 1, 0.25, 1e-4)
    eta = 0.1 * optimal_composition(config)[1]
    lemma2 = rows["lemma2"]
    assert lemma2["eta"] == eta
    assert ((lemma2["value"], lemma2["alpha_star"])
            == bounds.adaptive_upper_bound(config, eta))
    assert lemma2["a_eta"] == solve_a_eta(eta, config).value


VALUES = ("0", "-1", "nan", "inf", "-inf", "5e-324", "1e-300", "1e307",
          "1e308", "0.3")
NUMBERS = st.sampled_from(VALUES)
# with 16 and 1 added, every valid cell count B/delta is at most 16
SIZES = st.sampled_from(VALUES + ("16", "1"))
# Each case overrides up to two flags of a valid command, so many cases
# get past validation; every value, the valid ones included, is from the
# sets above.  --gamma is absent (linear noise) unless drawn.
# simulate draws only its run-control flags at one small config, and never
# more than one worker, so no process starts and every search ends quickly;
# nothing drawn there is a runtime failure.
VALID = {"capacity": {"--q": "0.3", "--variance": "0.3"},
         "bounds": {"--B": "16", "--delta": "1", "--sigma2": "0.3",
                    "--epsilon": "0.3", "--eta-frac": "0.3"},
         "simulate": {"--B": "4", "--delta": "1", "--sigma2": "0.05",
                      "--epsilon": "0.1", "--strategy": "two_stage",
                      "--alpha": "0.5", "--trials": "1", "--seed": "0",
                      "--workers": "1"}}
DRAWN = {"capacity": {"--q": NUMBERS, "--variance": NUMBERS},
         "bounds": {"--B": SIZES, "--delta": SIZES, "--sigma2": NUMBERS,
                    "--epsilon": NUMBERS, "--gamma": NUMBERS,
                    "--eta-frac": NUMBERS},
         "simulate": {"--seed": st.sampled_from(("0", "1", "-1", str(2 ** 64))),
                      "--trials": st.sampled_from(("0", "-1", "1", "2")),
                      "--alpha": st.sampled_from(VALUES + ("0.5", "0.25")),
                      "--workers": st.sampled_from(("1", "0", "-1"))}}


@st.composite
def commands(draw, valid=VALID, drawn=DRAWN):
    verb = draw(st.sampled_from(sorted(valid)))
    flags = dict(valid[verb])
    for flag in draw(st.lists(st.sampled_from(sorted(drawn[verb])),
                              unique=True, max_size=2)):
        flags[flag] = draw(drawn[verb][flag])
    # --flag=value, since argparse would read "-inf" as an option
    return [verb, *(f"{k}={v}" for k, v in flags.items())]


@settings(max_examples=200)  # about 1 s; 50 seldom reach the quadrature
@given(commands())
def test_numeric_flags_exit_by_policy(argv):
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = run([*argv, f"--out={out}"])
        assert rc in ((0, 2) if argv[0] == "simulate" else (0, 2, 3))
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        names = os.listdir(out)
        assert not [n for n in names if n.endswith(".tmp")]
        if rc != 0:
            assert not [n for n in names if n.endswith(".csv")]


# drift-probe takes no --out.  --B and --delta are never drawn, nor
# --steps=10000000, which would run 10^7 steps; a valid case takes about
# 0.5 s.
DRIFT_VALID = {"drift-probe": {"--B": "4", "--delta": "1", "--sigma2": "0.05",
                               "--epsilon": "0.1", "--strategy": "sorted_pm",
                               "--steps": "10000", "--seed": "0"}}
DRIFT_DRAWN = {"drift-probe": {
    "--sigma2": NUMBERS, "--epsilon": NUMBERS, "--gamma": NUMBERS,
    "--seed": st.sampled_from(("0", "1", "-1", str(2 ** 64))),
    "--steps": st.sampled_from(("-1", "0", "9999", "10000", "10000001"))}}


@settings(max_examples=20)
@given(commands(DRIFT_VALID, DRIFT_DRAWN))
def test_drift_probe_flags_exit_by_policy(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = run(argv)
        assert rc in (0, 2, 3)
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


BOUNDS_PLAN = {"B": 16, "delta": 1, "sigma2": 0.25, "epsilon": 1e-4,
               "bound_set": ["lemma1"]}


def _sweep_plan(tmp_path, doc):
    """sweep a plan file into tmp_path/runs/out -> (exit code, stderr,
    names under tmp_path/runs)"""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = tmp_path / "runs"
    runs.mkdir()
    rc, err = run(["sweep", "--plan", str(path), "--out", str(runs / "out")])
    return rc, err, sorted(os.listdir(runs))


@pytest.mark.parametrize("plan_id", ["a/b", "a\\b", "a\u0000b", "../x"],
                         ids=["slash", "backslash", "nul", "parent"])
def test_plan_id_that_is_a_path_exits_two(tmp_path, plan_id):
    rc, err, names = _sweep_plan(tmp_path, {"id": plan_id, **BOUNDS_PLAN})
    assert (rc, names) == (2, [])
    assert err.startswith("error: plan id")
    assert sorted(os.listdir(tmp_path)) == ["plan.json", "runs"]
    with pytest.raises(errors.ValidationError, match="plan id"):
        plan_mod.ExperimentPlan(id=plan_id, axes=())


def test_plan_id_that_is_no_utf8_exits_two(tmp_path):
    # a lone surrogate names no file: refused before the output directory
    # is made, where it failed writing the first file (exit 3)
    rc, err, names = _sweep_plan(tmp_path, {"id": "\ud800", **BOUNDS_PLAN})
    assert (rc, names) == (2, [])
    assert err == ("error: plan id must be UTF-8 text with no '/', '\\' or NUL, "
                   "got '\\ud800'\n")
    assert sorted(os.listdir(tmp_path)) == ["plan.json", "runs"]
    with pytest.raises(errors.ValidationError, match="plan id"):
        plan_mod.ExperimentPlan(id="a\udfffb", axes=())


# master_seed is checked by the plan's seed check, whose message says seed
BOOLEAN_REFUSAL = {"n_trials": "error: n_trials",
                   "master_seed": "error: seed must be a non-negative integer"}


@pytest.mark.parametrize("field", ["n_trials", "master_seed"])
def test_json_boolean_is_not_a_count(tmp_path, field):
    doc = {"id": "t", "B": 4, "delta": 1, "sigma2": 0.25, "epsilon": 0.1,
           "strategies": [{"kind": "sorted_pm"}], field: True}
    rc, err, names = _sweep_plan(tmp_path, doc)
    assert (rc, names) == (2, [])
    assert err.startswith(BOOLEAN_REFUSAL[field])


# Each bad value below is refused with exit 2 and one message, whichever
# route brings it: a plan-file field, a verb flag, a `sweep` override or
# the library (a dataclasses.replace of a valid plan, or a StrategySpec).
# No route leaves an output directory, so none leaves a .partial marker.
CONFIG = {"B": 4, "delta": 1, "sigma2": 0.25, "epsilon": 0.1}
ONE_POINT = ["--B", "4", "--delta", "1", "--sigma2", "0.25", "--epsilon", "0.1"]
GOOD_PLAN = {"id": "t", **CONFIG, "strategies": [{"kind": "sorted_pm"}],
             "bound_set": ["lemma1"], "n_trials": 2}
SIMULATE = ["simulate", *ONE_POINT, "--strategy", "sorted_pm", "--workers", "1"]
TOO_MANY = str(MAX_TRIALS + 1)


def _good_plan():
    return plan_mod.parse_plan(json.dumps(GOOD_PLAN))


# id: (plan-file fields, verb argv or None, sweep override or None, library)
ROUTES = {
    "n_trials=0": ({"n_trials": 0}, [*SIMULATE, "--trials", "0"],
                   ["--trials", "0"],
                   lambda: dataclasses.replace(_good_plan(), n_trials=0)),
    "n_trials=max+1": ({"n_trials": MAX_TRIALS + 1},
                       [*SIMULATE, "--trials", TOO_MANY], ["--trials", TOO_MANY],
                       lambda: dataclasses.replace(_good_plan(),
                                                   n_trials=MAX_TRIALS + 1)),
    "n_trials=true": ({"n_trials": True}, None, None,
                      lambda: dataclasses.replace(_good_plan(), n_trials=True)),
    "eta_frac=1.5": ({"eta_frac": 1.5}, ["bounds", *ONE_POINT, "--eta-frac", "1.5"],
                     ["--eta-frac", "1.5"],
                     lambda: dataclasses.replace(_good_plan(), eta_frac=1.5)),
    "bound=lemma3": ({"bound_set": ["lemma3"]},
                     ["bounds", *ONE_POINT, "--bound-set", "lemma3"], None,
                     lambda: dataclasses.replace(_good_plan(),
                                                 bound_set=("lemma3",))),
    "bound=lemma1_twice": ({"bound_set": ["lemma1", "lemma1"]},
                           ["bounds", *ONE_POINT, "--bound-set", "lemma1,lemma1"],
                           None,
                           lambda: dataclasses.replace(
                               _good_plan(), bound_set=("lemma1", "lemma1"))),
    "corollary2_at_one_point": (
        {"bound_set": ["corollary2"]},
        ["bounds", *ONE_POINT, "--bound-set", "corollary2"], None,
        lambda: dataclasses.replace(_good_plan(), bound_set=("corollary2",))),
    "master_seed=-1": ({"master_seed": -1}, [*SIMULATE, "--seed=-1"],
                       ["--seed=-1"],
                       lambda: dataclasses.replace(_good_plan(), master_seed=-1)),
    "master_seed=2**64": ({"master_seed": 2 ** 64},
                          [*SIMULATE, f"--seed={2 ** 64}"], [f"--seed={2 ** 64}"],
                          lambda: dataclasses.replace(_good_plan(),
                                                      master_seed=2 ** 64)),
    "alpha_on_sorted_pm": (
        {"strategies": [{"kind": "sorted_pm", "alpha": 0.5}]},
        [*SIMULATE, "--alpha", "0.5"], None,
        lambda: StrategySpec("sorted_pm", alpha=0.5)),
}


def _refusal(tmp_path, name, argv, doc=None):
    """Run argv (after --plan <file of doc>, if doc is given) into a fresh
    output directory -> (exit code, stderr, whether the directory exists)."""
    root = tmp_path / name
    root.mkdir()
    if doc is not None:
        (root / "plan.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["sweep", "--plan", str(root / "plan.json"), *argv]
    rc, err = run([*argv, "--out", str(root / "out")])
    return rc, err, (root / "out").exists()


def test_route_table_base_plan_runs(tmp_path):
    rc, err, made = _refusal(tmp_path, "base", [], GOOD_PLAN)
    assert (rc, err, made) == (0, "", True)


@pytest.mark.parametrize("fields,verb,override,library", ROUTES.values(),
                         ids=list(ROUTES))
def test_bad_value_is_refused_alike_on_every_route(tmp_path, fields, verb,
                                                   override, library):
    with pytest.raises(errors.ValidationError) as exc:
        library()
    expected = (2, f"error: {exc.value}\n", False)
    assert _refusal(tmp_path, "file", [], {**GOOD_PLAN, **fields}) == expected
    if verb is not None:
        assert _refusal(tmp_path, "verb", verb) == expected
    if override is not None:
        assert _refusal(tmp_path, "override", override, GOOD_PLAN) == expected


@pytest.mark.parametrize("argv", [
    [*SIMULATE, "--trials", "2"],
    ["sweep", "--preset", "fig4", "--trials", "2"],
    ["drift-probe", *ONE_POINT, "--strategy", "sorted_pm", "--steps", "10000"],
], ids=lambda argv: argv[0])
def test_seed_of_two_to_the_64_exits_two(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # every output lands under tmp_path
    rc, err = run([*argv, f"--seed={2 ** 64}"])
    assert (rc, err) == (2, f"error: seed must be below 2**64, got {2 ** 64}\n")
    assert not list(tmp_path.rglob("*.csv"))


# The library routes by which a seed reaches numpy (the CLI parses --seed as
# an int, so a float or a bool arrives only through these)
SEED_ROUTES = {
    "plan": lambda seed: dataclasses.replace(
        plan_mod.load_preset("fig6"), master_seed=seed, n_trials=2),
    "trial_seed_for": lambda seed: trial_seed_for(seed, 0),
    "drift_probe": lambda seed: drift_probe(
        SORTED_PM, new_config(16, 1, 0.25, 1e-4), 10_000, seed),
}


@pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("route", SEED_ROUTES.values(), ids=list(SEED_ROUTES))
def test_seed_that_is_not_an_int_is_refused(tmp_path, monkeypatch, route,
                                            seed):
    monkeypatch.chdir(tmp_path)  # any output would land under tmp_path
    with pytest.raises(errors.ValidationError,
                       match=f"^seed must be a non-negative integer, got {seed}$"):
        route(seed)
    assert not list(tmp_path.iterdir())


def test_numpy_integer_seed_is_accepted():
    assert trial_seed_for(np.uint64(7), 3) == trial_seed_for(7, 3)
    plan = dataclasses.replace(plan_mod.load_preset("fig6"),
                               master_seed=np.int64(7))
    assert plan.master_seed == 7


def test_plan_with_nothing_to_run_exits_two(tmp_path):
    rc, err, names = _sweep_plan(tmp_path, {"id": "t", **CONFIG})
    assert (rc, names) == (2, [])
    assert err == ("error: plan 't' has nothing to run: it needs strategies, "
                   "a bound_set or a capacity_table\n")


def test_empty_bound_set_flag_exits_two(tmp_path):
    rc, err, made = _refusal(tmp_path, "bounds", [*BOUNDS, "--bound-set", ",,"])
    assert (rc, made) == (2, False)
    assert "nothing to run" in err


def test_output_path_is_an_unknown_key(tmp_path):
    rc, err, names = _sweep_plan(tmp_path, {**GOOD_PLAN, "output_path": "x"})
    assert (rc, err, names) == (2, "error: unknown plan key 'output_path'\n", [])


def _plan_of_points(kind, points):
    """A plan of kind (bounds, composition or half_input) whose axes, with
    q and the total variances, expand to points: c values of one axis, c
    the least factor of points above 1, and points / c of another."""
    c = next(c for c in range(2, points + 1) if points % c == 0)
    few, n = [2.0 ** i for i in range(1, c + 1)], points // c
    doc = {"id": "t", "delta": 1, "epsilon": 0.1}
    if kind == "bounds":
        return {**doc, "sweeps": [["B", few], ["sigma2", [1 + i / n for i in range(n)]]],
                "bound_set": ["lemma1"]}
    qs = [(i + 1) / (n + 1) for i in range(n)]
    if kind == "composition":
        return {**doc, "sigma2": 0.25, "sweeps": [["B", few], ["q", qs]],
                "capacity_table": {"mode": "composition"}}
    return {**doc, "B": 4, "sigma2": 0.25, "sweeps": [["q", qs]],
            "capacity_table": {"mode": "half_input", "total_variances": few}}


@pytest.mark.parametrize("kind", ["bounds", "composition", "half_input"])
def test_plan_past_the_point_cap_exits_two(tmp_path, monkeypatch, kind):
    def expanded(*args, **kwargs):
        raise AssertionError("an oversized plan was expanded")

    monkeypatch.setattr(plan_mod, "_points", expanded)
    cap = plan_mod.MAX_POINTS
    doc = _plan_of_points(kind, cap + 1)
    rc, err, names = _sweep_plan(tmp_path, doc)
    assert (rc, names) == (2, [])
    assert err == (f"error: plan expands to {cap + 1} points, more than the "
                   f"cap of {cap}\n")
    with pytest.raises(errors.ValidationError, match="more than the cap"):
        plan_mod.parse_plan(json.dumps(doc))


@pytest.mark.parametrize("kind", ["bounds", "composition", "half_input"])
def test_plan_at_the_point_cap_is_accepted(kind):
    plan = plan_mod.parse_plan(json.dumps(_plan_of_points(kind, plan_mod.MAX_POINTS)))
    assert plan.id == "t"


def test_repeated_strategy_is_accepted():
    doc = {**GOOD_PLAN, "strategies": [{"kind": "sorted_pm"}] * 2}
    assert len(plan_mod.parse_plan(json.dumps(doc)).strategies) == 2


def test_capacity_grid_past_the_point_cap_exits_two(tmp_path, monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError("an oversized grid was evaluated")

    monkeypatch.setattr(cli_mod, "capacity_grid", evaluated)
    cap = plan_mod.MAX_POINTS
    n = math.isqrt(cap) + 1
    assert (n - 1) ** 2 <= cap < n * (n - 1)  # one q fewer would fit
    argv = ["capacity", *(f"--q={(i + 1) / (n + 1)}" for i in range(n)),
            *(f"--variance={1 + i}" for i in range(n - 1))]
    rc, err, made = _refusal(tmp_path, "capacity", argv)
    assert (rc, made) == (2, False)
    assert err == (f"error: capacity grid has {n * (n - 1)} (q, variance) "
                   f"pairs, more than the cap of {cap}\n")


def test_capacity_grid_at_the_point_cap_is_evaluated(monkeypatch):
    class Evaluated(Exception):
        pass

    def evaluated(qs, variances):
        raise Evaluated(len(qs) * len(variances))

    monkeypatch.setattr(cli_mod, "capacity_grid", evaluated)
    cap = plan_mod.MAX_POINTS
    n = math.isqrt(cap // 2)
    assert 2 * n * n == cap
    argv = ["capacity", *(f"--q={(i + 1) / (2 * n + 1)}" for i in range(2 * n)),
            *(f"--variance={1 + i}" for i in range(n))]
    with pytest.raises(Evaluated) as exc:
        cli_mod._cmd_capacity(cli_mod.build_parser().parse_args(argv))
    assert exc.value.args == (cap,)


def test_failed_bounds_leave_no_sim_file(tmp_path):
    # sims at M = 1 succeed, lemma2 there is refused: nothing is written
    doc = {**GOOD_PLAN, "B": 1, "bound_set": ["lemma2"]}
    rc, err, names = _sweep_plan(tmp_path, doc)
    assert (rc, err) == (2, "error: M = 1 admits no section fraction\n")
    assert os.listdir(tmp_path / "runs" / "out") == ["t.partial"]


def test_underflowed_capacity_exits_two(tmp_path):
    # C1 comes back 0.0 at this noise, and lemma1 divides by it
    rc, err = run(["bounds", "--B", "2", "--delta", "1", "--sigma2", "1e150",
                   "--epsilon", "1e-4", "--bound-set", "lemma1",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert err.startswith("error: C1 underflowed to 0.0 at sigma2 = 1e+150: ")


# At sigma2 = 1e-309, v(1) is subnormal and a probe's ratio (2y - 1)/(2v)
# overflows; at 3e-309 the ratio is finite but two of them overflow a sum.
# Every route that runs a strategy refuses such a point as bad input before
# any run, so it warns of no overflow and writes nothing, not even a .partial.
SUBNORMAL = {"B": 2, "delta": 1, "sigma2": 1e-309, "epsilon": 1e-4}
SUBNORMAL_FLAGS = ["--B", "2", "--delta", "1", "--sigma2", "1e-309",
                   "--epsilon", "1e-4"]
SUBNORMAL_ROUTES = {
    "simulate": (["simulate", *SUBNORMAL_FLAGS, "--strategy", "sorted_pm",
                  "--trials", "8", "--workers", "1"], None),
    "simulate-finite-ratio": (["simulate", *SUBNORMAL_FLAGS[:5], "3e-309",
                               *SUBNORMAL_FLAGS[6:], "--strategy",
                               "fixed_composition", "--trials", "8"], None),
    "sweep": ([], {"id": "t", **SUBNORMAL, "strategies": [{"kind": "sorted_pm"}],
                   "bound_set": ["lemma1"], "n_trials": 8}),
}


@pytest.mark.parametrize("route", sorted(SUBNORMAL_ROUTES))
def test_subnormal_variance_is_refused_before_any_run(tmp_path, route):
    argv, doc = SUBNORMAL_ROUTES[route]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err, made = _refusal(tmp_path, route, argv, doc)
    assert (rc, made) == (2, False)
    assert err.startswith("error: noise variance v(1) = ")
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_subnormal_variance_drift_probe_exits_two():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = run(["drift-probe", *SUBNORMAL_FLAGS, "--strategy", "sorted_pm",
                       "--steps", "10000"])
    assert rc == 2
    assert err.startswith("error: noise variance v(1) = ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# A point that a strategy cannot run at is refused before any output
# directory is made, as bad input when two_stage's 1/alpha does not divide
# M, as a runtime failure when no trial can reach its stop within
# STEP_LIMIT steps or a fixed bisection's levels can pass them (at a large
# variance, or where eps/log2 M underflows to 0).  The second point of the
# sweep is the one refused.
UNRUNNABLE = {
    "alpha": ({"kind": "two_stage", "alpha": 1 / 3}, "B", [12, 16], 2,
              "error: 1/alpha = 3 does not divide M = 16\n"),
    "unreachable": ({"kind": "sorted_pm"}, "sigma2", [0.25, 1e300], 3,
                    "error: noise variance v(1) = 1e+300 is too large: no "
                    "trial can reach its threshold within 10000000 steps\n"),
    "fixed_levels": ({"kind": "noisy_binary_fixed"}, "sigma2", [0.25, 1e18], 3,
                     "error: noise variance v(8) = 8e+18 is too large at "
                     "epsilon=0.0001: a trial's levels can take more than "
                     "10000000 steps\n"),
    "fixed_share": ({"kind": "noisy_binary_fixed"}, "epsilon", [1e-4, 5e-324], 3,
                    "error: noise variance v(8) = 2.0 is too large at "
                    "epsilon=5e-324: a trial's levels can take more than "
                    "10000000 steps\n"),
}


@pytest.mark.parametrize("verb", ["simulate", "sweep"])
@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_unrunnable_point_is_refused_before_any_output(tmp_path, case, verb):
    strategy, name, values, code, message = UNRUNNABLE[case]
    point = {"B": 16, "delta": 1, "sigma2": 0.25, "epsilon": 1e-4}
    if verb == "simulate":
        point[name] = values[-1]
        argv = ["simulate", *(f"--{k}={v!r}" for k, v in point.items()),
                "--strategy", strategy["kind"], "--trials", "2",
                *([f"--alpha={strategy['alpha']!r}"] if "alpha" in strategy
                  else [])]
        doc = None
    else:
        del point[name]
        argv, doc = [], {"id": "t", **point, "sweeps": [[name, values]],
                         "strategies": [strategy], "n_trials": 2}
    rc, err, made = _refusal(tmp_path, case, argv, doc)
    assert (rc, err, made) == (code, message, False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [2, 3, 4, 16])
@pytest.mark.parametrize("kind", KINDS)
def test_least_epsilon_runs_or_is_refused_before_any_output(tmp_path, kind, m):
    # eps = 5e-324, the least float: eps/log2 M and two-stage's eps/2 can
    # underflow to 0.  A run either writes its CSV or is refused by the
    # package's pre-run gate, with no output directory; a fixed bisection
    # at M = 4 and 16 raised a StatisticsError and left <id>.partial
    argv = ["simulate", "--B", str(m), "--delta", "1", "--sigma2", "0.25",
            "--epsilon", "5e-324", "--strategy", kind, "--trials", "2",
            *(["--alpha", repr(1 / m)] if kind == "two_stage" else [])]
    rc, err, made = _refusal(tmp_path, kind, argv)
    if rc == 0:
        assert (err, made) == ("", True)
        assert list((tmp_path / kind / "out").glob("*.csv"))
    else:
        assert (rc, made) == (3, False)
        assert re.fullmatch(r"error: noise variance v\(\d+\) = \S+ is too large"
                            r"[^\n]* steps\n", err)


def test_unreachable_drift_exits_three():
    # v(1) = 1e15 cannot build the threshold's lead within STEP_LIMIT
    # steps: the probe reported a drift whose floor had no correct digits
    rc, err = run(["drift-probe", "--B", "16", "--delta", "1", "--sigma2", "1e15",
                   "--epsilon", "1e-4", "--strategy", "sorted_pm",
                   "--steps", "10000"])
    assert rc == 3
    assert err == ("error: noise variance v(1) = 1000000000000000.0 is too "
                   "large: no trial can reach its threshold within 10000000 "
                   "steps\n")


@pytest.mark.parametrize("b, epsilon", [("4", "0.9"), ("2", "0.5"), ("2", "0.6"),
                                        ("2", "0.9")])
def test_drift_from_a_prior_at_its_threshold_exits_two(b, epsilon):
    # 1/M >= 1 - eps: no run takes a step; the probe reported one step each
    rc, err = run(["drift-probe", "--B", b, "--delta", "1", "--sigma2", "0.05",
                   "--epsilon", epsilon, "--strategy", "sorted_pm",
                   "--steps", "10000"])
    assert rc == 2
    assert err == (f"error: drift probe needs 1/M < 1 - epsilon: at M={b}, "
                   f"epsilon={float(epsilon)!r} no run takes a step\n")


@pytest.mark.parametrize("kind, sigma2", [("sorted_pm", "1e-300"),
                                          ("fixed_composition", "1e-200")])
def test_drift_sums_past_the_floats_exit_two(kind, sigma2):
    # the increments' squares overflow: the report is refused, where it
    # read se = 0.0, at the first block of runs, not after 10^7 steps
    b = "2" if kind == "sorted_pm" else "16"
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = run(["drift-probe", "--B", b, "--delta", "1", "--sigma2", sigma2,
                       "--epsilon", "1e-4", "--strategy", kind,
                       "--steps", "10000000"])
    assert time.perf_counter() - start < 10.0
    assert rc == 2
    assert err == (f"error: the drift's sums at sigma2={float(sigma2)!r} are out "
                   f"of floating-point range\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_subnormal_variance_bounds_exit_zero(tmp_path):
    rc, err = run(["bounds", *SUBNORMAL_FLAGS, "--out", str(tmp_path)])
    assert (rc, err) == (0, "")
    assert os.listdir(tmp_path) == ["cli_bounds_bounds.csv"]


def test_least_simulated_variance_runs_without_overflow(tmp_path):
    # just above STEP_LIMIT/DBL_MAX no sum of a trial's ratios can overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kind in ("fixed_composition", "sorted_pm", "noisy_binary_variable"):
            rc, err = run(["simulate", "--B", "1024", "--delta", "1", "--sigma2",
                           "6e-302", "--epsilon", "1e-4", "--strategy", kind,
                           "--trials", "4", "--out", str(tmp_path / kind)])
            assert (rc, err) == (0, "")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# sweep --plan over plan fields and overrides, every cell count at most 16
# and at most two trials, one worker (no process starts).
PLAN_FIELDS = {
    "id": st.sampled_from(["t", "a/b"]),
    "B": st.sampled_from([1, 2, 8, 0, "4"]),
    "delta": st.sampled_from([1, 0.5, 3]),
    "sigma2": st.sampled_from([0.25, 0.05, 0, -1]),
    "epsilon": st.sampled_from([0.1, 1e-4, 0, 1.5]),
    "gamma": st.sampled_from([0.5, 2.0, 0, -1]),
    "sweeps": st.sampled_from([[["B", [2, 8]]], [["delta", [1, 0.5]]],
                               [["sigma2", [0.25, 0.05]]], [["B", []]]]),
    "strategies": st.lists(st.sampled_from([
        {"kind": "sorted_pm"}, {"kind": "fixed_composition"},
        {"kind": "exhaustive"}, {"kind": "noisy_binary_fixed"},
        {"kind": "noisy_binary_variable"}, {"kind": "two_stage", "alpha": 0.5},
        {"kind": "two_stage", "alpha": 0.3}, {"kind": "two_stage"},
        {"kind": "sorted_pm", "alpha": 0.5}, {"kind": "dfs"}]), max_size=2),
    "bound_set": st.lists(st.sampled_from(
        ["lemma1", "lemma2", "theorem1", "theorem2", "corollary2", "lemma3"]),
        max_size=2),
    "n_trials": st.sampled_from([1, 2, 0, -1, True, MAX_TRIALS + 1, "2"]),
    "master_seed": st.sampled_from([0, 7, -1, 2 ** 64, True]),
    "eta_frac": st.sampled_from([0.1, 0.5, 0, 1.5, "x"]),
}
OVERRIDES = {"--trials": st.sampled_from(["1", "2", "0", "-1", TOO_MANY]),
             "--seed": st.sampled_from(["0", "-1", str(2 ** 64)]),
             "--eta-frac": st.sampled_from(["0.2", "0", "1.5", "nan"])}


@st.composite
def sweep_cases(draw):
    doc = {"id": "t", **CONFIG, "n_trials": 1}
    for key in draw(st.lists(st.sampled_from(sorted(PLAN_FIELDS)), unique=True,
                             max_size=3)):
        doc[key] = draw(PLAN_FIELDS[key])
    if "sweeps" in doc:  # a swept parameter is not also fixed
        doc.pop(doc["sweeps"][0][0], None)
    if "strategies" not in doc and "bound_set" not in doc:
        doc["strategies"] = [{"kind": "sorted_pm"}]
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(OVERRIDES)), unique=True,
                              max_size=2)):
        flags.append(f"{flag}={draw(OVERRIDES[flag])}")
    return doc, flags


@settings(max_examples=200)  # about 1 s
@given(sweep_cases())
def test_sweep_plan_fields_exit_by_policy(case):
    doc, flags = case
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "plan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, err = run(["sweep", f"--plan={path}", "--workers=1", *flags,
                       f"--out={Path(root) / 'out'}"])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err
        names = [p.name for p in Path(root).rglob("*")]
        assert not [n for n in names if n.endswith(".tmp")]
        if rc != 0:
            assert not [n for n in names if n.endswith(".csv")]


HOLE = "\0hole"


def _with_hole(doc, filler: str) -> str:
    """doc as JSON text, with filler written where doc holds HOLE: a value
    json.dumps cannot write, such as an integer past int's digit limit."""
    return json.dumps(doc).replace(json.dumps(HOLE), filler)


BASE = {"id": "t", **CONFIG, "bound_set": ["lemma1"]}
# one plan for each number field, HOLE in that field
NUMBER_SLOTS = [{**BASE, name: HOLE} for name in
                ("B", "delta", "sigma2", "epsilon", "gamma", "n_trials",
                 "master_seed", "eta_frac")] + [
    {"id": "t", "delta": 1, "sigma2": 0.25, "epsilon": 0.1,
     "sweeps": [["B", [4, HOLE]]], "bound_set": ["lemma1"]},
    {**BASE, "strategies": [{"kind": "two_stage", "alpha": HOLE}]},
    {"id": "t", **CONFIG, "sweeps": [["q", [HOLE]]],
     "capacity_table": {"mode": "composition"}},
    {"id": "t", **CONFIG, "sweeps": [["q", [0.5]]],
     "capacity_table": {"mode": "half_input", "total_variances": [HOLE]}},
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@st.composite
def plan_texts(draw):
    """JSON plan text: a JSON value, a plan with up to two fields replaced
    by JSON values, a plan with a value nested up to 3,000 deep, or a plan
    with an integer past the floats or past int's digit limit in one of
    its number fields."""
    kind = draw(st.sampled_from(["value", "fields", "nested", "long"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "fields":
        doc = dict(BASE)
        for key in draw(st.lists(st.sampled_from(sorted(plan_mod.PLAN_KEYS)),
                                 unique=True, max_size=2)):
            doc[key] = draw(JSON_VALUES)
        return json.dumps(doc)
    if kind == "nested":
        depth = draw(st.integers(1, 3000))
        key = draw(st.sampled_from(sorted(plan_mod.PLAN_KEYS)))
        deep = draw(st.sampled_from(["[" * depth + "]" * depth,
                                     '{"a": ' * depth + "0" + "}" * depth]))
        return _with_hole({**BASE, key: HOLE}, deep)
    digits = draw(st.integers(305, 320) | st.sampled_from([4300, 4301, 5001]))
    sign = draw(st.sampled_from(["", "-"]))
    return _with_hole(draw(st.sampled_from(NUMBER_SLOTS)), sign + "1" * digits)


# the three malformed texts of the CLI test below that are UTF-8
MALFORMED_TEXTS = ['{"a": ' * 1000 + "1" + "}" * 1000,
                   _with_hole({**BASE, "B": HOLE}, "1" * 401),
                   _with_hole({**BASE, "n_trials": HOLE}, "1" * 5001)]


@settings(max_examples=200)  # about 1 s
@given(plan_texts())
@example(MALFORMED_TEXTS[0])
@example(MALFORMED_TEXTS[1])
@example(MALFORMED_TEXTS[2])
def test_plan_text_parses_or_is_refused_as_bad_input(text):
    try:
        plan = plan_mod.parse_plan(text)
    except errors.ValidationError:
        return
    assert isinstance(plan, plan_mod.ExperimentPlan)


@settings(max_examples=50)
@given(st.binary(max_size=64))
@example(b'\xff\xfe{"id": 1}')
def test_plan_bytes_exit_two(data):
    # no run of bytes is a plan: each is refused in one line, before output
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "plan.json"
        path.write_bytes(data)
        rc, err = run(["sweep", f"--plan={path}", f"--out={Path(root) / 'out'}"])
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(root) == ["plan.json"]


@pytest.mark.parametrize("data, message", [
    (b'\xff\xfe{"id": 1}',
     "plan is not UTF-8 text: invalid start byte at byte 0"),
    (MALFORMED_TEXTS[0].encode(),
     "plan nests past the JSON decoder's depth limit"),
    (MALFORMED_TEXTS[1].encode(),
     "B is an integer past the floating-point range"),
    (MALFORMED_TEXTS[2].encode(),
     "plan holds an integer with more digits than can be read"),
], ids=["not-utf8", "nested-1000", "B-401-digits", "n_trials-5001-digits"])
def test_malformed_plan_exits_two(tmp_path, data, message):
    path = tmp_path / "plan.json"
    path.write_bytes(data)
    rc, err = run(["sweep", "--plan", str(path), "--out", str(tmp_path / "out")])
    assert (rc, err) == (2, f"error: {message}\n")
    assert os.listdir(tmp_path) == ["plan.json"]


# A point with no configuration is refused before the output directory is
# made, whatever the plan runs; a bound's feasibility is checked as it runs.
HALF_B = {**CONFIG, "B": 16.5}
UNBUILDABLE = {
    "bounds": (["bounds", "--B", "16.5", "--delta", "1", "--sigma2", "0.25",
                "--epsilon", "1e-4"], None),
    "simulate": (["simulate", "--B", "16.5", "--delta", "1", "--sigma2",
                  "0.25", "--epsilon", "1e-4", "--strategy", "sorted_pm"], None),
    "composition": ([], {"id": "t", **HALF_B, "sweeps": [["q", [0.5]]],
                         "capacity_table": {"mode": "composition"}}),
    "half_input": ([], {"id": "t", **CONFIG, "sweeps": [["q", [0.5]]],
                        "capacity_table": {"mode": "half_input",
                                           "total_variances": [math.inf]}}),
}


@pytest.mark.parametrize("route", sorted(UNBUILDABLE))
def test_unbuildable_point_is_refused_before_any_output(tmp_path, route):
    argv, doc = UNBUILDABLE[route]
    rc, err, made = _refusal(tmp_path, route, argv, doc)
    assert (rc, made) == (2, False)
    assert err == ("error: total variances must be positive and finite\n"
                   if route == "half_input" else
                   "error: B/delta = 16.5 is not an integer cell count\n")
