"""The CLI exit-code policy, which lives in the exception types.

A ValidationError (bad input) exits 2; every other exception, a runtime
failure or an error raised by mistake, exits 3; no input prints a
traceback.  Everything here runs in-process and starts no worker.
"""

import inspect
import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searchlab
import searchlab.plan as plan_mod
from searchlab import errors
from searchlab.cli import main

VALIDATION = {"ValidationError", "ParseError", "InvalidEpsilon",
              "NonIntegerLocationCount", "InvalidNoiseModel",
              "NonMonotoneNoise", "InvalidAlpha", "NoFeasibleAlpha",
              "EtaTooLarge", "ProbeCountOutOfRange", "SizeOne"}
RUNTIME = {"StepLimitExceeded", "QuadratureNonConvergence", "NoRootInBracket",
           "DegeneratePosterior"}
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


DRAWS = (".integers(", ".normal(", ".standard_normal(", ".random(", ".choice(",
         ".shuffle(")


def test_only_strategies_draws_from_a_trial_generator():
    # sim builds generators (the seed contract lives there) but draws none,
    # so a change to the random stream is a change to strategies alone
    for path in Path(searchlab.__file__).parent.glob("*.py"):
        if path.name != "strategies.py":
            text = path.read_text(encoding="utf-8")
            assert not [d for d in DRAWS if d in text], path


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


@pytest.mark.parametrize("field", ["n_trials", "master_seed"])
def test_json_boolean_is_not_a_count(tmp_path, field):
    doc = {"id": "t", "B": 4, "delta": 1, "sigma2": 0.25, "epsilon": 0.1,
           "strategies": [{"kind": "sorted_pm"}], field: True}
    rc, err, names = _sweep_plan(tmp_path, doc)
    assert (rc, names) == (2, [])
    assert err.startswith(f"error: {field}")
