"""Command-line interface.

Verbs
-----
capacity     evaluate C(q, v) on given q and variance grids
bounds       converse/achievability/gain values at one configuration
simulate     Monte Carlo batch for one strategy at one configuration
sweep        run a bundled figure preset or a JSON plan file
drift-probe  empirical U-drift of a strategy against its capacity floor

Exit codes: 0 on success, 2 when a ValidationError is raised (bad flags,
malformed plans, infeasible configurations), 3 on any other error (step
limits, quadrature failure, I/O, bugs); the rule is stated once in the
errors module.  The worker count defaults to the SEARCHLAB_WORKERS
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import sim
# bawgn_capacity is unused here but stays bound: bench/tracer.py patches it.
from .channel import bawgn_capacity, capacity_grid
from .errors import ValidationError
from .plan import (
    CAPACITY_COLUMNS,
    ExperimentPlan,
    PRESET_NAMES,
    _point_config,
    _write_rows,
    load_preset,
    parse_plan,
    run_plan,
)
from .strategies import FIXED_COMPOSITION, KINDS, SORTED_PM, StrategySpec


def _workers(args) -> int:
    """--workers, else SEARCHLAB_WORKERS, else 1; below 1 is bad input."""
    if args.workers is not None:
        name, workers = "--workers", args.workers
    else:
        name, raw = "SEARCHLAB_WORKERS", os.environ.get("SEARCHLAB_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValidationError(
                f"SEARCHLAB_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValidationError(f"{name} must be at least 1, got {workers}")
    return workers


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--format", choices=("csv", "json", "both"), default="csv",
                   help="output file format (default: csv)")


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--B", type=float, required=True, help="interval width")
    p.add_argument("--delta", type=float, required=True, help="cell resolution")
    p.add_argument("--sigma2", type=float, required=True,
                   help="noise variance per unit width")
    p.add_argument("--epsilon", type=float, required=True,
                   help="reliability target in (0, 1)")
    p.add_argument("--gamma", type=float, default=None,
                   help="power-law noise exponent (default: linear noise)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged, so
    every call of `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="searchlab",
        description="Simulation and bounds for noisy single-target search.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("capacity", help="evaluate C(q, v) on a grid")
    p.add_argument("--q", type=float, action="append", required=True,
                   help="composition; repeat for a grid")
    p.add_argument("--variance", type=float, action="append", required=True,
                   help="observation variance; repeat for a grid")
    _add_common(p)

    p = sub.add_parser("bounds", help="bound values at one configuration")
    _add_config_flags(p)
    p.add_argument("--eta-frac", type=float, default=0.1,
                   help="slack eta as a fraction of C1 (default: 0.1)")
    p.add_argument("--bound-set", default="lemma1,lemma2,theorem1",
                   help="comma list from lemma1,lemma2,theorem1,theorem2")
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo batch for one strategy")
    _add_config_flags(p)
    p.add_argument("--strategy", choices=KINDS, required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="section fraction for two_stage")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default: SEARCHLAB_WORKERS or 1)")
    _add_common(p)

    p = sub.add_parser("sweep", help="run a preset or plan file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--plan", help="path to a JSON plan file")
    p.add_argument("--trials", type=int, default=None,
                   help="override the plan's n_trials")
    p.add_argument("--seed", type=int, default=None,
                   help="override the plan's master_seed")
    p.add_argument("--eta-frac", type=float, default=None,
                   help="override the plan's eta_frac")
    p.add_argument("--workers", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("drift-probe",
                       help="empirical U-drift against the capacity floor")
    _add_config_flags(p)
    p.add_argument("--strategy", choices=(FIXED_COMPOSITION, SORTED_PM),
                   required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _one_point_plan(args, plan_id: str, **kwargs) -> ExperimentPlan:
    axes = [("B", (args.B,)), ("delta", (args.delta,)),
            ("sigma2", (args.sigma2,)), ("epsilon", (args.epsilon,))]
    if args.gamma is not None:
        axes.append(("gamma", (args.gamma,)))
    return ExperimentPlan(id=plan_id, axes=tuple(axes), **kwargs)


def _cmd_capacity(args) -> int:
    caps = capacity_grid([[q] for q in args.q], args.variance).tolist()
    rows = []
    for q, row in zip(args.q, caps):
        for v, c in zip(args.variance, row):
            rows.append({"experiment_id": "cli_capacity", "gamma": None,
                         "sigma2_total": None, "q": q, "probe_count": None,
                         "variance": v, "capacity_bits": c})
            print(f"C(q={q!r}, v={v!r}) = {c!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path in _write_rows(out / "cli_capacity", CAPACITY_COLUMNS, rows,
                            args.format):
        print(f"wrote {path}")
    return 0


def _cmd_bounds(args) -> int:
    names = tuple(s.strip() for s in args.bound_set.split(",") if s.strip())
    plan = _one_point_plan(args, "cli_bounds", bound_set=names,
                           eta_frac=args.eta_frac)
    for path in run_plan(plan, args.out, fmt=args.format):
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    spec = StrategySpec(kind=args.strategy, alpha=args.alpha)
    plan = _one_point_plan(args, "cli_simulate", strategies=(spec,),
                           n_trials=args.trials, master_seed=args.seed)
    for path in run_plan(plan, args.out, workers=_workers(args), fmt=args.format):
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    if args.preset:
        plan = load_preset(args.preset)
    else:
        with open(args.plan, encoding="utf-8") as fh:
            plan = parse_plan(fh.read())
    overrides = {"n_trials": args.trials, "master_seed": args.seed,
                 "eta_frac": args.eta_frac}
    plan = dataclasses.replace(
        plan, **{k: v for k, v in overrides.items() if v is not None})
    for path in run_plan(plan, args.out, workers=_workers(args), fmt=args.format):
        print(f"wrote {path}")
    return 0


def _cmd_drift_probe(args) -> int:
    # through the module, where bench/tracer.py patches drift_probe
    rep = sim.drift_probe(args.strategy, _point_config(vars(args)), args.steps,
                          args.seed)
    print(f"strategy = {rep.strategy_id}")
    print(f"n_steps = {rep.n_steps}")
    print(f"mean_drift = {rep.mean_drift!r}")
    print(f"se = {rep.se!r}")
    print(f"capacity_floor = {rep.capacity_floor!r}")
    print(f"drift_minus_floor = {rep.mean_drift - rep.capacity_floor!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"capacity": _cmd_capacity, "bounds": _cmd_bounds,
                "simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "drift-probe": _cmd_drift_probe}
    try:
        return handlers[args.verb](args)
    except Exception as exc:
        # the exit-code policy lives in the exception types (see errors)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
