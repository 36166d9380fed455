"""Experiment plans: JSON schema, validation, execution, and file output.

A plan names an experiment, fixes or sweeps the problem parameters, and
lists what to produce at each sweep point: strategy simulations, bound
values, or capacity-table rows.  Parameter axes are expanded as a cartesian
product in declaration order.  Outputs go to CSV and/or JSON files with
identical field names; floats are written with repr (shortest round-trip),
so re-running a plan with the same seed reproduces files byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import bounds as bounds_mod
# bawgn_capacity and solve_a_eta are unused here but stay bound:
# bench/tracer.py patches them.
from .channel import (bawgn_capacity, capacity_grid, optimal_composition,
                      solve_a_eta)
from .errors import ParseError, ValidationError
from .model import NoiseModel, SearchConfig, new_config
from .sim import MAX_TRIALS, _check_count, _check_seed, run_trials, trial_seed_for
from .strategies import StrategySpec, check_run

PARAM_NAMES = ("B", "delta", "sigma2", "epsilon", "gamma", "q")
CONFIG_PARAMS = ("B", "delta", "sigma2", "epsilon")
BOUND_NAMES = ("lemma1", "lemma2", "theorem1", "theorem2", "corollary2")
CAPACITY_MODES = ("composition", "half_input")
PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
FORMATS = {"csv": (".csv",), "json": (".json",), "both": (".csv", ".json")}

# The most points a plan may expand to: its axes' lengths multiplied, q
# and a half_input table's total variances included, so that no plan asks
# for an unbounded list of points.  An 801-q table over 128 sizes (102,528
# points) fits.
MAX_POINTS = 1 << 17
NAME_MAX = 255  # UTF-8 bytes of a file name on ext4, xfs, btrfs and tmpfs

PLAN_KEYS = {"id", "B", "delta", "sigma2", "epsilon", "gamma", "sweeps",
             "strategies", "n_trials", "master_seed", "bound_set",
             "eta_frac", "capacity_table"}

SIM_COLUMNS = ("experiment_id", "strategy", "B", "delta", "sigma2", "gamma",
               "epsilon", "n_trials", "mean_tau", "ci95_lo", "ci95_hi",
               "err_rate", "master_seed")
BOUND_COLUMNS = ("experiment_id", "bound_name", "B", "delta", "sigma2",
                 "gamma", "epsilon", "eta", "alpha_star", "a_eta", "value")
CAPACITY_COLUMNS = ("experiment_id", "gamma", "sigma2_total", "q",
                    "probe_count", "variance", "capacity_bits")


@dataclass(frozen=True)
class ExperimentPlan:
    """Validated experiment description.

    ``axes`` lists every parameter as (name, values), fixed parameters as
    singleton value tuples, in expansion order (fixed first, then sweeps as
    declared).  It owns every rule of a plan's values, checked on
    construction, so plans from parse_plan, a CLI verb, Python code or
    dataclasses.replace are checked alike before anything runs: axes are
    PARAM_NAMES, each once with at least one value, an int or float (not a
    bool), all of CONFIG_PARAMS among them; a capacity table has q values in
    (0, 1] and no strategies or bounds, and only a half_input one total
    variances, at least one, positive and finite; ``id`` is non-empty UTF-8
    text with no '/', '\\' or NUL (it names the output files), ``eta_frac``
    lies in (0, 1), ``n_trials`` a count in [1, MAX_TRIALS]
    (`sim._check_count`), ``master_seed`` an int in [0, 2**64)
    (`sim._check_seed`), ``bound_set`` names are BOUND_NAMES, each at most
    once (a strategy may repeat: each row has its own seed), corollary2
    needs exactly one swept parameter, B or delta, and the plan expands to
    at most MAX_POINTS points.  Each StrategySpec checks its kind and
    alpha.  Checks that depend on a sweep point or the run are `run_plan`'s:
    the configuration, each strategy's at it and the file names' length
    before any output, bound feasibility as it runs.
    """

    id: str
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    strategies: tuple[StrategySpec, ...] = ()
    n_trials: int = 2000
    master_seed: int = 0
    bound_set: tuple[str, ...] = ()
    eta_frac: float = 0.1
    capacity_mode: str | None = None
    total_variances: tuple[float, ...] = ()

    def __post_init__(self):
        _require(isinstance(self.id, str) and self.id,
                 f"plan needs a non-empty string 'id', got {self.id!r}")
        # UTF-8 encodes every code point but a surrogate
        _require(not any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in self.id),
                 f"plan id must be UTF-8 text with no '/', '\\' or NUL, got {self.id!r}")
        names = [name for name, _ in self.axes]
        for i, (name, values) in enumerate(self.axes):
            _require(name in PARAM_NAMES, f"unknown parameter {name!r} "
                     f"(expected one of {', '.join(PARAM_NAMES)})")
            _require(name not in names[:i], f"parameter {name!r} given twice")
            _require(len(values) > 0, f"parameter {name!r} needs at least one value")
            for v in values:
                _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                         f"parameter {name!r} value must be a number, got {v!r}")
        for name in CONFIG_PARAMS:
            _require(name in names, f"parameter {name!r} missing (fix it or sweep it)")
        mode, tvs = self.capacity_mode, self.total_variances
        _require(mode is None or mode in CAPACITY_MODES,
                 f"capacity_table mode must be one of {CAPACITY_MODES}, got {mode!r}")
        _require(mode == "half_input" or not tvs,
                 "total_variances only applies to half_input mode")
        if mode == "half_input":
            _require(tvs, "half_input mode needs a non-empty 'total_variances' list")
            _require(all(0 < v < math.inf for v in tvs),
                     "total variances must be positive and finite")
        _require(("q" in names) == (mode is not None),
                 "a 'q' sweep and a 'capacity_table' block go together")
        _require(all(0.0 < v <= 1.0 for v in dict(self.axes).get("q", ())),
                 "q values must lie in (0, 1]")
        _require(mode is None or not (self.strategies or self.bound_set),
                 "capacity-table plans take no strategies or bounds")
        _require(0.0 < self.eta_frac < 1.0,
                 f"eta_frac must lie in (0, 1), got {self.eta_frac}")
        _check_count("n_trials", self.n_trials, 1, MAX_TRIALS)
        _check_seed(self.master_seed)
        points = (math.prod(len(vals) for _, vals in self.axes)
                  * max(1, len(self.total_variances)))
        _require(points <= MAX_POINTS,
                 f"plan expands to {points} points, more than the cap of {MAX_POINTS}")
        for i, name in enumerate(self.bound_set):
            _require(name in BOUND_NAMES,
                     f"unknown bound {name!r} (expected one of {', '.join(BOUND_NAMES)})")
            _require(name not in self.bound_set[:i], f"bound {name!r} named twice")
        if "corollary2" in self.bound_set:
            _require(self.swept_params() in (["B"], ["delta"]),
                     "corollary2 needs exactly one swept parameter, B or delta")

    def swept_params(self) -> list[str]:
        return [name for name, vals in self.axes if len(vals) > 1]


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _as_number(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # JSON's integers are unbounded, floats are not
        raise ValidationError(f"{what} is an integer past the floating-point "
                              f"range") from None


def parse_plan(text: str) -> ExperimentPlan:
    """Parse a JSON plan document: its JSON shape only (keys, [name, values]
    sweeps, numbers as floats); every rule of the values is ExperimentPlan's."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"plan is not valid JSON: {exc.msg} "
                         f"(line {exc.lineno}, column {exc.colno})",
                         line=exc.lineno, col=exc.colno) from exc
    except RecursionError:
        raise ParseError("plan nests past the JSON decoder's depth "
                         "limit") from None
    except ValueError:  # the one other: an integer past int's digit limit
        raise ParseError("plan holds an integer with more digits than "
                         "can be read") from None
    _require(isinstance(doc, dict), "plan root must be a JSON object")
    for key in doc:
        _require(key in PLAN_KEYS, f"unknown plan key {key!r}")

    # parameter axes: scalars and sweeps, each parameter from exactly one
    sweeps_doc = doc.get("sweeps", [])
    _require(isinstance(sweeps_doc, list), "'sweeps' must be a list of [name, values] pairs")
    sweep_axes: list[tuple[str, tuple[float, ...]]] = []
    for entry in sweeps_doc:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2,
                 f"sweep entry {entry!r} must be a [name, values] pair")
        name, values = entry
        _require(isinstance(name, str), f"sweep name {name!r} must be a string")
        _require(isinstance(values, list), f"sweep {name!r} needs a value list")
        sweep_axes.append((name, tuple(_as_number(v, f"sweep {name!r} value")
                                       for v in values)))
    swept = {name for name, _ in sweep_axes}
    fixed_axes: list[tuple[str, tuple[float, ...]]] = []
    for name in ("B", "delta", "sigma2", "epsilon", "gamma"):
        if name in doc:
            _require(name not in swept, f"parameter {name!r} given both fixed and swept")
            fixed_axes.append((name, (_as_number(doc[name], name),)))
    axes = tuple(fixed_axes + sweep_axes)

    # ExperimentPlan reads a mode of None as no table and () as no variances:
    # a block with no mode, or a composition block's variances key, is refused here
    table_doc = doc.get("capacity_table")
    capacity_mode = None
    total_variances: tuple[float, ...] = ()
    if table_doc is not None:
        _require(isinstance(table_doc, dict), "'capacity_table' must be an object")
        for key in table_doc:
            _require(key in ("mode", "total_variances"),
                     f"unknown capacity_table key {key!r}")
        capacity_mode = table_doc.get("mode")
        _require(capacity_mode is not None,
                 f"capacity_table mode must be one of {CAPACITY_MODES}, got None")
        tv = table_doc.get("total_variances")
        if capacity_mode == "half_input" and isinstance(tv, list):
            total_variances = tuple(_as_number(v, "total variance") for v in tv)
        elif capacity_mode == "composition":
            _require("total_variances" not in table_doc,
                     "total_variances only applies to half_input mode")

    strategies_doc = doc.get("strategies", [])
    _require(isinstance(strategies_doc, list), "'strategies' must be a list")
    strategies: list[StrategySpec] = []
    for entry in strategies_doc:
        _require(isinstance(entry, dict), f"strategy entry {entry!r} must be an object")
        for key in entry:
            _require(key in ("kind", "alpha"), f"unknown strategy key {key!r}")
        alpha = entry.get("alpha")
        if alpha is not None:
            alpha = _as_number(alpha, "alpha")
        strategies.append(StrategySpec(kind=entry.get("kind"), alpha=alpha))

    bound_doc = doc.get("bound_set", [])
    _require(isinstance(bound_doc, list), "'bound_set' must be a list")

    eta_frac = _as_number(doc.get("eta_frac", 0.1), "eta_frac")
    return ExperimentPlan(id=doc.get("id"), axes=axes, strategies=tuple(strategies),
                          n_trials=doc.get("n_trials", 2000),
                          master_seed=doc.get("master_seed", 0),
                          bound_set=tuple(bound_doc),
                          eta_frac=eta_frac, capacity_mode=capacity_mode,
                          total_variances=total_variances)


def load_preset(name: str) -> ExperimentPlan:
    """Load one of the bundled figure plans (fig3 .. fig8)."""
    _require(name in PRESET_NAMES,
             f"unknown preset {name!r} (expected one of {', '.join(PRESET_NAMES)})")
    text = resources.files("searchlab").joinpath(f"presets/{name}.json").read_text("utf-8")
    return parse_plan(text)


def _point_config(point: dict) -> SearchConfig:
    """The configuration at a point: B, delta, sigma2 and epsilon, with
    power-law noise if it has a gamma that is not None, else linear."""
    gamma = point.get("gamma")
    noise = NoiseModel.linear() if gamma is None else NoiseModel.power(gamma)
    return new_config(point["B"], point["delta"], point["sigma2"],
                      point["epsilon"], noise=noise)


def _points(plan: ExperimentPlan):
    names = [n for n, _ in plan.axes if n != "q"]
    for combo in itertools.product(*(vals for n, vals in plan.axes if n != "q")):
        yield dict(zip(names, combo))


def _point_row(plan: ExperimentPlan, config: SearchConfig) -> dict:
    """The columns every per-point row shares (gamma is 1.0 if linear)."""
    return {"experiment_id": plan.id, "B": config.B, "delta": config.delta,
            "sigma2": config.sigma2, "epsilon": config.epsilon,
            "gamma": config.noise.gamma}


def _capacity_rows(plan: ExperimentPlan, configs: list[SearchConfig]) -> list[dict]:
    """Capacity-table rows over the configurations (composition) or the
    total variances (half_input), every capacity from one capacity_grid call."""
    rows, qs, vs = [], [], []
    qvals = dict(plan.axes)["q"]
    if plan.capacity_mode == "composition":
        for config in configs:
            for q in qvals:
                k = int(round(q * config.M))
                k = min(max(k, 1), config.M)
                v = config.noise_variance(k)
                rows.append({**_point_row(plan, config), "sigma2_total": None,
                             "q": q, "probe_count": k, "variance": v})
                qs.append(q)
                vs.append(v)
    else:
        for tv in plan.total_variances:
            for q in qvals:
                v = 2.0 * q * tv
                rows.append({"experiment_id": plan.id, "gamma": None,
                             "sigma2_total": tv, "q": q, "probe_count": None,
                             "variance": v})
                qs.append(0.5)
                vs.append(v)
    for row, c in zip(rows, capacity_grid(qs, vs).tolist()):
        row["capacity_bits"] = c
    return rows


def _sim_rows(plan: ExperimentPlan, configs: list[SearchConfig], workers: int) -> list[dict]:
    """One row a (configuration, strategy) pair, in that order; row i's
    batch seed is trial_seed_for(master_seed, i)."""
    rows = []
    for i, (config, spec) in enumerate(itertools.product(configs, plan.strategies)):
        stats = run_trials(spec, config, plan.n_trials,
                           trial_seed_for(plan.master_seed, i), workers)
        rows.append({
            **_point_row(plan, config), "strategy": stats.strategy_id,
            "n_trials": int(plan.n_trials), "mean_tau": stats.mean_tau,
            "ci95_lo": stats.mean_tau - stats.ci95_half_width,
            "ci95_hi": stats.mean_tau + stats.ci95_half_width,
            "err_rate": stats.err_rate, "master_seed": int(plan.master_seed),
        })
    return rows


def _bound_rows(plan: ExperimentPlan, configs: list[SearchConfig]) -> list[dict]:
    """Each pointwise bound at each configuration, then corollary2's ratios."""
    rows, blank = [], dict.fromkeys(BOUND_COLUMNS)
    pointwise = [b for b in plan.bound_set if b != "corollary2"]
    for config in configs:
        eta = None
        # M = 1 has no composition to scan; the bounds that read eta raise
        # their own NoFeasibleAlpha, which names the input
        if config.M > 1 and any(b in ("lemma2", "theorem1", "theorem2")
                                for b in pointwise):
            _, c1 = optimal_composition(config)
            eta = plan.eta_frac * c1
        reports = {}  # lemma2 and theorem1 read one report, theorem2 another
        for name in pointwise:
            row = {**blank, **_point_row(plan, config), "bound_name": name}
            if name == "lemma1":
                row["value"] = bounds_mod.nonadaptive_lower_bound(config)
            else:
                build = (bounds_mod.general_f_bounds if name == "theorem2"
                         else bounds_mod.adaptivity_gain_lower_bound)
                if build not in reports:
                    reports[build] = build(config, eta)
                rep = reports[build]
                row.update(eta=eta, a_eta=rep.a_eta)
                if name == "lemma2":
                    row.update(alpha_star=rep.alpha_ub, value=rep.adaptive_ub)
                else:
                    row.update(alpha_star=rep.alpha_star, value=rep.gain_lb)
            # a capacity near 0 (huge noise) puts a bound past the floats
            _require(math.isfinite(row["value"]),
                     f"{name} is {row['value']} at B={config.B}, "
                     f"delta={config.delta}, sigma2={config.sigma2}: "
                     f"out of floating-point range")
            rows.append(row)
    if "corollary2" in plan.bound_set:
        for config, ratio in zip(configs, bounds_mod.asymptotic_ratios(
                configs, eta_frac=plan.eta_frac)):
            rows.append({**blank, **_point_row(plan, config),
                         "bound_name": "corollary2", "value": ratio.ratio})
    return rows


def _write_atomic(path: Path, newline: str | None, write) -> Path:
    """Write through write(fh) to a temp file beside path, then rename it
    into place: path is either absent, its old self, or complete."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _table_name(plan_id: str, table: str, ext: str) -> str:
    """'<id>_<table><ext>', the file name of a plan's table."""
    return f"{plan_id}_{table}{ext}"


def _write_rows(out: Path, plan_id: str, table: str, columns, rows: list[dict],
                fmt: str) -> list[Path]:
    def write_csv(fh):
        # csv writes None as "" and a float by its repr
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])

    def write_json(fh):
        json.dump([{c: row[c] for c in columns} for row in rows], fh, indent=2)
        fh.write("\n")

    writers = {".csv": ("", write_csv), ".json": (None, write_json)}
    return [_write_atomic(out / _table_name(plan_id, table, ext), *writers[ext])
            for ext in FORMATS[fmt]]


def run_plan(plan: ExperimentPlan, out_dir, workers: int = 1,
             fmt: str = "csv") -> list[Path]:
    """Execute a plan and write its output files under out_dir.

    Returns the written paths.  Every table is computed before the first
    file is written.  If execution fails partway, a '<id>.partial' marker
    file describing the failure is left in out_dir and the error
    re-raised; a successful run removes a stale marker.  Before out_dir is
    made, fmt and workers (`sim._check_count`) are checked, the run's
    longest file name, '<id>_<table>.<ext>.tmp', against NAME_MAX, and the
    point configurations are built, once for every table (a half_input
    table has none), each strategy checked at each (`strategies.check_run`),
    so a bad point is refused without output.
    """
    _require(isinstance(fmt, str) and fmt in FORMATS,
             f"format must be csv, json, or both, got {fmt!r}")
    _check_count("workers", workers, 1)
    tables = [name for name, wanted in (
        ("capacity", plan.capacity_mode is not None), ("sim", plan.strategies),
        ("bounds", plan.bound_set)) if wanted]
    _require(tables, f"plan {plan.id!r} has nothing to run: it needs strategies, "
             f"a bound_set or a capacity_table")
    longest = max(len(f"{_table_name(plan.id, name, ext)}.tmp".encode())
                  for name in tables for ext in FORMATS[fmt])
    _require(longest <= NAME_MAX,
             f"plan id is too long: a file name it gives holds {longest} UTF-8 "
             f"bytes, more than {NAME_MAX}")
    configs = ([] if plan.capacity_mode == "half_input"
               else [_point_config(point) for point in _points(plan)])
    for config, spec in itertools.product(configs, plan.strategies):
        check_run(spec, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / f"{plan.id}.partial"
    build = {"capacity": lambda: (CAPACITY_COLUMNS, _capacity_rows(plan, configs)),
             "sim": lambda: (SIM_COLUMNS, _sim_rows(plan, configs, workers)),
             "bounds": lambda: (BOUND_COLUMNS, _bound_rows(plan, configs))}
    try:
        computed = [(name, *build[name]()) for name in tables]
        written = [path for name, columns, rows in computed
                   for path in _write_rows(out, plan.id, name, columns, rows, fmt)]
    except Exception as exc:
        marker.write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        raise
    marker.unlink(missing_ok=True)
    return written
