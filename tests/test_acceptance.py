"""End-to-end acceptance gate.

Eleven numbered criteria covering the capacity quadrature, the psi/a_eta
machinery, the posterior engine, probe-rule optimality, drift floors,
simulation-vs-bound sandwiches, strategy orderings, regime scaling,
general noise laws, and byte-level determinism.  Each test registers one
PASS/FAIL summary line (printed after the run) and then asserts, so a
failing criterion still reports its measured numbers.

Monte Carlo criteria run at the frozen master seed 20260825.
"""

import math

import numpy as np
import pytest

from searchlab.bounds import (
    adaptive_upper_bound,
    asymptotic_ratios,
    fixed_delta_limit_constant,
    general_f_bounds,
    nonadaptive_lower_bound,
)
from searchlab.channel import (
    bawgn_capacity,
    optimal_composition,
    psi,
    solve_a_eta,
)
from searchlab.inference import update_log_probs
from searchlab.model import NoiseModel, new_config
from searchlab.plan import load_preset, run_plan
from searchlab.sim import drift_probe, run_trials
from searchlab.strategies import (
    FIXED_COMPOSITION,
    NOISY_BINARY_FIXED,
    SORTED_PM,
    TWO_STAGE,
    StrategySpec,
    sorted_pm_mask,
)

MASTER_SEED = 20260825


def test_criterion_01_capacity_limits(acceptance):
    near_one = bawgn_capacity(0.5, 1e-6)
    near_zero = bawgn_capacity(0.5, 1e4)
    qs = np.linspace(0.025, 0.975, 20)
    vs = np.resize([0.05, 0.25, 1.0, 4.0], 20)
    asym = max(abs(bawgn_capacity(q, v) - bawgn_capacity(1.0 - q, v))
               for q, v in zip(qs, vs))
    ok = (0.999 <= near_one <= 1.0) and near_zero <= 1e-3 and asym <= 1e-9
    assert acceptance(
        1, "capacity_limits", ok,
        f"C(.5,1e-6)={near_one:.6f}, C(.5,1e4)={near_zero:.2e}, "
        f"max asymmetry={asym:.2e}")


def test_criterion_02_capacity_vs_monte_carlo(acceptance):
    rng = np.random.default_rng(MASTER_SEED)
    qs = rng.uniform(0.05, 0.95, 5)
    vs = 10.0 ** rng.uniform(-1.3, 0.6, 5)
    n, chunk = 10_000_000, 1_000_000
    worst = 0.0
    for q, v in zip(qs, vs):
        sd, norm = math.sqrt(v), math.sqrt(2.0 * math.pi * v)
        total = 0.0
        for _ in range(n // chunk):
            x = (rng.random(chunk) < q).astype(float)
            y = x + sd * rng.standard_normal(chunk)
            # the two N(x, v) densities, inline: scipy's pdf is twice as slow
            m = ((1.0 - q) * (np.exp(-(y ** 2) / (2.0 * v)) / norm)
                 + q * (np.exp(-((y - 1.0) ** 2) / (2.0 * v)) / norm))
            total += np.log2(m).sum()
        mixture_entropy = -total / n
        estimate = mixture_entropy - 0.5 * math.log2(2.0 * math.pi * math.e * v)
        worst = max(worst, abs(estimate - bawgn_capacity(q, v)))
    ok = worst <= 1e-3
    assert acceptance(
        2, "capacity_vs_monte_carlo", ok,
        f"worst |quadrature - MC| = {worst:.2e} over 5 points x 1e7 samples")


def test_criterion_03_psi_and_a_eta(acceptance, config16):
    left = psi(-1e9, config16)
    left_want = -1.0 / (2.0 * config16.B * config16.sigma2)
    grid = np.linspace(0.0, 25.0, 50)
    vals = [psi(a, config16) for a in grid]
    monotone = all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    eta10 = (10.0 / 7.0) * psi(7.0, config16)
    a_err = abs(solve_a_eta(eta10, config16).value - 10.0)
    ok = abs(left - left_want) <= 1e-6 and monotone and a_err <= 1e-6
    assert acceptance(
        3, "psi_and_a_eta", ok,
        f"psi(-1e9) err={abs(left - left_want):.2e}, "
        f"monotone on 50-pt grid={monotone}, round-trip |a-10|={a_err:.2e}")


def test_criterion_04_posterior_engine(acceptance):
    # 10^6 updates: 400 segments of 2,500 at a random M, v and target, the
    # segments of one M updated as one (segments, M) block, each row as it
    # is updated alone (test_block_update_matches_row_by_row)
    rng = np.random.default_rng(MASTER_SEED)
    segments, steps = 400, 2500
    ms = rng.integers(2, 65, segments)
    vs = rng.uniform(0.05, 2.0, segments)
    targets = rng.integers(0, ms)
    worst_norm = 0.0
    for m in np.unique(ms).tolist():
        of_m = ms == m
        v, target = vs[of_m], targets[of_m]
        rows = np.arange(target.size)
        sd = np.sqrt(v)
        lp = np.full((target.size, m), -math.log(m))
        for _ in range(steps):
            mask = rng.random(lp.shape) < 0.5
            mask[~mask.any(axis=1), 0] = True
            y = mask[rows, target] + sd * rng.standard_normal(target.size)
            update_log_probs(lp, mask, y, v)
            worst_norm = max(worst_norm,
                             float(np.abs(np.exp(lp).sum(axis=1) - 1.0).max()))

    before = rng.normal(0.0, 2.0, 12)
    before -= math.log(np.exp(before).sum())
    lp = before.copy()
    update_log_probs(lp, rng.random(12) < 0.5, 0.5, 0.3)
    invariance = float(np.abs(np.exp(lp) - np.exp(before)).max())

    two = np.full(2, -math.log(2.0))
    update_log_probs(two, np.array([True, False]), 1.0, 0.25)
    pair_err = abs(math.exp(two[0]) - 0.8808)

    ok = worst_norm <= 1e-9 and invariance <= 1e-12 and pair_err <= 1e-4
    assert acceptance(
        4, "posterior_engine", ok,
        f"worst |sum-1|={worst_norm:.2e} over 1e6 updates, "
        f"y=1/2 invariance={invariance:.2e}, two-cell err={pair_err:.2e}")


def test_criterion_05_sorted_pm_optimality(acceptance):
    rng = np.random.default_rng(MASTER_SEED)
    violations = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 65))
        p = rng.dirichlet(np.ones(m))
        _, k = sorted_pm_mask(p)
        order = np.argsort(-p, kind="stable")
        dists = np.abs(np.cumsum(p[order]) - 0.5)
        best = dists.min()
        if dists[k - 1] > best + 1e-15 or np.any(dists[: k - 1] <= best):
            violations += 1
    ok = violations == 0
    assert acceptance(
        5, "sorted_pm_optimality", ok,
        f"{violations} violations in 10^4 random posteriors (M <= 64)")


def test_criterion_06_drift_floors(acceptance, config16):
    fixed = drift_probe(FIXED_COMPOSITION, config16, 100_000, MASTER_SEED)
    sorted_ = drift_probe(SORTED_PM, config16, 100_000, MASTER_SEED)
    ok_fixed = fixed.mean_drift >= fixed.capacity_floor - 3.0 * fixed.se
    ok_sorted = sorted_.mean_drift >= sorted_.capacity_floor - 3.0 * sorted_.se
    ok = ok_fixed and ok_sorted
    assert acceptance(
        6, "drift_floors", ok,
        f"fixed {fixed.mean_drift:.4f} vs floor {fixed.capacity_floor:.4f}"
        f" (se {fixed.se:.4f}); sorted {sorted_.mean_drift:.4f} vs floor"
        f" {sorted_.capacity_floor:.4f} (se {sorted_.se:.4f})")


def test_criterion_07_sandwich(acceptance, config16):
    lb = nonadaptive_lower_bound(config16)
    _, c1 = optimal_composition(config16)
    eta = 0.1 * c1
    ub, alpha_star = adaptive_upper_bound(config16, eta)

    fc = run_trials(StrategySpec(FIXED_COMPOSITION), config16, 2000, MASTER_SEED)
    ts = run_trials(StrategySpec(TWO_STAGE, alpha=alpha_star), config16, 2000,
                    MASTER_SEED)
    ok_lower = fc.mean_tau >= lb - fc.ci95_half_width
    ok_upper = ts.mean_tau <= ub + ts.ci95_half_width
    ok = ok_lower and ok_upper
    assert acceptance(
        7, "simulation_bound_sandwich", ok,
        f"fixed-composition {fc.mean_tau:.2f} >= lower {lb:.2f}; "
        f"two-stage(1/{round(1/alpha_star)}) {ts.mean_tau:.2f} <= upper {ub:.2f}")


def test_criterion_08_strategy_ordering(acceptance):
    n = 10_000
    gaps_ok, errs_ok = True, True
    details = []
    for sigma2 in (0.1, 0.25, 0.5):
        cfg = new_config(16, 1, sigma2, 1e-4)
        stats = {kind: run_trials(StrategySpec(kind), cfg, n, MASTER_SEED)
                 for kind in (SORTED_PM, FIXED_COMPOSITION, NOISY_BINARY_FIXED)}
        pm, fc, nb = (stats[SORTED_PM], stats[FIXED_COMPOSITION],
                      stats[NOISY_BINARY_FIXED])
        gap1 = fc.mean_tau - pm.mean_tau
        gap2 = nb.mean_tau - fc.mean_tau
        gaps_ok &= gap1 > pm.ci95_half_width + fc.ci95_half_width
        gaps_ok &= gap2 > fc.ci95_half_width + nb.ci95_half_width
        errs_ok &= all(s.err_rate <= 1.5e-4 for s in stats.values())
        details.append(f"s2={sigma2}: {pm.mean_tau:.1f} < {fc.mean_tau:.1f}"
                       f" < {nb.mean_tau:.1f}")
    ok = gaps_ok and errs_ok
    assert acceptance(
        8, "strategy_ordering", ok,
        "; ".join(details) + f"; gaps>CIs={gaps_ok}, err<=1.5eps={errs_ok}")


def test_criterion_09_regime_scaling(acceptance):
    widths = asymptotic_ratios(
        [new_config(b, 1, 0.25, 1e-4) for b in (8, 16, 32, 64, 128)])
    wr = [r.ratio for r in widths]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(wr, wr[1:]))
    threshold = 0.5 * fixed_delta_limit_constant(new_config(128, 1, 0.25, 1e-4))
    width_ok = nondecreasing and wr[-1] >= threshold

    depths = asymptotic_ratios(
        [new_config(1, 2.0 ** -j, 0.25, 1e-4) for j in (4, 5, 6, 7, 8)])
    dr = [r.ratio for r in depths]
    rel_change = abs(dr[-1] - dr[-2]) / abs(dr[-2])
    depth_ok = rel_change <= 0.25

    ok = width_ok and depth_ok
    assert acceptance(
        9, "regime_scaling", ok,
        f"width ratios {['%.4f' % r for r in wr]} vs floor {threshold:.4f}; "
        f"depth last-two change {rel_change:.3f} <= 0.25")


def test_criterion_10_general_noise_ordering(acceptance):
    gains = {}
    for gamma in (0.5, 1.0, 2.0):
        cfg = new_config(25, 1, 0.25, 1e-4, noise=NoiseModel.power(gamma))
        _, c1 = optimal_composition(cfg)
        gains[gamma] = general_f_bounds(cfg, 0.1 * c1).gain_lb
    ok = gains[2.0] > gains[1.0] > gains[0.5]
    assert acceptance(
        10, "general_noise_ordering", ok,
        f"gains g(0.5)={gains[0.5]:.3f}, g(1)={gains[1.0]:.3f}, "
        f"g(2)={gains[2.0]:.3f}; need g(2) > g(1) > g(0.5)")


def test_criterion_11_preset_determinism(acceptance, tmp_path):
    plan = load_preset("fig6")
    paths1 = run_plan(plan, tmp_path / "w1", workers=1)
    paths8 = run_plan(plan, tmp_path / "w8", workers=8)
    pairs = list(zip(sorted(paths1), sorted(paths8)))
    same = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    ok = same and len(pairs) == 2
    assert acceptance(
        11, "preset_determinism", ok,
        f"fig6 at workers 1 vs 8: {len(pairs)} files byte-identical={same}")
