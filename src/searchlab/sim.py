"""Monte Carlo driver: seeded trial batches, summary statistics, and
drift probes for the potential functional.

The drift probe runs the engine's own probe rules, target draw and
observation on a one-row block.  This module seeds generators but draws
from none: every trial-generator draw is made in `strategies`.

Reproducibility contract: trial i of a batch uses the 64-bit seed derived
from (master_seed, i) through numpy's SeedSequence mixing, and its own
generator seeded with it, so results do not depend on scheduling.  Trials
run in lockstep blocks (`strategies.run_rows`) of at most BLOCK_CELLS
posterior cells and BLOCK_ROWS generators, so the engine's working memory
is the same for any batch size (the results take 17 bytes a trial); each
trial's record is the one it gets when run alone.  workers > 1 splits the
batch into contiguous chunks, one process each, and the per-trial arrays
are reduced in trial order, making summaries bit-identical between serial
and parallel runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import optimal_composition, bawgn_capacity
from .errors import ValidationError
from .inference import u_log_probs, update_log_probs
from .model import SearchConfig, TrialRecord
# update_log_probs, random_composition_mask and sorted_pm_mask are unused
# here but stay bound: bench/tracer.py patches them.
from .strategies import (FIXED_COMPOSITION, SORTED_PM, STEP_LIMIT, Draws,
                         StrategySpec, draw_targets, fold, observe, probe_rule,
                         random_composition_mask, run_rows, run_strategy,
                         sorted_pm_mask)

Z95 = 1.959963984540054  # two-sided 95% normal quantile
LOW_SAMPLE_N = 100
MIN_DRIFT_STEPS = 10_000
MAX_TRIALS = 10_000_000
# A lockstep block holds at most BLOCK_CELLS posterior cells and
# BLOCK_ROWS trial generators.
BLOCK_CELLS = 1 << 16
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate of a trial batch."""

    strategy_id: str
    n_trials: int
    mean_tau: float
    ci95_half_width: float
    err_rate: float
    mean_tau_stage1: float
    master_seed: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DriftReport:
    """Empirical per-step drift of U against its guaranteed floor."""

    strategy_id: str
    n_steps: int
    mean_drift: float
    se: float
    capacity_floor: float


def _check_seed(seed: int) -> None:
    """A seed enters numpy only if it is an int, not a bool, in [0, 2**64),
    the range of a plan's master_seed: numpy fails a float or a negative seed
    as a runtime error, and takes True or a larger seed without complaint."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    if seed >= 2 ** 64:
        raise ValidationError(f"seed must be below 2**64, got {seed}")


def trial_seed_for(master_seed: int, trial_index: int) -> int:
    """64-bit substream seed mixed from (master_seed, trial_index)."""
    _check_seed(master_seed)
    ss = np.random.SeedSequence([master_seed, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_single_trial(spec: StrategySpec, config: SearchConfig,
                     trial_seed: int) -> TrialRecord:
    """One trial with its own generator, reproducible from the seed alone."""
    rng = np.random.default_rng(trial_seed)
    return run_strategy(spec, config, rng, trial_seed)


def _run_span(spec: StrategySpec, config: SearchConfig, master_seed: int,
              lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, tau_stage1, success) of trials lo..hi-1, in lockstep blocks."""
    taus, tau1s = np.empty(hi - lo), np.empty(hi - lo)
    success = np.empty(hi - lo, dtype=bool)
    rows = max(1, min(BLOCK_ROWS, BLOCK_CELLS // config.M))
    for first in range(lo, hi, rows):
        last = min(first + rows, hi)
        rngs = [np.random.default_rng(trial_seed_for(master_seed, i))
                for i in range(first, last)]
        tau, tau1, ok, _ = run_rows(spec, config, rngs, first)
        taus[first - lo:last - lo] = tau
        tau1s[first - lo:last - lo] = tau1
        success[first - lo:last - lo] = ok
    return taus, tau1s, success


def run_trials(spec: StrategySpec, config: SearchConfig, n_trials: int,
               master_seed: int, workers: int = 1) -> SummaryStats:
    """Run a batch of independent trials and summarize.

    The 95% confidence half-width uses the normal approximation; a single
    trial gets half-width 0 and batches under 100 trials are flagged
    LowSample.  workers > 1 runs min(workers, cpu count, n_trials)
    contiguous chunks in processes; the reduction is in trial order either
    way, so the output is identical to a serial run.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValidationError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n_trials}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    chunks = min(workers, os.cpu_count() or 1, n_trials)
    if chunks == 1:
        taus, tau1s, success = _run_span(spec, config, master_seed, 0, n_trials)
    else:
        edges = [n_trials * c // chunks for c in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(_run_span, [spec] * chunks, [config] * chunks,
                                  [master_seed] * chunks, edges[:-1], edges[1:]))
        taus, tau1s, success = (np.concatenate(a) for a in zip(*parts))

    errs = np.where(success, 0.0, 1.0)
    mean_tau = float(taus.mean())
    if n_trials >= 2:
        hw = Z95 * float(taus.std(ddof=1)) / math.sqrt(n_trials)
    else:
        hw = 0.0
    flags = ("LowSample",) if n_trials < LOW_SAMPLE_N else ()
    return SummaryStats(strategy_id=spec.label(), n_trials=n_trials,
                        mean_tau=mean_tau, ci95_half_width=hw,
                        err_rate=float(errs.mean()),
                        mean_tau_stage1=float(tau1s.mean()),
                        master_seed=master_seed, flags=flags)


def drift_probe(kind: str, config: SearchConfig, n_steps: int,
                seed: int) -> DriftReport:
    """Measure the empirical mean per-step increment of U(rho) for the
    fixed-composition or sorted-PM dynamics, restarting runs at their
    stopping threshold until n_steps increments are collected, on a
    one-row block with the engine's probe rule (`probe_rule`).

    The report carries the matching capacity floor: C(q*, v(q*)) for fixed
    composition, C(1/2, v(M/2)) for sorted-PM.  Terminal increments are
    included; the drift guarantee applies to every posterior state, so
    the empirical mean should sit at or above the floor.
    """
    if kind not in (FIXED_COMPOSITION, SORTED_PM):
        raise ValidationError(f"drift probe supports fixed_composition or sorted_pm, got {kind!r}")
    if not MIN_DRIFT_STEPS <= n_steps <= STEP_LIMIT:
        raise ValidationError(f"n_steps must lie in [{MIN_DRIFT_STEPS}, {STEP_LIMIT}], "
                         f"got {n_steps}")
    m = config.M
    if m < 2:
        raise ValidationError("drift probe needs at least 2 cells")
    _check_seed(seed)

    if kind == FIXED_COMPOSITION:
        _, floor = optimal_composition(config)
    else:
        floor = bawgn_capacity(0.5, config.variance_at(m / 2.0))

    probe, _ = probe_rule(kind, config)
    # one normal a chunk, so a window of one step: the generator draws the
    # next run's target between them
    draws = Draws([np.random.default_rng(seed)], picks=kind == FIXED_COMPOSITION,
                  normal_chunk=1)
    log_thresh = math.log1p(-config.epsilon)
    increments = np.empty(n_steps)
    lp = np.empty((1, m))
    for i in range(n_steps):
        if i == 0 or top[0] >= log_thresh:  # a run starts: uniform prior
            lp.fill(-math.log(m))
            target = draw_targets(draws.gens, m)
            u_prev = u_log_probs(lp[0])
        masks, v, _ = probe(lp, i, draws)
        llr = observe(masks[:, :, target[0]].T, v, draws)
        top = fold(lp, masks[:, 0], llr[0], draws)
        u_now = u_log_probs(lp[0])
        increments[i] = u_now - u_prev
        u_prev = u_now
    mean = float(increments.mean())
    se = float(increments.std(ddof=1)) / math.sqrt(n_steps)
    return DriftReport(strategy_id=kind, n_steps=n_steps, mean_drift=mean,
                       se=se, capacity_floor=floor)
