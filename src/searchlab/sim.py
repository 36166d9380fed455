"""Monte Carlo driver: seeded trial batches, summary statistics, and
drift probes for the potential functional.

The drift probe runs lockstep blocks of runs on the trial engine
(`strategies._search`), run r seeded as trial r is, in windows of one
step, and its reader takes U of every live row after each step.  This
module seeds generators but draws from none, and runs no step loop: every
trial-generator draw and every step is made in `strategies`, and every
refusal of a (strategy, config) too (`strategies.check_run`).

Reproducibility contract: trial i of a batch uses the 64-bit seed derived
from (master_seed, i) through numpy's SeedSequence mixing, and its own
generator seeded with it, so results do not depend on scheduling.
`trial_seed_for` and `run_single_trial` are the contract, one trial at a
time; `trial_generators` builds a block's generators at once, in the same
states.  It runs numpy's SeedSequence hash on the block's words, a column
a trial, once to mix each (master_seed, i) into its trial seed and once to
mix that seed into its PCG64 seed words, then seeds each PCG64 from its
words (`strategies.seed_words_type`), with no hash a trial.  Trials run in
lockstep blocks (`strategies.run_rows`) of at most BLOCK_CELLS posterior
cells and BLOCK_ROWS generators, so the engine's working memory is the
same for any batch size (the results take 17 bytes a trial); each trial's
record is the one it gets when run alone.  workers > 1 splits the
batch into contiguous chunks, one process each, and the per-trial arrays
are reduced in trial order, making summaries bit-identical between serial
and parallel runs.  The process pool (`ProcessPoolExecutor`) is imported
by the first batch that runs on more than one worker, so a process that
runs none never loads multiprocessing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import optimal_composition, bawgn_capacity
from .errors import ValidationError
from .inference import u_log_probs, update_log_probs
from .model import SearchConfig, TrialRecord
# update_log_probs, random_composition_mask and sorted_pm_mask are unused
# here but stay bound: bench/tracer.py patches them.
from .strategies import (FIXED_COMPOSITION, SORTED_PM, STEP_LIMIT, Draws,
                         StrategySpec, _search, check_run, draw_targets,
                         prior_steps, probe_rule, random_composition_mask,
                         run_rows, run_strategy, seed_words_type,
                         sorted_pm_mask)

Z95 = 1.959963984540054  # two-sided 95% normal quantile
LOW_SAMPLE_N = 100
MIN_DRIFT_STEPS = 10_000
MAX_TRIALS = 10_000_000
# A lockstep block holds at most BLOCK_CELLS posterior cells and
# BLOCK_ROWS trial generators.
BLOCK_CELLS = 1 << 16
BLOCK_ROWS = 1024
# A drift probe's block holds at most DRIFT_ROWS runs: enough rows to
# spread a step's numpy calls over, few enough that their generators (about
# 1.5 KB each) stay small next to the process.
DRIFT_ROWS = 128

# numpy's SeedSequence: a pool of POOL 32-bit words, filled and mixed by
# hashes whose multipliers step from INIT_A by MULT_A (from INIT_B by
# MULT_B for the words drawn out of the pool), and words mixed by MIX_L
# and MIX_R.
POOL = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)  # a numpy scalar: a Python int costs a promotion a call


def _hash_constants(init: int, mult: int, n: int) -> tuple:
    """The xor and the multiplier of n hashes in turn, each (n, 1)."""
    pairs = []
    for _ in range(n):
        pairs.append((init, init * mult & _MASK32))
        init = init * mult & _MASK32
    xor, mult = np.array(pairs, dtype=np.uint32).T[:, :, None]
    return np.ascontiguousarray(xor), np.ascontiguousarray(mult)


_MIXING = _hash_constants(INIT_A, MULT_A, POOL * POOL)
_FILL = tuple(c[:POOL] for c in _MIXING)
# per source word s, the hashes of s into each other word, in turn; the
# pair at s itself is unused
_SOURCES = [tuple(np.insert(c[POOL + 3 * s:POOL + 3 * (s + 1)], s, 0, axis=0)
                  for c in _MIXING) for s in range(POOL)]
_DRAW = _hash_constants(INIT_B, MULT_B, 2 * POOL)


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


def _check_count(name: str, value: int, lo: int, hi: int | None = None) -> None:
    """Every count's check: an int (or a numpy one), not a bool, in
    [lo, hi], with no upper end if hi is None."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {span}, got {value!r}")


def trial_seed_for(master_seed: int, trial_index: int) -> int:
    """64-bit substream seed mixed from (master_seed, trial_index)."""
    _check_seed(master_seed)
    ss = np.random.SeedSequence([master_seed, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """numpy's SeedSequence(entropy).generate_state(n_words) of each column
    of entropy (words, rows), at most POOL uint32 words a column, as
    (n_words, rows) uint32 words, n_words at most 2 POOL.  A column's
    trailing zero words hash as no words: numpy pads short entropy with
    zeros, so a column stands for every entropy of its words."""
    pool = np.zeros((POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy
    pool ^= _FILL[0]
    pool *= _FILL[1]
    pool ^= pool >> _SHIFT
    # every word mixes in the hash of each other word, in numpy's order:
    # word s stays as it is while the others take its hashes
    for s, (xor, mult) in enumerate(_SOURCES):
        source = pool[s].copy()
        h = source ^ xor
        h *= mult
        h ^= h >> _SHIFT
        h *= MIX_R
        pool *= MIX_L
        pool -= h
        pool ^= pool >> _SHIFT
        pool[s] = source
    # the pool's words in turn
    out = pool[:n_words] if n_words <= POOL else np.concatenate([pool, pool])
    out = out ^ _DRAW[0][:n_words]
    out *= _DRAW[1][:n_words]
    out ^= out >> _SHIFT
    return out


def _words_u64(state: np.ndarray) -> np.ndarray:
    """(2n, rows) uint32 words as (rows, n) uint64 words, low word first,
    as generate_state(n, np.uint64) joins them; each row C-contiguous."""
    high = state[1::2].astype(np.uint64) << np.uint64(32)
    return np.ascontiguousarray((high | state[0::2]).T)


def trial_generators(master_seed: int, lo: int, hi: int) -> list:
    """The generators of trials lo..hi-1, in the states that
    default_rng(trial_seed_for(master_seed, i)) gives each: the span's
    trial seeds hashed from (master_seed, i) in one pass, and their PCG64
    seed words from those in a second."""
    _check_seed(master_seed)
    master_seed = int(master_seed)
    index = np.arange(lo, hi, dtype=np.uint64)
    # [master_seed's words, i's low word, i's high word]: numpy's words of
    # [master_seed, i], as a high word of zero hashes as none
    words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = np.empty((len(words) + 2, hi - lo), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-2] = index & np.uint64(_MASK32)
    entropy[-1] = index >> np.uint64(32)
    # a trial seed's two words are its entropy in turn: low, then high
    seeds = _seed_state(entropy, 2)
    seed_words = seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(w)))
            for w in _words_u64(_seed_state(seeds, 8))]


def run_single_trial(spec: StrategySpec, config: SearchConfig,
                     trial_seed: int) -> TrialRecord:
    """One trial with its own generator, reproducible from the seed alone
    (`_check_seed`, then `strategies.check_run`)."""
    _check_seed(trial_seed)
    rng = np.random.default_rng(trial_seed)
    return run_strategy(spec, config, rng, trial_seed)


def _block_rows(m: int) -> int:
    """Rows of a lockstep block over m cells."""
    return max(1, min(BLOCK_ROWS, BLOCK_CELLS // m))


def _run_span(spec: StrategySpec, config: SearchConfig, master_seed: int,
              lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, tau_stage1, success) of trials lo..hi-1, in lockstep blocks."""
    taus, tau1s = np.empty(hi - lo), np.empty(hi - lo)
    success = np.empty(hi - lo, dtype=bool)
    rows = _block_rows(config.M)
    for first in range(lo, hi, rows):
        last = min(first + rows, hi)
        tau, tau1, ok, _ = run_rows(spec, config,
                                    trial_generators(master_seed, first, last), first)
        taus[first - lo:last - lo] = tau
        tau1s[first - lo:last - lo] = tau1
        success[first - lo:last - lo] = ok
    return taus, tau1s, success


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool of max_workers processes,
    imported on the first call: the import loads multiprocessing (with
    logging, socket and queue), which a batch on one worker never uses."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_trials(spec: StrategySpec, config: SearchConfig, n_trials: int,
               master_seed: int, workers: int = 1) -> SummaryStats:
    """Run a batch of independent trials and summarize.

    The 95% confidence half-width uses the normal approximation; a single
    trial gets half-width 0 and batches under 100 trials are flagged
    LowSample.  workers > 1 runs min(workers, cpu count, n_trials)
    contiguous chunks in processes; the reduction is in trial order either
    way, so the output is identical to a serial run.  Counts, seed and run
    (`_check_count`, `_check_seed`, `check_run`) are checked before any
    worker starts.
    """
    _check_count("n_trials", n_trials, 1, MAX_TRIALS)
    _check_count("workers", workers, 1)
    _check_seed(master_seed)
    check_run(spec, config)
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
    fixed-composition or sorted-PM dynamics: the first n_steps increments
    of runs 0, 1, ... in order, each run a search from the uniform prior
    to its stopping threshold that draws from its own generator, seeded
    with trial_seed_for(seed, r) for run r.

    The runs go as the rows of lockstep blocks of the engine
    (`_drift_runs`), so the report does not depend on a block's rows or on
    the chunk.  The first block is one run; each later one holds about as
    many runs as the steps left need, at the mean length of the runs so
    far, and at most twice the runs of the block before: one long run early
    on does not size a block of rows that then step past the steps left.
    Of each run only its step count and the sums of its increments and of
    their squares are kept, and they are added up in run order: the memory
    does not grow with n_steps.  The run that the n_steps-th increment
    falls in is counted up to it: a block cuts it there (`_drift_runs`),
    unless a run before it still steps, and it is then the next block's
    first run.  Sums past the floats, at a vanishing variance, raise
    ValidationError after the block that reached them; before any draw,
    n_steps (`_check_count`), a prior where no run steps, 1/M >= 1 - eps
    (`strategies.prior_steps`), the seed and the run (`check_run`).

    The report carries the matching capacity floor: C(q*, v(q*)) for fixed
    composition, C(1/2, v(M/2)) for sorted-PM.  Terminal increments are
    included; the drift guarantee applies to every posterior state, so
    the empirical mean should sit at or above the floor.
    """
    if kind not in (FIXED_COMPOSITION, SORTED_PM):
        raise ValidationError(f"drift probe supports fixed_composition or sorted_pm, got {kind!r}")
    _check_count("n_steps", n_steps, MIN_DRIFT_STEPS, STEP_LIMIT)
    m = config.M
    if not prior_steps(m, config.epsilon):
        raise ValidationError(f"drift probe needs 1/M < 1 - epsilon: at M={m}, "
                              f"epsilon={config.epsilon!r} no run takes a step")
    _check_seed(seed)
    check_run(StrategySpec(kind), config)

    if kind == FIXED_COMPOSITION:
        _, floor = optimal_composition(config)
    else:
        floor = bawgn_capacity(0.5, config.noise_variance(m / 2.0))

    total = total_sq = 0.0
    # increments counted, runs counted, runs of the last block
    counted = first = rows = 0
    while counted < n_steps:
        left = n_steps - counted
        # the runs that left steps take at the mean length so far, rounded up
        rows = 1 if first == 0 else min(DRIFT_ROWS, _block_rows(m), 2 * rows,
                                        -(-left * first // counted))
        for t, a, b in zip(*(x.tolist() for x in
                             _drift_runs(kind, config, seed, first, rows, left))):
            if counted + t > n_steps:  # cut past the last increment read
                break  # it is the next block's first run, cut on that increment
            total += a
            total_sq += b
            counted += t
            first += 1
        if not math.isfinite(total_sq):  # a sum past the floats puts a square past it
            raise ValidationError(f"the drift's sums at sigma2={config.sigma2!r} are "
                                  f"out of floating-point range")
    mean = total / n_steps
    se = math.sqrt(max(0.0, (total_sq - total * mean) / (n_steps - 1)) / n_steps)
    return DriftReport(strategy_id=kind, n_steps=n_steps, mean_drift=mean,
                       se=se, capacity_floor=floor)


def _drift_runs(kind: str, config: SearchConfig, seed: int, first: int,
                n: int, budget: int) -> tuple:
    """Drift runs first..first+n-1 as the rows of one lockstep block of the
    engine (`strategies._search`) under the kind's probe rule, in windows
    of one step.  After every step a reader takes U of every live row from
    its sums, and cuts a row once its steps and those of the rows before it
    reach budget, as none of its later increments can then be read: the
    first row is cut on its budget-th increment.  Each row's steps, U and
    sums are kept over the block's rows, at the live ids that the engine
    passes.  Returns per row its steps and the sums of its increments of U
    and of their squares, each a float added to a row's sum one step at a
    time, as the row gets alone."""
    m = config.M
    # per row of the block, indexed by the engine's live ids: its steps, U
    # and its sums
    taken = np.zeros(n, dtype=np.int64)
    u_prev = np.full(n, u_log_probs(np.full(m, -math.log(m))))
    sums, squares = np.zeros(n), np.zeros(n)

    def read(live, lp, weights):
        taken[live] += 1
        shifted = lp - lp.max(axis=1, keepdims=True)
        if weights is None:
            weights = np.exp(shifted)
        s = weights.sum(axis=1)
        # math.log per row, not np.log, which may differ from libm in the
        # last bit: a row's U must not depend on its block
        u = u_log_probs(shifted - np.array([math.log(x) for x in s.tolist()])[:, None])
        d = u - u_prev[live]
        u_prev[live] = u
        with np.errstate(over="ignore"):  # refused by drift_probe
            sums[live] += d
            squares[live] += d * d
        # the steps of all rows bound those of the rows up to any live one
        if taken.sum() < budget:
            return None
        return np.cumsum(taken)[live] >= budget

    draws = Draws(trial_generators(seed, first, first + n),
                  picks=kind == FIXED_COMPOSITION, max_window=1)
    _search(m, probe_rule(kind, config), draw_targets(draws.gens, m),
            config.epsilon, draws, kind, None, read)
    return taken, sums, squares
