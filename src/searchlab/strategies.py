"""Search strategies: probe rules, stopping rules and complete trial runners.

Each runner simulates one full search: draw the target, take measurements
until the stopping rule fires, and report the stopping time tau together
with whether the final estimate found the target.

Fixed composition, sorted-PM and exhaustive search share one engine,
`_search`: a probe rule maps the log-posterior to a probed set and its
noise variance, each observation is folded in by Bayes' rule, and the
search stops once one cell holds posterior mass 1 - eps.  Two-stage search
chains two such searches.  The bisection strategies stop level by level
instead and keep their own loops.

Strategies
----------
fixed_composition   non-adaptive probe sets of optimal composition q*
sorted_pm           adaptive: probe the top cells holding ~1/2 posterior mass
two_stage           fixed composition over coarse sections, then sorted-PM
                    inside the winning section
noisy_binary_fixed  bisection with a precomputed per-level repetition count
noisy_binary_variable  bisection with sequential per-level stopping
exhaustive          cycle through single cells until one cell dominates
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import gaussian_tail_inverse, optimal_composition
from .errors import InvalidAlpha, StepLimitExceeded
from .inference import renormalize_log_probs, update_log_probs
from .model import SearchConfig, TrialRecord, sections_from_alpha

STEP_LIMIT = 10_000_000

FIXED_COMPOSITION = "fixed_composition"
SORTED_PM = "sorted_pm"
TWO_STAGE = "two_stage"
NOISY_BINARY_FIXED = "noisy_binary_fixed"
NOISY_BINARY_VARIABLE = "noisy_binary_variable"
EXHAUSTIVE = "exhaustive"

KINDS = (FIXED_COMPOSITION, SORTED_PM, TWO_STAGE,
         NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE, EXHAUSTIVE)


@dataclass(frozen=True)
class StrategySpec:
    """Which strategy to run; two_stage additionally needs the section
    fraction alpha = 1/s."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == TWO_STAGE:
            if self.alpha is None:
                raise ValueError("two_stage requires alpha")
            sections_from_alpha(self.alpha)  # validate the 1/s shape early

    def label(self) -> str:
        if self.kind == TWO_STAGE:
            return f"two_stage(alpha=1/{sections_from_alpha(self.alpha)})"
        return self.kind


def random_composition_mask(size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random k-subset of [0, size) as a boolean mask, drawn by a
    partial Fisher-Yates shuffle (k draws from the stream).  k = size short
    circuits to the all-ones mask with no draws."""
    mask = np.zeros(size, dtype=bool)
    if k >= size:
        mask[:] = True
        return mask
    arr = np.arange(size)
    for i in range(k):
        j = i + int(rng.integers(size - i))
        arr[i], arr[j] = arr[j], arr[i]
    mask[arr[:k]] = True
    return mask


def sorted_pm_mask(probs: np.ndarray) -> tuple[np.ndarray, int]:
    """Probe mask of the sorted-PM rule.

    Sort cells by posterior descending (stable, so ties keep ascending
    index), then probe the shortest prefix whose cumulative mass is closest
    to 1/2; ties in the distance pick the smaller prefix.
    """
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    k = int(np.argmin(np.abs(csum - 0.5))) + 1
    mask = np.zeros(probs.size, dtype=bool)
    mask[order[:k]] = True
    return mask, k


def _check_step_limit(steps: int, label: str):
    if steps >= STEP_LIMIT:
        raise StepLimitExceeded(f"{label} exceeded {STEP_LIMIT} steps")


def _observe(lp: np.ndarray, mask: np.ndarray, hit: bool, v: float,
             rng: np.random.Generator):
    """Draw y = 1{hit} + N(0, v) for the probed mask and fold it into lp."""
    y = (1.0 if hit else 0.0) + rng.normal(0.0, math.sqrt(v))
    update_log_probs(lp, mask, y, v)


def _search(size: int, probe, target: int, eps: float,
            rng: np.random.Generator, label: str) -> tuple[int, int, float]:
    """Probe `size` cells from a uniform prior until one holds posterior
    mass 1 - eps.  probe(lp, step) -> (mask, variance) is the probe rule.  A
    target outside [0, size) is never hit (a failed first stage): the search
    still stops at its threshold, on a wrong cell.  Returns
    (steps, MAP cell, final max posterior)."""
    log_thresh = math.log1p(-eps)
    lp = np.full(size, -math.log(size))
    steps = 0
    while lp.max() < log_thresh:
        _check_step_limit(steps, label)
        mask, v = probe(lp, steps)
        _observe(lp, mask, 0 <= target < size and mask[target], v, rng)
        steps += 1
    idx = int(np.argmax(lp))
    return steps, idx, float(math.exp(lp[idx]))


def _composition_rule(config: SearchConfig, grid: int, cells_per_unit: int,
                      rng: np.random.Generator):
    """Non-adaptive rule over `grid` units of cells_per_unit cells each: a
    uniformly random set of round(q* grid) units, clamped to [1, grid-1]."""
    k = 1
    if grid > 1:
        q_star, _ = optimal_composition(config)
        k = min(max(int(round(q_star * grid)), 1), grid - 1)
    v = config.noise_variance(k * cells_per_unit)
    return lambda lp, step: (random_composition_mask(grid, k, rng), v)


def _sorted_pm_rule(config: SearchConfig):
    """Adaptive rule: the top cells holding about half the posterior mass."""
    def probe(lp, step):
        mask, k = sorted_pm_mask(np.exp(lp))
        return mask, config.noise_variance(k)
    return probe


def _round_robin_rule(config: SearchConfig):
    """Single cells in turn: 0, 1, ..., M-1, 0, ..."""
    cells, v = np.arange(config.M), config.noise_variance(1)
    return lambda lp, step: (cells == step % config.M, v)


def _record(label: str, tau: int, cell: int, target: int, max_prob: float,
            trial_seed: int, tau_stage1: int = 0) -> TrialRecord:
    return TrialRecord(strategy_id=label, tau=tau, tau_stage1=tau_stage1,
                       success=cell == target, trial_seed=trial_seed,
                       final_max_prob=max_prob)


def run_fixed_composition(config: SearchConfig, grid: int, eps_stage: float,
                          rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Complete non-adaptive search over `grid` equal sections of the domain
    (grid = M probes single cells).  grid must divide M."""
    if grid < 1 or config.M % grid != 0:
        raise ValueError(f"grid {grid} does not divide M = {config.M}")
    target = int(rng.integers(grid))
    rule = _composition_rule(config, grid, config.M // grid, rng)
    steps, idx, pmax = _search(grid, rule, target, eps_stage, rng, FIXED_COMPOSITION)
    return _record(FIXED_COMPOSITION, steps, idx, target, pmax, trial_seed)


def run_sorted_pm(config: SearchConfig, window: range, eps_stage: float,
                  rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Complete sorted-PM search over a contiguous cell window."""
    start, size = window.start, len(window)
    if size < 1 or start < 0 or start + size > config.M or window.step != 1:
        raise ValueError(f"window {window} is not a contiguous block in [0, {config.M})")
    target = int(rng.integers(size))
    steps, idx, pmax = _search(size, _sorted_pm_rule(config), target, eps_stage,
                               rng, SORTED_PM)
    return _record(SORTED_PM, steps, idx, target, pmax, trial_seed)


def run_two_stage(config: SearchConfig, alpha: float, rng: np.random.Generator,
                  trial_seed: int = 0) -> TrialRecord:
    """Two-stage search: stage 1 runs fixed composition over 1/alpha coarse
    sections at reliability eps/2; stage 2 runs sorted-PM inside the winning
    section, again at eps/2.  alpha must be 1/s with s dividing M, s >= 2."""
    s = sections_from_alpha(alpha)
    if config.M % s != 0:
        raise InvalidAlpha(f"1/alpha = {s} does not divide M = {config.M}")
    section = config.M // s
    eps_half = config.epsilon / 2.0
    target = int(rng.integers(config.M))
    t1, sec_hat, p1 = _search(s, _composition_rule(config, s, section, rng),
                              target // section, eps_half, rng, FIXED_COMPOSITION)
    start = sec_hat * section
    t2, idx, p2 = _search(section, _sorted_pm_rule(config), target - start,
                          eps_half, rng, SORTED_PM)
    # a singleton section takes no stage-2 step; stage 1 holds the final posterior
    return _record(f"two_stage(alpha=1/{s})", t1 + t2, start + idx, target,
                   p2 if section > 1 else p1, trial_seed, tau_stage1=t1)


def _logsumexp_slice(lp: np.ndarray, lo: int, hi: int) -> float:
    seg = lp[lo:hi]
    m = seg.max()
    return float(m + math.log(np.exp(seg - m).sum()))


def _halves(lp: np.ndarray, lo: int, hi: int) -> tuple[tuple[int, int], float]:
    """Split the window [lo, hi) in two (the first half takes the odd cell)
    and return the half holding more posterior mass, the first on ties,
    with that half's log share of the window's mass."""
    mid = lo + (hi - lo + 1) // 2
    first, second = _logsumexp_slice(lp, lo, mid), _logsumexp_slice(lp, mid, hi)
    share = max(first, second) - np.logaddexp(first, second)
    return ((lo, mid) if first >= second else (mid, hi)), share


def run_noisy_binary_fixed(config: SearchConfig, rng: np.random.Generator,
                           trial_seed: int = 0) -> TrialRecord:
    """Bisection with fixed per-level repetition.

    Each level probes the half-window with higher posterior mass and repeats
    the measurement r times, r = max(1, ceil(4 v z^2)) with
    z = Q^{-1}(epsilon / log2 M), so that a single level errs with
    probability at most epsilon / log2 M.  The r observations are folded
    into one posterior update.  Recurses into the higher-posterior half.
    """
    m = config.M
    if m == 1:
        return _record(NOISY_BINARY_FIXED, 0, 0, 0, 1.0, trial_seed)
    z = max(0.0, gaussian_tail_inverse(config.epsilon / math.log2(m)))
    target = int(rng.integers(m))
    lp = np.full(m, -math.log(m))
    lo, hi = 0, m
    steps = 0
    while hi - lo > 1:
        _check_step_limit(steps, NOISY_BINARY_FIXED)
        (p_lo, p_hi), _ = _halves(lp, lo, hi)
        v = config.noise_variance(p_hi - p_lo)
        r = max(1, math.ceil(4.0 * v * z * z))
        x = 1.0 if p_lo <= target < p_hi else 0.0
        ys = x + rng.normal(0.0, math.sqrt(v), size=r)
        # r log-likelihood ratios collapse into one additive update
        lp[p_lo:p_hi] += float(np.sum((2.0 * ys - 1.0) / (2.0 * v)))
        renormalize_log_probs(lp)
        steps += r
        (lo, hi), _ = _halves(lp, lo, hi)
    idx = int(np.argmax(lp))
    return _record(NOISY_BINARY_FIXED, steps, idx, target, math.exp(lp[idx]),
                   trial_seed)


def run_noisy_binary_variable(config: SearchConfig, rng: np.random.Generator,
                              trial_seed: int = 0) -> TrialRecord:
    """Bisection with sequential per-level stopping.

    Each level repeatedly probes the half-window favored at level start and
    updates after every observation, until one half holds a fraction
    >= 1 - epsilon/log2(M) of the posterior mass within the window; the
    search then recurses into that half.
    """
    m = config.M
    if m == 1:
        return _record(NOISY_BINARY_VARIABLE, 0, 0, 0, 1.0, trial_seed)
    eps_level = config.epsilon / math.log2(m)
    log_thresh = math.log1p(-min(eps_level, 0.5))
    target = int(rng.integers(m))
    lp = np.full(m, -math.log(m))
    steps = 0
    lo, hi = 0, m
    while hi - lo > 1:
        (p_lo, p_hi), _ = _halves(lp, lo, hi)
        v = config.noise_variance(p_hi - p_lo)
        mask = np.zeros(m, dtype=bool)
        mask[p_lo:p_hi] = True
        share = -math.inf
        while share < log_thresh:
            _check_step_limit(steps, NOISY_BINARY_VARIABLE)
            _observe(lp, mask, p_lo <= target < p_hi, v, rng)
            steps += 1
            half, share = _halves(lp, lo, hi)
        lo, hi = half
    idx = int(np.argmax(lp))
    return _record(NOISY_BINARY_VARIABLE, steps, idx, target, math.exp(lp[idx]),
                   trial_seed)


def run_exhaustive(config: SearchConfig, rng: np.random.Generator,
                   trial_seed: int = 0) -> TrialRecord:
    """Round-robin single-cell probes until one cell reaches 1 - epsilon."""
    target = int(rng.integers(config.M))
    steps, idx, pmax = _search(config.M, _round_robin_rule(config), target,
                               config.epsilon, rng, EXHAUSTIVE)
    return _record(EXHAUSTIVE, steps, idx, target, pmax, trial_seed)


def run_strategy(spec: StrategySpec, config: SearchConfig,
                 rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Run one trial of the given strategy at the config's epsilon."""
    if spec.kind == FIXED_COMPOSITION:
        return run_fixed_composition(config, config.M, config.epsilon, rng, trial_seed)
    if spec.kind == SORTED_PM:
        return run_sorted_pm(config, range(config.M), config.epsilon, rng, trial_seed)
    if spec.kind == TWO_STAGE:
        return run_two_stage(config, spec.alpha, rng, trial_seed)
    if spec.kind == NOISY_BINARY_FIXED:
        return run_noisy_binary_fixed(config, rng, trial_seed)
    if spec.kind == NOISY_BINARY_VARIABLE:
        return run_noisy_binary_variable(config, rng, trial_seed)
    return run_exhaustive(config, rng, trial_seed)
