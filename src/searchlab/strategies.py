"""Search strategies: probe rules, stopping rules and complete trial runners.

Each runner simulates one full search: draw the target, take measurements
until the stopping rule fires, and report the stopping time tau together
with whether the final estimate found the target.

Fixed composition, sorted-PM and exhaustive search share one engine,
`_search`: a probe rule maps the log-posteriors to probed sets and their
noise variances, each observation is folded in by Bayes' rule, and a
search stops once one cell holds posterior mass 1 - eps.  The engine runs
trials in lockstep: `run_rows` takes one generator per trial, keeps their
posteriors as the rows of one (rows, size) array, advances every live row
by one probe per step and retires rows as they cross the threshold.  Each
row makes the draws, in the same order, and the arithmetic of a trial run
alone, so `run_strategy` is simply the batch of one.  Two-stage search
chains two such searches.  The two bisection strategies stop level by
level instead; they share a second lockstep loop, `_bisect`, in which each
row narrows its own window of the posterior.

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

from .channel import gaussian_tail_inverse, optimal_composition, probe_variances
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


def _partial_shuffle(size: int, k: int, rng: np.random.Generator) -> list[int]:
    """The first k entries of a partial Fisher-Yates shuffle of range(size),
    one scalar draw each; swapped entries are kept in a dict, so the cost is
    O(k) whatever the size."""
    moved: dict[int, int] = {}
    cells = []
    for i in range(k):
        j = i + int(rng.integers(size - i))
        cells.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return cells


def random_composition_mask(size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random k-subset of [0, size) as a boolean mask, drawn by a
    partial Fisher-Yates shuffle (k draws from the stream).  k = size short
    circuits to the all-ones mask with no draws."""
    mask = np.zeros(size, dtype=bool)
    if k >= size:
        mask[:] = True
    else:
        mask[_partial_shuffle(size, k, rng)] = True
    return mask


def sorted_pm_mask(probs: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """Probe mask of the sorted-PM rule.

    Sort cells by posterior descending (stable, so ties keep ascending
    index), then probe the shortest prefix whose cumulative mass is closest
    to 1/2; ties in the distance pick the smaller prefix.  A (rows, size)
    array is handled row by row, and k is then an array of prefix lengths.
    """
    order = np.argsort(-probs, axis=-1, kind="stable")
    mask = np.zeros(probs.shape, dtype=bool)
    if probs.ndim == 1:
        csum = np.cumsum(probs[order])
        k = int(np.argmin(np.abs(csum - 0.5))) + 1
        mask[order[:k]] = True
        return mask, k
    rows = np.arange(probs.shape[0])[:, None]
    csum = np.cumsum(probs[rows, order], axis=1)
    k = np.argmin(np.abs(csum - 0.5), axis=1) + 1
    mask[rows, order] = np.arange(probs.shape[1]) < k[:, None]
    return mask, k


def _step_limit(label: str, first_trial: int | None = None,
                row: int = 0) -> StepLimitExceeded:
    where = "" if first_trial is None else f"trial {first_trial + row}: "
    return StepLimitExceeded(f"{where}{label} exceeded {STEP_LIMIT} steps")


def _search(size: int, probe, targets, eps: float, rngs: list, label: str,
            first_trial: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep search: one row per generator, each probing `size` cells
    from a uniform prior until one cell holds posterior mass 1 - eps.

    probe(lp, step, gens) -> (masks, variances) is the probe rule over the
    live rows' log posteriors lp (rows, size); it may draw from each live
    row's generator before that row's one normal.  A target outside
    [0, size) is never hit (a failed first stage): that row still stops at
    its threshold, on a wrong cell.  Rows that cross the threshold retire;
    each row sees the same draws and arithmetic as if it ran alone.  A lone
    row (a batch of one, or the last live row of a block) is kept as a 1-D
    posterior: the same arithmetic, without the per-call cost of 2-D numpy
    operations on one row.  Returns per-row (steps, MAP cell, final max
    posterior) arrays."""
    n = len(rngs)
    log_thresh = math.log1p(-eps)
    start = -math.log(size)
    steps = np.zeros(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    top = np.full(n, start)
    live = np.arange(n if start < log_thresh else 0)
    lp = np.full((n, size) if n > 1 else size, start)
    targets = np.asarray(targets, dtype=np.int64)
    on_grid = (targets >= 0) & (targets < size)
    hit_cell = np.where(on_grid, targets, 0)
    gens = list(rngs)
    step = 0
    while live.size:
        if step >= STEP_LIMIT:
            raise _step_limit(label, first_trial, int(live[0]))
        masks, v = probe(lp, step, gens)
        if lp.ndim == 1:
            hit = masks[hit_cell[0]] and on_grid[0]
            y = (1.0 if hit else 0.0) + math.sqrt(v) * gens[0].standard_normal()
        else:
            hit = masks[np.arange(live.size), hit_cell] & on_grid
            y = hit + np.sqrt(v) * np.array([g.standard_normal() for g in gens])
        row_top = update_log_probs(lp, masks, y, v)
        step += 1
        done = row_top >= log_thresh
        if lp.ndim == 1:
            if done:
                row = live[0]
                steps[row], top[row], cells[row] = step, row_top, np.argmax(lp)
                break
        elif done.any():
            ended = live[done]
            steps[ended] = step
            top[ended] = row_top[done]
            cells[ended] = lp[done].argmax(axis=1)
            keep = ~done
            live, lp = live[keep], lp[keep]
            hit_cell, on_grid = hit_cell[keep], on_grid[keep]
            gens = [g for g, d in zip(gens, done.tolist()) if not d]
            if live.size == 1:
                lp = lp[0]
    # math.exp per row, as a lone trial computes it (np.exp may differ in
    # the last bit)
    return steps, cells, np.array([math.exp(t) for t in top.tolist()])


def _composition_rule(config: SearchConfig, grid: int, cells_per_unit: int):
    """Non-adaptive rule over `grid` units of cells_per_unit cells each: a
    uniformly random set of round(q* grid) units, clamped to [1, grid-1].
    Never probed for grid = 1: one unit is found before any probe."""
    k = 1
    if grid > 1:
        q_star, _ = optimal_composition(config)
        k = min(max(int(round(q_star * grid)), 1), grid - 1)
    v = config.noise_variance(k * cells_per_unit)

    def probe(lp, step, gens):
        masks = np.zeros(lp.shape, dtype=bool)
        # flat indices, so one row (1-D) and a block (2-D) are set alike
        masks.ravel()[[row * grid + c for row, g in enumerate(gens)
                       for c in _partial_shuffle(grid, k, g)]] = True
        return masks, v
    return probe


def _sorted_pm_rule(config: SearchConfig):
    """Adaptive rule: the top cells holding about half the posterior mass."""
    variances = np.concatenate(([math.nan], probe_variances(config)))

    def probe(lp, step, gens):
        masks, k = sorted_pm_mask(np.exp(lp))
        return masks, variances[k]
    return probe


def _round_robin_rule(config: SearchConfig):
    """Single cells in turn: 0, 1, ..., M-1, 0, ..."""
    v = config.noise_variance(1)

    def probe(lp, step, gens):
        masks = np.zeros(lp.shape, dtype=bool)
        masks[..., step % config.M] = True
        return masks, v
    return probe


# Per-row outcome of a batch: (tau, tau_stage1, success, final_max_prob).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _one_stage(size: int, probe, eps: float, rngs: list, label: str,
               first_trial: int | None = None) -> Rows:
    """Draw each row's target uniformly from [0, size), then search."""
    targets = np.array([int(g.integers(size)) for g in rngs], dtype=np.int64)
    steps, cells, pmax = _search(size, probe, targets, eps, rngs, label, first_trial)
    return steps, np.zeros_like(steps), cells == targets, pmax


def _two_stage_rows(config: SearchConfig, s: int, rngs: list,
                    first_trial: int | None = None) -> Rows:
    section = config.M // s
    eps_half = config.epsilon / 2.0
    targets = np.array([int(g.integers(config.M)) for g in rngs], dtype=np.int64)
    t1, sec_hat, p1 = _search(s, _composition_rule(config, s, section),
                              targets // section, eps_half, rngs,
                              FIXED_COMPOSITION, first_trial)
    start = sec_hat * section
    t2, idx, p2 = _search(section, _sorted_pm_rule(config), targets - start,
                          eps_half, rngs, SORTED_PM, first_trial)
    # a singleton section takes no stage-2 step; stage 1 holds the final posterior
    return t1 + t2, t1, start + idx == targets, p2 if section > 1 else p1


def _row_record(label: str, rows: Rows, trial_seed: int) -> TrialRecord:
    """TrialRecord of the first (in a batch of one, the only) row."""
    tau, tau_stage1, success, max_prob = (a[0] for a in rows)
    return TrialRecord(strategy_id=label, tau=int(tau), tau_stage1=int(tau_stage1),
                       success=bool(success), trial_seed=trial_seed,
                       final_max_prob=float(max_prob))


def run_fixed_composition(config: SearchConfig, grid: int, eps_stage: float,
                          rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Complete non-adaptive search over `grid` equal sections of the domain
    (grid = M probes single cells).  grid must divide M."""
    if grid < 1 or config.M % grid != 0:
        raise ValueError(f"grid {grid} does not divide M = {config.M}")
    rule = _composition_rule(config, grid, config.M // grid)
    rows = _one_stage(grid, rule, eps_stage, [rng], FIXED_COMPOSITION)
    return _row_record(FIXED_COMPOSITION, rows, trial_seed)


def run_sorted_pm(config: SearchConfig, window: range, eps_stage: float,
                  rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Complete sorted-PM search over a contiguous cell window."""
    start, size = window.start, len(window)
    if size < 1 or start < 0 or start + size > config.M or window.step != 1:
        raise ValueError(f"window {window} is not a contiguous block in [0, {config.M})")
    rows = _one_stage(size, _sorted_pm_rule(config), eps_stage, [rng], SORTED_PM)
    return _row_record(SORTED_PM, rows, trial_seed)


def _sections(config: SearchConfig, alpha: float) -> int:
    s = sections_from_alpha(alpha)
    if config.M % s != 0:
        raise InvalidAlpha(f"1/alpha = {s} does not divide M = {config.M}")
    return s


def run_two_stage(config: SearchConfig, alpha: float, rng: np.random.Generator,
                  trial_seed: int = 0) -> TrialRecord:
    """Two-stage search: stage 1 runs fixed composition over 1/alpha coarse
    sections at reliability eps/2; stage 2 runs sorted-PM inside the winning
    section, again at eps/2.  alpha must be 1/s with s dividing M, s >= 2."""
    s = _sections(config, alpha)
    return _row_record(f"two_stage(alpha=1/{s})", _two_stage_rows(config, s, [rng]),
                       trial_seed)


def _logsumexp_slice(lp: np.ndarray, lo: int, hi: int) -> float:
    seg = lp[lo:hi]
    m = seg.max()
    return float(m + math.log(np.exp(seg - m).sum()))


def _logsumexp_rows(seg: np.ndarray) -> list[float]:
    """_logsumexp_slice of every slice along the last axis, flattened."""
    m = seg.max(axis=-1)
    sums = np.exp(seg - m[..., None]).sum(axis=-1)
    return [a + math.log(s) for a, s in zip(m.ravel().tolist(), sums.ravel().tolist())]


def _half_logsums(lp: np.ndarray, lo: int, hi: int) -> list[float]:
    """Log posterior mass of the two halves of the window [lo, hi); the
    first half takes the odd cell."""
    if (hi - lo) % 2:
        mid = lo + (hi - lo + 1) // 2
        return [_logsumexp_slice(lp, lo, mid), _logsumexp_slice(lp, mid, hi)]
    return _logsumexp_rows(lp[lo:hi].reshape(2, -1))


def _halves(lp: np.ndarray, lo: int, hi: int) -> tuple[tuple[int, int], float]:
    """Split the window [lo, hi) in two and return the half holding more
    posterior mass, the first on ties, with that half's log share of the
    window's mass."""
    first, second = _half_logsums(lp, lo, hi)
    share = max(first, second) - np.logaddexp(first, second)
    mid = lo + (hi - lo + 1) // 2
    return ((lo, mid) if first >= second else (mid, hi)), share


def _block_halves(lp: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_halves of every row of a (rows, size) block on its own window
    [lo, hi): per-row (half lo, half hi, share) arrays.  Rows are grouped by
    window length and each half is summed over its own contiguous cells, so
    every sum is the pairwise sum a lone row computes (a masked full-width
    sum, or np.add.reduceat, would group the additions differently)."""
    length = hi - lo
    first, second = np.empty(lo.size), np.empty(lo.size)
    starts = lo + lp.shape[1] * np.arange(lo.size)  # in the flattened block
    for size in set(length.tolist()):
        rows = (length == size).nonzero()[0]
        if rows.size == 1:  # cheaper as a lone row
            row = int(rows[0])
            first[row], second[row] = _half_logsums(lp[row], int(lo[row]), int(hi[row]))
            continue
        win = lp.ravel()[starts[rows][:, None] + np.arange(size)]
        h = (size + 1) // 2
        if size % 2:
            first[rows] = _logsumexp_rows(win[:, :h])
            second[rows] = _logsumexp_rows(win[:, h:])
        else:
            both = _logsumexp_rows(win.reshape(-1, 2, h))
            first[rows], second[rows] = both[0::2], both[1::2]
    share = np.maximum(first, second) - np.logaddexp(first, second)
    mid = lo + (length + 1) // 2
    take_first = first >= second
    return np.where(take_first, lo, mid), np.where(take_first, mid, hi), share


def _level_llr(hit: bool, v: float, r: int, rng: np.random.Generator) -> float:
    """Summed log-likelihood ratio of r observations 1{hit} + N(0, v)."""
    ys = (1.0 if hit else 0.0) + rng.normal(0.0, math.sqrt(v), size=r)
    return float(((2.0 * ys - 1.0) / (2.0 * v)).sum())


def _repeats(v: float, z: float | None) -> int:
    """Observations per level: 1 for sequential levels, else
    max(1, ceil(4 v z^2))."""
    return 1 if z is None else max(1, math.ceil(4.0 * v * z * z))


def _bisect(config: SearchConfig, rngs: list, z: float | None, label: str,
            first_trial: int | None) -> Rows:
    """Lockstep bisection: one row per generator, each narrowing a window
    [lo, hi) of its posterior from [0, M) to one cell, then reporting the
    MAP cell.  A level probes the half of the window that holds more mass
    when the level starts (_halves) and ends by moving the window into the
    half that holds more mass then.

    z None, sequential levels: an iteration is one observation per live
    row, and a row's level ends once its favoured half holds a share
    >= 1 - epsilon/log2(M) of the window's mass.  z set, fixed levels: an
    iteration is a whole level of r = max(1, ceil(4 v z^2)) observations
    per row, folded into one update.  Each row makes the draws and the
    arithmetic of a trial run alone.  A lone row (a batch of one, or the
    last live row of a block) keeps a 1-D posterior, as in _search, and its
    level as Python scalars."""
    m, n = config.M, len(rngs)
    steps = np.zeros(n, dtype=np.int64)
    if m == 1:  # found before any probe or draw
        return steps, steps.copy(), np.ones(n, dtype=bool), np.ones(n)
    log_thresh = (math.log1p(-min(config.epsilon / math.log2(m), 0.5))
                  if z is None else -math.inf)
    targets = np.array([int(g.integers(m)) for g in rngs], dtype=np.int64)
    cells, top = np.zeros(n, dtype=np.int64), np.zeros(n)
    # on the uniform prior the first half, which takes the odd cell, holds
    # at least as much mass as the second: every row probes it first
    half = (m + 1) // 2
    v = config.noise_variance(half)
    # per live row: window, probed half, its repetitions and variance,
    # observations taken, target and generator (one allocation for the
    # integer state keeps a batch of one cheap)
    state = np.array([[0], [m], [0], [half], [_repeats(v, z)]]).repeat(n, 1)
    lo, hi, p_lo, p_hi, reps = state
    var = np.full(n, v)
    taken, tgt, live, gens = steps.copy(), targets, np.arange(n), list(rngs)
    lp = np.full((n, m) if n > 1 else m, -math.log(m))
    cols = np.arange(m)
    lone = None  # the lone row's probed half, v, r, window and hit
    step = 0
    while live.size:
        if z is None:
            if step >= STEP_LIMIT:
                raise _step_limit(label, first_trial, int(live[0]))
        elif (taken[0] if lp.ndim == 1 else taken.max()) >= STEP_LIMIT:
            over = np.argmax(taken >= STEP_LIMIT)
            raise _step_limit(label, first_trial, int(live[over]))
        step += 1
        if lp.ndim == 1:
            if lone is None:
                a, b = int(p_lo[0]), int(p_hi[0])
                lone = (a, b, float(var[0]), int(reps[0]), int(lo[0]), int(hi[0]),
                        bool(a <= tgt[0] < b))
            a, b, v, r, w_lo, w_hi, hit = lone
            if z is None:
                y = (1.0 if hit else 0.0) + math.sqrt(v) * gens[0].standard_normal()
                update_log_probs(lp, slice(a, b), y, v)
            else:
                lp[a:b] += _level_llr(hit, v, r, gens[0])
                renormalize_log_probs(lp)
                taken += r
            (w_lo, w_hi), share = _halves(lp, w_lo, w_hi)
            if share < log_thresh:
                continue
            if w_hi - w_lo > 1:  # the next level
                (a, b), _ = _halves(lp, w_lo, w_hi)
                v = config.noise_variance(b - a)
                lone = (a, b, v, _repeats(v, z), w_lo, w_hi, bool(a <= tgt[0] < b))
                continue
            row = live[0]
            steps[row] = step if z is None else taken[0]
            cells[row] = np.argmax(lp)
            top[row] = lp[cells[row]]
            break
        hit = (p_lo <= tgt) & (tgt < p_hi)
        masks = (cols >= p_lo[:, None]) & (cols < p_hi[:, None])
        if z is None:
            y = hit + np.sqrt(var) * np.array([g.standard_normal() for g in gens])
            update_log_probs(lp, masks, y, var)
        else:
            llr = np.array([_level_llr(*args) for args in
                            zip(hit.tolist(), var.tolist(), reps.tolist(), gens)])
            np.add(lp, llr[:, None], out=lp, where=masks)
            renormalize_log_probs(lp)
            taken += reps
        h_lo, h_hi, share = _block_halves(lp, lo, hi)
        ends = share >= log_thresh
        if not ends.any():
            continue
        lo, hi = np.where(ends, h_lo, lo), np.where(ends, h_hi, hi)
        done = hi - lo == 1
        moved = (ends & ~done).nonzero()[0]
        if moved.size:  # these rows start a level: pick its probed half
            p_lo[moved], p_hi[moved], _ = _block_halves(lp[moved], lo[moved],
                                                        hi[moved])
            var[moved] = [config.noise_variance(k)
                          for k in (p_hi[moved] - p_lo[moved]).tolist()]
            reps[moved] = [_repeats(v, z) for v in var[moved].tolist()]
        if done.any():
            ended = live[done]
            steps[ended] = step if z is None else taken[done]
            finished = lp[done]
            cells[ended] = best = finished.argmax(axis=1)
            top[ended] = finished[np.arange(best.size), best]
            keep = ~done
            live, lp, tgt, taken = live[keep], lp[keep], tgt[keep], taken[keep]
            lo, hi, p_lo, p_hi = lo[keep], hi[keep], p_lo[keep], p_hi[keep]
            var, reps = var[keep], reps[keep]
            gens = [g for g, d in zip(gens, done.tolist()) if not d]
            if live.size == 1:
                lp = lp[0]
    # math.exp per row, as in _search
    return (steps, np.zeros_like(steps), cells == targets,
            np.array([math.exp(t) for t in top.tolist()]))


def run_noisy_binary_fixed(config: SearchConfig, rng: np.random.Generator,
                           trial_seed: int = 0) -> TrialRecord:
    """Bisection with fixed per-level repetition.

    Each level probes the half-window with higher posterior mass and repeats
    the measurement r times, r = max(1, ceil(4 v z^2)) with
    z = Q^{-1}(epsilon / log2 M), so that a single level errs with
    probability at most epsilon / log2 M.  The r observations are folded
    into one posterior update.  Recurses into the higher-posterior half.
    """
    return run_strategy(StrategySpec(NOISY_BINARY_FIXED), config, rng, trial_seed)


def run_noisy_binary_variable(config: SearchConfig, rng: np.random.Generator,
                              trial_seed: int = 0) -> TrialRecord:
    """Bisection with sequential per-level stopping.

    Each level repeatedly probes the half-window favored at level start and
    updates after every observation, until one half holds a fraction
    >= 1 - epsilon/log2(M) of the posterior mass within the window; the
    search then recurses into that half.
    """
    return run_strategy(StrategySpec(NOISY_BINARY_VARIABLE), config, rng, trial_seed)


def run_exhaustive(config: SearchConfig, rng: np.random.Generator,
                   trial_seed: int = 0) -> TrialRecord:
    """Round-robin single-cell probes until one cell reaches 1 - epsilon."""
    return run_strategy(StrategySpec(EXHAUSTIVE), config, rng, trial_seed)


def run_rows(spec: StrategySpec, config: SearchConfig, rngs: list,
             first_trial: int | None = None) -> Rows:
    """Run one trial per generator at the config's epsilon, all in lockstep,
    and return per-row (tau, tau_stage1, success, final_max_prob) arrays.
    Every row's record equals run_strategy on its generator alone.  With
    first_trial set, a StepLimitExceeded names the lowest row that reached
    the limit as trial first_trial + row."""
    m, eps = config.M, config.epsilon
    if spec.kind == FIXED_COMPOSITION:
        return _one_stage(m, _composition_rule(config, m, 1), eps, rngs,
                          FIXED_COMPOSITION, first_trial)
    if spec.kind == SORTED_PM:
        return _one_stage(m, _sorted_pm_rule(config), eps, rngs, SORTED_PM,
                          first_trial)
    if spec.kind == EXHAUSTIVE:
        return _one_stage(m, _round_robin_rule(config), eps, rngs, EXHAUSTIVE,
                          first_trial)
    if spec.kind == TWO_STAGE:
        return _two_stage_rows(config, _sections(config, spec.alpha), rngs,
                               first_trial)
    z = None
    if spec.kind == NOISY_BINARY_FIXED and m > 1:
        z = max(0.0, gaussian_tail_inverse(eps / math.log2(m)))
    return _bisect(config, rngs, z, spec.kind, first_trial)


def run_strategy(spec: StrategySpec, config: SearchConfig,
                 rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Run one trial of the given strategy at the config's epsilon: the
    batch of one."""
    return _row_record(spec.label(), run_rows(spec, config, [rng]), trial_seed)
