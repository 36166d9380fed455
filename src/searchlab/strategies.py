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
alone.  `run_strategy` is the batch of one, a one-row block, and a block's
last live row stays a row of it, so each engine has one code path.
Two-stage search chains two such searches.  The two bisection strategies
stop level by level instead; they share a second lockstep loop, `_bisect`,
in which each row narrows its own window of the posterior and reads each
half's mass from one cell, since every cell of a half holds the same value.

Fixed composition picks its probe sets by a partial Fisher-Yates shuffle
whose draws, `_below`, read the bit generator's 32-bit words directly and
apply numpy's own bounded rule for Generator.integers: the same picks and
the same generator state as calling integers, so the random stream is
unchanged, at a fraction of the per-call cost.

Every trial-generator draw is made here: targets (`draw_targets`),
observations (`observe`), probe sets and fixed bisection levels
(`_level_llr`); `sim.drift_probe` runs the same rules on a one-row block.

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
from .errors import StepLimitExceeded, ValidationError
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
            raise ValidationError(f"unknown strategy kind {self.kind!r}")
        if self.kind == TWO_STAGE:
            if self.alpha is None:
                raise ValidationError("two_stage requires alpha")
            sections_from_alpha(self.alpha)  # validate the 1/s shape early
        elif self.alpha is not None:
            raise ValidationError(
                f"'alpha' is only valid for two_stage, not {self.kind!r}")

    def label(self) -> str:
        if self.kind == TWO_STAGE:
            return f"two_stage(alpha=1/{sections_from_alpha(self.alpha)})"
        return self.kind


def _below(n: int, nxt, state) -> int:
    """A uniform draw from [0, n), 2 <= n < 2**32, by numpy's bounded rule
    for Generator.integers(n) (Lemire's multiply-and-reject over 32-bit
    words): the same value and the same generator state, without the cost
    of a Generator call.  nxt and state are the bit generator's ctypes
    next_uint32 and state."""
    m = nxt(state) * n
    if m & 0xFFFFFFFF < n:  # threshold < n, so only then can m be rejected
        threshold = (0x100000000 - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = nxt(state) * n
    return m >> 32


def _partial_shuffle(size: int, k: int, rng: np.random.Generator) -> list[int]:
    """The first k entries of a partial Fisher-Yates shuffle of range(size),
    one draw each, the value rng.integers(size - i) would give (`_below`);
    swapped entries are kept in a dict, so the cost is O(k) whatever the
    size."""
    words = rng.bit_generator.ctypes
    nxt, state = words.next_uint32, words.state
    moved: dict[int, int] = {}
    cells = []
    for i in range(k):
        j = i + _below(size - i, nxt, state)
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


def draw_targets(rngs: list, m: int) -> np.ndarray:
    """Each row's target, uniform on [0, m): one draw from its generator."""
    return np.array([int(g.integers(m)) for g in rngs], dtype=np.int64)


def observe(lp: np.ndarray, masks: np.ndarray, hit, sd, v, gens: list) -> np.ndarray:
    """Fold one observation y = hit + sd z per row into the block lp in
    place, z one standard normal from the row's generator; returns the row
    maxima of `update_log_probs`."""
    z = np.array([g.standard_normal() for g in gens])
    return update_log_probs(lp, masks, hit + sd * z, v)


def _search(size: int, probe, targets, eps: float, rngs: list, label: str,
            first_trial: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep search: one row per generator, each probing `size` cells
    from a uniform prior until one cell holds posterior mass 1 - eps.

    probe(lp, step, gens) -> (masks, variances) is the probe rule over the
    live rows' log posteriors lp (rows, size); it may draw from each live
    row's generator before that row's one normal.  A target outside
    [0, size) is never hit (a failed first stage): that row still stops at
    its threshold, on a wrong cell.  Rows that cross the threshold retire;
    each row sees the same draws and arithmetic as if it ran alone.  Returns
    per-row (steps, MAP cell, final max posterior) arrays."""
    n = len(rngs)
    log_thresh = math.log1p(-eps)
    start = -math.log(size)
    steps = np.zeros(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    top = np.full(n, start)
    live = np.arange(n if start < log_thresh else 0)
    lp = np.full((n, size), start)
    targets = np.asarray(targets, dtype=np.int64)
    on_grid = (targets >= 0) & (targets < size)
    hit_cell = np.where(on_grid, targets, 0)
    gens = list(rngs)
    step = 0
    while live.size:
        if step >= STEP_LIMIT:
            raise _step_limit(label, first_trial, int(live[0]))
        masks, v = probe(lp, step, gens)
        hit = masks[np.arange(live.size), hit_cell] & on_grid
        row_top = observe(lp, masks, hit, np.sqrt(v), v, gens)
        step += 1
        done = row_top >= log_thresh
        if done.any():
            ended = live[done]
            steps[ended] = step
            top[ended] = row_top[done]
            cells[ended] = lp[done].argmax(axis=1)
            keep = ~done
            live, lp = live[keep], lp[keep]
            hit_cell, on_grid = hit_cell[keep], on_grid[keep]
            gens = [g for g, d in zip(gens, done.tolist()) if not d]
    # math.exp per row, not np.exp, which may differ from libm in the last
    # bit: final_max_prob is kept bit for bit
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
        # flat indices into the (rows, grid) block, row after row
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


def probe_rule(kind: str, config: SearchConfig):
    """The probe rule of a one-stage kind (fixed_composition, sorted_pm or
    exhaustive) over all M cells."""
    if kind == FIXED_COMPOSITION:
        return _composition_rule(config, config.M, 1)
    if kind == SORTED_PM:
        return _sorted_pm_rule(config)
    return _round_robin_rule(config)


# Per-row outcome of a batch: (tau, tau_stage1, success, final_max_prob).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _one_stage(config: SearchConfig, probe, rngs: list, label: str,
               first_trial: int | None) -> Rows:
    """Draw each row's target uniformly from [0, M), then search all M
    cells at the config's epsilon."""
    targets = draw_targets(rngs, config.M)
    steps, cells, pmax = _search(config.M, probe, targets, config.epsilon, rngs,
                                 label, first_trial)
    return steps, np.zeros_like(steps), cells == targets, pmax


def _two_stage_rows(config: SearchConfig, s: int, rngs: list,
                    first_trial: int | None = None) -> Rows:
    """Two-stage search over s >= 2 sections (alpha = 1/s, s dividing M):
    stage 1 runs fixed composition over the s sections at reliability
    eps/2, stage 2 runs sorted-PM inside the winning section, again at
    eps/2."""
    section = config.M // s
    eps_half = config.epsilon / 2.0
    targets = draw_targets(rngs, config.M)
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


def _level_llr(hit: bool, v: float, r: int, rng: np.random.Generator) -> float:
    """Summed log-likelihood ratio of r observations 1{hit} + N(0, v)."""
    ys = (1.0 if hit else 0.0) + rng.normal(0.0, math.sqrt(v), size=r)
    return float(((2.0 * ys - 1.0) / (2.0 * v)).sum())


def _repeats(v: float, z: float | None) -> int:
    """Observations per level: 1 for sequential levels, else
    max(1, ceil(4 v z^2))."""
    return 1 if z is None else max(1, math.ceil(4.0 * v * z * z))


def _level(config: SearchConfig, z: float | None, lo: int, hi: int) -> tuple:
    """A level on the window [lo, hi), uniform when the level starts: the
    end mid of its probed first half [lo, mid), that half's repetitions, v
    and sqrt(v), and the log cell counts of the two halves."""
    h1 = (hi - lo + 1) // 2
    v = config.noise_variance(h1)
    return lo + h1, _repeats(v, z), v, math.sqrt(v), math.log(h1), math.log(hi - lo - h1)


def _bisect(config: SearchConfig, rngs: list, z: float | None, label: str,
            first_trial: int | None) -> Rows:
    """Lockstep bisection: one row per generator, each narrowing a window
    [lo, hi) of its posterior from [0, M) to one cell, then reporting the
    MAP cell.  A level probes the window's first half [lo, mid), which
    takes the odd cell, and ends by moving the window into the half that
    holds more mass, the first on ties.

    z None, sequential levels: an iteration is one observation per live
    row, and a row's level ends once its favoured half holds a share
    >= 1 - epsilon/log2(M) of the window's mass.  z set, fixed levels: an
    iteration is a whole level of r = max(1, ceil(4 v z^2)) observations
    per row, folded into one update (its threshold is -inf, so every level
    ends); z = Q^{-1}(epsilon/log2 M), so that one level errs with
    probability at most epsilon/log2 M.

    Windows nest, the prior is uniform, and an update adds the same llr,
    shift and clamp to every cell of a half, so every cell of a half holds
    the same float.  A window is therefore uniform when its level starts,
    and its first half holds at least as much mass as the second: that is
    the half worth probing.  A half's log mass is its first cell plus
    log(cells), bit for bit what summing its cells gives.  Each row makes
    the draws and the arithmetic of a trial run alone."""
    m, n = config.M, len(rngs)
    steps = np.zeros(n, dtype=np.int64)
    if m == 1:  # found before any probe or draw
        return steps, steps.copy(), np.ones(n, dtype=bool), np.ones(n)
    log_thresh = (math.log1p(-min(config.epsilon / math.log2(m), 0.5))
                  if z is None else -math.inf)
    targets = draw_targets(rngs, m)
    cells, top = np.zeros(n, dtype=np.int64), np.zeros(n)
    half, r, *level = _level(config, z, 0, m)
    # per live row, one allocation each for the integer and the float state
    # (retiring rows takes one index each): the window [lo, hi), _level's
    # mid and repetitions, observations taken, target and whether the probed
    # half holds it; _level's v, sqrt(v) and log cell counts
    ints = np.array([[0], [m], [half], [r], [0], [0], [0]]).repeat(n, 1)
    ints[5], ints[6] = targets, targets < half
    flts = np.array(level)[:, None].repeat(n, 1)
    lo, hi, mid, reps, taken, tgt, hit = ints
    var, sd, log_h1, log_h2 = flts
    lp = np.full((n, m), -math.log(m))
    masks = np.zeros((n, m), dtype=bool)
    masks[:, :half] = True
    live, gens, at, cols = np.arange(n), list(rngs), np.arange(n), np.arange(m)
    step = 0
    while live.size:
        if z is None:
            if step >= STEP_LIMIT:
                raise _step_limit(label, first_trial, int(live[0]))
        elif taken.max() >= STEP_LIMIT:
            over = np.argmax(taken >= STEP_LIMIT)
            raise _step_limit(label, first_trial, int(live[over]))
        step += 1
        if z is None:
            observe(lp, masks, hit, sd, var, gens)
        else:
            llr = np.array([_level_llr(*args) for args in
                            zip(hit.tolist(), var.tolist(), reps.tolist(), gens)])
            np.add(lp, llr[:, None], out=lp, where=masks)
            renormalize_log_probs(lp)
            taken += reps
        first = lp[at, lo] + log_h1
        second = lp[at, mid] + log_h2
        ends = np.maximum(first, second) - np.logaddexp(first, second) >= log_thresh
        if not ends.any():
            continue
        to_first = first >= second
        np.copyto(lo, mid, where=ends & ~to_first)
        np.copyto(hi, mid, where=ends & to_first)
        done = hi - lo == 1
        moved = (ends & ~done).nonzero()[0]
        if moved.size:  # these rows start a level
            w_lo = lo[moved]
            levels = np.array([_level(config, z, a, b) for a, b in
                               zip(w_lo.tolist(), hi[moved].tolist())]).T
            ints[2:4, moved], flts[:, moved] = levels[:2], levels[2:]
            b = mid[moved]
            hit[moved] = (w_lo <= tgt[moved]) & (tgt[moved] < b)
            masks[moved] = (cols >= w_lo[:, None]) & (cols < b[:, None])
        if done.any():
            ended = live[done]
            steps[ended] = step if z is None else taken[done]
            finished = lp[done]
            cells[ended] = best = finished.argmax(axis=1)
            top[ended] = finished[np.arange(best.size), best]
            keep = ~done
            live, lp, masks = live[keep], lp[keep], masks[keep]
            ints, flts = ints[:, keep], flts[:, keep]
            lo, hi, mid, reps, taken, tgt, hit = ints
            var, sd, log_h1, log_h2 = flts
            gens = [g for g, gone in zip(gens, done.tolist()) if not gone]
            at = at[:live.size]
    # math.exp per row, as in _search
    return (steps, np.zeros_like(steps), cells == targets,
            np.array([math.exp(t) for t in top.tolist()]))


def run_rows(spec: StrategySpec, config: SearchConfig, rngs: list,
             first_trial: int | None = None) -> Rows:
    """Run one trial per generator at the config's epsilon, all in lockstep,
    and return per-row (tau, tau_stage1, success, final_max_prob) arrays.
    Every row's record equals run_strategy on its generator alone.  With
    first_trial set, a StepLimitExceeded names the lowest row that reached
    the limit as trial first_trial + row."""
    m = config.M
    if spec.kind in (FIXED_COMPOSITION, SORTED_PM, EXHAUSTIVE):
        return _one_stage(config, probe_rule(spec.kind, config), rngs, spec.kind,
                          first_trial)
    if spec.kind == TWO_STAGE:
        return _two_stage_rows(config, sections_from_alpha(spec.alpha, m), rngs,
                               first_trial)
    z = None
    if spec.kind == NOISY_BINARY_FIXED and m > 1:
        z = max(0.0, gaussian_tail_inverse(config.epsilon / math.log2(m)))
    return _bisect(config, rngs, z, spec.kind, first_trial)


def run_strategy(spec: StrategySpec, config: SearchConfig,
                 rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Run one trial of the given strategy at the config's epsilon: the
    batch of one."""
    return _row_record(spec.label(), run_rows(spec, config, [rng]), trial_seed)
