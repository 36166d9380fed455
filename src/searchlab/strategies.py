"""Search strategies: probe rules, stopping rules and complete trial runners.

Each runner simulates one full search: draw the target, take measurements
until the stopping rule fires, and report the stopping time tau together
with whether the final estimate found the target.

Every strategy runs on one engine, `_search`: a rule maps the
log-posteriors, and its own per-row state, to probed sets and their noise
variances, each observation is folded in by Bayes' rule, and the rule's
stop retires a row; fixed composition, sorted-PM and exhaustive search
stop once one cell holds posterior mass 1 - eps.  The engine runs trials
in lockstep: `run_rows` takes one generator per trial, keeps their
posteriors as the rows of one (rows, size) array, advances every live row
by one probe per step and retires rows as they stop.  A non-adaptive rule
(fixed composition, exhaustive), whose probe sets do not depend on the
posterior, hands over a window of steps at once, as (rows, w, size)
masks: the engine gathers the window's hits and computes its
log-likelihood ratios in one pass, and each step then only adds them,
renormalizes and tests the stop.  An adaptive rule has windows of one
step.  Each row makes the draws, in the same order, and the arithmetic of
a trial run alone, whatever the window.  `run_strategy` is the batch of
one, a one-row block, and a block's last live row stays a row of it, so
the engine has one code path.  Two-stage
search chains two searches.  The two bisection strategies are one stateful
rule, `_bisection_rule`: each row narrows its own window of the posterior,
reads each half's mass from one cell, since every cell of a half holds the
same value, and stops level by level; a fixed level is one step of many
observations folded into one update.

Every draw from a trial generator is made here, through a block's `Draws`:
targets (`draw_targets`), then observations, one or a fixed level's many
per row (`observe`).  One normal a step is read from a chunk of CHUNK
drawn in one call, the same floats as one call each.  Fixed composition
draws its probe sets from a second stream per trial, derived from the
trial generator before the target draw without drawing from it, a chunk
of steps at a time (`pick_cells`).  A window ends where a chunk does, so
a record does not depend on the chunk or the window.  `sim.drift_probe`
runs the same rules on a one-row block, with chunks, and so windows, of
one step.

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
# update_log_probs is unused here but stays bound: bench/tracer.py patches it.
from .inference import renormalize_log_probs, update_log_probs
from .model import SearchConfig, TrialRecord, sections_from_alpha

STEP_LIMIT = 10_000_000
# Steps of normals a row draws in one call; of picks too, up to CHUNK_CELLS
# cells a call over all rows.
CHUNK = 64
CHUNK_CELLS = 1 << 16

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


def pick_cells(gens: list, grid: int, k: int, steps: int) -> np.ndarray:
    """Each generator's probe sets for `steps` steps, (rows, steps, k) cells
    of range(grid): per step the first k entries of a partial Fisher-Yates
    shuffle, whose swap i exchanges entries i and i + integers(grid - i).
    A generator draws all its steps in one call, the same values and state
    as steps * k calls."""
    highs = np.tile(grid - np.arange(k), steps)  # one bound a draw, in order
    j = np.stack([g.integers(0, highs) for g in gens]).ravel()
    n = j.size
    col = np.tile(np.arange(k), n // k)  # each draw's swap i
    starts = np.arange(0, n, k)          # where each shuffle's draws start
    base = starts.repeat(k)
    j += col                             # swap i exchanges entries i and j >= i
    # Every shuffle is run at once on one flat table: an entry for each of
    # its entries below k, and one for each distinct entry >= k that it
    # swaps with, found as the first of a run of equal j in sorted order.
    order = np.argsort(j.reshape(-1, k), axis=1, kind="stable").ravel() + base
    ranked = j[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    first[::k] = True
    slot = np.empty(n, dtype=np.int64)
    slot[order] = np.where(ranked < k, base + ranked, n - 1 + np.cumsum(first))
    slot = slot.reshape(-1, k)
    table = np.concatenate((col, ranked[first]))
    for i in range(k):
        at, here = slot[:, i], starts + i
        cell = table[at]
        table[at] = table[here]
        table[here] = cell
    return table[:n].reshape(len(gens), steps, k)


def random_composition_mask(size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random k-subset of [0, size) as a boolean mask, drawn by a
    partial Fisher-Yates shuffle (k draws from the stream).  k = 0 and
    k = size short circuit to the empty and the all-ones mask with no
    draws."""
    mask = np.zeros(size, dtype=bool)
    if k >= size:
        mask[:] = True
    elif k > 0:
        mask[pick_cells([rng], size, k, 1)[0, 0]] = True
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


class Draws:
    """The random draws of a block's live rows, each row from its own trial
    generator, gens, in row order.

    A row reads its normals from a chunk of normal_chunk (default CHUNK)
    that it draws in one call once the last is read; carry holds, per row,
    normals to read before its first chunk.  A window of steps ends where
    the chunk does (`window`); `ahead` gives its normals and the engine
    marks them read a step at a time, so a row that retires keeps the
    normals it did not reach in spare, indexed by its row in the block,
    for a second stage to read first.  A fixed level's normals are drawn
    when observed, so a rule observes one or the other.  With picks, each
    row also gets a picks stream, derived from the trial generator's state
    now, before the target draw, without drawing from it; `pick` reads a
    window's probe sets from a chunk of at most CHUNK steps that every row
    draws at once, at most CHUNK_CELLS cells in all."""

    def __init__(self, gens: list, picks: bool = False,
                 normal_chunk: int | None = None, carry: list | None = None):
        self.gens = list(gens)
        self.rows = np.arange(len(self.gens))
        self.chunk = CHUNK if normal_chunk is None else normal_chunk
        self.normals = np.empty((self.chunk, len(self.gens)))  # (steps, rows)
        self.read = self.chunk
        self.carry = carry
        self.spare = [np.empty(0)] * len(self.gens)
        self.pickers = ([np.random.Generator(g.bit_generator.jumped())
                         for g in self.gens] if picks else [])
        self.picks = np.empty((len(self.gens), 0, 0), dtype=np.int64)
        self.picked = 0

    def _fill(self) -> None:
        """Draw each live row's next chunk of normals once the last is read."""
        if self.read < self.chunk:
            return
        for i, (row, g) in enumerate(zip(self.rows.tolist(), self.gens)):
            head = self.carry[row].size if self.carry else 0
            if head:
                self.normals[:head, i] = self.carry[row]
            self.normals[head:, i] = g.standard_normal(self.chunk - head)
        self.carry = None
        self.read = 0

    def window(self, cells: int) -> int:
        """Steps in the next window of probe masks of `cells` cells a row:
        to the end of the normal chunk, at most CHUNK_CELLS mask cells over
        all rows, and at least one step."""
        self._fill()
        return max(1, min(self.chunk - self.read,
                          CHUNK_CELLS // (len(self.gens) * cells)))

    def ahead(self, steps: int) -> np.ndarray:
        """The normals of each live row's next `steps` steps, (steps, rows),
        not yet marked read."""
        self._fill()
        return self.normals[self.read:self.read + steps]

    def pick(self, grid: int, k: int) -> np.ndarray:
        """A window's probe sets of k cells per live row, as (rows, w, grid)
        masks; the window also ends where the chunk of picks does."""
        rows = len(self.pickers)
        if self.picked == self.picks.shape[1]:
            steps = max(1, min(CHUNK, CHUNK_CELLS // (rows * k)))
            self.picks = pick_cells(self.pickers, grid, k, steps)
            self.picked = 0
        w = min(self.window(grid), self.picks.shape[1] - self.picked)
        cells = self.picks[:, self.picked:self.picked + w].reshape(rows * w, k)
        self.picked += w
        masks = np.zeros((rows * w, grid), dtype=bool)
        masks[np.arange(rows * w)[:, None], cells] = True
        return masks.reshape(rows, w, grid)

    def retire(self, done: np.ndarray) -> None:
        """Drop the rows that done marks, keeping their unread normals."""
        for row, rest in zip(self.rows[done].tolist(),
                             self.normals[self.read:, done].T):
            self.spare[row] = rest
        keep = ~done
        self.rows, self.normals = self.rows[keep], self.normals[:, keep]
        self.picks = self.picks[keep]
        flags = keep.tolist()
        self.gens = [g for g, f in zip(self.gens, flags) if f]
        self.pickers = [g for g, f in zip(self.pickers, flags) if f]


def draw_targets(gens: list, m: int) -> np.ndarray:
    """Each row's target, uniform on [0, m): one draw from its generator."""
    return np.array([int(g.integers(m)) for g in gens], dtype=np.int64)


def observe(hit: np.ndarray, v, draws: Draws,
            reps: np.ndarray | None = None) -> np.ndarray:
    """Log-likelihood ratios (2y - 1)/(2v), (w, rows), of each live row's
    observations y = hit + sd z over a window of w steps, given the hits
    (w, rows) and one variance v for all rows or one a row.  z are the
    rows' next normals (`Draws.ahead`); with reps (w = 1), reps[i] normals
    that row i draws now, whose ratios are summed into one."""
    sd = np.sqrt(v)
    if reps is None:
        # flat arithmetic, cheaper than 2-D on a few rows: v is one value,
        # or one a row in a window of one step
        y = hit.ravel() + sd * draws.ahead(hit.shape[0]).ravel()
        return ((2.0 * y - 1.0) / (2.0 * v)).reshape(hit.shape)
    return np.array([[((2.0 * (h + s * g.standard_normal(r)) - 1.0) / (2.0 * w)).sum()
                      for h, s, w, r, g in zip(hit[0].tolist(), sd.tolist(), v.tolist(),
                                               reps.tolist(), draws.gens)]])


def fold(lp: np.ndarray, masks: np.ndarray, llr: np.ndarray,
         draws: Draws) -> np.ndarray:
    """One step's Bayes update of the block lp in place: add each row's
    log-likelihood ratio llr on its probed cells, masks (rows, size),
    renormalize, and mark the step's normals read.  Returns the row
    maxima of the renormalized block."""
    np.add(lp, llr[:, None], out=lp, where=masks)
    draws.read += 1
    return renormalize_log_probs(lp)


def _search(size: int, rule, targets, eps: float, draws: Draws, label: str,
            first_trial: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep search: one row per target, drawing from that row of draws,
    each probing `size` cells from a uniform prior until its rule stops
    it.

    A rule is a pair (probe, settle), the one extension point for a new
    kind, stateless or with per-row state (a balanced design's round, a
    sort order carried between steps, a bisection window).
    probe(lp, step, draws) -> (masks, variances, reps) maps the live rows'
    log posteriors lp (rows, size), and the rule's own per-row state, to
    the probed sets of a window of w steps, masks (rows, w, size), and
    their noise variances.  A non-adaptive rule, whose sets do not depend
    on lp, hands over a window sized by draws (`Draws.window`), reading
    each live row's picks from draws; an adaptive rule has w = 1.  reps is
    None for one observation per row a step, else each row's count of
    observations, folded into one update (w = 1).  settle(lp, tops) ->
    which rows retire, given the row maxima tops after a step's update; it
    drops the retiring rows from the rule's state.  settle None is the
    threshold stop: a row retires once one cell holds posterior mass
    1 - eps, and starts only if the uniform prior holds less.  A rule with
    its own settle starts every row when size > 1.  A row's steps are its
    observations; a step that would take a row past STEP_LIMIT raises
    before it is observed, so a fixed level's normals are never drawn past
    it.

    The window's hits and log-likelihood ratios are computed at once; each
    step then folds its ratios in, tests the stop and retires rows.  A
    target outside [0, size) is never hit (a failed first stage): that
    row still stops, on a wrong cell.  Each row sees the same draws and
    arithmetic as if it ran alone, whatever the window.  Returns per-row
    (steps, MAP cell, final max posterior) arrays."""
    probe, settle = rule
    targets = np.asarray(targets, dtype=np.int64)
    n = targets.size
    log_thresh = math.log1p(-eps)
    start = -math.log(size)
    steps = np.zeros(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    top = np.full(n, start)
    starts = size > 1 and (settle is not None or start < log_thresh)
    live = np.arange(n if starts else 0)
    taken = np.zeros(n, dtype=np.int64)  # each live row's observations, with reps
    lp = np.full((n, size), start)
    on_grid = (targets >= 0) & (targets < size)
    hit_cell = np.where(on_grid, targets, 0)
    at = np.arange(live.size)
    step = 0
    while live.size:
        masks, v, reps = probe(lp, step, draws)
        if reps is None:  # every live row has observed once a step
            w = min(masks.shape[1], STEP_LIMIT - step)
            over = 0 if w == 0 else None
        else:
            w = 1
            taken += reps
            over = (int(np.argmax(taken > STEP_LIMIT))
                    if taken.max() > STEP_LIMIT else None)
        if over is not None:
            raise _step_limit(label, first_trial, int(live[over]))
        llr = observe(masks[at, :, hit_cell].T & on_grid, v, draws, reps)
        for j in range(w):
            row_top = fold(lp, masks[:, j], llr[j], draws)
            step += 1
            done = row_top >= log_thresh if settle is None else settle(lp, row_top)
            if done.any():
                ended = live[done]
                steps[ended] = step if reps is None else taken[done]
                top[ended] = row_top[done]
                cells[ended] = lp[done].argmax(axis=1)
                keep = ~done
                live, lp, taken = live[keep], lp[keep], taken[keep]
                masks, llr = masks[keep], llr[:, keep]
                at = at[:live.size]
                hit_cell, on_grid = hit_cell[keep], on_grid[keep]
                draws.retire(done)
                if not live.size:
                    break
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

    def probe(lp, step, draws):
        return draws.pick(grid, k), v, None
    return probe, None


def _sorted_pm_rule(config: SearchConfig):
    """Adaptive rule: the top cells holding about half the posterior mass."""
    variances = np.concatenate(([math.nan], probe_variances(config)))

    def probe(lp, step, draws):
        masks, k = sorted_pm_mask(np.exp(lp))
        return masks[:, None], variances[k], None
    return probe, None


def _round_robin_rule(config: SearchConfig):
    """Single cells in turn: 0, 1, ..., M-1, 0, ...; every row probes the
    same cell, so a window's masks are one (w, M) table seen by all rows."""
    m = config.M
    v = config.noise_variance(1)

    def probe(lp, step, draws):
        w = draws.window(m)
        masks = np.zeros((w, m), dtype=bool)
        masks[np.arange(w), (step + np.arange(w)) % m] = True
        return np.broadcast_to(masks, (lp.shape[0], w, m)), v, None
    return probe, None


def probe_rule(kind: str, config: SearchConfig):
    """The (probe, settle) rule of a threshold kind (fixed_composition,
    sorted_pm or exhaustive) over all M cells."""
    if kind == FIXED_COMPOSITION:
        return _composition_rule(config, config.M, 1)
    if kind == SORTED_PM:
        return _sorted_pm_rule(config)
    return _round_robin_rule(config)


# Per-row outcome of a batch: (tau, tau_stage1, success, final_max_prob).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _one_stage(config: SearchConfig, rule, draws: Draws, label: str,
               first_trial: int | None) -> Rows:
    """Draw each row's target uniformly from [0, M), then search all M
    cells at the config's epsilon."""
    targets = draw_targets(draws.gens, config.M)
    steps, cells, pmax = _search(config.M, rule, targets, config.epsilon, draws,
                                 label, first_trial)
    return steps, np.zeros_like(steps), cells == targets, pmax


def _two_stage_rows(config: SearchConfig, s: int, rngs: list,
                    first_trial: int | None = None) -> Rows:
    """Two-stage search over s >= 2 sections (alpha = 1/s, s dividing M):
    stage 1 runs fixed composition over the s sections at reliability
    eps/2, stage 2 runs sorted-PM inside the winning section, again at
    eps/2, first reading each row's normals left over from stage 1."""
    section = config.M // s
    eps_half = config.epsilon / 2.0
    stage1 = Draws(rngs, picks=True)
    targets = draw_targets(stage1.gens, config.M)
    t1, sec_hat, p1 = _search(s, _composition_rule(config, s, section),
                              targets // section, eps_half, stage1,
                              FIXED_COMPOSITION, first_trial)
    start = sec_hat * section
    t2, idx, p2 = _search(section, _sorted_pm_rule(config), targets - start,
                          eps_half, Draws(rngs, carry=stage1.spare), SORTED_PM,
                          first_trial)
    # a singleton section takes no stage-2 step; stage 1 holds the final posterior
    return t1 + t2, t1, start + idx == targets, p2 if section > 1 else p1


def _row_record(label: str, rows: Rows, trial_seed: int) -> TrialRecord:
    """TrialRecord of the first (in a batch of one, the only) row."""
    tau, tau_stage1, success, max_prob = (a[0] for a in rows)
    return TrialRecord(strategy_id=label, tau=int(tau), tau_stage1=int(tau_stage1),
                       success=bool(success), trial_seed=trial_seed,
                       final_max_prob=float(max_prob))


def _repeats(v: float, z: float | None) -> int:
    """Observations per level: 1 for sequential levels, else
    max(1, ceil(4 v z^2))."""
    return 1 if z is None else max(1, math.ceil(4.0 * v * z * z))


def _level(config: SearchConfig, z: float | None, lo: int, hi: int) -> tuple:
    """A level on the window [lo, hi), uniform when the level starts: the
    end mid of its probed first half [lo, mid), that half's repetitions and
    v, and the log cell counts of the two halves."""
    h1 = (hi - lo + 1) // 2
    v = config.noise_variance(h1)
    return lo + h1, _repeats(v, z), v, math.log(h1), math.log(hi - lo - h1)


def _bisection_rule(config: SearchConfig, fixed: bool, n: int):
    """Bisection over n rows, each narrowing a window [lo, hi) of its
    posterior from [0, M) to one cell; the engine then reports the MAP
    cell.  A level probes the window's first half [lo, mid), which takes
    the odd cell, and ends by moving the window into the half that holds
    more mass, the first on ties.

    Sequential levels: a step is one observation per row, and a row's
    level ends once its favoured half holds a share >= 1 - epsilon/log2(M)
    of the window's mass.  Fixed levels: a step is a whole level of
    r = max(1, ceil(4 v z^2)) observations per row, folded into one update
    (its threshold is -inf, so every level ends); z = Q^{-1}(epsilon/log2
    M), so that one level errs with probability at most epsilon/log2 M.

    Windows nest, the prior is uniform, and an update adds the same llr,
    shift and clamp to every cell of a half, so every cell of a half holds
    the same float.  A window is therefore uniform when its level starts,
    and its first half holds at least as much mass as the second: that is
    the half worth probing.  A half's log mass is its first cell plus
    log(cells), bit for bit what summing its cells gives."""
    m = config.M
    if m == 1:  # no row starts (see _search): log2(M) and _level(0, 1) are undefined
        return None, None
    share = config.epsilon / math.log2(m)
    z = max(0.0, gaussian_tail_inverse(share)) if fixed else None
    log_thresh = -math.inf if fixed else math.log1p(-min(share, 0.5))
    half, r, *level = _level(config, z, 0, m)
    # per row, one allocation each for the integer and the float state
    # (retiring rows takes one index each): the window [lo, hi) and
    # _level's mid and repetitions; _level's v and log cell counts
    ints = np.array([[0], [m], [half], [r]]).repeat(n, 1)
    flts = np.array(level)[:, None].repeat(n, 1)
    lo, hi, mid, reps = ints
    var, log_h1, log_h2 = flts
    masks = np.zeros((n, m), dtype=bool)
    masks[:, :half] = True
    at, cols = np.arange(n), np.arange(m)

    def probe(lp, step, draws):
        return masks[:, None], var, reps if fixed else None

    def settle(lp, tops):
        nonlocal ints, flts, lo, hi, mid, reps, var, log_h1, log_h2, masks, at
        first = lp[at, lo] + log_h1
        second = lp[at, mid] + log_h2
        ends = np.maximum(first, second) - np.logaddexp(first, second) >= log_thresh
        if not ends.any():
            return ends
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
            masks[moved] = (cols >= w_lo[:, None]) & (cols < mid[moved][:, None])
        if done.any():
            keep = ~done
            ints, flts, masks = ints[:, keep], flts[:, keep], masks[keep]
            lo, hi, mid, reps = ints
            var, log_h1, log_h2 = flts
            at = at[:lo.size]
        return done
    return probe, settle


def run_rows(spec: StrategySpec, config: SearchConfig, rngs: list,
             first_trial: int | None = None) -> Rows:
    """Run one trial per generator at the config's epsilon, all in lockstep,
    and return per-row (tau, tau_stage1, success, final_max_prob) arrays.
    Every row's record equals run_strategy on its generator alone.  With
    first_trial set, a StepLimitExceeded names the lowest row that reached
    the limit as trial first_trial + row."""
    if spec.kind == TWO_STAGE:
        return _two_stage_rows(config, sections_from_alpha(spec.alpha, config.M),
                               rngs, first_trial)
    if spec.kind in (NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE):
        rule = _bisection_rule(config, spec.kind == NOISY_BINARY_FIXED, len(rngs))
    else:
        rule = probe_rule(spec.kind, config)
    draws = Draws(rngs, picks=spec.kind == FIXED_COMPOSITION)
    return _one_stage(config, rule, draws, spec.kind, first_trial)


def run_strategy(spec: StrategySpec, config: SearchConfig,
                 rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Run one trial of the given strategy at the config's epsilon: the
    batch of one."""
    return _row_record(spec.label(), run_rows(spec, config, [rng]), trial_seed)
