"""Search strategies: probe rules, stopping rules and complete trial runners.

Each runner simulates one full search: draw the target, take measurements
until the stopping rule fires, and report the stopping time tau together
with whether the final estimate found the target.

Every strategy runs on one engine, `_search`, under one of two kinds of
rule.  A threshold rule (fixed composition, sorted-PM, exhaustive search)
maps the posterior, and its own per-row state, to probed sets and their
noise (sqrt(v), 2v), which it builds once (`probe_noise`); the engine
folds each observation in by Bayes' rule and stops a row once one cell
holds posterior mass 1 - eps.  A settling rule (the two bisections)
observes and folds a window of steps itself and retires its rows with
their counts of observations.  The engine runs trials in lockstep:
`run_rows` takes one generator per trial, keeps their posteriors as the
rows of one (rows, size) array, advances every live row a step or a
window of steps at a time and retires rows as they stop.  Every row's
posterior is carried as running sums of log-likelihood ratios from zero,
the uniform prior, never renormalized: every rule reads only the order of
the sums and ratios of cell masses, which a shift leaves alone, and each
step's normalizer sum(exp(c - max c)) is taken only to test the stop.  An
adaptive rule (sorted-PM, alone or as two-stage's second stage) hands over
one step's masks, and one call (`fold_step`) takes each row's hit from its
mask, its ratio from its next normal and its probe's noise, adds mask *
ratio, takes the normalizers and tests the stop, leaving the weights
exp(c - max c) that the next probe reads; a step at which no row stops
takes no retire.  Sorted-PM finds its masks with no permutation: one sort
of the weights' values gives the prefix sums, and a threshold at the k-th
largest weight, with an exact cut by index inside a group of tied weights,
gives the mask (`sorted_pm_mask`); its noise is a per-size table's entry.
A non-adaptive rule (fixed composition, exhaustive), whose probe sets
never read the posterior, hands over a window of steps at once, as the
cells it probes, (rows, w, k): the engine takes their hits and
log-likelihood ratios in one pass and folds the window (`fold_sums`),
where a row that no step of it can stop only adds its ratios to its
cells, and the other rows take every step's normalizer, a tile of rows at
a time.  Each row makes the draws, in the same order, and the arithmetic
of a trial run alone, so a record depends only on its trial's draws, not
on the window, the chunk, the block or the tile.  `run_strategy` is the
batch of one, a one-row block, and a block's last live row stays a row of
it, so the engine has one code path.  Two-stage search chains two
searches.  The two bisection strategies are one settling rule,
`_bisection_rule`: each row narrows its own window of the posterior,
reads each half's mass from one cell, since every cell of a half holds
the same value, and stops level by level.  A sequential level folds a
window of normals as a cumulative sum of the probed half's ratios and ends
at its first step past the test, and a row reads the rest of the window
under its next level; a fixed level of r observations at variance v is
one step that observes their mean, one observation at variance v/r whose
ratio has the law of their sum's, and adds it on the mask.  A sequential
bisection draws its normals in chunks of 2 CHUNK steps, so its windows,
which run to the chunk's end, take half as many calls.

Every draw from a trial generator is made here, through a block's `Draws`:
targets (`draw_targets`), then observations, one normal a row a step under
every rule (`observe`), read from a chunk of CHUNK drawn in one call, the
same floats as one call each.  Fixed composition draws its probe sets
from a second stream per trial, derived from the trial generator before
the target draw without drawing from it: the PCG64 jump of the trial
state, a copy of it advanced by JUMP, as `bit_generator.jumped()` gives it
(`picks_streams`).  It draws them a chunk
of 4 CHUNK steps at a time (`pick_cells`).  A probe set is a partial
Fisher-Yates shuffle; every probe size draws its swap targets the same
way, one bound a swap, and a shuffle whose targets are pairwise distinct
has its targets as its cells: a single cell is its target, a pair whose two
targets j0 are equal has the cells (j0, 0), and three or more cells run
the shuffle on every step.  A window ends where a chunk does, so a record
does not depend on the chunk or the window.
`sim.drift_probe` runs its blocks of runs on the engine in one-step
windows (`Draws`' max_window) and reads each step's sums (`_search`'s reader).

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

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import gaussian_tail_inverse, optimal_composition
from .errors import StepLimitExceeded, ValidationError
# bench/tracer.py patches renormalize_log_probs and update_log_probs here.
from .inference import (fold_step, fold_sums, log_ratios,
                        normalizer_limit, normalizers, renormalize_log_probs,
                        update_log_probs)
from .model import SearchConfig, TrialRecord, probe_variances, sections_from_alpha

STEP_LIMIT = 10_000_000
# numpy's standard normal, a ziggurat, returns |z| < r = 3.6541528853610088
# from its layers and r + x from its tail, x = -log1p(-U)/r with U a 53-bit
# double below 1, so |z| <= r + 53 ln(2)/r < 13.71 for every draw.
NORMAL_BOUND = 13.71
# Steps of normals a row draws in one call (twice as many under sequential
# bisection); of picks, four times as many, up to CHUNK_CELLS cells a call
# over all rows.
CHUNK = 64
CHUNK_CELLS = 1 << 16
# The step of PCG64.jumped(): a picks stream is its trial state advanced by it.
JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

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
    shuffle, whose swap i exchanges entries i and its target
    j_i = i + integers(grid - i).  A generator draws all its steps in one
    call, the same values and state as steps * k calls.

    A shuffle whose targets are pairwise distinct swaps an untouched entry
    into place at every swap, so its cells are its targets: the draws are
    the picks.  One rule a probe size: k = 1 cannot repeat; a pair repeats
    just when j0 == j1, and its first swap has then put entry 0 in place j0,
    so its cells are (j0, 0); k >= 3 runs the shuffle on every step
    (`_shuffle_table`)."""
    highs = np.tile(grid - np.arange(k), steps)  # one bound a draw, in order
    j = np.stack([g.integers(0, highs) for g in gens]).reshape(-1, k)
    j += np.arange(k)                     # swap i exchanges entries i and j >= i
    if k > 2:
        return _shuffle_table(j).reshape(len(gens), steps, k)
    if k == 2:
        j[j[:, 0] == j[:, 1], 1] = 0  # the second swap takes entry 0 from j0
    return j.reshape(len(gens), steps, k)


def _shuffle_table(j: np.ndarray) -> np.ndarray:
    """The first k entries of the partial Fisher-Yates shuffles whose
    targets are the rows of j, (shuffles, k) with j[:, i] >= i, all run
    at once on one flat table.  j's buffer is reused for the table's
    temporaries, so it is overwritten."""
    k = j.shape[1]
    n = j.size
    starts = np.arange(0, n, k)[:, None]  # where each shuffle's draws start
    # The table holds an entry for each of a shuffle's entries below k, and
    # one for each distinct entry >= k that it swaps with, found as the
    # first of a run of equal j in sorted order.  A temporary of n entries
    # is dropped once used, and j's buffer holds the sorted targets and
    # then the slots: a full simulation block's chunk of picks holds
    # n = 2^16.
    order = np.argsort(j, axis=1, kind="stable") + starts
    ranked = np.take(j.ravel(), order, out=j)  # buffered: reads j, then writes
    flat = ranked.ravel()
    first = np.empty(n, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::k] = True
    at = np.cumsum(first) + (n - 1)
    np.add(ranked, starts, out=at.reshape(-1, k), where=ranked < k)
    extra = flat[first]
    del first
    slot = flat  # the sorted targets are read: their buffer takes the slots
    slot[order.ravel()] = at
    del order, at
    table = np.empty(n + extra.size, dtype=np.int64)
    table[:n].reshape(-1, k)[:] = np.arange(k)
    table[n:] = extra
    del extra
    for i in range(k):
        at, here = slot[i::k], starts[:, 0] + i
        cell = table[at]
        table[at] = table[here]
        table[here] = cell
    return table[:n].reshape(-1, k)


@functools.cache
def seed_words_type() -> type:
    """SeedWords, an ISeedSequence of the four uint64 seed words of one
    PCG64, computed beforehand: a PCG64 built on it takes them as they are,
    with no hash.  Made on first use, as its base loads numpy.random
    (about 6 MB), which a run of bounds alone never needs."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        """words: a C-contiguous (4,) uint64 array."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise TypeError(f"SeedWords holds 4 uint64 words, not {n_words} "
                                f"{np.dtype(dtype)}")
            return self.words
    return SeedWords


def picks_streams(gens: list) -> list:
    """The PCG64 jump of each generator's state, without drawing from it:
    the generators of g.bit_generator.jumped(), built without OS entropy,
    each a PCG64 that takes g's state and advances it by JUMP."""
    unseeded = seed_words_type()(np.zeros(4, dtype=np.uint64))
    streams = []
    for g in gens:
        bits = np.random.PCG64(unseeded)
        bits.state = g.bit_generator.state
        streams.append(np.random.Generator(bits.advance(JUMP)))
    return streams


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


def sorted_pm_mask(weights: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """Probe mask of the sorted-PM rule, given posterior weights that need
    not sum to one.

    Order cells by weight descending, ties by ascending index, then probe
    the shortest prefix whose weight is closest to half the total; ties in
    the distance pick the smaller prefix.  A (rows, size) array is handled
    row by row, and k is then an array of prefix lengths.

    No permutation is built.  The prefix sums are those of the weights'
    values sorted descending, the same floats in the same order as the
    ordered cells' (ties have equal values; weights are >= +0, no NaN).
    The prefix is then every cell above the k-th largest weight wk, and
    the lowest-index cells equal to wk that make up k: a cut inside a tie
    group, which cells probed together, holding bit-identical sums, often
    make."""
    if weights.ndim == 1:
        mask, k = sorted_pm_mask(weights[None])
        return mask[0], int(k[0])
    n = weights.shape[1]
    ascending = weights.copy()
    ascending.sort(axis=1)
    # add.accumulate is cumsum, with less overhead a call on small rows
    csum = np.add.accumulate(ascending[:, ::-1], axis=1)
    csum -= 0.5 * csum[:, -1:]
    j = np.abs(csum, out=csum).argmin(axis=1)  # k - 1
    k = j + 1
    # each row's k-th largest weight, at n - 1 - j in its ascending row
    wk = ascending.ravel()[np.arange(n - 1, ascending.size, n) - j][:, None]
    mask = weights > wk
    tied = weights == wk
    # of the cells tied at wk, the first k - #(w > wk) by index
    tied &= (np.add.accumulate(tied, axis=1, dtype=np.intp)
             <= (k - mask.sum(axis=1))[:, None])
    mask |= tied
    return mask, k


def prior_steps(m: int, eps: float) -> bool:
    """The one start test: a search over m cells steps from its prior."""
    return -math.log(m) < math.log1p(-eps)


def check_run(spec: StrategySpec, config: SearchConfig) -> None:
    """Refuse, before any draw, a run of spec at config that cannot be
    made: every refusal of a (spec, config) alone, run by each entry point
    that starts a trial.  In turn: a least variance v(1) below
    STEP_LIMIT/DBL_MAX raises ValidationError, as a ratio (2y - 1)/(2v),
    about +-1/(2v), overflows once v is subnormal, and a row's sums of up
    to STEP_LIMIT ratios stay finite only above it; two_stage's 1/alpha not
    dividing M raises InvalidAlpha; a stop that no trial can reach within
    STEP_LIMIT steps, or fixed bisection levels that can pass them, raise
    StepLimitExceeded.  Counts and seeds are checked by `sim`, the prior's
    start by `prior_steps` and a plan's values by `plan.ExperimentPlan`.

    A stop needs a lead of a row's top cell, or half, over another, and a
    step of a probe of k cells moves it by at most one ratio rho(k) =
    (1 + 2 sqrt(v(k)) |z|)/(2 v(k)), |z| <= NORMAL_BOUND.  A lead is the
    difference of two float sums of ratios, each off by at most STEP_LIMIT
    u (u = 2^-53) times the sum of its terms' sizes, so STEP_LIMIT steps of
    one probe size k build at most STEP_LIMIT rho(k) (1 + 4 STEP_LIMIT u),
    the ratios' own rounding included.  A config where that falls short of
    the lead G is refused, naming v(k).  Exhaustive search probes k = 1
    cell, fixed composition its k* (`_composition_size`), two-stage's
    first stage k units of M/s cells, and a sequential bisection's first
    level h1 = ceil(M/2).  Sorted-PM's probes vary in size, but hold at
    least one cell, so no step moves its lead by more than rho(1): it is
    tested at k = 1 as well as by its bands below.

    Sorted-PM over m cells (two-stage's second stage: m = M/s) probes a
    size that the span d of a row's sums bounds.  While d < D, every weight
    exp(c - max c) is at least e^-D, and none exceeds 1, so the total
    T >= 1 + (m - 1) e^-D, and the prefix whose mass is closest to T/2
    holds at least T/2 - 1/2 of it, so k >= (m - 1) e^-D / 2 cells: k >= j
    while d < D_j = log((m - 1)/(2(j - 1))).  rho is non-increasing in k,
    since v is non-decreasing, and a step widens d by at most 2 rho(k): a
    float sum moves by at most twice its term (the nearest float to c + r
    is no farther from c + r than c is), and every probed cell moves the
    same way.  So d grows through the band [D_(j+1), D_j) at a rate of at
    most 2 rho(j - 1), one cell taken off for the weights' and prefix sums'
    rounding.  The rate only grows with d, so a step adds at most 1 to the
    sum, below d, of the bands' widths over their rates, and a stop, which
    needs d >= G, takes at least that sum below G: a config where it passes
    STEP_LIMIT (1 + 4 STEP_LIMIT u) is refused, naming the size whose band
    takes the most.  Where the bands fall at small sizes, as at M = 2 or 3,
    the factor 2 leaves this bound weaker than the test at k = 1, so a
    config is refused where either passes.  A run that both let through may
    still meet the engine's STEP_LIMIT.

    A threshold stop, from a uniform prior, needs G = -log(limit - 1 +
    4(M + 1)u): its normalizer, summed in floats over at most M + 1 terms
    each within u, must be at most limit.  Two-stage's stages, at eps/2
    over fewer cells, need more, and a one-stage search whose prior meets
    the threshold (`prior_steps`) takes no step.  A sequential bisection's
    first level ends once a half leads by log((1 - s)/s), s = eps/log2 M
    capped at 1/2, from log(h1/h2).  With E = 16u(35 + log M), a lead short
    of G = -log(expm1(E - log1p(-s))) - |log(h1/h2)| - E < 34 keeps the
    test's terms below 34 + log M, so the test and the lead read within E
    of their exact values, and the test fails.

    A fixed bisection's level on L cells takes max(1, ceil(4 v(ceil(L/2))
    z^2)) steps (`_levels`).  v is non-decreasing in probe size, so the
    levels through every larger half, lengths M, ceil(M/2), ..., 2, take
    the most: a config where they pass STEP_LIMIT is refused, naming
    v(ceil(M/2)), though trials through a smaller half might finish."""
    eps, m = config.epsilon, config.M
    v = config.noise_variance(1)
    if v * sys.float_info.max < STEP_LIMIT:
        raise ValidationError(
            f"noise variance v(1) = {v!r} is too small to simulate: below "
            f"STEP_LIMIT/DBL_MAX, a trial's log-likelihood sums can overflow")
    if spec.kind == TWO_STAGE:
        section = m // sections_from_alpha(spec.alpha, m)
    if spec.kind == NOISY_BINARY_FIXED and m > 1:
        lengths, (reps, *_) = _levels(config, _fixed_z(config))
        length, total = m, 0.0
        while length > 1:  # the longest path, M, ceil(M/2), ..., 2
            total, length = total + reps[lengths.searchsorted(length)], (length + 1) // 2
        if total > STEP_LIMIT:
            probed = (m + 1) // 2
            raise StepLimitExceeded(
                f"noise variance v({probed}) = {config.noise_variance(probed)!r} is too "
                f"large at epsilon={eps!r}: a trial's levels can take more than "
                f"{STEP_LIMIT} steps")
    u = 2.0 ** -53
    if spec.kind == NOISY_BINARY_VARIABLE and m > 1:
        share = min(eps / math.log2(m), 0.5)
        probed = (m + 1) // 2
        slack = 16.0 * u * (35.0 + math.log(m))
        lead = (-math.log(math.expm1(slack - math.log1p(-share)))
                - abs(math.log(probed / (m - probed))) - slack)
        goal, probes, searched = "pass its first level", [probed], 1
    elif spec.kind == TWO_STAGE or (
            spec.kind not in (NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE)
            and prior_steps(m, eps)):
        limit = normalizer_limit(math.log1p(-eps))
        lead = -math.log(limit - 1.0 + 4.0 * (m + 1) * u)
        # the sizes of one-size probes, and the cells sorted-PM searches
        goal, probes, searched = "reach its threshold", [1], m
        if spec.kind == TWO_STAGE:
            probes, searched = [_composition_size(config, m // section) * section], section
        elif spec.kind != SORTED_PM:
            probes, searched = [1 if spec.kind == EXHAUSTIVE
                                else _composition_size(config, m)], 1
    else:
        return
    # per stage: its probe sizes, the band of span below the lead each
    # holds over (all of it, for one size), their v, and the ratios a step
    # can move the span by
    rules = [(np.array([k]), np.array([lead]), np.array([config.noise_variance(k)]), 1.0)
             for k in probes]
    if searched > 1:  # sorted-PM's bands, [D_(j+1), D_j) at size max(1, j - 1)
        edges = np.log((searched - 1) / (2.0 * np.arange(1, searched // 2 + 1)))
        edges = np.clip(np.concatenate(([lead], edges)), 0.0, lead)
        sizes = np.maximum(np.arange(searched // 2), 1)
        rules.append((sizes, edges[:-1] - edges[1:], probe_variances(config)[sizes - 1], 2.0))
    for sizes, widths, v, moves in rules:
        steps = widths / (0.5 / v + NORMAL_BOUND / np.sqrt(v))  # width / rho(k)
        if steps.sum() > moves * STEP_LIMIT * (1.0 + 4.0 * STEP_LIMIT * u):
            probed = int(sizes[steps.argmax()])
            raise StepLimitExceeded(
                f"noise variance v({probed}) = {config.noise_variance(probed)!r} is "
                f"too large: no trial can {goal} within {STEP_LIMIT} steps")


class Draws:
    """The random draws of a block's live rows, each row from its own trial
    generator, gens, in row order.

    A row reads its normals from a chunk of normal_chunk (default CHUNK)
    that it draws in one call once the last is read; carry holds, per row,
    normals to read before its first chunk.  A window of steps ends where
    the chunk does, or after max_window steps if given (`window`); `ahead`
    gives its normals and the engine marks them read a step at a time, so
    a row that retires keeps the normals it did not reach in spare, indexed
    by its row in the block, for a second stage to read first.  With
    picks, each row also gets a picks stream, the PCG64 jump of the trial
    generator's state now, before the target draw (`picks_streams`); `pick`
    reads a window's probe sets from a chunk of steps that every row draws
    at once, 4 CHUNK steps, at most CHUNK_CELLS cells in all."""

    def __init__(self, gens: list, picks: bool = False,
                 normal_chunk: int | None = None, carry: list | None = None,
                 max_window: int | None = None):
        self.gens = list(gens)
        self.rows = np.arange(len(self.gens))
        self.chunk = CHUNK if normal_chunk is None else normal_chunk
        self.max_window = max_window or self.chunk
        self.normals = np.empty((self.chunk, len(self.gens)))  # (steps, rows)
        self.read = self.chunk
        self.carry = carry
        self.spare = [np.empty(0)] * len(self.gens)
        self.pickers = picks_streams(self.gens) if picks else []
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
        """Steps in the next window of probes of `cells` cells a row a step:
        to the end of the normal chunk, at most max_window steps and
        CHUNK_CELLS probed cells over all rows and steps, and at least one
        step."""
        self._fill()
        return max(1, min(self.chunk - self.read, self.max_window,
                          CHUNK_CELLS // (len(self.gens) * cells)))

    def ahead(self, steps: int) -> np.ndarray:
        """The normals of each live row's next `steps` steps, (steps, rows),
        not yet marked read."""
        self._fill()
        return self.normals[self.read:self.read + steps]

    def pick(self, grid: int, k: int) -> np.ndarray:
        """A window's probe sets of k cells per live row, as its cells
        (rows, w, k); the window also ends where the chunk of picks does,
        and holds at most CHUNK_CELLS cells of one row's posterior over the
        grid, the most the fold takes at once, and at least one step."""
        if self.picked == self.picks.shape[1]:
            # a call costs about as much for one draw as for a hundred, and
            # picks are their draws, so every chunk takes the most steps
            steps = max(1, min(4 * CHUNK, CHUNK_CELLS // (len(self.pickers) * k)))
            self.picks = None  # spent: not held while the next chunk is drawn
            self.picks = pick_cells(self.pickers, grid, k, steps)
            self.picked = 0
        w = min(self.window(k), max(1, CHUNK_CELLS // grid),
                self.picks.shape[1] - self.picked)
        self.picked += w
        return self.picks[:, self.picked - w:self.picked]

    def retire(self, done: np.ndarray, read: np.ndarray | int) -> None:
        """Drop the rows that done marks, keeping their unread normals: from
        the chunk position read of each, or one for all."""
        rows = self.rows[done].tolist()
        read = read.tolist() if isinstance(read, np.ndarray) else [read] * len(rows)
        for row, first, col in zip(rows, read, done.nonzero()[0].tolist()):
            self.spare[row] = self.normals[first:, col].copy()
        keep = ~done
        # compress, not a fancy index, keeps the chunk in C order, and so
        # each window's normals and ratios
        self.rows, self.normals = self.rows[keep], self.normals.compress(keep, axis=1)
        flags = keep.tolist()
        self.gens = [g for g, f in zip(self.gens, flags) if f]
        if self.pickers:
            self.picks = self.picks[keep]
            self.pickers = [g for g, f in zip(self.pickers, flags) if f]


def draw_targets(gens: list, m: int) -> np.ndarray:
    """Each row's target, uniform on [0, m): one draw from its generator."""
    return np.array([int(g.integers(m)) for g in gens], dtype=np.int64)


def probe_noise(v):
    """The noise (sqrt(v), 2v) of a probe of variance v, or of one a row:
    the pair the ratios of its observations are taken from
    (`log_ratios`)."""
    return np.sqrt(v), 2.0 * v


def observe(hit: np.ndarray, noise: tuple, draws: Draws) -> np.ndarray:
    """Log-likelihood ratios (2y - 1)/(2v), (w, rows), of each live row's
    observations y = hit + sqrt(v) z over a window of w steps, given the
    hits (w, rows) and the probes' noise (sqrt(v), 2v), one pair for all
    rows or one a row (`log_ratios`).  z are the rows' next normals
    (`Draws.ahead`); a fixed bisection level reads one, at variance v/r."""
    return log_ratios(hit, noise, draws.ahead(hit.shape[0]))


def _search(size: int, rule, targets, eps: float, draws: Draws, label: str,
            first_trial: int | None,
            reader=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep search: one row per target, drawing from that row of draws,
    each probing `size` cells from a uniform prior until its rule stops
    it.

    A rule is a pair (probe, settle), the one extension point for a new
    kind, stateless or with per-row state (a balanced design's round, a
    sort order carried between steps, a bisection window), of one of two
    kinds.  Every row is carried as running sums c of log-likelihood
    ratios from zero, the uniform prior, never renormalized: its log
    posterior up to a shift.

    A threshold rule, (probe, None), retires a row once one cell holds
    posterior mass 1 - eps, tested on each step's normalizer; a row starts
    only if the uniform prior holds less.  probe(weights, step, draws) ->
    (probed, noise) maps the live rows' posterior weights exp(c - max c)
    (rows, size), as the fold of a step of masks left them (None after
    cells, which no rule that probes cells reads), and the rule's own
    per-row state, to the probed sets of the next step or window and their
    noise (sqrt(v), 2v) (`probe_noise`), one pair for all rows or one a
    row, which a rule builds once (per probe size, for a rule whose sizes
    vary).  probed is one step's boolean masks (rows, size), from an
    adaptive rule, or, from a non-adaptive rule, the cells it probes over a
    window of w steps (rows, w, k), k distinct cells a row a step.  A step
    of masks goes to the stop in one call (`fold_step`), given each row's
    hit cell as an index into the flattened masks and its next normal, and
    leaves the weights the next probe reads; a step at which no row stops
    skips the retire.  A window of cells, as many steps as draws allow
    (`Draws.window`; the rule reads each live row's picks from draws), is
    observed and folded (`fold_sums`).  A row's steps are its
    observations.

    A settling rule, (None, settle), starts every row when size > 1:
    settle(lp, hit_cell, left, draws) -> (w, done, ends, taus) observes
    the live rows' next window of w <= left steps itself, given their
    targets' cells, folds it into the sums lp (rows, size), and returns
    which rows retire, the steps each takes in the window (one for all in
    a window of one step) and each one's count of observations, its tau;
    it drops them from its own state, which it may size from lp's rows on
    its first call.

    A step past STEP_LIMIT raises before it is observed, naming the lowest
    live row, and no window runs past it: left = STEP_LIMIT - step.  A
    fixed bisection's level is one step of r observations, and its levels
    never pass the limit: `check_run` refuses a config whose levels can.

    A reader, under a threshold rule, is called after every fold, before
    any row retires, as reader(live, lp, weights) -> cut: the live rows'
    indices into targets, their sums lp, and the weights exp(c - max c) of
    a step of masks (None after a window).  cut, None or a boolean array
    over them, retires the cut rows at the window's end, and with them the
    rows that their rule stops in it, each on the record of its sums there.
    Every reader runs in windows of one step (`Draws`' max_window=1), where
    that is the record the rule's own stop gives.

    A target outside [0, size) is never hit (a failed first stage): that
    row still stops, on a wrong cell.  Only a step of masks can carry such
    a target, as two-stage's second stage, sorted-PM, does.  Each row sees
    the same draws and arithmetic as if it ran alone, wherever a window
    ends.  Returns per-row (steps, MAP cell, final max posterior exp(-log
    s) of its normalizer s) arrays."""
    probe, settle = rule
    targets = np.asarray(targets, dtype=np.int64)
    n = targets.size
    steps = np.zeros(n, dtype=np.int64)
    cells = np.zeros(n, dtype=np.int64)
    top = np.full(n, -math.log(size))
    starts = prior_steps(size, eps) or (size > 1 and settle is not None)
    live = np.arange(n if starts else 0)
    limit = normalizer_limit(math.log1p(-eps)) if settle is None and starts else None
    lp = np.zeros((n, size))
    # the uniform prior's weights, exp(0), without a copy a row
    weights = np.broadcast_to(1.0, (n, size)) if settle is None else None
    on_grid = (targets >= 0) & (targets < size)
    off_grid = not on_grid.all()
    hit_cell = np.where(on_grid, targets, 0)
    hits = hit_cell + np.arange(0, n * size, size)  # in a step's flat masks
    step = 0
    while live.size:
        if step == STEP_LIMIT:
            where = "" if first_trial is None else f"trial {first_trial + live[0]}: "
            raise StepLimitExceeded(f"{where}{label} exceeded {STEP_LIMIT} steps")
        # the stopped rows' normalizers, if not those of lp now, and their
        # steps, if not step + ends
        norms = taus = None
        if settle is not None:
            w, done, ends, taus = settle(lp, hit_cell, STEP_LIMIT - step, draws)
        else:
            probed, noise = probe(weights, step, draws)
            weights = None  # read: not held while the fold makes the next
            if probed.ndim == 2:  # one step of masks
                w, ends = 1, 1
                done, norms, ended_cells, weights = fold_step(
                    lp, probed, hits, on_grid if off_grid else None, draws.ahead(1)[0],
                    noise, limit)
            else:  # a window of cells
                w = min(probed.shape[1], STEP_LIMIT - step)
                probed = probed[:, :w]
                hit = (probed == hit_cell[:, None, None]).any(axis=2).T  # (w, rows)
                done, ends, norms, ended_cells = fold_sums(
                    lp, probed, observe(hit, noise, draws), limit)
            probed = None  # a view of the picks: not held while the next are drawn
        cut = None if reader is None else reader(live, lp, weights)
        if cut is not None and cut.any():  # every row retiring takes its sums' record
            done, ends, norms = cut if done is None else cut | done, 1, None
        if done is not None and done.any():
            ended = live[done]
            steps[ended] = step + ends if taus is None else taus
            if norms is None:
                norms, ended_cells = normalizers(lp[done]), lp[done].argmax(axis=1)
            top[ended] = [-math.log(s) for s in norms.tolist()]
            cells[ended] = ended_cells
            keep = ~done
            live, lp = live[keep], lp[keep]
            if weights is not None:
                weights = weights[keep]
            hit_cell, on_grid = hit_cell[keep], on_grid[keep]
            hits = hit_cell + np.arange(0, live.size * size, size)
            draws.retire(done, draws.read + ends)
        draws.read += w
        step += w
    # math.exp per row, not np.exp, which may differ from libm in the last
    # bit: final_max_prob is kept bit for bit
    return steps, cells, np.array([math.exp(t) for t in top.tolist()])


def _composition_size(config: SearchConfig, grid: int) -> int:
    """Units a composition probe over `grid` units takes: round(q* grid),
    clamped to [1, grid-1], and 1 for grid = 1."""
    if grid == 1:
        return 1
    q_star, _ = optimal_composition(config)
    return min(max(int(round(q_star * grid)), 1), grid - 1)


def _composition_rule(config: SearchConfig, grid: int, cells_per_unit: int):
    """Non-adaptive rule over `grid` units of cells_per_unit cells each: a
    uniformly random set of `_composition_size` units.  Never probed for
    grid = 1: one unit is found before any probe."""
    k = _composition_size(config, grid)
    noise = probe_noise(config.noise_variance(k * cells_per_unit))

    def probe(weights, step, draws):
        return draws.pick(grid, k), noise
    return probe, None


def _sorted_pm_rule(config: SearchConfig):
    """Adaptive rule: the top cells holding about half the posterior mass,
    read from the weights the last fold left.  A probe of k cells takes its
    noise from per-size tables built once."""
    sd, twice_v = probe_noise(np.concatenate(([math.nan], probe_variances(config))))

    def probe(weights, step, draws):
        masks, k = sorted_pm_mask(weights)
        return masks, (sd[k], twice_v[k])
    return probe, None


def _round_robin_rule(config: SearchConfig):
    """Single cells in turn: 0, 1, ..., M-1, 0, ...; every row probes the
    same cell, so a window's cells are one column of w seen by all rows."""
    m = config.M
    noise = probe_noise(config.noise_variance(1))

    def probe(weights, step, draws):
        # at most CHUNK_CELLS cells of one row's posterior over the window
        w = min(draws.window(1), max(1, CHUNK_CELLS // m))
        cells = (step + np.arange(w)) % m
        return np.broadcast_to(cells[:, None], (len(draws.gens), w, 1)), noise
    return probe, None


def probe_rule(kind: str, config: SearchConfig):
    """The rule of a one-stage kind over all M cells: (probe, None) for a
    threshold kind (fixed_composition, sorted_pm, exhaustive), (None,
    settle) for a bisection (noisy_binary_fixed, noisy_binary_variable)."""
    if kind == FIXED_COMPOSITION:
        return _composition_rule(config, config.M, 1)
    if kind == SORTED_PM:
        return _sorted_pm_rule(config)
    if kind in (NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE):
        return _bisection_rule(config, kind == NOISY_BINARY_FIXED)
    return _round_robin_rule(config)


# Per-row outcome of a batch: (tau, tau_stage1, success, final_max_prob).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _two_stage_rows(config: SearchConfig, spec: StrategySpec, rngs: list,
                    first_trial: int | None = None) -> Rows:
    """Two-stage search over s >= 2 sections (alpha = 1/s, s dividing M):
    stage 1 runs fixed composition over the s sections at reliability
    eps/2, stage 2 runs sorted-PM inside the winning section, again at
    eps/2, first reading each row's normals left over from stage 1.  A
    StepLimitExceeded names the spec and the stage."""
    s = sections_from_alpha(spec.alpha)  # s divides M (`check_run`)
    section = config.M // s
    eps_half = config.epsilon / 2.0
    stage1 = Draws(rngs, picks=True)
    targets = draw_targets(stage1.gens, config.M)
    t1, sec_hat, p1 = _search(s, _composition_rule(config, s, section),
                              targets // section, eps_half, stage1,
                              f"{spec.label()} stage 1", first_trial)
    start = sec_hat * section
    t2, idx, p2 = _search(section, _sorted_pm_rule(config), targets - start,
                          eps_half, Draws(rngs, carry=stage1.spare),
                          f"{spec.label()} stage 2", first_trial)
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
    max(1, ceil(4 v z^2)), and STEP_LIMIT + 1 where 4 v z^2 overflows."""
    if z is None:
        return 1
    count = 4.0 * v * z * z
    return STEP_LIMIT + 1 if count == math.inf else max(1, math.ceil(count))


def _fixed_z(config: SearchConfig) -> float:
    """A fixed level's z = Q^{-1}(eps/log2 M) >= 0; +inf where eps/log2 M is 0."""
    share = config.epsilon / math.log2(config.M)
    return max(0.0, gaussian_tail_inverse(share)) if share else math.inf


def _levels(config: SearchConfig, z: float | None) -> tuple:
    """A bisection's level terms, one table a rule, by the length L of a
    window, uniform when its level starts, whose first half holds h1 =
    ceil(L/2) cells: the lengths L > 1 that halving M reaches, ascending (a
    window's column is its length's index), and rows of floats: the
    repetitions (`_repeats`, a float's ceil, so held exactly), v(h1), log h1
    and log(L - h1).  Halving L gives ceil(L/2) and floor(L/2), so a depth
    holds at most two lengths, the table at most 2 ceil(log2 M)."""
    reach, lengths = {config.M} - {1}, set()
    while reach:
        lengths |= reach
        reach = {h for n in reach for h in ((n + 1) // 2, n // 2) if h > 1}
    lengths = sorted(lengths)
    columns = [(_repeats(v, z), v, math.log(h), math.log(n - h))
               for n in lengths for h in [(n + 1) // 2] for v in [config.noise_variance(h)]]
    return np.array(lengths), np.array(columns, dtype=float).reshape(-1, 4).T


def _bisection_rule(config: SearchConfig, fixed: bool):
    """The settling rule of a bisection: each row narrows a window [lo, hi)
    of its posterior from [0, M) to one cell; the engine then reports the
    MAP cell.  A level probes the window's first half [lo, mid), which takes
    the odd cell, and ends by moving the window into the half that holds
    more mass, the first on ties.

    Sequential levels: one observation per row a step, and a row's level
    ends once its favoured half holds a share >= 1 - epsilon/log2(M) of
    the window's mass, after at least one observation.  A window of steps
    runs to the end of the normal chunk (`Draws.window`), and each row
    takes it level by level: the probed half's cell over the window's
    steps is a cumulative sum of their ratios seeded with the cell, the
    floats of adding one step at a time, the level ends at the first step
    that passes the test, and the row's remaining normals in the window
    are read again under its next level.  A row that reaches one cell
    retires at its own step.  Fixed levels: a step is a whole level of
    r = max(1, ceil(4 v z^2)) observations per row, and every level ends;
    z = Q^{-1}(epsilon/log2 M), so that one level errs with probability at
    most epsilon/log2 M.  Their ratios sum to r(2 hit - 1)/(2v) +
    sqrt(r/v) N(0, 1), the ratio of one observation of their mean at
    variance v/r, so a level reads one normal a row and counts r steps.  A
    row holds only its window and its count of observations, a fixed
    level's r or the normals a sequential window's levels read, sized from
    the sums' rows on the first call: mid = lo + ceil((hi - lo)/2), and its
    level's terms are its length's column of the rule's table (`_levels`).

    Windows nest, the sums start at zero, and an update adds the same llr
    to every cell of a half, with no shift or clamp, so every cell of a
    half holds the same float.  A window is therefore uniform when its
    level starts, and its first half holds at least as much mass as the
    second: that is the half worth probing.  A half's log mass, up to the
    row's shift, is its first cell plus log(cells); the level's test
    compares the two halves, so it does not depend on the shift."""
    m = config.M
    if m == 1:  # no row starts (see _search): log2(M) and the table are undefined
        return None, None
    share = config.epsilon / math.log2(m)
    log_thresh = math.log1p(-min(share, 0.5))
    lengths, terms = _levels(config, _fixed_z(config) if fixed else None)
    cols = np.arange(m)
    windows = counts = None  # each live row's [lo, hi) and observations

    def level(rows):
        """The rows' lo and mid, their probed halves' mask, and level terms
        (repetitions, v, log h1, log h2)."""
        lo, hi = windows[:, rows]
        mid = lo + (hi - lo + 1) // 2
        return (lo, mid, (cols >= lo[:, None]) & (cols < mid[:, None]),
                terms[:, lengths.searchsorted(hi - lo)])

    def end_levels(rows, to_first, lo, mid):
        """Move the windows of these rows into the half that holds more
        mass; returns which reach one cell."""
        windows[:, rows] = lo, hi = np.where(to_first, (lo, mid), (mid, windows[1, rows]))
        return hi - lo == 1

    def fold_level(lp, rows, t, normals, first_step):
        """Fold each row's ratios over the window, of its target's cell t
        and its normals (w, rows), into its probed half from its
        first_step on; returns the step at which its level ends (the last
        step if it does not), whether it does, whether the first half then
        holds more mass, and its lo and mid."""
        lo, mid, mask, (_, v, log_h1, log_h2) = level(rows)
        llr = log_ratios((lo <= t) & (t < mid), probe_noise(v), normals)
        unread = np.arange(llr.shape[0])[:, None] < first_step
        np.copyto(llr, 0.0, where=unread)
        llr[0] += lp[rows, lo]
        c = np.cumsum(llr, axis=0)
        first = c + log_h1
        second = lp[rows, mid] + log_h2
        passed = np.maximum(first, second) - np.logaddexp(first, second) >= log_thresh
        passed &= ~unread
        ended = passed.any(axis=0)
        at = np.where(ended, passed.argmax(axis=0), llr.shape[0] - 1)
        k = np.arange(rows.size)
        lp[rows] = np.where(mask, c[at, k][:, None], lp[rows])
        return at, ended, first[at, k] >= second, lo, mid

    def settle(lp, hit_cell, left, draws):
        nonlocal windows, counts
        rows = np.arange(lp.shape[0])
        if windows is None:
            windows = np.array([[0], [m]]).repeat(rows.size, 1)
            counts = np.zeros(rows.size, dtype=np.int64)
        if fixed:  # every level ends after its one step
            lo, mid, mask, (reps, v, log_h1, log_h2) = level(rows)
            llr = observe(((lo <= hit_cell) & (hit_cell < mid))[None],
                          probe_noise(v / reps), draws)
            # a masked add, not fold_step's mask * ratio: an infinite ratio,
            # which `check_run` keeps out, would be NaN off the mask
            np.add(lp, llr[0, :, None], out=lp, where=mask)
            to_first = lp[rows, lo] + log_h1 >= lp[rows, mid] + log_h2
            counts += reps.astype(np.int64)  # bounded by `check_run`
            w, done, ends = 1, end_levels(rows, to_first, lo, mid), 1
        else:
            w = min(draws.window(1), left)
            normals = draws.ahead(w)
            read = np.zeros(rows.size, dtype=np.int64)
            ends = np.zeros(rows.size, dtype=np.int64)
            while rows.size:  # rows with steps of the window left to read
                at, ended, to_first, lo, mid = fold_level(
                    lp, rows, hit_cell[rows], normals[:, rows], read[rows])
                read[rows] = at + 1
                rows, at = rows[ended], at[ended]
                done = end_levels(rows, to_first[ended], lo[ended], mid[ended])
                ends[rows[done]] = at[done] + 1
                rows = rows[~done & (at + 1 < w)]
            done = ends > 0
            counts += np.where(done, ends, w)
            ends = ends[done]
        taus = counts[done]
        if done.any():
            windows, counts = windows[:, ~done], counts[~done]
        return w, done, ends, taus
    return None, settle


def run_rows(spec: StrategySpec, config: SearchConfig, rngs: list,
             first_trial: int | None = None) -> Rows:
    """Run one trial per generator at the config's epsilon, all in lockstep,
    and return per-row (tau, tau_stage1, success, final_max_prob) arrays.
    Every row's record equals run_strategy on its generator alone.  With
    first_trial set, a StepLimitExceeded names the lowest row that reached
    the limit as trial first_trial + row.  A run that cannot be made is
    refused before any draw (`check_run`)."""
    check_run(spec, config)
    if spec.kind == TWO_STAGE:
        return _two_stage_rows(config, spec, rngs, first_trial)
    # a sequential bisection window runs to the end of the normal chunk:
    # longer chunks take fewer windows, each of about 15 fixed calls
    draws = Draws(rngs, picks=spec.kind == FIXED_COMPOSITION,
                  normal_chunk=2 * CHUNK if spec.kind == NOISY_BINARY_VARIABLE else None)
    targets = draw_targets(draws.gens, config.M)
    steps, cells, pmax = _search(config.M, probe_rule(spec.kind, config), targets,
                                 config.epsilon, draws, spec.kind, first_trial)
    return steps, np.zeros_like(steps), cells == targets, pmax


def run_strategy(spec: StrategySpec, config: SearchConfig,
                 rng: np.random.Generator, trial_seed: int = 0) -> TrialRecord:
    """Run one trial of the given strategy at the config's epsilon: the
    batch of one."""
    return _row_record(spec.label(), run_rows(spec, config, [rng]), trial_seed)
