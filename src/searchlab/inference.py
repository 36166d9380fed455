"""Posterior tracking over cell locations, in log domain.

The posterior over the M cells is the sufficient statistic for every
strategy here.  `update_log_probs` adds log-likelihoods in natural-log
space, shifts so the maximum is zero, clamps at LOG_FLOOR_NATS (keeping
every entry finite) and renormalizes, along the last axis, so a (rows, M)
block takes one call, each row bit-identical to updating it alone.  The
search engine instead carries every posterior as running sums of
log-likelihood ratios, never renormalized, normalized only to test a stop:
its rules read only the order of the sums and ratios of cell masses, which
a shift leaves alone.  One step of probe masks goes from the masks to the
stop in one call (`fold_step`): each row's hit, its ratio (2y - 1)/(2v)
from its normal and its probe's noise (sqrt(v), 2v) (`log_ratios`), the
add of mask * ratio on every cell, the normalizers and the stop, leaving
the weights exp(c - max c) that sum to each normalizer.  A window of
steps, given by their probed cells, is folded by `fold_sums`, which adds
each step's ratios on its cells and, for a window of more than one step,
first bounds each row's normalizer at every step from below, by
1 + sum(l) - max(l) with l = exp(lo - max hi) from the bounds [lo, hi] of
each cell's sum over the window (`quiet_rows`): a row whose bound stays a
nat past the limit only adds its ratios and takes no normalizer, and the
other rows are folded step by step in shared tiles.  The potential
U(rho) = sum_i rho_i log2(rho_i / (1 - rho_i)) is the Lyapunov functional
whose per-step drift the bound arguments control; it is computed with
expm1/logsumexp guards so posteriors within a whisker of certainty do not
overflow, one posterior or a (rows, M) block at a time, each row as it
gets alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeOne
from .model import MAX_CELLS

LOG_FLOOR_NATS = -1000.0
LN2 = math.log(2.0)
# Floats of running sums in one screen block of a window's rows, and in one
# dense tile of its loud rows' steps (`fold_sums`).
TILE_CELLS = 1 << 13
LOUD_CELLS = 4 * TILE_CELLS
# The least excess limit - 1 of a stop's normalizer limit that the screen of
# a window takes (`fold_sums`), so that a limit at or below 1 screens too.
# A normalizer's float sum can lose up to 2^-53 at each addition on its top
# term's path, fewer than MAX_CELLS of them: a screen that counts on small
# terms summing past the limit needs (e - 1) * excess above MAX_CELLS * 2^-53.
MIN_EXCESS = MAX_CELLS * 2.0 ** -53


def renormalize_log_probs(lp: np.ndarray) -> float | np.ndarray:
    """Shift so the max is 0, clamp at the floor, renormalize in place; a
    2-D array is renormalized row by row.  Returns the new maximum log
    probability (an array of row maxima for a 2-D array): the shifted max
    is exactly 0, so it is minus the log normalizer."""
    lp -= lp.max(axis=-1, keepdims=True)
    np.maximum(lp, LOG_FLOOR_NATS, out=lp)
    sums = np.exp(lp).sum(axis=-1)
    # math.log, not np.log: numpy's vector log can differ from libm in the
    # last bit, and a row must match the same posterior updated on its own
    if lp.ndim == 1:
        top = -math.log(sums)
        lp += top
    else:
        top = np.array([-math.log(s) for s in sums.tolist()])
        lp += top[:, None]
    return top


def update_log_probs(lp: np.ndarray, mask: np.ndarray, y,
                     variance) -> float | np.ndarray:
    """In-place Bayes update for observation y of a probed mask.

    Adds the log-likelihood ratio (2y-1)/(2v) on probed cells (the common
    unprobed term cancels in normalization), then renormalizes with the
    floor and returns the new maximum log probability.  For a (rows, M)
    block, y holds one value per row, variance one per row or one for all,
    mask is (rows, M) or one M-mask for every row, and the row maxima are
    returned.  No strategy runs it: the engine folds running sums instead
    (`fold_step`, `fold_sums`); the tests' references do.
    """
    llr = (2.0 * y - 1.0) / (2.0 * variance)
    if lp.ndim == 1:
        lp[mask] += llr
    else:
        np.add(lp, llr[:, None], out=lp, where=mask)
    return renormalize_log_probs(lp)


def log_ratios(hit: np.ndarray, noise: tuple, z: np.ndarray) -> np.ndarray:
    """(2y - 1)/(2v) of observations y = hit + sqrt(v) z, elementwise, in
    a new array: noise is the pair (sqrt(v), 2v), each one value, or one a
    row along the last axis of hit and z."""
    sd, twice_v = noise
    y = sd * z
    y += hit  # in z's layout: a window's hits are a transposed gather
    y *= 2.0
    y -= 1.0
    y /= twice_v
    return y


def _cell_ratios(cells: np.ndarray, llr: np.ndarray, size: int) -> tuple:
    """Each probed cell of cells (rows, w, k), in row and then step order,
    as its flat index into a (rows, size) block, and its step's ratio."""
    rows, _, k = cells.shape
    at = (cells + (np.arange(rows) * size)[:, None, None]).ravel()
    return at, np.repeat(llr.T, k, axis=1).ravel()


def fold_step(sums: np.ndarray, masks: np.ndarray, hits: np.ndarray,
              on_grid: np.ndarray | None, z: np.ndarray, noise: tuple,
              limit: float) -> tuple:
    """Fold one step of probe masks (rows, size) into a block of running
    log-likelihood sums, sums (rows, size), in place, and test the stop.

    Each row observes y = hit + sqrt(v) z, given its normal z and its
    probe's noise (sqrt(v), 2v) (`log_ratios`): hit is its mask at hits,
    its hit cell as an index into the flattened masks, and false for a row
    that on_grid, if given, marks off the grid (its target is never hit).
    The ratio is added to every cell as mask * ratio: off the mask a
    finite ratio adds +-0.0, which leaves a sum as it is (no running sum is
    -0.0), at a fraction of a masked add's cost.  Then the row's normalizer
    s = sum(exp(c - max c)) is taken: a row stops once s <= limit.  Returns
    done, which rows stop, and for each of them its normalizer and its MAP
    cell at the stop (all three None if no row stops), and every row's
    weights exp(c - max c), the terms of its normalizer."""
    hit = masks.take(hits)
    if on_grid is not None:
        hit &= on_grid
    weights = masks * log_ratios(hit, noise, z)[:, None]
    sums += weights
    s = normalizers(sums, weights)
    done = s <= limit
    if not done.any():
        return None, None, None, weights
    return done, s[done], sums[done].argmax(axis=1), weights


def fold_sums(sums: np.ndarray, cells: np.ndarray, llr: np.ndarray,
              limit: float) -> tuple:
    """Fold a window of w steps, given by the cells they probe (rows, w,
    k), into a block of running log-likelihood sums, sums (rows, size), in
    place: add each step's ratios llr (w, rows) on its cells, each to the
    sum before it in step order, and test the stop at every step on that
    step's normalizer s = sum(exp(c - max c)): a row stops at the first
    step with s <= limit.

    In a window of more than one step each row is screened first, a block
    of at most TILE_CELLS sums at a time (`quiet_rows`): a quiet row, whose
    every step's normalizer is bounded above limit, only adds its ratios.
    In a window of one step the screen would cost about what the
    normalizers do, so every row is loud.  The loud rows take every
    step's normalizer, in tiles of at most LOUD_CELLS floats of sums over
    the window (and at least one row), so that several short loud rows share
    a tile's calls: a row's sums at every step are a running sum of its
    scattered ratios over the steps, each step added to the last in one
    call, each a float added to the sum before it, the floats it gets
    alone, one step at a time.  Returns done, the rows that stop, and for
    each of them the steps it takes in the window, its normalizer and its
    MAP cell at the stop."""
    rows, w, _ = cells.shape
    size = sums.shape[1]
    ends = np.zeros(rows, dtype=np.int64)
    norms = np.empty(rows)
    maps = np.empty(rows, dtype=np.int64)
    screen = max(1, TILE_CELLS // size)
    tile = max(1, LOUD_CELLS // (w * size))
    for first in range(0, rows, screen):
        part = slice(first, first + screen)
        start = sums[part]
        at, x = _cell_ratios(cells[part], llr[:, part], size)
        loud = first + (np.arange(len(start)) if w == 1 else
                        (~quiet_rows(start, at, x, w, limit)).nonzero()[0])
        for i in range(0, loud.size, tile):
            idx = loud[i:i + tile]
            c = np.zeros((w, idx.size, size))
            c[np.arange(w)[:, None, None], np.arange(idx.size)[:, None],
              cells[idx].transpose(1, 0, 2)] = llr[:, idx, None]
            c[0] += sums[idx]
            for j in range(1, w):
                c[j] += c[j - 1]
            s = normalizers(c)
            stop = s <= limit
            if stop.any():
                stopped = stop.any(axis=0).nonzero()[0]
                j = stop[:, stopped].argmax(axis=0)
                ends[idx[stopped]] = j + 1
                norms[idx[stopped]] = s[j, stopped]
                maps[idx[stopped]] = c[j, stopped].argmax(axis=1)
        np.add.at(start.reshape(-1), at, x)  # in step order
    done = ends > 0
    return done, ends[done], norms[done], maps[done]


def quiet_rows(start: np.ndarray, at: np.ndarray, x: np.ndarray, w: int,
               limit: float) -> np.ndarray:
    """Which rows of running sums, start (n, size), no step of a window of
    w steps can stop, given its ratios x at the flat cells at of the block
    (`_cell_ratios`): the rows whose every step's normalizer is bounded
    above limit.

    Over the window a cell's sum stays within [lo, hi], its sum at the
    start plus its negative ratios and plus its positive ones.  So at every
    step the max is at most top = max(hi), and each term exp(c - max c) of
    the normalizer is at least l = exp(lo - top); the max's own term is 1,
    so the normalizer is at least 1 + sum(l) - max(l).  A row is quiet once
    that bound is one nat past the stop: sum(l) - max(l) >= e (limit - 1),
    limit - 1 at least MIN_EXCESS, with lo less the rounding of the
    window's sums.  The sum holds the second largest l, so a row with two
    cells at l >= e (limit - 1) is quiet."""
    n, size = start.shape
    # each cell's positive ratios summed into hi, its negative into lo
    hi, lo = np.bincount(at + (x < 0.0) * (n * size), x,
                         2 * n * size).reshape(2, n, size) + start
    top = hi.max(axis=1)
    # a float sum over the window errs by at most w + 1 units in the last
    # place of the sum of its terms' sizes, |c0| + hi - lo, at most three
    # times the largest size of lo or hi; so does lo or hi itself
    slack = (w + 1) * 2.0 ** -48 * max(top.max(), -lo.min())
    gap = -math.log(max(limit - 1.0, MIN_EXCESS)) - 1.0
    floor = top - (gap - slack)
    # u = exp(lo - floor) is l / (e (limit - 1)) with the slack taken off
    # lo, and u >= 1 wherever lo >= floor.  The rounding of floor and of
    # lo - floor lies inside the slack; exp errs by under an ulp, and the
    # sum of the size terms by under size units of 2^-53 of itself: all far
    # inside the nat, which is kept for the normalizer's own float sum
    # (MIN_EXCESS).  The largest u is zeroed, not subtracted from the sum:
    # near MIN_EXCESS the difference would cancel.
    u = np.subtract(lo, floor[:, None], out=lo)
    np.exp(u, out=u)
    u[np.arange(n), u.argmax(axis=1)] = 0.0
    return u.sum(axis=1) >= 1.0


def normalizers(sums: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Each row c's normalizer sum(exp(c - max c)), along the last axis;
    weights, if given, receives the terms exp(c - max c)."""
    e = np.subtract(sums, sums.max(axis=-1, keepdims=True), out=weights)
    np.exp(e, out=e)
    return e.sum(axis=-1)


def normalizer_limit(log_thresh: float) -> float:
    """The largest normalizer s with -log(s) >= log_thresh, so that the stop
    s <= limit is the threshold test on the record's max log posterior."""
    s = math.exp(-log_thresh)
    while -math.log(s) < log_thresh:
        s = math.nextafter(s, 0.0)
    while -math.log(math.nextafter(s, math.inf)) >= log_thresh:
        s = math.nextafter(s, math.inf)
    return s


def u_log_probs(lp: np.ndarray) -> float | np.ndarray:
    """U = sum_i rho_i log2(rho_i / (1 - rho_i)) from log probabilities.

    1 - rho is computed as -expm1(log rho) except at the argmax, where the
    complement is formed by log-sum-exp over the remaining entries so that
    posteriors concentrated up to the floor stay finite.  A (rows, M) block
    is taken row by row and gives an array, each row's U bit-identical to
    its own call.
    """
    n = lp.shape[-1]
    if n < 2:
        raise SizeOne("U is undefined on a single-cell posterior")
    block = lp.reshape(-1, n)
    rows = np.arange(block.shape[0])
    idx = block.argmax(axis=1)
    log1m = np.expm1(block)
    np.negative(log1m, out=log1m)
    log1m[rows, idx] = 1.0  # 1 - rho may be 0 here; the slot is overwritten below
    np.log(log1m, out=log1m)
    others = block[np.arange(n) != idx[:, None]].reshape(-1, n - 1)
    mx = others.max(axis=1)
    # math.log per row, as renormalize_log_probs: libm, not numpy's vector log
    sums = np.exp(others - mx[:, None]).sum(axis=1)
    log1m[rows, idx] = mx + np.array([math.log(x) for x in sums.tolist()])
    rho = np.exp(block)
    # a stack of row-vector products: one BLAS dot per row, as np.dot
    u = np.matmul(rho[:, None, :], (block - log1m)[:, :, None])[:, 0, 0] / LN2
    return float(u[0]) if lp.ndim == 1 else u
