"""Posterior tracking over cell locations, in log domain.

The posterior over the M cells is the sufficient statistic for every
strategy here.  Updates happen in natural-log space: add log-likelihoods,
shift so the maximum is zero, clamp at LOG_FLOOR_NATS (keeping every entry
finite), and renormalize.  The update acts along the last axis, so a
(rows, M) block of posteriors takes one call, each row bit-identical to
updating it alone.  The potential U(rho) = sum_i rho_i log2(rho_i /
(1 - rho_i)) is the Lyapunov functional whose per-step drift the bound
arguments control; it is computed with expm1/logsumexp guards so posteriors
within a whisker of certainty do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePosterior, SizeOne, ValidationError
from .model import MeasurementVector

LOG_FLOOR_NATS = -1000.0
LN2 = math.log(2.0)


@dataclass(eq=False)
class Posterior:
    """Log-domain posterior over cells (natural log)."""

    log_probs: np.ndarray

    @property
    def size(self) -> int:
        return self.log_probs.size

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


def init_uniform(size: int) -> Posterior:
    """Uniform posterior over `size` cells."""
    if size < 1:
        raise ValidationError(f"posterior needs at least one cell, got {size}")
    return Posterior(log_probs=np.full(size, -math.log(size)))


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
    returned.  This is the hot path of every strategy loop.
    """
    llr = (2.0 * y - 1.0) / (2.0 * variance)
    if lp.ndim == 1:
        lp[mask] += llr
    else:
        np.add(lp, llr[:, None], out=lp, where=mask)
    return renormalize_log_probs(lp)


def bayes_update(rho: Posterior, probed, y: float, variance: float) -> Posterior:
    """Posterior after observing y from a probe of the given cells.

    `probed` is a MeasurementVector or boolean mask.  Likelihoods are
    G(y; 1, v) on probed cells and G(y; 0, v) elsewhere.
    """
    mask = probed.mask if isinstance(probed, MeasurementVector) else np.asarray(probed, dtype=bool)
    if mask.shape != rho.log_probs.shape:
        raise ValidationError(
            f"probe mask of shape {mask.shape} does not match posterior of shape {rho.log_probs.shape}")
    lp = rho.log_probs.copy()
    update_log_probs(lp, mask, y, variance)
    if not np.all(np.isfinite(lp)):
        raise DegeneratePosterior("posterior update produced non-finite entries")
    return Posterior(log_probs=lp)


def u_log_probs(lp: np.ndarray) -> float:
    """U = sum_i rho_i log2(rho_i / (1 - rho_i)) from log probabilities.

    1 - rho is computed as -expm1(log rho) except at the argmax, where the
    complement is formed by log-sum-exp over the remaining entries so that
    posteriors concentrated up to the floor stay finite.
    """
    n = lp.size
    if n < 2:
        raise SizeOne("U is undefined on a single-cell posterior")
    idx = int(np.argmax(lp))
    # the argmax entry may sit at log(0); it is overwritten just below
    with np.errstate(divide="ignore"):
        log1m = np.log(-np.expm1(lp))
    others = np.delete(lp, idx)
    mx = others.max()
    log1m[idx] = mx + math.log(np.exp(others - mx).sum())
    rho = np.exp(lp)
    return float(np.dot(rho, lp - log1m) / LN2)
