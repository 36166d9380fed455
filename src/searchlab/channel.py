"""Measurement channel: Gaussian observation model and capacity machinery.

A probe of k cells observes Y = X + Z where X indicates "target in probed
set" and Z ~ N(0, v) with v = noise_variance(k).  With the target uniform
and the probe a q-composition (k = qM cells), Y follows the classic
binary-input AWGN law, and the per-observation information rate is

    C(q, v) = h(Y) - h(Z)   [bits],

with h(Y) the differential entropy of the mixture
m(y) = (1-q) G(y; 0, v) + q G(y; 1, v), by adaptive Simpson quadrature.
Everything downstream (strategy stopping times, converse and achievability
bounds) is driven by this function and by the truncated-score integral psi
of the bound constants, which is closed-form and vectorised over probe sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, ndtri

from .errors import NoRootInBracket, QuadratureNonConvergence

LOG2E = math.log2(math.e)

# Quadrature knobs: target |error| <= 1e-8 is the external contract; the
# internal tolerance is stricter so grid symmetry checks at 1e-9 hold.
CAPACITY_TOL = 1e-10
MAX_PANELS = 1 << 23


def gaussian_pdf(y, mean: float, variance: float):
    """Density of N(mean, variance) evaluated at y (scalar or array)."""
    y = np.asarray(y, dtype=float)
    out = np.exp(-((y - mean) ** 2) / (2.0 * variance))
    out /= math.sqrt(2.0 * math.pi * variance)
    return out if out.ndim else float(out)


def log_gaussian_pdf(y, mean: float, variance: float):
    y = np.asarray(y, dtype=float)
    out = -((y - mean) ** 2) / (2.0 * variance) \
        - 0.5 * math.log(2.0 * math.pi * variance)
    return out if out.ndim else float(out)


def gaussian_tail(x: float) -> float:
    """Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gaussian_tail_inverse(p: float) -> float:
    """Inverse of the Gaussian tail: Q(gaussian_tail_inverse(p)) = p."""
    return float(-ndtri(p))


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _simpson(f, lo: float, hi: float, n: int) -> float:
    """Composite Simpson rule with n (even) panels, vectorized integrand."""
    x = np.linspace(lo, hi, n + 1)
    fx = f(x)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((hi - lo) / (3.0 * n) * np.dot(w, fx))


def _adaptive_simpson(f, lo: float, hi: float, tol: float, n0: int,
                      max_panels: int = MAX_PANELS) -> float:
    """Double the panel count until the Richardson error estimate
    |S_{2n} - S_n| / 15 drops below tol.  A starting grid already past
    max_panels is refused before it is allocated."""
    if n0 > max_panels:
        raise QuadratureNonConvergence(
            f"quadrature on [{lo}, {hi}] needs over {max_panels} panels")
    n = n0
    s_prev = _simpson(f, lo, hi, n)
    while n <= max_panels:
        n *= 2
        s = _simpson(f, lo, hi, n)
        if abs(s - s_prev) <= 15.0 * tol:
            return s
        s_prev = s
    raise QuadratureNonConvergence(
        f"quadrature on [{lo}, {hi}] still above tol={tol} at {n} panels")


def _initial_panels(lo: float, hi: float, scale: float) -> int:
    # Enough panels to put ~8 points per noise standard deviation.
    need = max(64.0, 8.0 * (hi - lo) / scale)
    return 1 << max(6, math.ceil(math.log2(need)))


@lru_cache(maxsize=8192)
def bawgn_capacity(q: float, variance: float, tol: float = CAPACITY_TOL,
                   max_panels: int = MAX_PANELS) -> float:
    """Capacity-like rate C(q, v) of the binary-input AWGN observation in bits.

    C(q, v) = -int m(y) log2 m(y) dy - (1/2) log2(2 pi e v) with
    m(y) = (1-q) G(y; 0, v) + q G(y; 1, v).  The result is clamped into
    [0, H(q)]; quadrature is adaptive Simpson with absolute error well below
    1e-8.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"composition q must lie in [0, 1], got {q}")
    if not 0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    if q == 0.0 or q == 1.0:
        return 0.0

    s = math.sqrt(variance)
    lo, hi = -10.0 * s, 1.0 + 10.0 * s
    log_1mq = math.log(1.0 - q)
    log_q = math.log(q)

    def integrand(y):
        log_m = np.logaddexp(log_1mq + log_gaussian_pdf(y, 0.0, variance),
                             log_q + log_gaussian_pdf(y, 1.0, variance))
        return -np.exp(log_m) * log_m * LOG2E

    h_y = _adaptive_simpson(integrand, lo, hi, tol,
                            _initial_panels(lo, hi, s), max_panels)
    c = h_y - 0.5 * math.log2(2.0 * math.pi * math.e * variance)
    return min(max(c, 0.0), binary_entropy(q))


@lru_cache(maxsize=512)
def optimal_composition(config) -> tuple[float, float]:
    """Best probe fraction on the grid: argmax over q = k/M, k = 1..M-1, of
    C(q, noise_variance(k)).  Ties resolve toward the smaller q.  Returns
    (q_star, capacity_bits)."""
    if config.M < 2:
        raise ValueError("composition scan needs at least 2 cells")
    best_k, best_c = 1, -1.0
    for k in range(1, config.M):
        c = bawgn_capacity(k / config.M, config.noise_variance(k))
        if c > best_c:
            best_k, best_c = k, c
    return best_k / config.M, best_c


def psi_component(a: float, variance):
    """int G(y; 0, v) [g(y)]_a dy for the score g(y) = (2y-1)/(2v), where
    [g]_a keeps g when g >= a and is zero otherwise.  g crosses a at
    y0 = a v + 1/2, so with z = y0/sqrt(v) the integral is exactly
    phi(z)/sqrt(v) - Q(z)/(2v).  ``variance`` may be an array.
    """
    v = np.asarray(variance, dtype=float)
    z = (a * v + 0.5) / np.sqrt(v)
    out = np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * v) \
        - 0.25 * erfc(z / math.sqrt(2.0)) / v
    return out if out.ndim else float(out)


@lru_cache(maxsize=512)
def probe_variances(config) -> np.ndarray:
    """noise_variance(k) for k = 1..M; shared by the cache, never mutated."""
    return np.array([config.noise_variance(k) for k in range(1, config.M + 1)])


def psi(a: float, config) -> float:
    """Largest truncated-score integral over feasible probe sizes:
    max over k = 1..M of psi_component(a, noise_variance(k))."""
    return float(psi_component(a, probe_variances(config)).max())


@dataclass(frozen=True)
class AEtaResult:
    """Solution of eta = (a/(a-3)) psi(a-3).  ``clamped`` marks the case
    where eta exceeds the left-endpoint value and the bracket edge is
    returned instead of a root."""

    value: float
    clamped: bool = False


A_ETA_BRACKET_LO = 3.0 + 1e-6
A_ETA_BRACKET_CAP = 1e9


@lru_cache(maxsize=512)
def solve_a_eta(eta: float, config, tol_rel: float = 1e-8) -> AEtaResult:
    """Solve (a/(a-3)) psi(a-3) = eta for a > 3 by bisection.

    The left side is non-increasing in a (both factors are), so a sign
    bracket is found by doubling from a = 6.  Stops when the residual is
    within tol_rel * eta.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")

    def f(a: float) -> float:
        return a / (a - 3.0) * psi(a - 3.0, config)

    lo = A_ETA_BRACKET_LO
    if f(lo) < eta:
        return AEtaResult(value=lo, clamped=True)
    hi = 6.0
    while f(hi) > eta:
        hi *= 2.0
        if hi > A_ETA_BRACKET_CAP:
            raise NoRootInBracket(
                f"no a <= {A_ETA_BRACKET_CAP} satisfies the eta equation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - eta) <= tol_rel * eta:
            return AEtaResult(value=mid)
        if fm > eta:
            lo = mid
        else:
            hi = mid
    raise NoRootInBracket("bisection failed to meet the residual tolerance")
