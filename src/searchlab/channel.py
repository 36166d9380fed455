"""Measurement channel: Gaussian observation model and capacity machinery.

A probe of k cells observes Y = X + Z where X indicates "target in probed
set" and Z ~ N(0, v) with v = noise_variance(k).  With the target uniform
and the probe a q-composition (k = qM cells), Y follows the classic
binary-input AWGN law, and the per-observation information rate is

    C(q, v) = h(Y) - h(Z)   [bits],

with h(Y) the differential entropy of the mixture
m(y) = (1-q) G(y; 0, v) + q G(y; 1, v), by adaptive Simpson quadrature.
Capacity has one batched adaptive-Simpson kernel: ``capacity_grid`` takes
many (q, v) pairs per pass, in blocks of at most BLOCK_POINTS = 2**14
integrand points, and gives every pair the float a lone evaluation gives,
bit for bit; ``bawgn_capacity`` is its cached batch of one.
Everything downstream (strategy stopping times, converse and achievability
bounds) is driven by this function and by the truncated-score integral psi
of the bound constants, closed-form over probe sizes.  Q is ``gaussian_tail``
(math.erfc) and Q^{-1} is statistics.NormalDist().inv_cdf, both stdlib.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import NoRootInBracket, QuadratureNonConvergence, ValidationError

LOG2E = math.log2(math.e)

# Quadrature knobs: target |error| <= 1e-8 is the external contract; the
# internal tolerance is stricter so grid symmetry checks at 1e-9 hold.
CAPACITY_TOL = 1e-10
MAX_PANELS = 1 << 23
# The capacity kernel evaluates at most this many integrand points per
# block (a pair that needs more runs alone), so a batch's arrays stay near
# 1 MB whatever its size.
BLOCK_POINTS = 1 << 14
_STANDARD_NORMAL = NormalDist()


def gaussian_pdf(y, mean: float, variance: float):
    """Density of N(mean, variance) evaluated at y (scalar or array)."""
    y = np.asarray(y, dtype=float)
    out = np.exp(-((y - mean) ** 2) / (2.0 * variance))
    out /= math.sqrt(2.0 * math.pi * variance)
    return out if out.ndim else float(out)


def gaussian_tail(x: float) -> float:
    """Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gaussian_tail_inverse(p: float) -> float:
    """Inverse of Q for p in (0, 1): Q(gaussian_tail_inverse(p)) = p."""
    return -_STANDARD_NORMAL.inv_cdf(p)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _initial_panels(lo: float, hi: float, scale: float) -> int:
    # Enough panels to put ~8 points per noise standard deviation.
    need = max(64.0, 8.0 * (hi - lo) / scale)
    return 1 << max(6, math.ceil(math.log2(need)))


# Columns of the per-pair constants table the kernel reads; the two log
# weights are adjacent so one slice broadcasts over both mixture components.
_LO, _HI, _WIDTH, _NEG_2V, _HALF_LOG, _LOG_W = 0, 1, 2, 3, 4, slice(5, 7)
_MEANS = np.array([0.0, 1.0])[:, None]


def _grid(c: np.ndarray, n: int, odd: bool) -> np.ndarray:
    """Points of np.linspace(lo, hi, n + 1), one C-contiguous row per pair
    of c, bit for bit: k * ((hi - lo) / n) + lo with the last point set to
    hi.  ``odd`` keeps only the odd k, the points that doubling adds; the
    even points of 2n panels are the n-panel points exactly."""
    k = np.arange(1, n, 2, dtype=float) if odd else np.arange(n + 1, dtype=float)
    x = k * (c[:, _WIDTH, None] / n)
    x += c[:, _LO, None]
    if not odd:
        x[:, -1] = c[:, _HI]
    return x


def _integrand(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """-m(y) log2 m(y) per row of y.  Component j of log m is
    log w_j + (-(y - mean_j)**2 / (2v) - log(2 pi v) / 2), evaluated in that
    order (sign flips aside, which are exact), and log m is
    np.logaddexp(component 0, component 1)."""
    d = y[:, None, :] - _MEANS
    d *= d
    d /= c[:, _NEG_2V, None, None]
    d -= c[:, _HALF_LOG, None, None]
    d += c[:, _LOG_W, None]
    log_m = np.logaddexp(d[:, 0], d[:, 1])
    out = np.exp(log_m)
    out *= log_m
    out *= -LOG2E
    return out


def _simpson_rows(f: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Composite Simpson sums of the rows of f over n panels: one np.dot
    per contiguous row, so each sum adds in the order of a lone call."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return c[:, _WIDTH] / (3.0 * n) * [np.dot(w, row) for row in f]


def _converge(idx, c, n, f, s_half, h):
    """Store in h (at rows idx) the Simpson sum S_n of each pair of c whose
    values on n panels are f and whose Richardson estimate |S_n - S_n/2|/15,
    with s_half = S_n/2, is within CAPACITY_TOL.  The others are doubled up
    to MAX_PANELS, evaluating only the new odd points, BLOCK_POINTS values
    at a time, so memory stays bounded."""
    s = _simpson_rows(f, c, n)
    done = np.abs(s - s_half) <= 15.0 * CAPACITY_TOL
    h[idx[done]] = s[done]
    if done.all():
        return
    keep = ~done
    idx, c, f, s = idx[keep], c[keep], f[keep], s[keep]
    if n > MAX_PANELS:
        raise QuadratureNonConvergence(
            f"quadrature on [{c[0, _LO]}, {c[0, _HI]}] still above "
            f"tol={CAPACITY_TOL} at {n} panels")
    rows = max(1, BLOCK_POINTS // (2 * n + 1))
    for i in range(0, idx.size, rows):
        b = slice(i, i + rows)
        cb = c[b]
        fine = np.empty((len(cb), 2 * n + 1))
        fine[:, ::2] = f[b]
        fine[:, 1::2] = _integrand(_grid(cb, 2 * n, True), cb)
        _converge(idx[b], cb, 2 * n, fine, s[b], h)


def _capacities(qs, variances) -> list[float]:
    """C(q, v) in bits for each pair of the float sequences qs, variances:
    validation, adaptive Simpson over every pair, clamp.  Pairs are grouped
    by starting panel count; each group's grid is evaluated a block of
    pairs at a time, and a doubling evaluates only the new odd points."""
    groups: dict[int, tuple[list, array]] = {}
    out = [0.0] * len(qs)
    for i, (q, variance) in enumerate(zip(qs, variances)):
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"composition q must lie in [0, 1], got {q}")
        if not 0 < variance < math.inf:
            raise ValidationError(
                f"variance must be positive and finite, got {variance}")
        if q == 0.0 or q == 1.0:
            continue
        s = math.sqrt(variance)
        lo, hi = -10.0 * s, 1.0 + 10.0 * s
        if hi * hi == math.inf:
            # The integrand squares y, so it would be NaN on this grid.  C is
            # the low-SNR limit q(1-q)/(2v ln 2) here, off by O(1/v^2).
            out[i] = q * (1.0 - q) / variance * (0.5 * LOG2E)
            continue
        if s < 1e-3:
            # The components sit over 10^3 sd apart: C is H(q) to double
            # precision, where the grid a smaller sd needs outgrows a block.
            out[i] = binary_entropy(q)
            continue
        n0 = _initial_panels(lo, hi, s)
        if n0 > MAX_PANELS:
            raise QuadratureNonConvergence(
                f"quadrature on [{lo}, {hi}] needs over {MAX_PANELS} panels")
        # a flat double array: 56 bytes a pair, where tuples take ~280
        pairs, consts = groups.setdefault(n0, ([], array("d")))
        pairs.append(i)
        consts.extend((lo, hi, hi - lo, -(2.0 * variance),
                       0.5 * math.log(2.0 * math.pi * variance),
                       math.log(1.0 - q), math.log(q)))
    for n0, (pairs, consts) in groups.items():
        # Every pair takes at least one doubling, so the first block goes
        # straight to 2 n0 panels; its even points are the n0-panel grid.
        c = np.frombuffer(consts).reshape(len(pairs), 7)
        h = np.empty(len(pairs))
        rows = max(1, BLOCK_POINTS // (2 * n0 + 1))
        for i in range(0, len(pairs), rows):
            cb = c[i:i + rows]
            f = _integrand(_grid(cb, 2 * n0, False), cb)
            coarse = _simpson_rows(np.ascontiguousarray(f[:, ::2]), cb, n0)
            _converge(np.arange(i, i + len(cb)), cb, 2 * n0, f, coarse, h)
        for i, h_y in zip(pairs, h.tolist()):
            cap = h_y - 0.5 * math.log2(2.0 * math.pi * math.e * variances[i])
            out[i] = min(max(cap, 0.0), binary_entropy(qs[i]))
    return out


def capacity_grid(qs, variances) -> np.ndarray:
    """C(q, v) in bits over numpy-broadcast compositions and variances.

    Each entry is the float that bawgn_capacity(q, v) returns, bit for bit,
    and the first bad pair in C order raises what bawgn_capacity would.
    """
    q, v = np.broadcast_arrays(np.asarray(qs, dtype=float),
                               np.asarray(variances, dtype=float))
    caps = _capacities(q.ravel().tolist(), v.ravel().tolist())
    return np.array(caps, dtype=float).reshape(q.shape)


@lru_cache(maxsize=8192)
def bawgn_capacity(q: float, variance: float) -> float:
    """Capacity-like rate C(q, v) of the binary-input AWGN observation in bits.

    C(q, v) = -int m(y) log2 m(y) dy - (1/2) log2(2 pi e v) with
    m(y) = (1-q) G(y; 0, v) + q G(y; 1, v).  The result is clamped into
    [0, H(q)]; quadrature is adaptive Simpson with absolute error well below
    1e-8.  This is capacity_grid's batch of one.
    """
    return _capacities((q,), (variance,))[0]


@lru_cache(maxsize=512)
def optimal_composition(config) -> tuple[float, float]:
    """Best probe fraction on the grid: argmax over q = k/M, k = 1..M-1, of
    C(q, noise_variance(k)), in one capacity_grid call.  Ties resolve toward
    the smaller q.  Returns (q_star, capacity_bits)."""
    if config.M < 2:
        raise ValidationError("composition scan needs at least 2 cells")
    caps = capacity_grid(np.arange(1, config.M) / config.M,
                         probe_variances(config)[:-1])
    best = int(np.argmax(caps))
    return (best + 1) / config.M, float(caps[best])


def psi_component(a: float, variance):
    """int G(y; 0, v) [g(y)]_a dy for the score g(y) = (2y-1)/(2v), where
    [g]_a keeps g when g >= a and is zero otherwise.  g crosses a at
    y0 = a v + 1/2, so with z = y0/sqrt(v) the integral is exactly
    phi(z)/sqrt(v) - Q(z)/(2v).  ``variance`` may be an array.
    """
    v = np.asarray(variance, dtype=float)
    z, phi = _phi_term(a, v)
    qz = np.reshape([gaussian_tail(x) for x in z.ravel().tolist()], z.shape)
    with np.errstate(over="ignore"):
        out = phi - 0.5 * qz / v
    return out if out.ndim else float(out)


def _phi_term(a: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z and the term phi(z)/sqrt(v) of psi_component, elementwise over v."""
    z = (a * v + 0.5) / np.sqrt(v)
    with np.errstate(over="ignore"):  # z * z is inf only where phi(z) is 0
        return z, np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * v)


@lru_cache(maxsize=512)
def probe_variances(config) -> np.ndarray:
    """noise_variance(k) for k = 1..M; shared by the cache, never mutated."""
    return np.array([config.noise_variance(k) for k in range(1, config.M + 1)])


def psi(a: float, config) -> float:
    """Largest truncated-score integral over feasible probe sizes:
    max over k = 1..M of psi_component(a, noise_variance(k)).

    A component is its phi term less a non-negative tail term, so only the
    sizes whose phi term exceeds the component at the largest phi term can
    hold the max; the tail Q(z) is evaluated for those alone, and the max
    is the same float."""
    v = probe_variances(config)
    z, phi = _phi_term(a, v)
    top = int(np.argmax(phi))
    with np.errstate(over="ignore"):
        near = phi > phi[top] - 0.5 * gaussian_tail(z[top]) / v[top]
    near[top] = True
    return float(psi_component(a, v[near]).max())


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
def solve_a_eta(eta: float, config) -> AEtaResult:
    """Solve (a/(a-3)) psi(a-3) = eta for a > 3 by bisection.

    The left side is non-increasing in a (both factors are), so a sign
    bracket is found by doubling from a = 6.  Stops when the residual is
    within 1e-8 * eta.
    """
    if not eta > 0:
        raise ValidationError(f"eta must be positive, got {eta}")

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
        if abs(fm - eta) <= 1e-8 * eta:
            return AEtaResult(value=mid)
        if fm > eta:
            lo = mid
        else:
            hi = mid
    raise NoRootInBracket("bisection failed to meet the residual tolerance")
