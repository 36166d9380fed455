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
``optimal_composition`` runs it only on the probe sizes whose Gaussian
entropy bound min(H(q), log2(1 + q(1-q)/v) / 2) can still reach the best
capacity found, so its argmax is the full scan's, bit for bit.
Everything downstream (strategy stopping times, converse and achievability
bounds) is driven by this function and by the truncated-score integral psi
of the bound constants, closed-form over probe sizes: a psi call is one
pass over per-config terms (v, sqrt(v), sqrt(2 pi v)), and takes the tail
Q(z) only at the sizes that can hold the max.  The constant a_eta, the root
of eta = (a/(a-3)) psi(a-3), is defined by a bisection, whose decisions are
replayed from a handful of passes placed by a Newton solve: a decision is
read from the passes made where psi's monotonicity and a bound on its
rounding settle it, and from a pass at the point elsewhere, so the result
is the bisection's, bit for bit.  Q is ``gaussian_tail`` (math.erfc) and
Q^{-1} is statistics.NormalDist().inv_cdf, both stdlib.
"""

from __future__ import annotations

import bisect
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
# optimal_composition skips a probe size whose Gaussian entropy bound lies
# more than this below the best capacity found.  It is the capacity's 1e-8
# error contract, so a skipped size could win only by a quadrature error
# past it; computed capacities were seen above the bound by 4.7e-14 at most
# (448 configs, M = 2..1024, sigma2 = 1e-7..1e8).
PRUNE_MARGIN = 1e-8
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
    C(q, noise_variance(k)).  Ties resolve toward the smaller q.  Returns
    (q_star, capacity_bits).

    Var(Y) = q(1-q) + v and a Gaussian has the largest entropy for its
    variance, so C(q, v) <= U = min(H(q), log2(1 + q(1-q)/v) / 2).  The scan
    runs capacity_grid on the size with the largest U, then once on every
    other size whose U is within PRUNE_MARGIN of that capacity.  A pruned
    size lies strictly below the maximum, and capacity_grid gives each pair
    the float a lone call gives, so (q_star, capacity) and the tie rule are
    those of the full scan, bit for bit.  A bad variance runs the full scan,
    which raises what it raises."""
    if config.M < 2:
        raise ValidationError("composition scan needs at least 2 cells")
    q = np.arange(1, config.M) / config.M
    v = probe_variances(config)[:-1]
    if not np.all((v > 0) & (v < math.inf)):
        capacity_grid(q, v)  # raises on the first refused pair in k order
    with np.errstate(over="ignore"):
        bound = np.minimum(-(q * np.log2(q) + (1 - q) * np.log2(1 - q)),
                           0.5 * np.log2(1 + q * (1 - q) / v))
    top = int(np.argmax(bound))
    caps = np.full(q.shape, -math.inf)
    caps[top] = capacity_grid(q[top], v[top])
    near = bound + PRUNE_MARGIN >= caps[top]
    near[top] = False
    caps[near] = capacity_grid(q[near], v[near])
    best = int(np.argmax(caps))
    return (best + 1) / config.M, float(caps[best])


def psi_component(a: float, variance):
    """int G(y; 0, v) [g(y)]_a dy for the score g(y) = (2y-1)/(2v), where
    [g]_a keeps g when g >= a and is zero otherwise.  g crosses a at
    y0 = a v + 1/2, so with z = y0/sqrt(v) the integral is exactly
    phi(z)/sqrt(v) - Q(z)/(2v).  ``variance`` may be an array.  The
    reference for psi, which repeats its arithmetic element by element.
    """
    v = np.asarray(variance, dtype=float)
    z = (a * v + 0.5) / np.sqrt(v)
    qz = np.reshape([gaussian_tail(x) for x in z.ravel().tolist()], z.shape)
    with np.errstate(over="ignore"):  # z * z is inf only where phi(z) is 0
        out = np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * v) - 0.5 * qz / v
    return out if out.ndim else float(out)


@lru_cache(maxsize=512)
def probe_variances(config) -> np.ndarray:
    """noise_variance(k) for k = 1..M; shared by the cache, never mutated.
    Each is f(k) * delta * sigma2 in the scalar's order, so the same float."""
    return config.noise.multipliers(config.M) * config.delta * config.sigma2


@lru_cache(maxsize=512)
def _psi_terms(config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v = probe_variances(config), sqrt(v) and sqrt(2 pi v): the per-size
    terms of every psi evaluation at the config, shared and never mutated."""
    v = probe_variances(config)
    return v, np.sqrt(v), np.sqrt(2.0 * math.pi * v)


def _psi_pass(a: float, terms) -> tuple[float, float, float]:
    """psi at a from a config's terms (v, sqrt(v), sqrt(2 pi v)), with two
    by-products the a_eta solve reads: v_k phi_k of the size k that holds
    the max, and the largest phi term.

    One pass over the terms computes z and the phi term of every size in
    place, in psi_component's order of operations.  A component is its phi
    term less a non-negative tail term, so only the sizes whose phi term
    exceeds the component at the largest phi term can hold the max; the
    tail Q(z) is evaluated at that top size and at those alone, and the max
    is psi_component's over every size, the same float."""
    v, root_v, root_2pi_v = terms
    with np.errstate(over="ignore"):  # z * z is inf only where phi(z) is 0
        z = a * v
        z += 0.5
        z /= root_v
        phi = z * -0.5
        phi *= z
        np.exp(phi, out=phi)
        phi /= root_2pi_v
        top = k = int(phi.argmax())
        best = phi[top] - 0.5 * gaussian_tail(z[top]) / v[top]
        near = phi > best
        near[top] = False
        if near.any():
            sizes = np.flatnonzero(near)
            tail = np.array([gaussian_tail(x) for x in z[sizes].tolist()])
            tail *= 0.5
            tail /= v[sizes]
            tail = phi[sizes] - tail
            j = int(tail.argmax())
            if tail[j] > best:
                best, k = tail[j], int(sizes[j])
    return float(best), float(v[k]) * float(phi[k]), float(phi[top])


def psi(a: float, config) -> float:
    """Largest truncated-score integral over feasible probe sizes:
    max over k = 1..M of psi_component(a, noise_variance(k)), the same
    float, from one pass over the config's cached terms (``_psi_pass``)."""
    return _psi_pass(a, _psi_terms(config))[0]


@dataclass(frozen=True)
class AEtaResult:
    """Solution of eta = (a/(a-3)) psi(a-3).  ``clamped`` marks the case
    where eta exceeds the left-endpoint value and the bracket edge is
    returned instead of a root."""

    value: float
    clamped: bool = False


A_ETA_BRACKET_LO = 3.0 + 1e-6
A_ETA_BRACKET_CAP = 1e9


class _Evaluations:
    """The evaluations of f(x) = x/(x-3) psi(x-3) that one a_eta solve has
    made, and what they settle about the float f gives elsewhere.

    With t = x - 3 and h = x / t as f rounds them, f(x) is the float
    h * psi_c(t), psi_c the rounded pass.  The true psi is non-increasing
    in t > 0 (each component is: raising a drops a stretch where the score
    is positive), so for evaluated t_p < t <= t_q

        psi_c(t_q) - err(t_q) <= psi(t) <= psi_c(t_p) + err(t_p),

    err the bound on a pass's rounding that ``evaluate`` derives, and
    psi_c(t) lies within the rounding at t of psi(t).  Rounding is
    monotone, so f(x) lies between the floats h * lower and h * upper of
    those two bounds, each widened by the rounding at t, and where the
    bisection's test reads the same at both it reads that at f(x): the test
    is monotone in f, each of its outcomes taking one interval of floats.
    Elsewhere x is evaluated, and its evaluation settles more points.

    The rounding at t, unevaluated, is bounded from psi(t) alone.  A
    component's tail term is below its phi term over 2tv + 1 (see
    evaluate), so psi >= phi_top 2tv(1)/(2tv(1) + 1), and the pass's bound
    24u (1 + Z^2) phi_top is at most 24u kappa H(psi), with
    kappa = 1 + 1/(2 t v(1)) and H(p) = p (1 + max(1, -2 log(sqrt(2 pi
    v(1)) p))), which grows with p.  So psi_c(t) <= upper + 24u kappa
    H(upper), and psi_c(t) >= lower - 24u kappa H(lower) where that map
    still grows on [lower, inf), i.e. 24u kappa (1 + max(1, ...)) < 1.
    kappa is the cancellation of the phi term and the tail: it grows like
    1/(2 t v(1)) near the pole and at small sigma^2, and there the
    evaluations settle little and the bisection evaluates."""

    def __init__(self, config):
        self.terms = _psi_terms(config)
        self.v1, r1 = float(self.terms[0][0]), float(self.terms[2][0])
        # Where a result is subnormal its rounding is absolute, up to 2^-1075
        # before the divisions by sqrt(2 pi v) and 2v; this covers a few.
        # At v(1) = 0 nothing is settled, and every point is evaluated.
        self.tiny, self.log_r1 = math.inf, 0.0
        if self.v1 > 0.0:
            self.tiny = 2.0 ** -1060 * (1.0 + 1.0 / r1 + 1.0 / self.v1)
            self.log_r1 = math.log(r1)
        # per evaluation, in order of t: t, psi_c, and psi_c - err and
        # psi_c + err, each with its spread
        self.ts: list[float] = []
        self.psis: list[float] = []
        self.lows: list[tuple[float, float]] = []
        self.highs: list[tuple[float, float]] = []

    def _spread(self, p: float) -> float:
        """1 + max(1, -2 log(sqrt(2 pi v(1)) p)), the 1 + Z^2 of a largest
        phi term p and the H(p)/p of a bound p on psi; 0 at p <= 0."""
        if not p > 0.0:
            return 0.0
        return 1.0 + max(1.0, -2.0 * (self.log_r1 + math.log(p)))

    def evaluate(self, x: float) -> tuple[float, float]:
        """psi_c(x - 3) and the rate of psi's fall there, from one pass.

        The rounding of a pass.  With u = 2^-53 the unit roundoff,
        z = (a v + 1/2) / sqrt(v) carries a relative error within 4u, so
        the phi term's exponent -z^2/2 is off by at most 4.5u z^2 and the
        phi term by a factor within exp(4.5u z^2)(1 + 5u) (exp,
        sqrt(2 pi v) and the division).
        The tail Q(z) = erfc(z / sqrt 2) / 2 takes an argument off by 6u
        relative; d log erfc(w)/dw is below 2w + sqrt 2, so log Q moves by
        at most 6u (z^2 + z), and erfc itself by a few ulps.  For z > 0 the
        tail term Q(z)/(2v) < phi(z)/(2vz) = phi term / (2av + 1) is below
        the phi term.  So a component is off by at most
        u phi (10.5 z^2 + 6z + 23) <= 24u phi (1 + z^2) in phi terms, and
        psi_c, a max of components whose skipped sizes sit below it by
        their phi terms, by as much as the worst size.  Where the phi term
        and the tail nearly cancel, as near the pole or at small sigma^2,
        that is a large share of psi: 1/(2 a v) of it.

        No size's phi (1 + z^2) exceeds (1 + Z^2) phi_top, with Z^2 the
        larger of 1 and -2 log(sqrt(2 pi v(1)) phi_top): a size with z <= Z
        has phi <= phi_top, and for z > Z >= 1, phi(z)(1 + z^2) falls in z,
        so its term is below phi(Z)(1 + Z^2) / sqrt(v(1)) = (1 + Z^2) phi_top.
        err = 32u (1 + Z^2) phi_top leaves 8u phi_top >= 8u |psi_c| for the
        rounding of the bounds' own arithmetic."""
        t = x - 3.0
        psi_t, v_phi, phi_top = _psi_pass(t, self.terms)
        err = 2.0 ** -48 * self._spread(phi_top) * phi_top + self.tiny  # 32u
        i = bisect.bisect_left(self.ts, t)
        self.ts.insert(i, t)
        self.psis.insert(i, psi_t)
        for bounds, p in ((self.lows, psi_t - err), (self.highs, psi_t + err)):
            bounds.insert(i, (p, self._spread(p)))
        # psi'(t) = -t v_k phi_k, the slope of the component holding the max
        # (the envelope): psi falls like exp(-rate t^2) at t
        rate = 0.5 * v_phi / psi_t if psi_t > 0.0 else math.nan
        return psi_t, rate

    def decide(self, x: float, test):
        """test(f(x)) for a test monotone in f: from the evaluations where
        they settle it, else from a pass at x."""
        t = x - 3.0
        h = x / t
        i = bisect.bisect_left(self.ts, t)
        if i < len(self.ts) and self.ts[i] == t:
            return test(h * self.psis[i])
        tv = 2.0 * t * self.v1
        c = 2.0 ** -48 * (1.0 + 1.0 / tv) if tv > 0.0 else math.inf
        if c < math.inf:  # 32u kappa
            lower, upper = -math.inf, math.inf
            if i < len(self.ts):
                p, spread = self.lows[i]
                if p > 0.0 and c * spread < 1.0:
                    lower = p - (c * spread * p + self.tiny)
            if i:
                p, spread = self.highs[i - 1]
                upper = p + (c * spread * p + self.tiny)
            low = test(h * lower)
            if low == test(h * upper):
                return low
        return test(h * self.evaluate(x)[0])

    def anchor(self, eta: float) -> None:
        """Evaluate f just outside the bisection's 1e-8 band on each side of
        the root, where they settle every decision but the last few.

        A safeguarded Newton solve on log f from x = 6.  Each step takes
        the root of a model of log f with the pass's value and slope:
        log(x/(x-3)) exactly, and psi as a Gaussian exp(-rate t^2), which
        is exact far out, where psi is its top component's tail, and near
        the pole, where psi is flat.  A step that leaves the bracket the
        passes so far have shown, or a slope that is not finite, bisects
        the bracket in log(x - 3) instead (doubles x while no pass lies
        right of the root; first tries the bracket's floor).  Once log f is
        within 1e-4 of log eta the model's root is within a small share of
        the band's half-width of the true one, and the two anchors go 1.5
        half-widths either side of it.  The evaluations settle decisions
        and nothing else, so where this ends early the bisection only
        evaluates more."""
        lo, log_eta = A_ETA_BRACKET_LO, math.log(eta)
        x_lo, x_hi, x = 3.0, math.inf, 6.0  # x_lo: the last x above eta
        for _ in range(12):
            psi_x, rate = self.evaluate(x)
            t = x - 3.0
            # log f - log eta, and the part of it that psi carries
            g_psi = math.log(psi_x) - log_eta if psi_x > 0.0 else -math.inf
            g = g_psi + math.log(x / t)
            if g > 0.0:
                x_lo = x
            elif x == lo:
                return  # f(lo) < eta: the bisection clamps
            else:
                x_hi = x
            x = math.nan
            if math.isfinite(g) and math.isfinite(rate):
                root, slope = _model_root(t, g_psi, rate)
                if abs(g) <= 1e-4:
                    width = 1.5e-8 / -slope
                    for a in (3.0 + root - width, 3.0 + root + width):
                        if lo < a <= A_ETA_BRACKET_CAP:
                            self.evaluate(a)
                    return
                x = 3.0 + root
            if not x_lo < x < x_hi:
                if x_lo == 3.0:
                    x = lo
                elif x_hi == math.inf:
                    x = 2.0 * x_lo
                else:
                    x = 3.0 + math.sqrt((x_lo - 3.0) * (x_hi - 3.0))
            if x > A_ETA_BRACKET_CAP:
                return


def _model_root(t: float, g: float, rate: float) -> tuple[float, float]:
    """The root s of log(1 + 3/s) + g - rate (s^2 - t^2), g = log psi(t) -
    log eta, and the model's slope in x there: Newton steps in log s from
    t, within t = 1e-7 .. 2e9."""
    u = math.log(t)
    for _ in range(50):
        s = math.exp(u)
        step = (math.log1p(3.0 / s) + g - rate * (s * s - t * t)) \
            / (3.0 / (s + 3.0) + 2.0 * rate * s * s)
        if not math.isfinite(step):
            break
        u = min(max(u + step, -16.1), 21.4)
        if abs(step) <= 1e-10:
            break
    s = math.exp(u)
    return s, -3.0 / (s * (s + 3.0)) - 2.0 * rate * s


@lru_cache(maxsize=512)
def solve_a_eta(eta: float, config) -> AEtaResult:
    """Solve (a/(a-3)) psi(a-3) = eta for a > 3 by bisection.

    The left side is non-increasing in a (both factors are), so a sign
    bracket is found by doubling from a = 6.  Stops when the residual is
    within 1e-8 * eta.

    The bisection is the definition, and its control flow runs here as
    written, but it evaluates f only where the evaluations made so far do
    not settle its next decision (``_Evaluations``).  A Newton solve on
    log f first leaves evaluations ("anchors") just outside the 1e-8 band
    on each side of the root, and they settle every decision away from it.
    An evaluation decides a point only where f's monotonicity carries it
    past the test by more than the rounding bound of psi at the evaluation
    plus that at the point decided.  That bound, derived in
    ``_Evaluations``, grows like 1/(2 (a-3) v) where psi's phi term and
    tail cancel, near the pole and at small sigma^2, so there the
    bisection evaluates.  The returned float, ``clamped`` and every error
    are the bisection's own, from about 6 to 7 psi passes a solve at the
    bound points where the bisection alone takes 31 or more.
    """
    if not eta > 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    f = _Evaluations(config)
    f.anchor(eta)
    tol = 1e-8 * eta

    def residual(fm: float) -> int:
        if abs(fm - eta) <= tol:
            return 0
        return 1 if fm > eta else -1

    lo = A_ETA_BRACKET_LO
    if f.decide(lo, lambda fm: fm < eta):
        return AEtaResult(value=lo, clamped=True)
    hi = 6.0
    while f.decide(hi, lambda fm: fm > eta):
        hi *= 2.0
        if hi > A_ETA_BRACKET_CAP:
            raise NoRootInBracket(
                f"no a <= {A_ETA_BRACKET_CAP} satisfies the eta equation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        side = f.decide(mid, residual)
        if side == 0:
            return AEtaResult(value=mid)
        if side > 0:
            lo = mid
        else:
            hi = mid
    raise NoRootInBracket("bisection failed to meet the residual tolerance")
