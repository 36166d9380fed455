"""Expected-search-time bounds and the adaptivity gain they sandwich.

Three families of quantities:

* a converse for non-adaptive (fixed probe set) strategies,
  E[tau] >= ((1-eps) log2 M - H(eps)) / C(q*, v(q*));
* an achievability bound for the two-stage adaptive strategy, the sum of a
  coarse-search and a refine-search term, minimized over the feasible
  section fractions alpha = 1/s with s | M; and
* their difference, the guaranteed adaptivity gain, maximized over alpha.

The achievability terms carry a slack eta in the denominators and an
additive constant a_eta from the stopping-time analysis, obtained by
solving eta = (a/(a-3)) psi(a-3).  For noise laws beyond the linear one
the same bracket structure applies without the additive constants; those
reports are flagged Asymptotic.  lemma2, theorem1 and theorem2 are views of
one per-alpha builder's BoundReport (theorem2's without the constants), so
they share its feasibility checks, capacities, brackets and stage formula;
the Lemma 2 stage times are read from its alpha_terms, and nowhere else.
Every feasible alpha's refine capacity C2 comes from one capacity_grid call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

# bench/tracer.py patches bawgn_capacity here.
from .channel import (
    bawgn_capacity,
    binary_entropy,
    capacity_grid,
    optimal_composition,
    solve_a_eta,
)
from .errors import EtaTooLarge, NoFeasibleAlpha, ValidationError
from .model import SearchConfig

VACUOUS = "Vacuous"
ASYMPTOTIC = "Asymptotic"
CLAMPED = "Clamped"


@dataclass(frozen=True)
class BoundReport:
    """Bundle of converse, achievability, and gain values at one config.

    ``gain_lb`` is the gain's maximum over alpha, at ``alpha_star``, and
    ``adaptive_ub`` the upper bound's minimum, at ``alpha_ub``.
    ``capacity_terms`` holds the capacity constants entering the formulas;
    ``alpha_terms`` the per-alpha pieces: ``bracket1``, ``bracket2``,
    ``gain``, the upper bound ``ub`` and, with constants, ``stage1`` and
    ``stage2`` (ub is their sum) and ``h``.  ``a_eta`` is None for
    asymptotic (general noise law) reports, which have no additive
    constant, and whose ub is the dominant logarithmic terms alone.
    """

    nonadaptive_lb: float
    adaptive_ub: float
    gain_lb: float
    alpha_star: float
    alpha_ub: float
    eta: float
    a_eta: float | None
    q_star: float
    capacity_terms: dict[str, float]
    flags: tuple[str, ...] = ()
    alpha_terms: dict[float, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class RegimeRatio:
    """Normalized gain at one sweep point of an asymptotic regime."""

    regime: str
    B: float
    delta: float
    M: int
    gain: float
    ratio: float
    limit_constant: float
    flags: tuple[str, ...] = ()


def _loglog2(x: float) -> float:
    """log2(log2(x)), clamped at 0 for x < 2."""
    return math.log2(math.log2(x)) if x >= 2.0 else 0.0


def _section_counts(m: int) -> list[int]:
    """Every divisor s of m with 2 <= s <= m, in increasing order."""
    return [s for s in range(2, m + 1) if m % s == 0]


def feasible_alphas(config: SearchConfig) -> list[float]:
    """Section fractions 1/s for every divisor s of M with 2 <= s <= M,
    in decreasing order of alpha."""
    return [1.0 / s for s in _section_counts(config.M)]


def _coarse_c1(config: SearchConfig) -> float:
    """C1 = C(q*, v(q*)) of the config, refused where it underflows to 0:
    a bound that divides by it has no value there."""
    _, c1 = optimal_composition(config)
    if not c1 > 0.0:
        raise ValidationError(f"C1 underflowed to {c1} at sigma2 = {config.sigma2}: "
                              "the noise is too large for a bound that divides by it")
    return c1


def nonadaptive_lower_bound(config: SearchConfig) -> float:
    """Converse for fixed probe sets, clamped at 0; M = 1 needs no search."""
    if config.M == 1:
        return 0.0
    c1 = _coarse_c1(config)
    eps = config.epsilon
    val = ((1.0 - eps) * math.log2(config.M) - binary_entropy(eps)) / c1
    return max(0.0, val)


@lru_cache(maxsize=512)
def _refine_capacities(config: SearchConfig,
                       ams: tuple[int, ...]) -> tuple[float, ...]:
    """C2 = C(1/2, v(am/2)) of each am-cell section, from the continuous
    variance extension even for singleton sections, in one capacity_grid
    call: each the float bawgn_capacity gives, and the first refused
    variance in the order of ams raises what bawgn_capacity raises.  v is
    non-decreasing and ams falls along the feasible alphas, so a
    noise_variance that raises does so at the first.  Cached, so a second
    report at the config reads the same C2 without quadrature."""
    variances = [config.noise_variance(am / 2.0) for am in ams]
    return tuple(capacity_grid(0.5, variances).tolist())


def _stage_time(n: float, eps: float, a_eta: float, c: float,
                eta: float) -> float:
    """Expected time to localize the target to one of n parts with
    reliability eps/2 at capacity c; one part needs no stage."""
    if n == 1:
        return 0.0
    return (math.log2(n) + math.log2(2.0 / eps) + _loglog2(n) + a_eta) / (c - eta)


def _report(config: SearchConfig, eta: float, constants: bool) -> BoundReport:
    """The one per-alpha pass, which lemma2, theorem1 and theorem2 read.

    Every feasible alpha with eta < C2(alpha) gets its gain brackets and
    upper bound: with constants (a_eta is solved once), its stage bounds
    and constant term h; without, the dominant logarithmic terms.  The
    skip never fires at the singleton section alpha = 1/M: its refine
    probe has composition 1/2, where the binary-input capacity peaks, and
    variance v(1/2) below every v(k), k >= 1, so C2(1/M) >= C1 > eta.
    """
    sections = _section_counts(config.M)
    if not sections:
        raise NoFeasibleAlpha(f"M = {config.M} admits no section fraction")
    q_star, c1 = optimal_composition(config)
    if not 0.0 < eta < c1:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C1 = {c1})")
    sol = solve_a_eta(eta, config) if constants else None
    eps = config.epsilon
    h_eps = binary_entropy(eps)
    log_2eps = math.log2(2.0 / eps)
    capacity_terms = {"C1": c1}
    alpha_terms: dict[float, dict[str, float]] = {}
    ams = tuple(config.M // s for s in sections)
    for s, am, c2 in zip(sections, ams, _refine_capacities(config, ams)):
        alpha = 1.0 / s
        if not eta < c2:
            continue
        capacity_terms[f"C2[alpha=1/{s}]"] = c2
        bracket1 = math.log2(1.0 / alpha) * ((1.0 - eps) / c1 - 1.0 / (c1 - eta))
        bracket2 = math.log2(am) * ((1.0 - eps) / c1 - 1.0 / (c2 - eta))
        terms = alpha_terms[alpha] = {"bracket1": bracket1, "bracket2": bracket2}
        if sol is None:
            terms["gain"] = bracket1 + bracket2
            terms["ub"] = (math.log2(1.0 / alpha) / (c1 - eta)
                           + math.log2(am) / (c2 - eta))
            continue
        a_eta = sol.value
        h_term = ((log_2eps + _loglog2(1.0 / alpha) + a_eta) / (c1 - eta)
                  + (log_2eps + _loglog2(float(am)) + a_eta) / (c2 - eta)
                  + h_eps / c1)
        stage1 = _stage_time(1.0 / alpha, eps, a_eta, c1, eta)
        stage2 = _stage_time(am, eps, a_eta, c2, eta)
        terms.update(stage1=stage1, stage2=stage2, ub=stage1 + stage2,
                     h=h_term, gain=bracket1 + bracket2 - h_term)
    if not alpha_terms:
        raise NoFeasibleAlpha(f"eta = {eta} is inadmissible at every alpha")
    alpha_star = max(alpha_terms, key=lambda a: alpha_terms[a]["gain"])
    alpha_ub = min(alpha_terms, key=lambda a: alpha_terms[a]["ub"])
    gain = alpha_terms[alpha_star]["gain"]
    flags = [ASYMPTOTIC] if sol is None else [CLAMPED] if sol.clamped else []
    if gain <= 0.0:
        flags.append(VACUOUS)
    return BoundReport(nonadaptive_lb=nonadaptive_lower_bound(config),
                       adaptive_ub=alpha_terms[alpha_ub]["ub"], gain_lb=gain,
                       alpha_star=alpha_star, alpha_ub=alpha_ub, eta=eta,
                       a_eta=None if sol is None else sol.value, q_star=q_star,
                       capacity_terms=capacity_terms, flags=tuple(flags),
                       alpha_terms=alpha_terms)


def adaptive_upper_bound(config: SearchConfig, eta: float) -> tuple[float, float]:
    """Two-stage achievability bound minimized over feasible alpha.
    Returns (bound, minimizing alpha), the adaptive_ub and alpha_ub of the
    theorem1 report."""
    rep = _report(config, eta, True)
    return rep.adaptive_ub, rep.alpha_ub


def adaptivity_gain_lower_bound(config: SearchConfig, eta: float) -> BoundReport:
    """Guaranteed advantage of adaptive over non-adaptive search.

    For each feasible alpha the gain bracket is
        log2(1/alpha)  * ((1-eps)/C1 - 1/(C1 - eta))
      + log2(alpha M)  * ((1-eps)/C1 - 1/(C2(alpha) - eta))
      - h(alpha)
    where h collects the eps-, loglog-, and a_eta-driven constants; the
    report takes the maximum over alpha.  A non-positive maximum is flagged
    Vacuous (the bound then says nothing).
    """
    return _report(config, eta, True)


def general_f_bounds(config: SearchConfig, eta: float) -> BoundReport:
    """Gain bracket for an arbitrary (positive, non-decreasing) noise law.

    Same structure as the linear-noise gain but keeping only the dominant
    logarithmic terms, so the numbers are exact only up to 1 + o(1) factors;
    the report is flagged Asymptotic and carries no a_eta constant.  The
    optimal composition and both capacity constants are evaluated under the
    config's own noise law.
    """
    return _report(config, eta, False)


def fixed_b_limit_constant(config: SearchConfig) -> float:
    """delta -> 0 limit of gain / log2(M): (1-eps)/C(q*, v(q*)) - 1."""
    return (1.0 - config.epsilon) / _coarse_c1(config) - 1.0


def fixed_delta_limit_constant(config: SearchConfig) -> float:
    """B -> inf limit of gain / (M log2 M): (1-eps) sigma2 delta / log2(e)."""
    return (1.0 - config.epsilon) * config.sigma2 * config.delta * math.log(2.0)


def asymptotic_ratios(configs, eta_frac: float = 0.1) -> list[RegimeRatio]:
    """Normalized principal gain along a sweep.

    With B fixed and delta -> 0 the gain grows like log2(M); with delta
    fixed and B -> inf it grows like M log2(M).  Each point reports
    gain / normalizer together with the corresponding limit constant.  The
    regime is inferred from which of B, delta stays constant; eta is set to
    eta_frac * C1 per point.
    """
    configs = list(configs)
    if len(configs) < 2:
        raise ValidationError("a regime sweep needs at least 2 configs")
    if all(c.B == configs[0].B for c in configs):
        regime = "fixed_B"
    elif all(c.delta == configs[0].delta for c in configs):
        regime = "fixed_delta"
    else:
        raise ValidationError("sweep must hold either B or delta constant")
    out = []
    for cfg in configs:
        if cfg.M < 2:
            raise ValidationError("regime sweep points need M >= 2")
        _, c1 = optimal_composition(cfg)
        gain = general_f_bounds(cfg, eta_frac * c1).gain_lb
        log_m = math.log2(cfg.M)
        if regime == "fixed_B":
            ratio = gain / log_m
            limit = fixed_b_limit_constant(cfg)
        else:
            ratio = gain / (cfg.M * log_m)
            limit = fixed_delta_limit_constant(cfg)
        flags = (VACUOUS,) if limit <= 0.0 else ()
        out.append(RegimeRatio(regime=regime, B=cfg.B, delta=cfg.delta,
                               M=cfg.M, gain=gain, ratio=ratio,
                               limit_constant=limit, flags=flags))
    return out
