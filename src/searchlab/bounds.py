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
reports are flagged Asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import (
    bawgn_capacity,
    binary_entropy,
    optimal_composition,
    solve_a_eta,
)
from .errors import EtaTooLarge, InvalidAlpha, NoFeasibleAlpha
from .model import SearchConfig, sections_from_alpha

VACUOUS = "Vacuous"
ASYMPTOTIC = "Asymptotic"
CLAMPED = "Clamped"
LOGLOG_CLAMPED = "LogLogClamped"


@dataclass(frozen=True)
class BoundReport:
    """Bundle of converse, achievability, and gain values at one config.

    ``capacity_terms`` holds the capacity constants entering the formulas;
    ``alpha_terms`` the per-alpha pieces (stage bounds / brackets).  ``a_eta``
    is None for asymptotic (general noise law) reports, which have no
    additive constant.
    """

    nonadaptive_lb: float
    adaptive_ub: float
    gain_lb: float
    alpha_star: float
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


def _loglog2(x: float) -> tuple[float, bool]:
    """log2(log2(x)) clamped at 0 for x < 2; second element marks clamping."""
    if x < 2.0:
        return 0.0, True
    return math.log2(math.log2(x)), False


def feasible_alphas(config: SearchConfig) -> list[float]:
    """Section fractions 1/s for every divisor s of M with 2 <= s <= M,
    in decreasing order of alpha."""
    return [1.0 / s for s in range(2, config.M + 1) if config.M % s == 0]


def nonadaptive_lower_bound(config: SearchConfig) -> float:
    """Converse for fixed probe sets, clamped at 0; M = 1 needs no search."""
    if config.M == 1:
        return 0.0
    _, c1 = optimal_composition(config)
    eps = config.epsilon
    val = ((1.0 - eps) * math.log2(config.M) - binary_entropy(eps)) / c1
    return max(0.0, val)


def stage1_upper_bound(config: SearchConfig, alpha: float, eta: float,
                       a_eta: float) -> float:
    """Expected time for the coarse stage to localize the target to one of
    the 1/alpha sections with reliability eps/2."""
    s = sections_from_alpha(alpha)
    if config.M % s != 0:
        raise InvalidAlpha(f"1/alpha = {s} does not divide M = {config.M}")
    _, c1 = optimal_composition(config)
    if not 0.0 < eta < c1:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C1 = {c1})")
    ll, _ = _loglog2(1.0 / alpha)
    num = math.log2(1.0 / alpha) + math.log2(2.0 / config.epsilon) + ll + a_eta
    return num / (c1 - eta)


def stage2_upper_bound(config: SearchConfig, alpha: float, eta: float,
                       a_eta: float) -> float:
    """Expected time for the refine stage over the alpha*M cells of the
    winning section; singleton sections need no second stage."""
    s = sections_from_alpha(alpha)
    if config.M % s != 0:
        raise InvalidAlpha(f"1/alpha = {s} does not divide M = {config.M}")
    am = config.M // s
    if am == 1:
        return 0.0
    c2 = bawgn_capacity(0.5, config.variance_at(am / 2.0))
    if not 0.0 < eta < c2:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C2 = {c2})")
    ll, _ = _loglog2(float(am))
    num = math.log2(am) + math.log2(2.0 / config.epsilon) + ll + a_eta
    return num / (c2 - eta)


def adaptive_upper_bound(config: SearchConfig, eta: float) -> tuple[float, float]:
    """Two-stage achievability bound minimized over feasible alpha.
    Returns (bound, minimizing alpha)."""
    alphas = feasible_alphas(config)
    if not alphas:
        raise NoFeasibleAlpha(f"M = {config.M} admits no section fraction")
    _, c1 = optimal_composition(config)
    if not 0.0 < eta < c1:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C1 = {c1})")
    a_eta = solve_a_eta(eta, config).value
    best_val, best_alpha = math.inf, None
    for alpha in alphas:
        try:
            val = (stage1_upper_bound(config, alpha, eta, a_eta)
                   + stage2_upper_bound(config, alpha, eta, a_eta))
        except EtaTooLarge:
            continue
        if val < best_val:
            best_val, best_alpha = val, alpha
    if best_alpha is None:
        raise NoFeasibleAlpha(f"eta = {eta} is inadmissible at every alpha")
    return best_val, best_alpha


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
    alphas = feasible_alphas(config)
    if not alphas:
        raise NoFeasibleAlpha(f"M = {config.M} admits no section fraction")
    q_star, c1 = optimal_composition(config)
    if not 0.0 < eta < c1:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C1 = {c1})")
    sol = solve_a_eta(eta, config)
    a_eta = sol.value
    eps = config.epsilon
    h_eps = binary_entropy(eps)
    log_2eps = math.log2(2.0 / eps)

    flags: list[str] = []
    if sol.clamped:
        flags.append(CLAMPED)
    capacity_terms = {"C1": c1}
    alpha_terms: dict[float, dict[str, float]] = {}
    any_loglog_clamped = False

    best_gain, best_alpha = -math.inf, None
    best_sum, best_sum_alpha = math.inf, None
    for alpha in alphas:
        s = sections_from_alpha(alpha)
        am = config.M // s
        # the refine capacity is defined from the continuous variance
        # extension even for singleton sections, where it only enters h
        c2 = bawgn_capacity(0.5, config.variance_at(am / 2.0))
        if not eta < c2:
            continue
        s1 = stage1_upper_bound(config, alpha, eta, a_eta)
        s2 = stage2_upper_bound(config, alpha, eta, a_eta)
        ll1, cl1 = _loglog2(1.0 / alpha)
        ll2, cl2 = _loglog2(float(am))
        any_loglog_clamped |= cl1 or cl2
        bracket1 = math.log2(1.0 / alpha) * ((1.0 - eps) / c1 - 1.0 / (c1 - eta))
        bracket2 = math.log2(am) * ((1.0 - eps) / c1 - 1.0 / (c2 - eta))
        h_term = ((log_2eps + ll1 + a_eta) / (c1 - eta)
                  + (log_2eps + ll2 + a_eta) / (c2 - eta)
                  + h_eps / c1)
        gain = bracket1 + bracket2 - h_term
        alpha_terms[alpha] = {"stage1": s1, "stage2": s2, "gain": gain,
                              "bracket1": bracket1, "bracket2": bracket2,
                              "h": h_term}
        capacity_terms[f"C2[alpha=1/{s}]"] = c2
        if gain > best_gain:
            best_gain, best_alpha = gain, alpha
        if s1 + s2 < best_sum:
            best_sum, best_sum_alpha = s1 + s2, alpha
    if best_alpha is None:
        raise NoFeasibleAlpha(f"eta = {eta} is inadmissible at every alpha")
    if best_gain <= 0.0:
        flags.append(VACUOUS)
    if any_loglog_clamped:
        flags.append(LOGLOG_CLAMPED)
    return BoundReport(nonadaptive_lb=nonadaptive_lower_bound(config),
                       adaptive_ub=best_sum, gain_lb=best_gain,
                       alpha_star=best_alpha, eta=eta, a_eta=a_eta,
                       q_star=q_star, capacity_terms=capacity_terms,
                       flags=tuple(flags), alpha_terms=alpha_terms)


def _principal_gain(config: SearchConfig, eta: float):
    """Dominant-term gain brackets (no additive constants), shared by the
    general noise-law report and the regime sweeps.  Returns
    (gain, alpha_star, dominant_min, q_star, c1, capacity_terms, alpha_terms).
    """
    alphas = feasible_alphas(config)
    if not alphas:
        raise NoFeasibleAlpha(f"M = {config.M} admits no section fraction")
    q_star, c1 = optimal_composition(config)
    if not 0.0 < eta < c1:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C1 = {c1})")
    eps = config.epsilon
    capacity_terms = {"C1": c1}
    alpha_terms: dict[float, dict[str, float]] = {}
    best_gain, best_alpha = -math.inf, None
    best_dom = math.inf
    for alpha in alphas:
        s = sections_from_alpha(alpha)
        am = config.M // s
        c2 = bawgn_capacity(0.5, config.variance_at(am / 2.0))
        if not eta < c2:
            continue
        bracket1 = math.log2(1.0 / alpha) * ((1.0 - eps) / c1 - 1.0 / (c1 - eta))
        bracket2 = math.log2(am) * ((1.0 - eps) / c1 - 1.0 / (c2 - eta))
        dom = math.log2(1.0 / alpha) / (c1 - eta) + math.log2(am) / (c2 - eta)
        capacity_terms[f"C2[alpha=1/{s}]"] = c2
        gain = bracket1 + bracket2
        alpha_terms[alpha] = {"bracket1": bracket1, "bracket2": bracket2,
                              "gain": gain, "dominant": dom}
        if gain > best_gain:
            best_gain, best_alpha = gain, alpha
        best_dom = min(best_dom, dom)
    if best_alpha is None:
        raise NoFeasibleAlpha(f"eta = {eta} is inadmissible at every alpha")
    return best_gain, best_alpha, best_dom, q_star, c1, capacity_terms, alpha_terms


def general_f_bounds(config: SearchConfig, eta: float) -> BoundReport:
    """Gain bracket for an arbitrary (positive, non-decreasing) noise law.

    Same structure as the linear-noise gain but keeping only the dominant
    logarithmic terms, so the numbers are exact only up to 1 + o(1) factors;
    the report is flagged Asymptotic and carries no a_eta constant.  The
    optimal composition and both capacity constants are evaluated under the
    config's own noise law.
    """
    gain, alpha_star, dom, q_star, c1, cap_terms, alpha_terms = \
        _principal_gain(config, eta)
    flags = [ASYMPTOTIC]
    if gain <= 0.0:
        flags.append(VACUOUS)
    return BoundReport(nonadaptive_lb=nonadaptive_lower_bound(config),
                       adaptive_ub=dom, gain_lb=gain, alpha_star=alpha_star,
                       eta=eta, a_eta=None, q_star=q_star,
                       capacity_terms=cap_terms, flags=tuple(flags),
                       alpha_terms=alpha_terms)


def fixed_b_limit_constant(config: SearchConfig) -> float:
    """delta -> 0 limit of gain / log2(M): (1-eps)/C(q*, v(q*)) - 1."""
    _, c1 = optimal_composition(config)
    return (1.0 - config.epsilon) / c1 - 1.0


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
        raise ValueError("a regime sweep needs at least 2 configs")
    if all(c.B == configs[0].B for c in configs):
        regime = "fixed_B"
    elif all(c.delta == configs[0].delta for c in configs):
        regime = "fixed_delta"
    else:
        raise ValueError("sweep must hold either B or delta constant")
    out = []
    for cfg in configs:
        if cfg.M < 2:
            raise ValueError("regime sweep points need M >= 2")
        _, c1 = optimal_composition(cfg)
        gain, _, _, _, _, _, _ = _principal_gain(cfg, eta_frac * c1)
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
