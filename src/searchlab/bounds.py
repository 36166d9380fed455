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
reports are flagged Asymptotic.  The two-stage bound (lemma2) and both gain
reports (theorem1, theorem2) read one per-alpha pass, so they share its
feasibility checks, capacities and brackets.
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
from .errors import EtaTooLarge, NoFeasibleAlpha, ValidationError
from .model import SearchConfig, sections_from_alpha

VACUOUS = "Vacuous"
ASYMPTOTIC = "Asymptotic"
CLAMPED = "Clamped"


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


def _loglog2(x: float) -> float:
    """log2(log2(x)), clamped at 0 for x < 2."""
    return math.log2(math.log2(x)) if x >= 2.0 else 0.0


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


def _coarse_capacity(config: SearchConfig, eta: float) -> tuple[float, float]:
    """(q*, C1) of the config, after checking 0 < eta < C1."""
    q_star, c1 = optimal_composition(config)
    if not 0.0 < eta < c1:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C1 = {c1})")
    return q_star, c1


def _refine_capacity(config: SearchConfig, am: int) -> float:
    """C2 of an am-cell section, from the continuous variance extension
    even for singleton sections."""
    return bawgn_capacity(0.5, config.variance_at(am / 2.0))


def stage1_upper_bound(config: SearchConfig, alpha: float, eta: float,
                       a_eta: float) -> float:
    """Expected time for the coarse stage to localize the target to one of
    the 1/alpha sections with reliability eps/2."""
    sections_from_alpha(alpha, config.M)
    _, c1 = _coarse_capacity(config, eta)
    ll = _loglog2(1.0 / alpha)
    num = math.log2(1.0 / alpha) + math.log2(2.0 / config.epsilon) + ll + a_eta
    return num / (c1 - eta)


def stage2_upper_bound(config: SearchConfig, alpha: float, eta: float,
                       a_eta: float) -> float:
    """Expected time for the refine stage over the alpha*M cells of the
    winning section; singleton sections need no second stage."""
    am = config.M // sections_from_alpha(alpha, config.M)
    if am == 1:
        return 0.0
    c2 = _refine_capacity(config, am)
    if not 0.0 < eta < c2:
        raise EtaTooLarge(f"eta = {eta} not strictly inside (0, C2 = {c2})")
    ll = _loglog2(float(am))
    num = math.log2(am) + math.log2(2.0 / config.epsilon) + ll + a_eta
    return num / (c2 - eta)


def _alpha_pass(config: SearchConfig, eta: float, constants: bool):
    """The per-alpha terms that lemma2, theorem1 and theorem2 read.

    Every feasible alpha with eta < C2(alpha) gets its two gain brackets
    and, with constants, its stage bounds and the constant term h (a_eta
    is solved once); without, its dominant logarithmic terms.  The skip
    never fires at the singleton section alpha = 1/M: its refine probe has
    composition 1/2, where the binary-input capacity peaks, and variance
    v(1/2) below every v(k), k >= 1, so C2(1/M) >= C1 > eta.  Returns
    (q_star, a_eta solution or None, capacity_terms, alpha_terms).
    """
    alphas = feasible_alphas(config)
    if not alphas:
        raise NoFeasibleAlpha(f"M = {config.M} admits no section fraction")
    q_star, c1 = _coarse_capacity(config, eta)
    sol = solve_a_eta(eta, config) if constants else None
    eps = config.epsilon
    h_eps = binary_entropy(eps)
    log_2eps = math.log2(2.0 / eps)
    capacity_terms = {"C1": c1}
    alpha_terms: dict[float, dict[str, float]] = {}
    for alpha in alphas:
        s = sections_from_alpha(alpha)
        am = config.M // s
        c2 = _refine_capacity(config, am)
        if not eta < c2:
            continue
        capacity_terms[f"C2[alpha=1/{s}]"] = c2
        bracket1 = math.log2(1.0 / alpha) * ((1.0 - eps) / c1 - 1.0 / (c1 - eta))
        bracket2 = math.log2(am) * ((1.0 - eps) / c1 - 1.0 / (c2 - eta))
        if sol is None:
            dom = math.log2(1.0 / alpha) / (c1 - eta) + math.log2(am) / (c2 - eta)
            alpha_terms[alpha] = {"bracket1": bracket1, "bracket2": bracket2,
                                  "gain": bracket1 + bracket2, "dominant": dom}
            continue
        a_eta = sol.value
        h_term = ((log_2eps + _loglog2(1.0 / alpha) + a_eta) / (c1 - eta)
                  + (log_2eps + _loglog2(float(am)) + a_eta) / (c2 - eta)
                  + h_eps / c1)
        alpha_terms[alpha] = {
            "stage1": stage1_upper_bound(config, alpha, eta, a_eta),
            "stage2": stage2_upper_bound(config, alpha, eta, a_eta),
            "gain": bracket1 + bracket2 - h_term,
            "bracket1": bracket1, "bracket2": bracket2, "h": h_term}
    if not alpha_terms:
        raise NoFeasibleAlpha(f"eta = {eta} is inadmissible at every alpha")
    return q_star, sol, capacity_terms, alpha_terms


def _stage_sum(terms: dict[str, float]) -> float:
    return terms["stage1"] + terms["stage2"]


def adaptive_upper_bound(config: SearchConfig, eta: float) -> tuple[float, float]:
    """Two-stage achievability bound minimized over feasible alpha.
    Returns (bound, minimizing alpha)."""
    alpha_terms = _alpha_pass(config, eta, True)[3]
    alpha = min(alpha_terms, key=lambda a: _stage_sum(alpha_terms[a]))
    return _stage_sum(alpha_terms[alpha]), alpha


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
    q_star, sol, capacity_terms, alpha_terms = _alpha_pass(config, eta, True)
    alpha_star = max(alpha_terms, key=lambda a: alpha_terms[a]["gain"])
    gain = alpha_terms[alpha_star]["gain"]
    flags = [CLAMPED] if sol.clamped else []
    if gain <= 0.0:
        flags.append(VACUOUS)
    return BoundReport(nonadaptive_lb=nonadaptive_lower_bound(config),
                       adaptive_ub=min(map(_stage_sum, alpha_terms.values())),
                       gain_lb=gain, alpha_star=alpha_star, eta=eta,
                       a_eta=sol.value, q_star=q_star,
                       capacity_terms=capacity_terms, flags=tuple(flags),
                       alpha_terms=alpha_terms)


def general_f_bounds(config: SearchConfig, eta: float) -> BoundReport:
    """Gain bracket for an arbitrary (positive, non-decreasing) noise law.

    Same structure as the linear-noise gain but keeping only the dominant
    logarithmic terms, so the numbers are exact only up to 1 + o(1) factors;
    the report is flagged Asymptotic and carries no a_eta constant.  The
    optimal composition and both capacity constants are evaluated under the
    config's own noise law.
    """
    q_star, _, capacity_terms, alpha_terms = _alpha_pass(config, eta, False)
    alpha_star = max(alpha_terms, key=lambda a: alpha_terms[a]["gain"])
    gain = alpha_terms[alpha_star]["gain"]
    flags = [ASYMPTOTIC]
    if gain <= 0.0:
        flags.append(VACUOUS)
    return BoundReport(nonadaptive_lb=nonadaptive_lower_bound(config),
                       adaptive_ub=min(t["dominant"] for t in alpha_terms.values()),
                       gain_lb=gain, alpha_star=alpha_star, eta=eta, a_eta=None,
                       q_star=q_star, capacity_terms=capacity_terms,
                       flags=tuple(flags), alpha_terms=alpha_terms)


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
