"""Problem configuration: search domain, noise models, and core records.

A search problem hides a target uniformly in one of ``M = B/delta`` cells of
width ``delta`` inside an interval of width ``B``.  Each measurement probes a
subset of cells and observes the indicator of "target in probed set" plus
Gaussian noise whose variance grows with the probed width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidAlpha,
    InvalidEpsilon,
    InvalidNoiseModel,
    NonIntegerLocationCount,
    NonMonotoneNoise,
    ProbeCountOutOfRange,
    ValidationError,
)

# Relative tolerance for snapping B/delta to an integer cell count.
M_SNAP_RTOL = 1e-9
# Largest cell count new_config accepts; presets stop at M = 128.
MAX_CELLS = 1 << 20
# Configs a per-size cache keeps: every hit comes from the config being
# computed, and an entry holds up to MAX_CELLS floats.
SIZE_CACHE = 4

LINEAR = "linear"
POWER = "power"
TABLE = "table"


@dataclass(frozen=True)
class NoiseModel:
    """Variance growth law f mapping a probe width x to a variance multiplier.

    The observation noise for a probe of x cells has variance
    ``f(x) * delta * sigma2``.  ``linear`` is ``f(x) = x`` (variance
    proportional to probed width), ``power`` is ``f(x) = x**gamma``, and
    ``table`` reads an explicit positive non-decreasing table of f(1),
    f(2), ..., linear between sizes.
    """

    kind: str = LINEAR
    gamma: float = 1.0
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, POWER, TABLE):
            raise InvalidNoiseModel(f"unknown noise model kind {self.kind!r}")
        if self.kind == POWER and not self.gamma > 0:
            raise InvalidNoiseModel(f"power-law exponent must be positive, got {self.gamma}")
        if self.kind == TABLE:
            if not self.table:
                raise InvalidNoiseModel("table noise model requires a non-empty table")
            t = np.asarray(self.table, dtype=float)
            if not np.all(t > 0) or np.any(np.diff(t) < 0):
                raise NonMonotoneNoise("noise table must be positive and non-decreasing")

    @classmethod
    def linear(cls) -> "NoiseModel":
        return cls(LINEAR)

    @classmethod
    def power(cls, gamma: float) -> "NoiseModel":
        return cls(POWER, gamma=gamma)

    @classmethod
    def from_table(cls, entries) -> "NoiseModel":
        return cls(TABLE, table=tuple(float(v) for v in entries))

    def multiplier(self, x: float) -> float:
        """Multiplier f(x) at a probe width of x > 0 cells.  A table is
        linear between the knots (0, 0), (1, t[0]), ..., (n, t[n-1]), so
        f(k) = t[k-1] exactly at an integer k, and has no value past n."""
        if self.kind == LINEAR:
            return float(x)
        if self.kind == POWER:
            return float(x) ** self.gamma
        if x > len(self.table):
            raise ProbeCountOutOfRange(f"noise table has no entry for probe count {x}")
        knots = np.arange(len(self.table) + 1, dtype=float)
        return float(np.interp(x, knots, (0.0, *self.table)))

    def multipliers(self, m: int) -> np.ndarray:
        """f(1), ..., f(m) as an array, each the float multiplier(k) gives.
        A power law takes float(k) ** gamma a size, as multiplier does:
        numpy's vector power need not match libm's pow in the last bit."""
        if self.kind == LINEAR:
            return np.arange(1, m + 1, dtype=float)
        if self.kind == POWER:
            return np.array([float(k) ** self.gamma for k in range(1, m + 1)])
        if m > len(self.table):
            raise ProbeCountOutOfRange(
                f"noise table has no entry for probe count {len(self.table) + 1}")
        return np.array(self.table[:m], dtype=float)


@dataclass(frozen=True)
class SearchConfig:
    """Immutable problem instance, checked on construction, so a config
    built directly or by `dataclasses.replace` is refused as `new_config`
    refuses its arguments: B and delta positive and finite, B/delta an
    integer to within a relative tolerance of 1e-9 (snapped to the nearest
    integer) and at most MAX_CELLS, sigma2 positive and finite, epsilon
    strictly inside (0, 1), a table noise law covering M, and the variance
    of an M-cell probe finite.

    Attributes
    ----------
    B : float
        Total interval width.
    delta : float
        Target resolution (cell width); M = B/delta cells.
    sigma2 : float
        Noise variance per unit probed width.
    epsilon : float
        Reliability target: searches must locate the target with error
        probability at most epsilon.
    noise : NoiseModel
        Variance growth law in the probe count.
    M : int
        Number of cells, derived from B/delta on construction (not an
        argument: `replace` derives it again).
    """

    B: float
    delta: float
    sigma2: float
    epsilon: float
    noise: NoiseModel = field(default_factory=NoiseModel.linear)
    M: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.B < math.inf:
            raise ValidationError(f"interval width must be positive and finite, got {self.B}")
        if not 0 < self.delta < math.inf:
            raise ValidationError(f"resolution must be positive and finite, got {self.delta}")
        if not 0 < self.sigma2 < math.inf:
            raise ValidationError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0 < self.epsilon < 1:
            raise InvalidEpsilon(f"epsilon must lie in (0, 1), got {self.epsilon}")
        m_real = self.B / self.delta
        if not math.isfinite(m_real):
            raise ValidationError(f"B/delta = {m_real!r} overflows")
        m = int(round(m_real))
        if m < 1 or abs(m_real - m) > M_SNAP_RTOL * max(1.0, abs(m_real)):
            raise NonIntegerLocationCount(
                f"B/delta = {m_real!r} is not an integer cell count")
        if m > MAX_CELLS:
            raise ValidationError(f"B/delta = {m} cells exceeds the cap of {MAX_CELLS}")
        if self.noise.kind == TABLE and len(self.noise.table) < m:
            raise InvalidNoiseModel(
                f"noise table has {len(self.noise.table)} entries but M = {m}")
        for name in ("B", "delta", "sigma2", "epsilon"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "M", m)
        # NoiseModel keeps f positive and non-decreasing, so v(M) bounds them all
        try:
            v_max = self.noise_variance(m)
        except OverflowError:
            v_max = math.inf
        if not math.isfinite(v_max):
            raise InvalidNoiseModel(f"noise variance of an M = {m} cell probe overflows")

    def noise_variance(self, x: float) -> float:
        """Observation variance f(x) * delta * sigma2 of a probe of width x
        cells, 0 < x <= M; bound formulas take real widths (e.g. alpha*M/2)."""
        if not 0 < x <= self.M:
            raise ProbeCountOutOfRange(f"probe width {x} outside (0, {self.M}]")
        return self.noise.multiplier(x) * self.delta * self.sigma2


@lru_cache(maxsize=SIZE_CACHE)
def probe_variances(config: SearchConfig) -> np.ndarray:
    """noise_variance(k) for k = 1..M; shared by the cache, never mutated.
    Each is f(k) * delta * sigma2 in the scalar's order, so the same float."""
    return config.noise.multipliers(config.M) * config.delta * config.sigma2


def new_config(width: float, resolution: float, sigma2: float, epsilon: float,
               noise: NoiseModel | None = None) -> SearchConfig:
    """The SearchConfig of B = width, delta = resolution, sigma2, epsilon
    and a noise law (default linear), which checks itself (`SearchConfig`)."""
    return SearchConfig(width, resolution, sigma2, epsilon,
                        NoiseModel.linear() if noise is None else noise)


def sections_from_alpha(alpha: float, m: int | None = None) -> int:
    """Section count s of a section fraction alpha = 1/s, s an integer >= 2;
    given a cell count m, s must also divide m."""
    s_real = 1.0 / alpha if alpha > 0 else math.nan
    s = round(s_real) if math.isfinite(s_real) else 0
    if s < 2 or abs(s_real - s) > 1e-9 * s:
        raise InvalidAlpha(f"alpha = {alpha} is not 1/s for an integer s >= 2")
    if m is not None and m % s != 0:
        raise InvalidAlpha(f"1/alpha = {s} does not divide M = {m}")
    return s


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one complete search trial.

    ``tau`` counts every observation taken; ``tau_stage1`` is the portion
    spent in the first stage of a two-stage strategy (0 for single-stage
    strategies).  ``final_max_prob`` is the maximum posterior probability at
    termination, retained so tests can check stopping rules.
    """

    strategy_id: str
    tau: int
    tau_stage1: int
    success: bool
    trial_seed: int
    final_max_prob: float = float("nan")

    def __post_init__(self):
        if not 0 <= self.tau_stage1 <= self.tau:
            raise ValidationError(
                f"tau_stage1 = {self.tau_stage1} exceeds tau = {self.tau}")
