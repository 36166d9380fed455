"""Problem configuration: search domain, noise models, and core records.

A search problem hides a target uniformly in one of ``M = B/delta`` cells of
width ``delta`` inside an interval of width ``B``.  Each measurement probes a
subset of cells and observes the indicator of "target in probed set" plus
Gaussian noise whose variance grows with the probed width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidAlpha,
    InvalidEpsilon,
    InvalidNoiseModel,
    NonIntegerLocationCount,
    NonMonotoneNoise,
    ProbeCountOutOfRange,
)

# Relative tolerance for snapping B/delta to an integer cell count.
M_SNAP_RTOL = 1e-9
# Largest cell count new_config accepts; presets stop at M = 128.
MAX_CELLS = 1 << 20

LINEAR = "linear"
POWER = "power"
TABLE = "table"


@dataclass(frozen=True)
class NoiseModel:
    """Variance growth law f mapping probe count k to a variance multiplier.

    The observation noise for a k-cell probe has variance
    ``f(k) * delta * sigma2``.  ``linear`` is ``f(k) = k`` (variance
    proportional to probed width), ``power`` is ``f(k) = k**gamma``, and
    ``table`` looks k up in an explicit positive non-decreasing table.
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

    def multiplier(self, k: int) -> float:
        """Multiplier f(k) at integer probe count k >= 1."""
        if self.kind == LINEAR:
            return float(k)
        if self.kind == POWER:
            return float(k) ** self.gamma
        if k > len(self.table):
            raise ProbeCountOutOfRange(f"noise table has no entry for probe count {k}")
        return self.table[k - 1]

    def multiplier_real(self, x: float) -> float:
        """Continuous extension of f for bound formulas (x need not be integer).

        Table models are linearly interpolated on the knots (0, 0), (1, t[0]),
        ..., (n, t[n-1]) and held constant beyond the last knot.
        """
        if self.kind == LINEAR:
            return float(x)
        if self.kind == POWER:
            return float(x) ** self.gamma
        knots = np.arange(len(self.table) + 1, dtype=float)
        values = np.concatenate(([0.0], np.asarray(self.table, dtype=float)))
        return float(np.interp(x, knots, values))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma,
            "table": list(self.table) if self.table is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        table = d.get("table")
        return cls(
            kind=d["kind"],
            gamma=d.get("gamma", 1.0),
            table=tuple(table) if table is not None else None,
        )


@dataclass(frozen=True)
class SearchConfig:
    """Immutable problem instance.

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
        Number of cells (derived, snapped to integer).
    """

    B: float
    delta: float
    sigma2: float
    epsilon: float
    noise: NoiseModel = field(default_factory=NoiseModel.linear)
    M: int = 0

    def noise_variance(self, k: int) -> float:
        """Observation variance for a probe of k cells."""
        if not 1 <= k <= self.M:
            raise ProbeCountOutOfRange(f"probe count {k} outside [1, {self.M}]")
        return self.noise.multiplier(k) * self.delta * self.sigma2

    def variance_at(self, x: float) -> float:
        """Continuous-argument variance, used by bound formulas where the
        probe count enters as a real number (e.g. alpha*M/2)."""
        if not 0 < x <= self.M:
            raise ProbeCountOutOfRange(f"probe width {x} outside (0, {self.M}]")
        return self.noise.multiplier_real(x) * self.delta * self.sigma2

    def to_dict(self) -> dict:
        return {
            "B": self.B,
            "delta": self.delta,
            "sigma2": self.sigma2,
            "epsilon": self.epsilon,
            "noise": self.noise.to_dict(),
            "M": self.M,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        return new_config(
            d["B"], d["delta"], d["sigma2"], d["epsilon"],
            noise=NoiseModel.from_dict(d["noise"]),
        )


def new_config(width: float, resolution: float, sigma2: float, epsilon: float,
               noise: NoiseModel | None = None) -> SearchConfig:
    """Validate parameters and build a SearchConfig.

    B/delta must be an integer to within a relative tolerance of 1e-9 (it is
    snapped to the nearest integer) and at most MAX_CELLS; epsilon must lie
    strictly inside (0, 1); the variance of an M-cell probe must be finite.
    """
    if not 0 < width < math.inf:
        raise ValueError(f"interval width must be positive and finite, got {width}")
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if not 0 < epsilon < 1:
        raise InvalidEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")
    m_real = width / resolution
    if not math.isfinite(m_real):
        raise ValueError(f"B/delta = {m_real!r} overflows")
    m = int(round(m_real))
    if m < 1 or abs(m_real - m) > M_SNAP_RTOL * max(1.0, abs(m_real)):
        raise NonIntegerLocationCount(
            f"B/delta = {m_real!r} is not an integer cell count")
    if m > MAX_CELLS:
        raise ValueError(f"B/delta = {m} cells exceeds the cap of {MAX_CELLS}")
    if noise is None:
        noise = NoiseModel.linear()
    if noise.kind == TABLE and len(noise.table) < m:
        raise InvalidNoiseModel(
            f"noise table has {len(noise.table)} entries but M = {m}")
    # NoiseModel keeps f positive and non-decreasing, so f(M) bounds them all
    try:
        v_max = noise.multiplier(m) * resolution * sigma2
    except OverflowError:
        v_max = math.inf
    if not math.isfinite(v_max):
        raise InvalidNoiseModel(f"noise variance of an M = {m} cell probe overflows")
    return SearchConfig(B=float(width), delta=float(resolution),
                        sigma2=float(sigma2), epsilon=float(epsilon),
                        noise=noise, M=m)


def sections_from_alpha(alpha: float) -> int:
    """Section count s of a section fraction alpha = 1/s, s an integer >= 2.
    Callers check that s divides their M."""
    s_real = 1.0 / alpha if alpha > 0 else math.nan
    s = round(s_real) if math.isfinite(s_real) else 0
    if s < 2 or abs(s_real - s) > 1e-9 * s:
        raise InvalidAlpha(f"alpha = {alpha} is not 1/s for an integer s >= 2")
    return s


@dataclass(eq=False)
class MeasurementVector:
    """Probed subset of cells, stored as a boolean mask over the grid."""

    mask: np.ndarray
    count: int

    @classmethod
    def from_indices(cls, size: int, indices) -> "MeasurementVector":
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size < 1 or idx.size > size:
            raise ProbeCountOutOfRange(
                f"probe of {idx.size} cells outside [1, {size}]")
        mask = np.zeros(size, dtype=bool)
        mask[idx] = True
        return cls(mask=mask, count=int(mask.sum()))

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains(self, cell: int) -> bool:
        return bool(self.mask[cell])


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
            raise ValueError(
                f"tau_stage1 = {self.tau_stage1} exceeds tau = {self.tau}")
