"""Configuration, noise models, and record types."""

import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from searchlab.bounds import nonadaptive_lower_bound
from searchlab.errors import (
    InvalidAlpha,
    InvalidEpsilon,
    InvalidNoiseModel,
    NonIntegerLocationCount,
    NonMonotoneNoise,
    ProbeCountOutOfRange,
    ValidationError,
)
from searchlab.model import (
    MAX_CELLS,
    NoiseModel,
    SearchConfig,
    TrialRecord,
    new_config,
    sections_from_alpha,
)


class TestNewConfig:
    def test_reference_config_has_sixteen_cells(self):
        cfg = new_config(16, 1, 0.25, 1e-4)
        assert cfg.M == 16
        assert cfg.B == 16.0 and cfg.delta == 1.0
        assert cfg.noise.kind == "linear"

    def test_cell_count_snaps_through_decimal_resolution(self):
        # 1/0.1 is not exact in binary; the ratio must still snap to 10
        assert new_config(1, 0.1, 0.25, 1e-4).M == 10
        assert new_config(10, 0.1, 0.25, 1e-4).M == 100

    def test_non_integer_cell_count_rejected(self):
        with pytest.raises(NonIntegerLocationCount):
            new_config(1, 0.3, 0.25, 1e-4)
        with pytest.raises(NonIntegerLocationCount):
            new_config(10, 3, 0.25, 1e-4)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_outside_open_interval_rejected(self, eps):
        with pytest.raises(InvalidEpsilon):
            new_config(16, 1, 0.25, eps)

    @pytest.mark.parametrize("b,d,s", [(-1, 1, 0.25), (16, 0, 0.25), (16, 1, -2.0)])
    def test_nonpositive_parameters_rejected(self, b, d, s):
        with pytest.raises(ValueError):
            new_config(b, d, s, 1e-4)

    @pytest.mark.parametrize("b,d,s", [(float("inf"), 1, 0.25),
                                       (16, float("nan"), 0.25),
                                       (16, 1, float("inf")),
                                       (1e308, 1e-10, 0.25)])
    def test_non_finite_parameters_rejected(self, b, d, s):
        with pytest.raises(ValueError):
            new_config(b, d, s, 1e-4)

    def test_cell_count_capped(self):
        assert new_config(MAX_CELLS, 1, 0.25, 1e-4).M == MAX_CELLS
        with pytest.raises(ValueError, match="cap"):
            new_config(MAX_CELLS + 1, 1, 0.25, 1e-4)
        with pytest.raises(ValueError, match="cap"):
            new_config(1e9, 1, 0.25, 1e-4)

    @pytest.mark.parametrize("gamma,sigma2", [(1000.0, 1.0), (500.0, 1e10)])
    def test_overflowing_noise_variance_rejected(self, gamma, sigma2):
        # 4**1000 overflows a float; 4**500 * 1e10 overflows the variance
        with pytest.raises(InvalidNoiseModel, match="overflows"):
            new_config(4, 1, sigma2, 0.1, noise=NoiseModel.power(gamma))

    def test_single_cell_config_is_legal(self):
        assert new_config(1, 1, 0.25, 1e-4).M == 1

    @given(m=st.integers(1, 512), scale=st.sampled_from([1.0, 0.5, 0.25, 0.125]))
    def test_exact_ratio_always_snaps(self, m, scale):
        cfg = new_config(m * scale, scale, 0.25, 1e-3)
        assert cfg.M == m

    def test_replace_derives_cell_count_again(self):
        # M is derived, not an argument: a replaced B is a 32-cell config,
        # where M = 16 was kept and lemma1 read 28.51 at B = 32
        cfg = dataclasses.replace(new_config(16, 1, 0.25, 1e-4), B=32.0)
        assert cfg == new_config(32, 1, 0.25, 1e-4)
        assert cfg.M == 32
        assert nonadaptive_lower_bound(cfg) == nonadaptive_lower_bound(
            new_config(32, 1, 0.25, 1e-4))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cfg, M=16)

    @pytest.mark.parametrize("field, value, message", [
        ("sigma2", -1.0, "sigma2 must be positive and finite, got -1.0"),
        ("epsilon", 1.5, "epsilon must lie in (0, 1), got 1.5"),
        ("delta", 0.3, "B/delta = 53.333333333333336 is not an integer cell count"),
    ])
    def test_replace_is_checked_as_new_config(self, field, value, message):
        cfg = new_config(16, 1, 0.25, 1e-4)
        args = {"width": 16, "resolution": 1, "sigma2": 0.25, "epsilon": 1e-4}
        args[{"delta": "resolution"}.get(field, field)] = value
        with pytest.raises(ValidationError) as want:
            new_config(**args)
        assert str(want.value) == message
        with pytest.raises(type(want.value), match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, **{field: value})

    def test_direct_construction_derives_and_converts(self):
        cfg = SearchConfig(8, 0.5, 1, 0.01)
        assert (cfg.B, cfg.delta, cfg.sigma2, cfg.epsilon, cfg.M) == (8.0, 0.5, 1.0,
                                                                      0.01, 16)
        assert all(type(x) is float for x in (cfg.B, cfg.delta, cfg.sigma2, cfg.epsilon))
        assert cfg.noise == NoiseModel.linear()


class TestSectionsFromAlpha:
    @pytest.mark.parametrize("alpha,s", [(0.5, 2), (0.25, 4), (1 / 3, 3),
                                         (1 / 128, 128)])
    def test_reciprocal_integers_accepted(self, alpha, s):
        assert sections_from_alpha(alpha) == s

    @pytest.mark.parametrize("alpha", [0.0, -0.25, float("nan"), float("inf"),
                                       -float("inf"), 1e-320, 1.0, 0.7, 0.3])
    def test_other_values_rejected(self, alpha):
        with pytest.raises(InvalidAlpha):
            sections_from_alpha(alpha)


class TestNoiseModel:
    def test_linear_multiplier_is_identity(self):
        f = NoiseModel.linear()
        assert f.multiplier(1) == 1.0 and f.multiplier(7) == 7.0
        assert f.multiplier(2.5) == 2.5

    def test_power_multiplier(self):
        f = NoiseModel.power(2.0)
        assert f.multiplier(3) == 9.0
        assert f.multiplier(1.5) == pytest.approx(1.5**2, rel=1e-15)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(InvalidNoiseModel):
            NoiseModel.power(0.0)
        with pytest.raises(InvalidNoiseModel):
            NoiseModel.power(-1.0)

    def test_table_lookup_and_interpolation(self):
        f = NoiseModel.from_table([2.0, 2.0, 8.0])
        assert f.multiplier(1) == 2.0 and f.multiplier(3) == 8.0
        # interpolation knots: (0,0), (1,2), (2,2), (3,8)
        assert f.multiplier(0.5) == pytest.approx(1.0)
        assert f.multiplier(2.5) == pytest.approx(5.0)
        with pytest.raises(ProbeCountOutOfRange, match="probe count 10.0"):
            f.multiplier(10.0)

    def test_table_out_of_range_probe(self):
        f = NoiseModel.from_table([1.0, 2.0])
        with pytest.raises(ProbeCountOutOfRange):
            f.multiplier(3)

    @given(st.lists(st.floats(1e-3, 1e200), min_size=1, max_size=300))
    def test_table_reads_its_entries_exactly(self, values):
        # interpolation meets every integer size on its entry, bit for bit,
        # which lets one evaluator serve integer and real widths
        t = sorted(values)
        f = NoiseModel.from_table(t)
        assert [f.multiplier(k) for k in range(1, len(t) + 1)] == t
        with pytest.raises(ProbeCountOutOfRange):
            f.multiplier(len(t) + 0.5)

    def test_table_must_be_positive_nondecreasing(self):
        with pytest.raises(NonMonotoneNoise):
            NoiseModel.from_table([1.0, 0.5])
        with pytest.raises(NonMonotoneNoise):
            NoiseModel.from_table([0.0, 1.0])
        with pytest.raises(InvalidNoiseModel):
            NoiseModel.from_table([])

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidNoiseModel):
            NoiseModel(kind="cubic")

    def test_table_shorter_than_grid_rejected(self):
        with pytest.raises(InvalidNoiseModel):
            new_config(4, 1, 0.25, 1e-4, noise=NoiseModel.from_table([1.0, 2.0]))


class TestVariance:
    def test_linear_variance_grows_with_probe_width(self, config16):
        assert config16.noise_variance(1) == pytest.approx(0.25)
        assert config16.noise_variance(16) == pytest.approx(4.0)

    def test_probe_count_bounds(self, config16):
        with pytest.raises(ProbeCountOutOfRange):
            config16.noise_variance(0)
        with pytest.raises(ProbeCountOutOfRange):
            config16.noise_variance(17)

    def test_continuous_extension_matches_integer_grid(self, config16):
        for k in range(1, 17):
            assert config16.noise_variance(float(k)) == config16.noise_variance(k)
        assert config16.noise_variance(0.5) == pytest.approx(0.125)
        with pytest.raises(ProbeCountOutOfRange):
            config16.noise_variance(0.0)
        with pytest.raises(ProbeCountOutOfRange):
            config16.noise_variance(16.5)


class TestRecords:
    def test_trial_record_stage_accounting(self):
        rec = TrialRecord("x", tau=10, tau_stage1=4, success=True, trial_seed=1)
        assert rec.tau_stage1 <= rec.tau
        with pytest.raises(ValueError):
            TrialRecord("x", tau=3, tau_stage1=4, success=True, trial_seed=1)
        with pytest.raises(ValueError):
            TrialRecord("x", tau=3, tau_stage1=-1, success=True, trial_seed=1)
