"""Capacity quadrature, tail helpers, the psi integral, and the a_eta root."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from searchlab.channel import (
    bawgn_capacity,
    binary_entropy,
    gaussian_pdf,
    gaussian_tail,
    gaussian_tail_inverse,
    optimal_composition,
    psi,
    psi_component,
    solve_a_eta,
)
from searchlab.errors import QuadratureNonConvergence
from searchlab.model import NoiseModel, new_config

# Frozen quadrature goldens; independently cross-checked against a
# Monte Carlo mixture-entropy estimator before being pinned here.
CAPACITY_GOLDENS = {
    (0.5, 0.25): 0.48594415413293532,
    (0.5, 0.125): 0.72145159079038813,
    (0.5, 0.5): 0.29048011336084807,
    (0.5, 1.0): 0.16074721979641687,
    (0.5, 2.0): 0.084943405794183099,
    (0.25, 0.5): 0.22567283807156912,
    (0.3, 0.7): 0.18776736512585587,
}

Q_STAR_16 = 0.0625
C1_16 = 0.14025852118933302
A_ETA_16 = 6.8278842430375074
PSI0_16 = 0.20203835756189125
PSI7_16 = 2.5172135964350828e-5


class TestGaussianHelpers:
    def test_pdf_matches_scipy(self):
        y = np.linspace(-3, 4, 13)
        ours = gaussian_pdf(y, 1.0, 0.7)
        ref = scipy.stats.norm.pdf(y, loc=1.0, scale=math.sqrt(0.7))
        np.testing.assert_allclose(ours, ref, rtol=1e-13)

    def test_tail_and_inverse_round_trip(self):
        for x in (-2.0, 0.0, 0.5, 3.0, 6.0):
            p = gaussian_tail(x)
            assert gaussian_tail_inverse(p) == pytest.approx(x, abs=1e-9)
        assert gaussian_tail(0.0) == pytest.approx(0.5)
        assert gaussian_tail(1e9) == 0.0

    def test_binary_entropy_edges_and_symmetry(self):
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)


class TestCapacity:
    @pytest.mark.parametrize("qv,want", sorted(CAPACITY_GOLDENS.items()))
    def test_golden_values(self, qv, want):
        assert bawgn_capacity(*qv) == pytest.approx(want, abs=1e-10)

    def test_noiseless_limit_approaches_one_bit(self):
        assert 0.999 <= bawgn_capacity(0.5, 1e-6) <= 1.0

    def test_heavy_noise_limit_vanishes(self):
        assert bawgn_capacity(0.5, 1e4) <= 1e-3

    def test_degenerate_inputs_give_zero(self):
        assert bawgn_capacity(0.0, 0.25) == 0.0
        assert bawgn_capacity(1.0, 0.25) == 0.0

    @given(q=st.floats(0.01, 0.99), v=st.floats(1e-4, 1e3))
    def test_symmetry_in_q(self, q, v):
        assert abs(bawgn_capacity(q, v) - bawgn_capacity(1 - q, v)) <= 1e-9

    @given(q=st.floats(0.01, 0.99), v=st.floats(1e-4, 1e3))
    def test_bounded_by_input_entropy(self, q, v):
        c = bawgn_capacity(q, v)
        assert 0.0 <= c <= binary_entropy(q) + 1e-12

    def test_monotone_decreasing_in_variance(self):
        vs = [0.01, 0.1, 0.5, 1.0, 4.0, 50.0]
        cs = [bawgn_capacity(0.3, v) for v in vs]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_quadrature_failure_raises(self):
        with pytest.raises(QuadratureNonConvergence):
            bawgn_capacity(0.37, 0.33, tol=1e-16, max_panels=64)

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            bawgn_capacity(0.5, math.inf)


class TestOptimalComposition:
    def test_reference_config_golden(self, config16):
        q_star, c1 = optimal_composition(config16)
        assert q_star == pytest.approx(Q_STAR_16, abs=1e-12)
        assert c1 == pytest.approx(C1_16, abs=1e-10)

    def test_scan_ties_break_to_smaller_q(self):
        # two-cell problem: only k=1 is scanned, q* = 1/2
        cfg = new_config(2, 1, 0.25, 1e-4)
        q_star, c1 = optimal_composition(cfg)
        assert q_star == 0.5
        assert c1 == pytest.approx(bawgn_capacity(0.5, cfg.noise_variance(1)), abs=1e-12)

    def test_maximum_dominates_grid(self, config16):
        _, c1 = optimal_composition(config16)
        for k in range(1, 16):
            ck = bawgn_capacity(k / 16, config16.noise_variance(k))
            assert c1 >= ck - 1e-12


class TestPsi:
    def test_unbounded_left_limit_is_full_mean(self, config16):
        # at a -> -inf the truncation vanishes and the best (largest) mean
        # is -1/(2 B sigma2), attained at the full probe
        want = -1.0 / (2.0 * 16 * 0.25)
        assert psi(-1e9, config16) == pytest.approx(want, abs=1e-6)

    def test_right_tail_vanishes(self, config16):
        assert abs(psi(1e9, config16)) <= 1e-12

    def test_goldens(self, config16):
        assert psi(0.0, config16) == pytest.approx(PSI0_16, abs=1e-9)
        assert psi(7.0, config16) == pytest.approx(PSI7_16, abs=1e-9)

    def test_non_increasing_on_positive_grid(self, config16):
        grid = np.linspace(0.0, 25.0, 50)
        vals = [psi(a, config16) for a in grid]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_component_positive_region(self):
        # single-variance component at a=0 integrates the positive LLR lobe
        v = 0.25
        val = psi_component(0.0, v)
        assert val > 0
        # crude Riemann cross-check
        y = np.linspace(0.5, 0.5 + 12 * math.sqrt(v), 200_001)
        ref = np.trapezoid(gaussian_pdf(y, 0.0, v) * (2 * y - 1) / (2 * v), y)
        assert val == pytest.approx(ref, abs=1e-6)

    def test_closed_form_matches_quad_reference(self):
        # quad of the truncated score over [y0, inf), cut 40 sd from the
        # mean, beyond which the Gaussian's mass is below 1e-300
        for v in np.geomspace(1e-3, 1e3, 9):
            s = math.sqrt(v)
            for a in (-1e9, -1e3, -30.0, -3.0, -0.5, 0.0, 0.5, 3.0, 30.0, 1e3):
                y0 = a * v + 0.5
                ref, _ = scipy.integrate.quad(
                    lambda y: gaussian_pdf(y, 0.0, v) * (2 * y - 1) / (2 * v),
                    max(y0, -40 * s), max(y0, 0.5) + 40 * s,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
                assert abs(psi_component(a, v) - ref) <= 1e-12, (v, a)

    def test_component_accepts_variance_array(self):
        vs = np.array([0.01, 0.25, 4.0])
        got = psi_component(0.3, vs)
        assert got.shape == vs.shape
        for v, g in zip(vs, got):
            assert g == psi_component(0.3, float(v))

    @pytest.mark.parametrize("noise", [NoiseModel.linear(),
                                       NoiseModel.power(0.5),
                                       NoiseModel.power(2.0)])
    def test_psi_is_max_of_scalar_components(self, noise):
        cfg = new_config(24, 1, 0.25, 1e-4, noise=noise)
        for a in (-50.0, -1.0, 0.0, 0.7, 7.0, 40.0):
            want = max(psi_component(a, cfg.noise_variance(k))
                       for k in range(1, cfg.M + 1))
            assert psi(a, cfg) == want


class TestAEta:
    def test_reference_golden(self, config16):
        _, c1 = optimal_composition(config16)
        res = solve_a_eta(0.1 * c1, config16)
        assert not res.clamped
        assert res.value == pytest.approx(A_ETA_16, abs=1e-6)

    def test_round_trip_at_ten(self, config16):
        # construct eta so the root is exactly a=10, then recover it
        eta = (10.0 / 7.0) * psi(7.0, config16)
        res = solve_a_eta(eta, config16)
        assert abs(res.value - 10.0) <= 1e-6

    def test_monotone_in_eta(self, config16):
        a_small = solve_a_eta(1e-4, config16).value
        a_large = solve_a_eta(5e-2, config16).value
        assert a_small > a_large

    def test_huge_eta_clamps_to_bracket_floor(self, config16):
        res = solve_a_eta(1e9, config16)
        assert res.clamped
        assert res.value == pytest.approx(3.0, abs=1e-5)
