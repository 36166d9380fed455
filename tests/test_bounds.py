"""Converse, achievability, adaptivity gain, and regime limits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import searchlab.channel as channel
from searchlab.bounds import (
    adaptive_upper_bound,
    adaptivity_gain_lower_bound,
    asymptotic_ratios,
    feasible_alphas,
    fixed_b_limit_constant,
    fixed_delta_limit_constant,
    general_f_bounds,
    nonadaptive_lower_bound,
)
from searchlab.channel import (
    A_ETA_BRACKET_CAP,
    A_ETA_BRACKET_LO,
    bawgn_capacity,
    optimal_composition,
    psi,
    psi_component,
    solve_a_eta,
)
from searchlab.errors import (EtaTooLarge, NoFeasibleAlpha, NoRootInBracket,
                              SearchLabError, ValidationError)
from searchlab.model import NoiseModel, new_config

# Frozen formula goldens at B=16, delta=1, sigma2=0.25, eps=1e-4,
# eta = 0.1*C1; cross-evaluated independently before being pinned.
LEMMA1_16 = 28.50541223855238
STAGE1_QUARTER = 191.04085178724799
STAGE2_QUARTER = 87.231777561512432
LEMMA2_16 = 214.80649044554893
GAIN_16 = -216.14957744628354
GAIN_PER_ALPHA = {
    0.5: -321.85743530309418,
    0.25: -249.76721711020805,
    0.125: -221.95451066563956,
    0.0625: -216.14957744628354,
}
THEOREM2_GAMMA1_25 = 11.38633599400962
THEOREM2_GAMMA_HALF_25 = 3.7005578829066836
# theorem2 gains (gamma = 0.5, 1, 2) at eta = 0.1*C1, delta=1, eps=1e-4,
# by (sigma2, M)
GAIN_TABLE_SIZES = (16, 24, 25, 32, 48, 64, 96, 128, 256)
GAIN_TABLE = {
    (0.05, 16): (0.113, 1.320, 1.848),
    (0.05, 24): (0.418, 2.676, 3.635),
    (0.05, 25): (0.409, 2.740, 3.252),
    (0.05, 32): (0.711, 4.111, 5.262),
    (0.05, 48): (1.259, 7.258, 8.232),
    (0.05, 64): (1.764, 10.232, 10.958),
    (0.05, 96): (2.878, 18.592, 19.739),
    (0.05, 128): (3.800, 26.710, 26.982),
    (0.05, 256): (7.290, 64.993, 58.666),
    (0.25, 16): (2.052, 5.438, 2.631),
    (0.25, 24): (3.615, 10.534, 6.365),
    (0.25, 25): (3.701, 11.386, -2.284),
    (0.25, 32): (5.090, 16.019, 8.567),
    (0.25, 48): (7.933, 30.704, 17.131),
    (0.25, 64): (10.320, 44.920, 25.233),
    (0.25, 96): (16.016, 81.913, 41.194),
    (0.25, 128): (20.702, 121.506, 55.262),
    (0.25, 256): (38.013, 306.248, 153.890),
}


@pytest.fixture(scope="module")
def eta16():
    cfg = new_config(16, 1, 0.25, 1e-4)
    _, c1 = optimal_composition(cfg)
    return 0.1 * c1


class TestFeasibleAlphas:
    def test_sixteen_cells(self, config16):
        assert feasible_alphas(config16) == [1 / 2, 1 / 4, 1 / 8, 1 / 16]

    def test_twelve_cells(self):
        cfg = new_config(12, 1, 0.25, 1e-4)
        assert feasible_alphas(cfg) == [1 / 2, 1 / 3, 1 / 4, 1 / 6, 1 / 12]

    def test_single_cell_has_none(self):
        cfg = new_config(1, 1, 0.25, 1e-4)
        assert feasible_alphas(cfg) == []
        with pytest.raises(NoFeasibleAlpha):
            adaptive_upper_bound(cfg, 1e-3)


class TestNonadaptiveLowerBound:
    def test_reference_golden(self, config16):
        assert nonadaptive_lower_bound(config16) == pytest.approx(
            LEMMA1_16, rel=1e-9)

    def test_single_cell_is_zero(self):
        assert nonadaptive_lower_bound(new_config(1, 1, 0.25, 1e-4)) == 0.0

    def test_clamped_at_zero_for_sloppy_epsilon(self):
        # with eps near 1 the numerator goes negative; the bound says 0
        assert nonadaptive_lower_bound(new_config(2, 1, 0.25, 0.999)) == 0.0

    def test_grows_with_resolution(self):
        vals = [nonadaptive_lower_bound(new_config(16, 1 / 2**j, 0.25, 1e-4))
                for j in range(3)]
        assert vals[0] < vals[1] < vals[2]

    def test_underflowed_capacity_is_refused(self):
        # the capacity quadrature returns C1 = 0.0 at this noise: a bound
        # that divides by it is refused as bad input, not a division error
        cfg = new_config(2, 1, 1e150, 1e-4)
        assert optimal_composition(cfg)[1] == 0.0
        for bound in (nonadaptive_lower_bound, fixed_b_limit_constant):
            with pytest.raises(ValidationError,
                               match=r"^C1 underflowed to 0\.0 at sigma2 = 1e\+150: "):
                bound(cfg)


class TestStageBounds:
    # the Lemma 2 stage times are the per-alpha terms of the theorem1 report
    def test_stage_goldens_at_quarter(self, config16, eta16):
        terms = adaptivity_gain_lower_bound(config16, eta16).alpha_terms[0.25]
        assert terms["stage1"] == pytest.approx(STAGE1_QUARTER, rel=1e-6)
        assert terms["stage2"] == pytest.approx(STAGE2_QUARTER, rel=1e-6)

    def test_singleton_sections_need_no_refine(self, config16, eta16):
        terms = adaptivity_gain_lower_bound(config16, eta16).alpha_terms[1 / 16]
        assert terms["stage2"] == 0.0

    def test_eta_exceeding_capacity_rejected(self, config16):
        _, c1 = optimal_composition(config16)
        with pytest.raises(EtaTooLarge):
            adaptivity_gain_lower_bound(config16, c1 * 1.01)

    def test_adaptive_bound_golden_and_minimizer(self, config16, eta16):
        val, alpha = adaptive_upper_bound(config16, eta16)
        assert val == pytest.approx(LEMMA2_16, rel=1e-6)
        assert alpha == 1 / 16


class TestAdaptivityGain:
    def test_reference_report(self, config16, eta16):
        rep = adaptivity_gain_lower_bound(config16, eta16)
        assert rep.gain_lb == pytest.approx(GAIN_16, abs=1e-4)
        assert rep.alpha_star == 1 / 16
        assert rep.q_star == pytest.approx(0.0625)
        assert rep.eta == eta16
        assert rep.a_eta == pytest.approx(6.8278842430375074, abs=1e-6)
        assert rep.nonadaptive_lb == pytest.approx(LEMMA1_16, rel=1e-9)
        assert rep.adaptive_ub == pytest.approx(LEMMA2_16, rel=1e-6)

    def test_per_alpha_gains(self, config16, eta16):
        rep = adaptivity_gain_lower_bound(config16, eta16)
        assert set(rep.alpha_terms) == set(GAIN_PER_ALPHA)
        for alpha, want in GAIN_PER_ALPHA.items():
            assert rep.alpha_terms[alpha]["gain"] == pytest.approx(want, abs=1e-4)

    def test_capacity_terms_are_probabilities_of_a_bit(self, config16, eta16):
        rep = adaptivity_gain_lower_bound(config16, eta16)
        assert rep.adaptive_ub >= 0.0
        assert all(0.0 <= c <= 1.0 for c in rep.capacity_terms.values())

    def test_desk_scale_gain_is_vacuous_flagged(self, config16, eta16):
        # at M=16 the additive constants swamp the brackets; the bound is
        # honest about saying nothing
        rep = adaptivity_gain_lower_bound(config16, eta16)
        assert rep.gain_lb <= 0.0
        assert "Vacuous" in rep.flags

    def test_near_one_epsilon_is_vacuous(self):
        cfg = new_config(16, 1, 0.25, 0.9)
        _, c1 = optimal_composition(cfg)
        rep = adaptivity_gain_lower_bound(cfg, 0.1 * c1)
        assert rep.gain_lb <= 0.0
        assert "Vacuous" in rep.flags

    def test_gain_improves_with_resolution(self, config16, eta16):
        # the positive refine bracket grows with log2(M) while the additive
        # constants stay put, so halving delta must raise the gain
        rep16 = adaptivity_gain_lower_bound(config16, eta16)
        cfg32 = new_config(16, 0.5, 0.25, 1e-4)
        _, c1 = optimal_composition(cfg32)
        rep32 = adaptivity_gain_lower_bound(cfg32, 0.1 * c1)
        assert rep32.gain_lb > rep16.gain_lb


class TestGeneralNoiseLaws:
    def test_gamma_one_matches_golden(self):
        cfg = new_config(25, 1, 0.25, 1e-4, noise=NoiseModel.power(1.0))
        _, c1 = optimal_composition(cfg)
        rep = general_f_bounds(cfg, 0.1 * c1)
        assert rep.gain_lb == pytest.approx(THEOREM2_GAMMA1_25, abs=1e-4)
        assert rep.a_eta is None
        assert "Asymptotic" in rep.flags

    def test_gamma_half_golden(self):
        cfg = new_config(25, 1, 0.25, 1e-4, noise=NoiseModel.power(0.5))
        _, c1 = optimal_composition(cfg)
        rep = general_f_bounds(cfg, 0.1 * c1)
        assert rep.gain_lb == pytest.approx(THEOREM2_GAMMA_HALF_25, abs=1e-4)

    def test_stronger_noise_growth_gives_larger_gain(self):
        # sublinear vs superlinear variance growth at B=25: adaptivity
        # should matter more when large probes are noisier
        gains = {}
        for gamma in (0.5, 2.0):
            cfg = new_config(25, 1, 0.25, 1e-4, noise=NoiseModel.power(gamma))
            _, c1 = optimal_composition(cfg)
            gains[gamma] = general_f_bounds(cfg, 0.1 * c1).gain_lb
        assert gains[2.0] > gains[0.5]

    def test_gain_ordering_turns_on_the_parameter_point(self):
        # Why g(2) > g(1) > g(0.5) (criterion 10) fails at B=25,
        # sigma2=0.25: q* is down to one or two cells, so C1, and with it
        # the non-adaptive cost, barely moves from gamma=1 to gamma=2,
        # while C2(1/5) falls and the gain with it.  At sigma2=0.05 the
        # ordering holds.
        def terms(gamma, sigma2):
            cfg = new_config(25, 1, sigma2, 1e-4, noise=NoiseModel.power(gamma))
            _, c1 = optimal_composition(cfg)
            rep = general_f_bounds(cfg, 0.1 * c1)
            return c1, rep.capacity_terms["C2[alpha=1/5]"], rep.gain_lb

        (c1_1, c2_1, _), (c1_2, c2_2, _) = terms(1.0, 0.25), terms(2.0, 0.25)
        assert c1_2 == pytest.approx(c1_1, rel=0.01)
        assert c2_2 < c2_1
        gains = [terms(gamma, 0.05)[2] for gamma in (0.5, 1.0, 2.0)]
        assert gains[2] > gains[1] > gains[0]

    def test_gain_table_over_m_and_sigma2(self):
        # theorem2's (g(0.5), g(1), g(2)) at eta = 0.1 C1: the ordering
        # that criterion 10 asserts at M=25, sigma2=0.25 holds at every
        # M <= 128 at sigma2=0.05, fails at M=256 there, and fails at every
        # M at sigma2=0.25
        gains = {}
        for sigma2, m in GAIN_TABLE:
            row = []
            for gamma in (0.5, 1.0, 2.0):
                cfg = new_config(m, 1, sigma2, 1e-4, noise=NoiseModel.power(gamma))
                row.append(general_f_bounds(cfg, 0.1 * optimal_composition(cfg)[1]).gain_lb)
            gains[sigma2, m] = row
        for point, row in gains.items():
            assert row == pytest.approx(GAIN_TABLE[point], abs=5e-4), point
        holds = {point for point, (g05, g1, g2) in gains.items() if g2 > g1 > g05}
        assert holds == {(0.05, m) for m in GAIN_TABLE_SIZES if m <= 128}

    def test_table_noise_law_accepted(self):
        table = [float(k) for k in range(1, 9)]
        cfg = new_config(8, 1, 0.25, 1e-4, noise=NoiseModel.from_table(table))
        _, c1 = optimal_composition(cfg)
        rep = general_f_bounds(cfg, 0.1 * c1)
        assert math.isfinite(rep.gain_lb)


class TestRegimeLimits:
    def test_limit_constants(self, config16):
        _, c1 = optimal_composition(config16)
        assert fixed_b_limit_constant(config16) == pytest.approx(
            (1 - 1e-4) / c1 - 1.0, rel=1e-12)
        assert fixed_delta_limit_constant(config16) == pytest.approx(
            (1 - 1e-4) * 0.25 * math.log(2.0), rel=1e-12)

    def test_limits_vacuous_near_epsilon_one(self):
        cfg = new_config(16, 1, 0.25, 1.0 - 1e-12)
        assert fixed_delta_limit_constant(cfg) <= 1e-10
        # the fixed-B constant needs eps >= 1 - C1 to go negative, which the
        # config validation forbids; the delta constant alone marks the regime
        ratios = asymptotic_ratios(
            [new_config(16, 1 / 2**j, 0.25, 1.0 - 1e-12) for j in (1, 2)])
        assert all(r.limit_constant <= 1e-8 for r in ratios)

    def test_regime_inference(self):
        fixed_b = asymptotic_ratios(
            [new_config(1, 1 / 2**j, 0.25, 1e-4) for j in (4, 5, 6)])
        assert all(r.regime == "fixed_B" for r in fixed_b)
        fixed_d = asymptotic_ratios(
            [new_config(b, 1, 0.25, 1e-4) for b in (8, 16, 32)])
        assert all(r.regime == "fixed_delta" for r in fixed_d)

    def test_mixed_sweep_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_ratios([new_config(8, 1, 0.25, 1e-4),
                               new_config(16, 0.5, 0.25, 1e-4)])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_ratios([new_config(8, 1, 0.25, 1e-4)])


# Bit-exact goldens, float.hex() of each value: the fig4, fig5 and fig8
# points at eta = 0.1*C1, plus M=12 under the linear law and under a table
# law.  Per theorem1, the gains are listed in feasible_alphas order.
BOUND_TABLE = (1.0, 1.25, 2.0, 2.5, 3.0, 4.5, 5.0, 6.0, 7.5, 8.0, 10.0, 12.0)
BOUND_POINTS = {
    **{f"fig4_sigma2={s2}": (16, 1, s2, 1e-4, None)
       for s2 in (0.0625, 0.125, 0.25, 0.5)},
    **{f"fig5_B={b}": (b, 1, 0.25, 1e-4, None) for b in (8, 16, 32, 64, 128)},
    **{f"fig8_gamma={g}": (25, 1, 0.25, 1e-4, NoiseModel.power(g))
       for g in (0.5, 1.0, 2.0)},
    "M=12": (12, 1, 0.25, 1e-2, None),
    "table_M=12": (12, 1, 0.25, 1e-2, NoiseModel.from_table(BOUND_TABLE)),
}
BOUND_GOLDEN = {
    "fig4_sigma2=0.0625": {
        "lemma2": ("0x1.2f0d4e468eedep+6", "0x1.0000000000000p-4"),
        "theorem1": ("-0x1.58ce6f5a7d4b0p+6", "0x1.2f0d4e468eedep+6",
                     "0x1.0000000000000p-3",
                     ("-0x1.ae7b91e4a2ce5p+6",
                      "-0x1.6e32716e1d4cep+6",
                      "-0x1.58ce6f5a7d4b0p+6",
                      "-0x1.5ca7f5a6ce610p+6")),
        "theorem2": ("0x1.a02a3c15831a0p+0", "0x1.1412da0c27c6cp+3"),
    },
    "fig4_sigma2=0.125": {
        "lemma2": ("0x1.f01d869d7c13cp+6", "0x1.0000000000000p-4"),
        "theorem1": ("-0x1.0690bdb2902c5p+7", "0x1.f01d869d7c13cp+6",
                     "0x1.0000000000000p-4",
                     ("-0x1.6a2c51c882adap+7",
                      "-0x1.23f89290426a8p+7",
                      "-0x1.0980b0e6e14efp+7",
                      "-0x1.0690bdb2902c5p+7")),
        "theorem2": ("0x1.7f14e956abfa6p+1", "0x1.afaf16809a93cp+3"),
    },
    "fig4_sigma2=0.25": {
        "lemma2": ("0x1.ad9cec5049d42p+7", "0x1.0000000000000p-4"),
        "theorem1": ("-0x1.b04c9569a180bp+7", "0x1.ad9cec5049d42p+7",
                     "0x1.0000000000000p-4",
                     ("-0x1.41db80e0cc1bap+8",
                      "-0x1.f388d0ad969f4p+7",
                      "-0x1.bbe8b59e8eb88p+7",
                      "-0x1.b04c9569a180bp+7")),
        "theorem2": ("0x1.5c030a8e8540fp+2", "0x1.71406cf002b0ep+4"),
    },
    "fig4_sigma2=0.5": {
        "lemma2": ("0x1.7b72a50c39753p+8", "0x1.0000000000000p-4"),
        "theorem1": ("-0x1.734549e3d8979p+8", "0x1.7b72a50c39753p+8",
                     "0x1.0000000000000p-4",
                     ("-0x1.23c5954d558a6p+9",
                      "-0x1.b7cb498164a38p+8",
                      "-0x1.8073623620474p+8",
                      "-0x1.734549e3d8979p+8")),
        "theorem2": ("0x1.374b9556a4dbep+3", "0x1.4cb28c7cc845ep+5"),
    },
    "fig5_B=8": {
        "lemma2": ("0x1.cfe1960eb4a63p+6", "0x1.0000000000000p-3"),
        "theorem1": ("-0x1.0aba715649750p+7", "0x1.cfe1960eb4a63p+6",
                     "0x1.0000000000000p-3",
                     ("-0x1.60c232f0dee94p+7",
                      "-0x1.1ee588d86e2a4p+7",
                      "-0x1.0aba715649750p+7")),
        "theorem2": ("0x1.09c09c1b578c6p+0", "0x1.6a5f291d493c4p+3"),
    },
    "fig5_B=16": {
        "lemma2": ("0x1.ad9cec5049d42p+7", "0x1.0000000000000p-4"),
        "theorem1": ("-0x1.b04c9569a180bp+7", "0x1.ad9cec5049d42p+7",
                     "0x1.0000000000000p-4",
                     ("-0x1.41db80e0cc1bap+8",
                      "-0x1.f388d0ad969f4p+7",
                      "-0x1.bbe8b59e8eb88p+7",
                      "-0x1.b04c9569a180bp+7")),
        "theorem2": ("0x1.5c030a8e8540fp+2", "0x1.71406cf002b0ep+4"),
    },
    "fig5_B=32": {
        "lemma2": ("0x1.9acd1e855add6p+8", "0x1.0000000000000p-5"),
        "theorem1": ("-0x1.76e077e60a45dp+8", "0x1.9acd1e855add6p+8",
                     "0x1.0000000000000p-4",
                     ("-0x1.327816af87e3ep+9",
                      "-0x1.c792a8227c12bp+8",
                      "-0x1.8a4f31bfeb284p+8",
                      "-0x1.76e077e60a45dp+8",
                      "-0x1.78cba3089842bp+8")),
        "theorem2": ("0x1.004d0d239b7d0p+4", "0x1.810047b5401d8p+5"),
    },
    "fig5_B=64": {
        "lemma2": ("0x1.96c511cf6c258p+9", "0x1.0000000000000p-6"),
        "theorem1": ("-0x1.55914aafb563ep+9", "0x1.96c511cf6c258p+9",
                     "0x1.0000000000000p-5",
                     ("-0x1.2d30f6ad68a89p+10",
                      "-0x1.b0aa26f0167d6p+9",
                      "-0x1.6dc7347ca9c00p+9",
                      "-0x1.579e1e1dbdb88p+9",
                      "-0x1.55914aafb563ep+9",
                      "-0x1.5df0a243c4b8ap+9")),
        "theorem2": ("0x1.675d226d1b9a2p+5", "0x1.8d1a5d77ffb08p+6"),
    },
    "fig5_B=128": {
        "lemma2": ("0x1.928909bef275bp+10", "0x1.0000000000000p-5"),
        "theorem1": ("-0x1.417e10f4428a6p+10", "0x1.928909bef275bp+10",
                     "0x1.0000000000000p-5",
                     ("-0x1.2d858b869a457p+11",
                      "-0x1.a5dd58f53d419p+10",
                      "-0x1.5db55f082262fp+10",
                      "-0x1.44e584a4fefe3p+10",
                      "-0x1.417e10f4428a6p+10",
                      "-0x1.47dce7958e87cp+10",
                      "-0x1.534f53e6cea54p+10")),
        "theorem2": ("0x1.e606720da0f4dp+6", "0x1.95777d5adf12bp+7"),
    },
    "fig8_gamma=0.5": {
        "lemma2": ("0x1.40d26a114d386p+7", "0x1.47ae147ae147bp-5"),
        "theorem1": ("-0x1.582fa78eababdp+7", "0x1.40d26a114d386p+7",
                     "0x1.47ae147ae147bp-5",
                     ("-0x1.7e25e1e43471fp+7",
                      "-0x1.582fa78eababdp+7")),
        "theorem2": ("0x1.d9abe1760504ap+1", "0x1.47248dffb691cp+4"),
    },
    "fig8_gamma=1.0": {
        "lemma2": ("0x1.450c8b01c5b8fp+8", "0x1.47ae147ae147bp-5"),
        "theorem1": ("-0x1.32ef1fe22d867p+8", "0x1.450c8b01c5b8fp+8",
                     "0x1.47ae147ae147bp-5",
                     ("-0x1.59f26f111e8abp+8",
                      "-0x1.32ef1fe22d867p+8")),
        "theorem2": ("0x1.6c5cdd4d713f4p+3", "0x1.26033eec679bap+5"),
    },
    "fig8_gamma=2.0": {
        "lemma2": ("0x1.476f6185f48aap+8", "0x1.47ae147ae147bp-5"),
        "theorem1": ("-0x1.2e9eac435749bp+8", "0x1.476f6185f48aap+8",
                     "0x1.47ae147ae147bp-5",
                     ("-0x1.effce37117d8bp+8",
                      "-0x1.2e9eac435749bp+8")),
        "theorem2": ("-0x1.245d40f34fdc5p+1", "0x1.9623dfd450e48p+5"),
    },
    "M=12": {
        "lemma2": ("0x1.ee661291cb767p+6", "0x1.5555555555555p-4"),
        "theorem1": ("-0x1.f19561004ebaep+6", "0x1.ee661291cb767p+6",
                     "0x1.5555555555555p-4",
                     ("-0x1.59c7a318cc582p+7",
                      "-0x1.2748e038336bap+7",
                      "-0x1.117092eabf171p+7",
                      "-0x1.fe30f5ac8e60bp+6",
                      "-0x1.f19561004ebaep+6")),
        "theorem2": ("0x1.72dabc8d5e8d0p+1", "0x1.11a2a7c3321dfp+4"),
    },
    "table_M=12": {
        "lemma2": ("0x1.573b788530ef9p+6", "0x1.5555555555555p-4"),
        "theorem1": ("-0x1.711d4f597c040p+6", "0x1.573b788530ef9p+6",
                     "0x1.5555555555555p-4",
                     ("-0x1.e22c5be195db2p+6",
                      "-0x1.96f798177829bp+6",
                      "-0x1.8fcb429e73f57p+6",
                      "-0x1.89356d485138ap+6",
                      "-0x1.711d4f597c040p+6")),
        "theorem2": ("0x1.f7a8ad767fbe9p+0", "0x1.82e900a520fddp+3"),
    },
}
FIG5_COROLLARY2 = (
    "0x1.62562579ca108p-5",
    "0x1.5c030a8e8540fp-4",
    "0x1.9a14e1d29261ap-4",
    "0x1.df26d8917a22dp-4",
    "0x1.15ba8a50ee42cp-3",
)

class TestBoundGolden:
    """Every value bit for bit, so a reordered sum or a changed tie-break
    shows; the goldens above only compare to 1e-6 relative or 1e-4."""

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_bounds_bit_exact(self, name):
        b, delta, sigma2, eps, noise = BOUND_POINTS[name]
        cfg = new_config(b, delta, sigma2, eps, noise=noise)
        eta = 0.1 * optimal_composition(cfg)[1]
        val, alpha = adaptive_upper_bound(cfg, eta)
        t1 = adaptivity_gain_lower_bound(cfg, eta)
        t2 = general_f_bounds(cfg, eta)
        got = {
            "lemma2": (val.hex(), alpha.hex()),
            "theorem1": (t1.gain_lb.hex(), t1.adaptive_ub.hex(),
                         t1.alpha_star.hex(),
                         tuple(t["gain"].hex() for t in t1.alpha_terms.values())),
            "theorem2": (t2.gain_lb.hex(), t2.adaptive_ub.hex()),
        }
        assert got == BOUND_GOLDEN[name]

    def test_fig5_corollary2_bit_exact(self):
        cfgs = [new_config(b, 1, 0.25, 1e-4) for b in (8, 16, 32, 64, 128)]
        ratios = asymptotic_ratios(cfgs, eta_frac=0.1)
        assert tuple(r.ratio.hex() for r in ratios) == FIG5_COROLLARY2


def _point(name):
    b, delta, sigma2, eps, noise = BOUND_POINTS[name]
    cfg = new_config(b, delta, sigma2, eps, noise=noise)
    return cfg, 0.1 * optimal_composition(cfg)[1]


class TestPassInvariants:
    """What holds because lemma2, theorem1 and theorem2 are views of one
    per-alpha builder's report, and what lets them be."""

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_theorem1_upper_bound_is_lemma2(self, name):
        cfg, eta = _point(name)
        assert (adaptivity_gain_lower_bound(cfg, eta).adaptive_ub
                == adaptive_upper_bound(cfg, eta)[0])

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_theorems_share_brackets(self, name):
        cfg, eta = _point(name)
        t1 = adaptivity_gain_lower_bound(cfg, eta).alpha_terms
        t2 = general_f_bounds(cfg, eta).alpha_terms
        assert list(t1) == list(t2)
        for alpha in t1:
            for key in ("bracket1", "bracket2"):
                assert t1[alpha][key] == t2[alpha][key]

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_gain_is_converse_minus_achievability(self, name):
        # theorem1's gain at alpha is lemma1 less the two stage bounds, and
        # theorem2's the dominant converse term less its upper bound; at
        # alpha = 1/M theorem1 still charges the refine stage's constant
        # (log2(2/eps) + a_eta)/(C2 - eta), which stage2 = 0 drops
        cfg, eta = _point(name)
        t1 = adaptivity_gain_lower_bound(cfg, eta)
        t2 = general_f_bounds(cfg, eta)
        lemma1 = nonadaptive_lower_bound(cfg)
        c1 = t1.capacity_terms["C1"]
        converse = (1.0 - cfg.epsilon) * math.log2(cfg.M) / c1
        for alpha, terms in t1.alpha_terms.items():
            charge = 0.0
            if alpha == 1 / cfg.M:
                c2 = t1.capacity_terms[f"C2[alpha=1/{cfg.M}]"]
                charge = (math.log2(2.0 / cfg.epsilon) + t1.a_eta) / (c2 - eta)
            want = lemma1 - (terms["stage1"] + terms["stage2"]) - charge
            assert terms["gain"] == pytest.approx(want, rel=0, abs=1e-9)
            assert t2.alpha_terms[alpha]["gain"] == pytest.approx(
                converse - t2.alpha_terms[alpha]["ub"], rel=0, abs=1e-9)

    @pytest.mark.parametrize("noise", [
        NoiseModel.linear(), NoiseModel.power(0.5), NoiseModel.power(2.0),
        NoiseModel.from_table([1.0 + 0.5 * (k - 1) ** 1.3
                               for k in range(1, 257)]),
    ], ids=["linear", "gamma=0.5", "gamma=2", "table"])
    @given(m=st.integers(2, 256),
           sigma2=st.sampled_from([0.01, 0.1, 0.25, 1.0, 4.0]))
    def test_singleton_refine_capacity_covers_c1(self, noise, m, sigma2):
        # the half probe of a one-cell section is the least noisy probe at
        # the best composition, so its alpha = 1/M is never skipped
        cfg = new_config(m, 1, sigma2, 1e-4, noise=noise)
        assert (bawgn_capacity(0.5, cfg.noise_variance(0.5))
                >= optimal_composition(cfg)[1])


# the benchmark's sigma2 pool for bound requests, 0.1 to 0.875
SIGMA2_POOL = tuple(round(0.1 + 0.025 * j, 4) for j in range(32))


def _reference_a_eta(eta, cfg):
    """solve_a_eta's bisection, step for step, on the brute-force psi:
    psi_component over every probe size, then its max."""
    vs = np.array([cfg.noise_variance(k) for k in range(1, cfg.M + 1)])

    def f(a):
        return a / (a - 3.0) * float(psi_component(a - 3.0, vs).max())

    lo = A_ETA_BRACKET_LO
    if f(lo) < eta:
        return lo, True
    hi = 6.0
    while f(hi) > eta:
        hi *= 2.0
        assert hi <= A_ETA_BRACKET_CAP
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - eta) <= 1e-8 * eta:
            return mid, False
        if fm > eta:
            lo = mid
        else:
            hi = mid
    raise AssertionError("reference bisection did not converge")


def _same_a_eta(eta, cfg) -> bool:
    got = solve_a_eta(eta, cfg)
    value, clamped = _reference_a_eta(eta, cfg)
    return (got.value.hex(), got.clamped) == (value.hex(), clamped)


class TestOnePassConstants:
    """a_eta and the refine capacities C2, computed in one pass each, are
    the floats of psi_component's brute force and of lone capacity calls."""

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_a_eta_is_reference_bisection_at_bound_points(self, name):
        cfg, eta = _point(name)
        assert _same_a_eta(eta, cfg)

    @pytest.mark.parametrize("gamma", [None, 0.5, 2.0],
                             ids=["linear", "gamma=0.5", "gamma=2"])
    @pytest.mark.parametrize("m", [16, 32, 64, 128, 256])
    def test_a_eta_is_reference_bisection_over_sigma2_pool(self, m, gamma):
        noise = NoiseModel.linear() if gamma is None else NoiseModel.power(gamma)
        pool = SIGMA2_POOL if gamma is None else SIGMA2_POOL[::4]
        for sigma2 in pool:
            cfg = new_config(m, 1, sigma2, 1e-4, noise=noise)
            assert _same_a_eta(0.1 * optimal_composition(cfg)[1], cfg), sigma2

    @pytest.mark.parametrize("noise", [NoiseModel.linear(), NoiseModel.power(2.0)],
                             ids=["linear", "gamma=2"])
    def test_a_eta_is_reference_bisection_at_the_edges(self, noise):
        cfg = new_config(16, 1, 0.25, 1e-4, noise=noise)
        floor = A_ETA_BRACKET_LO / (A_ETA_BRACKET_LO - 3.0) * psi(
            A_ETA_BRACKET_LO - 3.0, cfg)
        # huge and just-over-the-floor etas clamp; just under, the root
        # sits by the floor; tiny etas double the bracket far out
        for eta in (1e9, floor * (1 + 1e-9), floor * (1 - 1e-9), 1e-12, 1e-300):
            assert _same_a_eta(eta, cfg), eta
        assert solve_a_eta(1e9, cfg).clamped

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_refine_capacities_are_lone_calls(self, name, clear_package_caches):
        cfg, eta = _point(name)
        clear_package_caches()
        reports = [adaptivity_gain_lower_bound(cfg, eta), general_f_bounds(cfg, eta)]
        want = {}
        for alpha in feasible_alphas(cfg):
            s = round(1.0 / alpha)
            c2 = bawgn_capacity(0.5, cfg.noise_variance((cfg.M // s) / 2.0))
            if eta < c2:
                want[f"C2[alpha=1/{s}]"] = c2.hex()
        for rep in reports:
            got = {k: v.hex() for k, v in rep.capacity_terms.items() if k != "C1"}
            assert got == want

    def test_refused_refine_variance_raises_as_per_alpha_loop(self):
        # v(1/2) = 0.5**80 * 1e-300 underflows to 0.0, at the singleton
        # section alone
        cfg = new_config(4, 1, 1e-300, 1e-4, noise=NoiseModel.power(80.0))
        with pytest.raises(ValidationError) as want:
            for alpha in feasible_alphas(cfg):
                am = cfg.M // round(1.0 / alpha)
                bawgn_capacity(0.5, cfg.noise_variance(am / 2.0))
        for build in (adaptivity_gain_lower_bound, general_f_bounds):
            with pytest.raises(ValidationError) as got:
                build(cfg, 0.1)
            assert str(got.value) == str(want.value)


def _a_eta_outcome(solve, eta, cfg):
    """(value hex, clamped) of a solve, or the type of what it raised; the
    reference's failed assertions stand for NoRootInBracket."""
    try:
        got = solve(eta, cfg)
    except AssertionError:
        return NoRootInBracket
    except SearchLabError as exc:
        return type(exc)
    value, clamped = got if isinstance(got, tuple) else (got.value, got.clamped)
    return value.hex(), clamped


@st.composite
def a_eta_cases(draw):
    """A config and an eta: a fraction of C1, within 1e-12 to 0.1 relative
    of the floor f(3 + 1e-6), where the root sits by the pole, or
    log-uniform over 1e-300 .. 1e3."""
    gamma = draw(st.sampled_from([None, 0.5, 1.5, 2.0, 3.0]))
    noise = NoiseModel.linear() if gamma is None else NoiseModel.power(gamma)
    cfg = new_config(draw(st.integers(2, 1024)), 1,
                     10.0 ** draw(st.floats(-7.0, 6.0)), 1e-4, noise=noise)
    how = draw(st.sampled_from(["c1", "floor", "log"]))
    if how == "c1":
        eta = draw(st.floats(1e-3, 0.999)) * optimal_composition(cfg)[1]
    elif how == "floor":
        floor = A_ETA_BRACKET_LO / (A_ETA_BRACKET_LO - 3.0) * psi(
            A_ETA_BRACKET_LO - 3.0, cfg)
        rel = 10.0 ** draw(st.floats(-12.0, -1.0))
        eta = floor * (1.0 + draw(st.sampled_from([-rel, rel])))
    else:
        eta = 10.0 ** draw(st.floats(-300.0, 3.0))
    assume(eta > 0.0)  # C1 and the floor underflow at the extremes
    return eta, cfg


def _psi_calls(monkeypatch, eta, cfg):
    """The channel.psi arguments of one cold solve, and the psi_component
    arguments of the reference bisection, each in call order."""
    solved, referred = [], []
    real_psi, real_component = channel.psi, psi_component

    def counted_psi(a, config):
        solved.append(a)
        return real_psi(a, config)

    def counted_component(a, variance):
        referred.append(a)
        return real_component(a, variance)

    with monkeypatch.context() as patch:
        patch.setattr(channel, "psi", counted_psi)
        solve_a_eta(eta, cfg)
        patch.setitem(globals(), "psi_component", counted_component)
        _reference_a_eta(eta, cfg)
    return solved, referred


class TestBisectionThroughPsi:
    """solve_a_eta is the reference bisection: the same float, flag and
    error, from one channel.psi call per evaluation of f."""

    @given(case=a_eta_cases())
    def test_solve_is_reference_bisection(self, case):
        eta, cfg = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _a_eta_outcome(solve_a_eta, eta, cfg)
        assert got == _a_eta_outcome(_reference_a_eta, eta, cfg)

    @pytest.mark.parametrize("name", BOUND_POINTS)
    def test_one_psi_call_per_reference_evaluation(self, name, monkeypatch):
        cfg, eta = _point(name)
        solved, referred = _psi_calls(monkeypatch, eta, cfg)
        assert solved == referred and len(solved) > 0

    @pytest.mark.parametrize("m", [16, 32, 64, 128, 256])
    def test_one_psi_call_per_reference_evaluation_over_sigma2_pool(
            self, m, monkeypatch):
        for sigma2 in SIGMA2_POOL:
            cfg = new_config(m, 1, sigma2, 1e-4)
            eta = 0.1 * optimal_composition(cfg)[1]
            solved, referred = _psi_calls(monkeypatch, eta, cfg)
            assert solved == referred and len(solved) > 0, sigma2

    def test_solve_at_a_rounding_rise_is_reference_bisection(self):
        # where psi's phi term and tail cancel (M = 2, sigma2 = 1e-4, a - 3
        # near 0.01), rounding makes psi rise by about 1e-10 over 1e-13 in a;
        # with the residual band's edge inside that rise, the solve still
        # returns the reference's float and flag
        cfg = new_config(2, 1, 1e-4, 1e-4)
        xs = [3.01 + k * 1e-13 for k in range(3000)]
        psis = [psi(x - 3.0, cfg) for x in xs]
        k = max(range(len(xs) - 1), key=lambda k: psis[k + 1] / psis[k])
        assert psis[k + 1] / psis[k] - 1.0 > 1e-10
        h = xs[k] / (xs[k] - 3.0)
        eta = 0.5 * h * (psis[k] + psis[k + 1]) / (1.0 + 1e-8)
        got = _a_eta_outcome(solve_a_eta, eta, cfg)
        assert got == _a_eta_outcome(_reference_a_eta, eta, cfg)
