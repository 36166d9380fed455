"""Capacity quadrature, tail helpers, the psi integral, and the a_eta root."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from searchlab import channel
from searchlab.channel import (
    bawgn_capacity,
    binary_entropy,
    capacity_grid,
    gaussian_tail,
    gaussian_tail_inverse,
    optimal_composition,
    psi,
    psi_component,
    solve_a_eta,
)
from searchlab.cli import main
from searchlab.errors import (ProbeCountOutOfRange, QuadratureNonConvergence,
                              ValidationError)
from searchlab.model import NoiseModel, SearchConfig, new_config

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
    def test_tail_and_inverse_round_trip(self):
        for x in (-2.0, 0.0, 0.5, 3.0, 6.0):
            p = gaussian_tail(x)
            assert gaussian_tail_inverse(p) == pytest.approx(x, abs=1e-9)
        assert gaussian_tail(0.0) == pytest.approx(0.5)
        assert gaussian_tail(1e9) == 0.0
        # the tails of the domain (0, 1), against an independent reference
        for p in (1e-300, 1 - 1e-16):
            x = gaussian_tail_inverse(p)
            assert x == pytest.approx(scipy.stats.norm.isf(p), rel=1e-15)
            assert gaussian_tail(x) == pytest.approx(p, rel=1e-12)
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                gaussian_tail_inverse(p)

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


# .hex() of capacities recorded before the batched kernel existed, so a
# reordered Simpson sum or a moved grid point shows in the last bit; the
# goldens above compare at 1e-10 and would not see it.
CAPACITY_HEX = {
    (0.001, 0.0001): "0x1.75cf353398000p-7",
    (0.5, 0.0001): "0x1.fffffffffffacp-1",
    (0.999, 0.0001): "0x1.75cf353394c00p-7",
    (0.001, 0.001): "0x1.75cf353398400p-7",
    (0.5, 0.001): "0x1.0000000000000p+0",
    (0.999, 0.001): "0x1.75cf353398400p-7",
    (0.001, 0.03): "0x1.6bb6383b0f1e0p-7",
    (0.5, 0.03): "0x1.fbec7bdb0a2bfp-1",
    (0.999, 0.03): "0x1.6bb6383b0f240p-7",
    (0.001, 0.25): "0x1.76294c462ee00p-9",
    (0.5, 0.25): "0x1.f19b5826bbbdcp-2",
    (0.999, 0.25): "0x1.76294c462f000p-9",
    (0.001, 10.0): "0x1.2e3ca66050000p-14",
    (0.5, 10.0): "0x1.23d4931de1800p-6",
    (0.999, 10.0): "0x1.2e3ca66038000p-14",
    (0.001, 1000.0): "0x1.82e20ea000000p-21",
    (0.5, 1000.0): "0x1.7a25866d48000p-13",
    (0.999, 1000.0): "0x1.82e20ea000000p-21",
}
GOLDEN_TABLE = (1.0, 1.25, 2.0, 2.5, 3.0, 4.5, 5.0, 6.0, 7.5, 8.0, 10.0, 12.0)
COMPOSITION_POINTS = {
    **{f"fig3_gamma={g}": (10, 0.1, 0.25, 1e-4, NoiseModel.power(g))
       for g in (0.5, 1.0, 2.0)},
    **{f"fig4_sigma2={s2}": (16, 1, s2, 1e-4, None)
       for s2 in (0.0625, 0.125, 0.25, 0.5)},
    **{f"fig5_B={b}": (b, 1, 0.25, 1e-4, None) for b in (8, 32, 64, 128)},
    **{f"fig8_gamma={g}": (25, 1, 0.25, 1e-4, NoiseModel.power(g))
       for g in (0.5, 1.0, 2.0)},
    "M=256": (256, 1, 0.25, 1e-4, None),
    "table_M=12": (12, 1, 0.25, 1e-2, NoiseModel.from_table(GOLDEN_TABLE)),
}
COMPOSITION_HEX = {
    "fig3_gamma=0.5": ("0x1.999999999999ap-2", "0x1.3e0105242fb6ap-1"),
    "fig3_gamma=1.0": ("0x1.c28f5c28f5c29p-4", "0x1.a44db9c07f8e8p-3"),
    "fig3_gamma=2.0": ("0x1.47ae147ae147bp-6", "0x1.9804762e178f0p-4"),
    "fig4_sigma2=0.0625": ("0x1.8000000000000p-3", "0x1.8f747ac01986ep-2"),
    "fig4_sigma2=0.125": ("0x1.0000000000000p-3", "0x1.f0f2e17690170p-3"),
    "fig4_sigma2=0.25": ("0x1.0000000000000p-4", "0x1.1f3fdc0bf2b48p-3"),
    "fig4_sigma2=0.5": ("0x1.0000000000000p-4", "0x1.3f3ffc7c0eb10p-4"),
    "fig5_B=8": ("0x1.0000000000000p-3", "0x1.f0f2e17690170p-3"),
    "fig5_B=32": ("0x1.0000000000000p-4", "0x1.3f3ffc7c0eb10p-4"),
    "fig5_B=64": ("0x1.0000000000000p-5", "0x1.54d5b2b6b8820p-5"),
    "fig5_B=128": ("0x1.0000000000000p-6", "0x1.61ada40cfb500p-6"),
    "fig8_gamma=0.5": ("0x1.70a3d70a3d70ap-2", "0x1.89d2ffdcda968p-3"),
    "fig8_gamma=1.0": ("0x1.47ae147ae147bp-4", "0x1.8b19d07727a00p-4"),
    "fig8_gamma=2.0": ("0x1.47ae147ae147bp-5", "0x1.884908c660ad0p-4"),
    "M=256": ("0x1.0000000000000p-7", "0x1.68fbb8bf76d00p-7"),
    "table_M=12": ("0x1.5555555555555p-3", "0x1.0283bdc9bd688p-2"),
}


class TestCapacityGolden:
    """Capacities and composition scans bit for bit."""

    @pytest.mark.parametrize("qv", CAPACITY_HEX, ids=str)
    def test_capacity_bit_exact(self, qv):
        assert bawgn_capacity(*qv).hex() == CAPACITY_HEX[qv]

    @pytest.mark.parametrize("name", COMPOSITION_POINTS)
    def test_optimal_composition_bit_exact(self, name):
        b, delta, sigma2, eps, noise = COMPOSITION_POINTS[name]
        cfg = new_config(b, delta, sigma2, eps, noise=noise)
        optimal_composition.cache_clear()
        q_star, c1 = optimal_composition(cfg)
        assert (q_star.hex(), c1.hex()) == COMPOSITION_HEX[name]


def _entropy_bound(q: float, v: float) -> float:
    """min(H(q), log2(1 + q(1-q)/v) / 2): Var(Y) = q(1-q) + v, and a
    Gaussian has the largest entropy for its variance."""
    return min(binary_entropy(q), 0.5 * math.log2(1.0 + q * (1.0 - q) / v))


def _full_scan(cfg) -> tuple[float, float]:
    """argmax of capacity_grid over every k = 1..M-1, ties to the smaller q."""
    caps = capacity_grid(np.arange(1, cfg.M) / cfg.M,
                         channel.probe_variances(cfg)[:-1])
    best = int(np.argmax(caps))
    return (best + 1) / cfg.M, float(caps[best])


@pytest.fixture
def cold_composition(clear_package_caches):
    """optimal_composition(cfg) with every cache of the package cleared."""
    def run(cfg) -> tuple[float, float]:
        clear_package_caches()
        return optimal_composition(cfg)
    return run


# a staircase table, so runs of probe sizes share a variance
STAIR_TABLE = NoiseModel.from_table(1.0 + np.arange(1024) // 8 * 0.75)
# a random table whose entries span 1e-3 to 1e200
RANDOM_TABLE = NoiseModel.from_table(np.sort(
    10.0 ** np.random.default_rng(2017).uniform(-3.0, 200.0, 1024)))


class TestProbeVariances:
    """probe_variances builds f(k) * delta * sigma2 for every size at once,
    each the float of noise_variance(k)."""

    @pytest.mark.parametrize("noise", [None, NoiseModel.power(0.5),
                                       NoiseModel.power(2.0), STAIR_TABLE,
                                       RANDOM_TABLE],
                             ids=["linear", "gamma=0.5", "gamma=2", "table",
                                  "random-table"])
    @pytest.mark.parametrize("m", [1, 2, 3, 16, 1024])
    def test_matches_scalar_variances(self, m, noise):
        for delta, sigma2 in ((1.0, 0.25), (0.1, 3.3), (0.37, 1e-7), (1.0, 1e8)):
            cfg = new_config(m * delta, delta, sigma2, 1e-4, noise=noise)
            want = np.array([cfg.noise_variance(k) for k in range(1, cfg.M + 1)])
            channel.probe_variances.cache_clear()
            assert channel.probe_variances(cfg).tobytes() == want.tobytes()

    def test_short_table_raises_as_scalar(self):
        # built past new_config's check that the table covers M
        cfg = SearchConfig(B=8.0, delta=1.0, sigma2=0.25, epsilon=1e-4,
                           noise=NoiseModel.from_table([1.0, 2.0, 3.0]), M=8)
        with pytest.raises(ProbeCountOutOfRange) as want:
            [cfg.noise_variance(k) for k in range(1, cfg.M + 1)]
        channel.probe_variances.cache_clear()
        with pytest.raises(ProbeCountOutOfRange) as got:
            channel.probe_variances(cfg)
        assert str(got.value) == str(want.value)


class TestCompositionPruning:
    """optimal_composition skips the sizes its entropy bound rules out and
    returns the full scan's (q*, C1) bit for bit."""

    @pytest.mark.parametrize("noise", [None, NoiseModel.power(0.5),
                                       NoiseModel.power(2.0), STAIR_TABLE],
                             ids=["linear", "gamma=0.5", "gamma=2", "table"])
    @pytest.mark.parametrize("m", [2, 3, 4, 16, 128, 1024])
    def test_matches_full_scan(self, m, noise, cold_composition):
        # 1e-7 puts every sd below 1e-3 (C = H(q)) at small M
        for sigma2 in (1e-7, 1e-5, 1e-3, 0.05, 0.25, 1.0, 30.0, 1e4, 1e8):
            cfg = new_config(m, 1, sigma2, 1e-4, noise=noise)
            got = cold_composition(cfg)
            want = _full_scan(cfg)
            assert [x.hex() for x in got] == [x.hex() for x in want], sigma2

    @pytest.mark.parametrize("m,sigma2", [(2, 1e307), (16, 1e306), (16, 2e305)])
    def test_matches_full_scan_in_low_snr_band(self, m, sigma2, cold_composition):
        # variances from about 1.8e306 up take the closed-form low-SNR limit:
        # all but k = 1 at 1e306, and 2e305 * k straddles the edge
        cfg = new_config(m, 1, sigma2, 1e-4)
        got = cold_composition(cfg)
        assert [x.hex() for x in got] == [x.hex() for x in _full_scan(cfg)]

    @given(q=st.floats(0.0, 1.0), log_v=st.floats(-8.0, 8.0))
    def test_capacity_within_entropy_bound(self, q, log_v):
        v = 10.0 ** log_v
        assert capacity_grid(q, v) <= _entropy_bound(q, v) + 1e-12

    @pytest.mark.parametrize("sigma2", [0.1, 0.25, 1.0])
    def test_cold_scan_evaluates_few_sizes(self, monkeypatch, sigma2,
                                           cold_composition):
        pairs = []

        def counting(qs, variances):
            pairs.append(np.size(qs))
            return capacity_grid(qs, variances)

        monkeypatch.setattr(channel, "capacity_grid", counting)
        cold_composition(new_config(1024, 1, sigma2, 1e-4))
        assert sum(pairs) <= 128

    def test_underflowed_variance_raises_as_full_scan(self, tmp_path,
                                                      cold_composition):
        # sigma2 * delta underflows, so every probe variance is 0.0
        cfg = new_config(16e-300, 1e-300, 5e-324, 1e-4)
        with pytest.raises(ValidationError,
                           match=r"^variance must be positive and finite, got 0\.0$"):
            cold_composition(cfg)
        argv = ["bounds", "--B", "16e-300", "--delta", "1e-300",
                "--sigma2", "5e-324", "--epsilon", "1e-4", "--out", str(tmp_path)]
        assert main(argv) == 2

    @pytest.mark.parametrize("sigma2", [-1e6, math.nan])
    def test_refused_variances_raise_as_full_scan(self, sigma2, cold_composition):
        # built past new_config's checks; at -1e6 the largest bound is not
        # at k = 1, whose variance the full scan refuses first
        cfg = SearchConfig(B=16.0, delta=1.0, sigma2=sigma2, epsilon=1e-4, M=16)
        with pytest.raises(ValidationError) as want:
            _full_scan(cfg)
        with pytest.raises(ValidationError) as got:
            cold_composition(cfg)
        assert str(got.value) == str(want.value)


def _random_pairs(n: int, seed: int):
    """Seeded (q, v) pairs over q in (0.001, 0.999) and v in 1e-4..1e3,
    with the degenerate q = 0 and q = 1 mixed in."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.001, 0.999, n)
    q[rng.choice(n, 40, replace=False)] = rng.choice([0.0, 1.0], 40)
    return q, 10.0 ** rng.uniform(-4.0, 3.0, n)


class TestCapacityGrid:
    """capacity_grid is bawgn_capacity over many pairs, bit for bit."""

    PAIRS = _random_pairs(2000, 20261018)

    @pytest.fixture(scope="class")
    def lone(self):
        q, v = self.PAIRS
        return np.array([bawgn_capacity(a, b) for a, b in zip(q.tolist(), v.tolist())])

    def test_matches_lone_calls(self, lone):
        q, v = self.PAIRS
        assert np.array_equal(capacity_grid(q, v), lone)

    def test_matches_lone_calls_shuffled(self, lone):
        q, v = self.PAIRS
        perm = np.random.default_rng(5).permutation(q.size)
        assert np.array_equal(capacity_grid(q[perm], v[perm]), lone[perm])

    @pytest.mark.parametrize("cap", [1, 1 << 40], ids=["one_pair", "one_block"])
    def test_block_cap_does_not_change_values(self, lone, monkeypatch, cap):
        monkeypatch.setattr(channel, "BLOCK_POINTS", cap)
        q, v = self.PAIRS
        assert np.array_equal(capacity_grid(q, v), lone)

    def test_broadcasts_a_q_by_v_grid(self):
        qs, vs = [0.1, 0.5, 0.9], [0.01, 0.3, 20.0]
        got = capacity_grid(np.array(qs)[:, None], vs)
        assert got.shape == (3, 3)
        assert got.tolist() == [[bawgn_capacity(q, v) for v in vs] for q in qs]

    def test_degenerate_q_skips_quadrature(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(channel, "_integrand", refuse)
        assert capacity_grid([0.0, 1.0, 0.0], [0.25, 7.0, 1e-300]).tolist() \
            == [0.0, 0.0, 0.0]

    def test_empty_grid(self):
        assert capacity_grid([], []).shape == (0,)
        assert capacity_grid(np.empty((0, 3)), 0.25).shape == (0, 3)

    @pytest.mark.parametrize("q,v", [(-0.1, 0.25), (1.5, 0.25), (math.nan, 0.25),
                                     (0.5, 0.0), (0.5, -1.0), (0.5, math.inf),
                                     (0.5, math.nan), (math.nan, math.nan)])
    def test_rejects_what_bawgn_capacity_rejects(self, q, v):
        with pytest.raises(ValueError) as lone:
            bawgn_capacity(q, v)
        with pytest.raises(ValueError) as grid:
            capacity_grid([0.5, q, 2.0], [0.25, v, -1.0])
        assert str(grid.value) == str(lone.value)

    def test_panel_cap_refused_before_allocation(self, monkeypatch):
        # below 1e-3 sd the noiseless limit H(q) is returned, on no grid
        monkeypatch.setattr(channel, "_grid", lambda *args: pytest.fail(
            "grid allocated"))
        assert bawgn_capacity(0.5, 1e-300) == 1.0
        assert capacity_grid([0.3, 0.5], 1e-300).tolist() == [
            binary_entropy(0.3), 1.0]

    def test_overflowing_grid_refused_before_allocation(self, monkeypatch):
        # v_ok is the largest variance whose grid endpoint 1 + 10 sqrt(v)
        # squares to a finite float; it still evaluates, bit for bit
        v_ok = float.fromhex("0x1.47ae147ae147ap+1017")
        assert capacity_grid(0.5, v_ok).item().hex() == "0x1.9000000000000p-37"
        monkeypatch.setattr(channel, "_grid", lambda *args: pytest.fail(
            "grid allocated"))
        for v in (math.nextafter(v_ok, math.inf), 1e307, 1e308):
            assert capacity_grid(0.5, v).item() == 0.25 / v * (0.5 * math.log2(math.e))
        assert capacity_grid([0.0, 1.0], 1e308).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("tol,max_panels,match", [
        pytest.param(-1.0, 512, "still above tol=-1.0 at 1024 panels",
                     id="512-1024"),
        pytest.param(-1.0, 256, "still above tol=-1.0 at 512 panels",
                     id="256-512"),
        # both pairs start on 256 panels, past the cap before any doubling
        pytest.param(1e-16, 64, "needs over 64 panels", id="1e-16-64")])
    def test_nonconvergence_reports_last_panel_count(self, monkeypatch, tol,
                                                     max_panels, match):
        # a negative tolerance never converges: the last grid evaluated is
        # the first past max_panels, in a batch as in a lone call
        monkeypatch.setattr(channel, "CAPACITY_TOL", tol)
        monkeypatch.setattr(channel, "MAX_PANELS", max_panels)
        with pytest.raises(QuadratureNonConvergence, match=match):
            capacity_grid([0.2, 0.37], [0.5, 0.33])
        with pytest.raises(QuadratureNonConvergence, match=match):
            bawgn_capacity(0.37, 0.33)


class TestCapacityEdges:
    """Past the variances the quadrature takes, C(q, v) is its closed-form
    limit, within the quadrature's tolerance of it at each edge."""

    QS = (0.5, 0.1, 0.37)

    def test_huge_variance_limit_is_quadrature_to_second_order(self):
        # C = q(1-q)/(2 v ln 2) + O(1/v^2)
        for q in self.QS:
            limit = q * (1.0 - q) / 1e5 * (0.5 * math.log2(math.e))
            assert abs(bawgn_capacity(q, 1e5) - limit) <= 1e-11

    def test_huge_variance_edge_is_continuous(self):
        v_ok = float.fromhex("0x1.47ae147ae147ap+1017")
        past = math.nextafter(v_ok, math.inf)
        for q in self.QS:
            edge = capacity_grid([q, q], [v_ok, past])
            assert 0.0 < edge[1] <= edge[0] <= channel.CAPACITY_TOL

    def test_tiny_variance_edge_is_continuous(self):
        # C is non-increasing in v (more noise is a degraded channel), so
        # below 1e-6 it lies in [C(q, 1e-6), H(q)]: an interval the
        # quadrature closes to within its tolerance, on 2^14 panels
        below = math.nextafter(1e-6, 0.0)
        for q in self.QS:
            assert binary_entropy(q) - bawgn_capacity(q, 1e-6) <= channel.CAPACITY_TOL
            assert bawgn_capacity(q, below) == binary_entropy(q)
            assert binary_entropy(q) - bawgn_capacity(q, 1e-8) <= channel.CAPACITY_TOL
            assert bawgn_capacity(q, 1e-13) == binary_entropy(q)


class TestCapacityMemory:
    """The kernel works in blocks, so a batch peaks near one block."""

    LIMIT = 2 << 20

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cold_composition_scan(self, clear_package_caches):
        cfg = new_config(1024, 1, 0.25, 1e-4)
        clear_package_caches()
        assert self._peak(lambda: optimal_composition(cfg)) < self.LIMIT

    def test_48_by_48_grid(self):
        qs = (np.arange(48) + 0.5) / 48
        vs = 10.0 ** np.linspace(-1.5, 1.5, 48)
        assert self._peak(lambda: capacity_grid(qs[:, None], vs)) < self.LIMIT

    @pytest.mark.parametrize("v", [1.0000001e-6, 1e-8, 1e-10, 2e-12])
    def test_tiny_variances(self, v):
        # the smallest variance the quadrature takes needs 2^14 panels, one
        # block a pair; a smaller one is the noiseless limit, on no grid
        qs = [0.001, 0.1, 0.37, 0.5, 0.999]
        assert self._peak(lambda: capacity_grid(qs, v)) < self.LIMIT

    @pytest.mark.parametrize("argv", [
        ["capacity", "--q", "0.5", "--variance", "2e-12"],
        # v(1/2) = 0.25 * (1/8)**36 falls in the same band
        ["bounds", "--B", "4", "--delta", "1", "--sigma2", "0.25",
         "--epsilon", "1e-4", "--gamma", "36"],
    ], ids=["capacity", "bounds"])
    def test_cli_edge_commands(self, tmp_path, argv, clear_package_caches):
        clear_package_caches()
        rc = []
        peak = self._peak(lambda: rc.append(main([*argv, "--out", str(tmp_path)])))
        assert rc == [0]
        assert peak < self.LIMIT


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
        pdf = scipy.stats.norm.pdf(y, scale=math.sqrt(v))
        ref = np.trapezoid(pdf * (2 * y - 1) / (2 * v), y)
        assert val == pytest.approx(ref, abs=1e-6)

    def test_closed_form_matches_quad_reference(self):
        # quad of the truncated score over [y0, inf), cut 40 sd from the
        # mean, beyond which the Gaussian's mass is below 1e-300
        for v in np.geomspace(1e-3, 1e3, 9):
            s = math.sqrt(v)
            for a in (-1e9, -1e3, -30.0, -3.0, -0.5, 0.0, 0.5, 3.0, 30.0, 1e3):
                y0 = a * v + 0.5
                ref, _ = scipy.integrate.quad(
                    lambda y: scipy.stats.norm.pdf(y, scale=s) * (2 * y - 1) / (2 * v),
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

    @pytest.mark.parametrize("point", [
        *[(16, 1, s2, None) for s2 in (0.0625, 0.125, 0.25, 0.5)],
        *[(b, 1, 0.25, None) for b in (8, 16, 32, 64, 128)],
        *[(1, d, 0.25, None) for d in (0.5, 0.25, 0.125, 0.0625, 0.03125)],
        (25, 1, 0.25, 2.0),
    ], ids=lambda p: f"B={p[0]}-delta={p[1]}-sigma2={p[2]}-gamma={p[3]}")
    def test_psi_is_brute_force_max_bit_for_bit(self, point):
        # psi evaluates the tail only where it can change the max; the fig4,
        # fig5 and fig6 points and a gamma = 2 point
        b, delta, sigma2, gamma = point
        noise = NoiseModel.linear() if gamma is None else NoiseModel.power(gamma)
        cfg = new_config(b, delta, sigma2, 1e-4, noise=noise)
        vs = np.array([cfg.noise_variance(k) for k in range(1, cfg.M + 1)])
        for a in (-1e9, -50.0, -1.0, 0.0, 1e-6, 0.7, 3.0, 7.0, 40.0, 1e3, 1e9):
            assert psi(a, cfg).hex() == float(psi_component(a, vs).max()).hex()

    @given(m=st.integers(1, 300), log_sigma2=st.floats(-4.0, 4.0),
           gamma=st.sampled_from([None, 0.5, 1.5, 2.0]),
           a=st.one_of(st.floats(-60.0, 60.0),
                       st.sampled_from([-1e9, -1e3, 0.0, 1e-6, 1e3, 1e9])))
    def test_one_pass_is_brute_force_max_bit_for_bit(self, m, log_sigma2,
                                                     gamma, a):
        noise = NoiseModel.linear() if gamma is None else NoiseModel.power(gamma)
        cfg = new_config(m, 1, 10.0 ** log_sigma2, 1e-4, noise=noise)
        vs = np.array([cfg.noise_variance(k) for k in range(1, cfg.M + 1)])
        assert psi(a, cfg).hex() == float(psi_component(a, vs).max()).hex()

    def test_psi_does_not_run_the_reference(self, monkeypatch, config16):
        want = [psi(a, config16) for a in (-1e9, 0.0, 1e-6, 7.0)]

        def refused(a, variance):
            raise AssertionError("psi called psi_component")

        monkeypatch.setattr(channel, "psi_component", refused)
        assert [psi(a, config16) for a in (-1e9, 0.0, 1e-6, 7.0)] == want


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
