"""Probe rules and full strategy runners."""

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import searchlab.inference as inference
import searchlab.strategies as strat
from searchlab.errors import InvalidAlpha, StepLimitExceeded
from searchlab.model import MAX_CELLS, NoiseModel, new_config
from searchlab.sim import (BLOCK_CELLS, BLOCK_ROWS, run_trials, trial_generators,
                           trial_seed_for)
from searchlab.strategies import (
    EXHAUSTIVE,
    FIXED_COMPOSITION,
    KINDS,
    NOISY_BINARY_FIXED,
    NOISY_BINARY_VARIABLE,
    SORTED_PM,
    TWO_STAGE,
    StrategySpec,
    random_composition_mask,
    run_rows,
    run_strategy,
    sorted_pm_mask,
)

NB_FIXED_TAU_REFERENCE = 248  # deterministic at B=16, delta=1, sigma2=0.25, eps=1e-4
# SHA-256 of the repetition counts in test_level_repetitions_match_recorded_digest,
# recorded while Q^{-1} came from scipy.special.ndtri
LEVEL_REPS_DIGEST = "0dfb1a40d1758b8d1d765c1761f056d6c0a296ad663e2bf89c516761622061bf"


def noiseless(width, eps=1e-4):
    return new_config(width, 1, 1e-6, eps)


class TestStrategySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StrategySpec("binary_search")

    def test_two_stage_requires_alpha(self):
        with pytest.raises(ValueError):
            StrategySpec(TWO_STAGE)

    def test_labels(self):
        assert StrategySpec(SORTED_PM).label() == "sorted_pm"
        assert StrategySpec(TWO_STAGE, alpha=0.25).label() == "two_stage(alpha=1/4)"


class TestCompositionMask:
    def test_exact_count(self):
        rng = np.random.default_rng(3)
        for k in (1, 5, 9):
            assert random_composition_mask(10, k, rng).sum() == k

    def test_full_probe_consumes_no_randomness(self):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        mask = random_composition_mask(6, 6, rng1)
        assert mask.all()
        # identical stream afterwards proves no draws happened
        assert rng1.integers(1 << 30) == rng2.integers(1 << 30)

    def test_empty_probe_consumes_no_randomness(self):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        assert not random_composition_mask(6, 0, rng1).any()
        assert rng1.bit_generator.state == rng2.bit_generator.state

    def test_inclusion_roughly_uniform(self):
        rng = np.random.default_rng(11)
        hits = np.zeros(12)
        for _ in range(3000):
            hits += random_composition_mask(12, 3, rng)
        # each cell expected 750 times, binomial sd ~ 24
        assert np.all(np.abs(hits - 750) < 150)

    @pytest.mark.parametrize("size, k", [(2, 1), (16, 1), (16, 2), (16, 15),
                                         (128, 2), (128, 64), (7, 3)])
    def test_same_draws_as_in_place_shuffle(self, size, k):
        # reference: swap entries of arange(size) in place, k draws
        for seed in range(20):
            rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            arr = np.arange(size)
            for i in range(k):
                j = i + int(rng_ref.integers(size - i))
                arr[i], arr[j] = arr[j], arr[i]
            want = np.zeros(size, dtype=bool)
            want[arr[:k]] = True
            assert np.array_equal(random_composition_mask(size, k, rng), want)
            assert rng.bit_generator.state == rng_ref.bit_generator.state


def in_place_shuffle(size, k, rng):
    """The first k entries of a partial Fisher-Yates shuffle of range(size),
    swapped in place in a full array: the reference for pick_cells."""
    arr = np.arange(size)
    for i in range(k):
        j = i + int(rng.integers(size - i))
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:k].tolist()


class TestPickCells:
    @given(seed=st.integers(0, 2**63), grid=st.integers(2, 200),
           share=st.floats(0.0, 1.0), rows=st.integers(1, 4),
           steps=st.integers(1, 5))
    def test_rows_and_steps_match_in_place_shuffles(self, seed, grid, share,
                                                    rows, steps):
        # large shares of small grids swap the same entry >= k repeatedly
        k = 1 + int(share * (grid - 2))
        gens = [np.random.default_rng([seed, r]) for r in range(rows)]
        twins = [np.random.default_rng([seed, r]) for r in range(rows)]
        got = strat.pick_cells(gens, grid, k, steps)
        assert got.shape == (rows, steps, k)
        for r, twin in enumerate(twins):
            assert [got[r, t].tolist() for t in range(steps)] == [
                in_place_shuffle(grid, k, twin) for _ in range(steps)]
            assert gens[r].bit_generator.state == twin.bit_generator.state

    def test_largest_grid_matches_in_place_shuffle(self):
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        got = strat.pick_cells([rng], MAX_CELLS, 5, 3)[0]
        assert got.tolist() == [in_place_shuffle(MAX_CELLS, 5, twin)
                                for _ in range(3)]

    @staticmethod
    def assert_matches_in_place_shuffles(grid, k, rows, steps, seed=0):
        gens = [np.random.default_rng([seed, r]) for r in range(rows)]
        twins = [np.random.default_rng([seed, r]) for r in range(rows)]
        got = strat.pick_cells(gens, grid, k, steps)
        assert got.shape == (rows, steps, k)
        for r, twin in enumerate(twins):
            assert got[r].tolist() == [in_place_shuffle(grid, k, twin)
                                       for _ in range(steps)]
            assert gens[r].bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_grid_one_past_k_matches_in_place_shuffles(self, k):
        # k targets in k + 1 entries: most shuffles swap one entry twice
        self.assert_matches_in_place_shuffles(k + 1, k, rows=3, steps=40)

    @pytest.mark.parametrize("grid", [2, 3, 16, 1000, 2**16 + 1, MAX_CELLS])
    def test_single_cell_picks_match_in_place_shuffles(self, grid):
        # one swap a shuffle: its target is its cell
        self.assert_matches_in_place_shuffles(grid, 1, rows=3, steps=70)

    @pytest.mark.parametrize("grid, k", [(16, 5), (16, 6), (128, 15), (128, 16),
                                         (1024, 44), (1024, 45)])
    def test_larger_probes_match_in_place_shuffles(self, grid, k):
        # k >= 3 runs the table on every shuffle, whether repeats are rare
        # (the first k of each pair) or likely (the second)
        self.assert_matches_in_place_shuffles(grid, k, rows=2, steps=30)

    @pytest.mark.parametrize("grid", [4, 5, 2**16 + 1, MAX_CELLS])
    def test_pairs_match_in_place_shuffles(self, grid):
        # a pair repeats a target just when its two targets are equal
        self.assert_matches_in_place_shuffles(grid, 2, rows=3, steps=70)

    @pytest.mark.parametrize("grid, k", [(4, 2), (16, 3), (16, 5), (128, 2),
                                         (1024, 16)])
    def test_table_runs_on_repeating_pairs_and_every_larger_shuffle(
            self, monkeypatch, grid, k):
        tabled = []
        table = strat._shuffle_table

        def counted(j):
            tabled.append(j.shape[0])
            return table(j)

        monkeypatch.setattr(strat, "_shuffle_table", counted)
        rows, steps = 4, 200
        strat.pick_cells([np.random.default_rng([9, r]) for r in range(rows)],
                         grid, k, steps)
        if k > 2:
            assert tabled == [rows * steps]
            return
        repeating = 0
        for r in range(rows):
            twin = np.random.default_rng([9, r])
            for _ in range(steps):
                targets = [i + int(twin.integers(grid - i)) for i in range(k)]
                repeating += len(set(targets)) < k
        assert sum(tabled) == repeating
        assert len(tabled) == (repeating > 0)

    @pytest.mark.parametrize("grid", [1, 2, 3, 16, 128, 2**16 + 1, MAX_CELLS])
    @pytest.mark.parametrize("steps", [1, 63, 256])
    def test_one_scalar_bound_draws_as_an_array_of_equal_bounds(self, grid,
                                                                steps):
        # the single-cell path draws integers(0, grid, size=steps); earlier
        # draws leave the generator's buffered 32-bit half set or not
        for earlier in range(3):
            rng, twin = np.random.default_rng([grid, steps]), np.random.default_rng(
                [grid, steps])
            for g in (rng, twin):
                g.integers(0, 5, size=earlier)
            got = rng.integers(0, grid, size=steps)
            assert got.tolist() == twin.integers(0, np.full(steps, grid)).tolist()
            assert rng.bit_generator.state == twin.bit_generator.state


def argsort_sorted_pm_mask(weights):
    """The sorted-PM mask by its definition, the reference for
    sorted_pm_mask: a stable argsort of the weights descending, the prefix
    sums of the ordered weights, and the prefix scattered back through the
    permutation."""
    order = np.argsort(-weights, axis=-1, kind="stable")
    mask = np.zeros(weights.shape, dtype=bool)
    if weights.ndim == 1:
        csum = np.cumsum(weights[order])
        k = int(np.argmin(np.abs(csum - 0.5 * csum[-1]))) + 1
        mask[order[:k]] = True
        return mask, k
    rows = np.arange(weights.shape[0])[:, None]
    csum = np.cumsum(weights[rows, order], axis=1)
    k = np.argmin(np.abs(csum - 0.5 * csum[:, -1:]), axis=1) + 1
    mask[rows, order] = np.arange(weights.shape[1]) < k[:, None]
    return mask, k


@st.composite
def tie_heavy_weights(draw):
    """A (1-6, 1-40) block, or one row of it, of at most five weight levels,
    0.0 and 1.0 among them, so that cuts often fall inside a group of
    equal weights."""
    levels = [0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0).map(abs), max_size=3))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    picks = draw(st.lists(st.integers(0, len(levels) - 1),
                          min_size=rows * cols, max_size=rows * cols))
    block = np.array(levels)[picks].reshape(rows, cols)
    return block[0] if draw(st.booleans()) else block


class TestSortedPMMask:
    def test_descending_example(self):
        mask, k = sorted_pm_mask(np.array([0.4, 0.3, 0.2, 0.1]))
        assert k == 1 and list(mask) == [True, False, False, False]

    def test_tied_example_prefers_half_mass(self):
        mask, k = sorted_pm_mask(np.array([0.3, 0.3, 0.2, 0.2]))
        assert k == 2 and list(mask) == [True, True, False, False]

    def test_unsorted_input_probes_top_cells(self):
        mask, k = sorted_pm_mask(np.array([0.1, 0.55, 0.05, 0.3]))
        assert k == 1 and list(mask) == [False, True, False, False]

    def test_uniform_six_cells_probes_three(self):
        # prefixes hold 1/6, 2/6, 3/6, ...: 3/6 is exactly half
        mask, k = sorted_pm_mask(np.full(6, 1 / 6))
        assert k == 3 and list(mask) == [True] * 3 + [False] * 3

    def test_tie_in_distance_takes_smaller_prefix(self):
        # prefixes hit 0.25, 0.50, 0.75, 1.00: k=2 is exact
        mask, k = sorted_pm_mask(np.full(4, 0.25))
        assert k == 2

    def test_uniform_weights_take_the_smaller_half(self):
        # the prefix sums of ones are exact, so at odd M the distances to
        # M/2 tie and the smaller prefix, M // 2, is probed
        for m in range(2, 1025):
            assert sorted_pm_mask(np.ones(m))[1] == m // 2
            assert sorted_pm_mask(np.ones((2, m)))[1].tolist() == [m // 2] * 2

    @pytest.mark.parametrize("m", [2, 3, 9, 11, 12, 15, 21, 128])
    def test_first_probe_from_zero_sums_covers_half(self, m):
        probe, _ = strat._sorted_pm_rule(new_config(m, 1, 0.25, 1e-4))
        # the weights exp(c - max c) of zero sums, as the engine starts
        masks, _, _ = probe(np.broadcast_to(1.0, (3, m)), 0, None)
        assert masks.shape == (3, m)  # one step's masks
        assert masks.sum(axis=1).tolist() == [m // 2] * 3

    def test_rows_match_single_posteriors(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 5, 16, 64):
            probs = rng.dirichlet(np.ones(m), 40)
            probs[::3, : m // 2] = 1.0 / m  # ties inside rows
            masks, ks = sorted_pm_mask(probs)
            for row, mask, k in zip(probs, masks, ks):
                want_mask, want_k = sorted_pm_mask(row)
                assert np.array_equal(mask, want_mask) and k == want_k

    def test_cut_inside_a_tie_group_takes_lowest_indices(self):
        # sorted 1, 1, 1, 0.5, 0.5: the prefix of two holds half the mass,
        # and of the three cells at 1.0 the two lowest are probed
        mask, k = sorted_pm_mask(np.array([1.0, 0.5, 1.0, 1.0, 0.5]))
        assert k == 2 and mask.tolist() == [True, False, True, False, False]

    @settings(max_examples=500)
    @given(weights=tie_heavy_weights())
    def test_matches_argsort_reference(self, weights):
        mask, k = sorted_pm_mask(weights)
        want_mask, want_k = argsort_sorted_pm_mask(weights)
        assert mask.shape == want_mask.shape
        assert mask.tobytes() == want_mask.tobytes()
        assert np.array_equal(k, want_k)
        if weights.ndim == 1:
            assert type(k) is int

    @pytest.mark.parametrize("spec, m, trials", [
        (StrategySpec(SORTED_PM), 3, 1000),
        (StrategySpec(SORTED_PM), 16, 1000),
        (StrategySpec(SORTED_PM), 128, 200),
        (StrategySpec(SORTED_PM), 1024, 20),
        (StrategySpec(TWO_STAGE, alpha=0.25), 16, 1000),
        (StrategySpec(TWO_STAGE, alpha=0.25), 128, 200),
        (StrategySpec(TWO_STAGE, alpha=0.25), 1024, 100),
    ], ids=lambda p: p.label() if isinstance(p, StrategySpec) else str(p))
    def test_trials_match_argsort_reference(self, monkeypatch, spec, m, trials):
        # every record, trial by trial, is the one the argsort rule gives
        # (two_stage has no M = 3 case: its one section size, 1, takes no
        # sorted-PM step)
        cfg = new_config(m, 1, 0.25, 1e-4)
        got = run_rows(spec, cfg, trial_generators(2017, 0, trials))
        monkeypatch.setattr(strat, "sorted_pm_mask", argsort_sorted_pm_mask)
        want = run_rows(spec, cfg, trial_generators(2017, 0, trials))
        for name, g, w in zip(("tau", "tau_stage1", "success", "final_max_prob"),
                              got, want):
            assert g.tobytes() == w.tobytes(), name

    def test_brute_force_prefix_optimality(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            m = int(rng.integers(2, 33))
            p = rng.dirichlet(np.ones(m))
            mask, k = sorted_pm_mask(p)
            order = np.argsort(-p, kind="stable")
            csum = np.cumsum(p[order])
            dists = np.abs(csum - 0.5)
            best = dists.min()
            assert dists[k - 1] <= best + 1e-15
            assert np.all(dists[: k - 1] > best)  # smallest optimal prefix
            assert mask.sum() == k


class TestFixedComposition:
    SPEC = StrategySpec(FIXED_COMPOSITION)

    def test_single_section_is_instant(self):
        rec = run_strategy(self.SPEC, new_config(1, 1, 0.25, 1e-4),
                           np.random.default_rng(0))
        assert rec.tau == 0 and rec.success

    def test_noiseless_mean_near_information_limit(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(404)
        taus = [run_strategy(self.SPEC, cfg, rng).tau for _ in range(1000)]
        assert 4.0 <= np.mean(taus) <= 6.0

    def test_stops_at_posterior_threshold(self, config16):
        rng = np.random.default_rng(8)
        for _ in range(25):
            rec = run_strategy(self.SPEC, config16, rng)
            assert rec.final_max_prob >= (1 - 1e-4) * (1 - 1e-12)


class TestSortedPM:
    SPEC = StrategySpec(SORTED_PM)

    def test_single_cell_window_is_instant(self):
        rec = run_strategy(self.SPEC, new_config(1, 1, 0.25, 1e-4),
                           np.random.default_rng(0))
        assert rec.tau == 0 and rec.success

    def test_noiseless_mean_near_information_limit(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(505)
        taus = [run_strategy(self.SPEC, cfg, rng).tau for _ in range(1000)]
        assert 4.0 <= np.mean(taus) <= 6.0

    def test_stops_at_posterior_threshold(self, config16):
        rng = np.random.default_rng(9)
        for _ in range(25):
            rec = run_strategy(self.SPEC, config16, rng)
            assert rec.final_max_prob >= (1 - 1e-4) * (1 - 1e-12)


def two_stage(alpha):
    return StrategySpec(TWO_STAGE, alpha=alpha)


class TestTwoStage:
    def test_single_cell_sections_skip_stage_two(self, config16):
        rec = run_strategy(two_stage(1.0 / 16.0), config16, np.random.default_rng(2))
        assert rec.tau == rec.tau_stage1

    def test_stage_split_recorded(self, config16):
        rec = run_strategy(two_stage(0.25), config16, np.random.default_rng(3))
        assert 0 < rec.tau_stage1 < rec.tau

    def test_alpha_must_be_reciprocal_integer(self, config16):
        with pytest.raises(InvalidAlpha):
            run_strategy(two_stage(0.3), config16, np.random.default_rng(0))

    def test_alpha_sections_must_divide_m(self, config16):
        with pytest.raises(InvalidAlpha):
            run_strategy(two_stage(1.0 / 3.0), config16, np.random.default_rng(0))

    def test_quarter_alpha_beats_nonadaptive_mean(self, config16):
        # adaptive refinement saves measurements over one-shot composition
        rng = np.random.default_rng(606)
        ts = np.mean([run_strategy(two_stage(0.25), config16, rng).tau
                      for _ in range(600)])
        fc = np.mean([run_strategy(StrategySpec(FIXED_COMPOSITION), config16, rng).tau
                      for _ in range(600)])
        assert ts < fc


class TestNoisyBinaryFixed:
    SPEC = StrategySpec(NOISY_BINARY_FIXED)

    def test_two_cells_noiseless_single_probe(self):
        cfg = noiseless(2)
        rng = np.random.default_rng(1)
        recs = [run_strategy(self.SPEC, cfg, rng) for _ in range(200)]
        assert all(r.tau == 1 for r in recs)
        assert np.mean([r.success for r in recs]) > 0.99

    def test_noiseless_level_count_is_log2_m(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(2)
        # one probe per level when repetition collapses to 1
        assert all(run_strategy(self.SPEC, cfg, rng).tau == 4 for _ in range(50))

    def test_reference_config_is_deterministic_length(self, config16):
        rng = np.random.default_rng(123)
        taus = {run_strategy(self.SPEC, config16, rng).tau for _ in range(20)}
        assert taus == {NB_FIXED_TAU_REFERENCE}

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("m", [2, 16])
    def test_error_rate_matches_closed_form(self, m, eps):
        # at a power-of-two M both halves of a window hold equal mass when
        # its level starts, so a level of r observations at variance v sends
        # a row into the wrong half with probability Q(sqrt(r/(4v))),
        # whichever half holds the target; a trial errs unless no level
        # does, and its tau is the sum of the levels' r
        cfg = new_config(m, 1, 0.25, eps)
        z = max(0.0, strat.gaussian_tail_inverse(eps / math.log2(m)))
        levels = [strat._level(cfg, z, 0, m >> depth)[1:3]
                  for depth in range(int(math.log2(m)))]
        exact = 1.0 - math.prod(1.0 - scipy.stats.norm.sf(math.sqrt(r / (4.0 * v)))
                                for r, v in levels)
        n = 20_000
        stats = run_trials(self.SPEC, cfg, n, 39)
        lo, hi = scipy.stats.binom.interval(0.999, n, exact)
        assert lo <= round(stats.err_rate * n) <= hi
        assert stats.mean_tau == sum(r for r, _ in levels)

    def test_repetitions_grow_with_noise(self):
        # fixed-length tau is a sum of per-level repetition counts, each
        # non-decreasing in the level's noise variance
        t_small = run_strategy(self.SPEC, new_config(16, 1, 0.25, 1e-4),
                               np.random.default_rng(0)).tau
        t_large = run_strategy(self.SPEC, new_config(16, 1, 0.5, 1e-4),
                               np.random.default_rng(0)).tau
        assert t_large >= t_small

    def test_slower_than_nonadaptive_at_small_noise(self):
        cfg = new_config(16, 1, 0.0625, 1e-4)
        rng = np.random.default_rng(707)
        nb = run_strategy(self.SPEC, cfg, rng).tau
        fc = np.mean([run_strategy(StrategySpec(FIXED_COMPOSITION), cfg, rng).tau
                      for _ in range(300)])
        assert nb > fc

    def test_level_repetitions_match_recorded_digest(self):
        # Q^{-1}(epsilon/log2 M) reaches a trial only through each level's
        # repetition count; pin the count of every window a fixed bisection
        # can visit over a grid of (M, sigma2, noise law, epsilon)
        def windows(lo, hi):
            if hi - lo > 1:
                mid = lo + (hi - lo + 1) // 2
                yield lo, hi
                yield from windows(lo, mid)
                yield from windows(mid, hi)

        reps = []
        for m in [*range(2, 34), 64, 100, 128, 255, 256, 1000, 1024]:
            spans = list(windows(0, m))
            for sigma2, noise, eps in itertools.product(
                    (1e-4, 0.01, 0.25, 1.0, 16.0, 100.0),
                    (NoiseModel.linear(), NoiseModel.power(0.5),
                     NoiseModel.power(2.0)),
                    (1e-6, 1e-3, 0.05, 0.5, 0.9)):
                cfg = new_config(m, 1, sigma2, eps, noise=noise)
                z = max(0.0, strat.gaussian_tail_inverse(eps / math.log2(m)))
                reps.extend(strat._level(cfg, z, lo, hi)[1] for lo, hi in spans)
        assert len(reps) == 301_320
        digest = hashlib.sha256(repr(reps).encode()).hexdigest()
        assert digest == LEVEL_REPS_DIGEST


class TestNoisyBinaryVariable:
    SPEC = StrategySpec(NOISY_BINARY_VARIABLE)

    def test_two_cells_noiseless_single_probe(self):
        cfg = noiseless(2)
        rng = np.random.default_rng(4)
        recs = [run_strategy(self.SPEC, cfg, rng) for _ in range(200)]
        assert all(r.tau == 1 for r in recs)
        assert all(r.success for r in recs)

    def test_noiseless_level_count_is_log2_m(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(5)
        assert all(run_strategy(self.SPEC, cfg, rng).tau == 4 for _ in range(50))

    def test_error_rate_within_budget(self):
        # per-level union bound targets eps overall; allow 1.5x at n=10^4
        cfg = new_config(16, 1, 0.25, 1e-2)
        stats = run_trials(self.SPEC, cfg, 10_000, 808)
        assert stats.err_rate <= 1.5 * cfg.epsilon


class TestExhaustive:
    SPEC = StrategySpec(EXHAUSTIVE)

    def test_single_cell_is_instant(self):
        rec = run_strategy(self.SPEC, new_config(1, 1, 0.25, 1e-4),
                           np.random.default_rng(0))
        assert rec.tau == 0 and rec.success

    def test_noiseless_single_pass_suffices(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(6)
        recs = [run_strategy(self.SPEC, cfg, rng) for _ in range(100)]
        assert all(r.tau <= 16 for r in recs)
        assert all(r.success for r in recs)

    def test_mean_grows_with_cell_count(self):
        rng = np.random.default_rng(909)
        means = []
        for m in (8, 16, 32):
            cfg = new_config(m, 1, 0.25, 1e-2)
            means.append(np.mean([run_strategy(self.SPEC, cfg, rng).tau
                                  for _ in range(300)]))
        assert means[0] < means[1] < means[2]

    def test_stops_at_posterior_threshold(self, config16):
        rng = np.random.default_rng(10)
        rec = run_strategy(self.SPEC, config16, rng)
        assert rec.final_max_prob >= (1 - 1e-4) * (1 - 1e-12)


class TestDispatcherAndLimits:
    def test_dispatcher_routes_every_kind(self, config16):
        rng = np.random.default_rng(12)
        for kind in KINDS:
            alpha = 0.25 if kind == TWO_STAGE else None
            rec = run_strategy(StrategySpec(kind, alpha), config16, rng)
            if kind == TWO_STAGE:
                assert rec.strategy_id == "two_stage(alpha=1/4)"
            else:
                assert rec.strategy_id == kind
            assert rec.tau >= 0

    def test_step_limit_guard(self, config16, monkeypatch):
        monkeypatch.setattr(strat, "STEP_LIMIT", 5)
        with pytest.raises(StepLimitExceeded):
            run_strategy(StrategySpec(FIXED_COMPOSITION), config16,
                         np.random.default_rng(0))

    @pytest.mark.parametrize("spec", [StrategySpec(FIXED_COMPOSITION),
                                      StrategySpec(EXHAUSTIVE),
                                      StrategySpec(TWO_STAGE, alpha=0.25)],
                             ids=lambda s: s.label())
    def test_lockstep_step_limit_names_lowest_live_trial(self, config16, spec,
                                                         monkeypatch):
        seeds = [trial_seed_for(1, i) for i in range(12)]
        recs = [run_strategy(spec, config16, np.random.default_rng(s))
                for s in seeds]
        # two_stage meets the limit in its first stage, a fixed_composition
        # search over the sections
        first = spec.kind == TWO_STAGE
        label = re.escape(f"{spec.label()} stage 1" if first else spec.kind)
        taus = [r.tau_stage1 if first else r.tau for r in recs]
        limit = taus[0]  # trial 0 finishes on the limit, as do trials below stuck
        stuck = next(i for i, t in enumerate(taus) if t > limit)
        assert stuck >= 2
        # inside a window of steps, so the window is cut short at the limit
        assert limit % strat.CHUNK != 0
        monkeypatch.setattr(strat, "STEP_LIMIT", limit)
        rngs = [np.random.default_rng(s) for s in seeds]
        with pytest.raises(StepLimitExceeded,
                           match=rf"^trial {100 + stuck}: {label} "
                                 rf"exceeded {limit} steps$"):
            run_rows(spec, config16, rngs, first_trial=100)
        with pytest.raises(StepLimitExceeded, match=rf"^trial {stuck}: "):
            run_trials(spec, config16, 12, 1)

    def test_two_stage_step_limit_names_its_second_stage(self, monkeypatch):
        config = new_config(16, 1, 0.5, 1e-4, noise=NoiseModel.power(0.5))
        spec = StrategySpec(TWO_STAGE, alpha=0.5)
        rec = run_strategy(spec, config, np.random.default_rng(trial_seed_for(5, 0)))
        limit = rec.tau_stage1  # stage 1 finishes on the limit, stage 2 exceeds it
        assert rec.tau - rec.tau_stage1 > limit
        monkeypatch.setattr(strat, "STEP_LIMIT", limit)
        with pytest.raises(StepLimitExceeded,
                           match=rf"^trial 0: {re.escape(spec.label())} stage 2 "
                                 rf"exceeded {limit} steps$"):
            run_trials(spec, config, 1, 5)

    @pytest.mark.parametrize("kind", [NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE])
    def test_lockstep_bisection_step_limit_names_lowest_live_trial(self, kind,
                                                                   monkeypatch):
        config = GOLDEN_CONFIGS["M12_power"]
        spec = StrategySpec(kind)
        seeds = [trial_seed_for(5, i) for i in range(12)]
        taus = [run_strategy(spec, config, np.random.default_rng(s)).tau
                for s in seeds]
        if kind == NOISY_BINARY_FIXED:
            # a fixed row takes 30 steps to a 3-cell window, and 6 more if
            # its target lies in the 2-cell half: trials 5 and 9 finish on
            # the limit, and trial 0, the lowest of the rest, passes it
            limit, lowest = min(taus), 0
        else:
            limit, lowest = taus[0], 2  # trials 0 and 1 finish
        stuck = next(i for i, t in enumerate(taus) if t > limit)
        assert stuck == lowest
        monkeypatch.setattr(strat, "STEP_LIMIT", limit)
        rngs = [np.random.default_rng(s) for s in seeds]
        with pytest.raises(StepLimitExceeded,
                           match=rf"^trial {100 + stuck}: {kind} "
                                 rf"exceeded {limit} steps$"):
            run_rows(spec, config, rngs, first_trial=100)
        with pytest.raises(StepLimitExceeded, match=rf"^trial {stuck}: {kind} "):
            run_trials(spec, config, 12, 5)

    @pytest.mark.parametrize("sigma2", [1e18, 1e307])
    def test_fixed_level_count_past_int64_raises_step_limit(self, sigma2):
        # the first level's ceil(4 v z^2) passes 2**63 (at 1e307 the float
        # overflows to inf), and the level is refused before it is observed
        config = new_config(16, 1, sigma2, 0.1)
        spec = StrategySpec(NOISY_BINARY_FIXED)
        rngs = [np.random.default_rng(trial_seed_for(1, i)) for i in range(2)]
        with pytest.raises(StepLimitExceeded,
                           match=rf"^trial 7: {NOISY_BINARY_FIXED} "
                                 rf"exceeded {strat.STEP_LIMIT} steps$"):
            run_rows(spec, config, rngs, first_trial=7)

    @pytest.mark.parametrize("spec", [StrategySpec(SORTED_PM),
                                      StrategySpec(FIXED_COMPOSITION),
                                      StrategySpec(EXHAUSTIVE),
                                      StrategySpec(TWO_STAGE, alpha=0.5),
                                      StrategySpec(NOISY_BINARY_VARIABLE)],
                             ids=lambda s: s.label())
    def test_unreachable_threshold_is_refused_before_any_draw(self, spec,
                                                               monkeypatch):
        # past the variance at which STEP_LIMIT steps of the largest ratio
        # can build the lead a stop needs, a batch is refused before any
        # draw; just short of it, it runs, here into the engine's own limit.
        # A sequential bisection's stop is its first level's test, on a
        # probe of 8 cells
        monkeypatch.setattr(strat, "STEP_LIMIT", 1000)
        probed, goal = ((8, "pass its first level")
                        if spec.kind == NOISY_BINARY_VARIABLE
                        else (1, "reach its threshold"))

        def refused(sigma2):
            try:
                strat._check_reachable(spec, new_config(16, 1, sigma2, 0.1))
            except StepLimitExceeded:
                return True
            return False

        lo, hi = 1.0, 1e12
        assert not refused(lo) and refused(hi)
        while hi > lo * (1.0 + 1e-9):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if refused(mid) else (mid, hi)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(StepLimitExceeded,
                           match=rf"^noise variance v\({probed}\) = .+ is too large: "
                                 rf"no trial can {goal} within 1000 steps$"):
            run_rows(spec, new_config(16, 1, hi, 0.1), [rng])
        assert rng.bit_generator.state == state
        with pytest.raises(StepLimitExceeded,
                           match=r"^trial 0: .+ exceeded 1000 steps$"):
            run_trials(spec, new_config(16, 1, lo, 0.1), 2, 0)

    def test_first_level_check_takes_the_least_epsilon(self):
        # eps/log2 M rounds to 0 at eps = 5e-324, and the first level's
        # test then ends on the floats' own resolution, at a finite lead
        spec = StrategySpec(NOISY_BINARY_VARIABLE)
        strat._check_reachable(spec, new_config(16, 1, 0.25, 5e-324))
        with pytest.raises(StepLimitExceeded, match="pass its first level"):
            strat._check_reachable(spec, new_config(16, 1, 1e300, 5e-324))

    def test_trial_seed_passthrough(self, config16):
        rec = run_strategy(StrategySpec(SORTED_PM), config16,
                           np.random.default_rng(1), trial_seed=42)
        assert rec.trial_seed == 42


# (tau, tau_stage1, success, final_max_prob.hex()) of trials
# trial_seed_for(GOLDEN_MASTER_SEED, 0..4), recorded from the per-strategy
# loops before they were folded into one search engine.  The
# fixed_composition and two_stage entries off M1 were recorded again when
# composition probe sets moved to a picks stream of their own, and the
# first M32_power fixed_composition trial, 2 ulps lower, when non-adaptive
# rows became running log-likelihood sums, and the fourth M32_power
# noisy_binary_fixed trial, 1 ulp lower, when every rule's did.  The
# noisy_binary_fixed entries at M16, M32_power, M12_power and M3, whose
# levels take r > 1 observations, were recorded again when a fixed level
# became one observation of their mean.
GOLDEN_MASTER_SEED = 2024
GOLDEN_CONFIGS = {
    "M1": new_config(1, 1, 0.25, 1e-4),
    "M16": new_config(16, 1, 0.25, 1e-4),
    "M32_power": new_config(32, 1, 0.05, 0.2, noise=NoiseModel.power(1.5)),
    # not a power of two: windows of one level differ in length across trials
    "M12_power": new_config(12, 1, 0.5, 0.2, noise=NoiseModel.power(0.5)),
    # a renormalized posterior reaches LOG_FLOOR_NATS here
    "M128_sigma1e-4": new_config(128, 1, 1e-4, 1e-4),
    # odd M: the first level's halves hold 2 and 1 cells
    "M3": new_config(3, 1, 0.25, 1e-4),
}
GOLDEN_SPECS = {spec.label(): spec for spec in
                [StrategySpec(kind) for kind in KINDS if kind != TWO_STAGE]
                + [StrategySpec(TWO_STAGE, alpha=1.0 / s) for s in (4, 8, 16)]}
TRIAL_GOLDEN = {
    **{("M1", kind): [(0, 0, True, "0x1.0000000000000p+0")] * 5
       for kind in KINDS if kind != TWO_STAGE},
    ("M16", "fixed_composition"): [
        (27, 0, True, "0x1.fff8e41a9b6b7p-1"),
        (69, 0, True, "0x1.fff8e50c52e7cp-1"),
        (60, 0, True, "0x1.ffff0ba190ee7p-1"),
        (103, 0, True, "0x1.fffcf963cdf5ap-1"),
        (56, 0, True, "0x1.ffffabd25ba26p-1"),
    ],
    ("M16", "sorted_pm"): [
        (16, 0, True, "0x1.fffae7b9ddd63p-1"),
        (19, 0, True, "0x1.fffa9b76048a7p-1"),
        (33, 0, True, "0x1.fffe970bb04dcp-1"),
        (9, 0, True, "0x1.ffff3679f9582p-1"),
        (14, 0, True, "0x1.fff37be1a3a19p-1"),
    ],
    ("M16", "noisy_binary_fixed"): [
        (248, 0, True, "0x1.fffffffffd8d8p-1"),
        (248, 0, True, "0x1.0000000000000p+0"),
        (248, 0, True, "0x1.fffffffcaeb1ep-1"),
        (248, 0, True, "0x1.fffffffffffa8p-1"),
        (248, 0, True, "0x1.ffffffffffff2p-1"),
    ],
    ("M16", "noisy_binary_variable"): [
        (93, 0, True, "0x1.fffb710c480adp-1"),
        (111, 0, True, "0x1.fffff921c44d9p-1"),
        (96, 0, True, "0x1.fffe3e072ac84p-1"),
        (122, 0, True, "0x1.fffd667980701p-1"),
        (65, 0, True, "0x1.ffffb793f4f66p-1"),
    ],
    ("M16", "exhaustive"): [
        (52, 0, True, "0x1.fffe489a1675ap-1"),
        (113, 0, True, "0x1.fff51dc72c04bp-1"),
        (65, 0, True, "0x1.fff41a4bf5593p-1"),
        (123, 0, True, "0x1.fff8e4ff7d21bp-1"),
        (91, 0, True, "0x1.fffc631c0f928p-1"),
    ],
    ("M16", "two_stage(alpha=1/4)"): [
        (37, 29, True, "0x1.ffff03876d1fdp-1"),
        (99, 88, True, "0x1.fffff2b6d0aa6p-1"),
        (53, 48, True, "0x1.fffb926dac4dap-1"),
        (67, 51, True, "0x1.fffabba114a9dp-1"),
        (46, 40, True, "0x1.fffa786c1e4cfp-1"),
    ],
    ("M16", "two_stage(alpha=1/16)"): [
        (28, 28, True, "0x1.fffa30d5f9736p-1"),
        (76, 76, True, "0x1.fffa6646b4738p-1"),
        (60, 60, True, "0x1.ffff0ba190ee7p-1"),
        (103, 103, True, "0x1.fffcf963cdf5ap-1"),
        (56, 56, True, "0x1.ffffabd25ba26p-1"),
    ],
    ("M32_power", "fixed_composition"): [
        (6, 0, True, "0x1.c31767c56b175p-1"),
        (23, 0, True, "0x1.fba56e0f50d50p-1"),
        (49, 0, True, "0x1.9c9a1640fdbc5p-1"),
        (74, 0, True, "0x1.c4f2feba9be0ap-1"),
        (7, 0, True, "0x1.be13f207029afp-1"),
    ],
    ("M32_power", "sorted_pm"): [
        (8, 0, True, "0x1.b95d2abceb4dcp-1"),
        (28, 0, True, "0x1.f7e9c32ce5667p-1"),
        (49, 0, True, "0x1.fe67c8b2f0898p-1"),
        (7, 0, True, "0x1.fc3fecac5c507p-1"),
        (10, 0, True, "0x1.f89dd80ed6476p-1"),
    ],
    ("M32_power", "noisy_binary_fixed"): [
        (62, 0, True, "0x1.fff98cdf4afc2p-1"),
        (62, 0, False, "0x1.94693b7dbb107p-4"),
        (62, 0, True, "0x1.1d34d738f0fdbp-1"),
        (62, 0, True, "0x1.fd16224b02f92p-1"),
        (62, 0, True, "0x1.fe81aa273d07ap-1"),
    ],
    ("M32_power", "noisy_binary_variable"): [
        (32, 0, True, "0x1.f31e3d825d72cp-1"),
        (39, 0, True, "0x1.ffdf1226bcb34p-1"),
        (46, 0, True, "0x1.f1173a647a361p-1"),
        (44, 0, False, "0x1.2b5a8e627de26p-1"),
        (23, 0, True, "0x1.fbd1945f18a3cp-1"),
    ],
    ("M32_power", "exhaustive"): [
        (7, 0, True, "0x1.f98c3475fe598p-1"),
        (1, 0, True, "0x1.ffffb79cc3ca6p-1"),
        (44, 0, True, "0x1.fffff08d48d0fp-1"),
        (22, 0, True, "0x1.ffff033583814p-1"),
        (22, 0, True, "0x1.fffe27cddeeecp-1"),
    ],
    ("M32_power", "two_stage(alpha=1/8)"): [
        (16, 14, True, "0x1.fffff44032940p-1"),
        (44, 42, True, "0x1.ffff2cdf3866dp-1"),
        (15, 13, True, "0x1.ef4041c91915cp-1"),
        (45, 43, True, "0x1.e941c1699c7b1p-1"),
        (25, 22, True, "0x1.ffff83e53ddb2p-1"),
    ],
    # recorded from the per-trial bisection loops before they joined the
    # lockstep engine
    ("M12_power", "noisy_binary_fixed"): [
        (30, 0, True, "0x1.e85b696ab336ap-1"),
        (30, 0, False, "0x1.6d1c2dee77911p-2"),
        (36, 0, True, "0x1.8bc0cc22c66b9p-1"),
        (30, 0, True, "0x1.db28a36b5e3dfp-1"),
        (30, 0, True, "0x1.32d490cd2bb70p-1"),
    ],
    ("M12_power", "noisy_binary_variable"): [
        (8, 0, True, "0x1.ac06a46323acap-1"),
        (24, 0, True, "0x1.ed93e08303e69p-1"),
        (32, 0, True, "0x1.de5a77129c7c4p-1"),
        (34, 0, False, "0x1.bb5de3a038aecp-1"),
        (13, 0, True, "0x1.e5aeaded499c1p-1"),
    ],
    # recorded from the bisection engine that tracked half-mass ratios,
    # before the halves were read from one cell each
    ("M128_sigma1e-4", "noisy_binary_fixed"): [(7, 0, True, "0x1.0000000000000p+0")] * 5,
    ("M128_sigma1e-4", "noisy_binary_variable"): [(7, 0, True, "0x1.0000000000000p+0")] * 5,
    ("M3", "noisy_binary_fixed"): [
        (45, 0, True, "0x1.0000000000000p+0"),
        (45, 0, True, "0x1.fffffd296c766p-1"),
        (45, 0, True, "0x1.ffffffffff870p-1"),
        (30, 0, True, "0x1.0000000000000p+0"),
        (30, 0, True, "0x1.ffffffffffc06p-1"),
    ],
    ("M3", "noisy_binary_variable"): [
        (16, 0, True, "0x1.ffff96c8c5677p-1"),
        (18, 0, True, "0x1.fff94f8e46773p-1"),
        (21, 0, True, "0x1.fff7e9d2843a0p-1"),
        (14, 0, True, "0x1.fffdc4d1553bcp-1"),
        (6, 0, True, "0x1.fffc7768fda3dp-1"),
    ],
}

# SHA-256 of repr([(tau, tau_stage1, success, final_max_prob.hex()), ...])
# over trials trial_seed_for(GOLDEN_MASTER_SEED, 0..199), run one at a
# time, recorded from the second lockstep loop that ran both bisection
# kinds before they became a rule of the one search engine; the configs are
# LOCKSTEP_CONFIGS entries.  The M12_power and M4_eps0.9 digests were
# recorded again when bisection rows became running log-likelihood sums:
# final_max_prob moved by at most 8 ulps, and nothing else.  The
# noisy_binary_fixed digests at M12_power and M16 were recorded again when a
# fixed level became one observation of the mean of its r; at
# M128_sigma1e-4 and M4_eps0.9 every level takes r = 1, and they held.
BISECTION_DIGESTS = {
    ("M12_power", NOISY_BINARY_FIXED):
        "88ccc4a0a568f1d9fc85ef78160fddee96c5243105896bd7b9981cd01198a766",
    ("M12_power", NOISY_BINARY_VARIABLE):
        "3b87bc1faec5d60de9147e352fb8b057bc3fe0330e857b4eb41d632e57167642",
    ("M128_sigma1e-4", NOISY_BINARY_FIXED):
        "0f817f67062b218730745696a4210fe714b9f00ee63845caee0d3a6fd7f7b4c5",
    ("M128_sigma1e-4", NOISY_BINARY_VARIABLE):
        "0f817f67062b218730745696a4210fe714b9f00ee63845caee0d3a6fd7f7b4c5",
    ("M4_eps0.9", NOISY_BINARY_FIXED):
        "8b457572a6a8c53a59e77b1048f598740fb21a634a68ef2da72138c5aea7731c",
    ("M4_eps0.9", NOISY_BINARY_VARIABLE):
        "0a8340f0fddecda88344460b4452887b48babe9237b70974a2a178684442556b",
    ("M16", NOISY_BINARY_FIXED):
        "643c4049fdc715d3afb1958a8fe261a4e4f019c5a602f3b57675c61bed5e409a",
    ("M16", NOISY_BINARY_VARIABLE):
        "4e4dec5a4f6eff7486c0108843c6d79e89733248e5ea3a8ccf33a511b12c3ddb",
}
# The same digests for the kinds that draw only a target and normals,
# recorded while every row drew one normal per step.
NORMALS_DIGESTS = {
    ("M16", SORTED_PM):
        "94912182f05645c9c8b963b7166bfc3ac144a708dcf8eceffdef66a13e312a0a",
    ("M16", EXHAUSTIVE):
        "e606879a33064dae3de2ba2a47c401f973a629e83406814632dec2b3938f50e7",
    ("M128", SORTED_PM):
        "191b063b0db5d900b792b684c6af050e9f2da95d6eefe58715e946c4c65e2b1c",
    ("M128", EXHAUSTIVE):
        "4524f926aee662536d8cfb392091d46aed5985bab21370913bb000599e412e7b",
    ("M32_power", SORTED_PM):
        "8a44d3e91624caa0e830c2c768d35534fc84f4ee69472b4cb9552c740417e553",
    ("M32_power", EXHAUSTIVE):
        "fea50654c3d959a8af7cb84eae8d58e592e29cc21ced3fac1de4a280e064aa5d",
    ("M128_sigma1e-4", SORTED_PM):
        "0f817f67062b218730745696a4210fe714b9f00ee63845caee0d3a6fd7f7b4c5",
    ("M128_sigma1e-4", EXHAUSTIVE):
        "7fdb2842c752e211991368b8d163832ea3f535d31b1ab376e5c523f3979da505",
}


def digest_of_trials(spec, config):
    """SHA-256 of the records of trials trial_seed_for(GOLDEN_MASTER_SEED,
    0..199), each run alone."""
    got = []
    for i in range(200):
        seed = trial_seed_for(GOLDEN_MASTER_SEED, i)
        rec = run_strategy(spec, config, np.random.default_rng(seed), seed)
        got.append((rec.tau, rec.tau_stage1, rec.success,
                    float(rec.final_max_prob).hex()))
    return hashlib.sha256(repr(got).encode()).hexdigest()


class TestTrialGolden:
    @pytest.mark.parametrize("case, label", list(TRIAL_GOLDEN),
                             ids=[f"{c}-{lab}" for c, lab in TRIAL_GOLDEN])
    def test_trials_match_recorded_stream(self, case, label):
        spec = GOLDEN_SPECS[label]
        got = []
        for i in range(5):
            seed = trial_seed_for(GOLDEN_MASTER_SEED, i)
            rec = run_strategy(spec, GOLDEN_CONFIGS[case],
                               np.random.default_rng(seed), seed)
            assert rec.strategy_id == label and rec.trial_seed == seed
            got.append((rec.tau, rec.tau_stage1, rec.success,
                        float(rec.final_max_prob).hex()))
        assert got == TRIAL_GOLDEN[case, label]

    @pytest.mark.parametrize("case, label", list(TRIAL_GOLDEN),
                             ids=[f"{c}-{lab}" for c, lab in TRIAL_GOLDEN])
    def test_block_matches_recorded_stream(self, case, label):
        # the five trials as one run_rows block: rows retire at their own
        # taus, so the last one runs its tail as the block's only row
        rngs = [np.random.default_rng(trial_seed_for(GOLDEN_MASTER_SEED, i))
                for i in range(5)]
        got = TestLockstepRows.as_tuples(
            *run_rows(GOLDEN_SPECS[label], GOLDEN_CONFIGS[case], rngs))
        assert got == TRIAL_GOLDEN[case, label]

    @pytest.mark.parametrize("case, kind", list(BISECTION_DIGESTS),
                             ids=[f"{c}-{k}" for c, k in BISECTION_DIGESTS])
    def test_bisection_trials_match_recorded_digest(self, case, kind):
        digest = digest_of_trials(StrategySpec(kind), LOCKSTEP_CONFIGS[case])
        assert digest == BISECTION_DIGESTS[case, kind]

    @pytest.mark.parametrize("case, kind", list(NORMALS_DIGESTS),
                             ids=[f"{c}-{k}" for c, k in NORMALS_DIGESTS])
    def test_normals_only_trials_match_recorded_digest(self, case, kind):
        digest = digest_of_trials(StrategySpec(kind), LOCKSTEP_CONFIGS[case])
        assert digest == NORMALS_DIGESTS[case, kind]


# Lockstep blocks against the batch of one: every row of run_rows must be
# the record run_strategy gives for that row's generator alone.
LOCKSTEP_CONFIGS = {
    "M1": new_config(1, 1, 0.25, 1e-4),
    "M2": new_config(2, 1, 0.25, 1e-4),
    "M16": new_config(16, 1, 0.25, 1e-4),
    "M128": new_config(128, 1, 0.25, 1e-4),
    "M32_power": new_config(32, 1, 0.05, 1e-3, noise=NoiseModel.power(1.5)),
    "M16_eps0.2": new_config(16, 1, 0.5, 0.2),
    # rows of one bisection level hold windows of different lengths
    "M12_power": GOLDEN_CONFIGS["M12_power"],
    # a renormalized posterior reaches LOG_FLOOR_NATS here
    "M128_sigma1e-4": GOLDEN_CONFIGS["M128_sigma1e-4"],
    # eps/log2 M = 0.45: most sequential levels end after one observation
    "M4_eps0.9": new_config(4, 1, 0.1, 0.9),
}
LOCKSTEP_CASES = (
    [(c, StrategySpec(kind)) for c in LOCKSTEP_CONFIGS
     for kind in KINDS if kind != TWO_STAGE]
    + [(c, StrategySpec(TWO_STAGE, alpha=alpha))
       for c, alpha in (("M16", 0.25), ("M16", 1 / 16), ("M32_power", 0.25),
                        ("M32_power", 1 / 32), ("M16_eps0.2", 0.25),
                        ("M16_eps0.2", 1 / 16))])

# The LOCKSTEP_CONFIGS entries at which a renormalized row may reach
# LOG_FLOOR_NATS: there the clamp may tie cells that the running sums keep
# apart, so a renormalizing search may take another path.
FLOORED = {"M128_sigma1e-4"}
# The most final_max_prob may move, in ulps, between the running sums and
# the renormalizing reference: each renormalization rounds every cell.
REFERENCE_ULPS = 32


def renormalize(lp, floored):
    """Shift each row of lp to a zero max, clamp at LOG_FLOOR_NATS and
    normalize, in place; returns the normalizer each row was divided by,
    and appends to floored whether the clamp moved a cell."""
    lp -= lp.max(axis=1, keepdims=True)
    floored.append(bool((lp < inference.LOG_FLOOR_NATS).any()))
    np.maximum(lp, inference.LOG_FLOOR_NATS, out=lp)
    s = np.exp(lp).sum(axis=1)
    lp -= np.array([math.log(x) for x in s.tolist()])[:, None]
    return s


def renormalizing_add(lp, masks, llr, limit, floored):
    """Add each row's ratio llr (rows,) on its mask, renormalize the block
    and test the stop; returns the normalizers and which rows stop."""
    np.add(lp, llr[:, None], out=lp, where=masks)
    s = renormalize(lp, floored)
    return s, s <= limit


def renormalizing_fold(floored, calls):
    """inference.fold_step that renormalizes the block after each step, as
    every rule's rows once were, with each row's ratio taken as the
    observation model reads; appends the rows of each call to calls."""
    def fold(lp, masks, hits, on_grid, z, noise, limit):
        calls.append(lp.shape[0])
        rows = np.arange(lp.shape[0])
        hit = masks[rows, hits - rows * lp.shape[1]]
        if on_grid is not None:
            hit &= on_grid
        sd, twice_v = noise
        s, done = renormalizing_add(lp, masks, (2.0 * (hit + sd * z) - 1.0) / twice_v,
                                    limit, floored)
        weights = np.exp(lp - lp.max(axis=1, keepdims=True))
        if not done.any():
            return None, None, None, weights
        return done, s[done], lp[done].argmax(axis=1), weights
    return fold


def renormalizing_window(floored):
    """inference.fold_sums for windows of one step of cells that
    renormalizes the block after each step."""
    def fold(lp, cells, llr, limit):
        masks = np.zeros(lp.shape, dtype=bool)
        masks[np.arange(lp.shape[0])[:, None], cells[:, 0]] = True
        s, done = renormalizing_add(lp, masks, llr[0], limit, floored)
        return done, np.ones(done.sum(), dtype=np.int64), s[done], lp[done].argmax(axis=1)
    return fold


def stepwise_bisection(floored=None):
    """A maker of the bisection rule that takes one observation, or one
    fixed level, a step and settles every row after it, as the rule ran
    before its sequential levels took windows: the reference for the
    windowed rule.  With floored, the block is renormalized before each
    test, as every rule's rows once were, and whether the clamp moved a
    cell is appended to it."""
    def make(config, fixed, n):
        m = config.M
        if m == 1:  # no row starts
            return None, None
        share = config.epsilon / math.log2(m)
        z = max(0.0, strat.gaussian_tail_inverse(share)) if fixed else None
        log_thresh = -math.inf if fixed else math.log1p(-min(share, 0.5))
        windows = np.array([[0, m]] * n)  # each live row's [lo, hi)
        cols = np.arange(m)

        def level():
            """Each row's probed set, repetitions, variance and half sizes."""
            lo = windows[:, 0]
            mid, reps, v, log_h1, log_h2 = np.array(
                [strat._level(config, z, a, b) for a, b in windows.tolist()]).T
            mid = mid.astype(np.int64)
            masks = (cols >= lo[:, None]) & (cols < mid[:, None])
            return masks, reps.astype(np.int64) if fixed else None, v, (lo, mid, log_h1, log_h2)

        def probe(weights, step, draws):
            masks, reps, v, _ = level()
            return masks[:, None], v, reps

        def settle(lp, hit_cell, w, draws):
            nonlocal windows
            assert w == 1
            masks, reps, v, (lo, mid, log_h1, log_h2) = level()
            at = np.arange(lo.size)
            # a fixed level observes the mean of its r at variance v/r
            llr = strat.observe(masks[at, hit_cell][None],
                                strat.probe_noise(v if reps is None else v / reps),
                                draws)
            np.add(lp, llr[0, :, None], out=lp, where=masks)
            if floored is not None:
                renormalize(lp, floored)
            first = lp[at, lo] + log_h1
            second = lp[at, mid] + log_h2
            ends = np.maximum(first, second) - np.logaddexp(first, second) >= log_thresh
            to_first = first >= second
            lo = np.where(ends & ~to_first, mid, lo)
            hi = np.where(ends & to_first, mid, windows[:, 1])
            done = hi - lo == 1
            windows = np.stack([lo, hi], axis=1)[~done]
            return done, 1
        return probe, settle
    return make


CHUNK_CASES = ([StrategySpec(kind) for kind in KINDS if kind != TWO_STAGE]
               + [StrategySpec(TWO_STAGE, alpha=alpha) for alpha in (0.25, 1 / 16)])


class TestLockstepRows:
    N = 50

    @staticmethod
    def as_tuples(tau, tau1, success, pmax):
        return [(int(t), int(t1), bool(ok), float(p).hex())
                for t, t1, ok, p in zip(tau, tau1, success, pmax)]

    @pytest.mark.parametrize("case, spec", LOCKSTEP_CASES,
                             ids=[f"{c}-{s.label()}" for c, s in LOCKSTEP_CASES])
    def test_rows_match_single_trials(self, case, spec):
        config = LOCKSTEP_CONFIGS[case]
        seeds = [trial_seed_for(515, i) for i in range(self.N)]
        got = self.as_tuples(*run_rows(spec, config,
                                       [np.random.default_rng(s) for s in seeds]))
        want = []
        for seed in seeds:
            rec = run_strategy(spec, config, np.random.default_rng(seed), seed)
            want.append((rec.tau, rec.tau_stage1, rec.success,
                         float(rec.final_max_prob).hex()))
        assert got == want

    @pytest.mark.parametrize("spec", CHUNK_CASES,
                             ids=[s.label() for s in CHUNK_CASES])
    def test_records_do_not_depend_on_chunk(self, spec, monkeypatch):
        config = LOCKSTEP_CONFIGS["M16"]
        pickers = []

        class Recorded(strat.Draws):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pickers.extend(self.pickers)

        monkeypatch.setattr(strat, "Draws", Recorded)

        def run():
            """The records, and every trial and picks stream's state after
            the batch."""
            pickers.clear()
            rngs = [np.random.default_rng(trial_seed_for(515, i))
                    for i in range(self.N)]
            records = self.as_tuples(*run_rows(spec, config, rngs))
            return records, [g.bit_generator.state for g in rngs + pickers]

        chunk = strat.CHUNK
        window = Recorded.window
        widths = []

        def recorded_window(draws, cells):
            widths.append(window(draws, cells))
            return widths[-1]

        monkeypatch.setattr(Recorded, "window", recorded_window)
        chunked, states = run()
        # rows retire mid-chunk, and some only after their first chunk
        taus = [tau for tau, *_ in chunked]
        assert any(t % chunk for t in taus) and max(taus) > chunk
        # a non-adaptive rule and sequential bisection take windows of many
        # steps; sorted-PM and fixed levels take one step at a time and
        # never size a window
        assert max(widths, default=1) > 1 or spec.kind in (
            SORTED_PM, NOISY_BINARY_FIXED)
        # windows of one step make the same draws: the same records, and
        # every stream ends in the same state
        monkeypatch.setattr(Recorded, "window",
                            lambda draws, cells: min(1, window(draws, cells)))
        assert run() == (chunked, states)
        # a non-adaptive window screened and folded in tiles of one row, or
        # in one tile of the whole block, gives the same records and draws
        monkeypatch.setattr(Recorded, "window", window)
        for cells in (1, 1 << 40):
            monkeypatch.setattr(inference, "TILE_CELLS", cells)
            monkeypatch.setattr(inference, "LOUD_CELLS", cells)
            assert run() == (chunked, states)
        # chunks of one step give the same records; a chunk draws ahead, so
        # the stream states differ
        monkeypatch.setattr(strat, "CHUNK", 1)
        assert run()[0] == chunked

    @pytest.mark.parametrize("case, spec", LOCKSTEP_CASES,
                             ids=[f"{c}-{s.label()}" for c, s in LOCKSTEP_CASES])
    def test_running_sums_match_renormalizing_reference(self, case, spec,
                                                         monkeypatch):
        config = LOCKSTEP_CONFIGS[case]

        def run():
            rngs = [np.random.default_rng(trial_seed_for(515, i))
                    for i in range(self.N)]
            return run_rows(spec, config, rngs)

        tau, tau1, success, pmax = run()
        # the reference: every step of every rule folded in and
        # renormalized, one step a window
        floored, calls = [], []
        monkeypatch.setattr(strat, "fold_step", renormalizing_fold(floored, calls))
        monkeypatch.setattr(strat, "fold_sums", renormalizing_window(floored))
        monkeypatch.setattr(strat, "_bisection_rule", stepwise_bisection(floored))
        window = strat.Draws.window
        monkeypatch.setattr(strat.Draws, "window",
                            lambda draws, cells: min(1, window(draws, cells)))
        ref_tau, ref_tau1, ref_success, ref_pmax = run()
        # sorted-PM, alone or as a second stage, folded every step of the
        # block through the reference (none where the prior or stage 1
        # leaves it no step to take), and no other rule did
        if spec.kind in (SORTED_PM, TWO_STAGE):
            assert len(calls) == (ref_tau - ref_tau1).max()
        else:
            assert not calls
        assert not any(floored) or case in FLOORED
        if any(floored):
            # the paths may part: they must agree in distribution
            for got, ref in ((tau, ref_tau), (success, ref_success)):
                got, ref = got.astype(float), ref.astype(float)
                spread = math.hypot(got.std(), ref.std()) / math.sqrt(self.N)
                assert abs(got.mean() - ref.mean()) <= 3 * spread
            same = ((tau == ref_tau) & (tau1 == ref_tau1)
                    & (success == ref_success))
        else:
            assert tau.tolist() == ref_tau.tolist()
            assert tau1.tolist() == ref_tau1.tolist()
            assert success.tolist() == ref_success.tolist()
            same = np.ones(self.N, dtype=bool)
        # both are positive floats, so their bit patterns count ulps
        ulps = np.abs(pmax.view(np.int64) - ref_pmax.view(np.int64))[same]
        assert ulps.max(initial=0) <= REFERENCE_ULPS

    @pytest.mark.parametrize("config", [
        LOCKSTEP_CONFIGS["M128"],
        new_config(16, 1, 0.0625, 1e-4),  # fig4's k = 3 point
        new_config(1, 0.125, 0.25, 1e-4),  # fig6's k = 3 point, M=8
    ], ids=["M128", "M16_k3", "M8_k3"])
    def test_full_block_peak_memory(self, config):
        # a full simulation block; the limit is the peak measured at M=128
        # once pick_cells dropped each temporary after its last use and
        # Draws dropped a spent chunk of picks before drawing the next
        rngs = [np.random.default_rng(trial_seed_for(515, i))
                for i in range(min(BLOCK_ROWS, BLOCK_CELLS // config.M))]
        tracemalloc.start()
        try:
            run_rows(StrategySpec(FIXED_COMPOSITION), config, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.31 * 2 ** 20

    def test_quiet_rows_take_no_normalizer(self, monkeypatch):
        # most rows of a fixed-composition window at M=128 cannot stop in
        # it: the fold's screen spares them every step's normalizer
        taken = [0]
        normalizers = inference.normalizers

        def counted(sums, weights=None):
            taken[0] += sums.size // sums.shape[-1]  # row-steps
            return normalizers(sums, weights)

        monkeypatch.setattr(inference, "normalizers", counted)
        rngs = [np.random.default_rng(trial_seed_for(515, i)) for i in range(20)]
        tau, *_ = run_rows(StrategySpec(FIXED_COMPOSITION), LOCKSTEP_CONFIGS["M128"],
                           rngs)
        assert 0 < taken[0] < 0.3 * tau.sum()

    def test_loose_epsilon_cases_include_failures(self):
        config = LOCKSTEP_CONFIGS["M16_eps0.2"]
        rngs = [np.random.default_rng(trial_seed_for(515, i)) for i in range(self.N)]
        _, _, success, _ = run_rows(StrategySpec(FIXED_COMPOSITION), config, rngs)
        assert 0 < success.sum() < self.N

    @pytest.mark.parametrize("kind", [NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE])
    def test_unequal_window_case_includes_failures(self, kind):
        config = LOCKSTEP_CONFIGS["M12_power"]
        rngs = [np.random.default_rng(trial_seed_for(515, i)) for i in range(self.N)]
        tau, _, success, _ = run_rows(StrategySpec(kind), config, rngs)
        assert 0 < success.sum() < self.N
        # rows took different paths through windows of unequal length
        assert len(set(tau.tolist())) > 1


READER_KINDS = (SORTED_PM, FIXED_COMPOSITION, EXHAUSTIVE)


def searched(kind, config, reader=None, max_window=None, n=20):
    """_search's (steps, MAP cell, final max probability) of n rows under a
    threshold kind's rule, drawn as run_rows draws them, read by reader."""
    rngs = [np.random.default_rng(trial_seed_for(515, i)) for i in range(n)]
    draws = strat.Draws(rngs, picks=kind == FIXED_COMPOSITION, max_window=max_window)
    targets = strat.draw_targets(draws.gens, config.M)
    return strat._search(config.M, strat.probe_rule(kind, config), targets,
                         config.epsilon, draws, kind, None, reader)


def records(result):
    steps, cells, pmax = result
    return steps.tolist(), cells.tolist(), [p.hex() for p in pmax.tolist()]


class TestSearchReader:
    @pytest.mark.parametrize("case", ["M16", "M128"])
    @pytest.mark.parametrize("kind", READER_KINDS)
    def test_reader_that_retires_nothing_changes_no_record(self, kind, case):
        config = LOCKSTEP_CONFIGS[case]
        calls = []

        def reader(live, lp, weights):
            # a step of masks leaves its weights; a window of cells none
            if kind == SORTED_PM:
                assert np.array_equal(weights, np.exp(lp - lp.max(axis=1, keepdims=True)))
            else:
                assert weights is None
            calls.append(live.tolist())
            return np.zeros(live.size, dtype=bool)

        plain = searched(kind, config)
        assert records(searched(kind, config, reader)) == records(plain)
        # called after every fold with the rows still live: a step of masks
        # at a time, so as many calls as the longest row's steps
        assert calls[0] == list(range(20))
        assert all(set(b) <= set(a) for a, b in zip(calls, calls[1:]))
        if kind == SORTED_PM:
            assert len(calls) == plain[0].max()
        else:
            assert len(calls) < plain[0].max()

    # (kind, max_window, whether the rule stops a row in the window of the
    # retire): a retire alone needs a first window in which no row stops
    @pytest.mark.parametrize("kind, window, with_a_stop", [
        (SORTED_PM, None, False), (SORTED_PM, None, True),
        (FIXED_COMPOSITION, 1, False), (FIXED_COMPOSITION, 1, True),
        (FIXED_COMPOSITION, None, True),
        (EXHAUSTIVE, 1, False), (EXHAUSTIVE, 1, True), (EXHAUSTIVE, None, True)])
    def test_retired_row_takes_the_record_of_its_sums(self, kind, window,
                                                      with_a_stop, monkeypatch):
        config = LOCKSTEP_CONFIGS["M16"]
        widths = []  # the steps of each window of cells folded
        fold_sums = strat.fold_sums

        def recorded(sums, cells, llr, limit):
            widths.append(cells.shape[1])
            return fold_sums(sums, cells, llr, limit)

        monkeypatch.setattr(strat, "fold_sums", recorded)
        plain = records(searched(kind, config, max_window=window))
        steps = plain[0]
        # r is cut after the first window, or after the window in which q
        # stops on its own
        q, r = int(np.argmin(steps)), int(np.argmax(steps))
        cut = steps[q] if with_a_stop else 1
        widths.clear()
        calls, seen = [], {}

        def reader(live, lp, weights):
            calls.append(live.size)
            t = sum(widths) if widths else len(calls)  # the steps folded
            at_r = live == r
            if t < cut or not at_r.any():
                return None
            seen["t"], seen["w"], seen["sums"] = (t, widths[-1] if widths else 1,
                                                  lp[at_r][0].copy())
            return at_r

        got = records(searched(kind, config, reader, max_window=window))
        t, sums = seen["t"], seen["sums"]
        assert t < steps[r]
        if with_a_stop:
            assert t - seen["w"] < steps[q] <= t
        else:
            assert min(steps) > t
        want = tuple(list(field) for field in plain)
        norm = inference.normalizers(sums[None])[0]
        want[0][r], want[1][r], want[2][r] = (t, int(sums.argmax()),
                                              math.exp(-math.log(norm)).hex())
        assert got == want


class TestFixedLevelDraws:
    @pytest.mark.parametrize("case", ["M16", "M12_power", "M3"])
    def test_lone_trial_draws_one_chunk_of_normals(self, case):
        # a fixed level reads one normal a row from the chunk, whatever its
        # r, so a trial's few levels draw one chunk after the target, even
        # at M16, whose 248 observations are four levels
        config = GOLDEN_CONFIGS[case]
        seed = trial_seed_for(GOLDEN_MASTER_SEED, 0)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        run_strategy(StrategySpec(NOISY_BINARY_FIXED), config, rng)
        twin.integers(config.M)
        twin.standard_normal(strat.CHUNK)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_large_fixed_level_peak_memory(self):
        # noisy_binary_fixed at sigma2 = 100 takes about 5.3e4 observations
        # a row at its first level: their normals for 64 rows would hold
        # about 27 MB, but a level reads one normal of their mean a row, and
        # the peak measured was 0.085 MiB
        rngs = [np.random.default_rng(trial_seed_for(515, i)) for i in range(64)]
        tracemalloc.start()
        try:
            run_rows(StrategySpec(NOISY_BINARY_FIXED), new_config(16, 1, 100.0, 1e-4),
                     rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 2 ** 20


# Bisection configs for the windowed rule against the stepwise reference:
# every level of M=2 ends in one cell; odd M gives rows windows of unequal
# length; at M3_eps0.9 the share eps/log2 M is past 1/2, so every level
# passes its test at its first observation; M12_power and M32_power have
# power noise.
WINDOW_CONFIGS = {
    "M2": LOCKSTEP_CONFIGS["M2"],
    "M3_eps0.9": new_config(3, 1, 0.1, 0.9),
    "M4_eps0.9": LOCKSTEP_CONFIGS["M4_eps0.9"],
    "M12_power": LOCKSTEP_CONFIGS["M12_power"],
    "M32_power": LOCKSTEP_CONFIGS["M32_power"],
    "M128": LOCKSTEP_CONFIGS["M128"],
}


class TestWindowedBisection:
    N = 50

    @staticmethod
    def run(kind, config, seeds):
        """The records of a run_rows block, and every generator's state
        after it."""
        rngs = [np.random.default_rng(s) for s in seeds]
        records = TestLockstepRows.as_tuples(*run_rows(StrategySpec(kind), config, rngs))
        return records, [g.bit_generator.state for g in rngs]

    @pytest.mark.parametrize("rows", [1, N], ids=["lone_row", "block"])
    @pytest.mark.parametrize("kind", [NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE])
    @pytest.mark.parametrize("case", list(WINDOW_CONFIGS))
    def test_windows_match_stepwise_rule(self, case, kind, rows, monkeypatch):
        config = WINDOW_CONFIGS[case]
        seeds = [trial_seed_for(515, i) for i in range(rows)]
        windowed = self.run(kind, config, seeds)
        if kind == NOISY_BINARY_VARIABLE and config.epsilon / math.log2(config.M) >= 0.5:
            # one observation a level
            assert all(tau <= math.ceil(math.log2(config.M)) for tau, *_ in windowed[0])
        monkeypatch.setattr(strat, "_bisection_rule", stepwise_bisection())
        assert self.run(kind, config, seeds) == windowed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, N], ids=["lone_row", "block"])
    def test_fixed_level_at_subnormal_variance_adds_on_its_mask(self, rows):
        # at sigma2 = 1e-309 a level's ratio overflows to +-inf; added on
        # the mask alone, the probed cell holds +-inf and the other 0.0, so
        # at M = 2 every row takes its target's cell in its one level
        # (mask * inf would put NaN on the other cell and send a row whose
        # ratio is +inf to it)
        config = new_config(2, 1, 1e-309, 1e-4)
        records, _ = self.run(NOISY_BINARY_FIXED, config,
                              [trial_seed_for(515, i) for i in range(rows)])
        assert [(tau, ok) for tau, _, ok, _ in records] == [(1, True)] * rows

    @pytest.mark.parametrize("kind", [NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE])
    def test_step_limit_inside_a_window_matches_stepwise_rule(self, kind,
                                                              monkeypatch):
        config = WINDOW_CONFIGS["M12_power"]
        seeds = [trial_seed_for(5, i) for i in range(12)]
        taus = sorted(tau for tau, *_ in self.run(kind, config, seeds)[0])
        # the limit falls inside a window: at the longest trial, which
        # every row meets, and below it, which a row exceeds
        for limit in (taus[-1], taus[len(taus) // 2]):
            assert limit % strat.CHUNK != 0
            monkeypatch.setattr(strat, "STEP_LIMIT", limit)
            outcomes = []
            for make in (strat._bisection_rule, stepwise_bisection()):
                monkeypatch.setattr(strat, "_bisection_rule", make)
                try:
                    outcomes.append(self.run(kind, config, seeds))
                except StepLimitExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert isinstance(outcomes[0], str) == (limit < taus[-1])
