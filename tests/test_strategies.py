"""Probe rules and full strategy runners."""

import itertools
import math

import numpy as np
import pytest

import searchlab.strategies as strat
from searchlab.errors import InvalidAlpha, StepLimitExceeded
from searchlab.model import NoiseModel, new_config
from searchlab.sim import run_trials, trial_seed_for
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
    run_exhaustive,
    run_fixed_composition,
    run_noisy_binary_fixed,
    run_noisy_binary_variable,
    run_rows,
    run_sorted_pm,
    run_strategy,
    run_two_stage,
    sorted_pm_mask,
)

NB_FIXED_TAU_REFERENCE = 248  # deterministic at B=16, delta=1, sigma2=0.25, eps=1e-4


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

    def test_rows_match_single_posteriors(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 5, 16, 64):
            probs = rng.dirichlet(np.ones(m), 40)
            probs[::3, : m // 2] = 1.0 / m  # ties inside rows
            masks, ks = sorted_pm_mask(probs)
            for row, mask, k in zip(probs, masks, ks):
                want_mask, want_k = sorted_pm_mask(row)
                assert np.array_equal(mask, want_mask) and k == want_k

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
    def test_single_section_is_instant(self, config16):
        rec = run_fixed_composition(config16, 1, 1e-4, np.random.default_rng(0))
        assert rec.tau == 0 and rec.success

    def test_noiseless_mean_near_information_limit(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(404)
        taus = [run_fixed_composition(cfg, 16, 1e-4, rng).tau for _ in range(1000)]
        assert 4.0 <= np.mean(taus) <= 6.0

    def test_grid_must_divide_m(self, config16):
        with pytest.raises(ValueError):
            run_fixed_composition(config16, 5, 1e-4, np.random.default_rng(0))

    def test_stops_at_posterior_threshold(self, config16):
        rng = np.random.default_rng(8)
        for _ in range(25):
            rec = run_fixed_composition(config16, 16, 1e-4, rng)
            assert rec.final_max_prob >= (1 - 1e-4) * (1 - 1e-12)


class TestSortedPM:
    def test_single_cell_window_is_instant(self, config16):
        rec = run_sorted_pm(config16, range(3, 4), 1e-4, np.random.default_rng(0))
        assert rec.tau == 0 and rec.success

    def test_noiseless_mean_near_information_limit(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(505)
        taus = [run_sorted_pm(cfg, range(16), 1e-4, rng).tau for _ in range(1000)]
        assert 4.0 <= np.mean(taus) <= 6.0

    def test_invalid_windows_rejected(self, config16):
        for window in (range(0, 17), range(-1, 4), range(0, 16, 2), range(4, 4)):
            with pytest.raises(ValueError):
                run_sorted_pm(config16, window, 1e-4, np.random.default_rng(0))

    def test_stops_at_posterior_threshold(self, config16):
        rng = np.random.default_rng(9)
        for _ in range(25):
            rec = run_sorted_pm(config16, range(16), 1e-4, rng)
            assert rec.final_max_prob >= (1 - 1e-4) * (1 - 1e-12)


class TestTwoStage:
    def test_single_cell_sections_skip_stage_two(self, config16):
        rec = run_two_stage(config16, 1.0 / 16.0, np.random.default_rng(2))
        assert rec.tau == rec.tau_stage1

    def test_stage_split_recorded(self, config16):
        rec = run_two_stage(config16, 0.25, np.random.default_rng(3))
        assert 0 < rec.tau_stage1 < rec.tau

    def test_alpha_must_be_reciprocal_integer(self, config16):
        with pytest.raises(InvalidAlpha):
            run_two_stage(config16, 0.3, np.random.default_rng(0))

    def test_alpha_sections_must_divide_m(self, config16):
        with pytest.raises(InvalidAlpha):
            run_two_stage(config16, 1.0 / 3.0, np.random.default_rng(0))

    def test_quarter_alpha_beats_nonadaptive_mean(self, config16):
        # adaptive refinement saves measurements over one-shot composition
        rng = np.random.default_rng(606)
        ts = np.mean([run_two_stage(config16, 0.25, rng).tau for _ in range(600)])
        fc = np.mean([run_fixed_composition(config16, 16, 1e-4, rng).tau
                      for _ in range(600)])
        assert ts < fc


class TestNoisyBinaryFixed:
    def test_two_cells_noiseless_single_probe(self):
        cfg = noiseless(2)
        rng = np.random.default_rng(1)
        recs = [run_noisy_binary_fixed(cfg, rng) for _ in range(200)]
        assert all(r.tau == 1 for r in recs)
        assert np.mean([r.success for r in recs]) > 0.99

    def test_noiseless_level_count_is_log2_m(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(2)
        # one probe per level when repetition collapses to 1
        assert all(run_noisy_binary_fixed(cfg, rng).tau == 4 for _ in range(50))

    def test_reference_config_is_deterministic_length(self, config16):
        rng = np.random.default_rng(123)
        taus = {run_noisy_binary_fixed(config16, rng).tau for _ in range(20)}
        assert taus == {NB_FIXED_TAU_REFERENCE}

    def test_repetitions_grow_with_noise(self):
        # fixed-length tau is a sum of per-level repetition counts, each
        # non-decreasing in the level's noise variance
        t_small = run_noisy_binary_fixed(
            new_config(16, 1, 0.25, 1e-4), np.random.default_rng(0)).tau
        t_large = run_noisy_binary_fixed(
            new_config(16, 1, 0.5, 1e-4), np.random.default_rng(0)).tau
        assert t_large >= t_small

    def test_slower_than_nonadaptive_at_small_noise(self):
        cfg = new_config(16, 1, 0.0625, 1e-4)
        rng = np.random.default_rng(707)
        nb = run_noisy_binary_fixed(cfg, rng).tau
        fc = np.mean([run_fixed_composition(cfg, 16, 1e-4, rng).tau
                      for _ in range(300)])
        assert nb > fc


class TestNoisyBinaryVariable:
    def test_two_cells_noiseless_single_probe(self):
        cfg = noiseless(2)
        rng = np.random.default_rng(4)
        recs = [run_noisy_binary_variable(cfg, rng) for _ in range(200)]
        assert all(r.tau == 1 for r in recs)
        assert all(r.success for r in recs)

    def test_noiseless_level_count_is_log2_m(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(5)
        assert all(run_noisy_binary_variable(cfg, rng).tau == 4 for _ in range(50))

    def test_error_rate_within_budget(self):
        # per-level union bound targets eps overall; allow 1.5x at n=10^4
        cfg = new_config(16, 1, 0.25, 1e-2)
        rng = np.random.default_rng(808)
        fails = sum(not run_noisy_binary_variable(cfg, rng).success
                    for _ in range(10_000))
        assert fails / 10_000 <= 1.5 * cfg.epsilon


class TestExhaustive:
    def test_single_cell_is_instant(self):
        rec = run_exhaustive(new_config(1, 1, 0.25, 1e-4), np.random.default_rng(0))
        assert rec.tau == 0 and rec.success

    def test_noiseless_single_pass_suffices(self):
        cfg = noiseless(16)
        rng = np.random.default_rng(6)
        recs = [run_exhaustive(cfg, rng) for _ in range(100)]
        assert all(r.tau <= 16 for r in recs)
        assert all(r.success for r in recs)

    def test_mean_grows_with_cell_count(self):
        rng = np.random.default_rng(909)
        means = []
        for m in (8, 16, 32):
            cfg = new_config(m, 1, 0.25, 1e-2)
            means.append(np.mean([run_exhaustive(cfg, rng).tau for _ in range(300)]))
        assert means[0] < means[1] < means[2]

    def test_stops_at_posterior_threshold(self, config16):
        rng = np.random.default_rng(10)
        rec = run_exhaustive(config16, rng)
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
            run_fixed_composition(config16, 16, 1e-4, np.random.default_rng(0))

    def test_lockstep_step_limit_names_lowest_live_trial(self, config16,
                                                         monkeypatch):
        spec = StrategySpec(FIXED_COMPOSITION)
        seeds = [trial_seed_for(1, i) for i in range(12)]
        taus = [run_strategy(spec, config16, np.random.default_rng(s)).tau
                for s in seeds]
        limit = taus[0]  # trials 0 and 1 finish; trial 2 is the lowest live
        stuck = next(i for i, t in enumerate(taus) if t > limit)
        assert stuck == 2
        monkeypatch.setattr(strat, "STEP_LIMIT", limit)
        rngs = [np.random.default_rng(s) for s in seeds]
        with pytest.raises(StepLimitExceeded,
                           match=rf"^trial {100 + stuck}: fixed_composition "
                                 rf"exceeded {limit} steps$"):
            run_rows(spec, config16, rngs, first_trial=100)
        with pytest.raises(StepLimitExceeded, match=rf"^trial {stuck}: "):
            run_trials(spec, config16, 12, 1)

    @pytest.mark.parametrize("kind", [NOISY_BINARY_FIXED, NOISY_BINARY_VARIABLE])
    def test_lockstep_bisection_step_limit_names_lowest_live_trial(self, kind,
                                                                   monkeypatch):
        config = GOLDEN_CONFIGS["M12_power"]
        spec = StrategySpec(kind)
        seeds = [trial_seed_for(5, i) for i in range(12)]
        taus = [run_strategy(spec, config, np.random.default_rng(s)).tau
                for s in seeds]
        limit = taus[0]  # trials 0 and 1 finish; trial 2 is the lowest live
        stuck = next(i for i, t in enumerate(taus) if t > limit)
        assert stuck == 2
        monkeypatch.setattr(strat, "STEP_LIMIT", limit)
        rngs = [np.random.default_rng(s) for s in seeds]
        with pytest.raises(StepLimitExceeded,
                           match=rf"^trial {100 + stuck}: {kind} "
                                 rf"exceeded {limit} steps$"):
            run_rows(spec, config, rngs, first_trial=100)
        with pytest.raises(StepLimitExceeded, match=rf"^trial {stuck}: {kind} "):
            run_trials(spec, config, 12, 5)

    def test_trial_seed_passthrough(self, config16):
        rec = run_strategy(StrategySpec(SORTED_PM), config16,
                           np.random.default_rng(1), trial_seed=42)
        assert rec.trial_seed == 42


# (tau, tau_stage1, success, final_max_prob.hex()) of trials
# trial_seed_for(GOLDEN_MASTER_SEED, 0..4), recorded from the per-strategy
# loops before they were folded into one search engine.
GOLDEN_MASTER_SEED = 2024
GOLDEN_CONFIGS = {
    "M1": new_config(1, 1, 0.25, 1e-4),
    "M16": new_config(16, 1, 0.25, 1e-4),
    "M32_power": new_config(32, 1, 0.05, 0.2, noise=NoiseModel.power(1.5)),
    # not a power of two: windows of one level differ in length across trials
    "M12_power": new_config(12, 1, 0.5, 0.2, noise=NoiseModel.power(0.5)),
}
GOLDEN_SPECS = {spec.label(): spec for spec in
                [StrategySpec(kind) for kind in KINDS if kind != TWO_STAGE]
                + [StrategySpec(TWO_STAGE, alpha=1.0 / s) for s in (4, 8, 16)]}
TRIAL_GOLDEN = {
    **{("M1", kind): [(0, 0, True, "0x1.0000000000000p+0")] * 5
       for kind in KINDS if kind != TWO_STAGE},
    ("M16", "fixed_composition"): [
        (73, 0, True, "0x1.ffffada7a90bep-1"),
        (27, 0, True, "0x1.fffae1e741ae2p-1"),
        (183, 0, True, "0x1.fffeab8627e50p-1"),
        (80, 0, True, "0x1.fff734d2caa8dp-1"),
        (29, 0, True, "0x1.fff6ae1fa449ap-1"),
    ],
    ("M16", "sorted_pm"): [
        (16, 0, True, "0x1.fffae7b9ddd63p-1"),
        (19, 0, True, "0x1.fffa9b76048a7p-1"),
        (33, 0, True, "0x1.fffe970bb04dcp-1"),
        (9, 0, True, "0x1.ffff3679f9582p-1"),
        (14, 0, True, "0x1.fff37be1a3a19p-1"),
    ],
    ("M16", "noisy_binary_fixed"): [
        (248, 0, True, "0x1.fffffffed2480p-1"),
        (248, 0, True, "0x1.0000000000000p+0"),
        (248, 0, True, "0x1.ffffffffffd52p-1"),
        (248, 0, True, "0x1.ffffffffe6402p-1"),
        (248, 0, True, "0x1.0000000000000p+0"),
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
        (74, 64, True, "0x1.fffdf80b64b87p-1"),
        (42, 27, True, "0x1.ffffb470d02bap-1"),
        (122, 115, True, "0x1.fff9a4b2d3d40p-1"),
        (101, 89, True, "0x1.fffefdfec878ep-1"),
        (30, 25, True, "0x1.fffba75e07157p-1"),
    ],
    ("M16", "two_stage(alpha=1/16)"): [
        (73, 73, True, "0x1.ffffada7a90bep-1"),
        (27, 27, True, "0x1.fffae1e741ae2p-1"),
        (183, 183, True, "0x1.fffeab8627e50p-1"),
        (81, 81, True, "0x1.fffbf5f1eba30p-1"),
        (65, 65, True, "0x1.fffc86fd647cap-1"),
    ],
    ("M32_power", "fixed_composition"): [
        (39, 0, True, "0x1.fd91bb441c502p-1"),
        (12, 0, True, "0x1.edc647ed3041fp-1"),
        (30, 0, True, "0x1.eb3b509434aeap-1"),
        (27, 0, True, "0x1.9cc985eaab05dp-1"),
        (21, 0, True, "0x1.ba61e1c539b9bp-1"),
    ],
    ("M32_power", "sorted_pm"): [
        (8, 0, True, "0x1.b95d2abceb4dcp-1"),
        (28, 0, True, "0x1.f7e9c32ce5667p-1"),
        (49, 0, True, "0x1.fe67c8b2f0898p-1"),
        (7, 0, True, "0x1.fc3fecac5c507p-1"),
        (10, 0, True, "0x1.f89dd80ed6476p-1"),
    ],
    ("M32_power", "noisy_binary_fixed"): [
        (62, 0, True, "0x1.ffff4936f860dp-1"),
        (62, 0, True, "0x1.f7dbcab6d0c69p-1"),
        (62, 0, True, "0x1.ff1deefc6502cp-1"),
        (62, 0, False, "0x1.45f3711699bb1p-3"),
        (62, 0, True, "0x1.d2fc2c348aeabp-1"),
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
        (19, 17, True, "0x1.ffffff97d1015p-1"),
        (25, 23, True, "0x1.fffffc9deb6c6p-1"),
        (21, 19, True, "0x1.e57902d7486ffp-1"),
        (31, 29, True, "0x1.e941c1699c7b1p-1"),
        (27, 25, True, "0x1.fb3c147eaac9cp-1"),
    ],
    # recorded from the per-trial bisection loops before they joined the
    # lockstep engine
    ("M12_power", "noisy_binary_fixed"): [
        (36, 0, True, "0x1.d1d749f47c2d1p-2"),
        (36, 0, True, "0x1.fd8cf7712fb45p-1"),
        (36, 0, True, "0x1.bffa0f96adc91p-1"),
        (36, 0, False, "0x1.d2c2821b02d5bp-1"),
        (30, 0, True, "0x1.f8d08c1189828p-1"),
    ],
    ("M12_power", "noisy_binary_variable"): [
        (8, 0, True, "0x1.ac06a46323acap-1"),
        (24, 0, True, "0x1.ed93e08303e69p-1"),
        (32, 0, True, "0x1.de5a77129c7c4p-1"),
        (34, 0, False, "0x1.bb5de3a038aecp-1"),
        (13, 0, True, "0x1.e5aeaded499c1p-1"),
    ],
}


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
}
LOCKSTEP_CASES = (
    [(c, StrategySpec(kind)) for c in LOCKSTEP_CONFIGS
     for kind in KINDS if kind != TWO_STAGE]
    + [(c, StrategySpec(TWO_STAGE, alpha=alpha))
       for c, alpha in (("M16", 0.25), ("M16", 1 / 16), ("M32_power", 0.25),
                        ("M32_power", 1 / 32), ("M16_eps0.2", 0.25),
                        ("M16_eps0.2", 1 / 16))])


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
