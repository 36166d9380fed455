"""Seeded Monte Carlo batches, summaries, and drift probes."""

import math
import tracemalloc

import numpy as np
import pytest

import searchlab.sim as sim
import searchlab.strategies as strat
from searchlab.channel import bawgn_capacity, optimal_composition
from searchlab.errors import InvalidAlpha, StepLimitExceeded, ValidationError
from searchlab.model import NoiseModel, new_config
from searchlab.sim import (
    MAX_TRIALS,
    DriftReport,
    SummaryStats,
    drift_probe,
    run_single_trial,
    run_trials,
    trial_seed_for,
)
from searchlab.strategies import (
    FIXED_COMPOSITION,
    SORTED_PM,
    TWO_STAGE,
    StrategySpec,
)


class TestSeeding:
    def test_seed_derivation_is_deterministic(self):
        assert trial_seed_for(20260825, 0) == trial_seed_for(20260825, 0)
        assert trial_seed_for(20260825, 0) != trial_seed_for(20260825, 1)
        assert trial_seed_for(1, 5) != trial_seed_for(2, 5)

    def test_substreams_have_no_collisions_in_a_batch(self):
        seeds = {trial_seed_for(99, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_single_trial_reproducible(self, config16):
        spec = StrategySpec(SORTED_PM)
        a = run_single_trial(spec, config16, 123456789)
        b = run_single_trial(spec, config16, 123456789)
        assert a == b

    def test_different_seeds_vary(self, config16):
        spec = StrategySpec(SORTED_PM)
        taus = {run_single_trial(spec, config16, s).tau for s in range(40)}
        assert len(taus) > 1


class TestTrialGenerators:
    """trial_generators builds a span's generators in the states that
    default_rng(trial_seed_for(master_seed, i)) gives them one at a time."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 20), (37, 38), (1000, 1050),
                                        (2**32 - 2, 2**32 + 2)])
    def test_states_match_the_seed_contract(self, master, lo, hi):
        got = [g.bit_generator.state for g in sim.trial_generators(master, lo, hi)]
        want = [np.random.default_rng(trial_seed_for(master, i)).bit_generator.state
                for i in range(lo, hi)]
        assert got == want

    def test_numpy_integer_master_seed(self):
        got = sim.trial_generators(np.uint64(7), 3, 5)
        want = sim.trial_generators(7, 3, 5)
        assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in want]

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_words_hash_as_numpy_does(self, seed):
        # a seed below 2**32 is one word to numpy; its high word of zero
        # hashes as no word
        entropy = np.array([[seed & 0xFFFFFFFF], [seed >> 32]], dtype=np.uint32)
        state = sim._seed_state(entropy, 8)
        ss = np.random.SeedSequence(seed)
        assert state[:, 0].tolist() == ss.generate_state(8).tolist()
        assert (sim._words_u64(state)[0].tolist()
                == ss.generate_state(4, np.uint64).tolist())

    def test_seed_words_refuse_other_requests(self):
        words = strat.seed_words_type()(np.zeros(4, dtype=np.uint64))
        with pytest.raises(TypeError):
            words.generate_state(8, np.uint64)
        with pytest.raises(TypeError):
            words.generate_state(4)

    def test_picks_streams_are_the_jumps(self):
        gens = sim.trial_generators(11, 0, 3)
        assert ([p.bit_generator.state for p in strat.picks_streams(gens)]
                == [g.bit_generator.jumped().state for g in gens])
        for g in gens:  # drawn generators, holding a spare 32-bit half
            g.integers(0, 7, size=3, dtype=np.int32)
            g.standard_normal(5)
            assert g.bit_generator.state["has_uint32"] == 1
        assert ([p.bit_generator.state for p in strat.picks_streams(gens)]
                == [g.bit_generator.jumped().state for g in gens])

    @pytest.mark.parametrize("spec", [StrategySpec(SORTED_PM),
                                      StrategySpec(TWO_STAGE, alpha=0.25)],
                             ids=lambda s: s.label())
    def test_workers_give_identical_summaries(self, config16, spec):
        serial = run_trials(spec, config16, 30, 2**32 + 3, workers=1)
        assert run_trials(spec, config16, 30, 2**32 + 3, workers=2) == serial


class TestRunTrials:
    def test_summary_fields(self, config16):
        s = run_trials(StrategySpec(SORTED_PM), config16, 50, 7)
        assert isinstance(s, SummaryStats)
        assert s.strategy_id == "sorted_pm"
        assert s.n_trials == 50 and s.master_seed == 7
        assert s.mean_tau > 0 and s.ci95_half_width > 0
        assert 0.0 <= s.err_rate <= 1.0

    def test_two_stage_mean_stage1_recorded(self, config16):
        s = run_trials(StrategySpec(TWO_STAGE, alpha=0.25), config16, 50, 7)
        assert 0 < s.mean_tau_stage1 < s.mean_tau

    def test_single_trial_flagged_low_sample(self, config16):
        s = run_trials(StrategySpec(SORTED_PM), config16, 1, 7)
        assert s.ci95_half_width == 0.0
        assert "LowSample" in s.flags

    def test_low_sample_flag_threshold(self, config16):
        assert "LowSample" in run_trials(StrategySpec(SORTED_PM), config16, 99, 7).flags
        assert run_trials(StrategySpec(SORTED_PM), config16, 100, 7).flags == ()

    def test_nonpositive_trial_count_rejected(self, config16):
        with pytest.raises(ValueError):
            run_trials(StrategySpec(SORTED_PM), config16, 0, 7)

    def test_parallel_matches_serial_exactly(self, config16):
        spec = StrategySpec(FIXED_COMPOSITION)
        serial = run_trials(spec, config16, 80, 20260825, workers=1)
        parallel = run_trials(spec, config16, 80, 20260825, workers=4)
        assert serial == parallel

    def test_trial_count_capped_before_any_work(self, config16):
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(StrategySpec(SORTED_PM), config16, MAX_TRIALS + 1, 7)

    def test_nonpositive_workers_rejected(self, config16):
        with pytest.raises(ValueError, match="workers"):
            run_trials(StrategySpec(SORTED_PM), config16, 10, 7, workers=0)

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_block_size_does_not_change_summary(self, config16, monkeypatch,
                                                rows):
        spec = StrategySpec(TWO_STAGE, alpha=0.25)
        whole = run_trials(spec, config16, 40, 11)
        monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
        assert run_trials(spec, config16, 40, 11) == whole

    @pytest.mark.parametrize("workers, cpus, n_trials, want", [
        (64, 3, 80, 3),   # capped by the cpu count
        (8, 64, 2, 2),    # capped by the trial count
        (2, 64, 80, 2),
    ])
    def test_worker_fan_out_capped(self, config16, monkeypatch, workers, cpus,
                                   n_trials, want):
        started = []

        class InlineExecutor:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        spec = StrategySpec(FIXED_COMPOSITION)
        got = run_trials(spec, config16, n_trials, 5, workers=workers)
        assert started == [want]
        assert got == run_trials(spec, config16, n_trials, 5)

    @pytest.mark.parametrize("spec, sigma2, error", [
        (StrategySpec(SORTED_PM), 1e-309, ValidationError),
        (StrategySpec(TWO_STAGE, alpha=1 / 3), 0.25, InvalidAlpha),
        (StrategySpec(SORTED_PM), 1e300, StepLimitExceeded),
    ], ids=["subnormal", "alpha", "unreachable"])
    def test_refused_before_any_worker_starts(self, monkeypatch, spec, sigma2,
                                              error):
        def started(max_workers):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", started)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        with pytest.raises(error):
            run_trials(spec, new_config(16, 1, sigma2, 1e-4), 8, 0, workers=2)

    def test_single_worker_starts_no_pool(self, config16, monkeypatch):
        monkeypatch.setattr(sim, "ProcessPoolExecutor", None)
        run_trials(StrategySpec(SORTED_PM), config16, 10, 7, workers=1)

    def test_mean_matches_recomputation_from_seeds(self, config16):
        spec = StrategySpec(SORTED_PM)
        s = run_trials(spec, config16, 30, 55)
        taus = [run_single_trial(spec, config16, trial_seed_for(55, i)).tau
                for i in range(30)]
        assert s.mean_tau == pytest.approx(np.mean(taus), abs=0)


# (mean_drift, se, capacity_floor) .hex() of 10^4-step drift probes,
# recorded when the probe's runs became the rows of lockstep blocks, run r
# drawing from trial_seed_for(seed, r).
DRIFT_CONFIGS = {
    "config16": new_config(16, 1, 0.25, 1e-4),
    "M12_power": new_config(12, 1, 0.5, 1e-3, noise=NoiseModel.power(2.0)),
}
DRIFT_GOLDEN = {
    ("config16", FIXED_COMPOSITION, 3):
        ("0x1.d6effd77e1967p-3", "0x1.52ef04a8af41dp-7", "0x1.1f3fdc0bf2b48p-3"),
    ("config16", FIXED_COMPOSITION, 21):
        ("0x1.f448400d72d83p-3", "0x1.5defdccdf7e12p-7", "0x1.1f3fdc0bf2b48p-3"),
    ("config16", SORTED_PM, 3):
        ("0x1.caadd79d3c672p-1", "0x1.54d7be35a166dp-6", "0x1.5bed9dde59980p-4"),
    ("config16", SORTED_PM, 21):
        ("0x1.dc9cbc484e714p-1", "0x1.583982ff97a97p-6", "0x1.5bed9dde59980p-4"),
    ("M12_power", FIXED_COMPOSITION, 3):
        ("0x1.56b8b08e43d08p-3", "0x1.fead5dab0cd2fp-8", "0x1.98ffc40609400p-4"),
    ("M12_power", SORTED_PM, 3):
        ("0x1.a11dc799a6cfbp-3", "0x1.3080cc95900c2p-7", "0x1.4608c20070600p-7"),
}
# (mean_drift, se) .hex() of the same probes while every run drew from the
# one generator seeded with the seed, one after another.
SERIAL_DRIFT = {
    ("config16", FIXED_COMPOSITION, 3): ("0x1.03907f67be65ep-2", "0x1.67911b141c40dp-7"),
    ("config16", FIXED_COMPOSITION, 21): ("0x1.e6a9ccfd5971ep-3", "0x1.591a6ed756ec1p-7"),
    ("config16", SORTED_PM, 3): ("0x1.d8f3ba6dd21b2p-1", "0x1.526f597d935a1p-6"),
    ("config16", SORTED_PM, 21): ("0x1.d60a5975edc5dp-1", "0x1.520ac9d5fc945p-6"),
    ("M12_power", FIXED_COMPOSITION, 3): ("0x1.4a730f5a4f0a2p-3", "0x1.0215e5db914e5p-7"),
    ("M12_power", SORTED_PM, 3): ("0x1.b7259c86e0481p-3", "0x1.40f0bab4204fep-7"),
}


def counting_observations(monkeypatch):
    """Wrap the engine's Draws.ahead, which hands over the normals of each
    window's observations; returns a list whose first entry counts the
    row-steps observed, steps times live rows."""
    count = [0]
    ahead = strat.Draws.ahead

    def counted(draws, steps):
        normals = ahead(draws, steps)
        count[0] += steps * len(draws.gens)
        return normals

    monkeypatch.setattr(strat.Draws, "ahead", counted)
    return count


class TestDriftProbe:
    @pytest.mark.parametrize("case, kind, seed", list(DRIFT_GOLDEN),
                             ids=[f"{c}-{k}-{s}" for c, k, s in DRIFT_GOLDEN])
    def test_matches_recorded_drift(self, case, kind, seed):
        rep = drift_probe(kind, DRIFT_CONFIGS[case], 10_000, seed)
        got = (rep.mean_drift.hex(), rep.se.hex(), rep.capacity_floor.hex())
        assert got == DRIFT_GOLDEN[case, kind, seed]

    @pytest.mark.parametrize("case, kind, seed", list(SERIAL_DRIFT),
                             ids=[f"{c}-{k}-{s}" for c, k, s in SERIAL_DRIFT])
    def test_agrees_with_serial_stream(self, case, kind, seed):
        # two samples of the same mean: within 4 standard errors of their
        # difference
        mean, se = (float.fromhex(x) for x in DRIFT_GOLDEN[case, kind, seed][:2])
        old_mean, old_se = (float.fromhex(x) for x in SERIAL_DRIFT[case, kind, seed])
        assert abs(mean - old_mean) <= 4.0 * math.hypot(se, old_se)

    @pytest.mark.parametrize("kind", [FIXED_COMPOSITION, SORTED_PM])
    def test_drift_does_not_depend_on_block_rows(self, config16, kind,
                                                 monkeypatch):
        blocked = drift_probe(kind, config16, 10_000, 3)
        for rows in (3, 1000):
            monkeypatch.setattr(sim, "DRIFT_ROWS", rows)
            assert drift_probe(kind, config16, 10_000, 3) == blocked

    def test_long_probe_memory_is_bounded(self, config16):
        # the increments of 10^5 steps alone would take 0.76 MiB; a probe
        # holds a block of runs at a time, their sums and no increments
        drift_probe(SORTED_PM, config16, 10_000, 3)  # the capacity floor is cached
        tracemalloc.start()
        try:
            drift_probe(SORTED_PM, config16, 100_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2 ** 20

    @pytest.mark.parametrize("kind", [FIXED_COMPOSITION, SORTED_PM])
    def test_runs_outlasting_the_probe_take_its_steps(self, kind, monkeypatch):
        # a run takes far more than 10^4 steps at this noise: the first block
        # is that one run, cut at the last increment read
        config = new_config(16, 1, 1e4, 1e-4)
        count = counting_observations(monkeypatch)
        rep = drift_probe(kind, config, 10_000, 3)
        assert rep.n_steps == 10_000 and count[0] == 10_000

    def test_short_runs_take_about_the_probe_steps(self, config16, monkeypatch):
        count = counting_observations(monkeypatch)
        drift_probe(SORTED_PM, config16, 10_000, 3)
        assert 10_000 <= count[0] <= 11_000

    @pytest.mark.parametrize("seed", [0, 2])
    def test_heavy_tailed_runs_take_about_the_probe_steps(self, seed,
                                                          monkeypatch):
        # run lengths vary widely at this noise, so the mean length of the
        # first few runs sizes blocks badly; a block of at most twice the
        # runs of the last keeps the surplus row-steps small (without the
        # cap: 19,101 and 15,043)
        config = new_config(16, 1, 30.0, 1e-4)
        count = counting_observations(monkeypatch)
        drift_probe(SORTED_PM, config, 10_000, seed)
        assert 10_000 <= count[0] <= 15_000

    @pytest.mark.parametrize("kind", [FIXED_COMPOSITION, SORTED_PM])
    def test_drift_does_not_depend_on_chunk(self, config16, kind, monkeypatch):
        chunked = drift_probe(kind, config16, 10_000, 3)
        monkeypatch.setattr(strat, "CHUNK", 1)
        assert drift_probe(kind, config16, 10_000, 3) == chunked

    def test_fixed_composition_floor_is_best_capacity(self, config16):
        rep = drift_probe(FIXED_COMPOSITION, config16, 10_000, 3)
        _, c1 = optimal_composition(config16)
        assert isinstance(rep, DriftReport)
        assert rep.capacity_floor == pytest.approx(c1, abs=1e-12)
        assert rep.n_steps == 10_000 and rep.se > 0

    def test_sorted_pm_floor_is_half_mass_capacity(self, config16):
        rep = drift_probe(SORTED_PM, config16, 10_000, 3)
        want = bawgn_capacity(0.5, config16.variance_at(8.0))
        assert rep.capacity_floor == pytest.approx(want, abs=1e-12)

    def test_short_probes_rejected(self, config16):
        with pytest.raises(ValueError):
            drift_probe(FIXED_COMPOSITION, config16, 9_999, 3)

    def test_unsupported_kind_rejected(self, config16):
        with pytest.raises(ValueError):
            drift_probe(TWO_STAGE, config16, 10_000, 3)

    def test_single_cell_domain_rejected(self):
        with pytest.raises(ValueError):
            drift_probe(FIXED_COMPOSITION, new_config(1, 1, 0.25, 1e-4), 10_000, 3)

    @pytest.mark.parametrize("kind", [FIXED_COMPOSITION, SORTED_PM])
    @pytest.mark.parametrize("m, eps", [(4, 0.9), (2, 0.5), (2, 0.6), (2, 0.9)])
    def test_prior_at_its_threshold_rejected(self, kind, m, eps, monkeypatch):
        # 1/M >= 1 - eps: the search starts no run, so no step is read;
        # refused before any generator is built
        monkeypatch.setattr(sim, "trial_generators", None)
        with pytest.raises(ValidationError, match="1/M < 1 - epsilon"):
            drift_probe(kind, new_config(m, 1, 0.05, eps), 10_000, 0)

    def test_probe_reproducible(self, config16):
        a = drift_probe(SORTED_PM, config16, 10_000, 21)
        b = drift_probe(SORTED_PM, config16, 10_000, 21)
        assert a == b
