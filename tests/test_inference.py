"""Posterior updates and the U functional."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from searchlab.errors import DegeneratePosterior, SizeOne
from searchlab.inference import (
    LOG_FLOOR_NATS,
    Posterior,
    bayes_update,
    fold_step,
    fold_sums,
    init_uniform,
    normalizer_limit,
    renormalize_log_probs,
    u_log_probs,
    update_log_probs,
)
from searchlab.model import MeasurementVector

TWO_CELL_GOLDEN = 0.88079707797788244  # logistic(2) = 1/(1+e^-2)
U_POINT_NINE = 2.5359400011538499      # (0.9-0.1)*log2(9)


def posterior_from(probs) -> Posterior:
    p = np.asarray(probs, dtype=float)
    return Posterior(log_probs=np.log(p / p.sum()))


class TestInitUniform:
    def test_four_cells(self):
        rho = init_uniform(4)
        np.testing.assert_allclose(rho.probs, 0.25, rtol=1e-15)

    def test_single_cell(self):
        rho = init_uniform(1)
        assert rho.probs[0] == pytest.approx(1.0, abs=1e-15)

    def test_uniform_sixteen_u_value(self):
        # every cell has odds (1/16)/(15/16), so U = -log2(15)
        assert u_log_probs(init_uniform(16).log_probs) == pytest.approx(
            -math.log2(15.0), abs=1e-12)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            init_uniform(0)


class TestBayesUpdate:
    def test_two_cell_golden(self):
        rho = init_uniform(2)
        probed = MeasurementVector.from_indices(2, [0])
        out = bayes_update(rho, probed, y=1.0, variance=0.25)
        assert out.probs[0] == pytest.approx(TWO_CELL_GOLDEN, abs=1e-4)
        assert out.probs[1] == pytest.approx(1 - TWO_CELL_GOLDEN, abs=1e-4)

    def test_uninformative_observation_is_identity(self):
        # y = 1/2 carries zero log-likelihood ratio
        rho = posterior_from([0.4, 0.35, 0.15, 0.1])
        probed = MeasurementVector.from_indices(4, [0, 2])
        out = bayes_update(rho, probed, y=0.5, variance=0.3)
        np.testing.assert_allclose(out.probs, rho.probs, atol=1e-12)

    def test_accepts_plain_boolean_mask(self):
        rho = init_uniform(3)
        out = bayes_update(rho, np.array([True, False, False]), 1.0, 0.5)
        assert out.probs[0] > out.probs[1]

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            bayes_update(init_uniform(3), np.array([True, False]), 1.0, 0.5)

    def test_non_finite_observation_rejected(self):
        rho = init_uniform(4)
        probed = MeasurementVector.from_indices(4, [1])
        with pytest.raises(DegeneratePosterior):
            bayes_update(rho, probed, float("nan"), 0.25)

    def test_original_posterior_untouched(self):
        rho = init_uniform(4)
        before = rho.probs.copy()
        bayes_update(rho, MeasurementVector.from_indices(4, [0]), 2.0, 0.1)
        np.testing.assert_array_equal(rho.probs, before)

    @given(
        probs=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=32),
        y=st.floats(-4.0, 5.0),
        v=st.floats(0.01, 10.0),
        bits=st.integers(1, 2**31 - 1),
    )
    def test_normalization_property(self, probs, y, v, bits):
        rho = posterior_from(probs)
        mask = np.array([(bits >> (i % 31)) & 1 == 1 for i in range(len(probs))])
        if not mask.any():
            mask[0] = True
        out = bayes_update(rho, mask, y, v)
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert np.all(out.log_probs >= LOG_FLOOR_NATS - 1e-9)

    def test_extreme_observations_hit_floor_but_stay_normalized(self):
        rho = init_uniform(8)
        probed = MeasurementVector.from_indices(8, [0])
        out = bayes_update(rho, probed, y=300.0, variance=0.1)
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert out.log_probs.min() == pytest.approx(LOG_FLOOR_NATS, abs=1e-6)
        assert np.isfinite(u_log_probs(out.log_probs))


class TestRowUpdates:
    def test_block_update_matches_row_by_row(self):
        rng = np.random.default_rng(17)
        for rows, m in ((1, 1), (3, 2), (40, 16), (25, 128)):
            lp = rng.normal(0.0, 30.0, (rows, m))
            lp[rng.random((rows, m)) < 0.2] = -2000.0  # below the floor
            mask = rng.random((rows, m)) < 0.5
            y = rng.normal(0.5, 1.0, rows)
            v = rng.uniform(0.05, 3.0, rows)
            block = lp.copy()
            tops = update_log_probs(block, mask, y, v)
            for r in range(rows):
                row = lp[r].copy()
                top = update_log_probs(row, mask[r], float(y[r]), float(v[r]))
                assert np.array_equal(block[r], row)
                assert tops[r] == top == row.max()

    def test_one_mask_for_every_row(self):
        lp = np.log(np.full((4, 8), 1.0 / 8))
        mask = np.arange(8) == 2
        update_log_probs(lp, mask, np.full(4, 1.0), 0.25)
        assert np.all(np.argmax(lp, axis=1) == 2)

    def test_renormalize_returns_new_maximum(self):
        lp = np.array([[0.5, -3.0, 2.0], [-1.0, -1.0, -1.0]])
        tops = renormalize_log_probs(lp)
        np.testing.assert_array_equal(tops, lp.max(axis=1))
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, rtol=1e-15)


class TestNormalizerLimit:
    @pytest.mark.parametrize("eps", [1e-300, 1e-12, 1e-4, 1e-3, 0.2, 0.5, 0.9])
    def test_stop_is_the_threshold_test(self, eps):
        # s <= limit exactly when the max log posterior -log(s) clears
        # log1p(-eps)
        log_thresh = math.log1p(-eps)
        limit = normalizer_limit(log_thresh)
        assert -math.log(limit) >= log_thresh
        assert -math.log(math.nextafter(limit, math.inf)) < log_thresh


def random_cells(rng, rows, w, size, k):
    """k distinct cells of range(size) for each row and step, (rows, w, k)."""
    return rng.random((rows * w, size)).argsort(axis=1)[:, :k].reshape(rows, w, k)


def stepwise_fold(sums, cells, llr, limit):
    """The reference for fold_sums on a window of cells: each step added to
    the block, and every row's normalizer taken, one step at a time."""
    rows, w, _ = cells.shape
    ends = np.zeros(rows, dtype=np.int64)
    norms = np.zeros(rows)
    tops = np.zeros(rows, dtype=np.int64)
    at = np.arange(rows)[:, None]
    for t in range(w):
        sums[at, cells[:, t]] += llr[t][:, None]
        s = np.exp(sums - sums.max(axis=1, keepdims=True)).sum(axis=1)
        first = (s <= limit) & (ends == 0)
        ends[first] = t + 1
        norms[first] = s[first]
        tops[first] = sums[first].argmax(axis=1)
    done = ends > 0
    return done, ends[done], norms[done], tops[done]


# A stop's normalizer limit: at eps = 1e-300 it is 1.0, and a limit of 0.0
# stops no row, as the screen must take too; at eps = 0.9 it is 10.
FOLD_LIMITS = [normalizer_limit(math.log1p(-eps))
               for eps in (1e-300, 1e-12, 1e-4, 0.2, 0.9)] + [0.0]


@st.composite
def screened_windows(draw):
    """A block of running sums, a window of cells and ratios, and a limit.
    A row holds its top cell, a second cell at an offset about the stop's
    edge -log(limit - 1) or the screen's gap one nat inside it (a hair
    either side, on it, or a tie at the top), and cells at such offsets or
    far below; ratios of zero and of a hair keep rows where they are.  At a
    limit of 1.0 the edge is where exp(-offset) no longer moves a sum of 1;
    a limit of 0.0 stops no row."""
    limit = draw(st.sampled_from(FOLD_LIMITS))
    # at eps = 0.9 the edge is negative: an offset of its size is a tie or near
    edge = abs(-math.log(limit - 1.0) if limit > 1.0 else 53 * math.log(2.0))
    rows, size = draw(st.integers(1, 5)), draw(st.integers(2, 12))
    w, k = draw(st.integers(1, 6)), draw(st.integers(1, size - 1))
    near = st.one_of(
        st.sampled_from([edge, edge - 1.0]).flatmap(
            lambda d: st.sampled_from([math.nextafter(d, -math.inf),
                                       math.nextafter(d, math.inf),
                                       d - 1e-9, d + 1e-9, d])),
        st.just(0.0))
    rest = st.one_of(near, st.floats(0.0, 2.0 * edge + 2.0))
    sums = []
    for _ in range(rows):
        top = draw(st.sampled_from([0.0, -3.5, 41.25, 1e6, -1e9]))
        far = draw(st.integers(0, size - 2))
        n = size - 2 - far
        offsets = draw(st.lists(rest, min_size=n, max_size=n))
        sums.append([top - d for d in [0.0, draw(near)] + offsets + [800.0] * far])
    sums = np.array(sums)
    ratio = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 40.0, -40.0]),
                      st.floats(-3.0, 3.0))
    llr = np.array(draw(st.lists(ratio, min_size=w * rows,
                                 max_size=w * rows))).reshape(w, rows)
    cells = random_cells(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         rows, w, size, k)
    return sums, cells, llr, limit


def edge_window(eps, offsets, w):
    """Rows of a top cell and one cell at each offset below it, and a window
    of w steps that adds nothing to a third cell, far below."""
    rows = len(offsets)
    sums = np.array([[0.0, -d, -800.0] for d in offsets])
    return (sums, np.full((rows, w, 1), 2), np.zeros((w, rows)),
            normalizer_limit(math.log1p(-eps)))


# the stop's edge -log(limit - 1) at eps = 1e-4
EDGE = -math.log(normalizer_limit(math.log1p(-1e-4)) - 1.0)


class TestFoldSums:
    @pytest.mark.parametrize("w", [1, 7])
    def test_half_observation_leaves_sums_unchanged(self, w):
        # y = 1/2 is as likely whether or not a cell is probed: a window of
        # cells, or (w = 1) a step of masks, whose y = hit + z is 1/2
        rng = np.random.default_rng(8)
        sums = rng.normal(0.0, 30.0, (40, 16))
        before = sums.copy()
        twice_v = 2.0 * rng.uniform(0.05, 2.0, 40)
        llr = (2.0 * np.full((w, 40), 0.5) - 1.0) / twice_v
        assert not llr.any()
        cells = random_cells(rng, 40, w, 16, 5)
        done, *_ = fold_sums(sums, cells, llr, 0.0)  # s >= 1: never stops
        assert not done.any()
        assert sums.tobytes() == before.tobytes()
        if w == 1:
            masks = rng.random((40, 16)) < 0.5
            hits = rng.integers(16, size=40) + np.arange(0, 40 * 16, 16)
            z = np.where(masks.take(hits), -0.5, 0.5)
            done, norms, cells, _ = fold_step(sums, masks, hits, None, z,
                                              (np.ones(40), twice_v), 0.0)
            assert done is None and norms is None and cells is None
            assert sums.tobytes() == before.tobytes()

    @settings(max_examples=300)
    @given(window=screened_windows())
    # a hair past the stop's edge, and a hair inside it; the screen's gap a
    # hair either side; a tie at the top; in windows of three and one step
    @example(window=edge_window(1e-4, [EDGE + 1e-9, EDGE - 1e-9, EDGE - 1.0 + 1e-9,
                                       EDGE - 1.0 - 1e-9, 0.0], 3))
    @example(window=edge_window(1e-4, [EDGE + 1e-9, EDGE - 1e-9, 0.0], 1))
    # a tie stops at eps = 0.9; at a limit of 1.0 a cell 40 nats below
    # leaves a normalizer of 1.0, and one 30 nats below does not
    @example(window=edge_window(0.9, [0.0, 2.0], 3))
    @example(window=edge_window(1e-300, [40.0, 30.0], 3))
    def test_screened_window_matches_stepwise_reference(self, window):
        # quiet rows only add their ratios, the others take every step's
        # normalizer: the same sums, stops and normalizers, bit for bit, as
        # adding and testing every row a step at a time
        sums, cells, llr, limit = window
        want_sums = sums.copy()
        want = stepwise_fold(want_sums, cells, llr, limit)
        done, ends, norms, tops = fold_sums(sums, cells, llr, limit)
        assert sums.tobytes() == want_sums.tobytes()
        assert done.tolist() == want[0].tolist()
        assert np.broadcast_to(ends, want[1].shape).tolist() == want[1].tolist()
        assert norms.tobytes() == want[2].tobytes()
        assert tops.tolist() == want[3].tolist()

    def test_normalized_sums_match_renormalized_posterior(self):
        # 10^6 row-steps in blocks of 1,000 rows, criterion 4's draws a
        # block at a time: at every step the one-step fold hands back the
        # weights exp(c - max c), a row stops just when their sum s is at
        # most the limit (the median s of the step before) and hands back
        # that s and its MAP cell, and weights / s sums to one and is the
        # posterior that renormalizing every step gives
        rng = np.random.default_rng(2024)
        rows, steps = 1000, 50
        at = np.arange(rows)
        worst_norm = worst_gap = 0.0
        for _ in range(20):
            m = int(rng.integers(2, 65))
            v = rng.uniform(0.05, 2.0, rows)
            target = rng.integers(m, size=rows)
            sums = np.zeros((rows, m))
            lp = np.full((rows, m), -math.log(m))
            limit = float(m)
            for _ in range(steps):
                masks = rng.random((rows, m)) < 0.5
                z = rng.standard_normal(rows)
                y = masks[at, target] + np.sqrt(v) * z
                done, norms, cells, weights = fold_step(
                    sums, masks, at * m + target, None, z, (np.sqrt(v), 2.0 * v),
                    limit)
                update_log_probs(lp, masks, y, v)
                assert weights.tobytes() == np.exp(
                    sums - sums.max(axis=1, keepdims=True)).tobytes()
                s = weights.sum(axis=1)
                stop = s <= limit
                assert stop.any() == (done is not None)
                if done is not None:
                    assert done.tolist() == stop.tolist()
                    assert norms.tobytes() == s[stop].tobytes()
                    assert cells.tolist() == sums[stop].argmax(axis=1).tolist()
                limit = float(np.median(s))
                post = weights / s[:, None]
                worst_norm = max(worst_norm, float(np.abs(post.sum(axis=1) - 1.0).max()))
                worst_gap = max(worst_gap, float(np.abs(post - np.exp(lp)).max()))
        assert worst_norm <= 1e-9 and worst_gap <= 1e-9


class TestUFunctional:
    def test_point_nine_golden(self):
        assert u_log_probs(posterior_from([0.9, 0.1]).log_probs) == pytest.approx(
            U_POINT_NINE, abs=1e-12)

    def test_single_cell_rejected(self):
        with pytest.raises(SizeOne):
            u_log_probs(init_uniform(1).log_probs)

    def test_increases_with_concentration(self):
        seq = [posterior_from([0.5, 0.5]), posterior_from([0.7, 0.3]),
               posterior_from([0.9, 0.1]), posterior_from([0.999, 0.001])]
        us = [u_log_probs(r.log_probs) for r in seq]
        assert all(a < b for a, b in zip(us, us[1:]))

    def test_matches_direct_formula_away_from_saturation(self):
        p = np.array([0.35, 0.25, 0.2, 0.15, 0.05])
        direct = float(np.sum(p * np.log2(p / (1 - p))))
        assert u_log_probs(posterior_from(p).log_probs) == pytest.approx(direct, abs=1e-12)

    def test_finite_at_floor_saturation(self):
        # winner at ~certainty, every loser at the log floor
        lp = np.full(16, LOG_FLOOR_NATS)
        lp[3] = 0.0
        lp = lp - math.log(np.exp(lp).sum())
        assert np.isfinite(u_log_probs(lp))

    @pytest.mark.parametrize("m", [2, 3, 16, 17, 130])
    def test_block_rows_match_single_calls(self, m):
        # random posteriors of every spread, with ties at the argmax, and
        # rows clamped at the floor with one winner or two
        rng = np.random.default_rng(m)
        lp = rng.normal(0.0, 1.0, (60, m)) * rng.choice([0.01, 1.0, 30.0, 3000.0], (60, 1))
        lp[::7, : m // 2] = 0.0
        lp[1::5] = LOG_FLOOR_NATS
        lp[1::5, 0] = 0.0
        lp[2::10, -1] = 0.0
        assert (lp - lp.max(axis=1, keepdims=True) < LOG_FLOOR_NATS).any()
        renormalize_log_probs(lp)  # clamps those cells at the floor
        got = u_log_probs(lp)
        assert got.shape == (60,) and np.isfinite(got).all()
        assert [u.hex() for u in got.tolist()] == [u_log_probs(row).hex() for row in lp]


# One row's update of a nested-half search: whether the second half of its
# window is probed (else the first), the observation y and its variance
# (|llr| reaches ~1.5e5, far past the LOG_FLOOR_NATS clamp), and where the
# window then goes: stays, or moves into its first or its second half.
NESTED_UPDATE = st.tuples(st.booleans(), st.floats(-1500.0, 1500.0),
                          st.floats(0.01, 4.0), st.sampled_from([None, 0, 1]))


class TestNestedHalves:
    """A uniform prior whose updates each add one llr to one half of a
    window, windows nesting as they narrow: every cell of a half of the
    current window keeps the same float, so a half's log mass is its first
    cell plus log(cells), bit for bit.  The bisection strategies decide
    their levels from this."""

    @staticmethod
    def check_halves(row, lo, hi):
        mid = lo + (hi - lo + 1) // 2
        for a, b in ((lo, mid), (mid, hi)):
            half = row[a:b]
            assert np.all(half.view(np.int64) == half[:1].view(np.int64))
            top = half.max()
            assert top + math.log(np.exp(half - top).sum()) == row[a] + math.log(b - a)

    @pytest.mark.parametrize("rows", [None, 3])
    @given(m=st.integers(2, 256),
           steps=st.lists(st.lists(NESTED_UPDATE, min_size=3, max_size=3),
                          min_size=1, max_size=40))
    def test_halves_stay_uniform(self, rows, m, steps):
        n = 1 if rows is None else rows
        lp = np.full(m if rows is None else (rows, m), -math.log(m))
        windows = [(0, m)] * n
        for step in steps:
            step = step[:n]
            masks = np.zeros((n, m), dtype=bool)
            for r, ((lo, hi), (second, _, _, _)) in enumerate(zip(windows, step)):
                mid = lo + (hi - lo + 1) // 2
                masks[r, slice(mid, hi) if second else slice(lo, mid)] = True
            y = np.array([u[1] for u in step])
            v = np.array([u[2] for u in step])
            if rows is None:
                update_log_probs(lp, masks[0], float(y[0]), float(v[0]))
            else:
                update_log_probs(lp, masks, y, v)
            for r, ((lo, hi), (_, _, _, move)) in enumerate(zip(windows, step)):
                row = lp if rows is None else lp[r]
                self.check_halves(row, lo, hi)
                mid = lo + (hi - lo + 1) // 2
                inner = (lo, mid) if move == 0 else (mid, hi)
                if move is not None and inner[1] - inner[0] >= 2:
                    windows[r] = inner
                    self.check_halves(row, *inner)
