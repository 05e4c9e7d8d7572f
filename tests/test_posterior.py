import math
import tracemalloc

import numpy as np
import pytest

from ewselect import (Dataset, DomainError, PosteriorConfig, TooLargeError,
                      enumerate_posterior, exact_estimators,
                      least_squares_min_norm, log_posterior_unnorm, log_prior,
                      practical_lambda, prediction_lambda, residual_ss,
                      support_lambda)
from ewselect.enumeration import _subset_fits, subset_index_array, subset_rank
from ewselect.priors import NEG_INF

from conftest import normalized_gaussian, planted_instance


class TestLogPrior:
    def test_size_zero_is_zero(self):
        cfg = PosteriorConfig(lam=3.5, max_support=4, sigma2=1.0)
        assert log_prior(0, 17, cfg) == 0.0

    def test_direct_small_value(self):
        cfg = PosteriorConfig(lam=1.0, max_support=4, sigma2=1.0)
        assert log_prior(1, 4, cfg) == pytest.approx(-math.log(4) - 1.0, rel=1e-14)

    def test_matches_exact_combinatorics(self):
        # oracle: exact integer binomial coefficient, then log
        lam = practical_lambda(200)
        cfg = PosteriorConfig(lam=lam, max_support=10, sigma2=1.0)
        got = log_prior(5, 200, cfg)
        oracle = -math.log(math.comb(200, 5)) - lam * 5
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_huge_p_stays_finite(self):
        cfg = PosteriorConfig(lam=practical_lambda(10**6), max_support=50,
                              sigma2=1.0)
        v = log_prior(50, 10**6, cfg)
        assert math.isfinite(v)
        assert v == pytest.approx(-math.log(math.comb(10**6, 50))
                                  - cfg.lam * 50, rel=1e-12)

    def test_above_cap_is_minus_inf(self):
        cfg = PosteriorConfig(lam=2.0, max_support=3, sigma2=1.0)
        assert log_prior(4, 10, cfg) == NEG_INF

    def test_domain_errors(self):
        cfg = PosteriorConfig(lam=2.0, max_support=3, sigma2=1.0)
        with pytest.raises(DomainError):
            log_prior(-1, 10, cfg)
        with pytest.raises(DomainError):
            log_prior(11, 10, cfg)

    def test_independence_prior_form(self):
        cfg = PosteriorConfig(lam=2.0, max_support=10, sigma2=1.0,
                              prior="independence", omega=0.2)
        got = log_prior(3, 10, cfg)
        assert got == pytest.approx(3 * math.log(0.2) + 7 * math.log(0.8),
                                    rel=1e-14)

    def test_independence_validation(self):
        with pytest.raises(DomainError):
            PosteriorConfig(lam=1.0, max_support=2, sigma2=1.0,
                            prior="independence", omega=1.5)

    def test_monotone_decreasing_while_binomial_grows(self):
        p = 30
        cfg = PosteriorConfig(lam=0.5, max_support=15, sigma2=1.0)
        vals = [log_prior(s, p, cfg) for s in range(0, p // 2 + 1)]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_preset_values(self):
        assert prediction_lambda(200, c=1.0) == pytest.approx(
            74.0 * math.log(200), rel=1e-14)
        assert support_lambda(200, c=1.0, eps=0.5) == pytest.approx(
            3.0 * 28.0 * math.log(200), rel=1e-14)


class TestLogPosteriorUnnorm:
    def test_empty_support(self, small_data):
        cfg = PosteriorConfig(lam=2.0, max_support=4, sigma2=1.0)
        expect = -float(small_data.y @ small_data.y) / 2.0
        assert log_posterior_unnorm(small_data, (), cfg) == pytest.approx(
            expect, rel=1e-12)

    def test_same_span_same_size_equal(self, rng):
        X = rng.standard_normal((12, 6))
        X[:, 3] = X[:, 0]   # duplicated column
        X[:, 4] = X[:, 1]
        d = Dataset(X, rng.standard_normal(12))
        cfg = PosteriorConfig(lam=1.0, max_support=4, sigma2=1.0)
        a = log_posterior_unnorm(d, (0, 1), cfg)
        b = log_posterior_unnorm(d, (3, 4), cfg)
        assert a == pytest.approx(b, rel=1e-10)

    def test_above_cap(self, small_data):
        cfg = PosteriorConfig(lam=2.0, max_support=2, sigma2=1.0)
        assert log_posterior_unnorm(small_data, (0, 1, 2), cfg) == NEG_INF


class TestEnumeratePosterior:
    def test_single_column_space(self, rng):
        X = rng.standard_normal((6, 1))
        d = Dataset(X, rng.standard_normal(6))
        cfg = PosteriorConfig(lam=1.0, max_support=1, sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        assert table.n_entries == 2
        probs = [pr for _, _, pr in table.entries()]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_dominant_signal_map(self, rng):
        n = 24
        Q, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        X = Q * math.sqrt(n)
        y = X[:, 0] * 50.0
        d = Dataset(X, y)
        cfg = PosteriorConfig(lam=practical_lambda(3, 2.0), max_support=2,
                              sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        assert table.map_subset == (0,)

    def test_strong_planted_support_concentrates(self):
        data, beta = planted_instance(11, 30, 10, [1.0, 1.0], sigma=0.25)
        cfg = PosteriorConfig(lam=practical_lambda(10), max_support=4,
                              sigma2=data.sigma ** 2)
        table = enumerate_posterior(data, cfg)
        assert table.prob_of((0, 1)) >= 0.9

    def test_normalization(self, small_data):
        cfg = PosteriorConfig(lam=2.0, max_support=4, sigma2=1.0)
        table = enumerate_posterior(small_data, cfg)
        total = sum(pr for _, _, pr in table.entries())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self, rng):
        X = rng.standard_normal((10, 40))
        d = Dataset(X, rng.standard_normal(10))
        cfg = PosteriorConfig(lam=1.0, max_support=20, sigma2=1.0)
        with pytest.raises(TooLargeError):
            enumerate_posterior(d, cfg)

    def test_scale_consistency(self, rng):
        X = normalized_gaussian(rng, 20, 7)
        y = rng.standard_normal(20)
        kappa = 4.2
        cfg1 = PosteriorConfig(lam=3.0, max_support=3, sigma2=0.7)
        cfg2 = PosteriorConfig(lam=3.0, max_support=3, sigma2=0.7 * kappa**2)
        t1 = enumerate_posterior(Dataset(X, y), cfg1)
        t2 = enumerate_posterior(Dataset(X, kappa * y), cfg2)
        for (s1, _, p1), (s2, _, p2) in zip(t1.entries(), t2.entries()):
            assert s1 == s2
            assert p1 == pytest.approx(p2, abs=1e-10)

    def test_ratio_identity(self, rng):
        X = normalized_gaussian(rng, 30, 10)
        beta = np.zeros(10)
        beta[:2] = 1.0
        sigma = 0.8
        y = X @ beta + sigma * rng.standard_normal(30)
        d = Dataset(X, y, sigma)
        lam = practical_lambda(10)
        cfg = PosteriorConfig(lam=lam, max_support=4, sigma2=sigma**2)
        table = enumerate_posterior(d, cfg)
        ref = (0, 1)
        for J in [(), (0,), (3, 7), (0, 1, 5), (2, 4, 6, 8)]:
            lhs = table.log_weight_of(J) - table.log_weight_of(ref)
            rhs = (math.log(math.comb(10, len(ref)))
                   - math.log(math.comb(10, len(J)))
                   + lam * (len(ref) - len(J))
                   + (residual_ss(d, ref) - residual_ss(d, J))
                   / (2.0 * sigma**2))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_map_tie_breaks_sparser_then_lex(self, rng):
        # y lies exactly in the span of column 2, duplicated as column 0
        X = rng.standard_normal((10, 4))
        X[:, 2] = X[:, 0]
        y = 3.0 * X[:, 0]
        d = Dataset(X, y)
        cfg = PosteriorConfig(lam=5.0, max_support=2, sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        # (0,) and (2,) tie exactly; sparser beats supersets; lex picks (0,)
        assert table.map_subset == (0,)

    def test_memory_peak_is_the_fits(self, rng):
        # weighting the fits in place adds no full-size copy after the walk;
        # the Gram and the index arrays are built before either measurement
        d = Dataset(rng.standard_normal((8, 40)), rng.standard_normal(8))
        cfg = PosteriorConfig(lam=2.0, max_support=4, sigma2=1.0)
        d.gram
        for k in range(5):
            subset_index_array(40, k)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fits = peak(lambda: _subset_fits(d, 4))
        assert peak(lambda: enumerate_posterior(d, cfg)) <= 1.05 * fits

    def test_walk_memory_is_bounded_by_the_fits(self, rng):
        # the benchmark's scan-enum shape: (100, 20) with |J| <= 7, 137,980
        # subsets; the walk's nodes and batches stay under 6x its fits
        d = Dataset(rng.standard_normal((100, 20)), rng.standard_normal(100))
        d.gram
        for k in range(8):
            subset_index_array(20, k)
        tracemalloc.start()
        try:
            fits = _subset_fits(d, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * sum(a.nbytes for fit in fits for a in fit)

    def test_subset_rank_agrees_with_enumeration_order(self, small_data):
        cfg = PosteriorConfig(lam=2.0, max_support=3, sigma2=1.0)
        table = enumerate_posterior(small_data, cfg)
        for blk in table.blocks:
            for i in range(0, len(blk.subsets), 17):
                sub = tuple(int(v) for v in blk.subsets[i])
                assert subset_rank(sub, small_data.p) == i


class TestExactEstimators:
    def test_single_entry_table(self, rng):
        X = rng.standard_normal((8, 1))
        y = rng.standard_normal(8)
        d = Dataset(X, y)
        # lam large: all mass effectively on the empty set, but estimator
        # weights every entry; force a one-entry table via max_support=1 and
        # direct comparison against the weighted sum
        cfg = PosteriorConfig(lam=1.0, max_support=1, sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        est = exact_estimators(table, d)
        oracle = sum(pr * least_squares_min_norm(d, sub)
                     for sub, _, pr in table.entries())
        np.testing.assert_allclose(est.mean_beta, oracle, atol=1e-15)

    def test_duplicate_symmetric_average(self, rng):
        # two identical columns split the posterior mass evenly; the mean
        # averages the two single-column fits
        n = 12
        x = rng.standard_normal(n)
        X = np.column_stack([x, x])
        y = rng.standard_normal(n)
        d = Dataset(X, y)
        cfg = PosteriorConfig(lam=1.0, max_support=1, sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        est = exact_estimators(table, d)
        assert est.mean_beta[0] == pytest.approx(est.mean_beta[1], rel=1e-12)

    def test_mean_matches_direct_sum(self, rng):
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        d = Dataset(X, y)
        cfg = PosteriorConfig(lam=2.0, max_support=3, sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        est = exact_estimators(table, d)
        oracle = np.zeros(10)
        for sub, _, pr in table.entries():
            oracle += pr * least_squares_min_norm(d, sub)
        np.testing.assert_allclose(est.mean_beta, oracle, atol=1e-12)

    def test_restricted_mean_excludes_rank_deficient(self, rng):
        X = rng.standard_normal((10, 4))
        X[:, 1] = X[:, 0]    # every support containing {0,1} is deficient
        y = rng.standard_normal(10)
        d = Dataset(X, y)
        cfg = PosteriorConfig(lam=0.5, max_support=2, sigma2=1.0)
        table = enumerate_posterior(d, cfg)
        est = exact_estimators(table, d)
        oracle = np.zeros(4)
        from ewselect.subsets import EPS_RANK
        for sub, _, pr in table.entries():
            if not sub:
                continue
            svals = np.linalg.svd(X[:, list(sub)], compute_uv=False)
            if svals[-1] ** 2 > EPS_RANK * 10:
                oracle += pr * least_squares_min_norm(d, sub)
        np.testing.assert_allclose(est.restricted_mean_beta, oracle, atol=1e-12)
        assert not np.allclose(est.restricted_mean_beta, est.mean_beta)

    def test_map_beta_is_refit(self, small_data):
        cfg = PosteriorConfig(lam=2.0, max_support=3, sigma2=1.0)
        table = enumerate_posterior(small_data, cfg)
        est = exact_estimators(table, small_data)
        np.testing.assert_array_equal(
            est.map_beta, least_squares_min_norm(small_data, table.map_subset))


class TestPenaltyEquivalence:
    def test_independence_prior_matches_subset_penalty(self, rng):
        # independence prior with omega = 1/(1+e^lam) has log-mass linear in
        # |J| with slope -lam, so its MAP solves min rss + 2 sigma^2 lam |J|
        from ewselect import L0Config, l0_select
        X = rng.standard_normal((25, 8))
        y = rng.standard_normal(25)
        sigma2 = 0.6
        lam = 2.5
        d = Dataset(X, y)
        cfg = PosteriorConfig(lam=1.0, max_support=8, sigma2=sigma2,
                              prior="independence",
                              omega=1.0 / (1.0 + math.exp(lam)))
        table = enumerate_posterior(d, cfg)
        support, _ = l0_select(d, L0Config(lam=2.0 * sigma2 * lam,
                                           max_support=8))
        assert table.map_subset == support
