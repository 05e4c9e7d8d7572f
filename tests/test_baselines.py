import math
from itertools import combinations

import numpy as np
import pytest

from ewselect import (Dataset, DomainError, L0Config, LassoConfig,
                      NotConvergedError, SingularError, default_lasso_penalty,
                      estimate_noise_variance, inverse_gram_sign_norm,
                      irrepresentable_check, l0_select,
                      lasso_coordinate_descent, lasso_duality_gap,
                      lasso_kkt_violation, residual_ss)
from ewselect.baselines import lasso_objective

from conftest import normalized_gaussian, planted_instance


def brute_force_l0(data, lam, s_max):
    best_val, best = math.inf, None
    for s in range(0, s_max + 1):
        for sub in combinations(range(data.p), s):
            val = residual_ss(data, sub) + lam * s
            if val < best_val:
                best_val, best = val, sub
    return best, best_val


class TestL0Select:
    def test_huge_penalty_selects_nothing(self, small_data):
        sup, beta = l0_select(small_data, L0Config(lam=1e12, max_support=5))
        assert sup == () and np.all(beta == 0.0)

    def test_zero_penalty_tie_rule(self, rng):
        # y lies exactly in the span of column 0: every superset ties at
        # rss ~ 0 and the sparsest, lexicographically first support wins
        X = rng.standard_normal((10, 4))
        y = 2.5 * X[:, 0]
        d = Dataset(X, y)
        sup, _ = l0_select(d, L0Config(lam=0.0, max_support=3))
        assert sup == (0,)

    def test_exhaustive_matches_brute_force(self, rng):
        X = rng.standard_normal((20, 12))
        beta = np.zeros(12)
        beta[[2, 7]] = [1.0, -1.5]
        y = X @ beta + 0.4 * rng.standard_normal(20)
        d = Dataset(X, y)
        lam = 0.8
        sup, _ = l0_select(d, L0Config(lam=lam, max_support=4))
        oracle, _ = brute_force_l0(d, lam, 4)
        assert sup == oracle

    def test_greedy_never_beats_exhaustive(self, rng):
        for trial in range(5):
            X = rng.standard_normal((18, 9))
            y = rng.standard_normal(18)
            d = Dataset(X, y)
            lam = float(rng.uniform(0.1, 2.0))
            cfg_e = L0Config(lam=lam, max_support=4)
            cfg_g = L0Config(lam=lam, max_support=4, strategy="greedy")
            sup_e, _ = l0_select(d, cfg_e)
            sup_g, _ = l0_select(d, cfg_g)
            val_e = residual_ss(d, sup_e) + lam * len(sup_e)
            val_g = residual_ss(d, sup_g) + lam * len(sup_g)
            assert val_g >= val_e - 1e-10

    def test_greedy_recovers_strong_signal(self):
        data, beta = planted_instance(3, 50, 15, [2.0, -2.0, 1.5], sigma=0.2)
        lam = 2.0 * data.sigma ** 2 * math.log(15) * 4
        sup, fit = l0_select(data, L0Config(lam=lam, max_support=7,
                                            strategy="greedy"))
        assert sup == (0, 1, 2)
        assert np.max(np.abs(fit - beta)) < 0.2

    def test_exhaustive_cap(self, rng):
        from ewselect import TooLargeError
        X = rng.standard_normal((10, 60))
        d = Dataset(X, rng.standard_normal(10))
        with pytest.raises(TooLargeError):
            l0_select(d, L0Config(lam=1.0, max_support=6))
        # greedy is always allowed at the same size
        sup, _ = l0_select(d, L0Config(lam=5.0, max_support=6,
                                       strategy="greedy"))
        assert len(sup) <= 6

    def test_backward_sweep_can_drop_columns(self, rng):
        # make the first greedy pick suboptimal: two columns jointly explain
        # y but a third correlates most with it marginally
        rng = np.random.default_rng(17)
        n = 60
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        decoy = (a + b) / np.linalg.norm(a + b) + 0.05 * rng.standard_normal(n)
        X = np.column_stack([a, b, decoy, rng.standard_normal(n)])
        y = a + b
        d = Dataset(X, y)
        sup, _ = l0_select(d, L0Config(lam=0.05, max_support=3,
                                       strategy="greedy"))
        assert 2 not in sup or len(sup) <= 2  # decoy dropped or made redundant


class TestLasso:
    def test_penalty_above_max_correlation_gives_zero(self, rng):
        X = rng.standard_normal((25, 8))
        y = rng.standard_normal(25)
        d = Dataset(X, y)
        lam = float(np.max(np.abs(X.T @ y)) / 25) * (1 + 1e-9)
        beta = lasso_coordinate_descent(d, LassoConfig(lam=lam))
        assert np.all(beta == 0.0)

    def test_orthogonal_design_soft_threshold(self, rng):
        n = 24
        Q, _ = np.linalg.qr(rng.standard_normal((n, 6)))
        X = Q * math.sqrt(n)
        y = rng.standard_normal(n)
        d = Dataset(X, y)
        lam = 0.25
        beta = lasso_coordinate_descent(d, LassoConfig(lam=lam))
        rho = X.T @ y / n
        expect = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
        np.testing.assert_allclose(beta, expect, atol=1e-10)

    def test_objective_monotone_over_sweeps(self, rng):
        X = normalized_gaussian(rng, 40, 20)
        beta0 = np.zeros(20)
        beta0[:3] = 1.0
        y = X @ beta0 + 0.5 * rng.standard_normal(40)
        d = Dataset(X, y)
        lam = 0.1
        objs = []
        # k cold-started sweeps reproduce the first k sweeps of a longer run
        for k in range(1, 7):
            try:
                bk = lasso_coordinate_descent(
                    d, LassoConfig(lam=lam, max_iter=k, tol=1e-16))
            except NotConvergedError:
                bk = None
            if bk is not None:
                objs.append(lasso_objective(d, bk, lam))
        full = lasso_coordinate_descent(d, LassoConfig(lam=lam))
        objs.append(lasso_objective(d, full, lam))
        assert all(objs[i] >= objs[i + 1] - 1e-12 for i in range(len(objs) - 1))

    def test_kkt_and_gap_at_solution(self, rng):
        data, _ = planted_instance(5, 60, 25, [1.0, -1.0, 0.5], sigma=0.5)
        lam = default_lasso_penalty(data.sigma, 60, 25, a=1.0)
        tol = 1e-8
        beta = lasso_coordinate_descent(data, LassoConfig(lam=lam, tol=tol))
        assert lasso_kkt_violation(data, beta, lam) <= 10 * tol
        assert 0 <= lasso_duality_gap(data, beta, lam) <= 1e-6

    def test_not_converged_raises_with_gap(self, rng):
        X = normalized_gaussian(rng, 30, 15)
        y = X[:, :5] @ np.ones(5) + 0.1 * rng.standard_normal(30)
        d = Dataset(X, y)
        with pytest.raises(NotConvergedError) as err:
            lasso_coordinate_descent(d, LassoConfig(lam=1e-6, max_iter=1,
                                                    tol=1e-16))
        assert err.value.gap is not None and err.value.gap >= 0

    def test_default_penalty_rule(self):
        assert default_lasso_penalty(2.0, 100, 200, a=3.0) == pytest.approx(
            3.0 * 2.0 * math.sqrt(math.log(200) / 100), rel=1e-14)


class TestIrrepresentability:
    def test_orthogonal_design(self, rng):
        n = 30
        Q, _ = np.linalg.qr(rng.standard_normal((n, 6)))
        X = Q * math.sqrt(n)
        d = Dataset(X, rng.standard_normal(n))
        val = inverse_gram_sign_norm(d, (0, 2), np.array([1.0, -1.0]))
        assert val == pytest.approx(1.0, abs=1e-10)
        ok, margin = irrepresentable_check(d, (0, 2), np.array([1.0, -1.0]))
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-10)

    def test_duplicated_column_fails(self, rng):
        X = rng.standard_normal((20, 5))
        X[:, 3] = X[:, 0]
        d = Dataset(X, rng.standard_normal(20))
        ok, margin = irrepresentable_check(d, (0,), np.array([1.0]))
        assert not ok
        assert margin <= 1e-10

    def test_matches_dense_solve_oracle(self, rng):
        X = rng.standard_normal((50, 20))
        d = Dataset(X, rng.standard_normal(50))
        sup = (1, 7, 11, 18)
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        psi = X[:, list(sup)].T @ X[:, list(sup)] / 50
        w = np.linalg.inv(psi) @ signs
        assert inverse_gram_sign_norm(d, sup, signs) == pytest.approx(
            float(np.max(np.abs(w))), abs=1e-10)
        outside = [k for k in range(20) if k not in sup]
        corr = X[:, outside].T @ (X[:, list(sup)] @ w) / 50
        _, margin = irrepresentable_check(d, sup, signs)
        assert margin == pytest.approx(1.0 - float(np.max(np.abs(corr))),
                                       abs=1e-10)

    def test_signs_follow_the_callers_support_order(self, rng):
        X = rng.standard_normal((30, 6))
        X[:, 4] += X[:, 0]
        d = Dataset(X, rng.standard_normal(30))
        sup, signs = (4, 0, 2), np.array([1.0, 1.0, -1.0])
        XS = X[:, list(sup)]
        w = np.linalg.solve(XS.T @ XS / 30, signs)
        expect = float(np.max(np.abs(w)))
        assert inverse_gram_sign_norm(d, sup, signs) == pytest.approx(
            expect, rel=1e-10)
        assert inverse_gram_sign_norm(d, (0, 2, 4), [1.0, -1.0, 1.0]) == \
            pytest.approx(expect, rel=1e-10)
        outside = [1, 3, 5]
        corr = X[:, outside].T @ (XS @ w) / 30
        _, margin = irrepresentable_check(d, sup, signs)
        assert margin == pytest.approx(1.0 - float(np.max(np.abs(corr))),
                                       rel=1e-10)

    def test_singular_gram_raises(self, rng):
        X = rng.standard_normal((15, 4))
        X[:, 1] = X[:, 0]
        d = Dataset(X, rng.standard_normal(15))
        with pytest.raises(SingularError):
            inverse_gram_sign_norm(d, (0, 1), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("support,signs", [
        ((-1,), None), ((-1, 2), None), ((0, 0), None), ((6,), None),
        ((0, 2), np.array([1.0])), ((0, 2), np.array([1.0, -1.0, 1.0])),
    ])
    def test_bad_support_or_signs_rejected(self, rng, support, signs):
        d = Dataset(rng.standard_normal((30, 6)), rng.standard_normal(30))
        with pytest.raises(DomainError):
            inverse_gram_sign_norm(d, support, signs)
        with pytest.raises(DomainError):
            irrepresentable_check(d, support, signs)


class TestNoiseEstimate:
    def test_recovers_variance_on_planted_instance(self):
        data, _ = planted_instance(9, 120, 10, [1.5, -1.2, 0.9], sigma=0.7)
        est = estimate_noise_variance(data)
        assert est == pytest.approx(0.49, rel=0.35)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            L0Config(lam=-1.0, max_support=3)
        with pytest.raises(DomainError):
            LassoConfig(lam=-0.5)
        with pytest.raises(DomainError):
            L0Config(lam=1.0, max_support=3, strategy="annealed")
