import math

import numpy as np
import pytest

from ewselect import (Dataset, PosteriorConfig, enumerate_posterior,
                      exact_estimators, subset_min_singular)
from ewselect.enumeration import batched_rss, gather_gram, subset_index_array
from ewselect.subsets import EPS_RANK, least_squares_min_norm, residual_ss


def designs(rng):
    """Random, duplicate-column, dependent-column and wide designs."""
    X = rng.standard_normal((20, 7))
    yield Dataset(X, rng.standard_normal(20))
    X = rng.standard_normal((20, 7))
    X[:, 4] = X[:, 1]
    yield Dataset(X, rng.standard_normal(20))
    X = rng.standard_normal((20, 7))
    X[:, 6] = X[:, 0] - 2.0 * X[:, 3]
    yield Dataset(X, rng.standard_normal(20))
    X = rng.standard_normal((3, 7))    # every subset of 4 or more is deficient
    yield Dataset(X, rng.standard_normal(3))


class TestBatchedRss:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_rows_match_dense_solvers(self, rng, s):
        for d in designs(rng):
            subs = subset_index_array(d.p, s)
            rss, min_eig, beta = batched_rss(d.gram, d.xty, d.yty, subs,
                                             EPS_RANK * d.n)
            assert rss.shape == min_eig.shape == (len(subs),)
            assert beta.shape == subs.shape
            for row, J in enumerate(subs):
                J = tuple(int(v) for v in J)
                assert rss[row] == pytest.approx(residual_ss(d, J),
                                                 abs=1e-9 * d.yty)
                np.testing.assert_allclose(
                    beta[row], least_squares_min_norm(d, J)[list(J)],
                    rtol=1e-7, atol=1e-8)
                assert min_eig[row] == pytest.approx(
                    d.n * subset_min_singular(d, J) ** 2, abs=1e-9 * d.n)

    def test_empty_subset_rows(self, small_data):
        subs = subset_index_array(small_data.p, 0)
        rss, min_eig, beta = batched_rss(small_data.gram, small_data.xty,
                                         small_data.yty, subs, 1e-9)
        assert rss.tolist() == [small_data.yty]
        assert min_eig.tolist() == [math.inf]
        assert beta.shape == (1, 0)

    def test_gather_gram_blocks(self, small_data):
        subs = subset_index_array(small_data.p, 3)[::11]
        blocks = gather_gram(small_data.gram, subs)
        for J, GJ in zip(subs, blocks):
            np.testing.assert_array_equal(GJ, small_data.gram[np.ix_(J, J)])


class TestEnumerationMeans:
    def test_exact_estimators_solves_no_eigenproblem(self, rng, monkeypatch):
        X = rng.standard_normal((25, 9))
        X[:, 8] = X[:, 2]
        d = Dataset(X, rng.standard_normal(25))
        table = enumerate_posterior(
            d, PosteriorConfig(lam=1.0, max_support=3, sigma2=1.0))

        def no_eigh(*args, **kwargs):
            raise AssertionError("exact_estimators re-solved an eigenproblem")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        est = exact_estimators(table, d)
        oracle = sum(pr * least_squares_min_norm(d, sub)
                     for sub, _, pr in table.entries())
        np.testing.assert_allclose(est.mean_beta, oracle, atol=1e-12)
        np.testing.assert_array_equal(
            est.map_beta, least_squares_min_norm(d, table.map_subset))
