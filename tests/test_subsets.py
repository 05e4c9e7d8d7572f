import math

import numpy as np
import pytest

from ewselect import (Dataset, DomainError, NonFiniteError, PosteriorConfig,
                      empty_state, least_squares_min_norm, make_state,
                      rescale_columns, residual_ss, update_add, update_remove)
from ewselect.enumeration import batched_rss
from ewselect.subsets import EPS_RANK, peek_rss_add, peek_rss_remove

from conftest import normalized_gaussian

CFG = PosteriorConfig(lam=2.0, max_support=10, sigma2=1.0)


def qr_projection_rss(X, y, J):
    """Independent oracle: rss via an orthonormal basis from QR."""
    if not J:
        return float(y @ y)
    Q, R = np.linalg.qr(X[:, list(J)])
    r = y - Q @ (Q.T @ y)
    return float(r @ r)


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
        with pytest.raises(NonFiniteError):
            Dataset(np.ones((2, 2)), np.array([1.0, np.inf]))

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Dataset(np.ones((3, 2)), np.ones(4))

    def test_arrays_are_read_only(self, small_data):
        with pytest.raises(ValueError):
            small_data.X[0, 0] = 5.0

    def test_normalization_check(self, rng):
        X = normalized_gaussian(rng, 20, 6)
        d = Dataset(X, rng.standard_normal(20))
        assert d.max_normalization_error() <= 1e-9
        d.assert_normalized()
        bad = Dataset(2.0 * X, rng.standard_normal(20))
        with pytest.raises(DomainError):
            bad.assert_normalized()

    def test_rescale_roundtrip(self, rng):
        X = rng.standard_normal((12, 4)) * np.array([1.0, 3.0, 0.2, 7.0])
        Xs, scales = rescale_columns(X)
        np.testing.assert_allclose(np.linalg.norm(Xs, axis=0),
                                   math.sqrt(12), rtol=1e-12)
        np.testing.assert_allclose(Xs * scales, X, rtol=1e-12)
        with pytest.raises(DomainError):
            rescale_columns(np.zeros((3, 2)))


class TestLeastSquaresMinNorm:
    def test_empty_support_gives_zero(self, small_data):
        assert np.all(least_squares_min_norm(small_data, ()) == 0.0)

    def test_orthogonal_design_closed_form(self, rng):
        n = 16
        Q, _ = np.linalg.qr(rng.standard_normal((n, 5)))
        X = Q * math.sqrt(n)
        y = rng.standard_normal(n)
        d = Dataset(X, y)
        beta = least_squares_min_norm(d, (0, 2, 4))
        for j in (0, 2, 4):
            assert beta[j] == pytest.approx(float(X[:, j] @ y) / n, rel=1e-12)
        assert beta[1] == beta[3] == 0.0

    def test_duplicated_column_matches_pinv(self, rng):
        X = rng.standard_normal((8, 5))
        X[:, 2] = X[:, 0]
        y = rng.standard_normal(8)
        d = Dataset(X, y)
        beta = least_squares_min_norm(d, (0, 2, 4))
        oracle = np.zeros(5)
        oracle[[0, 2, 4]] = np.linalg.pinv(X[:, [0, 2, 4]]) @ y
        np.testing.assert_allclose(beta, oracle, atol=1e-8)

    def test_random_instances_match_pinv(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 20))
            p = int(rng.integers(2, 12))
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            d = Dataset(X, y)
            size = int(rng.integers(1, p + 1))
            J = sorted(rng.choice(p, size=size, replace=False).tolist())
            oracle = np.zeros(p)
            oracle[J] = np.linalg.pinv(X[:, J]) @ y
            got = least_squares_min_norm(d, J)
            np.testing.assert_allclose(
                got, oracle, atol=1e-8 * max(1.0, np.linalg.norm(oracle)))

    def test_bad_subsets_rejected(self, small_data):
        with pytest.raises(DomainError):
            least_squares_min_norm(small_data, (0, 0))
        with pytest.raises(DomainError):
            least_squares_min_norm(small_data, (99,))

    def test_near_collinear_pair_follows_the_shared_rank_rule(self):
        # squared singular value ~2e-11, under EPS_RANK * n = 5e-9: every
        # least-squares path drops that direction and gives the same fit
        rng = np.random.default_rng(0)
        n = 50
        X = rng.standard_normal((n, 2))
        X[:, 1] = X[:, 0] + 1e-6 * rng.standard_normal(n)
        d = Dataset(X, X[:, 0] + rng.standard_normal(n))
        assert np.linalg.svd(X, compute_uv=False)[-1] ** 2 < EPS_RANK * n
        beta = least_squares_min_norm(d, (0, 1))
        _, _, rows = batched_rss(d.gram, d.xty, d.yty, np.array([[0, 1]]),
                                 EPS_RANK * n)
        np.testing.assert_allclose(beta, rows[0], rtol=1e-8)
        r = d.y - X @ beta
        assert float(r @ r) == pytest.approx(residual_ss(d, (0, 1)), rel=1e-10)
        st = make_state(d, (0, 1), CFG)
        assert not st.full_rank
        idx, val = st.beta_sparse(d)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(val, beta, rtol=1e-12)


class TestResidualSS:
    def test_empty_is_y_norm(self, small_data):
        assert residual_ss(small_data, ()) == pytest.approx(
            float(small_data.y @ small_data.y), rel=1e-14)

    def test_spanning_support_is_zero(self, rng):
        X = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        d = Dataset(X, y)
        assert residual_ss(d, range(8)) <= 1e-8 * float(y @ y)

    def test_matches_qr_oracle(self, rng):
        X = rng.standard_normal((10, 6))
        y = rng.standard_normal(10)
        d = Dataset(X, y)
        assert residual_ss(d, (1, 3)) == pytest.approx(
            qr_projection_rss(X, y, (1, 3)), rel=1e-8)

    def test_invariant_to_representative(self, rng):
        # duplicated column: same span, same rss
        X = rng.standard_normal((12, 6))
        X[:, 4] = X[:, 1]
        y = rng.standard_normal(12)
        d = Dataset(X, y)
        assert residual_ss(d, (1, 4)) == pytest.approx(
            residual_ss(d, (1,)), rel=1e-10)

    def test_monotone_under_nesting(self, rng):
        X = rng.standard_normal((20, 9))
        y = rng.standard_normal(20)
        d = Dataset(X, y)
        yty = float(y @ y)
        for _ in range(20):
            size = int(rng.integers(1, 8))
            J = sorted(rng.choice(9, size=size, replace=False).tolist())
            sub = sorted(rng.choice(J, size=int(rng.integers(0, len(J))),
                                    replace=False).tolist())
            assert residual_ss(d, J) <= residual_ss(d, sub) + 1e-8 * yty

    def test_orthogonal_decomposition(self, rng):
        X = rng.standard_normal((14, 7))
        y = rng.standard_normal(14)
        d = Dataset(X, y)
        for J in [(0,), (1, 4), (0, 2, 5, 6)]:
            Q, _ = np.linalg.qr(X[:, list(J)])
            proj = Q @ (Q.T @ y)
            total = residual_ss(d, J) + float(proj @ proj)
            assert total == pytest.approx(float(y @ y), rel=1e-8)


class TestIncrementalUpdates:
    def test_add_single_column_formula(self, rng):
        n = 12
        X = normalized_gaussian(rng, n, 5)
        y = rng.standard_normal(n)
        d = Dataset(X, y)
        st = update_add(empty_state(d, CFG), 3, d)
        expect = float(y @ y) - float(X[:, 3] @ y) ** 2 / n
        assert st.rss == pytest.approx(expect, rel=1e-12)

    def test_add_duplicate_keeps_rss(self, rng):
        X = rng.standard_normal((10, 4))
        X[:, 2] = X[:, 0]
        d = Dataset(X, rng.standard_normal(10))
        st = make_state(d, (0,), CFG)
        st2 = update_add(st, 2, d)
        assert not st2.full_rank
        assert st2.rss == pytest.approx(st.rss, rel=1e-10)

    def test_remove_from_singleton(self, rng):
        X = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        d = Dataset(X, y)
        st = update_remove(make_state(d, (1,), CFG), 1, d)
        assert st.support == ()
        assert st.rss == pytest.approx(float(y @ y), rel=1e-12)

    def test_walk_matches_batch(self, rng):
        X = rng.standard_normal((15, 10))
        y = rng.standard_normal(15)
        d = Dataset(X, y)
        st = empty_state(d, CFG)
        active = set()
        for _ in range(20):
            if active and (rng.random() < 0.5 or len(active) >= 8):
                j = int(rng.choice(sorted(active)))
                assert peek_rss_remove(st, j, d) == pytest.approx(
                    residual_ss(d, sorted(active - {j})), rel=1e-8, abs=1e-10)
                st = update_remove(st, j, d)
                active.discard(j)
            else:
                j = int(rng.choice([k for k in range(10) if k not in active]))
                assert peek_rss_add(st, j, d) == pytest.approx(
                    residual_ss(d, sorted(active | {j})), rel=1e-8, abs=1e-10)
                st = update_add(st, j, d)
                active.add(j)
            assert st.support == tuple(sorted(active))
            assert st.rss == pytest.approx(residual_ss(d, st.support),
                                           rel=1e-8, abs=1e-10)

    def test_long_walk_stays_accurate(self, rng):
        # exercises the drift bookkeeping over many updates
        X = rng.standard_normal((25, 12))
        y = rng.standard_normal(25)
        d = Dataset(X, y)
        st = empty_state(d, CFG)
        active = set()
        for step in range(600):
            if active and (rng.random() < 0.5 or len(active) >= 10):
                j = int(rng.choice(sorted(active)))
                st = update_remove(st, j, d)
                active.discard(j)
            else:
                j = int(rng.choice([k for k in range(12) if k not in active]))
                st = update_add(st, j, d)
                active.add(j)
            if step % 97 == 0:
                assert st.rss == pytest.approx(residual_ss(d, st.support),
                                               rel=1e-8, abs=1e-10)
        assert st.rss == pytest.approx(residual_ss(d, st.support),
                                       rel=1e-8, abs=1e-10)

    def test_degenerate_recovery(self, rng):
        X = rng.standard_normal((10, 5))
        X[:, 3] = 2.0 * X[:, 1]
        d = Dataset(X, rng.standard_normal(10))
        st = make_state(d, (1, 3), CFG)
        assert not st.full_rank
        back = update_remove(st, 1, d)
        assert back.full_rank
        assert back.rss == pytest.approx(residual_ss(d, (3,)), rel=1e-10)

    def test_log_weight_consistency(self, rng):
        X = rng.standard_normal((12, 6))
        y = rng.standard_normal(12)
        d = Dataset(X, y)
        from ewselect.priors import log_prior
        st = make_state(d, (0, 4), CFG)
        expect = log_prior(2, 6, CFG) - st.rss / (2.0 * CFG.sigma2)
        assert st.log_weight == pytest.approx(expect, rel=1e-12)

    def test_zero_response_never_refactorizes(self, rng, monkeypatch):
        # with y = 0 every qty entry and every RSS is exactly 0, so the drift
        # bound DRIFT_LIMIT * (rss + eps * y'y) must not force a rebuild
        import ewselect.subsets as subsets
        calls = []
        real = subsets.make_state

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(subsets, "make_state", counting)
        d = Dataset(rng.standard_normal((8, 5)), np.zeros(8))
        st = empty_state(d, CFG)
        for j in range(4):
            st = update_add(st, j, d)
        for j in (1, 3):
            st = update_remove(st, j, d)
        assert calls == []
        assert st.support == (0, 2)
        assert st.rss == 0.0

    def test_update_preconditions(self, small_data):
        st = make_state(small_data, (0, 1), CFG)
        with pytest.raises(DomainError):
            update_add(st, 0, small_data)
        with pytest.raises(DomainError):
            update_remove(st, 5, small_data)


class TestSplitProjectionBound:
    def test_projected_signal_dominates_smallest_singular_value(self, rng):
        # for X = [X1 X2] with smallest singular value delta,
        # ||(I - P2) X1 b1|| >= delta ||b1|| on random splits
        for _ in range(50):
            X = rng.standard_normal((20, 8))
            delta = np.linalg.svd(X, compute_uv=False)[-1]
            k = int(rng.integers(1, 8))
            cols = rng.permutation(8)
            one, two = sorted(cols[:k].tolist()), sorted(cols[k:].tolist())
            b1 = rng.standard_normal(k)
            v = X[:, one] @ b1
            if two:
                Q, _ = np.linalg.qr(X[:, two])
                v = v - Q @ (Q.T @ v)
            assert np.linalg.norm(v) >= delta * np.linalg.norm(b1) - 1e-10
