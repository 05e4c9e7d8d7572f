import math

import numpy as np
import pytest

from ewselect import (Dataset, DomainError, NonFiniteError, empty_state,
                      least_squares_min_norm, make_state, rescale_columns,
                      residual_ss, update_add, update_remove)
from ewselect.enumeration import _subset_fits
from ewselect.subsets import (EPS_RANK, _ROUNDING, Neighbours, _schur_step,
                              peek_rss_add)

from conftest import normalized_gaussian


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

    def test_x_is_stored_once(self, small_data):
        X, xt = small_data.X, small_data.xt
        assert np.shares_memory(xt, X)
        assert X.flags.f_contiguous and not X.flags.writeable
        assert xt.flags.c_contiguous and not xt.flags.writeable

    def test_frozen_owning_arrays_are_kept(self, rng):
        # a read-only, column-major array that owns its data is kept; any
        # other input is copied, so no caller's array is aliased or frozen
        frozen = np.asfortranarray(rng.standard_normal((6, 3)))
        y = rng.standard_normal(6)
        frozen.setflags(write=False)
        y.setflags(write=False)
        data = Dataset(frozen, y)
        assert data.X is frozen and data.y is y
        writable = np.asfortranarray(rng.standard_normal((6, 3)))
        view = frozen[:, :2]
        c_order = np.ascontiguousarray(frozen)
        c_order.setflags(write=False)
        for X in (writable, view, c_order):
            data = Dataset(X, y)
            assert not np.shares_memory(data.X, X)
            assert np.array_equal(data.X, X)
            assert data.X.flags.f_contiguous and not data.X.flags.writeable
        assert writable.flags.writeable

    def test_normalization_check(self, rng):
        X = normalized_gaussian(rng, 20, 6)
        d = Dataset(X, rng.standard_normal(20))
        assert d.max_normalization_error() <= 1e-9

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
        _, rows, full = _subset_fits(d, 2)[2]   # the one row is (0, 1)
        assert not full[0]
        np.testing.assert_allclose(beta, rows[0], rtol=1e-8)
        r = d.y - X @ beta
        assert float(r @ r) == pytest.approx(residual_ss(d, (0, 1)), rel=1e-10)
        st = make_state(d, (0, 1))
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
        st = update_add(empty_state(d), 3, d)
        expect = float(y @ y) - float(X[:, 3] @ y) ** 2 / n
        assert st.rss == pytest.approx(expect, rel=1e-12)

    def test_add_duplicate_keeps_rss(self, rng):
        X = rng.standard_normal((10, 4))
        X[:, 2] = X[:, 0]
        d = Dataset(X, rng.standard_normal(10))
        st = make_state(d, (0,))
        st2 = update_add(st, 2, d)
        assert not st2.full_rank
        assert st2.rss == pytest.approx(st.rss, rel=1e-10)

    def test_remove_from_singleton(self, rng):
        X = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        d = Dataset(X, y)
        st = update_remove(make_state(d, (1,)), 1, d)
        assert st.support == ()
        assert st.rss == pytest.approx(float(y @ y), rel=1e-12)

    def test_walk_matches_batch(self, rng):
        X = rng.standard_normal((15, 10))
        y = rng.standard_normal(15)
        d = Dataset(X, y)
        st = empty_state(d)
        active = set()
        for _ in range(20):
            if active and (rng.random() < 0.5 or len(active) >= 8):
                j = int(rng.choice(sorted(active)))
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
        # hundreds of adds and re-appending removals stay on the batch RSS
        X = rng.standard_normal((25, 12))
        y = rng.standard_normal(25)
        d = Dataset(X, y)
        st = empty_state(d)
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
        st = make_state(d, (1, 3))
        assert not st.full_rank
        back = update_remove(st, 1, d)
        assert back.full_rank
        assert back.rss == pytest.approx(residual_ss(d, (3,)), rel=1e-10)

    def test_zero_response_never_refactorizes(self, rng, monkeypatch):
        # with y = 0 every qty entry and every RSS is exactly 0; full-rank
        # updates, removals included, never rebuild a state from scratch
        import ewselect.subsets as subsets
        calls = []
        real = subsets.make_state

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(subsets, "make_state", counting)
        d = Dataset(rng.standard_normal((8, 5)), np.zeros(8))
        st = empty_state(d)
        for j in range(4):
            st = update_add(st, j, d)
        for j in (1, 3):
            st = update_remove(st, j, d)
        assert calls == []
        assert st.support == (0, 2)
        assert st.rss == 0.0

    def test_deficient_fold_solves_once(self, rng, monkeypatch):
        # a failed pivot decides the rank: the fold stops there, and the
        # one SVD is the one for all of J
        import ewselect.subsets as subsets
        X = rng.standard_normal((30, 12))
        X[:, 1] = X[:, 0]
        d = Dataset(X, rng.standard_normal(30))
        calls = []
        real = subsets.residual_ss

        def counting(data, J):
            calls.append(tuple(J))
            return real(data, J)

        monkeypatch.setattr(subsets, "residual_ss", counting)
        st = make_state(d, range(12))
        assert not st.full_rank
        assert calls == [tuple(range(12))]
        assert st.rss == real(d, range(12))

    def test_update_preconditions(self, small_data):
        st = make_state(small_data, (0, 1))
        with pytest.raises(DomainError):
            update_add(st, 0, small_data)
        with pytest.raises(DomainError):
            update_remove(st, 5, small_data)


class TestGramFreeStep:
    """The chain's Schur step reads X (xt, col_sq), never the p x p Gram."""

    def wide_design(self, rng):
        X = rng.standard_normal((40, 300))
        X[:, 7] = X[:, 3]                       # duplicated column
        X[:, 12] = X[:, 3] - 2.0 * X[:, 5]      # dependent column
        return Dataset(X, rng.standard_normal(40))

    def test_steps_match_dense_references(self, rng, no_gram):
        d = self.wide_design(rng)
        tol = 1e-12 * d.yty
        st = empty_state(d)
        deficient = 0
        fixed = [3, 5, 7, 12, 0, 299, 150]
        rest = [int(j) for j in rng.permutation(300) if j not in fixed][:28]
        for j in fixed + rest:
            J = st.support + (j,)
            assert peek_rss_add(st, j, d) == pytest.approx(residual_ss(d, J),
                                                           abs=tol)
            st = update_add(st, j, d)
            assert st.rss == pytest.approx(residual_ss(d, J), abs=tol)
            assert st.full_rank == make_state(d, J).full_rank
            deficient += not st.full_rank
            idx, val = st.beta_sparse(d)
            np.testing.assert_allclose(
                val, least_squares_min_norm(d, J)[idx], rtol=1e-7, atol=1e-8)
            if not st.full_rank:   # drop the dependent column again
                st = update_remove(st, j, d)
        assert deficient == 2      # 7 duplicates 3, 12 depends on 3 and 5


class TestExactStates:
    """Every full-rank state is the Cholesky fold of update_add over its own
    order, bit for bit, however the chain reached it."""

    @staticmethod
    def wide_design(rng):
        X = rng.standard_normal((12, 30))
        X[:, 7] = X[:, 3]                       # duplicated column
        X[:, 12] = X[:, 3] - 2.0 * X[:, 5]      # dependent column
        return Dataset(X, rng.standard_normal(12))

    @pytest.mark.parametrize("wide", [False, True])
    def test_walk_states_equal_the_fold(self, rng, monkeypatch, wide):
        import ewselect.subsets as subsets
        calls = []
        real = subsets.make_state

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(subsets, "make_state", counting)
        d = (self.wide_design(rng) if wide else
             Dataset(rng.standard_normal((25, 12)), rng.standard_normal(25)))
        st = empty_state(d)
        removals = deficient = 0
        for _ in range(400):
            if st.size and (rng.random() < 0.5 or st.size >= 9):
                j = int(rng.choice(st.support))
                before = len(calls)
                was_full = st.linv is not None
                st = update_remove(st, j, d)
                if was_full:
                    removals += 1
                    assert len(calls) == before
            else:
                j = int(rng.choice([k for k in range(d.p)
                                    if k not in st.support]))
                rss = peek_rss_add(st, j, d)
                st = update_add(st, j, d)
                assert rss == st.rss
            if st.linv is None:
                deficient += 1
                continue
            ref = empty_state(d)
            for v in st.order:
                ref = update_add(ref, v, d)
            assert ref.support == st.support
            assert np.array_equal(ref.linv, st.linv)
            assert np.array_equal(ref.qty, st.qty)
            assert ref.rss == st.rss
        assert removals > 100
        assert (deficient > 0) == wide

    @pytest.mark.parametrize("design", ["gaussian", "exact", "gram_free"])
    def test_states_hold_the_inverse_factor(self, rng, design):
        # linv G_J linv' = I for G_J = X_J'X_J in `order`, and diag(linv)
        # is 1 / sqrt of each pivot of the fold over `order`
        d = (TestGramFreeStep().wide_design(rng) if design == "gram_free"
             else self.wide_design(rng) if design == "exact"
             else Dataset(rng.standard_normal((25, 12)),
                          rng.standard_normal(25)))
        st = empty_state(d)
        checked = 0
        for _ in range(200):
            if st.size and (rng.random() < 0.5 or st.size >= 9):
                st = update_remove(st, int(rng.choice(st.support)), d)
            else:
                st = update_add(st, int(rng.choice(
                    [k for k in range(d.p) if k not in st.support])), d)
            for s in (st, make_state(d, st.support)):
                if s.linv is None:
                    continue
                XJ = d.X[:, s.order]
                np.testing.assert_allclose(s.linv @ (XJ.T @ XJ) @ s.linv.T,
                                           np.eye(s.size), rtol=0, atol=1e-9)
                for i, j in enumerate(s.order):
                    _, sc, _ = _schur_step(s.order[:i], s.linv[:i, :i].copy(),
                                           s.qty[:i], j, d)
                    assert s.linv[i, i] == 1.0 / math.sqrt(sc)
                checked += 1
        assert checked > 200

    def test_removal_copies_the_kept_rows(self, rng):
        d = Dataset(rng.standard_normal((20, 6)), rng.standard_normal(20))
        st = make_state(d, (0, 1, 2, 3))
        for j in (0, 2, 3):
            out = update_remove(st, j, d)
            for name in ("order", "linv", "qty"):
                assert not np.shares_memory(getattr(out, name),
                                            getattr(st, name))


class TestNeighbours:
    """The batched scorer against the states update_remove / update_add
    build: every add, drop and swap of a few full-rank states."""

    @staticmethod
    def scored_and_built(d, st):
        out = [j for j in range(d.p) if j not in st.support]
        moves = [(-1, j) for j in out]
        built = [update_add(st, j, d) for j in out]
        for i in st.support:
            rem = update_remove(st, i, d)
            moves += [(i, -1)] + [(i, j) for j in out]
            built += [rem] + [update_add(rem, j, d) for j in out]
        drops, adds = zip(*moves)
        rss, slack = Neighbours(st, d).rss(drops, adds)
        return rss, slack, built

    @pytest.mark.parametrize("design", ["gram_free", "exact", "gaussian"])
    def test_scores_match_built_states(self, rng, design):
        d = (TestGramFreeStep().wide_design(rng) if design == "gram_free"
             else TestExactStates.wide_design(rng) if design == "exact"
             else Dataset(rng.standard_normal((25, 12)),
                          rng.standard_normal(25)))
        tol = 1e-12 * (1.0 + d.yty)
        flagged = 0
        for cols in [(), (5,), (3, 0, 5), (9, 3, 1, 5, 11),
                     (10, 4, 3, 6, 2, 8, 5, 0)]:
            st = empty_state(d)
            for j in cols:
                st = update_add(st, j, d)
            st = update_remove(st, cols[-1], d) if len(cols) > 4 else st
            assert st.full_rank
            rss, slack, built = self.scored_and_built(d, st)
            deficient = np.isinf(slack)
            assert deficient.tolist() == [not b.full_rank for b in built]
            for r, bound, b in zip(rss, slack, built):
                if b.full_rank:
                    assert abs(r - b.rss) <= min(tol, bound)
            flagged += int(deficient.sum())
        # 7 repeats 3 and 12 is 3 - 2 * 5 in both wide designs
        assert (flagged > 0) == (design != "gaussian")

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_slack_bounds_ill_conditioned_gaps(self, rng, delta):
        # column 7 is 3 and column 9 is 3 - 2 * 5, each plus delta-sized
        # noise: supports holding them are full rank but ill-conditioned,
        # and at delta 1e-4 the gaps outgrow the slack's scale 5 times over
        X = rng.standard_normal((30, 14))
        X[:, 7] = X[:, 3] + delta * rng.standard_normal(30)
        X[:, 9] = X[:, 3] - 2.0 * X[:, 5] + delta * rng.standard_normal(30)
        d = Dataset(X, 1.2 * X[:, 3] - X[:, 5] + rng.standard_normal(30))
        worst = 0.0
        for cols in [(3,), (3, 7), (3, 5, 9), (1, 3, 7, 9), (5, 7, 9)]:
            st = make_state(d, cols)
            assert st.full_rank
            rss, slack, built = self.scored_and_built(d, st)
            assert np.isinf(slack).tolist() == [not b.full_rank
                                                for b in built]
            for r, bound, b in zip(rss, slack, built):
                if b.full_rank:
                    assert abs(r - b.rss) <= bound
                    worst = max(worst, abs(r - b.rss))
        if delta == 1e-4:
            assert worst > _ROUNDING * (1.0 + d.yty)


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
