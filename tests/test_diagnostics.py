import math
from decimal import Decimal, getcontext
from itertools import combinations

import numpy as np
import pytest

import ewselect.diagnostics as diag
import ewselect.enumeration as enumeration
from ewselect import (Dataset, DomainError, TooLargeError, design_report,
                      is_identifiable, max_restricted_singular,
                      min_restricted_singular, signal_strength_threshold,
                      subset_min_singular)

from conftest import normalized_gaussian


def svd_oracle(X, s):
    """Per-subset smallest singular values of X_J/sqrt(n), one svd at a time."""
    n = X.shape[0]
    vals = [np.linalg.svd(X[:, list(c)] / math.sqrt(n), compute_uv=False)[-1]
            for c in combinations(range(X.shape[1]), s)]
    return min(vals), max(vals)


def eigvalsh_scan(G, s):
    """min and max of lambda_min(G_J) over all size-s subsets, by one
    unpruned batched eigvalsh over every Gram block."""
    subs = np.array(list(combinations(range(len(G)), s)),
                    dtype=np.intp).reshape(-1, s)
    lam = np.linalg.eigvalsh(G[subs[:, :, None], subs[:, None, :]])[:, 0]
    return float(lam.min()), float(lam.max())


def screened_scan(X, s):
    G = Dataset(X, np.zeros(len(X))).gram / len(X)
    return (diag._scan_min_eig(G, s, "min"), diag._scan_min_eig(G, s, "max"),
            eigvalsh_scan(G, s))


INTEGER_X = np.array([[2, 0, 1, 1],
                      [0, 3, 1, 0],
                      [1, 1, 1, 2],
                      [0, 1, 2, 1],
                      [1, 0, 0, 3],
                      [2, 2, 1, 0]], dtype=float)


class TestRestrictedSingularValues:
    def test_orthonormal_columns_give_one(self, rng):
        n = 16
        Q, _ = np.linalg.qr(rng.standard_normal((n, 6)))
        d = Dataset(Q * math.sqrt(n), rng.standard_normal(n))
        for s in (1, 2, 4, 6):
            assert min_restricted_singular(d, s) == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_columns_give_zero(self, rng):
        X = rng.standard_normal((12, 5))
        X[:, 4] = X[:, 2]
        d = Dataset(X, rng.standard_normal(12))
        assert min_restricted_singular(d, 2) <= 1e-12

    def test_integer_matrix_matches_eigensolver(self):
        X = INTEGER_X
        d = Dataset(X, np.zeros(6))
        lo, hi = svd_oracle(X, 2)
        assert min_restricted_singular(d, 2) == pytest.approx(lo, abs=1e-10)
        assert max_restricted_singular(d, 2) == pytest.approx(hi, abs=1e-10)

    def test_random_designs_match_oracle(self, rng):
        for p, s in ((10, 2), (12, 3), (15, 4)):
            X = rng.standard_normal((20, p))
            d = Dataset(X, rng.standard_normal(20))
            lo, hi = svd_oracle(X, s)
            assert min_restricted_singular(d, s) == pytest.approx(lo, abs=1e-10)
            assert max_restricted_singular(d, s) == pytest.approx(hi, abs=1e-10)

    def test_monotone_and_ordered(self, rng):
        X = normalized_gaussian(rng, 25, 9)
        d = Dataset(X, rng.standard_normal(25))
        nus = [min_restricted_singular(d, s) for s in range(1, 7)]
        kaps = [max_restricted_singular(d, s) for s in range(1, 7)]
        assert all(nus[i] >= nus[i + 1] - 1e-12 for i in range(5))
        assert all(kaps[i] >= kaps[i + 1] - 1e-12 for i in range(5))
        assert all(n <= k + 1e-12 for n, k in zip(nus, kaps))
        norm_bound = float(np.max(np.linalg.norm(X, axis=0))) / math.sqrt(25)
        assert kaps[0] <= norm_bound + 1e-9

    def test_mc_is_upper_bound_on_min(self, rng):
        X = rng.standard_normal((20, 11))
        d = Dataset(X, rng.standard_normal(20))
        exact = min_restricted_singular(d, 3)
        for seed in range(5):
            mc = min_restricted_singular(d, 3, mode="mc", samples=40, seed=seed)
            assert mc >= exact - 1e-12

    def test_pruned_scan_equals_direct(self, rng):
        X = normalized_gaussian(rng, 80, 22)
        d = Dataset(X, rng.standard_normal(80))
        lo, hi = eigvalsh_scan(d.gram / d.n, 3)
        assert min_restricted_singular(d, 3) == math.sqrt(lo)
        assert max_restricted_singular(d, 3) == math.sqrt(hi)

    @pytest.mark.parametrize("case", ["duplicates", "equicorrelated",
                                      "integer", "unit_norm", "gaussian",
                                      "n_below_s"])
    def test_screen_equals_unpruned_scan(self, rng, case):
        # both extremes of lambda_min, not their square roots, so that the
        # signs of rounding-level values of singular blocks are compared too
        if case == "duplicates":
            X = rng.standard_normal((30, 12))
            X[:, 7] = X[:, 2]
            X[:, 10] = -X[:, 4]
        elif case == "equicorrelated":
            # every block of X'X/n has lambda_min 0.5 up to rounding, so
            # rounding alone decides which of the C(24, 6) subsets holds the
            # smallest computed one
            S = np.full((24, 24), 0.5)
            np.fill_diagonal(S, 1.0)
            X = np.linalg.cholesky(S).T * math.sqrt(24)
        elif case == "integer":
            X = INTEGER_X
        elif case == "unit_norm":
            X = normalized_gaussian(rng, 50, 16)
        elif case == "gaussian":
            X = rng.standard_normal((40, 9))
        else:
            X = rng.standard_normal((3, 9))   # every subset of 4+ is singular
        p = X.shape[1]
        for s in (2, 6) if case == "equicorrelated" else range(2, p + 1):
            lo, hi, ref = screened_scan(X, s)
            assert (lo, hi) == ref, (case, s)

    def test_failed_prefix_marks_all_completions(self, rng):
        X = rng.standard_normal((30, 12))
        X[:, 7] = X[:, 2]
        G = X.T @ X / 30
        s = 5
        shift = diag._scan_min_eig(G, s, "min") + diag._rounding_margin(G, s)
        marked = {tuple(int(v) for v in row)
                  for rows in diag._shifted_cholesky_screen(G, s, shift, "min")
                  for row in rows}
        supersets = {c for c in combinations(range(12), s) if {2, 7} <= set(c)}
        assert supersets <= marked
        assert len(marked) == len(supersets)   # nothing else is near lo ~ 0

    def test_screen_eigensolves_few_subsets(self, rng):
        X = rng.standard_normal((60, 20))
        G = X.T @ X / 60
        s = 4
        for want in ("min", "max"):
            t = diag._scan_min_eig(G, s, want)
            delta = diag._rounding_margin(G, s)
            shift = t + delta if want == "min" else t - delta
            marked = sum(len(rows) for rows in
                         diag._shifted_cholesky_screen(G, s, shift, want))
            # t is attained, so at least one subset is marked; ties aside,
            # only that one is
            assert 1 <= marked <= 3, want

    @pytest.mark.parametrize("case", ["equicorrelated", "duplicates", "ar"])
    def test_screen_contract_near_ties(self, rng, monkeypatch, case):
        # shifts within a few delta of many subsets' lambda_min: the screen
        # yields every subset below shift - 2 delta and none above shift +
        # 2 delta (reversed for the maximum), and the min screen's pairwise
        # certificate drops no row the plain walk yields
        if case == "equicorrelated":
            S = np.full((24, 24), 0.5)
            np.fill_diagonal(S, 1.0)
            X = np.linalg.cholesky(S).T * math.sqrt(24)
        elif case == "duplicates":
            X = rng.standard_normal((30, 12))
            X[:, 7] = X[:, 2]
            X[:, 10] = -X[:, 4]
        else:
            # AR(0.8) blocks are Toeplitz, so a subset and its translates tie
            S = 0.8 ** np.abs(np.subtract.outer(np.arange(16), np.arange(16)))
            X = np.linalg.cholesky(S).T * 4.0
        n, p = X.shape
        s = 5
        G = X.T @ X / n
        subs = enumeration.subset_index_array(p, s)
        lam = np.linalg.eigvalsh(enumeration.gather_gram(G, subs))[:, 0]
        delta = diag._rounding_margin(G, s)
        # lambda_min of the subsets around the 1st, 50th and 99th percentile
        centres = np.quantile(lam, [0.01, 0.5, 0.99], method="nearest")
        shifts = [c + m * delta for c in centres for m in (-3, -1, 0, 1, 3)]
        assert max(np.sum(np.abs(lam - c) <= 3 * delta) for c in centres) > 1

        def screen(shift, want):
            rows = list(diag._shifted_cholesky_screen(G, s, shift, want))
            rows = np.concatenate(rows) if rows else np.empty((0, s), np.intp)
            return np.sort(enumeration.subset_rank(rows, p))

        for shift in shifts:
            for want in ("min", "max"):
                got = screen(shift, want)
                assert len(np.unique(got)) == len(got), (case, shift, want)
                low, high = lam < shift - 2 * delta, lam > shift + 2 * delta
                must, never = (low, high) if want == "min" else (high, low)
                assert set(np.flatnonzero(must)) <= set(got), (case, want)
                assert not set(np.flatnonzero(never)) & set(got), (case, want)
            with monkeypatch.context() as mp:
                mp.setattr(diag, "_pair_certificate", lambda A, s: None)
                plain = screen(shift, "min")
            np.testing.assert_array_equal(screen(shift, "min"), plain)

    def test_min_screen_forms_few_prefixes(self, monkeypatch):
        # the pairwise certificate keeps most size-3 prefixes of a (200, 50)
        # design at s = 5, and so most leaves, from being formed
        walk, formed = diag._cholesky_walk, []

        def counting(*args, **kwargs):
            for batch in walk(*args, **kwargs):
                if batch[0].shape[1] == 3:
                    formed[-1] += len(batch[0])
                yield batch
        monkeypatch.setattr(diag, "_cholesky_walk", counting)
        for seed in range(5):
            g = np.random.default_rng(seed)
            d = Dataset(g.standard_normal((200, 50)), g.standard_normal(200))
            formed.append(0)
            min_restricted_singular(d, 5, cap=math.comb(50, 5))
            assert 0 < formed[-1] <= 0.1 * math.comb(50, 3), (seed, formed)

    @pytest.mark.parametrize("s", [11, 12])
    def test_start_eigensolves_at_most_every_subset(self, rng, monkeypatch, s):
        # at s >= p - 1 there are at most p subsets: the scans eigensolve
        # them all and nothing else
        X = rng.standard_normal((40, 12))
        d = Dataset(X, rng.standard_normal(40))
        ref = eigvalsh_scan(d.gram / d.n, s)
        eigvalsh, blocks = np.linalg.eigvalsh, []

        def counting(a):
            blocks.append(len(a))
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for scan, lam in zip((min_restricted_singular,
                              max_restricted_singular), ref):
            blocks.clear()
            assert scan(d, s) == math.sqrt(lam)
            assert sum(blocks) <= math.comb(12, s)

    def test_cap_and_override(self, rng):
        X = rng.standard_normal((30, 60))
        d = Dataset(X, rng.standard_normal(30))
        with pytest.raises(TooLargeError):
            min_restricted_singular(d, 5)   # C(60,5) is over the cap
        with pytest.raises(DomainError):
            min_restricted_singular(d, 0)

    def test_mc_mode_ignores_exhaustive_cap(self, rng):
        # C(200, 5) is about 2.5e9 subsets, far over the cap, but mc mode
        # only eigensolves the sampled ones
        X = rng.standard_normal((100, 200))
        d = Dataset(X, rng.standard_normal(100))
        lo = min_restricted_singular(d, 5, mode="mc", samples=1000)
        hi = max_restricted_singular(d, 5, mode="mc", samples=1000)
        assert 0.0 < lo <= hi
        rep = design_report(d, 5, mode="mc", samples=1000)
        assert (rep.min_singular, rep.max_singular) == (lo, hi)
        assert rep.identifiable_2s is None
        with pytest.raises(TooLargeError):
            min_restricted_singular(d, 5)
        for s in (0, 201):
            with pytest.raises(DomainError):
                min_restricted_singular(d, s, mode="mc")

    def test_mc_samples_validated(self, rng):
        d = Dataset(rng.standard_normal((20, 6)), rng.standard_normal(20))
        for samples in (0, -3):
            with pytest.raises(DomainError):
                min_restricted_singular(d, 2, mode="mc", samples=samples)
            with pytest.raises(DomainError):
                max_restricted_singular(d, 2, mode="mc", samples=samples)

    def test_mc_negative_seed_rejected(self, rng):
        d = Dataset(rng.standard_normal((20, 6)), rng.standard_normal(20))
        for scan in (min_restricted_singular, max_restricted_singular):
            with pytest.raises(DomainError, match="seed"):
                scan(d, 2, mode="mc", seed=-1)

    def test_sample_blocks_equal_one_shot_draw(self, monkeypatch):
        p, s, count = 13, 4, 7
        u = np.random.default_rng(5).random((count, p))
        one_shot = np.sort(np.argpartition(u, s - 1, axis=1)[:, :s], axis=1)
        monkeypatch.setattr(enumeration, "_SCREEN_ELEMS", 3 * p)
        blocked = diag._sample_subsets(p, s, count, np.random.default_rng(5))
        np.testing.assert_array_equal(blocked, one_shot)
        assert blocked.dtype == np.intp

    def test_subset_min_singular(self, rng):
        X = rng.standard_normal((18, 7))
        d = Dataset(X, rng.standard_normal(18))
        J = (1, 4, 6)
        oracle = np.linalg.svd(X[:, list(J)] / math.sqrt(18),
                               compute_uv=False)[-1]
        assert subset_min_singular(d, J) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("J", [(), (2, 2), (1, 4, 1), (-1,), (0, 10)])
    def test_subset_min_singular_rejects_bad_subsets(self, small_data, J):
        with pytest.raises(DomainError):
            subset_min_singular(small_data, J)


class TestIdentifiability:
    def test_orthogonal_identifiable(self, rng):
        n = 20
        Q, _ = np.linalg.qr(rng.standard_normal((n, 8)))
        d = Dataset(Q * math.sqrt(n), rng.standard_normal(n))
        assert is_identifiable(d, 2)

    def test_duplicate_not_identifiable(self, rng):
        X = rng.standard_normal((15, 6))
        X[:, 5] = -X[:, 0]
        d = Dataset(X, rng.standard_normal(15))
        assert not is_identifiable(d, 1)

    def test_rank_rule_matches_package(self):
        # column 3 is an exact combination of columns 1 and 4: every
        # 4-subset containing {1, 3, 4} is singular, and its computed
        # smallest singular value (1.8e-8 here) is rounding noise above
        # EPS_RANK but below sqrt(EPS_RANK)
        rng = np.random.default_rng(187)
        X = rng.standard_normal((30, 6))
        X[:, 3] = 3.0 * X[:, 1] - 0.7 * X[:, 4]
        d = Dataset(X, rng.standard_normal(30))
        assert 0.0 < min_restricted_singular(d, 4) < 1e-6
        assert not is_identifiable(d, 2)
        assert design_report(d, 2).identifiable_2s is False

    def test_near_duplicate_pair_not_identifiable(self, rng):
        X = rng.standard_normal((50, 4))
        X[:, 1] = X[:, 0] + 1e-7 * rng.standard_normal(50)
        d = Dataset(X, rng.standard_normal(50))
        assert not is_identifiable(d, 1)

    def test_random_gaussian_identifiable(self, rng):
        X = rng.standard_normal((30, 10))
        d = Dataset(X, rng.standard_normal(30))
        assert is_identifiable(d, 2)
        assert min_restricted_singular(d, 4) > 1e-3


class TestSignalThreshold:
    def test_zero_noise(self):
        assert signal_strength_threshold(0.0, 5.0, 100, 0.5) == 0.0

    def test_halving_nu_doubles(self):
        a = signal_strength_threshold(1.0, 5.0, 100, 0.5)
        b = signal_strength_threshold(1.0, 5.0, 100, 0.25)
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_high_precision_value(self):
        getcontext().prec = 50
        sigma, lam, n, nu = 1.0, 4.0 * math.log(200), 100, 0.5
        oracle = (Decimal(3) * Decimal(sigma)
                  * (Decimal(lam) / Decimal(n)).sqrt() / Decimal(nu))
        got = signal_strength_threshold(sigma, lam, n, nu)
        assert got == pytest.approx(float(oracle), rel=1e-12)

    def test_domain(self):
        for sigma, lam, nu in [(1.0, 5.0, 0.0), (math.nan, 5.0, 0.5),
                               (math.inf, 5.0, 0.5), (1.0, math.nan, 0.5),
                               (1.0, math.inf, 0.5)]:
            with pytest.raises(DomainError):
                signal_strength_threshold(sigma, lam, 100, nu)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_rejected(self, nu):
        with pytest.raises(DomainError, match="nu"):
            signal_strength_threshold(1.0, 5.0, 100, nu)


class TestDesignReport:
    def test_fields_and_threshold(self, rng):
        X = normalized_gaussian(rng, 40, 10)
        d = Dataset(X, rng.standard_normal(40), 1.0)
        rep = design_report(d, 3, lam=10.0)
        assert rep.s == 3
        assert 0 < rep.min_singular <= rep.max_singular
        assert rep.identifiable_2s is True
        assert rep.signal_threshold == pytest.approx(
            signal_strength_threshold(1.0, 10.0, 40, rep.min_singular))

    def test_mc_mode_flagged(self, rng):
        X = normalized_gaussian(rng, 40, 10)
        d = Dataset(X, rng.standard_normal(40))
        rep = design_report(d, 3, mode="mc", samples=64, seed=2)
        assert rep.mode == "mc"
        assert rep.samples == 64
        assert rep.identifiable_2s is None
