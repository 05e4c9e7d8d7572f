import math
from itertools import combinations

import numpy as np
import pytest

from ewselect import (DomainError, Dataset, L0Config, PosteriorConfig,
                      enumerate_posterior, exact_estimators, l0_select,
                      make_state, max_restricted_singular,
                      min_restricted_singular)
from ewselect.baselines import _exhaustive_l0
import ewselect.diagnostics as diagnostics
import ewselect.enumeration as enumeration
from ewselect.enumeration import (_subset_fits, gather_gram,
                                  subset_count, subset_index_array,
                                  subset_rank)
from ewselect.priors import practical_lambda
from ewselect.subsets import EPS_RANK, least_squares_min_norm, residual_ss

from conftest import planted_instance


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
    """The per-size (rss, beta, full_rank) rows of the prefix-sharing walk."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_rows_match_dense_solvers(self, rng, s):
        for d in designs(rng):
            subs = subset_index_array(d.p, s)
            rss, beta, full = _subset_fits(d, s)[s]
            assert rss.shape == full.shape == (len(subs),)
            assert beta.shape == subs.shape
            for row, J in enumerate(subs):
                J = tuple(int(v) for v in J)
                assert rss[row] == pytest.approx(residual_ss(d, J),
                                                 abs=1e-12 * d.yty)
                np.testing.assert_allclose(
                    beta[row], least_squares_min_norm(d, J)[list(J)],
                    rtol=1e-7, atol=1e-8)

    def test_coefficients_on_an_ill_conditioned_design(self, rng):
        # column 5 is column 2 plus 1e-4 noise: its pivot after column 2 is
        # about 8e-9 n, small but 80 times the rank rule's EPS_RANK * n
        X = rng.standard_normal((30, 8))
        X[:, 5] = X[:, 2] + 1e-4 * rng.standard_normal(30)
        d = Dataset(X, X[:, [2, 5, 6]] @ [1.0, 1.0, -1.0]
                    + 0.5 * rng.standard_normal(30))
        G = d.gram
        pivot = G[5, 5] - G[2, 5] ** 2 / G[2, 2]
        assert EPS_RANK * d.n < pivot < 1e-7 * d.n
        worst = 0.0
        for k, (_, beta, full) in enumerate(_subset_fits(d, 4)):
            assert full.all()
            for J, b in zip(subset_index_array(d.p, k), beta):
                if k:
                    ref = least_squares_min_norm(d, J)[list(J)]
                    worst = max(worst, np.max(np.abs(b - ref))
                                / np.max(np.abs(ref)))
        # about 3x the worst error of a triangular solve per subset (6.1e-8)
        assert worst <= 2e-7

    def test_empty_subset_rows(self, small_data):
        [(rss, beta, full)] = _subset_fits(small_data, 0)
        assert rss.tolist() == [small_data.yty]
        assert full.tolist() == [True]
        assert beta.shape == (1, 0)

    def test_exhaustive_l0_reads_rss_only(self, rng, monkeypatch):
        cfg = L0Config(lam=2.0, max_support=4, strategy="exhaustive")
        for d in designs(rng):
            full = _subset_fits(d, 4)
            # size-ascending, then lex-first minimizer of rss + lam |J|
            _, k, i = min((float(r) + 2.0 * k, k, i)
                          for k, (rss, _, _) in enumerate(full)
                          for i, r in enumerate(rss))
            expected = tuple(int(v) for v in subset_index_array(d.p, k)[i])
            walk, carried = enumeration._cholesky_walk, []

            def spying(*args, **kwargs):
                for batch in walk(*args, **kwargs):
                    carried.append(batch[2] is not None)   # the batch's B
                    yield batch
            with monkeypatch.context() as mp:
                mp.setattr(enumeration, "_cholesky_walk", spying)
                support, _ = l0_select(d, cfg)
            assert support == expected
            # the walk ran and formed no coefficients
            assert carried and not any(carried)

    def test_batches_are_bounded_by_child_entries(self, rng, monkeypatch):
        X = rng.standard_normal((30, 100))
        X[:, 40] = X[:, 2]
        wide = Dataset(X, rng.standard_normal(30))
        cases = [(d, 4) for d in designs(rng)] + [(wide, 3)]
        ref = [(_subset_fits(d, s), min_restricted_singular(d, 3),
                max_restricted_singular(d, 3)) for d, s in cases]
        walk, sizes = enumeration._cholesky_walk, []
        gather, gathered = diagnostics.gather_gram, []

        def recording(*args, **kwargs):
            for batch in walk(*args, **kwargs):
                sizes.append((batch[0].shape[1], batch[4].size))
                yield batch

        def recording_gather(G, subs):
            gathered.append(subs.shape[0] * subs.shape[1] ** 2)
            return gather(G, subs)
        monkeypatch.setattr(enumeration, "_SCREEN_ELEMS", 4096)
        monkeypatch.setattr(enumeration, "_cholesky_walk", recording)
        monkeypatch.setattr(diagnostics, "_cholesky_walk", recording)
        monkeypatch.setattr(diagnostics, "gather_gram", recording_gather)
        for (d, s), (fits, lo, hi) in zip(cases, ref):
            for got, want in zip(_subset_fits(d, s), fits):
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
            assert min_restricted_singular(d, 3) == lo
            assert max_restricted_singular(d, 3) == hi
        assert max(size for _, size in sizes) <= 4096
        # the diagnostics' Gram gathers and eigensolves share the bound; the
        # exact scans gather little, so a sampled scan of 1,000 size-3
        # blocks (9,000 entries) shows the cut
        exact = len(gathered)
        min_restricted_singular(wide, 3, mode="mc", samples=1000)
        assert max(gathered) <= 4096 and len(gathered) - exact >= 3
        # the wide design's root alone has 100 children of ~100 entries
        assert sum(depth == 0 for depth, _ in sizes) > len(cases) * 3

    def test_stream_forms_every_subset_once(self, rng):
        X = rng.standard_normal((30, 100))
        X[:, 40] = X[:, 2]
        wide = Dataset(X, rng.standard_normal(30))
        for d, s_max in [(d, 4) for d in designs(rng)] + [(wide, 3)]:
            fits = _subset_fits(d, s_max)
            got = {}
            for rows, rss, beta, full in enumeration._walk_fits(
                    d, enumeration._bordered_gram(d), s_max):
                assert rows.shape == beta.shape and rss.shape == (len(rows),)
                got.setdefault(rows.shape[1], []).append(
                    (rows, rss, beta, np.full(len(rows), full)))
            assert sorted(got) == list(range(1, s_max + 1))
            for k, parts in got.items():
                rows, rss, beta, full = (np.concatenate(a)
                                         for a in zip(*parts))
                at = subset_rank(rows, d.p)
                np.testing.assert_array_equal(np.sort(at),
                                              np.arange(math.comb(d.p, k)))
                want = fits[k]
                np.testing.assert_array_equal(rss, want[0][at])
                np.testing.assert_array_equal(beta, want[1][at])
                # on the wide design only rows with 2 or 40 can be deficient
                check = (np.isin(rows, (2, 40)).any(axis=1) if d is wide
                         else np.ones(len(rows), dtype=bool))
                assert full[~check].all()
                assert full[check].tolist() == [
                    make_state(d, J).full_rank for J in rows[check]]
            if d is wide:
                assert not fits[2][2][subset_rank((2, 40), d.p)]

    def test_gather_gram_blocks(self, small_data):
        subs = subset_index_array(small_data.p, 3)[::11]
        blocks = gather_gram(small_data.gram, subs)
        for J, GJ in zip(subs, blocks):
            np.testing.assert_array_equal(GJ, small_data.gram[np.ix_(J, J)])


def l0_oracle(d, lam, s_max):
    """(support, criterion) by itertools and residual_ss: the sparsest, then
    lexicographically first, support within 1e-9 y'y of the minimum."""
    crit = {J: residual_ss(d, J) + lam * len(J)
            for s in range(s_max + 1) for J in combinations(range(d.p), s)}
    best = min(crit.values())
    J = min((J for J, v in crit.items() if v <= best + 1e-9 * d.yty),
            key=lambda J: (len(J), J))
    return J, crit[J]


class TestBranchAndBound:
    """Exhaustive l0 prunes the walk and still finds the oracle's support."""

    def cases(self, rng):
        X = rng.standard_normal((20, 8))
        d = Dataset(X, X[:, [1, 4]] @ [1.0, -1.5]
                    + 0.5 * rng.standard_normal(20))
        yield "gaussian", d, 4
        yield "unbounded", d, 2      # too shallow to bound
        X = rng.standard_normal((20, 8))
        X[:, 5] = X[:, 2]    # supports with 2 tie exactly with those with 5
        yield "duplicate", Dataset(X, X[:, [2, 6]] @ [1.5, 1.0]
                                   + 0.5 * rng.standard_normal(20)), 4
        X = rng.standard_normal((20, 8))
        X[:, 6] = X[:, 0] - 2.0 * X[:, 3]    # dependent: the SVD path
        yield "dependent", Dataset(X, X[:, [0, 3, 7]] @ [1.0, 1.0, -1.0]
                                   + 0.5 * rng.standard_normal(20)), 4
        X = rng.standard_normal((4, 8))      # n < max_support
        yield "short", Dataset(X, rng.standard_normal(4)), 6
        X = rng.standard_normal((20, 8))     # max_support = p
        yield "full", Dataset(X, X[:, [0, 7]] @ [1.0, 1.0]
                              + 0.5 * rng.standard_normal(20)), 8

    @pytest.mark.parametrize("lam", [0.0, 0.1, 2 * 0.25 * 4 * np.log(8),
                                     1e6])
    def test_matches_itertools_oracle(self, rng, lam):
        for name, d, s_max in self.cases(rng):
            cfg = L0Config(lam=lam, max_support=s_max)
            want, want_val = l0_oracle(d, lam, s_max)
            support, val = _exhaustive_l0(d, cfg)
            assert support == want, name
            assert val == pytest.approx(want_val, abs=1e-9 * d.yty), name
            sup, beta = l0_select(d, cfg)
            assert sup == want
            np.testing.assert_array_equal(beta,
                                          least_squares_min_norm(d, want))
            if name == "duplicate" and lam == 0.1:
                assert 2 in support and 5 not in support

    def test_prunes_almost_every_subset(self, monkeypatch):
        d, _ = planted_instance(11, 100, 20, [1.0, 1.0, 1.0], sigma=0.5)
        cfg = L0Config(lam=2 * 0.25 * practical_lambda(20), max_support=7)
        walk, fitted = enumeration._cholesky_walk, [0]

        def counting(*args, **kwargs):
            for batch in walk(*args, **kwargs):
                fitted[0] += batch[3].size    # every child the batch forms
                yield batch
        monkeypatch.setattr(enumeration, "_cholesky_walk", counting)
        support, _ = l0_select(d, cfg)
        assert support == (0, 1, 2)
        assert subset_count(20, 7) == 137_980
        assert 0 < fitted[0] <= 0.01 * 137_980


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

    def test_scans_solve_no_eigenproblem(self, rng, monkeypatch):
        X = rng.standard_normal((25, 9))
        X[:, 8] = X[:, 2]
        d = Dataset(X, rng.standard_normal(25))

        def no_eigh(*args, **kwargs):
            raise AssertionError("an exact scan solved an eigenproblem")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        table = enumerate_posterior(
            d, PosteriorConfig(lam=1.0, max_support=3, sigma2=1.0))
        assert sum(pr for _, _, pr in table.entries()) == pytest.approx(1.0)
        support, _ = l0_select(d, L0Config(lam=2.0, max_support=3,
                                           strategy="exhaustive"))
        # columns 2 and 8 are equal, so the minimizer is tied; compare values
        best = min(residual_ss(d, J) + 2.0 * len(J)
                   for s in range(4) for J in combinations(range(9), s))
        assert residual_ss(d, support) + 2.0 * len(support) == pytest.approx(
            best, abs=1e-9 * d.yty)

    def test_restricted_mean_follows_the_chain_rank_rule(self, rng):
        cfg = PosteriorConfig(lam=1.0, max_support=4, sigma2=1.0)
        deficient = 0
        for d in designs(rng):
            table = enumerate_posterior(d, cfg)
            oracle = np.zeros(d.p)
            for J, _, pr in table.entries():
                if make_state(d, J).full_rank:
                    oracle += pr * least_squares_min_norm(d, J)
                else:
                    deficient += 1
            np.testing.assert_allclose(table.restricted_mean_beta, oracle,
                                       rtol=1e-7, atol=1e-8)
            # the flag itself, support by support, whatever its weight
            for k, (_, _, full) in enumerate(_subset_fits(d, 4)):
                assert full.tolist() == [
                    make_state(d, J).full_rank
                    for J in subset_index_array(d.p, k)]
            # one fit: the refit is the state's own fit, to the bit
            for J, _, _ in table.entries():
                assert np.array_equal(least_squares_min_norm(d, J)[list(J)],
                                      make_state(d, J).beta_sparse(d)[1])
        assert deficient > 0

    def test_subset_states_do_not_read_the_prior(self):
        import ast
        import inspect

        import ewselect.subsets as subsets
        tree = ast.parse(inspect.getsource(subsets))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {m for m in imported if m.split(".")[-1] == "priors"}


class TestSubsetIndexArray:
    @pytest.mark.parametrize("p,s", [(0, 0), (1, 0), (1, 1), (6, 0), (6, 1),
                                     (6, 6), (7, 2), (9, 4), (12, 7), (13, 3),
                                     (20, 5), (5, 6)])
    def test_rows_equal_itertools(self, p, s):
        subs = subset_index_array(p, s)
        ref = list(combinations(range(p), s))
        assert subs.shape == (len(ref), s)
        assert subs.dtype == np.intp
        assert not subs.flags.writeable
        assert [tuple(int(v) for v in row) for row in subs] == ref
        assert all(subset_rank(row, p) == i for i, row in enumerate(ref))
        # one vectorized call over the stack, columns in any order
        np.testing.assert_array_equal(subset_rank(subs[:, ::-1], p),
                                      np.arange(len(ref)))

    def test_rank_rejects_bad_rows(self):
        for rows in ([[0, 0]], [[0, 3]], [[-1, 2]], (1, 1)):
            with pytest.raises(DomainError):
                subset_rank(rows, 3)

    def test_cache_is_bounded_by_bytes(self):
        built = []

        @enumeration._lru_by_bytes(1000)
        def build(n):
            built.append(n)
            return np.zeros(n, dtype=np.uint8)

        build(600)
        build(300)
        build(600)                       # hit; 300 is now least recent
        assert built == [600, 300]
        build(200)                       # 1100 bytes: evicts the 300
        assert build.cache_info().currbytes == 800
        build(300)
        assert built == [600, 300, 200, 300]
        build(5000)                      # larger than the bound: not kept
        build(5000)
        assert built[-2:] == [5000, 5000]
        info = build.cache_info()
        assert (info.hits, info.misses, info.maxbytes) == (1, 6, 1000)
        assert info.currbytes <= 1000
        build.cache_clear()
        assert build.cache_info() == (0, 0, 1000, 0)

    def test_index_cache_clear(self):
        subset_index_array(8, 3)
        assert subset_index_array.cache_info().currbytes > 0
        subset_index_array.cache_clear()
        assert subset_index_array.cache_info().currbytes == 0
