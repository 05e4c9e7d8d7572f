"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single summary line with the measured quantities; the
pytest verdict for the test is the pass/fail line for the criterion.
The (100, 200, 5) hundred-replication experiment is shared by the two
table-regeneration criteria through a module fixture.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from ewselect import (ChainConfig, Dataset, ExperimentSpec, PosteriorConfig,
                      emit, enumerate_posterior, exact_estimators,
                      generate_instance, least_squares_min_norm,
                      map_refit, max_restricted_singular,
                      min_restricted_singular, posterior_mean,
                      practical_lambda, prediction_lambda, residual_ss,
                      run_chain, run_experiment, signal_strength_threshold,
                      support_lambda, update_add, update_remove)
from ewselect.subsets import empty_state

from conftest import normalized_gaussian


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


@pytest.fixture(scope="module")
def table_run():
    """Shared (n, p, s) = (100, 200, 5), 100 replications, both methods."""
    spec = ExperimentSpec(n=100, p=200, sparsity=5, reps=100, seed=20250801,
                          methods=("ew", "lasso"))
    start = time.perf_counter()
    summary = run_experiment(spec)
    elapsed = time.perf_counter() - start
    return summary, elapsed


def test_c1_sampler_matches_exact_enumeration():
    """20 seeded instances at p=10, n=30, cap 4: visit law within TV 0.05 of
    the enumerated posterior and ergodic mean within sup-norm 0.02, < 30 s."""
    start = time.perf_counter()
    worst_tv = 0.0
    worst_mean = 0.0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([101, seed]))
        n, p = 30, 10
        X = normalized_gaussian(rng, n, p)
        beta = np.zeros(p)
        beta[:2] = [1.0, 0.6]
        sigma = 1.0
        y = X @ beta + sigma * rng.standard_normal(n)
        data = Dataset(X, y, sigma)
        cfg = PosteriorConfig(lam=practical_lambda(p), max_support=4,
                              sigma2=sigma * sigma)
        table = enumerate_posterior(data, cfg)
        acc = run_chain(data, cfg,
                        ChainConfig(burn_in=5000, samples=200_000, seed=seed))
        emp = {sup: c / acc.samples for sup, c in acc.visit_counts.items()}
        tv = 0.5 * sum(abs(emp.get(sup, 0.0) - pr)
                       for sup, _, pr in table.entries())
        exact_mean = exact_estimators(table, data).mean_beta
        mean_err = float(np.max(np.abs(posterior_mean(acc) - exact_mean)))
        worst_tv = max(worst_tv, tv)
        worst_mean = max(worst_mean, mean_err)
        assert tv <= 0.05, f"seed {seed}: TV {tv:.4f} > 0.05"
        assert mean_err <= 0.02, f"seed {seed}: mean gap {mean_err:.4f} > 0.02"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(1, f"worst TV {worst_tv:.4f}, worst mean gap {worst_mean:.4f}, "
               f"{elapsed:.1f}s")


def test_c2_sup_norm_error_bands(table_run):
    """At (100, 200, 5) x 100 reps: exponential-weights mean sup-norm error
    in [0.08, 0.18], lasso in [0.18, 0.32], and the former strictly below."""
    summary, elapsed = table_run
    ew = summary.methods["ew"]
    lasso = summary.methods["lasso"]
    assert ew.reps_ok == 100 and lasso.reps_ok == 100
    assert 0.08 <= ew.mean_linf <= 0.18, f"ew mean {ew.mean_linf:.4f}"
    assert 0.18 <= lasso.mean_linf <= 0.32, f"lasso mean {lasso.mean_linf:.4f}"
    assert ew.mean_linf < lasso.mean_linf
    assert elapsed < 900.0, f"runtime {elapsed:.0f}s exceeds 15 min"
    _report(2, f"ew {ew.mean_linf:.4f} (sd {ew.sd_linf:.4f}), "
               f"lasso {lasso.mean_linf:.4f} (sd {lasso.sd_linf:.4f}), "
               f"{elapsed:.0f}s")


def test_c3_support_recovery_counts(table_run):
    """Same runs: exponential-weights FP mean <= 4 with TP rate >= 0.99;
    lasso FP mean >= 10."""
    summary, _ = table_run
    ew = summary.methods["ew"]
    lasso = summary.methods["lasso"]
    assert ew.mean_fp <= 4.0, f"ew FP {ew.mean_fp:.2f}"
    assert lasso.mean_fp >= 10.0, f"lasso FP {lasso.mean_fp:.2f}"
    assert ew.tp_rate >= 0.99, f"ew TP rate {ew.tp_rate:.4f}"
    _report(3, f"ew FP {ew.mean_fp:.2f}, TP rate {ew.tp_rate:.3f}; "
               f"lasso FP {lasso.mean_fp:.2f}")


def test_c4_in_sample_prediction_bound():
    """With the conservative exponent preset (c = 1), the refitted best
    support satisfies ||X(b - b*)|| <= sigma sqrt(8 s lam) in >= 99/100."""
    p, s_star = 200, 5
    lam = prediction_lambda(p, c=1.0)
    spec = ExperimentSpec(n=100, p=p, sparsity=s_star, reps=100, seed=404)
    holds = 0
    for rep in range(100):
        data, beta_true, _ = generate_instance(spec, rep)
        pcfg = PosteriorConfig(lam=lam, max_support=50,
                               sigma2=data.sigma ** 2)
        acc = run_chain(data, pcfg, ChainConfig(seed=rep))
        _, beta_map = map_refit(acc, data)
        lhs = float(np.linalg.norm(data.X @ (beta_map - beta_true)))
        rhs = data.sigma * math.sqrt(8.0 * s_star * lam)
        holds += lhs <= rhs
    assert holds >= 99, f"bound held in only {holds}/100 runs"
    _report(4, f"bound held in {holds}/100 runs")


def test_c5_posterior_concentrates_on_planted_support():
    """Signals at the diagnostic threshold: exact MAP equals the planted
    support with mass >= 0.9, and the sampler's best visited support agrees,
    in >= 95/100 seeded runs."""
    n, p, s_star = 60, 20, 3
    eps, c = 1.0 / 3.0, 1.0
    lam = support_lambda(p, c=c, eps=eps)
    probe = int((2.0 + eps) * s_star)   # = 7
    sigma = 1.0
    truth = tuple(range(s_star))
    wins = 0
    chain_wins = 0
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([505, rep]))
        X = normalized_gaussian(rng, n, p)
        nu = min_restricted_singular(Dataset(X, np.zeros(n)), probe)
        rho = signal_strength_threshold(sigma, lam, n, nu)
        beta = np.zeros(p)
        beta[:s_star] = rho
        y = X @ beta + sigma * rng.standard_normal(n)
        data = Dataset(X, y, sigma)
        cfg = PosteriorConfig(lam=lam, max_support=probe, sigma2=sigma ** 2)
        table = enumerate_posterior(data, cfg)
        wins += (table.map_subset == truth
                 and table.prob_of(truth) >= 0.9)
        acc = run_chain(data, cfg, ChainConfig(seed=rep))
        chain_wins += acc.best_support == truth
    assert wins >= 95, f"recovered in only {wins}/100 runs"
    assert chain_wins >= 95, f"chain recovered in only {chain_wins}/100 runs"
    _report(5, f"exact MAP correct with mass >= 0.9 in {wins}/100; "
               f"chain best support correct in {chain_wins}/100")


def test_c6_linear_algebra_oracles():
    """Minimum-norm fits vs the SVD pseudo-inverse on 200 instances with
    rank-deficient designs mixed in, incremental vs batch residuals along
    random walks, and the split-projection inequality on 50 splits."""
    rng = np.random.default_rng(606)
    cfg = PosteriorConfig(lam=1.0, max_support=12, sigma2=1.0)

    worst_rel = 0.0
    for trial in range(200):
        n = int(rng.integers(6, 24))
        p = int(rng.integers(3, 14))
        X = rng.standard_normal((n, p))
        if trial % 4 == 0 and p >= 3:
            X[:, 2] = X[:, 0]                      # exact duplicate
        if trial % 7 == 0 and p >= 4:
            X[:, 3] = X[:, 0] - 2.0 * X[:, 1]      # exact linear combination
        y = rng.standard_normal(n)
        data = Dataset(X, y)
        size = int(rng.integers(1, p + 1))
        J = sorted(rng.choice(p, size=size, replace=False).tolist())
        oracle = np.zeros(p)
        oracle[J] = np.linalg.pinv(X[:, J]) @ y
        got = least_squares_min_norm(data, J)
        rel = float(np.max(np.abs(got - oracle))
                    / max(1.0, float(np.max(np.abs(oracle)))))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8, f"trial {trial}: relative gap {rel:.2e}"

    worst_walk = 0.0
    for walk in range(5):
        X = rng.standard_normal((15, 10))
        y = rng.standard_normal(15)
        data = Dataset(X, y)
        state = empty_state(data)
        active = set()
        for _ in range(20):
            if active and (rng.random() < 0.5 or len(active) >= 8):
                j = int(rng.choice(sorted(active)))
                state = update_remove(state, j, data)
                active.discard(j)
            else:
                j = int(rng.choice([k for k in range(10) if k not in active]))
                state = update_add(state, j, data)
                active.add(j)
            batch = residual_ss(data, sorted(active))
            gap = abs(state.rss - batch) / max(batch, 1e-12)
            worst_walk = max(worst_walk, gap)
            assert gap <= 1e-8

    for split in range(50):
        X = rng.standard_normal((20, 8))
        delta = float(np.linalg.svd(X, compute_uv=False)[-1])
        k = int(rng.integers(1, 8))
        cols = rng.permutation(8)
        one, two = cols[:k].tolist(), cols[k:].tolist()
        b1 = rng.standard_normal(k)
        v = X[:, one] @ b1
        if two:
            Q, _ = np.linalg.qr(X[:, two])
            v = v - Q @ (Q.T @ v)
        assert np.linalg.norm(v) >= delta * np.linalg.norm(b1) - 1e-10

    _report(6, f"pinv worst rel {worst_rel:.2e}, walk worst rel "
               f"{worst_walk:.2e}, 50/50 split inequalities hold")


def test_c7_design_diagnostics_exactness():
    """Restricted singular values match a per-subset eigensolver to 1e-10
    at p <= 15, s <= 4; identity-covariance Gaussian designs at (200, 50)
    give a size-5 value >= 0.5 in >= 95/100 seeded draws."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for p in (12, 15):
        X = rng.standard_normal((20, p))
        data = Dataset(X, rng.standard_normal(20))
        for s in (1, 2, 3, 4):
            vals = [np.linalg.svd(X[:, list(c)] / math.sqrt(20),
                                  compute_uv=False)[-1]
                    for c in combinations(range(p), s)]
            nu = min_restricted_singular(data, s)
            kap = max_restricted_singular(data, s)
            worst = max(worst, abs(nu - min(vals)), abs(kap - max(vals)))
            assert abs(nu - min(vals)) <= 1e-10
            assert abs(kap - max(vals)) <= 1e-10

    n, p, s = 200, 50, 5
    good = 0
    for draw in range(100):
        draw_rng = np.random.default_rng(np.random.SeedSequence([808, draw]))
        X = draw_rng.standard_normal((n, p))
        data = Dataset(X, np.zeros(n))
        nu5 = min_restricted_singular(data, s, cap=2_200_000)
        good += nu5 >= 0.5
    assert good >= 95, f"size-5 value >= 0.5 in only {good}/100 draws"
    _report(7, f"eigensolver worst gap {worst:.2e}; nu5 >= 0.5 in {good}/100")


def test_c8_byte_identical_reruns(tmp_path):
    """The same spec and seed produce byte-identical CSV outputs."""
    spec = ExperimentSpec(n=50, p=20, sparsity=3, reps=5, seed=909,
                          chain=ChainConfig(burn_in=500, samples=1500),
                          tune_reps=2)
    emit(run_experiment(spec), tmp_path / "first")
    emit(run_experiment(spec), tmp_path / "second")
    checked = []
    for name in ("reps.csv", "summary.csv", "boxplot_linf.svg",
                 "boxplot_l2.svg", "boxplot_fp.svg"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
        checked.append(name)
    _report(8, f"{len(checked)} output files byte-identical across reruns")
