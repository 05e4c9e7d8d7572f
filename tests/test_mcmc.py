import csv
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ewselect import (ChainConfig, Dataset, DomainError, PosteriorConfig,
                      default_threshold, enumerate_posterior, exact_estimators,
                      least_squares_min_norm, log_posterior_unnorm,
                      make_state, map_refit, posterior_mean,
                      practical_lambda, run_chain, threshold_coefficients)
from ewselect import mcmc
from ewselect.baselines import (LassoConfig, default_lasso_penalty,
                                lasso_coordinate_descent)
from ewselect.mcmc import MOVES
from ewselect.priors import log_prior_table
from ewselect.subsets import Neighbours, peek_rss_add

from conftest import planted_instance


def flat_posterior_data(p=5, n=8):
    """All supports get exactly equal weight: y = 0 kills the likelihood
    term and omega = 1/2 makes the independence prior constant in |J|."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, p))
    data = Dataset(X, np.zeros(n))
    cfg = PosteriorConfig(lam=1.0, max_support=p, sigma2=1.0,
                          prior="independence", omega=0.5)
    return data, cfg


def walk_removals(monkeypatch, data, cfg, start, steps, rng, block=1024):
    """Run the chain kernel for `steps` recorded steps from `start`, spying
    on update_remove under both module names: (builds as (step, support,
    column, state built), trace rows (step, size, log-weight, accepted))."""
    import ewselect.mcmc as mcmc
    import ewselect.subsets as subsets
    built, rows = [], []
    real = subsets.update_remove

    def spy(state, j, d):
        out = real(state, j, d)
        built.append((len(rows), state.support, int(j), out))
        return out

    monkeypatch.setattr(mcmc, "update_remove", spy)
    monkeypatch.setattr(subsets, "update_remove", spy)
    mcmc._walk(data, cfg, make_state(data, start), 0, steps, (0.5, 0.5), rng,
               block, rows)
    return built, rows


def chain_parts(data, cfg, ccfg):
    """The accumulators of each of run_chain's chains, each walked on its
    own, in chain order."""
    seeds = np.random.SeedSequence(ccfg.seed).spawn(ccfg.chains)
    start = mcmc._initial_support(data, cfg, ccfg.init)
    return [mcmc._walk(data, cfg, make_state(data, start), ccfg.burn_in,
                       ccfg.samples, ccfg.move_mix, np.random.default_rng(s),
                       mcmc._BLOCK, None)[1]
            for s in seeds]


def dependent_design():
    """(25, 12) design whose column 7 repeats column 3 and whose column 9
    is 3 - 2 * 5, with the response on columns 3 and 5: stays on (3, 5)
    propose rank-deficient adds."""
    rng = np.random.default_rng(45)
    X = rng.standard_normal((25, 12))
    X[:, 7] = X[:, 3]
    X[:, 9] = X[:, 3] - 2.0 * X[:, 5]
    y = 1.2 * X[:, 3] - X[:, 5] + 0.5 * rng.standard_normal(25)
    return Dataset(X, y, 0.5)


def windowed_and_scalar(monkeypatch, data, cfg, start, steps, mix, block,
                        make_rng):
    """The chain kernel run twice on equal streams, scanning windows from
    the first step of every stay (a head of 0 steps) and taking scalar
    steps only (a head never reached): [(trace rows, accumulators, rank
    flags the scorer raised)] in that order."""
    import ewselect.mcmc as mcmc
    out = []
    for head in (0, 10 ** 9):
        flags = []

        class Spy(Neighbours):
            def rss(self, drops, adds):
                rss, slack = super().rss(drops, adds)
                flags.append(int(np.isinf(slack).sum()))
                return rss, slack

        monkeypatch.setattr(mcmc, "_head", lambda p, head=head: head)
        monkeypatch.setattr(mcmc, "Neighbours", Spy)
        rows = []
        acc = mcmc._walk(data, cfg, make_state(data, start), steps // 5,
                         steps - steps // 5, mix, make_rng(), block, rows)[1]
        out.append((rows, acc, sum(flags)))
    return out


# one step of run_chain's kernel, its uniforms drawn one at a time
def one_step(state, data, cfg, rng, mix=(0.5, 0.5)):
    return mcmc._walk(data, cfg, state, 1, 0, mix, rng, 1, None)[0]


class TestMhStep:
    def test_cap_exceeding_flip_rejected(self, rng):
        X = rng.standard_normal((10, 4))
        d = Dataset(X, rng.standard_normal(10))
        cfg = PosteriorConfig(lam=0.1, max_support=2, sigma2=1.0)
        st = make_state(d, (0, 1))
        seen_sizes = set()
        for _ in range(200):
            st = one_step(st, d, cfg, rng)
            seen_sizes.add(st.size)
        assert max(seen_sizes) <= 2

    def test_zero_delta_always_accepts(self):
        # two duplicated columns: swapping between {0} and {1} has delta 0,
        # so any proposed swap must be accepted
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10)
        X = np.column_stack([x, x])
        d = Dataset(X, rng.standard_normal(10))
        cfg = PosteriorConfig(lam=1.0, max_support=1, sigma2=1.0)
        st = make_state(d, (0,))
        visited = set()
        changes = 0
        prev = st.support
        for _ in range(300):
            st = one_step(st, d, cfg, rng, mix=(0.0, 1.0))  # swap-only
            visited.add(st.support)
            if st.support != prev:
                changes += 1
            prev = st.support
        assert visited == {(0,), (1,)}
        # swap-only kernel on equal-weight pair accepts every proposal
        assert changes == 300

    def test_proposal_kernel_is_symmetric(self):
        # flat posterior: every proposal is accepted, so observed transition
        # frequencies estimate the proposal kernel itself
        data, cfg = flat_posterior_data(p=5)
        p = 5
        reps = 20000

        def transition_freqs(start):
            rng = np.random.default_rng(99)
            st0 = make_state(data, start)
            counts = Counter()
            for _ in range(reps):
                nxt = one_step(st0, data, cfg, rng)
                counts[nxt.support] += 1
            return {sup: c / reps for sup, c in counts.items()}

        a, b = (0, 1), (0, 2)        # swap neighbors
        fa = transition_freqs(a)
        fb = transition_freqs(b)
        assert fa.get(b, 0) == pytest.approx(fb.get(a, 0), abs=0.01)
        # analytic values: flip 0.5/p; swap 0.5/(|J|(p-|J|))
        c = (0, 1, 2)                # flip neighbor of a
        assert fa.get(c, 0) == pytest.approx(0.5 / p, abs=0.01)
        assert fa.get(b, 0) == pytest.approx(0.5 / (2 * 3), abs=0.01)


class TestRunChain:
    def test_single_sample_mean_is_state_beta(self, rng):
        X = rng.standard_normal((12, 5))
        d = Dataset(X, rng.standard_normal(12))
        cfg = PosteriorConfig(lam=1.0, max_support=3, sigma2=1.0)
        acc = run_chain(d, cfg, ChainConfig(burn_in=0, samples=1, seed=3))
        (sup,) = acc.visit_counts.keys()
        np.testing.assert_allclose(posterior_mean(acc),
                                   least_squares_min_norm(d, sup), atol=1e-12)

    def test_same_seed_bitwise_identical(self, rng):
        data, _ = planted_instance(21, 30, 10, [1.0, 0.7], sigma=0.8)
        cfg = PosteriorConfig(lam=practical_lambda(10), max_support=4,
                              sigma2=data.sigma ** 2)
        ccfg = ChainConfig(burn_in=100, samples=2000, seed=42)
        a1 = run_chain(data, cfg, ccfg)
        a2 = run_chain(data, cfg, ccfg)
        assert np.array_equal(a1.mean_sum, a2.mean_sum)
        assert a1.visit_counts == a2.visit_counts
        assert a1.best_support == a2.best_support
        assert a1.accepted == a2.accepted

    def test_counts_sum_to_samples(self, rng):
        data, _ = planted_instance(22, 25, 8, [1.0], sigma=1.0)
        cfg = PosteriorConfig(lam=2.0, max_support=4, sigma2=1.0)
        acc = run_chain(data, cfg, ChainConfig(burn_in=50, samples=3000, seed=1))
        assert sum(acc.visit_counts.values()) + acc.visit_overflow == acc.samples

    def test_strong_signal_finds_planted_support(self):
        hits = 0
        for seed in range(10):
            data, _ = planted_instance(100 + seed, 40, 12, [2.0, -2.0, 2.0],
                                       sigma=0.3)
            cfg = PosteriorConfig(lam=practical_lambda(12),
                                  max_support=6, sigma2=data.sigma ** 2)
            acc = run_chain(data, cfg,
                            ChainConfig(burn_in=500, samples=2000, seed=seed))
            hits += acc.best_support == (0, 1, 2)
        assert hits >= 9

    def test_visit_distribution_close_to_enumeration(self):
        data, _ = planted_instance(31, 30, 10, [1.0, 0.6], sigma=1.0)
        cfg = PosteriorConfig(lam=practical_lambda(10), max_support=4,
                              sigma2=data.sigma ** 2)
        table = enumerate_posterior(data, cfg)
        acc = run_chain(data, cfg,
                        ChainConfig(burn_in=2000, samples=60_000, seed=9))
        emp = {sup: c / acc.samples for sup, c in acc.visit_counts.items()}
        tv = 0.5 * sum(abs(emp.get(sup, 0.0) - pr)
                       for sup, _, pr in table.entries())
        assert tv <= 0.08

    def test_mean_close_to_enumeration(self):
        data, _ = planted_instance(32, 30, 10, [1.0, 0.6], sigma=1.0)
        cfg = PosteriorConfig(lam=practical_lambda(10), max_support=4,
                              sigma2=data.sigma ** 2)
        est = exact_estimators(enumerate_posterior(data, cfg), data)
        acc = run_chain(data, cfg,
                        ChainConfig(burn_in=2000, samples=60_000, seed=10))
        assert np.max(np.abs(posterior_mean(acc) - est.mean_beta)) <= 0.03

    def test_trace_export_and_invariants(self, tmp_path):
        data, _ = planted_instance(33, 25, 8, [1.2], sigma=0.7)
        cfg = PosteriorConfig(lam=2.0, max_support=3, sigma2=data.sigma ** 2)
        trace = tmp_path / "trace.csv"
        acc = run_chain(data, cfg, ChainConfig(burn_in=100, samples=1500,
                                               seed=4, trace_path=str(trace)))
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1600
        sizes = [int(r["support_size"]) for r in rows]
        weights = [float(r["log_weight"]) for r in rows]
        assert max(sizes) <= 3                      # cap never violated
        assert max(weights) <= acc.best_log_weight + 1e-12
        # the running best of the trace is nondecreasing by construction
        running = np.maximum.accumulate(weights)
        assert np.all(np.diff(running) >= 0)
        assert acc.accepted == sum(int(r["accepted"]) for r in rows)
        # the chain weighs supports as the posterior does
        ref = log_posterior_unnorm(data, acc.best_support, cfg)
        assert abs(acc.best_log_weight - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_removals_live_for_one_stay(self, monkeypatch):
        # 8000 steps at a small lambda build removals of over 256 distinct
        # supports, more than a state memo of 256 entries holds; a stay at
        # J still builds each of its |J| removals at most once
        data, _ = planted_instance(40, 60, 300, [1.0, -0.8, 0.8], sigma=0.9)
        cfg = PosteriorConfig(lam=4.0, max_support=200, sigma2=data.sigma ** 2)
        built, rows = walk_removals(monkeypatch, data, cfg, (), 8000,
                                    np.random.default_rng(3))
        accepted = [r[3] for r in rows]
        stay_of_step = np.concatenate(([0], np.cumsum(accepted)))
        stay_sizes = [0] + [r[1] for r in rows if r[3]]
        per_stay = {}
        for t, support, j, _ in built:
            per_stay.setdefault(stay_of_step[t], []).append((support, j))
        assert len(per_stay) > 100
        for s, pairs in per_stay.items():
            assert len(pairs) == len(set(pairs))
            assert all(support == pairs[0][0] for support, _ in pairs)
            assert len(pairs[0][0]) == stay_sizes[s]
        removed = {out.support for *_, out in built}
        assert len(removed) > 256
        assert len(built) <= sum(stay_sizes)

    def test_remove_flip_and_swap_share_a_removal(self, monkeypatch):
        # step 0 proposes removing column 1 from (1, 3), step 1 swaps 1 for
        # 0; both are rejected (log-uniforms of ~690), and the swap peeks
        # its add on the removal the flip built
        data, _ = planted_instance(41, 20, 6, [1.0, -0.8], sigma=0.5)
        cfg = PosteriorConfig(lam=2.0, max_support=4, sigma2=data.sigma ** 2)
        script = [[0.5 / 6, 0.5],            # swap add pool: column 0
                  [0.0, 0.99],               # move: flip, then swap
                  [1.5 / 6, 0.25],           # flip column 1; swap member 0
                  [1e300, 1e300]]            # acceptance uniforms
        peeked = []
        real_peek = mcmc.peek_rss_add

        def peek_spy(state, j, d):
            peeked.append((state, int(j)))
            return real_peek(state, j, d)

        monkeypatch.setattr(mcmc, "peek_rss_add", peek_spy)
        built, rows = walk_removals(monkeypatch, data, cfg, (1, 3), 2,
                                    ScriptedRng(script), block=2)
        assert [r[3] for r in rows] == [0, 0]
        assert [(t, support, j) for t, support, j, _ in built] == \
            [(0, (1, 3), 1)]
        ((base, k),) = peeked
        assert k == 0 and base is built[0][3]

    def test_move_counts_sum_to_steps(self):
        data, _ = planted_instance(39, 30, 60, [1.0, -0.8], sigma=0.6)
        cfg = PosteriorConfig(lam=practical_lambda(60), max_support=3,
                              sigma2=data.sigma ** 2)
        ccfg = ChainConfig(burn_in=500, samples=4000, seed=2, chains=2)
        acc = run_chain(data, cfg, ccfg)
        assert acc.moves_proposed.sum() == acc.proposals == 9000
        assert acc.moves_accepted.sum() == acc.accepted > 0
        assert acc.moves_accepted[MOVES.index("none")] == 0
        assert np.all(acc.moves_accepted <= acc.moves_proposed)
        assert 0 < acc.window_steps < acc.proposals
        parts = chain_parts(data, cfg, ccfg)
        assert acc.window_steps == sum(a.window_steps for a in parts)
        assert acc.neighbour_builds == sum(a.neighbour_builds for a in parts)
        assert all(a.neighbour_builds > 0 for a in parts)

    def test_multi_chain_merges_deterministically(self):
        data, _ = planted_instance(34, 25, 8, [1.0, -0.8], sigma=0.9)
        cfg = PosteriorConfig(lam=practical_lambda(8), max_support=4,
                              sigma2=data.sigma ** 2)
        ccfg = ChainConfig(burn_in=200, samples=1000, seed=6, chains=3)
        a1 = run_chain(data, cfg, ccfg)
        a2 = run_chain(data, cfg, ccfg)
        assert a1.samples == 3000 and a1.chains == 3
        assert np.array_equal(a1.mean_sum, a2.mean_sum)
        assert a1.best_support == a2.best_support
        single = run_chain(data, cfg, ChainConfig(burn_in=200, samples=1000,
                                                  seed=6))
        assert not np.array_equal(single.mean_sum, a1.mean_sum)

    def test_later_chain_with_a_better_best_support_wins(self):
        data, _ = planted_instance(34, 25, 8, [1.0, -0.8], sigma=0.9)
        cfg = PosteriorConfig(lam=practical_lambda(8), max_support=4,
                              sigma2=data.sigma ** 2)
        ccfg = ChainConfig(burn_in=0, samples=5, seed=4, chains=3)
        parts = chain_parts(data, cfg, ccfg)
        weights = [a.best_log_weight for a in parts]
        assert weights[1] > weights[0]  # the second chain must take over
        acc = run_chain(data, cfg, ccfg)
        best = parts[int(np.argmax(weights))]
        assert acc.best_support == best.best_support
        assert acc.best_log_weight == best.best_log_weight
        assert acc.samples == 15 and acc.chains == 3
        assert np.array_equal(acc.mean_sum, sum(a.mean_sum for a in parts))
        assert acc.accepted == sum(a.accepted for a in parts)
        assert acc.proposals == sum(a.proposals for a in parts)

    def test_merged_visit_counts_stop_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(mcmc, "VISIT_CAP", 4)
        data, cfg = flat_posterior_data()
        ccfg = ChainConfig(burn_in=0, samples=200, seed=3, chains=3)
        parts = chain_parts(data, cfg, ccfg)
        for a in parts:
            assert sum(a.visit_counts.values()) + a.visit_overflow == 200
        acc = run_chain(data, cfg, ccfg)
        # a later chain visits supports that no longer fit
        assert any(set(a.visit_counts) - set(acc.visit_counts)
                   for a in parts[1:])
        assert len(acc.visit_counts) == 4
        assert set(parts[0].visit_counts) <= set(acc.visit_counts)
        for sup, count in acc.visit_counts.items():
            assert count == sum(a.visit_counts.get(sup, 0) for a in parts)
        assert acc.visit_overflow == 600 - sum(acc.visit_counts.values())

    def test_lasso_warm_start(self):
        data, _ = planted_instance(35, 40, 12, [1.5, 1.5], sigma=0.4)
        cfg = PosteriorConfig(lam=practical_lambda(12), max_support=6,
                              sigma2=data.sigma ** 2)
        acc = run_chain(data, cfg, ChainConfig(burn_in=50, samples=500,
                                               seed=8, init="lasso"))
        assert acc.best_support == (0, 1)

    def test_lasso_warm_start_keeps_the_largest_under_the_cap(self):
        data, _ = planted_instance(35, 40, 12, [0.6, 0.9, -1.2, 1.5],
                                   sigma=0.4)
        cfg = PosteriorConfig(lam=practical_lambda(12), max_support=2,
                              sigma2=data.sigma ** 2)
        lam = default_lasso_penalty(math.sqrt(cfg.sigma2), 40, 12)
        beta = lasso_coordinate_descent(data, LassoConfig(lam=lam))
        assert np.count_nonzero(beta) > 2  # the cap cuts the lasso support
        order = np.argsort(-np.abs(beta))
        assert abs(beta[order[1]]) > abs(beta[order[2]])
        assert mcmc._initial_support(data, cfg, "lasso") == tuple(
            sorted(int(j) for j in order[:2]))

    def test_chain_never_builds_the_gram(self, no_gram):
        data, _ = planted_instance(37, 40, 300, [1.5, -1.5], sigma=0.4)
        cfg = PosteriorConfig(lam=practical_lambda(300), max_support=6,
                              sigma2=data.sigma ** 2)
        acc = run_chain(data, cfg, ChainConfig(burn_in=50, samples=500,
                                               seed=8, init="lasso"))
        assert acc.best_support == (0, 1)

    def test_chain_memory_is_bounded_by_x(self):
        # X is 1.6 MB; a p x p Gram matrix would be 128 MB
        data, _ = planted_instance(38, 50, 4000, [2.0, -2.0, 2.0], sigma=0.5)
        cfg = PosteriorConfig(lam=practical_lambda(4000), max_support=10,
                              sigma2=data.sigma ** 2)
        tracemalloc.start()
        try:
            acc = run_chain(data, cfg, ChainConfig(burn_in=0, samples=2000,
                                                   seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acc.samples == 2000
        assert peak < 10 * data.X.nbytes

    def test_chain_holds_no_copy_of_x(self):
        # X is 12.8 MB and the chain reads it through the view data.xt: the
        # first chain on a fresh dataset allocates O(p |J|), not a second X
        data, _ = planted_instance(39, 400, 4000, [2.0, -2.0, 2.0], sigma=0.5)
        cfg = PosteriorConfig(lam=practical_lambda(4000), max_support=10,
                              sigma2=data.sigma ** 2)
        tracemalloc.start()
        try:
            acc = run_chain(data, cfg, ChainConfig(burn_in=0, samples=2000,
                                                   seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acc.samples == 2000
        assert peak < 0.5 * data.X.nbytes

    def test_explicit_init_validised(self):
        data, _ = planted_instance(36, 20, 6, [1.0], sigma=1.0)
        cfg = PosteriorConfig(lam=2.0, max_support=2, sigma2=1.0)
        acc = run_chain(data, cfg, ChainConfig(burn_in=0, samples=10, seed=0,
                                               init=(0, 3)))
        assert acc.samples == 10
        with pytest.raises(DomainError):
            run_chain(data, cfg, ChainConfig(burn_in=0, samples=10,
                                             init=(0, 1, 2)))

    def test_map_refit(self):
        data, _ = planted_instance(37, 30, 10, [2.0], sigma=0.3)
        cfg = PosteriorConfig(lam=practical_lambda(10), max_support=4,
                              sigma2=data.sigma ** 2)
        acc = run_chain(data, cfg, ChainConfig(burn_in=300, samples=1000, seed=5))
        sup, beta = map_refit(acc, data)
        np.testing.assert_array_equal(beta, least_squares_min_norm(data, sup))


class ScriptedRng:
    """Stands in for a Generator: random(size) returns the next scripted
    draw, which must have that size."""

    def __init__(self, script):
        self.draws = iter(script)

    def random(self, size):
        out = np.asarray(next(self.draws))
        assert out.shape == (size,)
        return out


def flip_script(p, steps):
    """Block-1 draws for a chain of flips of steps[k] = (column, acceptance
    uniform) under move_mix (1, 0)."""
    script = [[0.5]]                     # the swap pool, never read
    for col, u in steps:
        script += [[0.0], [(col + 0.5) / p], [u]]
    return script


def uniform_with_log(t):
    """A uniform whose log, as the kernel takes it, is exactly t (t < -1,
    where the logs of neighbouring doubles are no coarser than t's)."""
    u = math.exp(t)
    for _ in range(64):
        log_u = np.log(np.array([u]))[0]
        if log_u == t:
            return u
        u = np.nextafter(u, math.inf if log_u < t else -math.inf)
    raise AssertionError(f"no uniform has log {t!r}")


class TestWindows:
    """Windows only bulk-reject what the scalar step would reject: the
    kernel takes the same steps with and without them."""

    DESIGNS = {
        "40x15": lambda: planted_instance(50, 40, 15, [1.0, -0.8],
                                          sigma=0.7)[0],
        "30x60": lambda: planted_instance(51, 30, 60, [1.2, 1.0, -0.9],
                                          sigma=0.8)[0],
        "100x200": lambda: planted_instance(52, 100, 200, [1.0] * 5,
                                            sigma=0.75)[0],
        "25x12dep": dependent_design,
    }

    CASES = [
        ("40x15", (0.5, 0.5), 16384, 6, ()),
        ("40x15", (0.8, 0.2), 64, 6, (0, 1)),
        ("40x15", (1.0, 0.0), 16384, 1, ()),        # the cap rejects adds
        ("30x60", (0.0, 1.0), 3, 5, (0, 1, 2)),
        ("30x60", (1.0, 0.0), 16384, 5, ()),
        ("30x60", (0.5, 0.5), 1, 5, (0, 1, 2)),
        ("100x200", (0.5, 0.5), 64, 50, ()),
        ("100x200", (0.8, 0.2), 1, 50, (0, 1, 2, 3, 4)),
        ("100x200", (0.0, 1.0), 16384, 50, (0, 1, 2, 3, 7)),
        ("25x12dep", (0.5, 0.5), 16384, 6, (3, 5)),
        ("25x12dep", (0.0, 1.0), 64, 6, (3, 5)),
        ("25x12dep", (1.0, 0.0), 3, 6, (3, 5)),
    ]

    @pytest.mark.parametrize(
        "design, mix, block, cap, start", CASES,
        ids=[f"{d}-flip{m[0]}-block{b}-cap{c}" for d, m, b, c, _ in CASES])
    def test_windows_take_the_scalar_steps(self, monkeypatch, design, mix,
                                           block, cap, start):
        data = self.DESIGNS[design]()
        cfg = PosteriorConfig(lam=practical_lambda(data.p), max_support=cap,
                              sigma2=data.sigma ** 2)
        (rows_w, acc_w, flags), (rows_s, acc_s, _) = windowed_and_scalar(
            monkeypatch, data, cfg, start, 3000, mix, block,
            lambda: np.random.default_rng(8))
        assert rows_w == rows_s
        assert acc_w.best_support == acc_s.best_support
        assert acc_w.best_log_weight == acc_s.best_log_weight
        assert acc_w.visit_counts == acc_s.visit_counts
        assert acc_w.accepted == acc_s.accepted
        assert np.array_equal(acc_w.mean_sum, acc_s.mean_sum)
        assert np.array_equal(acc_w.moves_proposed, acc_s.moves_proposed)
        assert np.array_equal(acc_w.moves_accepted, acc_s.moves_accepted)
        assert acc_w.window_steps > 1000 and acc_s.window_steps == 0
        if design == "25x12dep":
            assert flags > 0
        if cap == 1:
            assert acc_w.moves_proposed[MOVES.index("none")] > 0

    def test_near_ties_go_to_the_scalar_step(self, monkeypatch):
        # every add to every full-rank start of size 1-3 whose gain in
        # log-weight the scorer rounds below the scalar step's gain (below
        # -1, where a uniform has either gain as its log), with the
        # acceptance log-uniform at either gain.  The scalar step accepts at
        # the scorer's and the bare score would reject: the window must leave
        # that step alone.
        data = self.DESIGNS["40x15"]()
        cfg = PosteriorConfig(lam=practical_lambda(data.p), max_support=6,
                              sigma2=data.sigma ** 2)
        lp = log_prior_table(data.p, cfg)

        def lw(size, rss):      # as the kernel weighs a support
            return float(lp[size]) - rss / (2.0 * cfg.sigma2)

        ties = []
        for k in (1, 2, 3):
            for start in itertools.combinations(range(data.p), k):
                st = make_state(data, start)
                if not st.full_rank:
                    continue
                cur = lw(k, st.rss)
                cols = [j for j in range(data.p) if j not in start]
                scored, _ = Neighbours(st, data).rss([-1] * len(cols), cols)
                for j, rss in zip(cols, scored):
                    gain = lw(k + 1, peek_rss_add(st, j, data)) - cur
                    score = lw(k + 1, rss) - cur
                    if score < gain < -1.0:
                        ties.append((start, j, gain, score))
        assert ties
        for start, j, gain, score in ties:
            for t in {score, gain}:
                script = flip_script(data.p, [(j, uniform_with_log(t))])
                (_, acc_w, _), (_, acc_s, _) = windowed_and_scalar(
                    monkeypatch, data, cfg, start, 1, (1.0, 0.0), 1,
                    lambda: ScriptedRng(script))
                assert acc_s.accepted == int(gain > t)
                assert acc_w.accepted == acc_s.accepted

    def test_a_support_reached_from_two_bases_is_decided_alike(
            self, monkeypatch):
        # {a, b} scored from {a} (adding b) and from {b} (adding a) differs
        # in its last bits.  The chain proposes adding b at {a} (rejected),
        # swaps a for b (accepted), and proposes adding a with the
        # log-uniform at the smaller of the two gains: the step must go the
        # same way whether or not a window scored the first proposal.
        data = self.DESIGNS["40x15"]()
        p = data.p
        cfg = PosteriorConfig(lam=practical_lambda(p), max_support=6,
                              sigma2=data.sigma ** 2)
        lp = log_prior_table(p, cfg)

        def lw(size, rss):      # as the kernel weighs a support
            return float(lp[size]) - rss / (2.0 * cfg.sigma2)

        cases = []
        for a, b in itertools.permutations(range(p), 2):
            st_a, st_b = make_state(data, (a,)), make_state(data, (b,))
            cur = lw(1, st_b.rss)
            from_a = lw(2, peek_rss_add(st_a, b, data)) - cur
            from_b = lw(2, peek_rss_add(st_b, a, data)) - cur
            if from_a != from_b and max(from_a, from_b) < -1.0:
                cases.append((a, b, from_b, min(from_a, from_b)))
        assert cases
        for a, b, gain, t in cases:
            script = [[(b + 0.5) / p] * 3,               # swap pool: b
                      [0.0, 0.99, 0.0],                  # flip, swap, flip
                      [(b + 0.5) / p, 0.0, (a + 0.5) / p],
                      [REJECT, ACCEPT, uniform_with_log(t)]]
            (rows_w, acc_w, _), (rows_s, acc_s, _) = windowed_and_scalar(
                monkeypatch, data, cfg, (a,), 3, (0.5, 0.5), 3,
                lambda: ScriptedRng(script))
            assert [r[3] for r in rows_s] == [0, 1, int(gain > t)]
            assert rows_w == rows_s
            assert acc_w.best_log_weight == acc_s.best_log_weight

    def test_pool_runs_out_inside_a_window(self, monkeypatch):
        # four swaps from (1, 3) that all drop column 1 and are rejected
        # (log-uniforms of ~690): the first reads pool entries 0 (column 1,
        # on the support) and 1, the second entry 2, and the third entry 3
        # (column 3, on the support) and then the refill.  The window stops
        # before the third swap, the scalar step draws the refill, and a
        # one-step window, the block's last step, takes the fourth swap;
        # the scripted draws must be read in this order, and all of them.
        data, _ = planted_instance(41, 20, 6, [1.0, -0.8], sigma=0.5)
        cfg = PosteriorConfig(lam=2.0, max_support=4, sigma2=data.sigma ** 2)
        script = [[c / 6 + 0.01 for c in (1, 0, 2, 3)],   # swap add pool
                  [0.99] * 4,                             # moves: swaps
                  [0.25] * 4,                             # member 0: col 1
                  [1e300] * 4,                            # acceptance
                  [c / 6 + 0.01 for c in (4, 5, 0, 2)]]   # pool refill

        rngs = []

        def scripted():
            rngs.append(ScriptedRng(script))
            return rngs[-1]

        (rows_w, acc_w, _), (rows_s, acc_s, _) = windowed_and_scalar(
            monkeypatch, data, cfg, (1, 3), 4, (0.5, 0.5), 4, scripted)
        assert rows_w == rows_s
        assert [next(r.draws, None) for r in rngs] == [None, None]
        assert [r[3] for r in rows_w] == [0] * 4
        assert acc_w.window_steps == 3          # steps 0, 1 and 3
        assert acc_w.moves_proposed[MOVES.index("swap")] == 4


def window_builds(monkeypatch, data, cfg, start, steps):
    """Walk the chain kernel along a scripted chain of flips, `steps` =
    [(column, acceptance uniform)], in blocks of one step: (the steps that
    built a Neighbours, trace rows)."""
    built, rows = [], []

    class Spy(Neighbours):
        def __init__(self, state, d):
            built.append(len(rows))
            super().__init__(state, d)

    monkeypatch.setattr(mcmc, "Neighbours", Spy)
    mcmc._walk(data, cfg, make_state(data, start), 0, len(steps), (1.0, 0.0),
               ScriptedRng(flip_script(data.p, steps)), 1, rows)
    return built, rows


REJECT, ACCEPT = 1e300, 1e-300     # acceptance uniforms, logs +-690


class TestHead:
    """A stay's first window opens after _head(p) scalar steps."""

    @pytest.mark.parametrize("p", [10, 200, 500, 3200])
    def test_first_build_after_the_head(self, monkeypatch, p):
        # two stays, on the planted support and then on it and column 5:
        # each proposes adding column p - 1 (rejected) h + 5 times, and the
        # first ends on the accepted add of column 5
        data, _ = planted_instance(55, 100, p, [1.0] * 5, sigma=0.75)
        cfg = PosteriorConfig(lam=practical_lambda(p), max_support=7,
                              sigma2=data.sigma ** 2)
        h = mcmc._head(p)
        assert h == min(mcmc._HEAD, max(8, p // 25))
        stay = [(p - 1, REJECT)] * (h + 5)
        steps = stay + [(5, ACCEPT)] + stay
        built, rows = window_builds(monkeypatch, data, cfg, tuple(range(5)),
                                    steps)
        assert [r[0] for r in rows if r[3]] == [h + 5]
        assert built == [h, h + 6 + h]


class TestThreshold:
    def test_zero_tau_keeps_nonzeros(self):
        beta = np.array([0.0, -0.4, 0.0, 2.0])
        out, support = threshold_coefficients(beta, 0.0)
        np.testing.assert_array_equal(out, beta)
        assert support == (1, 3)

    def test_all_below_gives_empty(self):
        out, support = threshold_coefficients(np.array([0.1, -0.2]), 0.5)
        assert support == ()
        assert np.all(out == 0.0)

    def test_default_rule(self):
        assert default_threshold(2.0, 100, 200) == pytest.approx(
            2.0 * math.sqrt(2.0 * math.log(200) / 100), rel=1e-14)

    def test_validation(self):
        for tau in (-0.1, math.nan):
            with pytest.raises(DomainError):
                threshold_coefficients(np.array([1.0]), tau)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            default_threshold(sigma, 100, 200)


class TestChainConfigValidation:
    def test_bad_values(self):
        with pytest.raises(DomainError):
            ChainConfig(burn_in=-1)
        with pytest.raises(DomainError):
            ChainConfig(samples=0)
        with pytest.raises(DomainError):
            ChainConfig(move_mix=(0.7, 0.7))
        with pytest.raises(DomainError):
            ChainConfig(chains=2, trace_path="x.csv")

    @pytest.mark.parametrize("mix", [
        (math.nan, math.nan), (0.5,), (0.5, 0.5, 0.0), (math.inf, -math.inf),
        (-0.5, 1.5), (0.5, None), "ab"])
    def test_move_mix_is_two_finite_probabilities(self, mix):
        with pytest.raises(DomainError, match="move_mix"):
            ChainConfig(move_mix=mix)

    def test_negative_seed_rejected(self):
        # SeedSequence would raise a bare ValueError once the chain starts
        with pytest.raises(DomainError, match="seed"):
            ChainConfig(seed=-1)
