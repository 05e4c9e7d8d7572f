"""Metropolis-Hastings sampler over supports and its estimators.

One kernel, _walk, serves run_chain and mh_step.  It mixes two symmetric
proposals: flip (toggle one uniformly chosen coordinate) and swap (exchange
a uniform member for a uniform non-member, drawn by rejection), so
acceptance reduces to the posterior ratio.  The kernel weighs a support as
log prior(|J|) - rss / (2 sigma^2) from the RSS its subset state holds.  It
memoizes log-weights by support bitmask, and the current state's removals
by column: a remove flip's candidate is a swap's intermediate, so both read
one removal, built once per stay.  Memoization only caches deterministic
quantities, so the sampled law is identical to the plain kernel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DomainError
from .priors import PosteriorConfig, log_prior_table
from .subsets import (SubsetState, _check_subset, least_squares_min_norm,
                      make_state, peek_rss_add, update_add, update_remove)

VISIT_CAP = 100_000        # most distinct supports kept in the histogram
LOGW_CACHE_CAP = 200_000   # memoized per-support log-weights
_BLOCK = 16384


@dataclass(frozen=True)
class ChainConfig:
    """Sampler run parameters.

    burn_in / samples are the discarded and recorded step counts (defaults
    3000 / 7000).  `init` is "empty", "lasso" (warm start from a default
    coordinate-descent fit), or an explicit support.  `chains` > 1 runs
    independent replicas on spawned seeds and averages the estimators.
    """

    burn_in: int = 3000
    samples: int = 7000
    seed: int = 0
    move_mix: tuple[float, float] = (0.5, 0.5)
    init: object = "empty"
    chains: int = 1
    trace_path: object = None

    def __post_init__(self):
        if self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        pf, ps = self.move_mix
        if pf < 0 or ps < 0 or abs(pf + ps - 1.0) > 1e-12:
            raise DomainError("move_mix must be nonnegative and sum to 1")
        if self.chains < 1:
            raise DomainError("chains must be >= 1")
        if self.trace_path is not None and self.chains != 1:
            raise DomainError("trace export requires chains == 1")


@dataclass
class ChainAccumulators:
    """Running sums and records produced by a chain run."""

    p: int
    samples: int
    mean_sum: np.ndarray
    restricted_sum: np.ndarray
    best_support: tuple[int, ...]
    best_log_weight: float
    visit_counts: dict = field(repr=False)
    visit_overflow: int
    accepted: int
    proposals: int
    chains: int = 1

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0


def default_threshold(sigma: float, n: int, p: int) -> float:
    """Noise-level cutoff sigma * sqrt(2 log(p) / n) for sparsifying a mean fit."""
    if sigma < 0 or n < 1 or p < 2:
        raise DomainError("need sigma >= 0, n >= 1, p >= 2")
    return sigma * math.sqrt(2.0 * math.log(p) / n)


def threshold_coefficients(beta, tau: float):
    """Zero out entries with |beta_j| <= tau; returns (sparse beta, support)."""
    if tau < 0:
        raise DomainError("tau must be >= 0")
    beta = np.asarray(beta, dtype=np.float64)
    keep = np.abs(beta) > tau
    out = np.where(keep, beta, 0.0)
    return out, tuple(int(j) for j in np.flatnonzero(keep))


def posterior_mean(acc: ChainAccumulators) -> np.ndarray:
    """Ergodic average of the per-support least-squares fits."""
    return acc.mean_sum / acc.samples


def restricted_posterior_mean(acc: ChainAccumulators) -> np.ndarray:
    """Same average but only over full-rank supports (sub-probability sum)."""
    return acc.restricted_sum / acc.samples


def map_refit(acc: ChainAccumulators, data: Dataset):
    """Best visited support and its refitted coefficients."""
    return acc.best_support, least_squares_min_norm(data, acc.best_support)


def mh_step(state: SubsetState, data: Dataset, pcfg: PosteriorConfig, rng,
            move_mix: tuple[float, float] = (0.5, 0.5)) -> SubsetState:
    """One step of run_chain's kernel for the posterior `pcfg`; returns the
    new state (same object if rejected).

    Both proposals are symmetric, so the acceptance probability is
    min(1, exp(delta log-weight)); a flip that would exceed the support cap
    is an immediate rejection.  The step draws its uniforms one at a time,
    so it consumes `rng` differently from run_chain's blocked draws, with
    the same transition law.
    """
    return _walk(data, pcfg, state, 1, 0, move_mix, rng, 1, None)[0]


def _initial_support(data: Dataset, pcfg: PosteriorConfig, init) -> tuple[int, ...]:
    sbar = min(pcfg.max_support, data.p)
    if isinstance(init, str):
        if init == "empty":
            return ()
        if init == "lasso":
            from .baselines import LassoConfig, lasso_coordinate_descent
            sigma = math.sqrt(pcfg.sigma2)
            lam_l = 4.0 * sigma * math.sqrt(math.log(data.p) / data.n)
            beta = lasso_coordinate_descent(data, LassoConfig(lam=lam_l))
            nz = np.flatnonzero(beta)
            if len(nz) > sbar:
                nz = nz[np.argsort(-np.abs(beta[nz]))[:sbar]]
            return tuple(sorted(int(j) for j in nz))
        raise DomainError(f"unknown chain init {init!r}")
    support = _check_subset(init, data.p)
    if len(support) > sbar:
        raise DomainError(f"initial support larger than the cap {sbar}")
    return support


def _walk(data: Dataset, pcfg: PosteriorConfig, state: SubsetState,
          burn: int, samples: int, move_mix: tuple[float, float], rng,
          block: int, trace_rows) -> tuple[SubsetState, ChainAccumulators]:
    """burn + samples Metropolis steps from `state`: (final state, sums over
    the last `samples` steps).  Uniforms are drawn `block` at a time.  A
    proposal drops column `drop` and/or adds `add` (-1: none) to its base,
    `state` or the memoized removal of `drop`; an accepted move keeps only
    the new state's one known removal, its base less `add`."""
    p = data.p
    sbar = min(pcfg.max_support, p)
    lp = log_prior_table(p, pcfg)
    twos2 = 2.0 * pcfg.sigma2
    p_flip = move_mix[0]
    total = burn + samples

    mask = 0
    for j in state.support:
        mask |= 1 << j
    lw_cur = float(lp[state.size]) - state.rss / twos2

    logws = {mask: lw_cur}
    removals: dict[int, SubsetState] = {}
    visits: dict[tuple[int, ...], int] = {}
    visit_overflow = 0
    mean_sum = np.zeros(p)
    restr_sum = np.zeros(p)
    best_support, best_lw = state.support, lw_cur
    accepted = 0
    run_len = 0

    pool = rng.random(block)
    pool_i = 0

    def flush(n_steps: int):
        nonlocal visit_overflow
        if n_steps == 0:
            return
        idx, val = state.beta_sparse(data)
        if len(idx):
            mean_sum[idx] += val * n_steps
            if state.full_rank:
                restr_sum[idx] += val * n_steps
        if state.support in visits:
            visits[state.support] += n_steps
        elif len(visits) < VISIT_CAP:
            visits[state.support] = n_steps
        else:
            visit_overflow += n_steps

    def base(drop: int) -> SubsetState:
        if drop < 0:
            return state
        out = removals.get(drop)
        if out is None:
            out = removals[drop] = update_remove(state, drop, data)
        return out

    for t in range(total):
        i = t % block
        if i == 0:
            move_u = rng.random(block)
            coord_u = rng.random(block)
            logacc = np.log(rng.random(block))
        size = len(state.support)
        drop = add = -1
        if move_u[i] < p_flip:
            j = int(coord_u[i] * p)
            cand_mask = mask ^ (1 << j)
            if (mask >> j) & 1:
                drop = j
            elif size < sbar:
                add = j
        elif 0 < size < p:
            drop = state.support[int(coord_u[i] * size)]
            while True:
                if pool_i >= block:
                    pool = rng.random(block)
                    pool_i = 0
                add = int(pool[pool_i] * p)
                pool_i += 1
                if not (mask >> add) & 1:
                    break
            cand_mask = mask ^ (1 << drop) ^ (1 << add)

        acc_flag = False
        if drop >= 0 or add >= 0:
            lw_c = logws.get(cand_mask)
            if lw_c is None:
                b = base(drop)
                rss_c = b.rss if add < 0 else peek_rss_add(b, add, data)
                lw_c = float(lp[cand_mask.bit_count()]) - rss_c / twos2
                if len(logws) < LOGW_CACHE_CAP:
                    logws[cand_mask] = lw_c
            if lw_c - lw_cur > logacc[i]:
                acc_flag = True
                accepted += 1
                b = base(drop)
                new_state = b if add < 0 else update_add(b, add, data)
                removals.clear()
                if add >= 0:
                    removals[add] = b
                if t >= burn:
                    flush(run_len)
                run_len = 0
                mask = cand_mask
                state = new_state
                lw_cur = lw_c
                if lw_cur > best_lw:
                    best_support, best_lw = state.support, lw_cur

        if t >= burn:
            run_len += 1
        if trace_rows is not None:
            trace_rows.append((t, len(state.support), lw_cur, int(acc_flag)))

    flush(run_len)
    return state, ChainAccumulators(
        p=p, samples=samples, mean_sum=mean_sum, restricted_sum=restr_sum,
        best_support=best_support, best_log_weight=best_lw,
        visit_counts=visits, visit_overflow=visit_overflow,
        accepted=accepted, proposals=total, chains=1,
    )


def _merge(parts: list[ChainAccumulators]) -> ChainAccumulators:
    out = parts[0]
    for acc in parts[1:]:
        out.samples += acc.samples
        out.mean_sum += acc.mean_sum
        out.restricted_sum += acc.restricted_sum
        if acc.best_log_weight > out.best_log_weight:
            out.best_support = acc.best_support
            out.best_log_weight = acc.best_log_weight
        for sup, cnt in acc.visit_counts.items():
            if sup in out.visit_counts:
                out.visit_counts[sup] += cnt
            elif len(out.visit_counts) < VISIT_CAP:
                out.visit_counts[sup] = cnt
            else:
                out.visit_overflow += cnt
        out.visit_overflow += acc.visit_overflow
        out.accepted += acc.accepted
        out.proposals += acc.proposals
        out.chains += acc.chains
    return out


def run_chain(data: Dataset, pcfg: PosteriorConfig,
              ccfg: ChainConfig | None = None) -> ChainAccumulators:
    """Run burn_in + samples Metropolis steps; deterministic given the seed.

    With chains > 1, replicas run on independently spawned streams and the
    accumulators merge in chain order, so the result does not depend on any
    execution interleaving.
    """
    if ccfg is None:
        ccfg = ChainConfig()
    seeds = np.random.SeedSequence(ccfg.seed).spawn(ccfg.chains)
    trace_rows = [] if ccfg.trace_path is not None else None
    start = _initial_support(data, pcfg, ccfg.init)
    parts = [_walk(data, pcfg, make_state(data, start), ccfg.burn_in,
                   ccfg.samples, ccfg.move_mix, np.random.default_rng(s),
                   _BLOCK, trace_rows)[1]
             for s in seeds]
    acc = _merge(parts)
    if trace_rows is not None:
        with open(ccfg.trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "support_size", "log_weight", "accepted"])
            for row in trace_rows:
                w.writerow([row[0], row[1], f"{row[2]:.17g}", row[3]])
    return acc

