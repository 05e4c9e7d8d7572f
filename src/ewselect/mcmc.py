"""Metropolis-Hastings sampler over supports and its estimators.

One kernel, _walk, serves run_chain.  It mixes two symmetric
proposals: flip (toggle one uniformly chosen coordinate) and swap (exchange
a uniform member for a uniform non-member, drawn by rejection), so
acceptance reduces to the posterior ratio.  The kernel weighs a support as
log prior(|J|) - rss / (2 sigma^2) from the RSS its subset state holds.  It
memoizes the current state's removals by column: a remove flip's candidate
is a swap's intermediate, so both read one removal, built once per stay.

Nearly every step is a rejection, so a stay on one support lasts hundreds
of steps, and the uniforms that fix its proposals are drawn in advance.
A stay starts with _head(p) scalar steps, about the cost of one
subsets.Neighbours build in peeks.  Past them, _scan decodes a window of
those proposals with numpy, scores them all from the stay's Neighbours, and
rejects in bulk every step before the first one that may be accepted within
the scores' rounding slack; the scalar step takes that step.  Windows leave
the law of the chain unchanged, and they take exactly the steps scalar
steps alone would take, reading the random stream in the same order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DomainError
from .priors import PosteriorConfig, log_prior_table
from .subsets import (Neighbours, SubsetState, _check_subset,
                      least_squares_min_norm, make_state, peek_rss_add,
                      update_add, update_remove)

VISIT_CAP = 100_000        # most distinct supports kept in the histogram
_BLOCK = 16384
_HEAD = 128               # most scalar steps at the start of a stay
_WINDOW = 1024            # steps a window scans at most
# step kinds, indexed by (add >= 0) + 2 * (drop >= 0)
MOVES = ("none", "add", "drop", "swap")


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
        object.__setattr__(self, "move_mix", _check_move_mix(self.move_mix))
        if self.chains < 1:
            raise DomainError("chains must be >= 1")
        if self.trace_path is not None and self.chains != 1:
            raise DomainError("trace export requires chains == 1")


@dataclass
class ChainAccumulators:
    """Running sums and records produced by a chain run.

    moves_proposed / moves_accepted count the steps by the move they
    propose, in MOVES order; a "none" step proposes nothing (a flip past
    the support cap, or a swap from the empty or full support), so the
    counts sum to `proposals` and `accepted`.  window_steps counts the
    steps that windows rejected in bulk; the rest were scalar steps.
    neighbour_builds counts the stays' subsets.Neighbours builds.
    """

    p: int
    samples: int
    mean_sum: np.ndarray
    best_support: tuple[int, ...]
    best_log_weight: float
    visit_counts: dict = field(repr=False)
    visit_overflow: int
    accepted: int
    proposals: int
    moves_proposed: np.ndarray
    moves_accepted: np.ndarray
    window_steps: int
    neighbour_builds: int
    chains: int = 1

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0


def _check_move_mix(move_mix) -> tuple[float, float]:
    """(flip, swap) probabilities: two finite, nonnegative numbers summing
    to 1, or DomainError."""
    try:
        pf, ps = move_mix
        pf, ps = float(pf), float(ps)
    except (TypeError, ValueError):
        raise DomainError("move_mix must be two numbers") from None
    # NaN fails every comparison, and an infinite entry misses the sum
    if not (pf >= 0 and ps >= 0 and abs(pf + ps - 1.0) <= 1e-12):
        raise DomainError("move_mix must be nonnegative and sum to 1")
    return pf, ps


def default_threshold(sigma: float, n: int, p: int) -> float:
    """Noise-level cutoff sigma * sqrt(2 log(p) / n) for sparsifying a mean fit."""
    if not 0 <= sigma < math.inf or n < 1 or p < 2:
        raise DomainError("need finite sigma >= 0, n >= 1, p >= 2")
    return sigma * math.sqrt(2.0 * math.log(p) / n)


def threshold_coefficients(beta, tau: float):
    """Zero out entries with |beta_j| <= tau; returns (sparse beta, support)."""
    if not tau >= 0:
        raise DomainError("tau must be >= 0")
    beta = np.asarray(beta, dtype=np.float64)
    keep = np.abs(beta) > tau
    out = np.where(keep, beta, 0.0)
    return out, tuple(int(j) for j in np.flatnonzero(keep))


def posterior_mean(acc: ChainAccumulators) -> np.ndarray:
    """Ergodic average of the per-support least-squares fits."""
    return acc.mean_sum / acc.samples


def map_refit(acc: ChainAccumulators, data: Dataset):
    """Best visited support and its refitted coefficients."""
    return acc.best_support, least_squares_min_norm(data, acc.best_support)


def _initial_support(data: Dataset, pcfg: PosteriorConfig, init) -> tuple[int, ...]:
    sbar = min(pcfg.max_support, data.p)
    if isinstance(init, str):
        if init == "empty":
            return ()
        if init == "lasso":
            from .baselines import (LassoConfig, default_lasso_penalty,
                                    lasso_coordinate_descent)
            lam_l = default_lasso_penalty(math.sqrt(pcfg.sigma2), data.n, data.p)
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


def _head(p: int) -> int:
    """Scalar steps that open a stay's first window on a p-column design:
    one Neighbours build costs about as much as max(8, p // 25) peeks."""
    return min(_HEAD, max(8, p // 25))


def _walk(data: Dataset, pcfg: PosteriorConfig, state: SubsetState,
          burn: int, samples: int, move_mix: tuple[float, float], rng,
          block: int, trace_rows) -> tuple[SubsetState, ChainAccumulators]:
    """burn + samples Metropolis steps from `state`: (final state, sums over
    the last `samples` steps).  Uniforms are drawn `block` at a time.  A
    proposal drops column `drop` and/or adds `add` (-1: none) to its base,
    `state` or the memoized removal of `drop`; an accepted move keeps only
    the new state's one known removal, its base less `add`.

    A stay takes _head(p) scalar steps, and every stay on a rank-deficient
    state takes only scalar steps.  Past them, _scan rejects runs of
    steps in windows that never cross a block, and the scalar step takes
    the step a window stops at, so every acceptance, dense fallback and
    pool refill is a scalar step and the uniforms are consumed in the
    same order either way.
    """
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

    removals: dict[int, SubsetState] = {}
    visits: dict[tuple[int, ...], int] = {}
    visit_overflow = 0
    mean_sum = np.zeros(p)
    best_support, best_lw = state.support, lw_cur
    run_len = 0
    proposed = [0] * len(MOVES)
    accepted = [0] * len(MOVES)
    window_steps = 0
    builds = 0

    pool = rng.random(block)
    pool_i = 0

    def flush(n_steps: int):
        nonlocal visit_overflow
        if n_steps == 0:
            return
        idx, val = state.beta_sparse(data)
        if len(idx):
            mean_sum[idx] += val * n_steps
        if state.support in visits:
            visits[state.support] += n_steps
        elif len(visits) < VISIT_CAP:
            visits[state.support] = n_steps
        else:
            visit_overflow += n_steps

    def draw():
        return rng.random(block), rng.random(block), np.log(rng.random(block))

    def base(drop: int) -> SubsetState:
        if drop < 0:
            return state
        out = removals.get(drop)
        if out is None:
            out = removals[drop] = update_remove(state, drop, data)
        return out

    head = _head(p)
    t = 0
    stay_start = 0     # the step that reached the current state
    scores = None      # its Neighbours, built by the first window
    drawn = -1         # the block start whose uniforms a window drew
    while t < total:
        if state.linv is not None and t - stay_start >= head:
            i = t % block
            if i == 0:
                move_u, coord_u, logacc = draw()
                drawn = t
            span = min(_WINDOW, block - i, total - t)
            if scores is None:
                scores = Neighbours(state, data)
                builds += 1
            n, kinds, pool_i = _scan(state, scores, p, lp, twos2, lw_cur,
                                     p_flip, sbar, move_u[i:i + span],
                                     coord_u[i:i + span], logacc[i:i + span],
                                     pool, pool_i)
            proposed = [a + b for a, b in zip(proposed, kinds)]
            window_steps += n
            if trace_rows is not None:
                size = state.size
                trace_rows.extend((s, size, lw_cur, 0)
                                  for s in range(t, t + n))
            run_len += max(0, t + n - max(t, burn))
            t += n
            if n == span:
                continue
            stop = t + 1
        elif state.linv is None:
            stop = total
        else:
            stop = min(total, stay_start + head)

        for t in range(t, stop):
            i = t % block
            if i == 0 and t != drawn:
                move_u, coord_u, logacc = draw()
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
            kind = (add >= 0) + 2 * (drop >= 0)
            proposed[kind] += 1

            acc_flag = False
            if kind:
                b = base(drop)
                rss_c = b.rss if add < 0 else peek_rss_add(b, add, data)
                lw_c = float(lp[b.size + (add >= 0)]) - rss_c / twos2
                if lw_c - lw_cur > logacc[i]:
                    acc_flag = True
                    accepted[kind] += 1
                    if t >= burn:
                        flush(run_len)
                    run_len = 0
                    state = b if add < 0 else update_add(b, add, data)
                    removals.clear()
                    if add >= 0:
                        removals[add] = b
                    mask = cand_mask
                    lw_cur = lw_c      # peek_rss_add is update_add's RSS
                    if lw_cur > best_lw:
                        best_support, best_lw = state.support, lw_cur

            if t >= burn:
                run_len += 1
            if trace_rows is not None:
                trace_rows.append((t, len(state.support), lw_cur,
                                   int(acc_flag)))
            if acc_flag:
                stay_start = t + 1
                scores = None
                break
        t += 1

    flush(run_len)
    return state, ChainAccumulators(
        p=p, samples=samples, mean_sum=mean_sum,
        best_support=best_support, best_log_weight=best_lw,
        visit_counts=visits, visit_overflow=visit_overflow,
        accepted=sum(accepted), proposals=total, chains=1,
        moves_proposed=np.array(proposed), moves_accepted=np.array(accepted),
        window_steps=window_steps, neighbour_builds=builds,
    )


def _scan(state: SubsetState, scores: Neighbours, p: int, lp, twos2: float,
          lw_cur: float, p_flip: float, sbar: int, move_u, coord_u, logacc,
          pool, pool_i: int):
    """Count the rejections that open a window of steps from the full-rank
    `state`, scoring at once every proposal the window's uniforms fix.

    Returns (n, kinds, pool_i): steps 0..n-1 are rejections, proposing
    each of the MOVES `kinds` times and leaving the swap pool at `pool_i`.
    Unless n is the window's length, step n is left to the scalar step:
    a proposal that may be accepted within the scores' rounding slack
    (every one the scorer finds rank-deficient), or a swap whose pool entry
    needs a refill.
    """
    size = state.size
    member = np.zeros(p, dtype=bool)
    member[state.order] = True
    flip = move_u < p_flip
    col = (coord_u * p).astype(np.intp)
    hit = member[col]
    drops = np.where(flip & hit, col, -1)
    adds = np.where(flip & ~hit & (size < sbar), col, -1)
    end = len(move_u)
    swaps = np.flatnonzero(~flip) if 0 < size < p else np.empty(0, np.intp)
    if len(swaps):
        # a swap reads pool entries until one falls off the support; the
        # first 2 per swap nearly always suffice, else read all that are left
        cand = (pool[pool_i:pool_i + 2 * len(swaps) + 32] * p).astype(np.intp)
        free = np.flatnonzero(~member[cand])
        if len(free) < len(swaps):
            cand = (pool[pool_i:] * p).astype(np.intp)
            free = np.flatnonzero(~member[cand])
        if len(free) < len(swaps):
            end = int(swaps[len(free)])
            swaps = swaps[:len(free)]
        drops[swaps] = np.asarray(state.support)[
            (coord_u[swaps] * size).astype(np.intp)]
        adds[swaps] = cand[free[:len(swaps)]]
    drops, adds = drops[:end], adds[:end]
    rss, slack = scores.rss(drops, adds)
    new_size = size - (drops >= 0) + (adds >= 0)
    stops = ((drops >= 0) | (adds >= 0)) & (
        lp[new_size] - rss / twos2 - lw_cur > logacc[:end] - slack / twos2)
    n = int(np.argmax(stops)) if stops.any() else end
    taken = np.count_nonzero(swaps < n)
    if taken:
        pool_i += int(free[taken - 1]) + 1
    kinds = np.bincount((adds[:n] >= 0) + 2 * (drops[:n] >= 0),
                        minlength=len(MOVES))
    return n, kinds.tolist(), pool_i


def _merge(parts: list[ChainAccumulators]) -> ChainAccumulators:
    out = parts[0]
    for acc in parts[1:]:
        out.samples += acc.samples
        out.mean_sum += acc.mean_sum
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
        out.moves_proposed += acc.moves_proposed
        out.moves_accepted += acc.moves_accepted
        out.window_steps += acc.window_steps
        out.neighbour_builds += acc.neighbour_builds
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

