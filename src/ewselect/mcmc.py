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
_proposals decodes them a span at a time, and the exact step (the base,
peek_rss_add, the threshold test) takes, in order until one is accepted,
every step that may be accepted.  In a stay's first _head(p) steps (about
the cost of one subsets.Neighbours build in peeks) and on a rank-deficient
state, that is every step that proposes a move.  Past them, the stay's
Neighbours scores a window of steps, and every step whose score misses the
threshold by more than its rounding slack is rejected in bulk.  Windows
thus leave the law of the chain unchanged: the chain takes exactly the
steps it would take with exact steps alone, reading the random stream in
the same order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DomainError
from .priors import PosteriorConfig, check_temperature, log_prior_table
from .subsets import (Neighbours, SubsetState, _check_subset,
                      least_squares_min_norm, make_state, peek_rss_add,
                      update_add, update_remove)

VISIT_CAP = 100_000        # most distinct supports kept in the histogram
_BLOCK = 16384
_HEAD = 128               # most steps before a stay's first window
_WINDOW = 1024            # steps a span decodes at most
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
    steps that windows rejected in bulk; the rest went to the exact step or
    proposed nothing outside a window.
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
    """Steps that open a stay's first window on a p-column design:
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

    The walk runs in spans, never across a block, each decoded once by
    _proposals.  The exact step takes a span's steps in order until one is
    accepted: in a stay's first _head(p) steps and on a rank-deficient
    state, every step that proposes a move; past them (a window), every
    step that the stay's Neighbours cannot reject within its rounding
    slack.  The other steps are rejections, counted in bulk.  A swap that
    would read past the pool refills it and goes to the exact step, so the
    uniforms are read in the same order however the spans fall.
    """
    p = data.p
    sbar = min(pcfg.max_support, p)
    lp = log_prior_table(p, pcfg)
    twos2 = 2.0 * pcfg.sigma2
    p_flip = move_mix[0]
    total = burn + samples

    member = np.zeros(p, dtype=bool)       # the current support's mask
    member[list(state.support)] = True
    lw_cur = float(lp[state.size]) - state.rss / twos2

    removals: dict[int, SubsetState] = {}
    visits: dict[tuple[int, ...], int] = {}
    visit_overflow = 0
    mean_sum = np.zeros(p)
    best_support, best_lw = state.support, lw_cur
    run_len = 0
    proposed = np.zeros(len(MOVES), dtype=np.int64)
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
        visit_overflow += _count_visit(visits, state.support, n_steps)

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
    scores = None      # its Neighbours, built by its first window
    drawn = -1         # the block start whose uniforms were drawn
    refilled = -1      # a step whose swap refilled the pool
    while t < total:
        i = t % block
        if i == 0 and t != drawn:
            move_u, coord_u, logacc = draw()
            drawn = t
        window = state.linv is not None and t - stay_start >= head
        span = min(_WINDOW, block - i, total - t)
        if state.linv is not None and not window:
            span = min(span, stay_start + head - t)
        drops, adds, used = _proposals(state, member, p_flip, sbar,
                                       move_u[i:i + span],
                                       coord_u[i:i + span], pool, pool_i)
        end = len(drops)
        if end == 0:       # step t's swap reads past the pool
            pool, pool_i, refilled = rng.random(block), 0, t
            continue
        kinds = (adds >= 0) + 2 * (drops >= 0)
        exact = kinds > 0
        if window:
            if scores is None:
                scores = Neighbours(state, data)
                builds += 1
            rss, slack = scores.rss(drops, adds)
            exact &= (lp[state.size - (drops >= 0) + (adds >= 0)]
                      - rss / twos2 - lw_cur
                      > logacc[i:i + end] - slack / twos2)
            exact[0] |= t == refilled

        n, taken, moved = end, 0, False
        for k in exact.nonzero()[0].tolist():
            taken += 1
            drop, add = int(drops[k]), int(adds[k])
            b = base(drop)
            rss_c = b.rss if add < 0 else peek_rss_add(b, add, data)
            lw_c = float(lp[b.size + (add >= 0)]) - rss_c / twos2
            if lw_c - lw_cur > logacc[i + k]:
                n, moved = k + 1, True
                break

        proposed += np.bincount(kinds[:n], minlength=len(MOVES))
        if window:
            window_steps += n - taken
        pool_i += int(used[n - 1])
        stay = t + n - moved       # steps t..stay-1 stay on `state`
        if trace_rows is not None:
            size = state.size
            trace_rows.extend((s, size, lw_cur, 0) for s in range(t, stay))
        run_len += max(0, stay - max(t, burn))
        if moved:
            accepted[int(kinds[n - 1])] += 1
            flush(run_len)
            run_len = int(stay >= burn)
            state = b if add < 0 else update_add(b, add, data)
            removals.clear()
            if add >= 0:
                removals[add] = b
                member[add] = True
            if drop >= 0:
                member[drop] = False
            lw_cur = lw_c          # peek_rss_add is update_add's RSS
            if lw_cur > best_lw:
                best_support, best_lw = state.support, lw_cur
            if trace_rows is not None:
                trace_rows.append((stay, state.size, lw_cur, 1))
            stay_start = stay + 1
            scores = None
        t += n

    flush(run_len)
    return state, ChainAccumulators(
        p=p, samples=samples, mean_sum=mean_sum,
        best_support=best_support, best_log_weight=best_lw,
        visit_counts=visits, visit_overflow=visit_overflow,
        accepted=sum(accepted), proposals=total, chains=1,
        moves_proposed=proposed, moves_accepted=np.array(accepted),
        window_steps=window_steps, neighbour_builds=builds,
    )


def _proposals(state: SubsetState, member, p_flip: float, sbar: int,
               move_u, coord_u, pool, pool_i: int):
    """Decode the proposals a run of steps from `state` makes, `member` its
    support's mask: (drops, adds, used), where step k drops column drops[k]
    and/or adds adds[k] (-1: none) and steps 0..k read used[k] swap-pool
    entries from `pool_i`.

    A flip of coord_u's column drops a member or adds a non-member below
    the cap `sbar`; a swap drops a uniform member and adds the first pool
    entry off the support.  The run ends before the first swap that would
    read past the pool.
    """
    p = len(member)
    size = state.size
    flip = move_u < p_flip
    col = (coord_u * p).astype(np.intp)
    hit = member[col]
    drops = np.where(flip & hit, col, -1)
    adds = np.where(flip & ~hit & (size < sbar), col, -1)
    used = np.zeros(len(move_u), dtype=np.intp)
    end = len(move_u)
    swaps = (~flip).nonzero()[0] if 0 < size < p else ()
    if len(swaps):
        # a swap reads pool entries until one falls off the support; the
        # first 2 per swap nearly always suffice, else read all that are left
        cand = (pool[pool_i:pool_i + 2 * len(swaps) + 32] * p).astype(np.intp)
        free = (~member[cand]).nonzero()[0]
        if len(free) < len(swaps):
            cand = (pool[pool_i:] * p).astype(np.intp)
            free = (~member[cand]).nonzero()[0]
        if len(free) < len(swaps):
            end = int(swaps[len(free)])
            swaps = swaps[:len(free)]
        free = free[:len(swaps)]
        drops[swaps] = np.asarray(state.support)[
            (coord_u[swaps] * size).astype(np.intp)]
        adds[swaps] = cand[free]
        used[swaps] = free + 1
        np.maximum.accumulate(used, out=used)
    return drops[:end], adds[:end], used[:end]


def _count_visit(visits: dict, support: tuple[int, ...], n: int) -> int:
    """Add n visits of `support` to `visits`, a histogram of at most
    VISIT_CAP supports: returns the visits it has no room for."""
    if support in visits:
        visits[support] += n
    elif len(visits) < VISIT_CAP:
        visits[support] = n
    else:
        return n
    return 0


def _merge(parts: list[ChainAccumulators]) -> ChainAccumulators:
    out = parts[0]
    for acc in parts[1:]:
        out.samples += acc.samples
        out.mean_sum += acc.mean_sum
        if acc.best_log_weight > out.best_log_weight:
            out.best_support = acc.best_support
            out.best_log_weight = acc.best_log_weight
        for sup, cnt in acc.visit_counts.items():
            out.visit_overflow += _count_visit(out.visit_counts, sup, cnt)
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
    execution interleaving.  A sigma2 too small for y'y (check_temperature)
    is a DomainError.
    """
    check_temperature(data.yty, pcfg)
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

