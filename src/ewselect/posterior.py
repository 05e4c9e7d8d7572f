"""Exact enumeration of the support posterior and its estimators.

Feasible only up to the shared subset cap; serves as the ground-truth
oracle for the Metropolis sampler and as the solver for tiny problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .data import Dataset
from .enumeration import (_subset_fits, check_cap, subset_count,
                          subset_index_array, subset_rank)
from .errors import DomainError
from .priors import NEG_INF, PosteriorConfig, log_prior, log_prior_table
from .subsets import _check_subset, least_squares_min_norm, residual_ss


def log_posterior_unnorm(data: Dataset, J, cfg: PosteriorConfig) -> float:
    """log prior(|J|) - rss(J) / (2 sigma^2); -inf above the support cap."""
    support = _check_subset(J, data.p)
    lp = log_prior(len(support), data.p, cfg)
    if lp == NEG_INF:
        return NEG_INF
    return lp - residual_ss(data, support) / (2.0 * cfg.sigma2)


@dataclass
class _SizeBlock:
    subsets: np.ndarray      # (m, size) lexicographic
    log_weight: np.ndarray   # (m,)
    prob: np.ndarray         # (m,)


@dataclass
class PosteriorTable:
    """Exhaustive normalized posterior over all supports up to the cap.

    mean_beta is the posterior mean of the minimum-norm fits;
    restricted_mean_beta keeps only the full-rank supports, with their
    original weights (a sub-probability average, not a renormalized one).
    Full rank is the Schur-pivot rule: every Cholesky pivot of X_J'X_J, in
    sorted column order, above EPS_RANK * n, as for
    make_state(data, J).full_rank (a chain state reached in another
    insertion order can differ at the margin).
    """

    p: int
    blocks: list[_SizeBlock] = field(repr=False)
    log_normalizer: float
    map_subset: tuple[int, ...]
    map_log_weight: float
    mean_beta: np.ndarray = field(repr=False)
    restricted_mean_beta: np.ndarray = field(repr=False)

    @property
    def n_entries(self) -> int:
        return sum(len(b.prob) for b in self.blocks)

    def entries(self) -> Iterator[tuple[tuple[int, ...], float, float]]:
        """Yield (subset, log_weight, prob) in size-then-lex order."""
        for b in self.blocks:
            for row, lw, pr in zip(b.subsets, b.log_weight, b.prob):
                yield tuple(int(v) for v in row), float(lw), float(pr)

    def _locate(self, J) -> tuple[_SizeBlock, int]:
        support = _check_subset(J, self.p)
        s = len(support)
        if s >= len(self.blocks):
            raise DomainError(f"subset size {s} above the enumerated cap")
        return self.blocks[s], subset_rank(support, self.p)

    def prob_of(self, J) -> float:
        block, idx = self._locate(J)
        return float(block.prob[idx])

    def log_weight_of(self, J) -> float:
        block, idx = self._locate(J)
        return float(block.log_weight[idx])


def enumerate_posterior(data: Dataset, cfg: PosteriorConfig,
                        cap: int | None = None) -> PosteriorTable:
    """Evaluate the posterior weight of every support with |J| <= max_support.

    MAP ties break toward smaller supports, then lexicographically; both are
    automatic from the size-ascending, lex-ordered scan with strict argmax.
    """
    p = data.p
    s_max = min(cfg.max_support, p)
    check_cap(subset_count(p, s_max), cap)

    lp = log_prior_table(p, cfg)
    fits = _subset_fits(data, s_max)
    logw = [lp[s] - rss / (2.0 * cfg.sigma2) for s, (rss, _, _) in enumerate(fits)]
    peak = max(float(np.max(lw)) for lw in logw)
    log_norm = peak + np.log(sum(float(np.sum(np.exp(lw - peak))) for lw in logw))
    blocks = [_SizeBlock(subset_index_array(p, s), lw, np.exp(lw - log_norm))
              for s, lw in enumerate(logw)]

    map_subset: tuple[int, ...] = ()
    map_lw = NEG_INF
    for b in blocks:
        i = int(np.argmax(b.log_weight))
        if b.log_weight[i] > map_lw:
            map_lw = float(b.log_weight[i])
            map_subset = tuple(int(v) for v in b.subsets[i])

    mean = np.zeros(p)
    restricted = np.zeros(p)
    for b, (_, beta, full) in zip(blocks, fits):
        beta *= b.prob[:, None]      # the fits are local to this call
        rows = b.subsets.ravel()
        mean += np.bincount(rows, weights=beta.ravel(), minlength=p)
        beta[~full] = 0.0            # adds +0.0: the sums do not change
        restricted += np.bincount(rows, weights=beta.ravel(), minlength=p)

    return PosteriorTable(p=p, blocks=blocks, log_normalizer=float(log_norm),
                          map_subset=map_subset, map_log_weight=map_lw,
                          mean_beta=mean, restricted_mean_beta=restricted)


class ExactEstimators(NamedTuple):
    map_subset: tuple[int, ...]
    map_beta: np.ndarray
    mean_beta: np.ndarray
    restricted_mean_beta: np.ndarray


def exact_estimators(table: PosteriorTable, data: Dataset) -> ExactEstimators:
    """MAP refit, posterior-mean fit, and the mean restricted to full-rank supports.

    Both means were accumulated during enumeration; only the MAP support
    is refitted here.
    """
    if table.n_entries == 0:
        raise DomainError("posterior table is empty")
    map_beta = least_squares_min_norm(data, table.map_subset)
    return ExactEstimators(table.map_subset, map_beta, table.mean_beta.copy(),
                           table.restricted_mean_beta.copy())
