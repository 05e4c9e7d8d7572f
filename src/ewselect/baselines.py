"""Subset-penalized selection and a coordinate-descent lasso.

Both serve as experiment comparators and as warm starts for the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .enumeration import (SCAN_CHUNK, batched_rss, check_cap, subset_count,
                          subset_index_array)
from .errors import DomainError, NotConvergedError, SingularError
from .subsets import (EPS_RANK, _check_subset, least_squares_min_norm,
                      residual_ss)


@dataclass(frozen=True)
class L0Config:
    """Selection by minimizing rss(J) + lam * |J| over supports up to max_support."""

    lam: float
    max_support: int
    strategy: str = "exhaustive"

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError("lam must be >= 0")
        if self.max_support < 1:
            raise DomainError("max_support must be >= 1")
        if self.strategy not in ("exhaustive", "greedy"):
            raise DomainError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class LassoConfig:
    """Cyclic coordinate descent on (1/n)||y - X b||^2 + 2 lam ||b||_1."""

    lam: float
    max_iter: int = 100_000
    tol: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError("lam must be >= 0")
        if self.max_iter < 1 or self.tol <= 0:
            raise DomainError("need max_iter >= 1 and tol > 0")


def default_lasso_penalty(sigma: float, n: int, p: int, a: float = 4.0) -> float:
    """The A * sigma * sqrt(log(p)/n) rule for the lasso regularizer."""
    if sigma < 0 or a <= 0 or n < 1 or p < 2:
        raise DomainError("need sigma >= 0, a > 0, n >= 1, p >= 2")
    return a * sigma * math.sqrt(math.log(p) / n)


def _exhaustive_l0(data: Dataset, cfg: L0Config):
    s_max = min(cfg.max_support, data.p)
    check_cap(subset_count(data.p, s_max))
    eps_n = EPS_RANK * data.n
    best_val = data.yty  # the empty model
    best: tuple[int, ...] = ()
    for s in range(1, s_max + 1):
        subs = subset_index_array(data.p, s)
        penalty = cfg.lam * s
        for lo in range(0, len(subs), SCAN_CHUNK):
            hi = min(lo + SCAN_CHUNK, len(subs))
            rss, _, _ = batched_rss(data.gram, data.xty, data.yty,
                                    subs[lo:hi], eps_n)
            i = int(np.argmin(rss))
            val = rss[i] + penalty
            # size-ascending scan with strict < keeps the sparser, then
            # lexicographically smaller, of any exact ties
            if val < best_val:
                best_val = float(val)
                best = tuple(int(v) for v in subs[lo + i])
    return best, best_val


def _greedy_l0(data: Dataset, score):
    """Forward selection under `score(rss, size)`, then one backward sweep."""
    n, p = data.n, data.p
    U = np.array(data.X)          # columns progressively orthogonalized
    r = np.array(data.y)
    support: list[int] = []
    rss = data.yty
    best_score = score(rss, 0)
    eps_n = EPS_RANK * n
    while len(support) < min(p, n):
        den = np.einsum("ij,ij->j", U, U)
        num = U.T @ r
        gain = np.where(den > eps_n, num * num / np.where(den > eps_n, den, 1.0), 0.0)
        if support:
            gain[np.asarray(support)] = 0.0
        cand = np.maximum(rss - gain, 0.0)
        scores = score(cand, len(support) + 1)
        j = int(np.argmin(scores))
        if not scores[j] < best_score:
            break
        best_score = float(scores[j])
        rss = float(cand[j])
        support.append(j)
        q = U[:, j] / math.sqrt(den[j])
        U -= np.outer(q, q @ U)
        r -= q * float(q @ r)
    # one backward-elimination pass over a snapshot of the support
    for j in sorted(support):
        reduced = [v for v in support if v != j]
        val = score(residual_ss(data, reduced), len(reduced))
        if val < best_score:
            best_score = float(val)
            support = reduced
    support = tuple(sorted(support))
    return support, best_score


def l0_select(data: Dataset, cfg: L0Config):
    """Penalized subset selection; returns (support, refitted coefficients).

    Exhaustive mode finds the global minimizer (ties: smaller support, then
    lexicographic); greedy mode adds the best column while the criterion
    strictly decreases and finishes with one backward-elimination sweep.
    """
    if cfg.strategy == "exhaustive":
        support, _ = _exhaustive_l0(data, cfg)
    else:
        capped = min(cfg.max_support, data.p)

        def score(rss, size):
            return np.where(np.asarray(size) <= capped,
                            rss + cfg.lam * size, np.inf)

        support, _ = _greedy_l0(data, score)
    return support, least_squares_min_norm(data, support)


def lasso_coordinate_descent(data: Dataset, cfg: LassoConfig) -> np.ndarray:
    """Soft-threshold coordinate descent; converged when no coordinate moves
    more than cfg.tol in a full sweep.

    Raises NotConvergedError (with the final duality gap attached) after
    cfg.max_iter sweeps.  Each update is an exact coordinate minimization,
    so the objective is nonincreasing across sweeps.
    """
    X, y, n, p = data.X, data.y, data.n, data.p
    col_sq = np.einsum("ij,ij->j", X, X) / n
    if np.any(col_sq == 0.0):
        raise DomainError("lasso requires nonzero columns")
    beta = np.zeros(p)
    r = np.array(y)
    lam = cfg.lam
    cols = [np.ascontiguousarray(X[:, j]) for j in range(p)]

    def sweep(indices) -> float:
        nonlocal r
        delta = 0.0
        for j in indices:
            xj = cols[j]
            old = beta[j]
            rho = (xj @ r) / n + col_sq[j] * old
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / col_sq[j]
            if new != old:
                r += xj * (old - new)
                beta[j] = new
                delta = max(delta, abs(new - old))
        return delta

    everything = range(p)
    for it in range(cfg.max_iter):
        delta = sweep(everything)
        if delta <= cfg.tol:
            return beta
        # iterate the active set until stable, then re-check all coordinates
        active = np.flatnonzero(beta)
        for _ in range(cfg.max_iter):
            if sweep(active) <= cfg.tol:
                break
    gap = lasso_duality_gap(data, beta, lam)
    raise NotConvergedError(
        f"lasso did not converge in {cfg.max_iter} sweeps (duality gap {gap:.3e})",
        gap=gap, iterations=cfg.max_iter,
    )


def lasso_objective(data: Dataset, beta, lam: float) -> float:
    r = data.y - data.X @ beta
    return float(r @ r) / data.n + 2.0 * lam * float(np.sum(np.abs(beta)))


def lasso_duality_gap(data: Dataset, beta, lam: float) -> float:
    """Primal-dual gap of the scaled objective; zero exactly at the optimum."""
    r = data.y - data.X @ beta
    primal = float(r @ r) / data.n + 2.0 * lam * float(np.sum(np.abs(beta)))
    corr = float(np.max(np.abs(data.X.T @ r))) if data.p else 0.0
    scale = min(1.0, data.n * lam / corr) if corr > 0 else 1.0
    u = (2.0 * scale / data.n) * r
    dual = float(data.y @ u) - data.n / 4.0 * float(u @ u)
    return primal - dual


def lasso_kkt_violation(data: Dataset, beta, lam: float) -> float:
    """Largest violation of the stationarity conditions at beta."""
    g = data.X.T @ (data.y - data.X @ beta) / data.n
    viol = np.where(beta != 0.0, np.abs(g - lam * np.sign(beta)),
                    np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(viol)) if data.p else 0.0


def _sign_solve(data: Dataset, support, signs):
    """Validated (sorted support indices, X_S, (X_S'X_S/n)^{-1} s) for the
    sign checks; signs[k] belongs to support[k] in the caller's order."""
    idx = np.asarray(_check_subset(support, data.p), dtype=np.intp)
    if len(idx) == 0:
        raise DomainError("support must be nonempty")
    signs = np.ones(len(idx)) if signs is None else np.asarray(signs, dtype=np.float64)
    if signs.shape != (len(idx),):
        raise DomainError("signs must match the support length")
    signs = signs[np.argsort(np.asarray(support, dtype=np.intp))]
    XS = data.X[:, idx]
    return idx, XS, _solve_spd(XS.T @ XS / data.n, signs)


def inverse_gram_sign_norm(data: Dataset, support, signs=None) -> float:
    """sup-norm of (X_S'X_S/n)^{-1} s for the sign vector s of the support."""
    _, _, w = _sign_solve(data, support, signs)
    return float(np.max(np.abs(w)))


def irrepresentable_check(data: Dataset, support, signs=None):
    """Whether max_{k not in S} |X_k' X_S (X_S'X_S)^{-1} s| / n < 1, with margin."""
    idx, XS, w = _sign_solve(data, support, signs)
    outside = np.setdiff1d(np.arange(data.p), idx)
    if len(outside) == 0:
        return True, 1.0
    corr = data.X[:, outside].T @ (XS @ w) / data.n
    margin = 1.0 - float(np.max(np.abs(corr)))
    return margin > 0.0, margin


def _solve_spd(psi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:
        raise SingularError("X_S'X_S/n is not positive definite") from None
    if np.min(np.diag(L)) ** 2 <= EPS_RANK:
        raise SingularError("X_S'X_S/n is numerically rank-deficient")
    w = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, w)


def estimate_noise_variance(data: Dataset) -> float:
    """Plug-in noise variance from a preliminary greedy fit.

    A sigma-free information-criterion fit picks a support, sigma^2 is read
    off its residuals, and one refinement pass repeats the greedy selection
    with the implied penalty.
    """
    n = data.n
    log_n = math.log(n)
    floor = max(data.yty / n * 1e-12, 1e-300)

    def ic_score(rss, size):
        return n * np.log(np.maximum(np.asarray(rss, dtype=np.float64) / n, floor)) \
            + np.asarray(size) * log_n

    support, _ = _greedy_l0(data, ic_score)
    sigma2 = _rss_variance(data, support)
    refit, _ = _greedy_l0(
        data, lambda rss, size: np.asarray(rss) + sigma2 * log_n * np.asarray(size))
    return _rss_variance(data, refit)


def _rss_variance(data: Dataset, support) -> float:
    dof = data.n - len(support)
    if dof <= 0:
        raise DomainError("support too large to estimate the noise variance")
    return residual_ss(data, support) / dof
