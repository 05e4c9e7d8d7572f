"""Subset-penalized selection and a coordinate-descent lasso with an exact
active-set finish.

Both serve as experiment comparators and as warm starts for the sampler,
and the lasso drives the scaled-lasso noise estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .enumeration import _penalized_scan, check_cap, subset_count
from .errors import DomainError, NotConvergedError, SingularError
from .subsets import (EPS_RANK, Neighbours, _check_subset, empty_state,
                      least_squares_min_norm, residual_ss, update_add,
                      update_remove)


@dataclass(frozen=True)
class L0Config:
    """Selection by minimizing rss(J) + lam * |J| over supports up to max_support."""

    lam: float
    max_support: int
    strategy: str = "exhaustive"

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise DomainError("lam must be finite and >= 0")
        if self.max_support < 1:
            raise DomainError("max_support must be >= 1")
        if self.strategy not in ("exhaustive", "greedy"):
            raise DomainError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class LassoConfig:
    """Cyclic coordinate descent on (1/n)||y - X b||^2 + 2 lam ||b||_1,
    finished exactly on the active set (see lasso_coordinate_descent)."""

    lam: float
    max_iter: int = 100_000
    tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise DomainError("lam must be finite and >= 0")
        if self.max_iter < 1 or not self.tol > 0:
            raise DomainError("need max_iter >= 1 and tol > 0")


def default_lasso_penalty(sigma: float, n: int, p: int, a: float = 4.0) -> float:
    """The A * sigma * sqrt(log(p)/n) rule for the lasso regularizer."""
    if not (0 <= sigma < math.inf and 0 < a < math.inf) or n < 1 or p < 1:
        raise DomainError("need finite sigma >= 0, finite a > 0, n >= 1, p >= 1")
    return a * sigma * math.sqrt(math.log(p) / n)


def _exhaustive_l0(data: Dataset, cfg: L0Config):
    """(support, criterion) of the global minimizer of rss(J) + lam |J|.

    A branch-and-bound over the shared Cholesky walk (the leaps and bounds
    of Furnival & Wilson, Technometrics 1974): the subtree below a node's
    child P + c is skipped when rss(P + {c, ..., p-1}) + lam (|P| + 2),
    a lower bound on every criterion in it, exceeds the best criterion so
    far by more than 1e-9 y'y.  Criteria within that slack of the minimum
    tie; ties go to the smaller, then lexicographically first, support.
    The cap counts every subset up to max_support, pruned or not.
    """
    s_max = min(cfg.max_support, data.p)
    check_cap(subset_count(data.p, s_max))
    return _penalized_scan(data, s_max, cfg.lam)


def _greedy_l0(data: Dataset, lam: float, cap: int) -> tuple[int, ...]:
    """Forward selection under rss + lam |J| over supports of at most `cap`
    columns, then one backward sweep.  Each forward step scores every add
    with one Neighbours build and builds the best with update_add; it stops
    when no add clears the rank rule, or when the built state is
    rank-deficient or fails to lower the criterion strictly."""
    state, best_score, p = empty_state(data), data.yty, data.p
    while state.size < min(cap, data.n):
        rss, slack = Neighbours(state, data).rss(np.full(p, -1), np.arange(p))
        rss[np.isinf(slack)] = np.inf
        rss[list(state.support)] = np.inf
        j = int(np.argmin(rss))
        if rss[j] == np.inf:
            break
        nxt = update_add(state, j, data)
        score = nxt.rss + lam * nxt.size
        if nxt.linv is None or not score < best_score:
            break
        state, best_score = nxt, score
    # one backward-elimination pass over a snapshot of the support
    for j in state.support:
        reduced = update_remove(state, j, data)
        score = reduced.rss + lam * reduced.size
        if score < best_score:
            state, best_score = reduced, score
    return state.support


def l0_select(data: Dataset, cfg: L0Config):
    """Penalized subset selection; returns (support, refitted coefficients).

    Exhaustive mode finds the global minimizer by branch-and-bound on the
    shared Cholesky walk, skipping every subtree whose RSS lower bound plus
    penalty exceeds the best criterion so far by more than 1e-9 y'y
    (criteria within that slack tie; ties: smaller support, then
    lexicographic); greedy mode adds the best column while the criterion
    strictly decreases and finishes with one backward-elimination sweep.
    """
    if cfg.strategy == "exhaustive":
        support, _ = _exhaustive_l0(data, cfg)
    else:
        support = _greedy_l0(data, cfg.lam, min(cfg.max_support, data.p))
    return support, least_squares_min_norm(data, support)


def lasso_coordinate_descent(data: Dataset, cfg: LassoConfig) -> np.ndarray:
    """Soft-threshold coordinate descent with an exact active-set finish.

    Once a sweep over the active set leaves the signs s unchanged, the
    stationarity equations (X_A'X_A/n) b = X_A'y/n - lam s of the nonzero
    coordinates A are solved by Cholesky.  If sign(b) = s and every other
    coordinate has |X_j'r|/n <= lam at r = y - X_A b, the KKT conditions
    hold to rounding and b is returned.  Otherwise (singular X_A'X_A, a
    sign flip or a violator) descent carries on, converged when no
    coordinate moves more than cfg.tol in a full sweep.

    Raises NotConvergedError (with the final duality gap and the number of
    sweeps attached) after cfg.max_iter sweeps, full and active-set sweeps
    counted alike.  Each update is an exact coordinate minimization and a
    kept finish minimizes the objective over the active set, so the
    objective is nonincreasing across sweeps.
    """
    y, n, p = data.y, data.n, data.p
    col_sq = data.col_sq / n
    beta = np.zeros(p)
    r = np.array(y)
    lam = cfg.lam
    cols = data.xt

    def sweep(indices) -> float:
        nonlocal r, flips
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
                if old * new <= 0.0:  # entered, left or crossed zero
                    flips += 1
        return delta

    def exact_finish() -> bool:
        # solve the stationarity equations of the nonzero coordinates A,
        # (X_A'X_A/n) b = X_A'y/n - lam s, and certify b by the KKT conditions
        nonlocal r
        A = np.flatnonzero(beta)
        if len(A) == 0:
            return False
        s = np.sign(beta[A])
        XA = cols[A]
        try:
            b = _solve_spd(XA @ XA.T / n, data.xty[A] / n - lam * s)
        except SingularError:
            return False
        if not np.array_equal(np.sign(b), s):
            return False
        beta[A] = b
        r = y - b @ XA
        g = np.abs(cols @ r) / n
        g[A] = 0.0
        return bool(np.max(g) <= lam)

    # an all-zero column stays at 0, its exact minimizer; Python ints keep
    # the full sweep's indexing as fast as over a range
    everything = np.flatnonzero(col_sq).tolist()
    # sign changes so far, and their count at the last exact finish
    flips, tried = 0, -1
    sweeps = 0   # full and active-set sweeps share the cfg.max_iter budget
    while sweeps < cfg.max_iter:
        delta = sweep(everything)
        sweeps += 1
        if delta <= cfg.tol:
            return beta
        # iterate the active set until stable, then re-check all coordinates
        active = np.flatnonzero(beta)
        while sweeps < cfg.max_iter:
            before = flips
            delta = sweep(active)
            sweeps += 1
            # the finish depends on the sign pattern alone: try it once per
            # pattern, after an active-set sweep that left the signs alone
            if before == flips != tried:
                tried = flips
                if exact_finish():
                    return beta
            if delta <= cfg.tol:
                break
    gap = lasso_duality_gap(data, beta, lam)
    raise NotConvergedError(
        f"lasso did not converge in {sweeps} sweeps (duality gap {gap:.3e})",
        gap=gap, iterations=sweeps,
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
    linv = np.linalg.inv(L)
    return linv.T @ (linv @ rhs)


def estimate_noise_variance(data: Dataset) -> float:
    """Noise variance by the scaled lasso with a least-squares refit.

    The scaled lasso (Sun & Zhang, Biometrika 2012) starts from
    sigma = sqrt(y'y / n) and alternates a lasso fit at
    lam = sigma sqrt(2 log p / n) with sigma = ||y - X b|| / sqrt(n), until
    sigma moves by less than 1e-3 relative or after 20 fits.  The estimate
    is rss / (n - |J|) of the least-squares refit on the last fit's support
    J (Reid, Tibshirani & Friedman, Statistica Sinica 2016).  At n < 2 no
    nonempty support leaves a residual degree of freedom: DomainError.
    """
    n = data.n
    if n < 2:
        raise DomainError("need n >= 2 rows to estimate the noise variance")
    rate = math.sqrt(2.0 * math.log(data.p) / n)
    sigma = math.sqrt(data.yty / n)
    for _ in range(20):
        beta = lasso_coordinate_descent(data, LassoConfig(lam=sigma * rate))
        r = data.y - data.X @ beta
        previous, sigma = sigma, math.sqrt(float(r @ r) / n)
        if abs(sigma - previous) < 1e-3 * previous:
            break
    support = np.flatnonzero(beta)
    if len(support) >= n:
        raise DomainError("support too large to estimate the noise variance")
    return residual_ss(data, support) / (n - len(support))
