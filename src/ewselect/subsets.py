"""Incremental least-squares machinery over column subsets.

A SubsetState caches the Cholesky factor of the active Gram matrix so a
Metropolis move (add or remove one column) costs O(|J|^2) instead of a
fresh O(n |J|^2) factorization.  Rank-deficient supports are detected via
the Schur-complement pivot rule and fall back to dense minimum-norm
evaluation, so every subset of columns is a valid state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from .data import Dataset
from .errors import DomainError
from .priors import PosteriorConfig, log_prior_table

# Pivot is treated as rank-deficient when its Schur complement (a squared
# length) falls at or below EPS_RANK * n; shared across modules.
EPS_RANK = 1e-10

# Refactorize from scratch once the accumulated update error could exceed
# this fraction of the current residual sum of squares.  Not applied when
# y'y = 0: every qty entry and every RSS is then exactly 0, and the bound
# would be 0 too.
DRIFT_LIMIT = 1e-6

_EPS = float(np.finfo(np.float64).eps)


def _check_subset(J, p) -> tuple[int, ...]:
    out = tuple(sorted(int(j) for j in J))
    if len(set(out)) != len(out):
        raise DomainError(f"subset {out} has repeated indices")
    if out and (out[0] < 0 or out[-1] >= p):
        raise DomainError(f"subset {out} not contained in [0, {p})")
    return out


class SubsetState:
    """One support with its cached factorization and posterior log-weight.

    Attributes
    ----------
    support : tuple[int, ...]
        Active column indices, strictly increasing.
    order : ndarray
        The same indices in factorization (insertion) order.
    chol : ndarray or None
        Lower Cholesky factor of X_J' X_J in `order`; None when the
        columns are numerically dependent.
    qty : ndarray or None
        chol^{-1} X_J' y, so that rss = y'y - ||qty||^2.
    rss : float
        Residual sum of squares of the least-squares fit on the support.
    log_weight : float
        log prior(|J|) - rss / (2 sigma^2), up to the shared normalizer.
    """

    __slots__ = ("support", "order", "chol", "qty", "rss", "log_weight",
                 "drift", "cfg", "_beta")

    def __init__(self, support, order, chol, qty, rss, log_weight, drift, cfg):
        self.support = support
        self.order = order
        self.chol = chol
        self.qty = qty
        self.rss = rss
        self.log_weight = log_weight
        self.drift = drift
        self.cfg = cfg
        self._beta = None

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def full_rank(self) -> bool:
        return self.chol is not None or self.size == 0

    def beta_sparse(self, data: Dataset):
        """Least-squares coefficients as (indices, values), cached."""
        if self._beta is None:
            if self.size == 0:
                idx = np.empty(0, dtype=np.intp)
                val = np.empty(0)
            elif self.chol is not None:
                val = solve_triangular(self.chol, self.qty, lower=True,
                                       trans="T", check_finite=False)
                idx = self.order
            else:
                dense = least_squares_min_norm(data, self.support)
                idx = np.asarray(self.support, dtype=np.intp)
                val = dense[idx]
            self._beta = (idx, val)
        return self._beta

    def __repr__(self):
        return (f"SubsetState(J={self.support}, rss={self.rss:.6g}, "
                f"log_weight={self.log_weight:.6g}, full_rank={self.full_rank})")


def _log_weight(cfg: PosteriorConfig, p: int, size: int, rss: float) -> float:
    lp = log_prior_table(p, cfg)
    return float(lp[size] - rss / (2.0 * cfg.sigma2))


def empty_state(data: Dataset, cfg: PosteriorConfig) -> SubsetState:
    rss = data.yty
    return SubsetState((), np.empty(0, dtype=np.intp),
                       np.empty((0, 0)), np.empty(0),
                       rss, _log_weight(cfg, data.p, 0, rss), 0.0, cfg)


def make_state(data: Dataset, J, cfg: PosteriorConfig) -> SubsetState:
    """Build the state for support J from scratch (drift resets to zero).

    Folding one column at a time is the standard Cholesky algorithm, so
    this is the refactorization target and never re-enters the drift check.
    """
    support = _check_subset(J, data.p)
    state = empty_state(data, cfg)
    for j in support:
        state = _extend_state(state, j, data)
    state.drift = 0.0
    return state


def _schur_step(state: SubsetState, j: int, data: Dataset):
    """(new factor row, squared pivot, new qty entry) for appending column j
    to a full-rank state; None when the pivot falls under the rank rule."""
    G = data.gram
    d = G[j, j]
    if state.size == 0:
        w = np.empty(0)
        sc = float(d)
        dot_wq = 0.0
    else:
        c = G[state.order, j]
        w = solve_triangular(state.chol, c, lower=True, check_finite=False)
        sc = float(d - w @ w)
        dot_wq = float(w @ state.qty)
    if sc <= EPS_RANK * data.n:
        return None
    return w, sc, (data.xty[j] - dot_wq) / math.sqrt(sc)


def peek_rss_add(state: SubsetState, j: int, data: Dataset) -> float:
    """RSS of support + {j} without building the new state.

    Returns the dense-fallback value when the extension is rank-deficient.
    """
    step = None if state.chol is None else _schur_step(state, j, data)
    if step is None:
        return residual_ss(data, state.support + (j,))
    t_new = step[2]
    return max(state.rss - t_new * t_new, 0.0)


def _extend_state(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """Raw one-column extension (no drift-triggered refactorization)."""
    j = int(j)
    if j in state.support:
        raise DomainError(f"column {j} already in support")
    support = _check_subset(state.support + (j,), data.p)
    step = None if state.chol is None else _schur_step(state, j, data)
    if step is None:
        rss = residual_ss(data, support)
        return SubsetState(support, np.asarray(support, dtype=np.intp),
                           None, None, rss,
                           _log_weight(state.cfg, data.p, len(support), rss),
                           0.0, state.cfg)
    w, sc, t_new = step
    rss = max(state.rss - t_new * t_new, 0.0)

    s = state.size
    chol = np.zeros((s + 1, s + 1))
    chol[:s, :s] = state.chol
    chol[s, :s] = w
    chol[s, s] = math.sqrt(sc)
    qty = np.append(state.qty, t_new)
    order = np.append(state.order, j)

    drift = state.drift + _EPS * (state.rss + t_new * t_new + data.gram[j, j] / sc)
    return SubsetState(support, order, chol, qty, rss,
                       _log_weight(state.cfg, data.p, s + 1, rss),
                       drift, state.cfg)


def update_add(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """State for support + {j}; equals the from-scratch state to ~1e-8."""
    new = _extend_state(state, j, data)
    if new.chol is not None and data.yty > 0 and \
            new.drift > DRIFT_LIMIT * (new.rss + _EPS * data.yty):
        return make_state(data, new.support, state.cfg)
    return new


def _rotate_out(chol, qty, k):
    """Delete factorization row k and re-triangularize with Givens rotations.

    Returns (chol', qty', tau) where tau is the discarded component, so the
    RSS of the reduced support is rss + tau^2.
    """
    s = chol.shape[0]
    M = np.delete(chol, k, axis=0)
    t = qty.copy()
    for r in range(k, s - 1):
        a = M[r, r]
        b = M[r, r + 1]
        rho = math.hypot(a, b)
        if rho == 0.0:
            continue
        c_, s_ = a / rho, b / rho
        col_r = M[r:, r].copy()
        col_r1 = M[r:, r + 1].copy()
        M[r:, r] = c_ * col_r + s_ * col_r1
        M[r:, r + 1] = c_ * col_r1 - s_ * col_r
        tr, tr1 = t[r], t[r + 1]
        t[r] = c_ * tr + s_ * tr1
        t[r + 1] = c_ * tr1 - s_ * tr
    return np.ascontiguousarray(M[:, : s - 1]), t[: s - 1], float(t[s - 1])


def peek_rss_remove(state: SubsetState, j: int, data: Dataset) -> float:
    """RSS of support - {j} without building the new state."""
    if state.chol is None:
        return residual_ss(data, tuple(v for v in state.support if v != j))
    if state.size == 1:
        return data.yty
    k = int(np.nonzero(state.order == j)[0][0])
    _, _, tau = _rotate_out(state.chol, state.qty, k)
    return state.rss + tau * tau


def update_remove(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """State for support - {j}; refactorizes when accumulated drift is large."""
    j = int(j)
    if j not in state.support:
        raise DomainError(f"column {j} not in support")
    support = tuple(v for v in state.support if v != j)
    if state.chol is None:
        # Dropping a column can restore full rank, so rebuild from scratch.
        return make_state(data, support, state.cfg)
    if state.size == 1:
        return empty_state(data, state.cfg)
    k = int(np.nonzero(state.order == j)[0][0])
    chol, qty, tau = _rotate_out(state.chol, state.qty, k)
    rss = state.rss + tau * tau
    order = np.delete(state.order, k)

    drift = state.drift + _EPS * (state.rss + tau * tau)
    if data.yty > 0 and drift > DRIFT_LIMIT * (rss + _EPS * data.yty):
        return make_state(data, support, state.cfg)
    return SubsetState(support, order, chol, qty, rss,
                       _log_weight(state.cfg, data.p, state.size - 1, rss),
                       drift, state.cfg)


def _svd_fit(data: Dataset, support: tuple[int, ...]):
    """(minimum-norm coefficients in `support` order, rss) from the SVD of
    X_J, dropping directions with squared singular value <= EPS_RANK * n."""
    XJ = data.X[:, np.asarray(support, dtype=np.intp)]
    U, svals, Vt = np.linalg.svd(XJ, full_matrices=False)
    keep = svals * svals > EPS_RANK * data.n
    Uk = U[:, keep]
    uty = Uk.T @ data.y
    r = data.y - Uk @ uty
    return Vt[keep].T @ (uty / svals[keep]), float(r @ r)


def least_squares_min_norm(data: Dataset, J) -> np.ndarray:
    """Minimum-Euclidean-norm least-squares fit supported on J, embedded in R^p.

    Full-column-rank supports (every Cholesky pivot above the shared rank
    rule) use the normal equations; anything else falls back to the SVD fit
    that residual_ss uses, which drops the directions under the same rule,
    so the fit is unique even when the columns of X_J are dependent.
    """
    support = _check_subset(J, data.p)
    beta = np.zeros(data.p)
    if not support:
        return beta
    idx = np.asarray(support, dtype=np.intp)
    XJ = data.X[:, idx]
    gram = XJ.T @ XJ
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        L = None
    if L is not None and np.min(np.diag(L)) ** 2 > EPS_RANK * data.n:
        rhs = XJ.T @ data.y
        w = solve_triangular(L, rhs, lower=True, check_finite=False)
        beta[idx] = solve_triangular(L, w, lower=True, trans="T",
                                     check_finite=False)
    else:
        beta[idx] = _svd_fit(data, support)[0]
    return beta


def residual_ss(data: Dataset, J) -> float:
    """||P_J^perp y||^2: squared distance from y to the span of columns J.

    Evaluated through an orthonormal basis of the span (the SVD fit with the
    shared rank rule), so the value does not depend on which minimum-norm
    representative is used and is stable for rank-deficient supports.
    """
    support = _check_subset(J, data.p)
    if not support:
        return data.yty
    return _svd_fit(data, support)[1]
