"""Incremental least-squares machinery over column subsets.

A SubsetState is the least-squares fit on one support J: the Cholesky
factor of X_J'X_J in insertion `order`, the RSS, and whether X_J has full
column rank.  Every full-rank state is, bit for bit, the fold of update_add's
Schur step over its `order`: an add appends one row, and a removal re-appends
the columns after the removed one in O(n |J|^2), so no update error builds
up.  Rank-deficient supports (Schur pivot rule) fall back to dense
minimum-norm evaluation, so every subset of columns is a valid state.  The
chain, the MAP refit and the l0 refit all read these states; the prior
weight of a support is the caller's business.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .data import Dataset
from .errors import DomainError

# Pivot is treated as rank-deficient when its Schur complement (a squared
# length) falls at or below EPS_RANK * n; shared across modules.
EPS_RANK = 1e-10


def _tri_solve(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with L x = b (trans 0) or L' x = b (trans 1) for a C-ordered lower
    triangular L, straight through LAPACK trtrs.

    trtrs reads Fortran order, so it gets L' as an upper factor with the
    transpose flag flipped, which is what scipy.linalg.solve_triangular
    does for C-ordered input; the result is the same to the bit, without
    that wrapper's per-call validation.
    """
    x, info = dtrtrs(L.T, b, lower=0, trans=1 - trans)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"triangular solve failed (trtrs info {info})")
    return x


def _check_subset(J, p) -> tuple[int, ...]:
    out = tuple(sorted(int(j) for j in J))
    if len(set(out)) != len(out):
        raise DomainError(f"subset {out} has repeated indices")
    if out and (out[0] < 0 or out[-1] >= p):
        raise DomainError(f"subset {out} not contained in [0, {p})")
    return out


class SubsetState:
    """One support with its cached factorization and least-squares fit.

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
    """

    __slots__ = ("support", "order", "chol", "qty", "rss", "_beta")

    def __init__(self, support, order, chol, qty, rss):
        self.support = support
        self.order = order
        self.chol = chol
        self.qty = qty
        self.rss = rss
        self._beta = None

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def full_rank(self) -> bool:
        return self.chol is not None or self.size == 0

    def beta_sparse(self, data: Dataset):
        """Least-squares coefficients as (indices, values), cached: the
        triangular solves on the factor, or the minimum-norm SVD fit when
        the support is rank-deficient."""
        if self._beta is None:
            if self.size == 0:
                idx = np.empty(0, dtype=np.intp)
                val = np.empty(0)
            elif self.chol is not None:
                val = _tri_solve(self.chol, self.qty, trans=1)
                idx = self.order
            else:
                idx = np.asarray(self.support, dtype=np.intp)
                val = _svd_fit(data, idx[None])[0][0]
            self._beta = (idx, val)
        return self._beta

    def __repr__(self):
        return (f"SubsetState(J={self.support}, rss={self.rss:.6g}, "
                f"full_rank={self.full_rank})")


def empty_state(data: Dataset) -> SubsetState:
    return SubsetState((), np.empty(0, dtype=np.intp),
                       np.empty((0, 0)), np.empty(0), data.yty)


def make_state(data: Dataset, J) -> SubsetState:
    """Build the state for support J from scratch: the fold of update_add
    over J in sorted order."""
    support = _check_subset(J, data.p)
    return _fold(data, empty_state(data), support, support)


def _schur_step(order, chol, qty, j: int, data: Dataset):
    """(new factor row, squared pivot, new qty entry) for appending column j
    to the full-rank fit (order, chol, qty); None when the pivot falls under
    the rank rule."""
    w = (_tri_solve(chol, data.xt[order] @ data.xt[j]) if len(order)
         else np.empty(0))   # trtrs rejects an empty factor
    sc = float(data.col_sq[j] - w @ w)
    if sc <= EPS_RANK * data.n:
        return None
    return w, sc, (data.xty[j] - float(w @ qty)) / math.sqrt(sc)


def _fold(data: Dataset, state: SubsetState, cols, support) -> SubsetState:
    """State for the sorted `support`: the Schur step over `cols`, in
    order, from the fit of `state`.  Once a pivot fails (or `state` is
    deficient) the support is deficient, so the fold stops and one SVD
    gives the RSS of all of it."""
    order, chol, qty, rss = state.order, state.chol, state.qty, state.rss
    for j in cols:
        step = None if chol is None else _schur_step(order, chol, qty, j, data)
        if step is None:
            return SubsetState(support, np.asarray(support, dtype=np.intp),
                               None, None, residual_ss(data, support))
        w, sc, t_new = step
        s, old = len(order), chol
        chol = np.zeros((s + 1, s + 1))
        chol[:s, :s] = old
        chol[s, :s] = w
        chol[s, s] = math.sqrt(sc)
        order = np.concatenate((order, (j,)))
        qty = np.concatenate((qty, (t_new,)))
        rss = max(rss - t_new * t_new, 0.0)
    return SubsetState(support, order, chol, qty, rss)


def peek_rss_add(state: SubsetState, j: int, data: Dataset) -> float:
    """RSS of update_add(state, j, data), to the bit, without building it.

    Returns the dense-fallback value when the extension is rank-deficient.
    """
    step = None if state.chol is None else _schur_step(
        state.order, state.chol, state.qty, j, data)
    if step is None:
        return residual_ss(data, state.support + (j,))
    return max(state.rss - step[2] * step[2], 0.0)


def update_add(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """State for support + {j}: one Schur step appends a factor row, or a
    pivot under the rank rule gives the dense-fallback state."""
    j = int(j)
    if j in state.support:
        raise DomainError(f"column {j} already in support")
    return _fold(data, state, (j,),
                 _check_subset(state.support + (j,), data.p))


def update_remove(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """State for support - {j}: keeps the factor rows before j (copied, so a
    cached state never pins its parent's arrays) and re-appends the columns
    after j with the Schur step.  A rank-deficient state is rebuilt, since
    dropping a column can restore full rank."""
    j = int(j)
    if j not in state.support:
        raise DomainError(f"column {j} not in support")
    support = tuple(v for v in state.support if v != j)
    if state.chol is None:
        return make_state(data, support)
    k = int(np.nonzero(state.order == j)[0][0])
    rss = data.yty
    for t in state.qty[:k]:
        rss = max(rss - t * t, 0.0)
    prefix = state.order[:k].copy()
    new = SubsetState(tuple(sorted(prefix.tolist())), prefix,
                      state.chol[:k, :k].copy(), state.qty[:k].copy(), rss)
    return _fold(data, new, state.order[k + 1:], support)


def _svd_fit(data: Dataset, supports: np.ndarray):
    """(minimum-norm coefficients (m, k), rss (m,)) for a stack of m
    same-size supports (rows of column indices, coefficients in row order),
    from the SVD of each X_J, dropping directions with squared singular
    value <= EPS_RANK * n."""
    XJ = np.moveaxis(data.X[:, supports], 1, 0)          # (m, n, k)
    U, svals, Vt = np.linalg.svd(XJ, full_matrices=False)
    keep = svals * svals > EPS_RANK * data.n
    uty = np.where(keep, data.y @ U, 0.0)
    r = data.y - np.einsum("mnr,mr->mn", U, uty)
    coef = np.einsum("mrk,mr->mk", Vt, uty / np.where(keep, svals, 1.0))
    return coef, np.einsum("mn,mn->m", r, r)


def least_squares_min_norm(data: Dataset, J) -> np.ndarray:
    """Minimum-Euclidean-norm least-squares fit supported on J, embedded in R^p.

    The fit of make_state(data, J): triangular solves on the sorted Schur
    fold when every pivot clears the shared rank rule, otherwise the SVD fit
    that residual_ss uses, which drops the directions under the same rule,
    so the fit is unique even when the columns of X_J are dependent.
    """
    beta = np.zeros(data.p)
    idx, val = make_state(data, J).beta_sparse(data)
    beta[idx] = val
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
    return float(_svd_fit(data, np.asarray([support]))[1][0])
