"""Incremental least-squares machinery over column subsets.

A SubsetState is the least-squares fit on one support J: the inverse of the
Cholesky factor of X_J'X_J in insertion `order`, the RSS, and whether X_J
has full column rank.  Keeping the inverse factor makes every triangular
solve a matrix product.  Every full-rank state is, bit for bit, the fold of
update_add's Schur step over its `order`: an add appends one row, and a
removal keeps the leading block (the inverse of the factor's leading block)
and re-appends the columns after the removed one in O(n |J|^2), so no update
error builds up.  Rank-deficient supports (Schur pivot rule) fall back to
dense minimum-norm evaluation, so every subset of columns is a valid state.
The chain, greedy l0 and the refits read these states; the prior weight
of a support is the caller's business.  Neighbours scores every add, drop
and swap of one full-rank state at once, for the chain's windows and
greedy l0's forward steps.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import DomainError

# Pivot is treated as rank-deficient when its Schur complement (a squared
# length) falls at or below EPS_RANK * n; shared across modules.
EPS_RANK = 1e-10
# Neighbours' bound on its rounding gap, per unit of (1 + y'y) and of the
# condition bound
_ROUNDING = 1e-10


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
    linv : ndarray or None
        L^-1, the inverse of the lower Cholesky factor L of X_J' X_J in
        `order` (itself lower triangular); None when the columns are
        numerically dependent.
    qty : ndarray or None
        linv X_J' y, so that rss = y'y - ||qty||^2.
    rss : float
        Residual sum of squares of the least-squares fit on the support.
    """

    __slots__ = ("support", "order", "linv", "qty", "rss", "_beta")

    def __init__(self, support, order, linv, qty, rss):
        self.support = support
        self.order = order
        self.linv = linv
        self.qty = qty
        self.rss = rss
        self._beta = None

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def full_rank(self) -> bool:
        return self.linv is not None or self.size == 0

    def beta_sparse(self, data: Dataset):
        """Least-squares coefficients as (indices, values), cached: the
        product linv' qty, or the minimum-norm SVD fit when the support is
        rank-deficient."""
        if self._beta is None:
            if self.size == 0:
                idx = np.empty(0, dtype=np.intp)
                val = np.empty(0)
            elif self.linv is not None:
                val = self.linv.T @ self.qty
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


def _schur_step(order, linv, qty, j: int, data: Dataset):
    """(w = L^-1 X_J'x_j, squared pivot, new qty entry) for appending column
    j to the full-rank fit (order, linv, qty); None when the pivot falls
    under the rank rule."""
    w = linv @ (data.xt[order] @ data.xt[j])
    sc = float(data.col_sq[j] - w @ w)
    if sc <= EPS_RANK * data.n:
        return None
    return w, sc, (data.xty[j] - float(w @ qty)) / math.sqrt(sc)


def _fold(data: Dataset, state: SubsetState, cols, support) -> SubsetState:
    """State for the sorted `support`: the Schur step over `cols`, in
    order, from the fit of `state`.  Once a pivot fails (or `state` is
    deficient) the support is deficient, so the fold stops and one SVD
    gives the RSS of all of it."""
    order, linv, qty, rss = state.order, state.linv, state.qty, state.rss
    for j in cols:
        step = None if linv is None else _schur_step(order, linv, qty, j, data)
        if step is None:
            return SubsetState(support, np.asarray(support, dtype=np.intp),
                               None, None, residual_ss(data, support))
        w, sc, t_new = step
        # L gains the row (w', sqrt(sc)), so L^-1 gains (-w'L^-1, 1) / sqrt(sc)
        s, old, root = len(order), linv, math.sqrt(sc)
        linv = np.zeros((s + 1, s + 1))
        linv[:s, :s] = old
        linv[s, :s] = -(w @ old) / root
        linv[s, s] = 1.0 / root
        order = np.concatenate((order, (j,)))
        qty = np.concatenate((qty, (t_new,)))
        rss = max(rss - t_new * t_new, 0.0)
    return SubsetState(support, order, linv, qty, rss)


def peek_rss_add(state: SubsetState, j: int, data: Dataset) -> float:
    """RSS of update_add(state, j, data), to the bit, without building it.

    Returns the dense-fallback value when the extension is rank-deficient.
    """
    step = None if state.linv is None else _schur_step(
        state.order, state.linv, state.qty, j, data)
    if step is None:
        return residual_ss(data, state.support + (j,))
    return max(state.rss - step[2] * step[2], 0.0)


class Neighbours:
    """The RSS of any neighbour of one full-rank state: a support that
    drops one column of it, adds one column, or both.

    With w_j = L^-1 X_J'x_j for every column j (one product with X, one
    with L^-1), adding j leaves the pivot d_j = ||x_j||^2 - ||w_j||^2 and
    takes (x_j'r)^2 / d_j off the RSS, where x_j'r = X'y_j -
    w_j'qty.  Dropping the column at position i of `order` puts back g_i^2,
    where g_i = a_i'qty for the normalized column a_i of L^-1; a swap then
    adds j against the pivot d_j + h^2 and the product x_j'r + h g_i, where
    h = a_i'w_j.  Building costs O(n p |J|) time and O(p |J|) memory;
    scoring is O(1) per neighbour.

    The scores agree with the states update_remove and update_add build
    to rounding, not to the bit, so each comes with a slack that bounds the
    gap: _ROUNDING (1 + y'y) (1 + max_j ||x_j||^2 / d_min), where d_min is
    the least pivot of the state's factor and of the added column.  On
    designs whose supports reach condition bounds of 4e10, the gaps stay
    under 1.3e-16 (1 + y'y) times the bound.
    """

    def __init__(self, state: SubsetState, data: Dataset):
        self.rss0 = state.rss
        self.eps = EPS_RANK * data.n
        self.tol = _ROUNDING * (1.0 + data.yty)
        self.cmax = float(data.col_sq.max())
        self.dmin = math.inf      # the least pivot of the state's factor
        self.pos = np.zeros(data.p, dtype=np.intp)
        k = state.size
        if k:
            linv = state.linv
            self.dmin = float(np.max(np.diag(linv))) ** -2
            self.pos[state.order] = np.arange(k)
            W = linv @ (data.xt[state.order] @ data.xt.T)
            a = linv / np.sqrt(np.einsum("ki,ki->i", linv, linv))
            self.piv = data.col_sq - np.einsum("kp,kp->p", W, W)
            self.num = data.xty - state.qty @ W
            self.g = state.qty @ a
            self.h = a.T @ W
        else:
            self.piv, self.num = data.col_sq, data.xty
            self.g = np.zeros(1)
            self.h = np.zeros((1, data.p))

    def rss(self, drops, adds):
        """(rss, slack) of the neighbours that drop drops[k] and/or add
        adds[k] (-1: none): |rss[k] - the built state's rss| <= slack[k].
        The slack is infinite where the added column's pivot falls under
        the rank rule, and rss[k] is then meaningless (but finite)."""
        drops = np.asarray(drops, dtype=np.intp)
        adds = np.asarray(adds, dtype=np.intp)
        dropped, added = drops >= 0, adds >= 0
        cols = np.where(added, adds, 0)      # column 0 stands in for none
        pos = self.pos[np.where(dropped, drops, 0)]
        g = np.where(dropped, self.g[pos], 0.0)
        h = np.where(dropped, self.h[pos, cols], 0.0)
        piv = self.piv[cols] + h * h
        num = self.num[cols] + h * g
        rss = self.rss0 + g * g
        deficient = added & (piv <= self.eps)
        fit = added & ~deficient
        piv = np.where(fit, piv, np.inf)
        slack = np.where(deficient, np.inf, self.tol * (
            1.0 + self.cmax / np.minimum(self.dmin, piv)))
        return np.maximum(rss - num * num / piv, 0.0), slack


def update_add(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """State for support + {j}: one Schur step appends a factor row, or a
    pivot under the rank rule gives the dense-fallback state."""
    j = int(j)
    if j in state.support:
        raise DomainError(f"column {j} already in support")
    return _fold(data, state, (j,),
                 _check_subset(state.support + (j,), data.p))


def update_remove(state: SubsetState, j: int, data: Dataset) -> SubsetState:
    """State for support - {j}: keeps the rows of linv before j, the inverse
    of the factor's leading block (copied, so a cached state never pins its
    parent's arrays), and re-appends the columns after j with the Schur
    step.  A rank-deficient state is rebuilt, since dropping a column can
    restore full rank."""
    j = int(j)
    if j not in state.support:
        raise DomainError(f"column {j} not in support")
    support = tuple(v for v in state.support if v != j)
    if state.linv is None:
        return make_state(data, support)
    k = int(np.nonzero(state.order == j)[0][0])
    rss = data.yty
    for t in state.qty[:k]:
        rss = max(rss - t * t, 0.0)
    prefix = state.order[:k].copy()
    new = SubsetState(tuple(sorted(prefix.tolist())), prefix,
                      state.linv[:k, :k].copy(), state.qty[:k].copy(), rss)
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

    The fit of make_state(data, J): the product linv' qty of the sorted
    Schur fold when every pivot clears the shared rank rule, otherwise the
    SVD fit that residual_ss uses, which drops the directions under the same
    rule, so the fit is unique even when the columns of X_J are dependent.
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
