"""Regression dataset container with cached cross-products."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError, NonFiniteError


def _as_readonly_f64(a, name):
    """a, if it is a read-only, F-contiguous float64 ndarray that owns its
    data; else a read-only copy, so no caller's array is aliased or frozen."""
    if not (type(a) is np.ndarray and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.owndata
            and not a.flags.writeable):
        a = np.array(a, dtype=np.float64, order="F", copy=True)
        a.setflags(write=False)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return a


class Dataset:
    """Immutable (X, y) pair, optionally with a known noise scale sigma.

    The arrays are held read-only so a Dataset can be shared freely across
    threads or subprocesses; they are copied unless they are read-only,
    column-major and own their data.  X is held once, column-major, so
    `xt`, whose rows are the columns of X, is a view of it and not a copy.
    Derived arrays are computed once and cached.  The chain reads only O(p)
    of them, `col_sq` and X'y, besides y'y.  The p x p X'X is built only for
    the exact subset scans (enumeration and diagnostics), which the
    enumeration cap bounds.
    """

    def __init__(self, X, y, sigma: float | None = None):
        X = _as_readonly_f64(X, "X")
        y = _as_readonly_f64(y, "y")
        if X.ndim != 2:
            raise DomainError("X must be a 2-d array")
        if y.ndim != 1:
            raise DomainError("y must be a 1-d array")
        if X.shape[0] != y.shape[0]:
            raise DomainError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DomainError("X must have at least one row and one column")
        if sigma is not None:
            sigma = float(sigma)
            if not np.isfinite(sigma) or sigma < 0:
                raise NonFiniteError("sigma must be finite and nonnegative")
        self.X = X
        self.y = y
        self.sigma = sigma
        self.n, self.p = X.shape

    @cached_property
    def gram(self) -> np.ndarray:
        """X'X, shape (p, p), read-only."""
        g = self.X.T @ self.X
        g.setflags(write=False)
        return g

    @property
    def xt(self) -> np.ndarray:
        """X' as a C-contiguous (p, n) read-only view: row j is column j."""
        return self.X.T

    @cached_property
    def col_sq(self) -> np.ndarray:
        """||X_j||^2 for every column, shape (p,), read-only."""
        sq = np.einsum("ij,ij->j", self.X, self.X)
        sq.setflags(write=False)
        return sq

    @cached_property
    def xty(self) -> np.ndarray:
        """X'y, shape (p,), read-only."""
        b = self.X.T @ self.y
        b.setflags(write=False)
        return b

    @cached_property
    def yty(self) -> float:
        return float(self.y @ self.y)

    def max_normalization_error(self) -> float:
        """Largest deviation of ||X_j||/sqrt(n) from 1 across columns."""
        return float(np.max(np.abs(np.sqrt(self.col_sq) / np.sqrt(self.n) - 1.0)))

    def __repr__(self):
        return f"Dataset(n={self.n}, p={self.p}, sigma={self.sigma})"


def rescale_columns(X) -> tuple[np.ndarray, np.ndarray]:
    """Rescale columns of X so that ||X_j||^2 = n, returning (X_scaled, scales).

    `scales[j] = ||X_j|| / sqrt(n)`; coefficients fitted on the rescaled
    matrix convert back to original units by dividing by `scales`.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise NonFiniteError("X contains NaN or infinite entries")
    n = X.shape[0]
    scales = np.linalg.norm(X, axis=0) / np.sqrt(n)
    if np.any(scales == 0.0):
        raise DomainError("cannot rescale a zero column")
    return X / scales, scales
