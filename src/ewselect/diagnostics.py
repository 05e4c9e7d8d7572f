"""Design-matrix diagnostics: restricted singular values, identifiability,
signal-strength thresholds, and covariance subset bounds.

The central quantity is the smallest singular value of X_J / sqrt(n) over
column subsets J of a given size; its minimum over subsets certifies
identifiability and sets the coefficient magnitude needed for reliable
support recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .enumeration import (SCAN_CHUNK, check_cap, gather_gram,
                          subset_index_array)
from .errors import DomainError, TooLargeError
from .subsets import EPS_RANK

_DIRECT_LIMIT = 100_000   # below this many subsets, skip the pruned pass
_PRUNE_SAMPLE = 4096
_SAMPLE_BLOCK_BYTES = 1 << 23   # uniform draws held at once by _sample_subsets


def _sample_subsets(p: int, s: int, count: int, rng) -> np.ndarray:
    """`count` uniform size-s subsets of range(p), rows sorted.

    Rows are drawn in blocks of at most _SAMPLE_BLOCK_BYTES of uniforms;
    the generator fills arrays in order, so the rows equal a one-shot draw.
    """
    out = np.empty((count, s), dtype=np.intp)
    rows = max(_SAMPLE_BLOCK_BYTES // (8 * p), 1)
    for lo in range(0, count, rows):
        u = rng.random((min(rows, count - lo), p))
        out[lo : lo + len(u)] = np.sort(np.argpartition(u, s - 1, axis=1)[:, :s],
                                        axis=1)
    return out


def _gram_chunks(G: np.ndarray, subs: np.ndarray):
    """Gram blocks of the rows of `subs`, SCAN_CHUNK subsets at a time."""
    for lo in range(0, len(subs), SCAN_CHUNK):
        yield gather_gram(G, subs[lo : lo + SCAN_CHUNK])


def _extreme_min_eig(G: np.ndarray, subs: np.ndarray, want: str,
                     start: float | None = None) -> float:
    """min or max (`want`) of lambda_min(G_J) over the rows J of `subs`.

    Given `start`, a value attained by some subset, subsets that provably
    cannot beat it are not eigensolved: for the minimum those whose
    Gershgorin lower bound is >= start, for the maximum those whose
    smallest diagonal entry (an upper bound on lambda_min) is <= start.
    Skipped subsets cannot change the extreme, so the result equals the
    unpruned scan.
    """
    pick, reduce = (min, np.min) if want == "min" else (max, np.max)
    best = start
    if best is None:
        best = math.inf if want == "min" else -math.inf
    for GJ in _gram_chunks(G, subs):
        if start is not None:
            diag = np.diagonal(GJ, axis1=1, axis2=2)
            if want == "min":
                keep = (2.0 * diag - np.abs(GJ).sum(axis=2)).min(axis=1) < best
            else:
                keep = diag.min(axis=1) > best
            if not np.any(keep):
                continue
            GJ = GJ[keep]
        best = pick(best, float(reduce(np.linalg.eigvalsh(GJ)[:, 0])))
    return best


def _scan_min_eig(G: np.ndarray, s: int, want: str) -> float:
    """min or max (`want`) of lambda_min(G_J) over all size-s subsets, exactly.

    Large scans start from the extreme of a fixed sample of subsets and
    prune against it (see _extreme_min_eig).
    """
    if s == 1:
        diag = np.diag(G)
        return float(diag.min() if want == "min" else diag.max())
    p = G.shape[0]
    subs = subset_index_array(p, s)
    if len(subs) <= _DIRECT_LIMIT:
        return _extreme_min_eig(G, subs, want)
    sample = _sample_subsets(p, s, _PRUNE_SAMPLE, np.random.default_rng(0))
    return _extreme_min_eig(G, subs, want, _extreme_min_eig(G, sample, want))


def _normalized_gram(data: Dataset) -> np.ndarray:
    return data.gram / data.n


def _restricted_singular(data: Dataset, s: int, mode: str, samples: int,
                         seed: int, cap: int | None, want: str) -> float:
    """sqrt of the `want` extreme of lambda_min(X_J'X_J/n) over size-s subsets,
    over all of them (exact) or over `samples` uniform draws (mc)."""
    if not (1 <= s <= data.p):
        raise DomainError(f"s must be in [1, {data.p}]")
    G = _normalized_gram(data)
    if mode == "exact":
        if s > 1:
            check_cap(math.comb(data.p, s), cap)
        lam = _scan_min_eig(G, s, want)
    elif mode == "mc":
        subs = _sample_subsets(data.p, s, samples, np.random.default_rng(seed))
        lam = _extreme_min_eig(G, subs, want)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return math.sqrt(max(lam, 0.0))


def min_restricted_singular(data: Dataset, s: int, mode: str = "exact",
                            samples: int = 10_000, seed: int = 0,
                            cap: int | None = None) -> float:
    """Smallest singular value of X_J/sqrt(n) over subsets with |J| <= s.

    Adding columns can only shrink the smallest singular value, so the
    minimum is attained at size exactly s.  Monte-carlo mode samples
    `samples` subsets uniformly and therefore returns an upper bound on
    the exact value; the subset cap applies to exact mode only.
    """
    return _restricted_singular(data, s, mode, samples, seed, cap, "min")


def max_restricted_singular(data: Dataset, s: int, mode: str = "exact",
                            samples: int = 10_000, seed: int = 0,
                            cap: int | None = None) -> float:
    """Largest over size-s subsets of the smallest singular value of X_J/sqrt(n).

    This max-of-min quantity is nonincreasing in s (every larger subset
    contains a smaller one that is at least as well conditioned).  In
    monte-carlo mode the sampled maximum is a lower bound.
    """
    return _restricted_singular(data, s, mode, samples, seed, cap, "max")


def subset_min_singular(data: Dataset, J) -> float:
    """Smallest singular value of X_J / sqrt(n) for one subset."""
    idx = np.asarray(sorted(int(v) for v in J), dtype=np.intp)
    if len(idx) == 0:
        raise DomainError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= data.p or len(set(idx.tolist())) != len(idx):
        raise DomainError(f"bad subset {tuple(J)}")
    svals = np.linalg.svd(data.X[:, idx] / math.sqrt(data.n), compute_uv=False)
    return float(svals[-1]) if len(idx) <= data.n else 0.0


def min_fullrank_singular_estimate(data: Dataset, samples: int = 10_000,
                                   seed: int = 0, max_size: int | None = None) -> float:
    """Sampled envelope of subset singular values over full-rank subsets.

    The exact minimum over every full-rank subset is combinatorially out of
    reach; this samples subsets across sizes and returns the smallest value
    above the rank cutoff, an upper bound on the true minimum.
    """
    rng = np.random.default_rng(seed)
    cap = max_size if max_size is not None else min(data.n, data.p)
    best = math.inf
    G = _normalized_gram(data)
    per_size = max(samples // cap, 1)
    cutoff = math.sqrt(EPS_RANK)
    for s in range(1, cap + 1):
        count = min(per_size, math.comb(data.p, s))
        for GJ in _gram_chunks(G, _sample_subsets(data.p, s, count, rng)):
            nu = np.sqrt(np.maximum(np.linalg.eigvalsh(GJ)[:, 0], 0.0))
            ok = nu[nu > cutoff]
            if len(ok):
                best = min(best, float(ok.min()))
    return best


def is_identifiable(data: Dataset, s_star: int, cap: int | None = None) -> bool:
    """True when every subset of 2*s_star columns has full column rank."""
    if s_star < 1:
        raise DomainError("s_star must be >= 1")
    probe = min(2 * s_star, data.p)
    return min_restricted_singular(data, probe, mode="exact", cap=cap) > EPS_RANK


def signal_strength_threshold(sigma: float, lam: float, n: int, nu: float) -> float:
    """Coefficient magnitude 3*sigma*sqrt(lam/n)/nu above which the posterior
    reliably prefers the true support."""
    if nu <= 0:
        raise DomainError("nu must be positive")
    if sigma < 0 or lam < 0 or n < 1:
        raise DomainError("need sigma >= 0, lam >= 0, n >= 1")
    return 3.0 * sigma * math.sqrt(lam / n) / nu


def covariance_subset_bounds(Sigma, s: int) -> tuple[float, float]:
    """(worst condition ratio, smallest eigenvalue) over principal submatrices.

    Returns (eta, lam) with eta = max over |J| <= s of
    lambda_max(Sigma_J)/lambda_min(Sigma_J) and lam = min over the same of
    lambda_min(Sigma_J); eta is +inf when any submatrix is singular.
    """
    Sigma = np.asarray(Sigma, dtype=np.float64)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise DomainError("Sigma must be square")
    if not np.allclose(Sigma, Sigma.T, atol=1e-10):
        raise DomainError("Sigma must be symmetric")
    p = Sigma.shape[0]
    if not (1 <= s <= p):
        raise DomainError(f"s must be in [1, {p}]")
    # both extremes are attained at size exactly s (interlacing)
    eta = -math.inf
    lam = math.inf
    for block in _gram_chunks(Sigma, subset_index_array(p, s)):
        vals = np.linalg.eigvalsh(block)
        lo_vals, hi_vals = vals[:, 0], vals[:, -1]
        lam = min(lam, float(lo_vals.min()))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(lo_vals > 0.0, hi_vals / lo_vals, math.inf)
        eta = max(eta, float(ratios.max()))
    return eta, lam


@dataclass(frozen=True)
class DesignReport:
    """Diagnostics for one probed subset size."""

    s: int
    min_singular: float
    max_singular: float
    mode: str
    samples: int | None
    identifiable_2s: bool | None
    signal_threshold: float | None


def design_report(data: Dataset, s: int, mode: str = "exact",
                  samples: int = 10_000, seed: int = 0,
                  sigma: float | None = None, lam: float | None = None,
                  cap: int | None = None) -> DesignReport:
    """Bundle the restricted singular values at size s with the implied
    identifiability flag and recovery threshold.

    identifiable_2s is omitted (None) when the size-2s exact scan would
    exceed the enumeration cap; the threshold needs sigma and lam.
    """
    nu = min_restricted_singular(data, s, mode=mode, samples=samples, seed=seed, cap=cap)
    kappa = max_restricted_singular(data, s, mode=mode, samples=samples, seed=seed, cap=cap)
    ident: bool | None
    try:
        ident = is_identifiable(data, s, cap=cap) if mode == "exact" else None
    except TooLargeError:
        ident = None
    sig = data.sigma if sigma is None else sigma
    thr = None
    if sig is not None and lam is not None and nu > 0:
        thr = signal_strength_threshold(sig, lam, data.n, nu)
    return DesignReport(s=s, min_singular=nu, max_singular=kappa, mode=mode,
                        samples=samples if mode == "mc" else None,
                        identifiable_2s=ident, signal_threshold=thr)
