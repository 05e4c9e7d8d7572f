"""Design-matrix diagnostics: restricted singular values, identifiability,
signal-strength thresholds, and covariance subset bounds.

The central quantity is the smallest singular value of X_J / sqrt(n) over
column subsets J of a given size; its minimum over subsets certifies
identifiability and sets the coefficient magnitude needed for reliable
support recovery.

The exact scans (_scan_min_eig) need lambda_min(G_J) only for the subsets
that can move the extreme.  Starting from t, the extreme over a fixed
sample of subsets, a prefix-sharing Cholesky factorization of G_J - t'I
(t' = t + delta for the minimum, t - delta for the maximum) sorts every
subset in O(1) amortized work: it succeeds only if lambda_min(G_J) >= t and
fails only if lambda_min(G_J) <= t, up to the rounding margin delta
(_rounding_margin).  The subsets it cannot rule out are eigensolved with
the same Gram blocks and the same batched eigvalsh as an unpruned scan, and
every subset it skips would have left that scan's extreme where it is, so
the result equals the unpruned scan bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .enumeration import (SCAN_CHUNK, check_cap, gather_gram,
                          subset_index_array)
from .errors import DomainError, TooLargeError
from .subsets import EPS_RANK

_PRUNE_SAMPLE = 4096
_SCREEN_ELEMS = 1 << 20   # entries of one batch's child tensors in the screen
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


def _extreme_min_eig(G: np.ndarray, subs: np.ndarray, want: str) -> float:
    """min or max (`want`) of lambda_min(G_J) over the rows J of `subs`."""
    pick, reduce = (min, np.min) if want == "min" else (max, np.max)
    best = math.inf if want == "min" else -math.inf
    for GJ in _gram_chunks(G, subs):
        best = pick(best, float(reduce(np.linalg.eigvalsh(GJ)[:, 0])))
    return best


def _shifted_cholesky_screen(G: np.ndarray, s: int, shift: float, want: str):
    """Yield arrays of the size-s subsets J that a Cholesky factorization
    of G_J - shift*I cannot rule out: for the minimum those whose
    factorization fails, for the maximum those whose factorization succeeds.

    Prefixes share their factorization.  A node is a prefix P (sorted, with
    largest column m) whose factorization succeeded; it carries
    W = L^-1 G[P, m+1:] and the shifted Schur diagonal
    r = diag(G)[m+1:] - shift - colsum(W^2), so r[c] is the last pivot of
    P + (m+1+c) and a child adds one row to W.  Nodes of one size and one
    largest column form a batch, and each level is a few array operations
    per batch.  A failed prefix marks all its completions for the minimum
    and prunes them for the maximum: by interlacing, adding columns cannot
    raise lambda_min.
    """
    p = len(G)
    level = {-1: (np.empty((1, 0), np.intp), np.empty((1, 0, p)),
                  (np.diag(G) - shift)[None, :])}
    for k in range(s - 1):
        nxt = defaultdict(list)
        for m, (P, W, r) in level.items():
            qc = p - m - s + k   # children m+1+c, c < qc, leave room
            rows = max(_SCREEN_ELEMS // (qc * (p - 1 - m)), 1)
            for lo in range(0, len(P), rows):
                yield from _screen_batch(G, s, want, m, qc, P[lo:lo + rows],
                                         W[lo:lo + rows], r[lo:lo + rows], nxt)
        level = {j: tuple(np.concatenate(a) for a in zip(*parts))
                 for j, parts in nxt.items()}


def _screen_batch(G, s, want, m, qc, P, W, r, nxt):
    """One batch of prefixes with largest column m: yield the subsets it
    cannot rule out and queue its successful children in `nxt`."""
    p, k = len(G), P.shape[1]
    piv = r[:, :qc]
    ok = piv > 0          # False for a NaN from an overflowed prefix too
    with np.errstate(over="ignore", invalid="ignore"):
        w = (G[m + 1 : m + 1 + qc, m + 1 :]
             - np.matmul(W[:, :, :qc].transpose(0, 2, 1), W))
        w /= np.sqrt(np.where(ok, piv, 1.0))[:, :, None]
        rc = r[:, None, :] - w * w   # rc[b, c]: r of child P[b] + (m+1+c)
    if k == s - 2:
        # leaf P[b] + (m+1+c, m+1+l), l > c, has last pivot rc[b, c, l]
        later = np.triu(np.ones((qc, p - 1 - m), dtype=bool), 1)
        if want == "min":
            hit = ~ok[:, :, None] | ~(rc > 0)
        else:
            hit = ok[:, :, None] & (rc > 0)
        b, c, l = np.nonzero(hit & later)
        yield np.column_stack([P[b], m + 1 + c, m + 1 + l])
        return
    if want == "min":
        for b, c in zip(*np.nonzero(~ok)):
            j = m + 1 + c
            tails = subset_index_array(p - 1 - j, s - k - 1) + (j + 1)
            yield np.column_stack([np.broadcast_to(P[b], (len(tails), k)),
                                   np.full(len(tails), j), tails])
    for c in np.flatnonzero(ok.any(axis=0)):
        sel = ok[:, c]
        nxt[m + 1 + c].append((
            np.column_stack([P[sel], np.full(sel.sum(), m + 1 + c)]),
            np.concatenate([W[sel, :, c + 1 :], w[sel, None, c, c + 1 :]],
                           axis=1),
            rc[sel, c, c + 1 :]))


def _scan_min_eig(G: np.ndarray, s: int, want: str) -> float:
    """min or max (`want`) of lambda_min(G_J) over all size-s subsets, exactly.

    t, the extreme over a fixed sample of _PRUNE_SAMPLE subsets, is a value
    some subset attains.  For the minimum, a subset whose factorization of
    G_J - (t + delta)I succeeds has a computed lambda_min >= t and cannot
    lower it; for the maximum, one whose factorization of G_J - (t - delta)I
    fails has a computed lambda_min <= t and cannot raise it.  Only the
    rest are eigensolved, SCAN_CHUNK at a time.
    """
    if s == 1:
        diag = np.diag(G)
        return float(diag.min() if want == "min" else diag.max())
    p = G.shape[0]
    pick = min if want == "min" else max
    sample = _sample_subsets(p, s, _PRUNE_SAMPLE, np.random.default_rng(0))
    best = _extreme_min_eig(G, sample, want)
    delta = _rounding_margin(G, s)
    shift = best + delta if want == "min" else best - delta
    buf, size = [], 0
    for rows in _shifted_cholesky_screen(G, s, shift, want):
        buf.append(rows)
        size += len(rows)
        if size >= SCAN_CHUNK:
            best = pick(best, _extreme_min_eig(G, np.concatenate(buf), want))
            buf, size = [], 0
    if size:
        best = pick(best, _extreme_min_eig(G, np.concatenate(buf), want))
    return best


def _rounding_margin(G: np.ndarray, s: int) -> float:
    """delta = 16 s^2 eps g, with g = max diag(G), for s x s blocks of the
    positive semidefinite G and shifts |t'| <= 2g.

    Cholesky of A = G_J - t'I in floating point (unit roundoff
    u = eps/2, any summation order, as the screen's shared prefixes use):
    - success gives L L' = A + E with |E| <= gamma_{s+1} |L||L'|
      (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
      so ||E||_2 <= gamma_{s+1} trace(L L') ~ (s+1) u s 2g and
      lambda_min(G_J) >= t' - s(s+1) eps g;
    - failure (a pivot <= 0, or a NaN after overflow) means
      lambda_min(H) <= s gamma_{s+1} / (1 - s gamma_{s+1}) for the
      unit-diagonal scaling H of A (Thm 10.7), so
      lambda_min(G_J) <= t' + s(s+1) eps g.
    Rounding t' and diag(A) adds about 2 eps g.  eigvalsh is backward
    stable: its lambda_min is within c u ||G_J||_2 <= c s eps g / 2 of the
    true one, with c a small constant (LAPACK quotes c ~ 1).  The terms sum
    to (s^2 + s + 2 + c s / 2) eps g <= 16 s^2 eps g for any s >= 1 and
    c <= 20, so the computed lambda_min of a skipped subset lies on the
    far side of t.  The margin only adds the subsets within delta of t
    (about 1e-13 g at s = 5) to the ones eigensolved.
    """
    return 16.0 * s * s * np.finfo(np.float64).eps * float(np.max(np.diag(G)))


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
        if samples < 1:
            raise DomainError("samples must be >= 1")
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
    """True when every subset of 2*s_star columns has full column rank.

    Full rank follows the package's rank rule, lambda_min(X_J'X_J/n) >
    EPS_RANK, i.e. a smallest singular value of X_J/sqrt(n) above
    sqrt(EPS_RANK).
    """
    if s_star < 1:
        raise DomainError("s_star must be >= 1")
    probe = min(2 * s_star, data.p)
    nu = min_restricted_singular(data, probe, mode="exact", cap=cap)
    return nu > math.sqrt(EPS_RANK)


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
