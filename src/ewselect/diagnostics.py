"""Design-matrix diagnostics: restricted singular values, identifiability
and signal-strength thresholds.

The central quantity is the smallest singular value of X_J / sqrt(n) over
column subsets J of a given size; its minimum over subsets certifies
identifiability and sets the coefficient magnitude needed for reliable
support recovery.

The exact scans (_scan_min_eig) need lambda_min(G_J) only for the subsets
that can move the extreme.  They start from t, the extreme over a few
subsets grown greedily from the most extreme pairs (_greedy_start).  The
prefix-sharing Cholesky walk of enumeration._cholesky_walk then factors
G_J - t'I (t' = t + delta for the minimum, t - delta for the maximum) for
every subset in O(1) amortized work: the factorization succeeds only if
lambda_min(G_J) >= t and fails only if lambda_min(G_J) <= t, up to the
rounding margin delta (_rounding_margin).  For the minimum, a pairwise
bound on the last 2 x 2 Schur block proves whole families of leaves
positive definite before they are formed (_shifted_cholesky_screen).  The
subsets the screen cannot rule out are eigensolved with the same Gram
blocks and the same batched eigvalsh as an unpruned scan, and every subset
it skips would have left that scan's extreme where it is, so the result
equals the unpruned scan bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import enumeration
from .data import Dataset
from .enumeration import (_cholesky_walk, _completions, check_cap,
                          gather_gram, subset_index_array)
from .errors import DomainError, TooLargeError
from .subsets import EPS_RANK, _check_subset

# Pairs the exact scans' start grows into size-s subsets (_greedy_start).
_START_PAIRS = 4


def _sample_subsets(p: int, s: int, count: int, rng) -> np.ndarray:
    """`count` uniform size-s subsets of range(p), rows sorted.

    Rows are drawn in blocks of at most _SCREEN_ELEMS uniforms; the
    generator fills arrays in order, so the rows equal a one-shot draw.
    """
    out = np.empty((count, s), dtype=np.intp)
    rows = max(enumeration._SCREEN_ELEMS // p, 1)
    for lo in range(0, count, rows):
        u = rng.random((min(rows, count - lo), p))
        out[lo : lo + len(u)] = np.sort(np.argpartition(u, s - 1, axis=1)[:, :s],
                                        axis=1)
    return out


def _eigvals(G: np.ndarray, subs: np.ndarray):
    """eigvalsh of the Gram blocks of the rows of `subs`, gathered
    _SCREEN_ELEMS entries at most at a time."""
    step = max(enumeration._SCREEN_ELEMS // subs.shape[1] ** 2, 1)
    for lo in range(0, len(subs), step):
        yield np.linalg.eigvalsh(gather_gram(G, subs[lo : lo + step]))


def _extreme_min_eig(G: np.ndarray, subs: np.ndarray, want: str) -> float:
    """min or max (`want`) of lambda_min(G_J) over the rows J of `subs`."""
    pick, reduce = (min, np.min) if want == "min" else (max, np.max)
    best = math.inf if want == "min" else -math.inf
    for vals in _eigvals(G, subs):
        best = pick(best, float(reduce(vals[:, 0])))
    return best


def _shifted_cholesky_screen(G: np.ndarray, s: int, shift: float, want: str):
    """Yield arrays of the size-s subsets J that a Cholesky factorization
    of G_J - shift*I cannot rule out: for the minimum those whose
    factorization fails, for the maximum those whose factorization succeeds.

    The walk on G - shift*I (tol 0) yields leaf pivots; a failed prefix
    marks all its completions for the minimum and prunes them for the
    maximum (by interlacing, adding columns cannot raise lambda_min).

    For the minimum with s >= 3, the walk's `expand` hook
    (_pair_certificate) never forms a size s-2 prefix Q = P + c whose leaves
    Q + {j, l} (c < j < l) all factor.  Their last 2 x 2 Schur block is
    [[rho_j, S_jl - w_j w_l], [S_jl - w_j w_l, rho_l]], with rho Q's Schur
    diagonal, S = A - W'W the Schur complement of P and w the new row of
    W that c adds.  With g_j = max over l > j of |S_jl|, N_j = max over
    l > j of |w_l| and R_j = min over l > j of rho_l, every leaf's last
    pivot is positive when rho_j > 0 and (g_j + |w_j| N_j)^2 < rho_j R_j for
    every j > c; with the rounding terms of _rounding_margin, so is the
    pivot the walk would compute.  So the screen yields exactly the rows
    that the walk without the hook yields.
    """
    p = len(G)
    A = G.copy()
    A[np.diag_indices(p)] -= shift
    expand = _pair_certificate(A, s) if want == "min" and s >= 3 else None
    for P, f, _, ok, _, rc, _ in _cholesky_walk(A, p, s - 1, 0.0, leaves=True,
                                                coefs=False, expand=expand):
        k = P.shape[1]
        if k == s - 2:
            # leaf P[b] + (f+c, f+l), l > c, has last pivot rc[b, c, l]
            later = np.triu(np.ones(rc.shape[1:], dtype=bool), 1)
            if want == "min":
                hit = ~ok[:, :, None] | ~(rc > 0)
            else:
                hit = ok[:, :, None] & (rc > 0)
            b, c, l = np.nonzero(hit & later)
            hit = rc = None   # free them before the walk builds the next batch
            yield np.column_stack([P[b], f + c, f + l])
        elif want == "min":
            yield from _completions(P, f, ok, p, [s - k - 1])


def _pair_certificate(A: np.ndarray, s: int):
    """The min screen's `expand` hook on the shifted Gram A: for nodes P of
    size s-3, False for each child whose leaves the pairwise bound of
    _shifted_cholesky_screen proves positive definite, with the rounding
    terms tau and slack of _rounding_margin."""
    eps = np.finfo(np.float64).eps
    tau = 2.0 * (s - 2) * eps * max(float(np.max(np.diag(A))), 0.0)
    slack = 1.0 + 16.0 * eps

    def expand(P, f, W, w, rc):
        if P.shape[1] != s - 3:
            return True
        nc, L = w.shape[1:]
        # g[:, j] = max over l > j of |S[j, l]|, S = A[f:, f:] - W'W the
        # node's Schur complement, nc rows at a time
        g = np.empty((len(W), L))
        before = np.tri(L, dtype=bool)
        for j in range(0, L, nc):
            S = np.abs(A[f + j : f + j + nc, f:]
                       - np.matmul(W[:, :, j : j + nc].transpose(0, 2, 1), W))
            S[:, before[j : j + nc]] = 0.0
            g[:, j : j + nc] = S.max(axis=2)
        with np.errstate(over="ignore", invalid="ignore"):
            # bound = (g_j + tau + |w_j| max_{l>j} |w_l|)^2 and
            # rhs = rho_j min_{l>j} rho_l; the last column has no later one
            aw = np.abs(w)
            bound = np.zeros_like(aw)
            bound[..., :-1] = np.maximum.accumulate(aw[..., :0:-1],
                                                    -1)[..., ::-1]
            bound *= aw
            bound += (g + tau)[:, None, :]
            bound *= bound
            bound *= slack
            rhs = np.full_like(rc, np.inf)
            rhs[..., :-1] = np.minimum.accumulate(rc[..., :0:-1],
                                                  -1)[..., ::-1]
            rhs *= rc
            safe = (rc > 0) & (bound < rhs)
        # a child keeps its subtree unless every later column is safe
        safe |= ~np.triu(np.ones((nc, L), dtype=bool), 1)
        return ~safe.all(axis=2)

    return expand


def _greedy_start(G: np.ndarray, s: int, want: str) -> float:
    """min or max (`want`) of lambda_min(G_J) over a few size-s subsets J,
    each computed as _extreme_min_eig computes it; 2 <= s < len(G).

    The _START_PAIRS pairs with the most extreme 2 x 2 lambda_min (closed
    form) each grow s-2 times by the column that most lowers (min) or
    raises (max) lambda_min, one batched eigvalsh over the candidates.
    """
    p = len(G)
    sign = 1.0 if want == "min" else -1.0
    d = np.diag(G)
    keys, pairs = [], []
    step = max(enumeration._SCREEN_ELEMS // p, 1)
    for lo in range(0, p, step):
        i = np.arange(lo, min(lo + step, p))[:, None]
        a, b = d[i], G[lo : lo + step]
        key = sign * ((a + d) / 2 - np.hypot((a - d) / 2, b))
        key[np.arange(p) <= i] = np.inf
        top = np.argsort(key, axis=None, kind="stable")[:_START_PAIRS]
        keys.append(key.flat[top])
        pairs.append(np.column_stack(np.unravel_index(top, key.shape))
                     + [lo, 0])
    subs = np.concatenate(pairs)[np.argsort(np.concatenate(keys),
                                            kind="stable")[:_START_PAIRS]]
    for k in range(2, s):
        free = np.ones((len(subs), p), dtype=bool)
        np.put_along_axis(free, subs, False, axis=1)
        j = np.nonzero(free)[1].reshape(len(subs), p - k)
        cand = np.concatenate([np.repeat(subs[:, None], p - k, axis=1),
                               j[..., None]], axis=2).reshape(-1, k + 1)
        lam = np.concatenate([v[:, 0] for v in _eigvals(G, cand)])
        grow = np.argmin(sign * lam.reshape(j.shape), axis=1)
        subs = np.column_stack([subs, j[np.arange(len(subs)), grow]])
    return _extreme_min_eig(G, np.sort(subs, axis=1), want)


def _scan_min_eig(G: np.ndarray, s: int, want: str) -> float:
    """min or max (`want`) of lambda_min(G_J) over all size-s subsets, exactly.

    t = _greedy_start(G, s, want) is a value some subset attains, computed
    as the scan computes it.  For the minimum, a subset whose factorization
    of G_J - (t + delta)I succeeds has a computed lambda_min >= t and cannot
    lower it; for the maximum, one whose factorization of G_J - (t - delta)I
    fails has a computed lambda_min <= t and cannot raise it.  Only the
    rest are eigensolved, _SCREEN_ELEMS Gram entries at a time.  When
    C(p, s) is no more than the start would eigensolve, all subsets are
    eigensolved instead, and there is no walk.
    """
    if s == 1:
        diag = np.diag(G)
        return float(diag.min() if want == "min" else diag.max())
    p = G.shape[0]
    start_blocks = _START_PAIRS * (sum(p - k for k in range(2, s)) + 1)
    if math.comb(p, s) <= start_blocks:
        return _extreme_min_eig(G, subset_index_array(p, s), want)
    pick = min if want == "min" else max
    best = _greedy_start(G, s, want)
    delta = _rounding_margin(G, s)
    shift = best + delta if want == "min" else best - delta
    for rows in _shifted_cholesky_screen(G, s, shift, want):
        best = pick(best, _extreme_min_eig(G, rows, want))
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

    The min screen's pairwise certificate needs no margin, only bounds on
    its own rounding.  The walk computes the last pivot of a leaf
    Q + {j, l} as rho_l - x^2, with x = (A[j, l] - W_Q[:, j]'W_Q[:, l]) /
    sqrt(rho_j) and a dot product of k = s - 2 terms.  That product errs by
    at most gamma_k nu_j nu_l, nu the norms of the columns of W_Q.  A
    positive computed rho_l only lost squares from A[l, l] on the way, so
    nu_l^2 <= A[l, l] (1 + gamma_k).  Both dot products, the walk's and the
    certificate's S = A - W'W over k - 1 terms, are thus within
    tau = 2 k eps max diag(A) of exact, and the computed numerator of x is
    at most (1 + u) / (1 - u) (g_j + tau + |w_j| N_j) in absolute value.
    The square root, the division and the square add a factor
    (1 + u)^3 / (1 - u)^2 to x^2 rho_j.  The certificate's two sums, its
    square, its product with the slack and the product rho_j R_j cost
    (1 + u) / (1 - u)^6 more.  The total, (1 + u)^6 / (1 - u)^10, is about
    1 + 8 eps, so a relative slack of 1 + 16 eps makes every skipped leaf's
    computed pivot positive (barring underflow and overflow).
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
        if samples < 1 or seed < 0:
            raise DomainError("need samples >= 1 and seed >= 0")
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
    idx = np.asarray(_check_subset(J, data.p), dtype=np.intp)
    if len(idx) == 0:
        raise DomainError("subset must be nonempty")
    svals = np.linalg.svd(data.X[:, idx] / math.sqrt(data.n), compute_uv=False)
    return float(svals[-1]) if len(idx) <= data.n else 0.0


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
    if not 0 < nu < math.inf:
        raise DomainError("nu must be positive and finite")
    if not (0 <= sigma < math.inf and 0 <= lam < math.inf) or n < 1:
        raise DomainError("need finite sigma >= 0, finite lam >= 0, n >= 1")
    return 3.0 * sigma * math.sqrt(lam / n) / nu


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
