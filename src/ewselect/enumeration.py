"""Exhaustive scans over column subsets.

Subsets of size s are materialized once per (p, s) as a lexicographic index
array and cached.  Every exact scan runs on one prefix-sharing Cholesky walk
(_cholesky_walk); carrying y as one more Gram column makes each node's last
Schur entry its residual sum of squares (the leaps idea of Furnival &
Wilson, Technometrics 1974).  When coefficients are wanted, each node also
carries its regression coefficients on every later column, y included
(the sweep operator's form of the node; Goodnight, The American
Statistician 1979), so a child's fit is one O(|J|) update of its parent's,
with no solve.  One stream (_walk_fits) yields the fit of every subset the
walk forms, rank-deficient fallbacks included; the posterior table
(_subset_fits) and exhaustive l0 both read it.

The penalized scan (_penalized_scan, exhaustive l0) is a branch-and-bound
on that stream.  RSS cannot rise as columns are added, so the descendants
of a node P's child P + c (its strict supersets within P + {c, ..., p-1})
score at least rss(P + {c, ..., p-1}) + lam (|P| + 2).  One Cholesky
factor of the bordered Gram in reverse column order (_suffix_factor) holds
the Schur complement of every suffix {c, ..., p-1}, so each batch reads the
bound of every child from a |P| + 1 square block per child (_suffix_rss).
A child whose bound exceeds the best score so far (at first, greedy l0's)
by more than a slack of 1e-9 y'y is formed and scored, but never expanded
(the walk's `expand` hook, which the min screen of the diagnostics also
uses).
"""

from __future__ import annotations

import math
from collections import OrderedDict, defaultdict, namedtuple
from functools import lru_cache, wraps

import numpy as np

from .errors import DomainError, TooLargeError
from .subsets import EPS_RANK, _svd_fit

# Largest number of subsets any exhaustive scan is allowed to touch by
# default; most entry points accept a per-call override.
ENUMERATION_CAP = 2_000_000

# Absolute bound guarding subset_index_array against accidental huge builds.
_HARD_CAP = 20_000_000

# Entries of one batch's child tensors in the walk (bounds its memory).
_SCREEN_ELEMS = 1 << 20


def subset_count(p: int, s_max: int) -> int:
    """Number of subsets of [p] with size at most s_max."""
    return sum(math.comb(p, s) for s in range(min(s_max, p) + 1))


def check_cap(count: int, cap: int | None = None) -> None:
    cap = ENUMERATION_CAP if cap is None else cap
    if count > cap:
        raise TooLargeError(
            f"exhaustive scan over {count} subsets exceeds the cap of {cap}"
        )


# Total bytes of index arrays subset_index_array keeps between calls.
_INDEX_CACHE_BYTES = 1 << 28

_CacheInfo = namedtuple("CacheInfo", "hits misses maxbytes currbytes")


def _lru_by_bytes(max_bytes: int):
    """Like functools.lru_cache, but bounded by the total nbytes of the
    cached arrays; a result larger than max_bytes is returned uncached."""
    def decorate(build):
        cache: OrderedDict = OrderedDict()
        stats = [0, 0]   # hits, misses

        @wraps(build)
        def cached(*key):
            if key in cache:
                stats[0] += 1
                cache.move_to_end(key)
                return cache[key]
            stats[1] += 1
            out = build(*key)
            if out.nbytes <= max_bytes:
                cache[key] = out
                while sum(a.nbytes for a in cache.values()) > max_bytes:
                    cache.popitem(last=False)
            return out

        def cache_clear():
            cache.clear()
            stats[:] = [0, 0]

        cached.cache_clear = cache_clear
        cached.cache_info = lambda: _CacheInfo(
            *stats, max_bytes, sum(a.nbytes for a in cache.values()))
        return cached
    return decorate


@_lru_by_bytes(_INDEX_CACHE_BYTES)
def subset_index_array(p: int, s: int) -> np.ndarray:
    """All size-s subsets of range(p) as a (C(p,s), s) array, lex order.

    Built from the right: the last k columns of a row are a size-k subset
    whose first element is at least s - k, and those tails, in lex order,
    are `tail`.  Rows of the next tail that start with `a` are `a` followed
    by the tails whose first element exceeds `a`, which are a suffix of
    `tail`, so each column costs one repeat and one gather.
    """
    check_cap(math.comb(p, s), _HARD_CAP)
    tail = np.empty((1, 0), dtype=np.intp)
    for k in range(1, s + 1):
        first = np.arange(s - k, p - k + 1)
        lens = np.array([math.comb(p - 1 - a, k - 1) for a in first],
                        dtype=np.intp)
        ends = np.cumsum(lens)
        # the block for `a` ends at row ends[a] and takes the last lens[a]
        # rows of `tail`, so row i takes tail row i + len(tail) - ends[a]
        rows = np.arange(lens.sum()) + np.repeat(len(tail) - ends, lens)
        nxt = np.empty((len(rows), k), dtype=np.intp)
        nxt[:, 0] = np.repeat(first, lens)
        nxt[:, 1:] = tail[rows]
        tail = nxt
    tail.setflags(write=False)
    return tail


def subset_rank(subsets, p: int):
    """Lexicographic position within subset_index_array(p, k): an int for
    one subset, an array of them for an (m, k) stack of subsets.

    The rank of J_0 < ... < J_{k-1} is C(p, k) - 1 - sum_i C(p-1-J_i, k-i),
    the combinatorial number system read from the end.
    """
    J = np.sort(np.asarray(subsets, dtype=np.intp), axis=-1)
    if J.size and (J.min() < 0 or J.max() >= p
                   or np.any(J[..., 1:] == J[..., :-1])):
        raise DomainError(f"bad subset {subsets} for p={p}")
    rank = _lex_rank(J, p)
    return int(rank) if J.ndim == 1 else rank


def _lex_rank(J: np.ndarray, p: int):
    """subset_rank of rows J that are already sorted, in range and free of
    repeats; unchecked."""
    k = J.shape[-1]
    return ((math.comb(p, k) - 1)
            - _binom(p, k)[p - 1 - J, k - np.arange(k)].sum(-1))


@lru_cache(maxsize=64)
def _binom(p: int, k: int) -> np.ndarray:
    """binom[n, r] = C(n, r) for n < p and r <= k, by the hockey-stick
    identity.  Entries that wrap are never read (those _lex_rank and
    _completions read are at most C(p, k), and a C(p, k) beyond int64
    raises OverflowError)."""
    binom = np.zeros((p, k + 1), dtype=np.int64)
    binom[:, 0] = 1
    for r in range(1, k + 1):
        binom[1:, r] = np.cumsum(binom[:-1, r - 1])
    binom.setflags(write=False)
    return binom


def gather_gram(G: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """Per-subset Gram blocks G[J, J] for each row J of subs: (m, s, s)."""
    return G[subs[:, :, None], subs[:, None, :]]


def _completions(P: np.ndarray, f: int, ok: np.ndarray, q: int, ts):
    """For each t in ts, one array of the rows P[b] + (f+c,) + T over the
    children P[b] + (f+c) of a walk batch (P, f, ok) whose pivot failed and
    the size-t subsets T of range(f+c+1, q): by column, then prefix row,
    then T in lex order.  Nothing when every pivot succeeded.

    The T of column c are the last C(q-1-f-c, t) rows of the lex-ordered
    size-t subsets of range(f+1, q), those whose first element exceeds f+c,
    so each array costs one gather (subset_index_array's trick)."""
    cc, bb = np.nonzero(~ok.T)
    if not len(cc):
        return
    k = P.shape[1]
    for t in ts:
        tails = subset_index_array(q - 1 - f, t) + (f + 1)
        lens = _binom(q, t)[q - 1 - f - cc, t]
        ends = np.cumsum(lens)
        rows = np.empty((ends[-1], k + 1 + t), dtype=np.intp)
        rows[:, :k] = np.repeat(P[bb], lens, axis=0)
        rows[:, k] = np.repeat(f + cc, lens)
        rows[:, k + 1 :] = tails[np.arange(ends[-1])
                                 + np.repeat(len(tails) - ends, lens)]
        yield rows


def _cholesky_walk(A: np.ndarray, q: int, depth: int, tol: float,
                   leaves: bool = False, coefs: bool = True, expand=None):
    """Prefix-sharing Cholesky factorizations of A[J, J] for every sorted
    subset J of range(q) with at most `depth` columns; columns q.. of the
    symmetric A are carried along, never branched on.

    A node is a prefix P (largest column m) with A[P, P] = L L',
    W = L^-1 A[P, m+1:] and Schur diagonal r = diag(A)[m+1:] - colsum(W^2).
    With `coefs` it also carries B = A[P, P]^-1 A[P, m+1:] = L'^-1 W, the
    sweep operator's form of the same node: child P + j, with t its new row
    of W over sqrt(pivot), has B = [B[:, j+1:] - B[:, j] t ; t], so the
    last column of B, the coefficients of the last column of A on P, costs
    O(|P|) per child and no solve.
    Nodes of one size and largest column are expanded in batches of at most
    _SCREEN_ELEMS child entries, split over nodes and, when one node's
    children alone exceed that, over its child columns.  A batch is yielded
    as (P, f, B, ok, w, rc, sq): child P[b] + (f+c) succeeds (ok) when its
    last pivot is > tol, not NaN; its new row of W is w[b, c], its r is
    rc[b, c] (both over the last w.shape[2] columns of A, from column f on)
    and sq[b, c] is the square root of its pivot (1 where it failed).
    B[b] is the node's B over columns f.. of A, or None without `coefs`.
    Failed children and children of size `depth` are not expanded; the
    latter's rows cover only the carried columns.

    A batch forms the children it expands with one gather per field, ordered
    by child column, then node, over all columns after f; the children of
    column c keep their fields from column f+c+1 on.  Each column's slice
    is copied out at once, so the batch's padded gathers die with it (views
    kept to the level's end raised the peak of _subset_fits at (100, 20),
    |J| <= 7, by 60 %), and at the level's end the nodes of each largest
    column are written once into one array per field, in the order their
    batches formed them.

    With `leaves`, only the pivots of the size depth + 1 subsets are wanted:
    children that cannot reach that size are skipped, and the last rows
    cover all later columns, so rc[b, c, l] is the last pivot of the leaf
    P[b] + (f+c, f+l).

    With `expand`, children are cut just after their batch is formed:
    expand(P, f, W, w, rc), with W the nodes' rows of W over the columns
    of w, gives a mask over ok of the children to expand (True keeps all),
    and the others' subtrees are skipped.  The hook runs after the batch's
    yield, so it sees every batch the walk yielded, this one included.
    Exhaustive l0 cuts the children whose RSS bound is too high, and the
    diagnostics' min screen those whose leaves it proves positive definite.
    """
    d = len(A)
    root = (np.empty((1, 0), np.intp), np.empty((1, 0, d)), np.diag(A)[None, :])
    level = {-1: root + (np.empty((1, 0, d)),) if coefs else root}
    for k in range(depth):
        last = k == depth - 1
        nxt = defaultdict(list)
        end = q - (depth - k if leaves else 0)
        for m, nodes in level.items():
            qc = end - 1 - m
            if qc <= 0:
                continue
            carried = last and not leaves   # rows cover columns q.. only
            # numpy multiplies a one-row or one-column block as a
            # matrix-vector product, whose bits change when it is cut.  So
            # child columns go in balanced chunks (no lone child while
            # width >= 3), and carried rows, whose product has one column,
            # are cut by nodes only.
            width = qc if carried else max(_SCREEN_ELEMS // (d - m - 1), 1)
            chunks = -(-qc // width)
            cuts = [qc * i // chunks for i in range(chunks + 1)]
            for c0, c1 in zip(cuts, cuts[1:]):
                f, nc = m + 1 + c0, c1 - c0
                lo = q if carried else f   # first column of w
                step = max(_SCREEN_ELEMS // (nc * (d - lo)), 1)
                for i in range(0, len(nodes[0]), step):
                    w = rc = None   # free the last batch before this one
                    P, W, r, *B = (a[i : i + step] for a in nodes)
                    B = B[0][:, :, c0:] if coefs else None
                    Wc = W[:, :, c0 : c0 + nc]
                    piv = r[:, c0 : c0 + nc]
                    ok = piv > tol
                    sq = np.sqrt(np.where(ok, piv, 1.0))
                    with np.errstate(over="ignore", invalid="ignore"):
                        w = (A[f : f + nc, lo:]
                             - np.matmul(Wc.transpose(0, 2, 1),
                                         W[:, :, lo - m - 1 :]))
                        w /= sq[:, :, None]
                        rc = r[:, None, lo - m - 1 :] - w * w
                    yield P, f, B, ok, w, rc, sq
                    if last:
                        continue
                    grow = ok if expand is None else ok & expand(
                        P, f, W[:, :, lo - m - 1 :], w, rc)
                    cc, bb = np.nonzero(grow.T)   # by column, then node
                    if not len(cc):
                        continue
                    new = w[bb, cc, 1:]   # fields over columns f+1.. of A
                    wide = [new, rc[bb, cc, 1:], W[bb, :, c0 + 1 :]]
                    if coefs:
                        new = new / sq[bb, cc, None]
                        wide += [new, B[bb, :, 1:]
                                 - B[bb, :, cc][..., None] * new[:, None]]
                    kid = np.column_stack([P[bb], f + cc])
                    ends = np.cumsum(grow.sum(axis=0)).tolist()
                    for c, s, e in zip(range(nc), [0, *ends], ends):
                        if s < e:   # column c's children are rows s:e
                            nxt[f + c].append([kid[s:e]] + [
                                a[s:e, ..., c:].copy() for a in wide])
                    new = wide = None
        level = {j: _nodes(nxt.pop(j)) for j in list(nxt)}


def _nodes(parts) -> tuple:
    """A level's nodes of one largest column, (P, W, r) or (P, W, r, B),
    from the parts its batches formed, [P, w, rc, W] or [P, w, rc, W, t, B]
    (t and w the new rows of B and W).  Each field is written once."""
    P, w, rc, W, *tB = zip(*parts)
    nodes = (np.concatenate(P), _stack(W, w), np.concatenate(rc))
    if tB:
        nodes += (_stack(tB[1], tB[0]),)
    return nodes


def _stack(old, new) -> np.ndarray:
    """The nodes of one level and largest column: [old ; new] along axis 1,
    old the parts' (n, k, width) rows and new their (n, width) new rows,
    written once into one (sum n, k+1, width) array."""
    out = np.empty((sum(map(len, new)), old[0].shape[1] + 1, new[0].shape[1]))
    np.concatenate(old, out=out[:, :-1])
    np.concatenate(new, out=out[:, -1])
    return out


def _bordered_gram(data) -> np.ndarray:
    """[[G, X'y], [y'X, y'y]]; on the walk, a node's carried Schur entry is
    its residual sum of squares, its carried column of W is L^-1 X_J'y and
    its carried column of B is its least-squares fit."""
    return np.block([[data.gram, data.xty[:, None]],
                     [data.xty[None, :], np.array([[data.yty]])]])


def _walk_fits(data, A: np.ndarray, s_max: int, coefs: bool = True,
               expand=None):
    """(rows, rss, beta, full) for each batch of subsets with at most s_max
    columns that the walk on the bordered Gram A forms.  A pivot <=
    EPS_RANK * n fails (subsets._schur_step's rule).  A batch's full-rank
    children come first: child P + (f+c) has beta = (beta_P - B[:, c] theta,
    theta), where beta_P is the parent's carried column of B and theta its
    carried entry of w over sqrt(pivot); beta is None without `coefs`.  Each
    failed child and all its completions follow with subsets._svd_fit,
    _SCREEN_ELEMS design entries at a time.  The walk, and so `expand`,
    resumes only after."""
    for P, f, B, ok, w, rc, sq in _cholesky_walk(
            A, data.p, s_max, EPS_RANK * data.n, coefs=coefs, expand=expand):
        b, c = np.nonzero(ok)
        beta = None
        if B is not None:
            theta = w[b, c, -1] / sq[b, c]
            beta = np.column_stack([B[b, :, -1] - B[b, :, c] * theta[:, None],
                                    theta])
        yield (np.column_stack([P[b], f + c]), np.maximum(rc[b, c, -1], 0.0),
               beta, True)
        for rows in _completions(P, f, ok, data.p, range(s_max - P.shape[1])):
            step = max(_SCREEN_ELEMS // (data.n * rows.shape[1]), 1)
            for i in range(0, len(rows), step):
                beta, rss = _svd_fit(data, rows[i : i + step])
                yield rows[i : i + step], rss, beta, False


def _subset_fits(data, s_max: int):
    """Least-squares fit of every subset with at most s_max columns: one
    (rss, beta, full_rank) triple per size k, rows in subset_index_array
    order, beta one coefficient per column of the row (from _walk_fits)."""
    p = data.p
    fits = [(np.empty(math.comb(p, k)), np.empty((math.comb(p, k), k)),
             np.ones(math.comb(p, k), dtype=bool)) for k in range(s_max + 1)]
    fits[0][0][:] = data.yty
    for rows, *fit in _walk_fits(data, _bordered_gram(data), s_max):
        at = _lex_rank(rows, p)   # the walk's rows are sorted and in range
        for out, v in zip(fits[rows.shape[1]], fit):
            out[at] = v
    return fits


def _suffix_factor(A: np.ndarray, q: int, tol: float):
    """(U, live) from the Cholesky factor of A with columns q-1, ..., 0
    eliminated in that order (carried columns q.. last): U[c] is the
    elimination step of column c over all columns of A, so A's Schur
    complement after eliminating q-1, ..., c is A - sum_{i >= c} U[i]'U[i]
    on the remaining columns.  live[c] holds while every pivot down to
    column c is above tol; a failed column gets a zero row."""
    d = len(A)
    order = np.r_[q - 1 : -1 : -1, q:d]
    S = A[order[:, None], order]
    U = np.zeros((q, d))
    ok = np.empty(q, dtype=bool)
    for i, c in enumerate(order[:q]):
        ok[c] = S[i, i] > tol
        if ok[c]:
            u = S[i:, i] / math.sqrt(S[i, i])
            S[i:, i:] -= np.outer(u, u)
            U[c, order[i:]] = u
    return U, np.logical_and.accumulate(ok[::-1])[::-1]


def _suffix_rss(A, U, live, P: np.ndarray, f: int, nc: int, tol: float):
    """rss(P + {c, ..., q-1}) for each row P of a walk batch and each of its
    child columns c = f..f+nc-1, from _suffix_factor of
    the bordered Gram A (y last), or -inf where no bound is read.

    Given the suffix, P and y keep the Schur block A[J, J] minus the
    suffix's rows U[c:, J]'U[c:, J] (J = P + y), and y's Schur entry in it,
    after eliminating P, is the RSS.  Once a pivot falls to tol or below,
    that child and every child before it get -inf.
    """
    k = P.shape[1]
    c = np.arange(f, f + nc)
    J = np.column_stack([P, np.full(len(P), len(A) - 1)])
    out = []
    step = max(_SCREEN_ELEMS // (len(c) * (k + 1) ** 2), 1)
    for i in range(0, len(P), step):
        Ji = J[i : i + step]
        UJ = U[c[None, :, None], Ji[:, None, :]]
        # suffix sums over c..q-1 of the rows' outer products
        M = np.cumsum((UJ[..., :, None] * UJ[..., None, :])[:, ::-1],
                      axis=1)[:, ::-1]
        M = A[Ji[:, None, :, None], Ji[:, None, None, :]] - M
        ok = np.repeat(live[None, f : f + nc], len(Ji), axis=0)
        for j in range(k):
            piv = M[:, :, j, j]
            ok &= piv > tol
            with np.errstate(over="ignore", invalid="ignore"):
                l = (M[:, :, j + 1 :, j]
                     / np.sqrt(np.where(ok, piv, 1.0))[..., None])
                M[:, :, j + 1 :, j + 1 :] -= l[..., :, None] * l[..., None, :]
        ok = np.logical_and.accumulate(ok[:, ::-1], axis=1)[:, ::-1]
        out.append(np.where(ok, M[:, :, k, k], -np.inf))
    return np.concatenate(out)


def _penalized_scan(data, s_max: int, lam: float, attained: float):
    """(support, score) minimizing rss(J) + lam |J| over |J| <= s_max, by
    the branch-and-bound of the module docstring on the fits of _walk_fits
    without coefficients.  Scores within the slack of the minimum tie, and
    ties go to the smaller, then lexicographically first, support.

    `attained` is a score some support attains, rounded apart from the
    walk's own score for it by far less than the slack: the walk cuts
    against it until it offers a lower one.  The minimum scores no higher,
    so no subtree that holds it is cut, and the result comes from the
    walk's offers alone.

    A child is formed and offered before its bound is read, and only its
    descendants, of |P| + 2 columns or more, are cut.  So with s_max <= 2
    only the root's children would be, and the O(p^3) reverse factor that
    the bounds read would cost more than the whole scan; nothing is
    bounded then.
    """
    p = data.p
    A = _bordered_gram(data)
    tol = EPS_RANK * data.n
    slack = 1e-9 * data.yty
    best = data.yty
    ties = [(data.yty, ())]   # (score, support) within the slack of best

    def offer(rows, score):
        nonlocal best, ties
        best = min(best, float(np.min(score, initial=math.inf)))
        ties = [t for t in ties if t[0] <= best + slack]
        for i in np.flatnonzero(score <= best + slack):
            ties.append((float(score[i]), tuple(int(v) for v in rows[i])))

    expand = None
    if s_max >= 3:
        U, live = _suffix_factor(A, p, tol)

        def expand(P, f, W, w, rc):
            lb = (_suffix_rss(A, U, live, P, f, w.shape[1], tol)
                  + lam * (P.shape[1] + 2))
            return ~(lb > min(best, attained) + slack)

    for rows, rss, _, _ in _walk_fits(data, A, s_max, coefs=False,
                                      expand=expand):
        offer(rows, rss + lam * rows.shape[1])
    score, support = min(ties, key=lambda t: (len(t[1]), t[1]))
    return support, score
