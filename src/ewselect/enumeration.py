"""Vectorized scans over all column subsets of a given size.

Subsets of size s are materialized once per (p, s) as an index array in
lexicographic order and cached; per-subset Gram eigendecompositions are
batched so exhaustive enumeration stays usable up to the shared cap.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from functools import wraps

import numpy as np

from .errors import DomainError, TooLargeError

# Largest number of subsets any exhaustive scan is allowed to touch by
# default; most entry points accept a per-call override.
ENUMERATION_CAP = 2_000_000

# Absolute bound guarding subset_index_array against accidental huge builds.
_HARD_CAP = 20_000_000

# Chunk size for batched eigendecompositions (bounds peak memory).
SCAN_CHUNK = 200_000


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


def subset_rank(subset, p: int) -> int:
    """Lexicographic position of `subset` within subset_index_array(p, len)."""
    sub = sorted(int(v) for v in subset)
    s = len(sub)
    if s and (sub[0] < 0 or sub[-1] >= p or len(set(sub)) != s):
        raise DomainError(f"bad subset {subset} for p={p}")
    rank = 0
    prev = -1
    for i, c in enumerate(sub):
        for v in range(prev + 1, c):
            rank += math.comb(p - 1 - v, s - 1 - i)
        prev = c
    return rank


def gather_gram(G: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """Per-subset Gram blocks G[J, J] for each row J of subs: (m, s, s)."""
    return G[subs[:, :, None], subs[:, None, :]]


def batched_rss(G, b, yty, subs, eps_n):
    """Minimum-norm least-squares fit of each subset row from one eigh.

    Returns (rss, min_eig, beta): the residual sum of squares, the smallest
    Gram eigenvalue and the (m, s) coefficient rows.  Directions with
    eigenvalue <= eps_n (the shared rank rule) are dropped, which matches
    the pseudo-inverse fit exactly.
    """
    m, s = subs.shape
    if s == 0:
        return np.full(m, yty), np.full(m, np.inf), np.empty((m, 0))
    vals, vecs = np.linalg.eigh(gather_gram(G, subs))
    proj = np.einsum("mij,mi->mj", vecs, b[subs])
    inv = np.where(vals > eps_n, 1.0 / np.where(vals > eps_n, vals, 1.0), 0.0)
    rss = yty - np.einsum("mj,mj->m", proj * proj, inv)
    beta = np.einsum("mij,mj->mi", vecs, proj * inv)
    return np.maximum(rss, 0.0), vals[:, 0], beta
