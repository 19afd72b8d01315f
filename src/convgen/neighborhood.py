"""Exact Euclidean nearest-neighbor queries for the minority class.

Rankings sort by (distance, sample index) so results are deterministic on
every platform. The distance of a query q to a pool row p is
E = ((p - q) ** 2).sum(), numpy's pairwise sum over the f features, and a
ranking is the stable sort of those values: exact brute force. Computing E
for every pair costs one small numpy reduction per query, so each block of
queries first screens the pool with one float32 matrix product and computes
E only for the rows the screen cannot rule out.

The screen works on centred, scaled rows x = (r - c)·2^s: c is the pool's
column means and 2^s puts the pool's largest |r - c| entry in [1/2, 1).
The centring rounds in float64, the power of two is exact, and the result
is rounded to float32, x̃. A query row gets a trailing 1 and a pool row's
-2·x̃ gets its squared norm ‖x‖² (summed in float64, rounded to float32),
so one float32 product gives S = ‖x_p‖² - 2·x̃_q·x̃_p. With D = 4^s·E,
S + ‖x̃_q‖² estimates D, and ‖x̃_q‖² is the same for every pool row of a
query. With u = 2⁻²⁴, N = ‖x_q‖² + max‖x_p‖², to first order:
- each stored entry is within (u + 2⁻⁵²)·|x| of x, so ‖x̃_q - x̃_p‖² is
  within 4u·N of the exact 4^s-scaled squared distance, and the stored
  norm is within 3u·‖x_p‖² of ‖x̃_p‖²;
- the product sums f + 1 terms whose magnitudes add up to at most 2N, so
  in any summation order (any BLAS) it is off by at most (2f + 2)·u·N;
- E is off from the exact squared distance by at most (f + 2)·2⁻⁵³ of it,
  and that distance is at most 2N in the scaled units.
The float64 roundings (the centring, the norms and E) add at most
(3f + 18)·2⁻⁵³·N, less than u·N for f < 2²⁸, so in all
|S + ‖x̃_q‖² - D| ≤ (2f + 10)·u·N. δ = γ(2f + 16)·N + f·4^s·t₆₄, with
γ(n) = n·u/(1 - n·u): the spare covers the higher-order terms and the
float64 roundings of N, δ and the limit below. Float32 underflow is off by
at most a few f float32 subnormals, which the spare covers because the
scaling makes N ≥ 1/4 (when every pool row equals c, every S is 0 and
every row is a candidate); E's products that underflow are each off by at
most half t₆₄, the smallest float64 subnormal, and f·4^s·t₆₄ covers them.
The bound needs no overflow, so it is used only while N ≤ float32 max / 4
and 4⁻ˢ·N ≤ float64 max / 4; otherwise, and for NaN and inf, every pool row
is a candidate.

The threshold L is the width-th smallest of the minima of S over the
strided column groups {j, j + m, ..., j + 7m}, m = n_pool // GROUPS
(GROUPS = 8): the groups are disjoint, so the width smallest group minima
are width distinct rows with S ≤ L. (When n_pool < GROUPS·width, L is the
width-th smallest S.) Those rows have D ≤ L + ‖x̃_q‖² + δ, so every row of
the exact top k has D ≤ L + ‖x̃_q‖² + δ and thus S ≤ L + 2δ. Every row
within that limit, rounded up to float32, is a candidate, which loses none
of the top k, and the candidates ranked by (E, index) give exactly the
indices a full sort of all E gives. On a self-query the query's own entry
is -inf in S and -1 in E, so it comes first and the rest is a top k - 1.
"""

from __future__ import annotations

import numpy as np

from .data import DataError, Dataset, require_int

# (query, pool) pairs in one block of ranked_neighbors: the screen and the
# recheck of a block hold arrays of at most max(BLOCK_PAIRS, n_pool) pairs
# (times f for the recheck's rows); a chunk of the centring pass holds
# BLOCK_PAIRS floats.
BLOCK_PAIRS = 1 << 16
# Strided column groups whose minima set the screen's threshold.
GROUPS = 8
_FLOAT = np.finfo(np.float64)
# unit roundoff of the float32 screen
_U32 = float(np.finfo(np.float32).eps) / 2
# Beyond these, a screened value (float32) or a distance (float64) may overflow.
_SCREEN_MAX = float(np.finfo(np.float32).max) / 4
_SCALE_MAX = _FLOAT.max / 4


def _matrix(name: str, values) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {matrix.shape}")
    return matrix


def _row_chunks(rows: np.ndarray) -> list[slice]:
    """Slices of about BLOCK_PAIRS floats of `rows`."""
    step = max(1, BLOCK_PAIRS // max(rows.shape[1], 1))
    return [slice(lo, lo + step) for lo in range(0, len(rows), step)]


def _centred(rows: np.ndarray, centre: np.ndarray, exponent, out: np.ndarray) -> np.ndarray:
    """Write (rows - centre) * 2**exponent, computed in float64, into the
    float32 `out` of the rows' shape a chunk of rows at a time; return the
    float64 squared norms of the centred, scaled rows."""
    norms = np.empty(len(rows))
    for chunk in _row_chunks(rows):
        x = rows[chunk] - centre
        np.ldexp(x, exponent, out=x)
        norms[chunk] = np.einsum("ij,ij->i", x, x)
        out[chunk] = x
    return norms


def ranked_neighbors(queries: np.ndarray, k: int, pool: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, min(k, n_pool)) positions of the nearest pool rows, ties by index.

    `pool=None` ranks the queries against themselves; each row then comes
    first in its own list, even among duplicate rows. Both inputs must be
    2-D with the same width; they are read as float64, and k is an integer
    >= 1. NaN distances rank last.

    Each block of queries is screened with one float32 matrix product of
    the centred rows (see the module docstring): a pool row is a candidate
    when its screened value is at most L + 2δ. Every pool row is a
    candidate of a query whose centred norm, or the pool's, is NaN, inf or
    too large for the bound. Only candidates get their exact distance,
    computed as the per-row brute force computes it, so the indices are
    bitwise those of a full stable sort of every distance.
    """
    self_query = pool is None
    queries = _matrix("queries", queries)
    pool = queries if self_query else _matrix("pool", pool)
    k = require_int("k", k, 1)
    if queries.shape[1] != pool.shape[1]:
        raise DataError(f"feature width {queries.shape[1]} != fitted {pool.shape[1]}")
    n_pool, f = pool.shape
    width = min(k, n_pool)
    out = np.empty((len(queries), width), dtype=np.intp)
    if n_pool == 0 or len(queries) == 0:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        centre = np.einsum("ij->j", pool) / n_pool
        spread = np.max([np.abs(pool[chunk] - centre).max(initial=0.0)
                         for chunk in _row_chunks(pool)])
        # scaled so that the pool's largest centred |entry| is in [1/2, 1)
        exponent = -np.frexp(spread)[1] if np.isfinite(spread) else 0
        augmented_q = np.empty((len(queries), f + 1), dtype=np.float32)
        query_sq = _centred(queries, centre, exponent, augmented_q[:, :f])
        augmented_q[:, f] = 1.0
        augmented_p = np.empty((f + 1, n_pool), dtype=np.float32)
        if self_query:
            augmented_p[:f] = augmented_q[:, :f].T
            pool_sq = query_sq
        else:
            pool_sq = _centred(pool, centre, exponent, augmented_p[:f].T)
        augmented_p[:f] *= -2.0
        augmented_p[f] = pool_sq
        scale = query_sq + pool_sq.max()
        coeff = (2 * f + 16) * _U32
        gamma = coeff / (1 - coeff) if coeff < 1 else np.inf
        delta = gamma * scale + f * np.ldexp(_FLOAT.smallest_subnormal, 2 * exponent)
        # NaN, inf or overflowing norms: the bound does not hold, keep every row
        unbounded = ~((delta < np.inf) & (scale <= _SCREEN_MAX)
                      & (np.ldexp(scale, -2 * exponent) <= _SCALE_MAX))
    any_unbounded = unbounded.any()
    groups = n_pool // GROUPS if n_pool >= GROUPS * width else 0
    block = max(1, BLOCK_PAIRS // n_pool)
    for start in range(0, len(queries), block):
        q = queries[start:start + block]
        with np.errstate(over="ignore", invalid="ignore"):
            approx = augmented_q[start:start + block] @ augmented_p
            if self_query:
                approx[np.arange(len(q)), start + np.arange(len(q))] = -np.inf
            # the width smallest group minima are width distinct rows at or below L
            minima = (np.minimum.reduce(approx[:, :GROUPS * groups].reshape(len(q), GROUPS, groups),
                                        axis=1) if groups else approx)
            lowest = np.partition(minima, width - 1, axis=1)[:, width - 1]
            limit = np.nextafter((lowest + 2 * delta[start:start + block]).astype(np.float32),
                                 np.float32(np.inf))
        keep = approx <= limit[:, None]
        if any_unbounded:
            keep |= unbounded[start:start + block, None]
        rows, cols = np.divmod(np.flatnonzero(keep), n_pool)
        d2 = ((pool[cols] - q[rows]) ** 2).sum(axis=1)
        if self_query:
            d2[cols == rows + start] = -1.0
        ranked = cols[np.lexsort((cols, d2, rows))]
        first = np.searchsorted(rows, np.arange(len(q)))
        out[start:start + len(q)] = ranked[first[:, None] + np.arange(width)]
    return out


def knn_minority(dataset: Dataset, neb: int) -> np.ndarray:
    """(n_min, min(neb, n_min)) positions into `dataset.minority_indices`: each
    minority point's nearest minority points, itself first."""
    minority = dataset.minority_indices
    if neb < 2 and len(minority) >= 2:
        raise DataError("neb must be >= 2")
    return ranked_neighbors(dataset.features[minority], neb)


def majority_neighborhoods(dataset: Dataset, neb: int) -> np.ndarray:
    """(n_min, k) majority row ids nearest to each minority point."""
    majority_ids = dataset.majority_indices
    near = ranked_neighbors(dataset.features[dataset.minority_indices], neb,
                            dataset.features[majority_ids])
    return majority_ids[near]
