"""Exact Euclidean nearest-neighbor queries for the minority class.

Rankings sort by (distance, sample index) so results are deterministic on
every platform. The distance of a query q to a pool row p is
E = ((p - q) ** 2).sum(), numpy's pairwise sum over the f features, and a
ranking is the stable sort of those values: exact brute force. Computing E
for every pair costs one small numpy reduction per query, so each block of
queries first screens the pool with one matrix product and computes E only
for the rows the screen cannot rule out.

The screen is A = ‖q‖² + ‖p‖² - 2·q·pᵀ. With u = 2⁻⁵³ and D the exact
squared distance, for any summation order (any BLAS):
- each of ‖q‖², ‖p‖² and 2·q·p is off by at most γ_f·(‖q‖² + ‖p‖²), where
  γ_f = f·u/(1 - f·u), and each of the two additions by at most
  2u·(‖q‖² + ‖p‖²), so |A - D| ≤ (2f + 4)·u·(‖q‖² + ‖p‖²) to first order;
- E sums f nonnegative terms, each rounded three times, and
  D ≤ 2·(‖q‖² + ‖p‖²), so |E - D| ≤ (2f + 4)·u·(‖q‖² + ‖p‖²).
Hence |A - E| ≤ δ = (4f + 16)·u·(‖q‖² + max‖p‖²) + 4f·s. The spare 8u
covers the higher-order terms and the rounding of δ and of the limit
below. 4f·s bounds the products that underflow: each is off by at most
half the smallest subnormal s, and sums of subnormals are exact. The bound
needs no overflow, so it is used only while 4·(‖q‖² + max‖p‖²) is finite.

If A_k is the k-th smallest screened value of a query, k rows have
E ≤ A_k + δ, so every row of the exact top k has E ≤ A_k + δ and thus
A ≤ A_k + 2δ. Every row within that limit is a candidate, which loses none
of the top k, and the candidates ranked by (E, index) give exactly the
indices a full sort of all E gives. On a self-query the query's own entry
is -inf in A and -1 in E, so it comes first and the rest is a top k - 1.
"""

from __future__ import annotations

import numpy as np

from .data import DataError, Dataset

# (query, pool) pairs in one block of ranked_neighbors: the screen and the
# recheck of a block hold arrays of at most max(BLOCK_PAIRS, n_pool) pairs
# (times f for the recheck's rows).
BLOCK_PAIRS = 1 << 16
_FLOAT = np.finfo(np.float64)
# Beyond this, ‖q‖² + max‖p‖² lets a screened value or a distance overflow.
_SCALE_MAX = _FLOAT.max / 4


def _matrix(name: str, values) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {matrix.shape}")
    return matrix


def ranked_neighbors(queries: np.ndarray, k: int, pool: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, min(k, n_pool)) positions of the nearest pool rows, ties by index.

    `pool=None` ranks the queries against themselves; each row then comes
    first in its own list, even among duplicate rows. Both inputs must be
    2-D with the same width; they are read as float64. NaN distances rank
    last.

    Each block of queries is screened with one matrix product (see the
    module docstring): a pool row is a candidate when its screened value
    is at most A_w + 2δ, A_w the min(k, n_pool)-th smallest. Every pool row
    is a candidate when a norm is NaN, inf or too large for the bound. Only
    candidates get their exact distance, computed as the per-row brute
    force computes it, so the indices are bitwise those of a full stable
    sort of every distance.
    """
    self_query = pool is None
    queries = _matrix("queries", queries)
    pool = queries if self_query else _matrix("pool", pool)
    if queries.shape[1] != pool.shape[1]:
        raise DataError(f"feature width {queries.shape[1]} != fitted {pool.shape[1]}")
    n_pool, f = pool.shape
    width = min(k, n_pool)
    out = np.empty((len(queries), width), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        query_sq = np.einsum("ij,ij->i", queries, queries)
        pool_sq = np.einsum("ij,ij->i", pool, pool)
        pool_sq_max = pool_sq.max(initial=0.0)
    if n_pool == 0:
        return out
    block = max(1, BLOCK_PAIRS // n_pool)
    for start in range(0, len(queries), block):
        q, q_sq = queries[start:start + block], query_sq[start:start + block]
        with np.errstate(over="ignore", invalid="ignore"):
            approx = (-2.0 * q) @ pool.T
            approx += q_sq[:, None]
            approx += pool_sq
            if self_query:
                approx[np.arange(len(q)), start + np.arange(len(q))] = -np.inf
            scale = q_sq + pool_sq_max
            delta = ((4 * f + 16) * (_FLOAT.eps / 2) * scale
                     + 4 * f * _FLOAT.smallest_subnormal)
            limit = np.partition(approx, width - 1, axis=1)[:, width - 1] + 2 * delta
        # NaN, inf or overflowing norms: the bound does not hold, keep every row
        unbounded = ~(scale <= _SCALE_MAX)
        keep = (approx <= limit[:, None]) | unbounded[:, None]
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
