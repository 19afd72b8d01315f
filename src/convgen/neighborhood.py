"""Exact Euclidean nearest-neighbor queries for the minority class.

Rankings sort by (distance, sample index) so results are deterministic on
every platform. Sizes here are small (a few thousand rows), so plain
brute-force distances are both fast enough and exact. Each query selects
the rows within its k-th smallest distance and stable-sorts only those
candidates, which keeps the (distance, index) order of a full sort.
"""

from __future__ import annotations

import numpy as np

from .data import DataError, Dataset


def ranked_neighbors(queries: np.ndarray, k: int, pool: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, min(k, n_pool)) positions of the nearest pool rows, ties by index.

    `pool=None` ranks the queries against themselves; each row then comes
    first in its own list, even among duplicate rows.
    """
    self_query = pool is None
    if self_query:
        pool = queries
    out = np.empty((len(queries), min(k, len(pool))), dtype=np.intp)
    select = k < len(pool)
    for i, row in enumerate(queries):
        d2 = ((pool - row) ** 2).sum(axis=1)
        if self_query:
            d2[i] = -1.0
        if select:
            kth = np.partition(d2, k - 1)[k - 1]
            # candidates in index order, so the stable sort breaks ties by index;
            # NaN distances stay candidates and sort last, as in a full sort
            cand = np.flatnonzero(~(d2 > kth))
            out[i] = cand[np.argsort(d2[cand], kind="stable")[:k]]
        else:
            out[i] = np.argsort(d2, kind="stable")
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
