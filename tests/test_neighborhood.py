import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convgen.neighborhood as neighborhood_mod
from convgen.data import DataError, Dataset
from convgen.neighborhood import knn_minority, majority_neighborhoods, ranked_neighbors


def all_minority(points):
    points = np.asarray(points, dtype=float)
    # one throwaway majority point far away keeps the Dataset two-class
    far = np.full((1, points.shape[1]), 1e6)
    feats = np.vstack([points, far])
    labels = np.array([1] * len(points) + [0])
    return Dataset(feats, labels, "min-only")


def brute_force_knn(points, k):
    """Independent quadratic oracle: full sort of (distance, index) pairs."""
    out = []
    for i, p in enumerate(points):
        ranked = sorted(
            range(len(points)),
            key=lambda j: (0.0 if j == i else float(np.sum((points[j] - p) ** 2)), j),
        )
        out.append(ranked[:k])
    return np.array(out)


class TestKnnMinority:
    def test_collinear_points(self):
        ds = all_minority([[0.0], [1.0], [10.0]])
        neighbors = knn_minority(ds, 2)
        assert list(neighbors[0]) == [0, 1]

    def test_neighborhood_of_whole_minority(self):
        rng = np.random.default_rng(2)
        ds = all_minority(rng.normal(size=(8, 3)))
        neighbors = knn_minority(ds, 8)
        for row in neighbors:
            assert sorted(row) == list(range(8))

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 4))
        ds = all_minority(points)
        neighbors = knn_minority(ds, 5)
        assert np.array_equal(neighbors, brute_force_knn(points, 5))

    def test_self_is_first(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(20, 2))
        points[7] = points[3]  # duplicate row must not displace self
        ds = all_minority(points)
        neighbors = knn_minority(ds, 4)
        for i in range(20):
            assert neighbors[i][0] == i

    def test_neb_below_two_rejected(self):
        ds = all_minority([[0.0], [1.0], [2.0]])
        with pytest.raises(DataError, match="neb"):
            knn_minority(ds, 1)

    def test_neb_clamped_to_minority_size(self):
        ds = all_minority([[0.0], [1.0], [2.0]])
        assert knn_minority(ds, 10).shape == (3, 3)


class TestProximalMajority:
    def test_matches_brute_force_union(self, toy_dataset):
        ds = toy_dataset
        neb = 4
        near = majority_neighborhoods(ds, neb)
        for row, i in zip(near, ds.minority_indices):
            ranked = sorted(
                ds.majority_indices,
                key=lambda j: (float(np.sum((ds.features[j] - ds.features[i]) ** 2)), j),
            )
            assert list(row) == ranked[:neb]

    def test_majority_neighborhood_rows_are_majority(self, toy_dataset):
        near = majority_neighborhoods(toy_dataset, 5)
        assert near.shape == (toy_dataset.minority_count, 5)
        assert set(near.reshape(-1)) <= set(toy_dataset.majority_indices)


@st.composite
def ranking_case(draw):
    """Small point sets on a coarse grid (distance ties) with forced duplicates."""
    n = draw(st.integers(1, 12))
    f = draw(st.integers(1, 10))
    cell = st.one_of(st.integers(-2, 2).map(float), st.floats(-5.0, 5.0, width=32))
    points = np.array(draw(st.lists(st.lists(cell, min_size=f, max_size=f),
                                    min_size=n, max_size=n)))
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=1, max_size=3)):
        points[a] = points[b]
    return points, draw(st.integers(1, n + 2))


def oracle(queries, pool, k, self_dist=None):
    """sorted((d2, j)) per query; self_dist replaces the query's own entry."""
    out = []
    for i, q in enumerate(queries):
        keyed = []
        for j, p in enumerate(pool):
            d2 = float(((p - q) ** 2).sum())
            if self_dist is not None and j == i:
                d2 = self_dist
            keyed.append((d2, j))
        out.append([j for _, j in sorted(keyed)][:k])
    return np.array(out, dtype=int).reshape(len(queries), -1)


class TestRankedNeighbors:
    @settings(deadline=None, max_examples=150)
    @given(ranking_case())
    def test_self_query_puts_self_first(self, case):
        points, k = case
        ranked = ranked_neighbors(points, k)
        assert ranked.shape == (len(points), min(k, len(points)))
        assert np.array_equal(ranked[:, 0], np.arange(len(points)))
        assert np.array_equal(ranked, oracle(points, points, k, self_dist=-1.0))

    @settings(deadline=None, max_examples=150)
    @given(ranking_case())
    def test_self_excluded(self, case):
        points, k = case
        ranked = ranked_neighbors(points, k + 1)[:, 1:]
        # the order an inf diagonal gives, with k clamped below the row count
        expected = oracle(points, points, min(k, len(points) - 1), self_dist=np.inf)
        assert np.array_equal(ranked, expected)

    @settings(deadline=None, max_examples=150)
    @given(ranking_case(), st.data())
    def test_cross_pool(self, case, data):
        pool, k = case
        # queries reuse pool rows so exact distance ties across the pool occur
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
        queries = pool[picks] + data.draw(st.sampled_from([0.0, 0.5]))
        ranked = ranked_neighbors(queries, k, pool)
        assert np.array_equal(ranked, oracle(queries, pool, k))

    @staticmethod
    def full_sort(queries, pool, k, self_query):
        """The full stable argsort of each query's distances: the reference ranking."""
        out = []
        for i, row in enumerate(queries):
            d2 = ((pool - row) ** 2).sum(axis=1)
            if self_query:
                d2[i] = -1.0
            out.append(np.argsort(d2, kind="stable")[:k])
        return np.array(out)

    @pytest.mark.parametrize("self_query", [True, False])
    def test_many_ties_at_kth_distance_match_full_sort(self, self_query):
        rng = np.random.default_rng(41)
        # 60 grid points, each repeated 6 times and shuffled: 360 rows in which
        # every distance is shared by a block of duplicates and by other points
        pool = np.repeat(rng.integers(-2, 3, size=(60, 3)).astype(float), 6, axis=0)
        pool = pool[rng.permutation(len(pool))]
        queries = pool if self_query else np.vstack([pool[:40], pool[:40] + 0.5])
        k = 5
        ranked = ranked_neighbors(queries, k, None if self_query else pool)
        assert np.array_equal(ranked, self.full_sort(queries, pool, k, self_query))
        # the k-th distance is shared beyond position k for most queries
        d2 = ((pool[None] - queries[:, None]) ** 2).sum(axis=2)
        if self_query:
            d2[np.arange(len(pool)), np.arange(len(pool))] = -1.0
        kth = np.sort(d2, axis=1)[:, k - 1]
        assert np.mean((d2 <= kth[:, None]).sum(axis=1) > k) > 0.5

    def test_nan_distances_rank_last(self):
        pool = np.array([[np.nan], [0.0], [np.nan], [2.0], [1.0], [np.nan]])
        queries = np.array([[0.4], [np.nan]])
        for k in (2, 4, 5):
            ranked = ranked_neighbors(queries, k, pool)
            assert np.array_equal(ranked, self.full_sort(queries, pool, k, False))


def per_row_loop(queries, k, pool=None):
    """The per-query brute force that the screened ranking replaced: each
    query's distances to the whole pool, then a partition and a stable sort
    of the rows within the k-th distance. The bitwise reference."""
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
            cand = np.flatnonzero(~(d2 > kth))
            out[i] = cand[np.argsort(d2[cand], kind="stable")[:k]]
        else:
            out[i] = np.argsort(d2, kind="stable")
    return out


def assert_same_as_loop(queries, k, pool=None):
    """Bitwise equal indices, and no numpy warning the loop does not give."""
    with warnings.catch_warnings(record=True) as loop_warnings:
        warnings.simplefilter("always")
        expected = per_row_loop(queries, k, pool)
    with warnings.catch_warnings(record=True) as ranked_warnings:
        warnings.simplefilter("always")
        ranked = ranked_neighbors(queries, k, pool)
    assert ranked.dtype == expected.dtype and ranked.shape == expected.shape
    assert np.array_equal(ranked, expected)
    assert not ranked_warnings or loop_warnings


@st.composite
def screened_case(draw):
    """(queries or None, k, pool) over the shapes and scales the screen must
    survive: Gaussian rows, rows offset by 1e8 with unit spread (heavy
    cancellation in the screen), integer grids (exact ties), duplicated rows,
    scales from 1e-150 to 1e150, self-query and cross-pool."""
    n, f, k = draw(st.integers(1, 300)), draw(st.integers(1, 16)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["gauss", "offset", "grid"]))
    if layout == "grid":
        pool = rng.integers(-2, 3, size=(n, f)).astype(float)
    else:
        pool = rng.normal(size=(n, f)) + (1e8 if layout == "offset" else 0.0)
    copies = draw(st.integers(0, n // 2))
    pool[rng.integers(0, n, copies)] = pool[rng.integers(0, n, copies)]
    scale = 10.0 ** draw(st.one_of(st.sampled_from([-150, 0, 150]), st.integers(-150, 150)))
    pool *= scale
    if draw(st.booleans()):
        return None, k, pool
    n_q = draw(st.integers(1, 40))
    # pool rows, shifted by whole grid steps or not at all, keep distance ties
    shift = draw(st.sampled_from([0.0, 0.5, 1.0])) * scale
    queries = pool[rng.integers(0, n, n_q)] + shift * rng.integers(-1, 2, size=(n_q, f))
    return queries, k, pool


class TestScreenedRanking:
    @settings(deadline=None, max_examples=300)
    @given(screened_case())
    def test_bitwise_equal_to_the_per_row_loop(self, case):
        queries, k, pool = case
        if queries is None:
            assert_same_as_loop(pool, k)
        else:
            assert_same_as_loop(queries, k, pool)

    @pytest.mark.parametrize("exponent", [-160, -155, -162])
    def test_subnormal_products(self, exponent):
        # squared coordinates fall below the smallest normal float: the
        # screen's products round in absolute, not relative, terms
        rng = np.random.default_rng(-exponent)
        pool = rng.integers(-3, 4, size=(200, 6)) * 10.0 ** exponent
        pool[::7] += rng.normal(size=(29, 6)) * 10.0 ** exponent
        for k in (1, 3, 8):
            assert_same_as_loop(pool, k)
            assert_same_as_loop(pool[:40] * 0.5, k, pool)

    @pytest.mark.parametrize("poison", ["pool_nan", "query_nan", "pool_inf", "query_inf",
                                        "pool_neg_inf", "overflow_1e200", "all_1e200"])
    @pytest.mark.parametrize("self_query", [True, False])
    def test_non_finite_and_overflowing_input(self, poison, self_query):
        rng = np.random.default_rng(43)
        pool = rng.normal(size=(60, 4))
        queries = rng.normal(size=(15, 4))
        target = queries if poison.startswith("query") else pool
        if poison.endswith("nan"):
            target[[3, 11], 1] = np.nan
        elif poison == "pool_neg_inf":
            target[[3, 11], 2] = -np.inf
        elif poison.endswith("inf"):
            target[[3, 11], 2] = np.inf
        elif poison == "overflow_1e200":  # squared norms overflow to inf
            pool[[3, 11, 40]] = 1e200
            queries[[2, 5]] = -1e200
        else:
            pool *= 1e200
            queries *= 1e200
        if self_query:
            queries, pool = np.vstack([queries, pool]), None
        n_pool = len(queries if pool is None else pool)
        for k in (1, 2, 5, n_pool, n_pool + 1):
            assert_same_as_loop(queries, k, pool)

    @pytest.mark.parametrize("block_pairs", [1, 7, 120])
    def test_block_size_does_not_change_the_ranking(self, monkeypatch, block_pairs):
        monkeypatch.setattr(neighborhood_mod, "BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(44)
        pool = np.repeat(rng.integers(-2, 3, size=(25, 3)).astype(float), 2, axis=0)
        for k in (1, 4, 50):
            assert_same_as_loop(pool, k)
            assert_same_as_loop(pool[::3] + 0.5, k, pool)

    @pytest.mark.parametrize("finite", [True, False])
    def test_block_temporaries_are_bounded(self, monkeypatch, finite):
        block_pairs, f = 4096, 8
        monkeypatch.setattr(neighborhood_mod, "BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(45)
        pool = rng.normal(size=(2000, f))
        if not finite:  # a NaN row makes every pool row a candidate
            pool[17, 3] = np.nan
        queries = rng.normal(size=(300, f))
        pairs = (block_pairs // len(pool)) * len(pool)
        tracemalloc.start()
        try:
            ranked_neighbors(queries, 5, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole-matrix distances would hold 300 * 2000 * f floats (38 MB);
        # a screened block holds a few floats per pair, an all-candidate
        # block's recheck a few rows of f floats per pair
        per_pair = 64 if finite else 8 * (4 * f + 8)
        assert peak <= per_pair * pairs


class TestCentredScreen:
    """The float32 screen of centred, scaled rows and its grouped-minimum
    threshold, each case checked against the per-row loop."""

    @pytest.mark.parametrize("layout", ["gauss", "grid"])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_pools_around_the_grouped_threshold(self, layout, k, extra):
        # n_pool = GROUPS * k switches from the plain partition to group minima
        n_pool = neighborhood_mod.GROUPS * k + extra
        rng = np.random.default_rng(46 + n_pool)
        if layout == "grid":
            pool = rng.integers(-1, 2, size=(n_pool, 3)).astype(float)
        else:
            pool = rng.normal(size=(n_pool, 3))
        assert_same_as_loop(pool, k)
        assert_same_as_loop(pool[::2] + 0.5, k, pool)

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_offset_rows_with_unit_spread(self, offset):
        rng = np.random.default_rng(47)
        pool = offset + rng.normal(size=(300, 5))
        for k in (1, 5):
            assert_same_as_loop(pool, k)
            assert_same_as_loop(offset + rng.normal(size=(40, 5)), k, pool)

    @pytest.mark.parametrize("scale", [1e30, 1e-30, 1e40, 1e-40])
    def test_scales_beyond_float32_range(self, scale):
        # unscaled, the float32 rows or their products would overflow or
        # underflow
        rng = np.random.default_rng(48)
        pool = rng.normal(size=(300, 5)) * scale
        pool[::5] = np.round(pool[::5] / scale) * scale  # exact distance ties
        for k in (1, 5):
            assert_same_as_loop(pool, k)
            assert_same_as_loop(pool[:40] + 0.5 * scale, k, pool)

    @pytest.mark.parametrize("offset,scale", [(1e4, 1.0), (0.0, 1e40), (0.0, 1e-40)])
    def test_offset_and_scaled_pool_block_temporaries_are_bounded(self, monkeypatch,
                                                                  offset, scale):
        # twins of test_block_temporaries_are_bounded: every row is a candidate
        # unless the screen centres and scales the rows
        block_pairs, f = 4096, 8
        monkeypatch.setattr(neighborhood_mod, "BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(45)
        pool = offset + rng.normal(size=(2000, f)) * scale
        queries = offset + rng.normal(size=(300, f)) * scale
        pairs = (block_pairs // len(pool)) * len(pool)
        tracemalloc.start()
        try:
            ranked_neighbors(queries, 5, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * pairs


class TestShapeGate:
    def test_narrower_pool_rejected(self):
        with pytest.raises(DataError, match="feature width 3 != fitted 1"):
            ranked_neighbors(np.zeros((2, 3)), 2, np.zeros((4, 1)))

    @pytest.mark.parametrize("queries,pool", [
        (np.zeros(3), None),
        (np.zeros(3), np.zeros((4, 3))),
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((2, 3, 1)), None),
    ])
    def test_inputs_must_be_2d(self, queries, pool):
        with pytest.raises(DataError, match="must be 2-D"):
            ranked_neighbors(queries, 2, pool)

    @pytest.mark.parametrize("k", [0, -1, True, 2.0, None])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(DataError, match="k must be an integer >= 1"):
            ranked_neighbors(np.zeros((3, 2)), k)
