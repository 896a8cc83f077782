"""Unit tests for the HNSW index (repro.hnsw.graph)."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro import npz
from repro.bruteforce.local import exact_topk
from repro.hnsw import graph
from repro.hnsw.graph import HNSWIndex
from repro.synth_data import gaussian_mixture, neardupe_like


def _recall(res_ids: np.ndarray, gt_ids: np.ndarray) -> float:
    k = gt_ids.shape[1]
    return np.mean(
        [len(set(res_ids[i].tolist()) & set(gt_ids[i].tolist())) / k for i in range(len(gt_ids))]
    )


def _both_paths(idx: HNSWIndex, queries, k: int, **kw):
    """``idx.search`` on the serial and on the lockstep path; asserts that
    both return bitwise the same (ids, dists) and returns them."""
    with mock.patch.object(graph, "_BATCH_MIN", 10**9):
        serial = idx.search(queries, k, **kw)
    with mock.patch.object(graph, "_BATCH_MIN", 1):
        lockstep = idx.search(queries, k, **kw)
    for a, b in zip(serial, lockstep):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    return serial


@pytest.fixture(scope="module")
def small_ds():
    return gaussian_mixture(n=1500, dim=16, n_clusters=12, n_queries=50, seed=42)


@pytest.fixture(scope="module")
def small_index(small_ds):
    idx = HNSWIndex(small_ds.dim, M=12, ef_construction=80, seed=1)
    idx.add_items(small_ds.base, small_ds.ids)
    return idx


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HNSWIndex(0)
        with pytest.raises(ValueError):
            HNSWIndex(4, M=1)
        with pytest.raises(ValueError):
            HNSWIndex(4, ef_construction=0)
        with pytest.raises(ValueError):
            HNSWIndex(4, metric="hamming")

    def test_empty_index(self):
        idx = HNSWIndex(4)
        assert idx.n_items == 0 and idx.max_level == -1
        ids, dists = _both_paths(idx, np.zeros((2, 4), np.float32), 3)
        assert ids.shape == (2, 0) and dists.shape == (2, 0)

    def test_single_point(self):
        idx = HNSWIndex(3)
        idx.add_items(np.ones((1, 3), np.float32), np.array([7]))
        ids, dists = _both_paths(idx, np.ones((1, 3), np.float32), 5)
        assert ids.tolist() == [[7]]
        assert dists[0, 0] == pytest.approx(0, abs=1e-4)

    def test_shape_mismatch_raises(self):
        idx = HNSWIndex(4)
        with pytest.raises(ValueError):
            idx.add_items(np.zeros((2, 3), np.float32), np.array([0, 1]))
        with pytest.raises(ValueError):
            idx.add_items(np.zeros((2, 4), np.float32), np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_refused(self, bad):
        idx = HNSWIndex(4)
        base = np.ones((3, 4), np.float32)
        base[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            idx.add_items(base, np.arange(3))
        assert idx.n_items == 0 and idx.ids.shape == (0,)

    def test_repeated_id_refused(self):
        """An id given twice used to be stored twice: with id 3 on two copies
        of v[3], ``search(v[3], 3)`` returned id 3 twice."""
        v = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
        v[7] = v[3]
        idx = HNSWIndex(4)
        with pytest.raises(ValueError, match="id 3 is given twice"):
            idx.add_items(v, np.array([0, 1, 2, 3, 4, 5, 6, 3]))
        assert idx.n_items == 0 and idx.ids.shape == (0,)
        idx.add_items(v[:4], np.arange(4))
        with pytest.raises(ValueError, match="id 3 is given twice"):
            idx.add_items(v[4:], np.array([4, 5, 6, 3]))
        assert idx.n_items == 4 and idx.ids.tolist() == [0, 1, 2, 3]

    def test_incremental_adds(self):
        g = np.random.default_rng(0)
        a, b = g.normal(size=(60, 5)).astype(np.float32), g.normal(size=(40, 5)).astype(np.float32)
        idx = HNSWIndex(5, M=8, ef_construction=40, seed=2)
        idx.add_items(a, np.arange(60))
        idx.add_items(b, np.arange(60, 100))
        assert idx.n_items == 100
        ids, _ = idx.search(b[:5], 1, ef=100)
        np.testing.assert_array_equal(ids[:, 0], np.arange(60, 65))

    def test_level_distribution_geometric(self):
        g = np.random.default_rng(1)
        idx = HNSWIndex(4, M=8, ef_construction=20, seed=3)
        idx.add_items(g.normal(size=(2000, 4)).astype(np.float32), np.arange(2000))
        levels = np.asarray(idx._levels)
        frac0 = np.mean(levels == 0)
        # P(level 0) = 1 - 1/M = 0.875 for M=8 (power-law of Sec 3)
        assert 0.8 < frac0 < 0.95
        assert idx.max_level >= 1


class TestSearch:
    def test_k_nonpositive_raises(self, small_index):
        with pytest.raises(ValueError):
            small_index.search(np.zeros((1, 16), np.float32), 0)

    def test_wrong_dim_raises(self, small_index):
        with pytest.raises(ValueError):
            small_index.search(np.zeros((1, 4), np.float32), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_queries", [1, 64])
    def test_non_finite_queries_refused(self, small_index, bad, n_queries):
        """Refused on both paths: a NaN query used to get NaN distances and
        arbitrary ids."""
        assert 1 < graph._BATCH_MIN <= 64  # one call per path
        q = np.zeros((n_queries, 16), np.float32)
        q[-1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            small_index.search(q, 5)

    def test_k_greater_than_n_returns_all(self):
        g = np.random.default_rng(2)
        idx = HNSWIndex(4, M=8, ef_construction=20, seed=0)
        idx.add_items(g.normal(size=(10, 4)).astype(np.float32), np.arange(10))
        ids, dists = _both_paths(idx, g.normal(size=(3, 4)).astype(np.float32), 25)
        assert ids.shape == (3, 10)
        for row in ids:
            assert sorted(row.tolist()) == list(range(10))

    def test_distances_sorted_and_unique_ids(self, small_index, small_ds):
        ids, dists = small_index.search(small_ds.queries, 20, ef=100)
        assert np.all(np.diff(dists, axis=1) >= -1e-6)
        for row in ids:
            assert len(set(row.tolist())) == len(row)

    def test_exhaustive_ef_is_exact(self, small_ds):
        """ef >= n makes base-layer search exhaustive ⇒ recall 1.0."""
        idx = HNSWIndex(small_ds.dim, M=12, ef_construction=80, seed=5)
        idx.add_items(small_ds.base[:400], small_ds.ids[:400])
        gt, _ = exact_topk(small_ds.queries, small_ds.base[:400], 10, ids=small_ds.ids[:400])
        ids, _ = idx.search(small_ds.queries, 10, ef=400)
        assert _recall(ids, gt) == 1.0

    def test_high_recall_on_clustered_data(self, small_index, small_ds):
        gt, _ = exact_topk(small_ds.queries, small_ds.base, 10, ids=small_ds.ids)
        ids, _ = small_index.search(small_ds.queries, 10, ef=120)
        assert _recall(ids, gt) >= 0.97

    def test_true_l2_distances_returned(self, small_index, small_ds):
        ids, dists = small_index.search(small_ds.queries[:5], 3, ef=60)
        id_to_row = {int(i): r for r, i in enumerate(small_ds.ids)}
        for qi in range(5):
            for j in range(3):
                v = small_ds.base[id_to_row[int(ids[qi, j])]]
                expect = np.linalg.norm(small_ds.queries[qi] - v)
                assert dists[qi, j] == pytest.approx(expect, rel=1e-3)

    def test_single_query_vector_1d(self, small_index, small_ds):
        ids, dists = small_index.search(small_ds.queries[0], 5, ef=50)
        assert ids.shape == (1, 5)

    def test_deterministic_given_seed(self, small_ds):
        def build():
            idx = HNSWIndex(small_ds.dim, M=8, ef_construction=40, seed=9)
            idx.add_items(small_ds.base[:300], small_ds.ids[:300])
            return _both_paths(idx, small_ds.queries[:10], 5, ef=50)

        a, b = build(), build()
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_duplicate_vectors_handled(self):
        base = np.tile(np.arange(8, dtype=np.float32), (30, 1))
        idx = HNSWIndex(8, M=6, ef_construction=20, seed=0)
        idx.add_items(base, np.arange(30))
        ids, dists = _both_paths(idx, base[:1], 5, ef=40)
        assert np.all(dists == 0)
        assert len(set(ids[0].tolist())) == 5

    def test_upper_layer_tie_breaks_by_node(self):
        """Upper layers break an exact tie by (distance, node), as layer 0
        does. Nodes a=0 and b=1 lie at distance 1 from q, and the entry e=2
        at distance 3 lists them as [b, a] at layer 1. Each is the other's
        only rival and a local minimum at layer 0, so the layer-1 choice is
        the answer; a walk that kept list order would return b. Node 3, at
        distance 5 on layer 0 only, puts the graph outside the scan rule."""
        blob = npz.pack({
            "scalars": np.array([2, 2, 10, 0, 2]),  # dim, M, ef_construction, seed, entry
            "metric": np.array("l2"),
            "data": np.array([[1, 0], [-1, 0], [0, 3], [0, -5]], np.float32),
            "ids": np.arange(4),
            "levels": np.array([1, 1, 1, 0], np.uint8),
            "degree": np.array([1, 1, 2, 1, 1, 1, 2], np.uint8),  # layer 0, then layer 1
            "neighbors": np.array([2, 2, 0, 1, 2, 2, 2, 1, 0], np.uint8),
        })
        idx = HNSWIndex.from_bytes(blob)
        assert not graph._use_scan(idx.n_items, 1, idx.M0)
        ids, dists = _both_paths(idx, np.zeros(2, np.float32), 1, ef=1)
        assert ids.tolist() == [[0]] and dists.tolist() == [[1.0]]

    def test_external_ids_not_row_indices(self):
        g = np.random.default_rng(4)
        base = g.normal(size=(50, 6)).astype(np.float32)
        ext = np.arange(50) * 1000 + 17
        idx = HNSWIndex(6, M=8, ef_construction=30, seed=0)
        idx.add_items(base, ext)
        ids, _ = idx.search(base[:10], 1, ef=60)
        np.testing.assert_array_equal(ids[:, 0], ext[:10])


class TestLockstep:
    """A call with at least ``_BATCH_MIN`` queries searches them in lockstep."""

    def test_visited_budget_splits_batch(self, small_index, small_ds, monkeypatch):
        """A visited budget of three queries splits 100 queries into 34
        chunks; the results do not change."""
        queries = np.random.default_rng(0).normal(small_ds.base[:100], 0.1).astype(np.float32)
        assert queries.shape[0] >= graph._BATCH_MIN
        whole = small_index.search(queries, 10, ef=60)
        calls = []
        layer_batch = HNSWIndex._layer_batch

        def counted(self, *args):
            if args[-1] == 60:  # the layer-0 search; upper layers run at ef=1
                calls.append(args[2].shape[0])  # rows of Q in this chunk
            return layer_batch(self, *args)

        monkeypatch.setattr(HNSWIndex, "_layer_batch", counted)
        monkeypatch.setattr(graph, "_VISITED_BYTES", 3 * (small_index.n_items + 1))
        chunked = small_index.search(queries, 10, ef=60)
        assert calls == [3] * 33 + [1]
        np.testing.assert_array_equal(chunked[0], whole[0])
        np.testing.assert_array_equal(chunked[1], whole[1])


def _tied(g, n: int, repeat: int, dim: int = 8) -> np.ndarray:
    """``n`` random rows of which each distinct one is stored ``repeat``
    times, so exact distance ties are common."""
    rows = g.normal(size=(-(-n // repeat), dim)).astype(np.float32)
    return np.repeat(rows, repeat, axis=0)[:n]


class TestScan:
    """Inside ``_use_scan``'s rule (n + 1 <= ef * 2M) a search scans every
    node and insertion takes its candidates from one product; outside it
    both walk the graph."""

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    @pytest.mark.parametrize("repeat", [1, 5, 20])
    def test_scan_returns_the_exact_topk(self, metric, repeat):
        """M=6 and ef=10 put the rule at 119 nodes, so the graph of 100 is
        scanned. Half the queries are stored rows. Both paths return the
        float64 top-k, ordered by (distance, node)."""
        g = np.random.default_rng(repeat)
        n, k = 100, 10
        base = _tied(g, n, repeat)
        ids = g.permutation(10 * n)[:n]
        queries = np.vstack([base[:40], g.normal(size=(40, 8)).astype(np.float32)])
        idx = HNSWIndex(8, M=6, ef_construction=30, metric=metric, seed=3)
        idx.add_items(base, ids)
        assert graph._use_scan(n, 10, idx.M0)
        got_ids, got_d = _both_paths(idx, queries, k, ef=10)
        b, q = base.astype(np.float64), queries.astype(np.float64)
        if metric == "l2":
            d = np.sqrt(((q[:, None] - b[None]) ** 2).sum(axis=2))
        else:
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            d = 1.0 - (q / np.linalg.norm(q, axis=1, keepdims=True)) @ b.T
        node_of = {int(i): r for r, i in enumerate(ids)}
        for qi in range(len(queries)):
            exact = np.lexsort((np.arange(n), d[qi]))[:k]
            np.testing.assert_array_equal(got_ids[qi], ids[exact])
            np.testing.assert_allclose(got_d[qi], d[qi, exact], rtol=1e-6, atol=1e-6)
            keys = [(dist, node_of[i]) for dist, i in zip(got_d[qi].tolist(), got_ids[qi].tolist())]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n, scans", [(119, True), (120, False)])
    def test_rule_boundary(self, n, scans):
        """At n + 1 == ef * 2M the scan runs, one node more and the walks
        run, on both paths."""
        g = np.random.default_rng(n)
        idx = HNSWIndex(8, M=6, ef_construction=30, seed=0)
        idx.add_items(g.normal(size=(n, 8)).astype(np.float32), np.arange(n))
        assert (n + 1 == 10 * idx.M0) is scans and idx.M0 == 12
        ran = {}
        with mock.patch.object(HNSWIndex, "_scan", autospec=True, side_effect=HNSWIndex._scan) as scan, \
                mock.patch.object(HNSWIndex, "_search_one", autospec=True,
                                  side_effect=HNSWIndex._search_one) as one, \
                mock.patch.object(HNSWIndex, "_search_batch", autospec=True,
                                  side_effect=HNSWIndex._search_batch) as batch:
            _both_paths(idx, g.normal(size=(3, 8)).astype(np.float32), 5, ef=10)
            ran = {"scan": scan.call_count, "one": one.call_count, "batch": batch.call_count}
        assert ran == ({"scan": 6, "one": 0, "batch": 0} if scans else {"scan": 0, "one": 3, "batch": 1})

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    @pytest.mark.parametrize("repeat", [1, 5, 20])
    def test_rebuild_across_the_rule_is_byte_identical(self, metric, repeat):
        """At M=6 and ef_construction=30 insertion scans up to node 359 and
        walks from node 360 on. The graph of 500 is searched at ef=10, where
        both paths walk it (501 > 120) and agree bitwise."""
        assert graph._use_scan(359, 30, 12) and not graph._use_scan(360, 30, 12)
        g = np.random.default_rng(500 + repeat)
        base = _tied(g, 500, repeat)
        queries = np.vstack([base[:40], g.normal(size=(40, 8)).astype(np.float32)])

        def build():
            idx = HNSWIndex(8, M=6, ef_construction=30, metric=metric, seed=3)
            idx.add_items(base, np.arange(500))
            return idx

        idx = build()
        assert idx.to_bytes() == build().to_bytes()
        assert not graph._use_scan(idx.n_items, 10, idx.M0)
        _both_paths(idx, queries, 10, ef=10)

    @pytest.mark.parametrize("ef", [40, 100])
    def test_l2_distances_near_float64_on_neardupe(self, ef):
        """neardupe_like's norms are large next to its distances, where the
        surrogate |v|^2 - 2 v.q loses float32 precision; the returned
        distances are recomputed from the vectors. ef=40 walks (1501 > 960),
        ef=100 scans."""
        ds = neardupe_like(n=1500, n_queries=100, seed=3)
        idx = HNSWIndex(ds.dim, M=12, ef_construction=100, seed=0)
        idx.add_items(ds.base, ds.ids)
        assert graph._use_scan(ds.n, ef, idx.M0) is (ef == 100)
        ids, dists = _both_paths(idx, ds.queries, 30, ef=ef)
        diff = ds.base[ids].astype(np.float64) - ds.queries[:, None].astype(np.float64)
        np.testing.assert_allclose(dists, np.sqrt((diff**2).sum(axis=2)), rtol=1e-5)
        assert (np.diff(dists, axis=1) >= 0).all()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(24, 300),
    dim=st.integers(2, 12),
    metric=st.sampled_from(["l2", "cosine"]),
    k=st.integers(1, 25),
    ef=st.integers(1, 25),
    seed=st.integers(0, 2**16),
    repeat=st.integers(1, 20),
)
# 60 distinct rows x 20 and 30 distinct rows x 5: the two paths used to
# break these exact ties differently.
@example(n=1200, dim=8, metric="l2", k=10, ef=10, seed=0, repeat=20)
@example(n=150, dim=4, metric="cosine", k=7, ef=7, seed=0, repeat=5)
def test_property_lockstep_equals_one_at_a_time(n, dim, metric, k, ef, seed, repeat):
    """A lockstep call returns bitwise the (ids, dists) of the same rows
    searched one at a time. Each random row is stored ``repeat`` times under
    its own ids, so exact distance ties are common; ef may be below k. The
    graph is outside the scan rule, so both walks run."""
    assume(not graph._use_scan(n, max(ef, min(k, n)), 12))
    g = np.random.default_rng(seed)
    idx = HNSWIndex(dim, M=6, ef_construction=30, metric=metric, seed=seed)
    idx.add_items(_tied(g, n, repeat, dim), g.permutation(10 * n + 1)[:n])
    queries = g.normal(size=(graph._BATCH_MIN + 4, dim)).astype(np.float32)
    with mock.patch.object(HNSWIndex, "_scan", side_effect=AssertionError("scanned")):
        ids, dists = idx.search(queries, k, ef=ef)
        for i, q in enumerate(queries):
            one_ids, one_dists = idx.search(q, k, ef=ef)
            np.testing.assert_array_equal(ids[i], one_ids[0])
            np.testing.assert_array_equal(dists[i], one_dists[0])


class TestCosine:
    def test_scale_invariance(self):
        g = np.random.default_rng(5)
        base = g.normal(size=(200, 8)).astype(np.float32)
        idx = HNSWIndex(8, M=8, ef_construction=50, metric="cosine", seed=0)
        idx.add_items(base, np.arange(200))
        q = base[3]
        ids1, _ = idx.search(q, 5, ef=200)
        ids2, _ = idx.search(q * 100.0, 5, ef=200)
        np.testing.assert_array_equal(ids1, ids2)
        assert ids1[0, 0] == 3

    def test_cosine_recall_vs_exact(self):
        ds = gaussian_mixture(n=600, dim=12, n_clusters=8, n_queries=30, seed=7)
        idx = HNSWIndex(12, M=10, ef_construction=60, metric="cosine", seed=0)
        idx.add_items(ds.base, ds.ids)
        gt, _ = exact_topk(ds.queries, ds.base, 5, ids=ds.ids, metric="cosine")
        ids, _ = idx.search(ds.queries, 5, ef=120)
        assert _recall(ids, gt) >= 0.95

    def test_cosine_distance_value(self):
        base = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        idx = HNSWIndex(2, metric="cosine")
        idx.add_items(base, np.arange(3))
        ids, dists = _both_paths(idx, np.array([1.0, 0.0], np.float32), 3, ef=10)
        assert ids[0].tolist() == [0, 1, 2]
        np.testing.assert_allclose(dists[0], [0.0, 1.0, 2.0], atol=1e-5)


class TestSerialization:
    def test_roundtrip_identical_results(self, small_index, small_ds):
        clone = HNSWIndex.from_bytes(small_index.to_bytes())
        a = _both_paths(small_index, small_ds.queries[:20], 10, ef=80)
        b = _both_paths(clone, small_ds.queries[:20], 10, ef=80)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_roundtrip_preserves_params(self, small_index):
        clone = HNSWIndex.from_bytes(small_index.to_bytes())
        assert clone.M == small_index.M
        assert clone.metric == small_index.metric
        assert clone.ef_construction == small_index.ef_construction
        assert clone.n_items == small_index.n_items
        assert clone.max_level == small_index.max_level

    def test_roundtrip_can_continue_adding(self, small_ds):
        idx = HNSWIndex(small_ds.dim, M=8, ef_construction=40, seed=0)
        idx.add_items(small_ds.base[:100], small_ds.ids[:100])
        clone = HNSWIndex.from_bytes(idx.to_bytes())
        clone.add_items(small_ds.base[100:200], small_ds.ids[100:200])
        assert clone.n_items == 200


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 300),
    M=st.integers(2, 16),
    metric=st.sampled_from(["l2", "cosine"]),
    seed=st.integers(0, 100),
)
@example(n=0, M=2, metric="l2", seed=0)  # build_index writes empty partitions
@example(n=1, M=16, metric="cosine", seed=0)
def test_property_serialization_roundtrip_is_exact(n, M, metric, seed):
    """The stored graph, vectors and ids load back exactly, and a loaded
    index serializes to the same bytes."""
    g = np.random.default_rng(seed)
    idx = HNSWIndex(5, M=M, ef_construction=20, metric=metric, seed=seed)
    idx.add_items(g.normal(size=(n, 5)).astype(np.float32), g.integers(-(2**40), 2**40, n))
    blob = idx.to_bytes()
    clone = HNSWIndex.from_bytes(blob)
    assert clone._links == idx._links
    assert clone._levels == idx._levels
    assert clone._entry == idx._entry
    for a, b in [(clone._data, idx._data), (clone._ids, idx._ids)]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert clone.to_bytes() == blob


class TestGraphInvariants:
    def test_degree_caps(self, small_index):
        for level, layer in enumerate(small_index._links):
            cap = small_index.M0 if level == 0 else small_index.M
            # insertion prunes a list as soon as it outgrows the cap
            for node, nbrs in layer.items():
                assert len(nbrs) <= cap, (level, node, len(nbrs))

    def test_links_are_symmetric_enough(self, small_index):
        """HNSW prunes, so not fully symmetric — but the base layer must
        be strongly connected enough that every node has a neighbor."""
        layer0 = small_index._links[0]
        assert len(layer0) == small_index.n_items
        n_isolated = sum(1 for v in layer0.values() if not v)
        assert n_isolated == 0

    def test_entry_point_at_max_level(self, small_index):
        assert small_index._levels[small_index._entry] == small_index.max_level


@settings(max_examples=10, deadline=None)
@given(n=st.integers(5, 80), dim=st.integers(2, 10), seed=st.integers(0, 100))
def test_property_exhaustive_search_matches_bruteforce(n, dim, seed):
    g = np.random.default_rng(seed)
    base = g.normal(size=(n, dim)).astype(np.float32)
    idx = HNSWIndex(dim, M=6, ef_construction=30, seed=seed)
    idx.add_items(base, np.arange(n))
    q = g.normal(size=(1, dim)).astype(np.float32)
    k = min(5, n)
    ids, dists = idx.search(q, k, ef=n)
    gt, gtd = exact_topk(q, base, k)
    assert set(ids[0].tolist()) == set(gt[0].tolist())
    np.testing.assert_allclose(np.sort(dists[0]), np.sort(gtd[0]), rtol=1e-4, atol=1e-5)
