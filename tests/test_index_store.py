"""Unit tests for the on-disk index store (repro.core.index_store)."""
import os
import pickle

import numpy as np
import pytest

from repro.core.index_store import IndexMetadata, IndexStore
from repro.hnsw.graph import HNSWIndex
from repro.segmenters import RandomSegmenter, learn_rh_segmenter


@pytest.fixture()
def store(tmp_path):
    return IndexStore(str(tmp_path / "idx"))


def _meta(**over):
    base = dict(
        dim=8, metric="l2", n_shards=2, n_segments=4, segmenter_kind="RS",
        spill="virtual", alpha=0.15, hnsw_m=8, hnsw_ef_construction=50, n_items=100,
    )
    base.update(over)
    return IndexMetadata(**base)


class TestMetadata:
    def test_roundtrip(self, store):
        store.save_metadata(_meta())
        assert store.load_metadata() == _meta()

    def test_json_on_disk(self, store):
        store.save_metadata(_meta())
        assert os.path.exists(os.path.join(store.root, "metadata.json"))

    def test_missing_metadata_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.load_metadata()


class TestSegmenterPersistence:
    def test_rs_roundtrip(self, store):
        store.save_segmenter(RandomSegmenter(6))
        seg = store.load_segmenter()
        assert seg.kind == "RS" and seg.n_segments == 6

    def test_rh_roundtrip(self, store):
        g = np.random.default_rng(0)
        orig = learn_rh_segmenter(g.normal(size=(300, 5)).astype(np.float32), 4, seed=1)
        store.save_segmenter(orig)
        clone = store.load_segmenter()
        pts = g.normal(size=(50, 5)).astype(np.float32)
        a = orig.assign(pts, np.arange(50))
        b = clone.assign(pts, np.arange(50))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_pickled_segmenter_is_refused_unrun(self, store, tmp_path):
        """``segmenter.bin`` is read as plain arrays: a pickle whose
        ``__reduce__`` would create a file is refused without running."""
        sentinel = tmp_path / "sentinel"

        class Payload:
            def __reduce__(self):
                return (open, (str(sentinel), "w"))

        with open(store.segmenter_path, "wb") as f:
            f.write(pickle.dumps(Payload()))
        with pytest.raises(ValueError):
            store.load_segmenter()
        assert not sentinel.exists()


class TestIndexFiles:
    def _make_index(self, seed=0):
        g = np.random.default_rng(seed)
        idx = HNSWIndex(6, M=6, ef_construction=30, seed=seed)
        idx.add_items(g.normal(size=(40, 6)).astype(np.float32), np.arange(40))
        return idx

    def test_write_read_roundtrip(self, store):
        idx = self._make_index()
        store.write_index_bytes(0, 2, idx.to_bytes())
        clone = store.read_index(0, 2)
        assert clone.n_items == 40

    def test_layout_paths(self, store):
        store.write_index_bytes(1, 3, self._make_index().to_bytes())
        assert os.path.exists(os.path.join(store.root, "shard=1", "segment=3.hnsw"))

    def test_no_tmp_leftover(self, store):
        store.write_index_bytes(0, 0, b"x" * 100)
        files = os.listdir(os.path.join(store.root, "shard=0"))
        assert all(not f.endswith(".tmp") for f in files)

    def test_overwrite_replaces(self, store):
        store.write_index_bytes(0, 0, b"aaa")
        store.write_index_bytes(0, 0, b"bb")
        with open(store.index_path(0, 0), "rb") as f:
            assert f.read() == b"bb"

    def test_list_partitions_sorted(self, store):
        for s, m in [(1, 0), (0, 2), (0, 1), (1, 1)]:
            store.write_index_bytes(s, m, b"x")
        assert store.list_partitions() == [(0, 1), (0, 2), (1, 0), (1, 1)]

    def test_list_partitions_empty(self, store):
        assert store.list_partitions() == []

    def test_read_missing_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.read_index(5, 5)
