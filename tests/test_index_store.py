"""Unit tests for the on-disk index store (repro.core.index_store)."""
import ast
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import npz
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
        """Reading a store that is not there does not create it."""
        for read in (store.load_metadata, store.load_segmenter):
            with pytest.raises(FileNotFoundError):
                read()
        assert not os.path.exists(store.root)


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

    def test_overlapping_attempts_both_complete(self, store, monkeypatch):
        """A second attempt at the same partition that writes and renames
        while the first is about to rename: both complete, and the file holds
        the blob whole (a retried or speculative task)."""
        blob = self._make_index().to_bytes()
        replace = os.replace
        pending = [lambda: store.write_index_bytes(0, 0, blob)]

        def racing_replace(src, dst):
            if pending:
                pending.pop()()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        assert store.write_index_bytes(0, 0, blob) == store.index_path(0, 0)
        assert not pending
        with open(store.index_path(0, 0), "rb") as f:
            assert f.read() == blob
        assert os.listdir(os.path.join(store.root, "shard=0")) == ["segment=0.hnsw"]

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
        assert not os.path.exists(store.root)

    def test_read_missing_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.read_index(5, 5)
        assert not os.path.exists(store.root)

    def test_truncated_partition_is_refused(self, store):
        blob = self._make_index().to_bytes()
        for size in range(0, len(blob), 97):
            store.write_index_bytes(0, 0, blob[:size])
            with pytest.raises(ValueError):
                store.read_index(0, 0)

    def test_foreign_file_is_refused(self, store):
        store.write_index_bytes(0, 0, RandomSegmenter(3).to_bytes())
        with pytest.raises(ValueError, match="missing"):
            store.read_index(0, 0)


def _over_cap(a):
    """Node 0's layer-0 row grows to 9 > M0 = 8, keeping the CSR consistent."""
    extra = 9 - int(a["degree"][0])
    a["degree"][0] = 9
    a["neighbors"] = np.concatenate([np.zeros(extra, a["neighbors"].dtype), a["neighbors"]])


def _emptied(a):
    """n = 0 with the entry point of the full index left in place."""
    for name in ("data", "ids", "levels", "degree", "neighbors"):
        a[name] = a[name][:0]


# name -> (damage done to the arrays of a stored index, the refusal it gets)
TAMPERS = {
    "missing-member": (lambda a: a.pop("degree"), "'degree' is missing"),
    "float-levels": (lambda a: a.update(levels=a["levels"].astype(np.float32)), "'levels'"),
    "string-data": (lambda a: a.update(data=a["data"].astype(str)), "'data'"),
    "data-not-n-by-dim": (lambda a: a.update(data=a["data"][:, :5]), "index data"),
    "data-nan": (lambda a: a["data"].__setitem__((3, 2), np.nan), "finite"),
    "ids-short": (lambda a: a.update(ids=a["ids"][:-1]), "index data"),
    "levels-long": (lambda a: a.update(levels=np.append(a["levels"], a["levels"][:1])),
                    "index data"),
    "degree-short": (lambda a: a.update(degree=a["degree"][:-1]), "one per node and layer"),
    "neighbors-short": (lambda a: a.update(neighbors=a["neighbors"][:-1]), "neighbors"),
    "neighbor-out-of-range": (lambda a: a["neighbors"].__setitem__(0, 60), "neighbors"),
    "degree-over-cap": (_over_cap, "over its cap"),
    "entry-not-top": (lambda a: a["scalars"].__setitem__(4, int(np.argmin(a["levels"]))),
                      "not a top-level node"),
    "entry-in-empty": (_emptied, "not a top-level node"),
}


class TestCorruptIndex:
    """``from_bytes`` checks the arrays it reads, so a damaged index is
    refused rather than searched."""

    @pytest.fixture(scope="class")
    def arrays(self):
        g = np.random.default_rng(0)
        idx = HNSWIndex(6, M=4, ef_construction=30, seed=3)
        idx.add_items(g.normal(size=(60, 6)).astype(np.float32), np.arange(60))
        assert idx.max_level >= 1
        return npz.unpack(idx.to_bytes())

    def test_untouched_loads(self, arrays):
        assert HNSWIndex.from_bytes(npz.pack(arrays)).n_items == 60

    @pytest.mark.parametrize("name", list(TAMPERS))
    def test_tampered_is_refused(self, arrays, name):
        tamper, refusal = TAMPERS[name]
        arrays = {k: v.copy() for k, v in arrays.items()}
        tamper(arrays)
        with pytest.raises(ValueError, match=refusal):
            HNSWIndex.from_bytes(npz.pack(arrays))


class TestNoPickle:
    """Loading a store runs no code."""

    @pytest.mark.parametrize("target", ["segmenter.bin", "partition"])
    def test_pickled_file_is_refused_unrun(self, store, tmp_path, target):
        """A pickle whose ``__reduce__`` would create a file is refused
        without running, in place of the segmenter or of a partition."""
        sentinel = tmp_path / "sentinel"

        class Payload:
            def __reduce__(self):
                return (open, (str(sentinel), "w"))

        blob = pickle.dumps(Payload())
        if target == "segmenter.bin":
            os.makedirs(store.root, exist_ok=True)  # only the store's own writes create it
            with open(store.segmenter_path, "wb") as f:
                f.write(blob)
            with pytest.raises(ValueError):
                store.load_segmenter()
        else:
            store.write_index_bytes(0, 1, blob)
            with pytest.raises(ValueError):
                store.read_index(0, 1)
        assert not sentinel.exists()

    def test_src_has_no_pickle(self):
        """No module of the package imports pickle or calls ``np.load``
        without ``allow_pickle=False``."""
        bad = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    names = []
                if any(n.split(".")[0] in ("pickle", "cPickle", "cloudpickle") for n in names):
                    bad.append(f"{path.name}:{node.lineno} imports {names}")
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "load"
                        and ast.unparse(node.func.value) in ("np", "numpy")
                        and not any(kw.arg == "allow_pickle" and isinstance(kw.value, ast.Constant)
                                    and kw.value.value is False for kw in node.keywords)):
                    bad.append(f"{path.name}:{node.lineno} np.load without allow_pickle=False")
        assert not bad, bad
