"""Test helpers: a driver-side reference implementation of the LANNS
build, independent of the Spark pipeline, used both to feed the serving
tests without Spark and to cross-check the Spark pipeline's partition
contents."""
from __future__ import annotations

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.indexing import build_partition, write_store_metadata
from repro.core.partitioner import shard_of
from repro.segmenters.base import Segmenter
from repro.synth_data import AnnDataset


def reference_partition_map(
    ds: AnnDataset, segmenter: Segmenter, n_shards: int, *, spill: str = "virtual"
) -> dict[tuple[int, int], np.ndarray]:
    """(shard, segment) -> sorted external ids, computed on the driver."""
    shards = shard_of(ds.ids, n_shards)
    seg_lists = segmenter.assign(ds.base, ds.ids, spill=spill)
    out: dict[tuple[int, int], list[int]] = {}
    for i in range(ds.n):
        for m in seg_lists[i]:
            out.setdefault((int(shards[i]), int(m)), []).append(int(ds.ids[i]))
    return {k: np.asarray(sorted(v), dtype=np.int64) for k, v in out.items()}


def build_local_store(
    ds: AnnDataset,
    root: str,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    hnsw_m: int = 8,
    ef_construction: int = 60,
    seed: int = 0,
) -> IndexStore:
    """Build a complete LANNS index store without Spark (for serving
    tests and as ground truth for pipeline tests)."""
    store = IndexStore(root)
    parts = reference_partition_map(ds, segmenter, n_shards, spill=spill)
    id_to_row = {int(i): r for r, i in enumerate(ds.ids)}
    hnsw = dict(metric=ds.metric, hnsw_m=hnsw_m, ef_construction=ef_construction, seed=seed)
    for s in range(n_shards):  # the full S×M grid, empty partitions included
        for m in range(segmenter.n_segments):
            ids = parts.get((s, m), np.empty(0, dtype=np.int64))
            rows = np.asarray([id_to_row[int(i)] for i in ids], dtype=np.int64)
            build_partition(store, s, m, ds.base[rows], ids, **hnsw)
    write_store_metadata(
        store, segmenter, dim=ds.dim, n_shards=n_shards, spill=spill,
        n_items=int(sum(len(v) for v in parts.values())), metric=ds.metric,
        hnsw_m=hnsw_m, ef_construction=ef_construction,
    )
    return store
