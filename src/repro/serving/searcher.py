"""A searcher node: hosts one shard's segment indices (paper Sec 7).

Startup mirrors production: the serialized indices + persisted metadata
are deserialized into native structures "with minimal additional
configuration", so the online path cannot diverge from the offline build
(the distance function comes from the store), and it searches with the
offline pipeline's kernel, ``repro.core.search``. The broker routes each
query once and hands every searcher the same segment list.
"""
from __future__ import annotations

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.search import merge_candidates, search_probes


class Searcher:
    """Serves one shard: segment searches + segment-level merge in-node."""

    def __init__(self, store: IndexStore, shard_id: int, *, ef: int | None = None):
        self.shard_id = int(shard_id)
        self.meta = store.load_metadata()
        if not 0 <= self.shard_id < self.meta.n_shards:
            raise ValueError(f"shard {shard_id} not in 0..{self.meta.n_shards - 1}")
        self.ef = ef
        self._segments = {
            m: store.read_index(self.shard_id, m) for m in range(self.meta.n_segments)
        }

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def search(
        self, query: np.ndarray, segments: np.ndarray, per_shard_topk: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search the query's routed ``segments``, merge in-node (level-1
        merge). Returns up to ``per_shard_topk`` (ids, dists) ascending.
        """
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        n = len(segments)
        partial = search_probes(
            lambda _, m: self._segments[m], np.zeros(n, np.int64), np.repeat(query, n, axis=0),
            np.full(n, self.shard_id), segments, per_shard_topk, self.ef,
        )
        return merge_candidates(partial["neighbor_id"], partial["dist"], per_shard_topk)
