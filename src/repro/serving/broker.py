"""The broker: fan-out, perShardTopK, final merge, QPS/latency stats
(paper Sec 7, Fig 9 — and the measurement vehicle for Table 7)."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.search import check_queries, merge_candidates
from repro.core.topk import per_shard_topk
from repro.serving.searcher import Searcher


@dataclass(frozen=True)
class ServingStats:
    """Throughput/latency summary over a query batch."""

    n_queries: int
    qps: float
    p50_ms: float
    p99_ms: float


class Broker:
    """Client-facing node: routes each query once, computes perShardTopK,
    merges shard responses."""

    def __init__(
        self,
        store: IndexStore,
        *,
        ef: int | None = None,
        use_per_shard_topk: bool = True,
    ):
        self.meta = store.load_metadata()
        self.segmenter = store.load_segmenter()
        self.use_per_shard_topk = use_per_shard_topk
        self.searchers = [
            Searcher(store, s, ef=ef) for s in range(self.meta.n_shards)
        ]

    def search(self, query: np.ndarray, topk: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k over all shards; returns (ids, dists) ascending.

        Raises ``ValueError`` unless ``query`` is one finite vector of the
        store's dimension and ``topk >= 1``.
        """
        if np.ndim(query) != 1:
            raise ValueError(f"expected one query vector, got shape {np.shape(query)}")
        query = check_queries(np.reshape(query, (1, -1)), self.meta.dim, topk)[0]
        pstk = per_shard_topk(topk, self.meta.n_shards) if self.use_per_shard_topk else topk
        # Broker-side routing, fan-out + final merge.
        segs = self.segmenter.route(query[None], spill=self.meta.spill)[0]
        ids, dists = zip(*(s.search(query, segs, pstk) for s in self.searchers))
        ids, dists = merge_candidates(np.concatenate(ids), np.concatenate(dists), topk)
        return ids, dists.astype(np.float32)

    def benchmark(
        self, queries: np.ndarray, topk: int
    ) -> tuple[list[np.ndarray], ServingStats]:
        """Run every query sequentially, recording per-query latency.

        Returns the per-query result id arrays and a ServingStats with
        QPS (queries / total wall time) and latency percentiles — the
        quantities Table 7 reports per spill configuration.
        """
        queries = np.asarray(queries, dtype=np.float32)
        lat = np.empty(queries.shape[0])
        out: list[np.ndarray] = []
        t_all = time.perf_counter()
        for i in range(queries.shape[0]):
            t0 = time.perf_counter()
            ids, _ = self.search(queries[i], topk)
            lat[i] = time.perf_counter() - t0
            out.append(ids)
        total = time.perf_counter() - t_all
        stats = ServingStats(
            n_queries=queries.shape[0],
            qps=queries.shape[0] / total if total > 0 else float("inf"),
            p50_ms=float(np.percentile(lat, 50) * 1000),
            p99_ms=float(np.percentile(lat, 99) * 1000),
        )
        return out, stats
