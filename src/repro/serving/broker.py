"""The broker: fan-out, perShardTopK, final merge, QPS/latency stats
(paper Sec 7, Fig 9 — and the measurement vehicle for Table 7)."""
from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.search import check_queries, merge_candidates
from repro.core.topk import per_shard_topk
from repro.serving.searcher import Searcher, SearcherProcess


@dataclass(frozen=True)
class ServingStats:
    """Throughput/latency summary over a query batch."""

    n_queries: int
    qps: float
    p50_ms: float
    p99_ms: float


def _close_all(processes: list[SearcherProcess]) -> None:
    for p in processes:
        p.close()


class Broker:
    """Client-facing node: routes each query once, computes perShardTopK,
    merges shard responses.

    Shard 0 is searched in this process; every other shard s by a searcher
    process of its own (``SearcherProcess``), so the shards of one request
    are searched at the same time. ``close()``, or leaving a ``with``
    block, ends the processes; so does dropping the Broker, or the
    interpreter's exit.
    """

    def __init__(
        self,
        store: IndexStore,
        *,
        ef: int | None = None,
        use_per_shard_topk: bool = True,
    ):
        self.meta = store.load_metadata()
        self.use_per_shard_topk = use_per_shard_topk
        self._processes: list[SearcherProcess] = []
        self._finalizer = weakref.finalize(self, _close_all, self._processes)
        try:
            # Started first, so that each process loads its shard while this
            # one loads shard 0.
            for s in range(1, self.meta.n_shards):
                self._processes.append(SearcherProcess(store.root, s, ef))
            self.segmenter = store.load_segmenter()
            self.searcher = Searcher(store, 0, ef=ef)
            for p in self._processes:
                p.wait_loaded()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """End and reap every searcher process; a second call does nothing."""
        self._finalizer()

    def __enter__(self) -> Broker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def search(self, query: np.ndarray, topk: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k over all shards; returns (ids, dists) ascending.

        Raises ``ValueError`` unless ``query`` is one finite vector of the
        store's dimension and ``topk >= 1``, and ``RuntimeError`` if the
        Broker is closed or a searcher process has died; a failed request
        closes the Broker.
        """
        if np.ndim(query) != 1:
            raise ValueError(f"expected one query vector, got shape {np.shape(query)}")
        query = check_queries(np.reshape(query, (1, -1)), self.meta.dim, topk)[0]
        if not self._finalizer.alive:
            raise RuntimeError("the Broker is closed")
        pstk = per_shard_topk(topk, self.meta.n_shards) if self.use_per_shard_topk else topk
        # Broker-side routing, fan-out, shard 0 here while the others search
        # theirs, then the final merge in shard order.
        segs = self.segmenter.route(query[None], spill=self.meta.spill)[0]
        try:
            for p in self._processes:
                p.send(query, segs, pstk)
            parts = [self.searcher.search(query, segs, pstk)]
            parts += [p.receive() for p in self._processes]
        except BaseException:
            self.close()  # a reply may be left unread in a pipe
            raise
        ids, dists = zip(*parts)
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
