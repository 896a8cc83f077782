"""The one search kernel and the one numpy top-k merge (paper Sec 7).

The offline pipeline (``repro.core.querying``) and every online
``Searcher`` search with ``search_probes``; the searchers and the broker
merge with ``merge_candidates``, the numpy twin of the Spark
``repro.bruteforce.spark_bf.merge_topk``. So offline and online results
agree by construction.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hnsw.graph import HNSWIndex


def check_queries(queries: np.ndarray, dim: int, topk: int) -> np.ndarray:
    """Refuse a query batch that no index of dimension ``dim`` can answer:
    not 2-D, another dimension, NaN or inf, or ``topk < 1``. Returns the
    queries as float32."""
    if topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim != 2 or queries.shape[1] != dim:
        raise ValueError(f"expected queries of shape (n, {dim}), got {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite; found NaN or inf")
    return queries


def search_probes(
    index_of: Callable[[int, int], HNSWIndex],
    query_ids: np.ndarray,
    query_vecs: np.ndarray,
    shard_ids: np.ndarray,
    segment_ids: np.ndarray,
    k: int,
    ef: int | None,
) -> dict[str, np.ndarray]:
    """Search probe i — query ``query_ids[i]``, vector ``query_vecs[i]`` — in
    partition (``shard_ids[i]``, ``segment_ids[i]``), one batched
    ``index_of(shard, segment).search`` per partition.

    Returns the long-format partial columns (query_id, shard_id, segment_id,
    neighbor_id, dist as float64), ``min(k, n_items)`` rows per probe: an
    empty partition yields none, one ``index_of`` cannot load raises.
    """
    order = np.lexsort((segment_ids, shard_ids))
    s, m = shard_ids[order], segment_ids[order]
    first = np.ones(len(order), dtype=bool)  # first probe of each partition
    first[1:] = (s[1:] != s[:-1]) | (m[1:] != m[:-1])
    starts = first.nonzero()[0].tolist()
    rows, nbrs, dists = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.float32)]
    for lo, hi in zip(starts, starts[1:] + [len(order)]):
        grp = order[lo:hi]
        nn_ids, nn_d = index_of(int(s[lo]), int(m[lo])).search(query_vecs[grp], k, ef=ef)
        rows.append(grp.repeat(nn_ids.shape[1]))
        nbrs.append(nn_ids.ravel())
        dists.append(nn_d.ravel())
    rows = np.concatenate(rows)
    return {
        "query_id": query_ids[rows],
        "shard_id": shard_ids[rows],
        "segment_id": segment_ids[rows],
        "neighbor_id": np.concatenate(nbrs),
        "dist": np.concatenate(dists).astype(np.float64),
    }


def merge_candidates(
    ids: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` of one candidate list: each id kept once at its smallest
    distance, ordered by (dist, id). Returns ``(ids, dists)``."""
    order = np.lexsort((ids, dists))
    ids, dists = ids[order], dists[order]
    _, first = np.unique(ids, return_index=True)  # first = smallest dist
    keep = np.sort(first)[:k]
    return ids[keep], dists[keep]
