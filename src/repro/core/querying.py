"""Partitioned query pipeline (paper Sec 5.3, Fig 7).

Stages, each one a DataFrame transformation:

1. the query set is repartitioned into query partitions and persisted to
   "HDFS" (a parquet checkpoint — Sec 5.3.1's time-out mitigation, also
   applied after every later stage);
2. a *SearchExecutorContext* is formed: each query is routed to every
   shard × the segment(s) the broadcast segmenter selects for it, and
   the (shard, segment) probes are grouped into executor buckets, one
   Spark task each (DESIGN.md substitution #4, ``to_executor_buckets``);
3. partial search with ``repro.core.search.search_probes`` (online serving's
   kernel too): each bucket task searches its (shard, segment) HNSW indices
   from the store with k = ``perShardTopK`` (Sec 5.3.2 — unchanged per segment);
4. segment-level merge per (query, shard) — in production this happens
   inside the shard's server node;
5. shard-level merge per query — the broker-side final merge.

Merges are Catalyst-planned window row_number() over (dist, neighbor_id)
(see ``repro.bruteforce.spark_bf.merge_topk``). Both run behind one
exchange: the partials are hash-partitioned by query_id once, and every
aggregate and window of both levels groups by keys that contain it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.bruteforce.spark_bf import checkpoint, merge_topk
from repro.core.index_store import IndexStore
from repro.core.partitioner import executor_count, route_queries, to_executor_buckets
from repro.core.search import check_queries, search_probes
from repro.core.topk import per_shard_topk
from repro.synth_data import vectors_to_df

PARTIAL_SCHEMA = (
    "query_id long, shard_id long, segment_id long, neighbor_id long, dist double"
)


def query_index(
    spark: SparkSession,
    store_root: str,
    queries: np.ndarray,
    topk: int,
    *,
    ef: int | None = None,
    confidence: float = 0.95,
    use_per_shard_topk: bool = True,
    n_executors: int | None = None,
    checkpoint_dir: str | None = None,
) -> DataFrame:
    """Search the stored index for the top-``topk`` neighbors of each query.

    Returns (query_id, neighbor_id, dist, rank) with rank 1..topk
    ascending by (dist, neighbor_id); query ids are row indices of
    ``queries``. Raises ``ValueError`` before any Spark job for queries that
    are not 2-D, not of the store's dimension or not finite, or ``topk < 1``.
    """
    store = IndexStore(store_root)
    meta = store.load_metadata()
    queries = np.ascontiguousarray(check_queries(queries, meta.dim, topk))
    segmenter = store.load_segmenter()
    n_exec = executor_count(n_executors, meta.n_shards * meta.n_segments)
    pstk = (
        per_shard_topk(topk, meta.n_shards, confidence)
        if use_per_shard_topk
        else topk
    )

    qdf = vectors_to_df(spark, queries, id_col="query_id")
    if checkpoint_dir is not None:  # Fig 7: query partitions persisted first
        qdf = checkpoint(qdf, spark, checkpoint_dir, "query-partitions")

    routed = route_queries(
        spark, qdf, segmenter, meta.n_shards, spill=meta.spill, id_col="query_id"
    )

    def search_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            search_probes(
                store.read_index,
                pdf["query_id"].to_numpy(np.int64),
                np.stack(pdf["vector"].to_numpy()).astype(np.float32),
                pdf["shard_id"].to_numpy(),
                pdf["segment_id"].to_numpy(),
                pstk,
                ef,
            )
        )

    partials = (
        to_executor_buckets(routed, meta.n_segments, n_exec)
        .groupBy("bucket")
        .applyInPandas(search_bucket, schema=PARTIAL_SCHEMA)
    )
    if checkpoint_dir is not None:
        partials = checkpoint(partials, spark, checkpoint_dir, "partials")
    partials = partials.repartition(n_exec, "query_id")  # the one merge exchange

    # Level 1: segment merge within (query, shard) — keeps perShardTopK.
    shard_results = merge_topk(partials, pstk, by=("query_id", "shard_id")).drop("rank")
    if checkpoint_dir is not None:
        shard_results = checkpoint(shard_results, spark, checkpoint_dir, "shard-results")

    # Level 2: shard merge per query — the broker-side final topK.
    return merge_topk(shard_results.drop("shard_id"), topk, by=("query_id",))
