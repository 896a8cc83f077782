"""Partitioned query pipeline (paper Sec 5.3, Fig 7).

One Python stage, one exchange, then both merges:

1. the driver broadcasts the checked query set, in blocks of at most
   ``QUERY_BLOCK_BYTES``, and the segmenter — as Sec 5.4's brute force
   broadcasts its query set. With ``checkpoint_dir`` set, the query set is
   first persisted to "HDFS" (a parquet checkpoint — Sec 5.3.1's time-out
   mitigation, also applied after the later stages);
2. a *SearchExecutorContext* per block: ``spark.range(E)`` starts one
   Spark task per executor bucket b (DESIGN.md substitution #4). Each task
   routes every query of the block to every shard × the segment(s) the
   segmenter selects (``repro.core.partitioner.route_probes``), keeps the
   probes of its own partitions, ``bucket_of(s, m) == b``, and searches them
   with ``repro.core.search.search_probes`` (online serving's kernel too)
   at k = ``perShardTopK`` (Sec 5.3.2 — unchanged per segment);
3. the partials of all blocks are hash-partitioned by query_id: the one
   exchange;
4. segment-level merge per (query, shard) — in production this happens
   inside the shard's server node;
5. shard-level merge per query — the broker-side final merge.

Merges are Catalyst-planned window row_number() over (dist, neighbor_id)
(see ``repro.bruteforce.spark_bf.merge_topk``); every aggregate and window
of both levels groups by keys that contain query_id, so none needs a
further exchange.
"""
from __future__ import annotations

from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.bruteforce.spark_bf import checkpoint, merge_topk, rank_topk
from repro.core.index_store import IndexStore
from repro.core.partitioner import bucket_of, executor_count, route_probes
from repro.core.search import check_queries, search_probes
from repro.core.topk import per_shard_topk
from repro.segmenters.learning import segmenter_from_bytes
from repro.spark_worker import drop_zip_importers
from repro.synth_data import vectors_to_df

PARTIAL_SCHEMA = (
    "query_id long, shard_id long, segment_id long, neighbor_id long, dist double"
)
# Most bytes of query vectors in one broadcast block; a larger query set is
# searched block by block, and the blocks' partials meet at the one exchange.
QUERY_BLOCK_BYTES = 64 << 20


def query_index(
    spark: SparkSession,
    store_root: str,
    queries: np.ndarray,
    topk: int,
    *,
    ef: int | None = None,
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
    n_exec = executor_count(n_executors, meta.n_shards * meta.n_segments)
    pstk = per_shard_topk(topk, meta.n_shards) if use_per_shard_topk else topk
    if checkpoint_dir is not None:  # Fig 7: query partitions persisted first
        checkpoint(vectors_to_df(spark, queries, id_col="query_id"), spark,
                   checkpoint_dir, "query-partitions")

    sc = spark.sparkContext
    bseg = sc.broadcast(store.load_segmenter().to_bytes())

    def search_block(first: int, block: np.ndarray) -> DataFrame:
        """Partials of queries ``first, first + 1, ...``: one task per bucket."""
        bq = sc.broadcast(block)

        def search_buckets(batches):
            drop_zip_importers()
            q = bq.value
            rows, shards, segs = route_probes(
                segmenter_from_bytes(bseg.value), q, meta.n_shards, spill=meta.spill
            )
            bucket = bucket_of(shards, segs, meta.n_segments, n_exec)
            for pdf in batches:
                for b in pdf["id"]:
                    mine = bucket == b
                    yield pd.DataFrame(
                        search_probes(
                            store.read_index, rows[mine] + first, q[rows[mine]],
                            shards[mine], segs[mine], pstk, ef,
                        )
                    )

        return spark.range(0, n_exec, 1, n_exec).mapInPandas(
            search_buckets, schema=PARTIAL_SCHEMA
        )

    step = max(1, QUERY_BLOCK_BYTES // (queries.shape[1] * queries.itemsize))
    partials = reduce(
        DataFrame.union,
        [search_block(i, queries[i : i + step]) for i in range(0, len(queries), step) or [0]],
    )
    if checkpoint_dir is not None:
        partials = checkpoint(partials, spark, checkpoint_dir, "partials")
    partials = partials.repartition(n_exec, "query_id")  # the one exchange

    # Level 1: segment merge within (query, shard) — keeps perShardTopK.
    shard_results = merge_topk(partials, pstk, by=("query_id", "shard_id"))
    if checkpoint_dir is not None:
        shard_results = checkpoint(shard_results, spark, checkpoint_dir, "shard-results")

    # Level 2: shard merge per query — the broker-side final topK. shard_of
    # puts each neighbor in one shard, so level 1 left it at most once per
    # query: the window alone ranks. It keeps query_id, neighbor_id and dist,
    # so level 1's shard_id and rank fall away.
    return rank_topk(shard_results, topk, by=("query_id",))
