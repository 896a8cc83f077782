"""Offline index build pipeline (paper Sec 5.2, Fig 6).

Dataflow, at the DataFrame layer throughout:

1. the pre-learnt segmenter is broadcast to executors and every document
   is tagged with its shard id and segment id(s) (``tag_partitions``);
2. the tagged dataset is repartitioned by (shard, segment) — grouped into
   *executor buckets* to model a cluster with E executors (DESIGN.md
   substitution #4): bucket ``(s·m + seg) mod E`` is one Spark task that
   builds its (shard, segment) groups sequentially, exactly like one
   executor draining its task queue;
3. each group's HNSW index is built inside the task and serialized to the
   index store ("HDFS") *from the executor itself* (by the driver for an
   empty one: every (shard, segment) of the S×M grid gets an index);
4. metadata + the segmenter are written from the driver.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.index_store import IndexMetadata, IndexStore
from repro.core.partitioner import tag_partitions
from repro.hnsw.graph import HNSWIndex
from repro.segmenters.base import Segmenter, validate_spill

BUILD_SUMMARY_SCHEMA = (
    "shard_id long, segment_id long, n_items long, path string, build_seconds double"
)


def build_index(
    spark: SparkSession,
    df: DataFrame,
    store_root: str,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    metric: str = "l2",
    hnsw_m: int = 12,
    ef_construction: int = 100,
    n_executors: int | None = None,
    seed: int = 0,
    id_col: str = "id",
    vec_col: str = "vector",
) -> pd.DataFrame:
    """Build a two-level partitioned LANNS index; returns the per-partition
    build summary (shard, segment, n_items, path, build_seconds)."""
    validate_spill(spill)
    store = IndexStore(store_root)
    n_segments = segmenter.n_segments
    n_parts = n_shards * n_segments
    n_exec = min(n_executors or n_parts, n_parts)

    tagged = tag_partitions(
        spark, df, segmenter, n_shards, spill=spill, id_col=id_col, vec_col=vec_col
    ).withColumn(
        "bucket",
        (F.col("shard_id") * F.lit(n_segments) + F.col("segment_id")) % F.lit(n_exec),
    )

    first = df.select(vec_col).head()
    if first is None:
        raise ValueError("cannot build an index from an empty input")
    dim = len(first[0])

    hnsw = dict(metric=metric, hnsw_m=hnsw_m, ef_construction=ef_construction, seed=seed)

    def build_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (s, m), grp in sorted(pdf.groupby(["shard_id", "segment_id"])):
            grp = grp.sort_values(id_col)  # deterministic insertion order
            vecs = np.stack(grp[vec_col].to_numpy()).astype(np.float32)
            ids = grp[id_col].to_numpy(np.int64)
            rows.append(build_partition(store, int(s), int(m), vecs, ids, **hnsw))
        return pd.DataFrame(rows)

    built = (
        tagged.repartition(n_exec, "bucket")
        .groupBy("bucket")
        .applyInPandas(build_bucket, schema=BUILD_SUMMARY_SCHEMA)
        .toPandas()
    )
    # A (shard, segment) that received no rows gets an empty index.
    done = set(zip(built["shard_id"].tolist(), built["segment_id"].tolist()))
    empty = [
        build_partition(
            store, s, m, np.empty((0, dim), np.float32), np.empty(0, np.int64), **hnsw
        )
        for s in range(n_shards)
        for m in range(n_segments)
        if (s, m) not in done
    ]
    if empty:
        built = pd.concat([built, pd.DataFrame(empty)], ignore_index=True)
    summary = built.sort_values(["shard_id", "segment_id"]).reset_index(drop=True)

    # Driver-side: metadata + segmenter accompany the index (Fig 6).
    write_store_metadata(
        store, segmenter, dim=dim, n_shards=n_shards, spill=spill,
        n_items=int(summary["n_items"].sum()), metric=metric, hnsw_m=hnsw_m,
        ef_construction=ef_construction,
    )
    return summary


def build_partition(
    store: IndexStore, shard_id: int, segment_id: int, vecs: np.ndarray, ids: np.ndarray,
    *, metric: str, hnsw_m: int, ef_construction: int, seed: int,
) -> dict:
    """Build one (shard, segment)'s HNSW index, write it to the store and
    return its build-summary row. The graph's seed depends only on the
    build seed and the partition, so a rebuild writes the same bytes."""
    t0 = time.perf_counter()
    idx = HNSWIndex(vecs.shape[1], M=hnsw_m, ef_construction=ef_construction, metric=metric,
                    seed=seed + 1_000_003 * shard_id + segment_id)
    idx.add_items(vecs, ids)
    path = store.write_index_bytes(shard_id, segment_id, idx.to_bytes())
    return dict(shard_id=shard_id, segment_id=segment_id, n_items=len(ids), path=path,
                build_seconds=time.perf_counter() - t0)


def write_store_metadata(
    store: IndexStore, segmenter: Segmenter, *, dim: int, n_shards: int, spill: str,
    n_items: int, metric: str, hnsw_m: int, ef_construction: int,
) -> None:
    """Write the segmenter and ``metadata.json`` that ship with the index."""
    store.save_segmenter(segmenter)
    store.save_metadata(IndexMetadata(
        dim=dim, metric=metric, n_shards=n_shards, n_segments=segmenter.n_segments,
        segmenter_kind=segmenter.kind, spill=spill,
        alpha=float(getattr(segmenter, "alpha", 0.0)), hnsw_m=hnsw_m,
        hnsw_ef_construction=ef_construction, n_items=n_items,
    ))
