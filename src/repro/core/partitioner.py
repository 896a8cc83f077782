"""Two-level partition tagging (paper Sec 4, Fig 6-7).

Level 1 — *sharding*: a point's key hashes to exactly one shard
(``mix64 % S``); no locality, so queries fan out to all shards.
Level 2 — *segmentation*: the broadcast segmenter maps each point to one
or more segments within its shard (and each query to the segment(s) it
must probe). Both taggers are DataFrame → DataFrame transformations with
the numpy work inside Arrow-backed ``mapInPandas``.

Tagged rows then go to *executor buckets* (DESIGN.md substitution #4):
``to_executor_buckets`` puts the rows of bucket b = ``bucket_of(s, m)``
in Spark partition b with Spark's own ``repartitionById``, so each bucket
is exactly one Spark task and the task's partition id is its bucket. The
query path keeps the same buckets without a shuffle: each of its E tasks
routes the broadcast queries with ``route_probes`` and keeps the probes of
its own bucket (``repro.core.querying``).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.segmenters.base import Segmenter, mix64
from repro.segmenters.learning import segmenter_from_bytes
from repro.spark_worker import drop_zip_importers

SHARD_SALT = 7  # distinct from the RS segmenter salt (see random_segmenter)
# A tagged point (``tag_partitions``) and a routed probe (``route_queries``).
TAGGED_SCHEMA = "id long, vector array<float>, shard_id long, segment_id long"
ROUTED_SCHEMA = "query_id long, vector array<float>, segment_id long, shard_id long"


def shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard id per external id (Sec 4.1 hash sharding)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return (mix64(np.asarray(ids, dtype=np.int64), SHARD_SALT) % np.uint64(n_shards)).astype(
        np.int64
    )


def executor_count(n_executors: int | None, n_parts: int) -> int:
    """E for ``n_parts`` (shard, segment) tasks: ``n_executors`` capped at
    ``n_parts``; ``None`` means one executor per task."""
    if n_executors is not None and n_executors < 1:
        raise ValueError(f"n_executors must be >= 1, got {n_executors}")
    return min(n_executors or n_parts, n_parts)


def bucket_of(shard, segment, n_segments: int, n_exec: int):
    """Executor bucket of (shard, segment): ``(s·M + m) mod E``. The same
    arithmetic serves ints, numpy arrays and Spark Columns."""
    return (shard * n_segments + segment) % n_exec


def to_executor_buckets(df: DataFrame, n_segments: int, n_exec: int) -> DataFrame:
    """Repartition (shard_id, segment_id) rows into ``n_exec`` executor
    buckets: Spark's ``repartitionById`` puts the rows of bucket b, and
    only they, in partition b, so each bucket is exactly one Spark task."""
    b = bucket_of(F.col("shard_id"), F.col("segment_id"), n_segments, n_exec)
    return df.repartitionById(n_exec, b.cast("int"))


def tag_partitions(
    spark: SparkSession,
    df: DataFrame,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
) -> DataFrame:
    """Tag every data point with (shard_id, segment_id) — Fig 6's tagging.

    Output has one row per (point, segment) pair: with physical spill a
    point inside a boundary band appears in both children's segments.
    """
    blob = segmenter.to_bytes()
    bseg = spark.sparkContext.broadcast(blob)

    def tag(batches):
        drop_zip_importers()
        seg = segmenter_from_bytes(bseg.value)
        for pdf in batches:
            if pdf.empty:
                continue
            ids = pdf["id"].to_numpy(np.int64)
            vecs = np.stack(pdf["vector"].to_numpy()).astype(np.float32)
            shards = shard_of(ids, n_shards)
            seg_lists = seg.assign(vecs, ids, spill=spill)
            counts = np.asarray([len(s) for s in seg_lists])
            rep = np.repeat(np.arange(len(ids)), counts)
            out = pdf.iloc[rep].reset_index(drop=True)
            out["shard_id"] = shards[rep]
            out["segment_id"] = np.concatenate(seg_lists) if len(seg_lists) else []
            yield out

    return df.select("id", "vector").mapInPandas(tag, schema=TAGGED_SCHEMA)


def route_probes(
    segmenter: Segmenter, vectors: np.ndarray, n_shards: int, *, spill: str = "virtual"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fan each query out to every shard × its routed segment(s) (Fig 7).

    Returns ``(row, shard_id, segment_id)``, one entry per probe: ``row``
    indexes ``vectors``. Sharding is hash-based so every query visits all
    S shards; segment fan-out is the segmenter's routing decision under the
    given spill mode. Probes are shard-major, then in query order.
    """
    seg_lists = segmenter.route(vectors, spill=spill)
    counts = np.fromiter(map(len, seg_lists), np.int64, len(seg_lists))
    rows = np.repeat(np.arange(len(seg_lists)), counts)
    segs = np.concatenate(seg_lists).astype(np.int64) if seg_lists else rows
    return (
        np.tile(rows, n_shards),
        np.repeat(np.arange(n_shards, dtype=np.int64), len(rows)),
        np.tile(segs, n_shards),
    )


def route_queries(
    spark: SparkSession,
    queries_df: DataFrame,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
) -> DataFrame:
    """``route_probes`` over a query DataFrame: one output row per (query,
    shard, segment) probe, with the query's id and vector."""
    blob = segmenter.to_bytes()
    bseg = spark.sparkContext.broadcast(blob)

    def route(batches):
        drop_zip_importers()
        seg = segmenter_from_bytes(bseg.value)
        for pdf in batches:
            if pdf.empty:
                continue
            vecs = np.stack(pdf["vector"].to_numpy()).astype(np.float32)
            rows, shards, segs = route_probes(seg, vecs, n_shards, spill=spill)
            out = pdf.iloc[rows].reset_index(drop=True)
            out["segment_id"] = segs
            out["shard_id"] = shards
            yield out

    return queries_df.select("query_id", "vector").mapInPandas(route, schema=ROUTED_SCHEMA)
