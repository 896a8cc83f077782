"""Two-level partition tagging (paper Sec 4, Fig 6-7).

Level 1 — *sharding*: a point's key hashes to exactly one shard
(``mix64 % S``); no locality, so queries fan out to all shards.
Level 2 — *segmentation*: the broadcast segmenter maps each point to one
or more segments within its shard (and each query to the segment(s) it
must probe). Both taggers are DataFrame → DataFrame transformations with
the numpy work inside Arrow-backed ``mapInPandas``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.segmenters.base import Segmenter, mix64
from repro.segmenters.learning import segmenter_from_bytes

SHARD_SALT = 7  # distinct from the RS segmenter salt (see random_segmenter)


def shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard id per external id (Sec 4.1 hash sharding)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return (mix64(np.asarray(ids, dtype=np.int64), SHARD_SALT) % np.uint64(n_shards)).astype(
        np.int64
    )


def tag_partitions(
    spark: SparkSession,
    df: DataFrame,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    id_col: str = "id",
    vec_col: str = "vector",
) -> DataFrame:
    """Tag every data point with (shard_id, segment_id) — Fig 6's tagging.

    Output has one row per (point, segment) pair: with physical spill a
    point inside a boundary band appears in both children's segments.
    """
    blob = segmenter.to_bytes()
    bseg = spark.sparkContext.broadcast(blob)

    def tag(batches):
        seg = segmenter_from_bytes(bseg.value)
        for pdf in batches:
            if pdf.empty:
                continue
            ids = pdf[id_col].to_numpy(np.int64)
            vecs = np.stack(pdf[vec_col].to_numpy()).astype(np.float32)
            shards = shard_of(ids, n_shards)
            seg_lists = seg.assign(vecs, ids, spill=spill)
            counts = np.asarray([len(s) for s in seg_lists])
            rep = np.repeat(np.arange(len(ids)), counts)
            out = pdf.iloc[rep][[id_col, vec_col]].reset_index(drop=True)
            out["shard_id"] = shards[rep]
            out["segment_id"] = np.concatenate(seg_lists) if len(seg_lists) else []
            yield out

    schema = f"{id_col} long, {vec_col} array<float>, shard_id long, segment_id long"
    return df.select(id_col, vec_col).mapInPandas(tag, schema=schema)


def route_queries(
    spark: SparkSession,
    queries_df: DataFrame,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    id_col: str = "query_id",
    vec_col: str = "vector",
) -> DataFrame:
    """Fan each query out to every shard × its routed segment(s) (Fig 7).

    Output: one row per (query, shard, segment) probe. Sharding is
    hash-based so every query visits all S shards; segment fan-out is the
    segmenter's routing decision under the given spill mode.
    """
    blob = segmenter.to_bytes()
    bseg = spark.sparkContext.broadcast(blob)

    def route(batches):
        seg = segmenter_from_bytes(bseg.value)
        for pdf in batches:
            if pdf.empty:
                continue
            vecs = np.stack(pdf[vec_col].to_numpy()).astype(np.float32)
            seg_lists = seg.route(vecs, spill=spill)
            counts = np.asarray([len(s) for s in seg_lists])
            rep = np.repeat(np.arange(len(pdf)), counts)
            base = pdf.iloc[rep][[id_col, vec_col]].reset_index(drop=True)
            base["segment_id"] = np.concatenate(seg_lists) if len(seg_lists) else []
            # cross with all shards
            frames = []
            for s in range(n_shards):
                f = base.copy()
                f["shard_id"] = np.int64(s)
                frames.append(f)
            yield pd.concat(frames, ignore_index=True)

    schema = f"{id_col} long, {vec_col} array<float>, segment_id long, shard_id long"
    return queries_df.select(id_col, vec_col).mapInPandas(route, schema=schema)
