"""Distributed brute-force search (paper Sec 5.4, Fig 8).

The paper's flow, reproduced 1:1 at the DataFrame layer:

1. partition the base dataset by the number of available executors;
2. load each subset in an executor together with the *whole* (reasonably
   small) query set — here via a Spark broadcast;
3. compute partial top-k per subset (numpy inside ``mapInPandas``);
4. persist partial results to "HDFS" (a parquet checkpoint directory);
5. re-load, repartition by query id, and merge within executors — here a
   Catalyst-planned window ``row_number()`` over (dist, neighbor_id);
6. write merged results for recall computation (returned as a DataFrame;
   callers may persist).
"""
from __future__ import annotations

import os
import uuid

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.bruteforce.local import exact_topk
from repro.spark_worker import drop_zip_importers

PARTIAL_SCHEMA = "query_id long, neighbor_id long, dist double"
RESULT_SCHEMA = "query_id long, neighbor_id long, dist double, rank int"


def merge_topk(
    partials: DataFrame, k: int, *, by: tuple[str, ...] = ("query_id",)
) -> DataFrame:
    """Keep the best ``k`` candidates per group of ``by`` columns; returns
    (*by, neighbor_id, dist, rank).

    Ordering is (dist, neighbor_id) — the neighbor-id tiebreak makes the
    result deterministic so the DuckDB oracle can verify it exactly.
    Dedupes candidates first (a neighbor can reach the merge from several
    partitions when spill routing duplicates work).
    """
    dedup = partials.groupBy(*by, "neighbor_id").agg(F.min("dist").alias("dist"))
    return rank_topk(dedup, k, by=by)


def rank_topk(
    candidates: DataFrame, k: int, *, by: tuple[str, ...] = ("query_id",)
) -> DataFrame:
    """``merge_topk`` without the dedup, for candidates that hold each
    neighbor at most once per group: the window alone ranks them. Other
    columns of ``candidates`` are left out.

    One SQL projection and one filter, because Spark analyses each
    DataFrame as it is made: every further step costs the driver time.
    """
    keys = ", ".join(by)
    return candidates.selectExpr(
        *by, "neighbor_id", "dist",
        f"row_number() over (partition by {keys} order by dist, neighbor_id) as rank",
    ).where(f"rank <= {int(k)}")


def checkpoint(df: DataFrame, spark: SparkSession, root: str, stage: str) -> DataFrame:
    """Materialize ``df`` to parquet under ``root`` and read it back.

    This is the paper's Sec 5.3.1 time-out mitigation: each stage's output
    is durably written as soon as a task finishes, so a lost executor
    never forces recomputation of a whole preceding stage.
    """
    path = os.path.join(root, f"{stage}-{uuid.uuid4().hex[:8]}")
    df.write.mode("overwrite").parquet(path)
    return spark.read.parquet(path)


def spark_brute_force(
    spark: SparkSession,
    base_df: DataFrame,
    queries: np.ndarray,
    k: int,
    *,
    metric: str = "l2",
    n_partitions: int = 8,
    checkpoint_dir: str | None = None,
) -> DataFrame:
    """Exact distributed top-k; returns (query_id, neighbor_id, dist, rank).

    ``queries`` is a (q, d) numpy array; query ids are its row indices.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    bq = spark.sparkContext.broadcast(queries)

    def partial(batches):
        drop_zip_importers()
        q = bq.value
        for pdf in batches:
            if pdf.empty:
                continue
            # Sort by id so within-partition distance ties resolve by id,
            # matching the oracle SQL's (dist, neighbor_id) ordering.
            pdf = pdf.sort_values("id")
            base = np.stack(pdf["vector"].to_numpy()).astype(np.float32)
            ids = pdf["id"].to_numpy(np.int64)
            nn_ids, nn_d = exact_topk(q, base, k, ids=ids, metric=metric)
            kk = nn_ids.shape[1]
            yield pd.DataFrame(
                {
                    "query_id": np.repeat(np.arange(q.shape[0], dtype=np.int64), kk),
                    "neighbor_id": nn_ids.reshape(-1),
                    "dist": nn_d.reshape(-1).astype(np.float64),
                }
            )

    partials = (
        base_df.select("id", "vector")
        .repartition(n_partitions)
        .mapInPandas(partial, schema=PARTIAL_SCHEMA)
    )
    if checkpoint_dir is not None:
        partials = checkpoint(partials, spark, checkpoint_dir, "bf-partials")
    merged = merge_topk(partials.repartition(n_partitions, "query_id"), k)
    if checkpoint_dir is not None:
        merged = checkpoint(merged, spark, checkpoint_dir, "bf-merged")
    return merged
