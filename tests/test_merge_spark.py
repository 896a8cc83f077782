"""Oracle-verified tests of the two-level merge primitive
(repro.bruteforce.spark_bf.merge_topk) — the exact relational core of
both the query pipeline (Sec 5.3) and brute force (Sec 5.4)."""
import numpy as np
import pandas as pd
import pytest

from repro.bruteforce.spark_bf import checkpoint, merge_topk
from repro.core.search import merge_candidates
from repro.oracle import assert_equivalent


def _partials(
    seed=0, n_queries=12, n_shards=3, n_segments=2, k=8, n_ids=1000
) -> pd.DataFrame:
    """Synthetic partial results with deliberate distance ties (rounded to
    2 decimals) so the (dist, neighbor_id) tiebreak is actually exercised;
    a small ``n_ids`` makes one neighbor reach a query from several lists."""
    g = np.random.default_rng(seed)
    rows = []
    for q in range(n_queries):
        for s in range(n_shards):
            for m in range(n_segments):
                nbr = g.choice(n_ids, size=k, replace=False)
                d = np.round(g.random(k) * 10, 2)
                for i in range(k):
                    rows.append((q, s, m, int(nbr[i]), float(d[i])))
    return pd.DataFrame(
        rows, columns=["query_id", "shard_id", "segment_id", "neighbor_id", "dist"]
    )


MERGE_SQL = """
SELECT query_id, neighbor_id, dist, rank FROM (
  SELECT query_id, neighbor_id, dist,
         row_number() OVER (PARTITION BY query_id ORDER BY dist, neighbor_id) AS rank
  FROM (
    SELECT query_id, neighbor_id, min(dist) AS dist
    FROM partials GROUP BY query_id, neighbor_id
  )
) WHERE rank <= {k}
"""

SHARD_MERGE_SQL = """
SELECT query_id, shard_id, neighbor_id, dist, rank FROM (
  SELECT query_id, shard_id, neighbor_id, dist,
         row_number() OVER (PARTITION BY query_id, shard_id ORDER BY dist, neighbor_id) AS rank
  FROM (
    SELECT query_id, shard_id, neighbor_id, min(dist) AS dist
    FROM partials GROUP BY query_id, shard_id, neighbor_id
  )
) WHERE rank <= {k}
"""


@pytest.mark.parametrize("k", [1, 3, 8, 50])
def test_query_level_merge_oracle(spark, k):
    pdf = _partials()
    got = merge_topk(spark.createDataFrame(pdf), k)
    assert_equivalent(got, MERGE_SQL.format(k=k), partials=pdf)


@pytest.mark.parametrize("k", [1, 3, 8, 50])
def test_merge_candidates_equals_merge_topk(spark, k):
    """The numpy merge of the online path equals the oracle-checked Spark
    merge row for row, duplicate ids and distance ties included."""
    pdf = _partials(seed=11, n_ids=40)
    assert pdf.duplicated(["query_id", "neighbor_id"]).any()
    assert pdf.duplicated(["query_id", "dist"]).any()
    want = merge_topk(spark.createDataFrame(pdf), k).toPandas()
    for q, grp in pdf.groupby("query_id"):
        ids, dists = merge_candidates(
            grp["neighbor_id"].to_numpy(), grp["dist"].to_numpy(), k
        )
        exp = want[want.query_id == q].sort_values("rank")
        np.testing.assert_array_equal(ids, exp["neighbor_id"].to_numpy())
        np.testing.assert_array_equal(dists, exp["dist"].to_numpy())


@pytest.mark.parametrize("k", [2, 5])
def test_segment_level_merge_oracle(spark, k):
    """Level-1 merge: per (query, shard), as done inside a server node."""
    pdf = _partials(seed=3)
    got = merge_topk(spark.createDataFrame(pdf), k, by=("query_id", "shard_id"))
    assert_equivalent(got, SHARD_MERGE_SQL.format(k=k), partials=pdf)


def test_two_level_equals_one_level_when_k_large(spark):
    """With per-shard k >= all candidates, segment-merge-then-shard-merge
    must equal a single global merge (lossless two-level merging)."""
    pdf = _partials(seed=5)
    df = spark.createDataFrame(pdf)
    direct = merge_topk(df, 10).toPandas()
    lvl1 = merge_topk(df, 10_000, by=("query_id", "shard_id")).drop("rank")
    two = merge_topk(lvl1.drop("shard_id"), 10).toPandas()
    a = direct.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = two.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_duplicate_candidates_deduped(spark):
    """A neighbor reached via two segments must appear once with min dist."""
    pdf = pd.DataFrame(
        {
            "query_id": [0, 0, 0],
            "shard_id": [0, 0, 0],
            "segment_id": [0, 1, 1],
            "neighbor_id": [7, 7, 8],
            "dist": [2.0, 1.5, 3.0],
        }
    )
    out = merge_topk(spark.createDataFrame(pdf), 5).toPandas()
    assert len(out) == 2
    row7 = out[out.neighbor_id == 7].iloc[0]
    assert row7["dist"] == 1.5 and row7["rank"] == 1


def test_k_exceeds_candidates(spark):
    pdf = _partials(seed=7, n_queries=2, n_shards=1, n_segments=1, k=4)
    out = merge_topk(spark.createDataFrame(pdf), 99).toPandas()
    assert set(out.groupby("query_id")["rank"].max()) == {4}


def test_checkpoint_roundtrip(spark, tmp_path):
    pdf = _partials(seed=9, n_queries=3)
    df = spark.createDataFrame(pdf)
    back = checkpoint(df, spark, str(tmp_path), "stage1")
    a = df.toPandas().sort_values(["query_id", "shard_id", "segment_id", "neighbor_id"]).reset_index(drop=True)
    b = back.toPandas().sort_values(["query_id", "shard_id", "segment_id", "neighbor_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # files durably on disk (Sec 5.3.1)
    assert any(p.name.startswith("stage1-") for p in tmp_path.iterdir())
