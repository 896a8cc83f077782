"""Tests for the two-level tagging / routing (repro.core.partitioner),
oracle-verified against an independent driver-side reference."""
import re

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.partitioner import (
    executor_count,
    route_probes,
    route_queries,
    shard_of,
    tag_partitions,
    to_executor_buckets,
)
from repro.oracle import assert_equivalent
from repro.segmenters import RandomSegmenter, learn_rh_segmenter
from repro.synth_data import gaussian_mixture, vectors_to_df
from tests.util import reference_partition_map


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=1200, dim=10, n_clusters=8, n_queries=80, seed=41)


@pytest.fixture(scope="module")
def df(spark, ds):
    return vectors_to_df(spark, ds.base, ds.ids).cache()


@pytest.fixture(scope="module")
def rh(ds):
    return learn_rh_segmenter(ds.base[:600], 4, alpha=0.15, seed=0)


class TestShardOf:
    def test_deterministic(self, ds):
        np.testing.assert_array_equal(shard_of(ds.ids, 5), shard_of(ds.ids, 5))

    def test_range(self, ds):
        s = shard_of(ds.ids, 7)
        assert s.min() >= 0 and s.max() < 7

    def test_balanced(self, ds):
        counts = np.bincount(shard_of(ds.ids, 4), minlength=4)
        assert counts.min() > 0.7 * ds.n / 4

    def test_single_shard(self, ds):
        assert set(shard_of(ds.ids, 1).tolist()) == {0}

    def test_invalid(self, ds):
        with pytest.raises(ValueError):
            shard_of(ds.ids, 0)


class TestTagPartitions:
    def _reference_pdf(self, ds, seg, n_shards, spill):
        ref = reference_partition_map(ds, seg, n_shards, spill=spill)
        rows = [
            (int(i), s, m) for (s, m), ids in ref.items() for i in ids
        ]
        return pd.DataFrame(rows, columns=["id", "shard_id", "segment_id"])

    @pytest.mark.parametrize("spill", ["virtual", "physical"])
    def test_oracle_counts_match_reference(self, spark, ds, df, rh, spill):
        """Per-(shard, segment) row counts from the Spark tagging equal
        the independent numpy reference (DuckDB group-by as the diff)."""
        tagged = tag_partitions(spark, df, rh, 2, spill=spill)
        got = tagged.groupBy("shard_id", "segment_id").agg(
            F.count(F.lit(1)).alias("cnt")
        )
        assert_equivalent(
            got,
            "SELECT shard_id, segment_id, count(*) AS cnt FROM ref GROUP BY shard_id, segment_id",
            ref=self._reference_pdf(ds, rh, 2, spill),
        )

    def test_oracle_exact_membership(self, spark, ds, df, rh):
        """Exact (id, shard, segment) membership equality, not just counts."""
        tagged = tag_partitions(spark, df, rh, 3).select("id", "shard_id", "segment_id")
        assert_equivalent(
            tagged,
            "SELECT id, shard_id, segment_id FROM ref",
            ref=self._reference_pdf(ds, rh, 3, "virtual"),
        )

    def test_virtual_spill_no_duplication(self, spark, ds, df, rh):
        assert tag_partitions(spark, df, rh, 2, spill="virtual").count() == ds.n

    def test_physical_spill_duplicates(self, spark, ds, df, rh):
        assert tag_partitions(spark, df, rh, 2, spill="physical").count() > ds.n

    def test_rs_tagging(self, spark, ds, df):
        seg = RandomSegmenter(4)
        tagged = tag_partitions(spark, df, seg, 2).select("id", "shard_id", "segment_id")
        assert_equivalent(
            tagged,
            "SELECT id, shard_id, segment_id FROM ref",
            ref=self._reference_pdf(ds, seg, 2, "virtual"),
        )

    def test_vectors_preserved(self, spark, ds, df, rh):
        tagged = tag_partitions(spark, df, rh, 2).toPandas()
        row = tagged[tagged.id == int(ds.ids[5])].iloc[0]
        np.testing.assert_allclose(np.asarray(row["vector"]), ds.base[5], rtol=1e-6)


class TestRouteQueries:
    @pytest.fixture(scope="class")
    def qdf(self, spark, ds):
        return vectors_to_df(spark, ds.queries, id_col="query_id").cache()

    def test_every_query_visits_every_shard(self, spark, ds, qdf, rh):
        routed = route_queries(spark, qdf, rh, 3).toPandas()
        per_q = routed.groupby("query_id")["shard_id"].nunique()
        assert (per_q == 3).all()

    def test_fanout_matches_segmenter(self, spark, ds, qdf, rh):
        routed = route_queries(spark, qdf, rh, 2).toPandas()
        expect = rh.route(ds.queries, spill="virtual")
        for q in range(ds.queries.shape[0]):
            got = set(
                routed[(routed.query_id == q) & (routed.shard_id == 0)][
                    "segment_id"
                ].tolist()
            )
            assert got == set(int(x) for x in expect[q])

    def test_rs_routes_everywhere(self, spark, ds, qdf):
        seg = RandomSegmenter(4)
        routed = route_queries(spark, qdf, seg, 2)
        assert routed.count() == ds.queries.shape[0] * 2 * 4

    def test_physical_spill_single_probe_per_shard(self, spark, ds, qdf, rh):
        routed = route_queries(spark, qdf, rh, 2, spill="physical").toPandas()
        per = routed.groupby(["query_id", "shard_id"]).size()
        assert (per == 1).all()


class TestRouteProbes:
    """``route_probes`` on its own: numpy only, no Spark."""

    def test_shard_major_then_query_order(self, ds, rh):
        rows, shards, segs = route_probes(rh, ds.queries, 3)
        assert (np.diff(shards) >= 0).all()
        per_shard = len(rows) // 3
        for s in range(3):
            mine = slice(s * per_shard, (s + 1) * per_shard)
            assert (shards[mine] == s).all() and (np.diff(rows[mine]) >= 0).all()
            np.testing.assert_array_equal(rows[mine], rows[:per_shard])
            np.testing.assert_array_equal(segs[mine], segs[:per_shard])

    @pytest.mark.parametrize("spill", ["virtual", "physical"])
    def test_matches_segmenter_route(self, ds, rh, spill):
        rows, shards, segs = route_probes(rh, ds.queries, 2, spill=spill)
        expect = rh.route(ds.queries, spill=spill)
        counts = [len(e) for e in expect]
        if spill == "virtual":
            assert max(counts) > 1  # some query fans out to two segments
        else:
            assert set(counts) == {1}
        for s in range(2):
            mine = shards == s
            np.testing.assert_array_equal(np.bincount(rows[mine], minlength=len(expect)), counts)
            np.testing.assert_array_equal(segs[mine], np.concatenate(expect))

    def test_rs_fans_out_to_every_segment(self, ds):
        rows, shards, segs = route_probes(RandomSegmenter(4), ds.queries, 2)
        assert len(rows) == ds.queries.shape[0] * 2 * 4
        probes = pd.DataFrame({"q": rows, "s": shards, "m": segs})
        per = probes.groupby(["q", "s"])["m"].apply(sorted)
        assert len(per) == ds.queries.shape[0] * 2
        assert all(m == [0, 1, 2, 3] for m in per)

    @pytest.mark.parametrize("segmenter", ["RH", "RS"])
    def test_no_queries_no_probes(self, ds, rh, segmenter):
        seg = rh if segmenter == "RH" else RandomSegmenter(4)
        for a in route_probes(seg, ds.queries[:0], 3):
            assert a.dtype == np.int64 and a.shape == (0,)


class TestExecutorBuckets:
    """Bucket (s·M + m) mod E is Spark partition b: one task per bucket."""

    @pytest.mark.parametrize("n_exec", [1, 2, 3, 4, 8])
    def test_each_bucket_is_one_partition(self, spark, df, rh, ds, n_exec):
        """Tagged (build) and routed (query) rows of a 2 × 4 grid sit in
        partition (s·M + m) mod E."""
        qdf = vectors_to_df(spark, ds.queries, id_col="query_id")
        for rows in (tag_partitions(spark, df, rh, 2), route_queries(spark, qdf, rh, 2)):
            placed = to_executor_buckets(rows, rh.n_segments, n_exec).select(
                "shard_id", "segment_id", F.spark_partition_id().alias("part")
            ).toPandas()
            expect = (placed["shard_id"] * rh.n_segments + placed["segment_id"]) % n_exec
            assert (placed["part"] == expect).all()
            assert placed["part"].nunique() == n_exec

    def test_build_plan_has_one_exchange(self, spark, df, rh):
        """Bucketing needs Spark's partition-id passthrough and no hash."""
        placed = to_executor_buckets(tag_partitions(spark, df, rh, 2), rh.n_segments, 3)
        text = placed._jdf.queryExecution().executedPlan().toString()
        assert text.count("Exchange") == 1
        assert re.search(r"Exchange shufflepartitionidpassthrough\(.*, 3\)", text)
        assert "hashpartitioning" not in text

    def test_executor_count(self):
        assert executor_count(None, 8) == 8
        assert executor_count(3, 8) == 3
        assert executor_count(20, 8) == 8
        for bad in (0, -1):
            with pytest.raises(ValueError, match="n_executors"):
                executor_count(bad, 8)
