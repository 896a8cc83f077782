"""Integration tests for the offline LANNS pipeline: build (Fig 6) +
query (Fig 7), with the final merge oracle-verified from checkpointed
partials and the index contents cross-checked against an independent
driver-side reference build."""
import glob
import os
import pickle
import re
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.bruteforce.local import exact_topk
from repro.core import IndexStore, build_index, per_shard_topk, query_index, querying
from repro.eval.recall import recall_at_k
from repro.hnsw import graph
from repro.oracle import assert_equivalent
from repro.segmenters import RandomSegmenter, learn_segmenter
from repro.serving import Broker
from repro.synth_data import gaussian_mixture, vectors_to_df
from tests.util import reference_partition_map


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=2000, dim=12, n_clusters=16, n_queries=60, seed=51)


@pytest.fixture(scope="module")
def df(spark, ds):
    d = vectors_to_df(spark, ds.base, ds.ids).cache()
    d.count()
    return d


@pytest.fixture(scope="module")
def gt(ds):
    ids, _ = exact_topk(ds.queries, ds.base, 20, ids=ds.ids)
    return ids


def _segmenter(kind, ds, m=2):
    return learn_segmenter(kind, m, sample=ds.base[:1000], alpha=0.15, seed=0)


def _store_files(root):
    """{relative path: bytes} of every ``*.hnsw`` file and ``metadata.json``."""
    paths = glob.glob(os.path.join(root, "**", "*.hnsw"), recursive=True)
    paths.append(os.path.join(root, "metadata.json"))
    return {os.path.relpath(p, root): Path(p).read_bytes() for p in paths}


@contextmanager
def _no_spark_jobs(spark):
    """Fail if a Spark job starts inside the block."""
    sc = spark.sparkContext
    sc.setJobGroup("no-spark-jobs", "")
    try:
        yield
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("no-spark-jobs") == []


@pytest.fixture(scope="module")
def apd_store_root(spark, ds, df, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pipe") / "apd")
    build_index(spark, df, root, _segmenter("APD", ds), 2, n_executors=4,
                ef_construction=60, hnsw_m=8)
    return root


@pytest.fixture(scope="module")
def dup_store_root(spark, ds, tmp_path_factory):
    """100 base vectors stored 20 times each, every copy under its own id, so
    exact distance ties fill every partition; the APD store's segmenter."""
    base = np.repeat(ds.base[:100], 20, axis=0)
    ids = np.random.default_rng(0).permutation(base.shape[0])
    root = str(tmp_path_factory.mktemp("pipe") / "dup")
    build_index(spark, vectors_to_df(spark, base, ids), root, _segmenter("APD", ds), 2,
                n_executors=4, ef_construction=8, hnsw_m=4)
    return root


class TestBuild:
    @pytest.mark.parametrize("kind", ["RS", "RH", "APD"])
    def test_partition_contents_match_reference(self, spark, ds, df, tmp_path, kind):
        seg = _segmenter(kind, ds)
        root = str(tmp_path / f"idx-{kind}")
        summary = build_index(spark, df, root, seg, 2, n_executors=4,
                              ef_construction=40, hnsw_m=8)
        ref = reference_partition_map(ds, seg, 2)
        store = IndexStore(root)
        assert set(store.list_partitions()) == set(ref.keys())
        for (s, m) in ref:
            idx = store.read_index(s, m)
            assert sorted(idx.ids.tolist()) == ref[(s, m)].tolist()
        assert summary["n_items"].sum() == ds.n

    def test_metadata_written(self, ds, apd_store_root):
        meta = IndexStore(apd_store_root).load_metadata()
        assert meta.n_shards == 2 and meta.n_segments == 2
        assert meta.segmenter_kind == "APD" and meta.dim == ds.dim
        assert meta.n_items == ds.n

    def test_segmenter_persisted(self, apd_store_root):
        seg = IndexStore(apd_store_root).load_segmenter()
        assert seg.kind == "APD" and seg.n_segments == 2

    def test_executor_bucket_counts(self, spark, ds, df, tmp_path):
        """E=2 buckets must still produce all 4 (shard, segment) indices."""
        seg = _segmenter("RS", ds)
        root = str(tmp_path / "e2")
        build_index(spark, df, root, seg, 2, n_executors=2, ef_construction=40)
        assert len(IndexStore(root).list_partitions()) == 4

    def test_empty_input_raises(self, spark, ds, df, tmp_path):
        empty = df.filter("id < 0")
        with pytest.raises(Exception):
            build_index(spark, empty, str(tmp_path / "empty"), _segmenter("RS", ds), 1)

    def test_repeated_row_raises(self, spark, ds, df, tmp_path):
        """An id given twice is refused by the task that builds its partition."""
        twice = df.union(df.filter("id = 5"))
        with pytest.raises(Exception, match="ValueError: id 5 is given twice"):
            build_index(spark, twice, str(tmp_path / "twice"), _segmenter("RS", ds), 2,
                        n_executors=2, ef_construction=20)

    def test_build_deterministic(self, spark, ds, df, tmp_path):
        """Stores built with E = 1..4 executor buckets are byte-identical and
        answer identically: which task builds or searches a (shard, segment)
        does not change the result."""
        seg = _segmenter("RH", ds)
        files, rows = [], []
        for e in (1, 2, 3, 4):
            root = str(tmp_path / f"det{e}")
            build_index(spark, df, root, seg, 2, n_executors=e, ef_construction=40)
            files.append(_store_files(root))
            res = query_index(spark, root, ds.queries, 10, ef=50, n_executors=e).toPandas()
            rows.append(res.sort_values(["query_id", "rank"]).reset_index(drop=True))
        assert len(files[0]) == 2 * 2 + 1
        for e in range(1, 4):
            assert files[e] == files[0]
            pd.testing.assert_frame_equal(rows[e], rows[0])

    @pytest.mark.parametrize("n_executors", [0, -1])
    def test_invalid_n_executors_raises(self, spark, ds, df, tmp_path, n_executors):
        root = tmp_path / "bad"
        with _no_spark_jobs(spark), pytest.raises(ValueError, match="n_executors"):
            build_index(spark, df, str(root), _segmenter("RS", ds), 2,
                        n_executors=n_executors)
        assert not root.exists()


class TestQuery:
    @pytest.mark.parametrize("kind,min_recall", [("RS", 0.95), ("RH", 0.75), ("APD", 0.85)])
    def test_end_to_end_recall(self, spark, ds, df, gt, tmp_path, kind, min_recall):
        seg = _segmenter(kind, ds)
        root = str(tmp_path / f"q-{kind}")
        build_index(spark, df, root, seg, 2, n_executors=4, ef_construction=60, hnsw_m=8)
        res = query_index(spark, root, ds.queries, 20, ef=100, n_executors=4).toPandas()
        assert recall_at_k(res, gt, 20) >= min_recall

    def test_result_shape(self, spark, ds, apd_store_root):
        res = query_index(spark, apd_store_root, ds.queries, 10, ef=80).toPandas()
        per_q = res.groupby("query_id")["rank"].agg(["min", "max", "count"])
        assert (per_q["min"] == 1).all()
        assert (per_q["max"] == 10).all()
        assert (per_q["count"] == 10).all()
        assert res.groupby(["query_id", "neighbor_id"]).size().max() == 1

    def test_final_merge_oracle_from_partials(self, spark, ds, apd_store_root, tmp_path):
        """Re-derive the final result in DuckDB from the checkpointed
        partials parquet: two-level merge must match exactly."""
        ck = str(tmp_path / "ck")
        topk = 12
        res = query_index(
            spark, apd_store_root, ds.queries, topk, ef=80, checkpoint_dir=ck
        ).select("query_id", "neighbor_id", "dist", "rank")
        pdir = next(
            os.path.join(ck, d) for d in os.listdir(ck) if d.startswith("partials-")
        )
        partials = spark.read.parquet(pdir).toPandas()
        pstk = per_shard_topk(topk, 2, 0.95)
        sql = f"""
        WITH seg_merged AS (
          SELECT query_id, shard_id, neighbor_id, min(dist) AS dist
          FROM partials GROUP BY query_id, shard_id, neighbor_id
        ), shard_level AS (
          SELECT query_id, shard_id, neighbor_id, dist,
                 row_number() OVER (PARTITION BY query_id, shard_id
                                    ORDER BY dist, neighbor_id) AS r
          FROM seg_merged
        ), survivors AS (
          SELECT query_id, neighbor_id, min(dist) AS dist
          FROM shard_level WHERE r <= {pstk}
          GROUP BY query_id, neighbor_id
        )
        SELECT query_id, neighbor_id, dist, rank FROM (
          SELECT query_id, neighbor_id, dist,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY dist, neighbor_id) AS rank
          FROM survivors
        ) WHERE rank <= {topk}
        """
        assert_equivalent(res, sql, partials=partials)

    def test_plan_has_one_exchange(self, spark, ds, apd_store_root):
        """The bucket tasks route and search in one Python stage; one
        query_id exchange feeds both merges."""
        res = query_index(spark, apd_store_root, ds.queries, 10, ef=80, n_executors=3)
        res.collect()
        plan = res._jdf.queryExecution().executedPlan()
        if plan.nodeName() == "AdaptiveSparkPlan":
            plan = plan.executedPlan()  # the final plan, once executed
        text = plan.toString()
        assert re.findall(r"Exchange (\w+)\((\w+)#\d+L?, 3\)", text) == [
            ("hashpartitioning", "query_id")
        ]
        assert text.count("Exchange") == 1
        assert not re.search(r"\bbucket#", text)  # no bucket column
        assert len(re.findall(r"InPandas|ArrowEvalPython|BatchEvalPython", text)) == 1

    def test_query_blocks_match_one_block(self, spark, ds, apd_store_root, monkeypatch):
        """A query set split into broadcast blocks gives the rows of one block."""
        def run():
            res = query_index(spark, apd_store_root, ds.queries, 10, ef=80, n_executors=3)
            n_blocks = res._jdf.queryExecution().analyzed().toString().count("MapInPandas")
            return n_blocks, res.toPandas().sort_values(["query_id", "rank"], ignore_index=True)

        n_one, one = run()
        monkeypatch.setattr(querying, "QUERY_BLOCK_BYTES", 25 * ds.queries[0].nbytes)
        n_three, three = run()
        assert (n_one, n_three) == (1, 3)  # 60 queries, 25 a block
        pd.testing.assert_frame_equal(three, one)

    def test_no_queries_no_rows(self, spark, ds, apd_store_root):
        res = query_index(spark, apd_store_root, ds.queries[:0], 10, ef=80)
        assert res.count() == 0

    @pytest.mark.parametrize("n_executors", [0, -1])
    def test_invalid_n_executors_raises(self, spark, ds, apd_store_root, n_executors):
        with _no_spark_jobs(spark), pytest.raises(ValueError, match="n_executors"):
            query_index(spark, apd_store_root, ds.queries, 10, n_executors=n_executors)

    @pytest.mark.parametrize("bad", ["nan", "inf", "dim", "1-D", "topk0-no-pstk"])
    def test_invalid_queries_raise(self, spark, ds, apd_store_root, bad):
        """Checked on the driver before any job: a NaN query used to be routed
        to no segment and silently get no rows."""
        queries, topk, pstk = ds.queries.copy(), 10, True
        if bad == "nan":
            queries[3, 0] = np.nan
        elif bad == "inf":
            queries[3, 0] = np.inf
        elif bad == "dim":
            queries = queries[:, :-1]
        elif bad == "1-D":
            queries = queries[0]
        else:
            topk, pstk = 0, False
        with _no_spark_jobs(spark), pytest.raises(ValueError):
            query_index(spark, apd_store_root, queries, topk, use_per_shard_topk=pstk)

    def test_checkpoint_stages_written(self, spark, ds, apd_store_root, tmp_path):
        ck = str(tmp_path / "stages")
        query_index(spark, apd_store_root, ds.queries[:10], 5, ef=50,
                    checkpoint_dir=ck).count()
        names = os.listdir(ck)
        for stage in ("query-partitions-", "partials-", "shard-results-"):
            assert any(n.startswith(stage) for n in names), (stage, names)

    def test_per_shard_topk_restricts_partials(self, spark, ds, apd_store_root):
        """perShardTopK < topK: per (query, shard), at most pstk survivors
        reach the broker-side merge."""
        topk = 20
        pstk = per_shard_topk(topk, 2, 0.95)
        assert pstk < topk
        res_on = query_index(spark, apd_store_root, ds.queries, topk, ef=100,
                             use_per_shard_topk=True).toPandas()
        res_off = query_index(spark, apd_store_root, ds.queries, topk, ef=100,
                              use_per_shard_topk=False).toPandas()
        # both still return exactly topk rows per query
        assert (res_on.groupby("query_id").size() == topk).all()
        assert (res_off.groupby("query_id").size() == topk).all()

    def test_recall_close_with_per_shard_topk(self, spark, ds, gt, apd_store_root):
        """Sec 5.3.2: the confidence interval keeps the recall drop tiny."""
        a = query_index(spark, apd_store_root, ds.queries, 20, ef=100,
                        use_per_shard_topk=True).toPandas()
        b = query_index(spark, apd_store_root, ds.queries, 20, ef=100,
                        use_per_shard_topk=False).toPandas()
        assert recall_at_k(a, gt, 20) >= recall_at_k(b, gt, 20) - 0.02

    def test_matches_serving_broker(self, spark, ds, apd_store_root, dup_store_root):
        """Offline Spark pipeline ≡ online broker path on the same store, and
        on a store of duplicated vectors, whose exact ties both HNSW search
        paths must break alike. The broker searches one query per segment (the
        serial kernel); offline, every partition gets enough probes for the
        lockstep kernel. Every partition of the APD store is inside the scan
        rule, and every partition of the duplicates store outside it, so
        there both walks run."""
        more = gaussian_mixture(n=2000, dim=12, n_clusters=16, n_queries=200, seed=51)
        np.testing.assert_array_equal(more.base, ds.base)  # the stores' data
        queries = more.queries
        for root, ef, scans in [(apd_store_root, 100, True), (dup_store_root, 10, False)]:
            store = IndexStore(root)
            for s, m in store.list_partitions():
                idx = store.read_index(s, m)
                assert graph._use_scan(idx.n_items, ef, idx.M0) is scans, (s, m, idx.n_items)
            meta = store.load_metadata()
            routes = store.load_segmenter().route(queries, spill=meta.spill)
            probes = np.bincount(np.concatenate(routes), minlength=meta.n_segments)
            assert probes.min() >= graph._BATCH_MIN, probes  # per partition, in every shard
            res = query_index(spark, root, queries, 10, ef=ef).toPandas()
            with Broker(store, ef=ef) as broker:
                for q in range(len(queries)):
                    ids, dists = broker.search(queries[q], 10)
                    offline = res[res.query_id == q].sort_values("rank")
                    np.testing.assert_array_equal(offline["neighbor_id"].to_numpy(), ids)
                    np.testing.assert_array_equal(offline["dist"].to_numpy(np.float32), dists)


class TestEmptyPartitions:
    """12 points over RS with 2 shards × 8 segments: several (shard, segment)
    partitions receive no rows, yet both query paths see the full grid."""

    n_executors = 4

    @pytest.fixture(scope="class")
    def tiny(self, spark, tmp_path_factory):
        ds = gaussian_mixture(n=12, dim=6, n_clusters=2, n_queries=5, seed=7)
        root = str(tmp_path_factory.mktemp("tiny") / "rs")
        summary = build_index(spark, vectors_to_df(spark, ds.base, ds.ids), root,
                              RandomSegmenter(8), 2, n_executors=self.n_executors,
                              ef_construction=20, hnsw_m=4)
        return ds, root, summary

    def test_full_grid_built(self, tiny):
        _, root, summary = tiny
        grid = [(s, m) for s in range(2) for m in range(8)]
        assert list(zip(summary["shard_id"], summary["segment_id"])) == grid
        assert (summary["n_items"] == 0).any() and summary["n_items"].sum() == 12
        assert IndexStore(root).list_partitions() == grid

    @pytest.mark.parametrize("k", [5, 20])
    def test_offline_and_online_agree(self, spark, tiny, k):
        ds, root, _ = tiny
        res = query_index(spark, root, ds.queries, k, ef=50).toPandas()
        with Broker(IndexStore(root), ef=50) as broker:
            for q in range(len(ds.queries)):
                offline = res[res.query_id == q].sort_values("rank")
                assert offline["rank"].tolist() == list(range(1, min(k, 12) + 1))
                ids, _ = broker.search(ds.queries[q], k)
                np.testing.assert_array_equal(offline["neighbor_id"].to_numpy(), ids)

    @pytest.mark.parametrize("fault", ["lost-empty", "lost", "truncated", "pickled-empty"])
    def test_missing_partition_raises(self, spark, tiny, tmp_path, fault):
        """A lost, truncated or pickled file, empty partition or not, fails
        both paths loudly."""
        self._check_broken_partition(spark, tiny, tmp_path, fault, last_shard=False)

    @pytest.mark.parametrize("fault", ["lost-empty", "lost", "truncated", "pickled-empty"])
    def test_missing_partition_in_last_shard_raises(self, spark, tiny, tmp_path, fault):
        """The same, for a file of the last shard, which the Broker's
        searcher process loads: its error comes back as the same class."""
        self._check_broken_partition(spark, tiny, tmp_path, fault, last_shard=True)

    @staticmethod
    def _check_broken_partition(spark, tiny, tmp_path, fault, *, last_shard):
        ds, root, summary = tiny
        lost = summary[(summary["n_items"] == 0) == fault.endswith("-empty")]
        if last_shard:
            lost = lost[lost["shard_id"] == summary["shard_id"].max()]
        lost = lost.iloc[0]
        broken = str(tmp_path / "broken")
        shutil.copytree(root, broken)
        path = Path(IndexStore(broken).index_path(lost["shard_id"], lost["segment_id"]))
        if fault.startswith("lost"):
            path.unlink()
            error = FileNotFoundError
        else:
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2] if fault == "truncated"
                             else pickle.dumps({"dim": ds.dim, "levels": []}))
            error = ValueError
        with pytest.raises(Exception, match=error.__name__):
            query_index(spark, broken, ds.queries, 5, ef=50).toPandas()
        with pytest.raises(error):
            Broker(IndexStore(broken), ef=50)


class TestEmptyBuckets(TestEmptyPartitions):
    """``n_executors=None``: 16 buckets, one per partition, so whole buckets
    get no rows, and their tasks must still write the empty indexes."""

    n_executors = None


def test_missing_store_raises_and_stays_missing(spark, ds, tmp_path):
    """Both query paths refuse a store that is not there, and neither
    creates its directory on the way."""
    root = tmp_path / "absent" / "idx"
    with pytest.raises(FileNotFoundError):
        query_index(spark, str(root), ds.queries, 5)
    with pytest.raises(FileNotFoundError):
        Broker(IndexStore(str(root)))
    assert not (tmp_path / "absent").exists()
