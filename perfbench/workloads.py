"""The two LANNS workloads: offline query and online serve.

Each workload builds its store, warms up, then times whole passes of one
job for about ``--seconds`` (see ``timed_passes``; there is always at
least one). Every pass is checked for correct output. The traced run then
times one more pass with spans on, and calls each layer's public functions
on the same inputs to get the per-layer figures.

Why these two (see README.md):

- ``query_sift`` is the Spark read path: routing shuffle, HNSW search and
  the two window merges, with no inserts. Its set-up builds the store, so
  the write path (HNSW insert, tagging, serialize+write) is in its
  ``setup_s`` and its traced run gives the write-path layers.
- ``serve_groups`` runs no Spark in the timed part: HNSW search plus the
  in-node and broker merges, at another dim and k, with a long fan-out
  tail.
"""
from __future__ import annotations

import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from repro.bruteforce.local import exact_topk
from repro.bruteforce.spark_bf import merge_topk
from repro.core.index_store import IndexStore
from repro.core.indexing import build_index
from repro.core.partitioner import route_queries, shard_of, tag_partitions
from repro.core.querying import PARTIAL_SCHEMA, query_index
from repro.core.topk import per_shard_topk
from repro.hnsw.graph import HNSWIndex
from repro.segmenters.hyperplane import HyperplaneTreeSegmenter
from repro.segmenters.learning import learn_segmenter
from repro.serving.broker import Broker
from repro.serving.searcher import Searcher
from repro.synth_data import groups_like, sift_like, vectors_to_df

from checks import (
    check_matrix,
    check_store,
    check_topk,
    expected_partitions,
    recall_per_query,
    recall_split,
    store_bytes,
)
from tracing import Tracer

N_EXECUTORS = 4  # E: executor buckets per Spark job
SPILL = "virtual"
ALPHA = 0.15
HNSW = dict(hnsw_m=12, ef_construction=100)

# Sizes are set so that every run, set-up included, ends within about a
# minute on 4 cores.
# query_sift: sift_like n=4k, d=32, APD 2 shards x 4 segments.
SIFT_N, SIFT_SHARDS, SIFT_SEGMENTS, SIFT_SAMPLE = 4_000, 2, 4, 2_000
SIFT_TOPK, SIFT_EF = 100, 160
# The query count is part of the workload: each job has a fixed cost of a
# few seconds, about 40% of a 1000-query job here.
N_QUERY = 1_000
# Warm-up is one untimed job of the timed size: after a 200-query warm-up
# job the next two 1000-query jobs ran 10-40% slower than later ones.
N_SEARCH_SAMPLE = 300  # queries for the driver-side search in the traced run

# serve_groups: groups_like n=4k, d=64, APD 2 shards x 8 segments; 1000
# requests a pass, so a run of two or more passes has 20 or more beyond
# the p99.
GROUPS_N, GROUPS_SHARDS, GROUPS_SEGMENTS, GROUPS_SAMPLE = 4_000, 2, 8, 3_000
N_SERVE = 1_000
N_WARM_SERVE = 100
# ms_per_item is the median over blocks of this many consecutive requests,
# so a burst of interference on a shared host moves one block, not the run.
SERVE_BLOCK = 250
SERVE_TOPK, SERVE_EF = 15, 100

END_TO_END = {
    "setup_s": "s",
    "ms_per_item": "ms",
    "recall_at_10": "fraction",
    "recall_at_topk": "fraction",
    "store_bytes_per_vec": "B",
}

PER_LAYER = {
    "hnsw.insert_ms_per_pt": "ms",
    "hnsw.search_ms_per_probe": "ms",
    "hnsw.serialize_ms": "ms",
    "hnsw.deserialize_ms": "ms",
    "hnsw.bytes_per_vec": "B",
    "segmenters.assign_us_per_pt": "us",
    "segmenters.route_us_per_q": "us",
    "segmenters.fanout_mean": "count",
    "segmenters.fanout_p99": "count",
    "core.partitioner.tag_s": "s",
    "core.partitioner.dup_factor": "ratio",
    "core.partitioner.size_max_over_mean": "ratio",
    "core.partitioner.route_s": "s",
    "core.partitioner.routed_rows": "count",
    "core.indexing.build_s": "s",
    "core.indexing.kernel_s_sum": "s",
    "core.indexing.spark_overhead_s": "s",
    "core.querying.search_ms_per_q": "ms",
    "core.querying.spark_overhead_ms_per_q": "ms",
    "core.querying.merge_l1_s": "s",
    "core.querying.merge_l2_s": "s",
    "core.topk.per_shard_k": "count",
    "core.topk.candidates_per_q": "count",
    "core.topk.useful_frac": "ratio",
    "core.index_store.read_ms_per_partition": "ms",
    "core.index_store.broker_load_s": "s",
    "serving.searcher_ms_per_q": "ms",
    "serving.broker_merge_ms_per_q": "ms",
    "serving.p50_ms": "ms",
    "serving.p99_ms": "ms",
    "recall.route_ceiling": "fraction",
    "recall.pstk_ceiling": "fraction",
    "recall.graph_loss": "fraction",
    "trace.untraced_ms_per_item": "ms",
    "trace.overhead_ms_per_item": "ms",
}


@dataclass
class Ctx:
    spark: object
    seed: int
    seconds: float
    trace: bool
    work: str  # scratch directory for stores; removed when the run ends
    t0: float  # process start, perf_counter clock
    # Stops the Spark session and its JVM for good; a workload whose timed
    # part runs no Spark calls it first, so an idle JVM does not share the
    # cores with the timed work (it made serve passes vary by +-12%).
    release_spark: Callable[[], None]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PER_LAYER, 0.0))
    report: dict[str, tuple[float, str]] = field(default_factory=dict)  # paper-style names
    tracer: Tracer = field(default_factory=Tracer)
    walls: list[float] = field(default_factory=list)  # seconds per timed pass


# ------------------------------------------------------------------ helpers
def timed_passes(seconds: float, one_pass) -> tuple[list[float], list]:
    """Run ``one_pass(i)`` while a pass as long as the last would end no
    more than half of it after ``seconds``, so a run measures about
    ``seconds``; returns each pass's wall time and result. Checks run after
    timing."""
    walls, results = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(one_pass(len(walls)))
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start + walls[-1] / 2 > seconds:
            return walls, results


def learn(base: np.ndarray, n_segments: int, n_sample: int, seed: int):
    sample = base[np.random.default_rng(seed).choice(base.shape[0], n_sample, replace=False)]
    return learn_segmenter("APD", n_segments, sample=sample, alpha=ALPHA, seed=seed)


def build_store(ctx: Ctx, df, root: str, segmenter, n_shards: int) -> pd.DataFrame:
    shutil.rmtree(root, ignore_errors=True)
    return build_index(
        ctx.spark, df, root, segmenter, n_shards,
        spill=SPILL, n_executors=N_EXECUTORS, **HNSW,
    )


def noop_write(df) -> None:
    """Materialize every column of ``df`` without keeping the rows."""
    df.write.format("noop").mode("overwrite").save()


def short_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()[-400:]


def search_store(
    root: str, queries: np.ndarray, topk: int, pstk: int, ef: int, tracer: Tracer
) -> tuple[np.ndarray, np.ndarray, int]:
    """Driver-side route + search + two-level merge over a built store,
    through the store's public functions. Returns (ids, dists, probes);
    rows with fewer than ``topk`` results are padded with -1 / inf."""
    store = IndexStore(root)
    meta = store.load_metadata()
    segmenter = store.load_segmenter()
    probed = np.zeros((len(queries), meta.n_segments), dtype=bool)
    for i, segs in enumerate(segmenter.route(queries, spill=meta.spill)):
        probed[i, segs] = True
    per_shard: list[list[list[tuple[np.ndarray, np.ndarray]]]] = [
        [[] for _ in range(meta.n_shards)] for _ in queries
    ]
    probes = 0
    for s in range(meta.n_shards):
        for m in range(meta.n_segments):
            qs = np.flatnonzero(probed[:, m])
            if qs.size == 0:
                continue
            idx = store.read_index(s, m)
            with tracer.span("hnsw.search"):
                ids, d = idx.search(queries[qs], pstk, ef=ef)
            probes += qs.size
            for j, q in enumerate(qs.tolist()):
                per_shard[q][s].append((ids[j], d[j]))
    out_i = np.full((len(queries), topk), -1, dtype=np.int64)
    out_d = np.full((len(queries), topk), np.inf)
    for q, shards in enumerate(per_shard):
        level2 = [_best(parts, pstk) for parts in shards if parts]
        ids, d = _best(level2, topk)
        out_i[q, : len(ids)], out_d[q, : len(ids)] = ids, d
    return out_i, out_d, probes


def _best(parts: list[tuple[np.ndarray, np.ndarray]], k: int):
    """Top-k by (dist, id) over candidate lists, each id kept once."""
    ids = np.concatenate([p[0] for p in parts])
    d = np.concatenate([p[1] for p in parts]).astype(np.float64)
    order = np.lexsort((ids, d))
    ids, d = ids[order], d[order]
    _, first = np.unique(ids, return_index=True)
    first.sort()
    return ids[first][:k], d[first][:k]


def to_matrix(out: pd.DataFrame, nq: int, k: int) -> np.ndarray:
    """Long (query_id, neighbor_id, rank) rows -> (nq, k) ids, -1 if absent."""
    got = np.full((nq, k), -1, dtype=np.int64)
    sel = out[(out["rank"] >= 1) & (out["rank"] <= k)]
    got[sel["query_id"].to_numpy(), sel["rank"].to_numpy() - 1] = sel["neighbor_id"].to_numpy()
    return got


def score_recall(o: Outcome, got, gt, queries, base, ids, segmenter, n_shards, pstk, topk):
    """Recall@10 and @topk, the exact recall split, and its ordering check."""
    rec = recall_per_query(got, gt, topk)
    route_c, pstk_c = recall_split(queries, base, ids, gt, segmenter, n_shards, SPILL, pstk, topk)
    o.e2e["recall_at_10"] = float(recall_per_query(got, gt, 10).mean())
    o.e2e["recall_at_topk"] = float(rec.mean())
    o.layer["recall.route_ceiling"] = float(route_c.mean())
    o.layer["recall.pstk_ceiling"] = float(pstk_c.mean())
    o.layer["recall.graph_loss"] = float(pstk_c.mean() - rec.mean())
    if not (route_c.mean() >= pstk_c.mean() >= rec.mean()):
        o.problems.append(
            f"recall split out of order: route {route_c.mean():.4f}, "
            f"pstk {pstk_c.mean():.4f}, measured {rec.mean():.4f}"
        )


def routing_layers(o: Outcome, routes, sizes: dict, n_shards: int, pstk: int, topk: int) -> None:
    """Fan-out, and the candidates each query's probes return: every probed
    (shard, segment) returns min(pstk, n_items) of them."""
    fan = np.asarray([len(r) for r in routes])
    o.layer["segmenters.fanout_mean"] = float(fan.mean())
    o.layer["segmenters.fanout_p99"] = float(np.percentile(fan, 99))
    cands = sum(
        min(pstk, sizes[(s, int(m))]) for r in routes for m in r for s in range(n_shards)
    ) / len(routes)
    o.layer["core.topk.per_shard_k"] = float(pstk)
    o.layer["core.topk.candidates_per_q"] = cands
    o.layer["core.topk.useful_frac"] = topk / cands


# Spans around an index read and the deserialization inside it.
READ_SPANS = [
    (IndexStore, "read_index", "core.index_store.read_index"),
    (HNSWIndex, "from_bytes", "hnsw.deserialize"),
]


def read_layers(o: Outcome, root: str, n_items: int) -> None:
    """Per-partition read and deserialize times from the READ_SPANS, and
    index bytes per vector from the store's files."""
    t = o.tracer
    n_parts = len(t.of("core.index_store.read_index"))
    o.layer["core.index_store.read_ms_per_partition"] = (
        t.total("core.index_store.read_index") * 1e3 / n_parts
    )
    o.layer["hnsw.deserialize_ms"] = t.total("hnsw.deserialize") * 1e3 / n_parts
    store = IndexStore(root)
    index_bytes = sum(os.path.getsize(store.index_path(s, m)) for s, m in store.list_partitions())
    o.layer["hnsw.bytes_per_vec"] = index_bytes / n_items


def store_layers(o: Outcome, root: str, n_items: int) -> None:
    """Read every partition through the store, then serialize it again."""
    store = IndexStore(root)
    with o.tracer.patch(READ_SPANS):
        for s, m in store.list_partitions():
            idx = store.read_index(s, m)
            with o.tracer.span("hnsw.serialize"):
                idx.to_bytes()
    read_layers(o, root, n_items)
    o.layer["hnsw.serialize_ms"] = (
        o.tracer.total("hnsw.serialize") * 1e3 / len(o.tracer.of("hnsw.serialize"))
    )


def build_layers(o: Outcome, ctx: Ctx, ds, df, segmenter, expected: dict, summary, build_s: float):
    """Write-path layers of the store built in set-up: the split of its
    wall time, tagging, segment assignment, partition sizes, and HNSW
    insert on one real partition."""
    t = o.tracer
    kernel = float(summary["build_seconds"].sum())
    o.layer["core.indexing.build_s"] = build_s
    o.layer["core.indexing.kernel_s_sum"] = kernel
    o.layer["core.indexing.spark_overhead_s"] = build_s - kernel / N_EXECUTORS
    with t.span("core.partitioner.tag_partitions"):
        noop_write(tag_partitions(ctx.spark, df, segmenter, SIFT_SHARDS, spill=SPILL))
    o.layer["core.partitioner.tag_s"] = t.total("core.partitioner.tag_partitions")
    with t.span("segmenters.assign"):
        assigned = segmenter.assign(ds.base, ds.ids, spill=SPILL)
    o.layer["segmenters.assign_us_per_pt"] = t.total("segmenters.assign") * 1e6 / ds.n
    sizes = np.asarray(list(expected.values()))
    o.layer["core.partitioner.dup_factor"] = sizes.sum() / ds.n
    o.layer["core.partitioner.size_max_over_mean"] = sizes.max() / sizes.mean()
    # Insert cost on one real partition, (shard 0, segment 0), in the
    # build's insertion order (ascending id) and seed.
    part = np.flatnonzero(
        (shard_of(ds.ids, SIFT_SHARDS) == 0) & np.asarray([0 in a for a in assigned])
    )
    part = part[np.argsort(ds.ids[part])]
    idx = HNSWIndex(ds.dim, M=HNSW["hnsw_m"], ef_construction=HNSW["ef_construction"], seed=0)
    with t.span("hnsw.add_items"):
        idx.add_items(ds.base[part], ds.ids[part])
    o.layer["hnsw.insert_ms_per_pt"] = t.total("hnsw.add_items") * 1e3 / len(part)


# --------------------------------------------------------------- query_sift
def query_sift(ctx: Ctx) -> Outcome:
    o = Outcome()
    ds = sift_like(n=SIFT_N, n_queries=N_QUERY, seed=ctx.seed)
    segmenter = learn(ds.base, SIFT_SEGMENTS, SIFT_SAMPLE, ctx.seed)
    expected = expected_partitions(ds.base, ds.ids, segmenter, SIFT_SHARDS, SPILL)
    df = vectors_to_df(ctx.spark, ds.base, ds.ids)
    root = os.path.join(ctx.work, "store")
    t_build = time.perf_counter()
    summary = build_store(ctx, df, root, segmenter, SIFT_SHARDS)  # also warms the workers
    build_s = time.perf_counter() - t_build
    o.report["build_s"] = (build_s, "s")
    o.problems += check_store(root, summary, expected)
    pstk = per_shard_topk(SIFT_TOPK, SIFT_SHARDS)

    def run_query(queries: np.ndarray) -> pd.DataFrame:
        return query_index(
            ctx.spark, root, queries, SIFT_TOPK, ef=SIFT_EF, n_executors=N_EXECUTORS
        ).toPandas()

    run_query(ds.queries)  # warm-up
    o.e2e["setup_s"] = time.perf_counter() - ctx.t0

    nq = len(ds.queries)

    def one_pass(i: int):
        try:
            return run_query(ds.queries)
        except Exception as exc:  # every query of a failed job has failed
            o.problems.append(f"query pass {i}: {short_error(exc)}")
            return None

    walls, passes = timed_passes(ctx.seconds, one_pass)
    o.walls = walls
    outputs = [out for out in passes if out is not None]
    o.attempted += nq * len(passes)
    o.failed += nq * (len(passes) - len(outputs))
    for out in outputs:
        ok = check_topk(
            out["query_id"].to_numpy(), out["neighbor_id"].to_numpy(), out["dist"].to_numpy(),
            out["rank"].to_numpy(), ds.queries, ds.base, ds.ids, SIFT_TOPK,
        )
        o.failed += int((~ok).sum())
    o.e2e["ms_per_item"] = float(np.median(walls)) * 1e3 / nq
    o.e2e["store_bytes_per_vec"] = store_bytes(root) / ds.n
    o.report["query_ms_per_q"] = (o.e2e["ms_per_item"], "ms")
    if not outputs:
        return o
    gt, _ = exact_topk(ds.queries, ds.base, SIFT_TOPK, ids=ds.ids)
    got = to_matrix(outputs[-1], nq, SIFT_TOPK)
    score_recall(o, got, gt, ds.queries, ds.base, ds.ids, segmenter, SIFT_SHARDS, pstk, SIFT_TOPK)
    o.report["query_recall_at_10"] = (o.e2e["recall_at_10"], "fraction")
    o.report["query_recall_at_100"] = (o.e2e["recall_at_topk"], "fraction")

    if ctx.trace:
        t = o.tracer
        o.layer["trace.untraced_ms_per_item"] = o.e2e["ms_per_item"]
        with t.span("core.querying.query_index"):
            run_query(ds.queries)
        wall_ms = t.total("core.querying.query_index") * 1e3 / nq
        o.layer["trace.overhead_ms_per_item"] = wall_ms - o.e2e["ms_per_item"]
        qdf = vectors_to_df(ctx.spark, ds.queries, id_col="query_id")
        with t.span("core.partitioner.route_queries"):
            noop_write(route_queries(ctx.spark, qdf, segmenter, SIFT_SHARDS, spill=SPILL))
        o.layer["core.partitioner.route_s"] = t.total("core.partitioner.route_queries")
        with t.span("segmenters.route"):
            routes = segmenter.route(ds.queries, spill=SPILL)
        o.layer["segmenters.route_us_per_q"] = t.total("segmenters.route") * 1e6 / nq
        routing_layers(o, routes, expected, SIFT_SHARDS, pstk, SIFT_TOPK)
        o.layer["core.partitioner.routed_rows"] = float(sum(map(len, routes)) * SIFT_SHARDS)
        sample = ds.queries[:N_SEARCH_SAMPLE]
        _, _, probes = search_store(root, sample, SIFT_TOPK, pstk, SIFT_EF, t)
        store_layers(o, root, ds.n)
        search_ms = t.total("hnsw.search") * 1e3
        o.layer["hnsw.search_ms_per_probe"] = search_ms / probes
        o.layer["core.querying.search_ms_per_q"] = search_ms / len(sample)
        # Kernel work of the job, spread over E executors: every search
        # bucket reads its partitions once, then searches its probes.
        kernel_ms = (
            o.layer["core.querying.search_ms_per_q"]
            + o.layer["core.index_store.read_ms_per_partition"] * len(expected) / nq
        )
        o.layer["core.querying.spark_overhead_ms_per_q"] = wall_ms - kernel_ms / N_EXECUTORS
        merge_layers(o, ctx, ds, segmenter, routes, pstk, expected, gt)
        build_layers(o, ctx, ds, df, segmenter, expected, summary, build_s)
    return o


def merge_layers(o: Outcome, ctx: Ctx, ds, segmenter, routes, pstk: int, sizes: dict, gt) -> None:
    """Time both window merges on materialized partials of the full query
    set. The partials are the exact top-pstk of every routed probe: the
    same row count and keys as the job's, so the merge does the same work,
    and the merged recall must equal the perShardTopK ceiling."""
    shards = shard_of(ds.ids, SIFT_SHARDS)
    assigned = segmenter.assign(ds.base, ds.ids, spill=SPILL)
    frames = []
    for s, m in sizes:
        qs = np.flatnonzero([m in r for r in routes])
        rows = np.flatnonzero((shards == s) & np.asarray([m in a for a in assigned]))
        if qs.size == 0 or rows.size == 0:
            continue
        ids, d = exact_topk(ds.queries[qs], ds.base[rows], pstk, ids=ds.ids[rows])
        kk = ids.shape[1]
        frames.append(
            pd.DataFrame(
                {
                    "query_id": np.repeat(qs, kk),
                    "shard_id": s,
                    "segment_id": m,
                    "neighbor_id": ids.ravel(),
                    "dist": d.ravel().astype(np.float64),
                }
            )
        )
    partials = ctx.spark.createDataFrame(pd.concat(frames), schema=PARTIAL_SCHEMA).cache()
    partials.count()
    t = o.tracer
    level1 = merge_topk(partials, pstk, by=("query_id", "shard_id")).drop("rank")
    with t.span("core.querying.merge_l1"):
        noop_write(level1)
    level1 = level1.cache()
    level1.count()
    level2 = merge_topk(level1.drop("shard_id"), SIFT_TOPK, by=("query_id",))
    with t.span("core.querying.merge_l2"):
        noop_write(level2)
    o.layer["core.querying.merge_l1_s"] = t.total("core.querying.merge_l1")
    o.layer["core.querying.merge_l2_s"] = t.total("core.querying.merge_l2")
    out = level2.toPandas()
    merged = recall_per_query(to_matrix(out, len(ds.queries), SIFT_TOPK), gt, SIFT_TOPK).mean()
    if abs(merged - o.layer["recall.pstk_ceiling"]) > 1e-9:
        o.problems.append(f"merged exact partials recall {merged} != pstk ceiling")
    partials.unpersist()
    level1.unpersist()


# ------------------------------------------------------------- serve_groups
def serve_groups(ctx: Ctx) -> Outcome:
    o = Outcome()
    ds = groups_like(n=GROUPS_N, n_queries=N_SERVE, seed=ctx.seed)
    segmenter = learn(ds.base, GROUPS_SEGMENTS, GROUPS_SAMPLE, ctx.seed)
    expected = expected_partitions(ds.base, ds.ids, segmenter, GROUPS_SHARDS, SPILL)
    df = vectors_to_df(ctx.spark, ds.base, ds.ids)
    root = os.path.join(ctx.work, "store")
    summary = build_store(ctx, df, root, segmenter, GROUPS_SHARDS)
    o.problems += check_store(root, summary, expected)
    ctx.release_spark()  # the rest of the run, traced part too, needs no Spark
    broker = Broker(IndexStore(root), ef=SERVE_EF)
    for q in ds.queries[:N_WARM_SERVE]:
        broker.search(q, SERVE_TOPK)
    o.e2e["setup_s"] = time.perf_counter() - ctx.t0

    nq, k = len(ds.queries), SERVE_TOPK
    lat: list[float] = []

    def one_pass(i: int):
        """Closed loop, one client: each query is sent when the last returns."""
        replies = []
        for j, q in enumerate(ds.queries):
            t = time.perf_counter()
            try:
                replies.append(broker.search(q, k))
            except Exception as exc:  # a failed request is counted, not fatal
                replies.append(None)
                o.problems.append(f"serve pass {i} query {j}: {short_error(exc)}")
            lat.append(time.perf_counter() - t)
        return replies

    walls, passes = timed_passes(ctx.seconds, one_pass)
    o.walls = walls
    got = np.full((nq, k), -1, dtype=np.int64)
    for replies in passes:
        dists = np.full((nq, k), np.inf)
        got[:] = -1
        for j, reply in enumerate(replies):
            if reply is not None:
                n = min(len(reply[0]), k)
                got[j, :n], dists[j, :n] = reply[0][:n], reply[1][:n]
        ok = check_matrix(got, dists, ds.queries, ds.base, ds.ids)
        o.attempted += nq
        o.failed += int((~ok).sum())
    lat_ms = np.asarray(lat) * 1e3
    blocks = lat_ms[: len(lat_ms) // SERVE_BLOCK * SERVE_BLOCK].reshape(-1, SERVE_BLOCK)
    o.e2e["ms_per_item"] = float(np.median(blocks.mean(axis=1)))
    o.e2e["store_bytes_per_vec"] = store_bytes(root) / ds.n
    o.report["serve_qps"] = (1e3 / o.e2e["ms_per_item"], "1/s")
    o.report["serve_p50_ms"] = (float(np.percentile(lat_ms, 50)), "ms")
    o.report["serve_p99_ms"] = (float(np.percentile(lat_ms, 99)), "ms")
    o.report["serve_latency_samples"] = (float(len(lat_ms)), "count")
    pstk = per_shard_topk(k, GROUPS_SHARDS)
    gt, _ = exact_topk(ds.queries, ds.base, k, ids=ds.ids)
    score_recall(o, got, gt, ds.queries, ds.base, ds.ids, segmenter, GROUPS_SHARDS, pstk, k)
    o.report["serve_recall_at_15"] = (o.e2e["recall_at_topk"], "fraction")

    if ctx.trace:
        t = o.tracer
        o.layer["trace.untraced_ms_per_item"] = o.e2e["ms_per_item"]
        o.layer["serving.p50_ms"] = o.report["serve_p50_ms"][0]
        o.layer["serving.p99_ms"] = o.report["serve_p99_ms"][0]
        with t.patch(READ_SPANS), t.span("serving.broker_load"):
            broker = Broker(IndexStore(root), ef=SERVE_EF)
        o.layer["core.index_store.broker_load_s"] = t.total("serving.broker_load")
        read_layers(o, root, ds.n)
        with t.patch(
            [
                (Broker, "search", "serving.broker"),
                (Searcher, "search", "serving.searcher"),
                (HyperplaneTreeSegmenter, "route", "segmenters.route"),
                (HNSWIndex, "search", "hnsw.search"),
            ]
        ):
            with t.span("serving.pass"):
                for q in ds.queries:
                    broker.search(q, k)
        wall_ms = t.total("serving.pass") * 1e3 / nq
        o.layer["trace.overhead_ms_per_item"] = wall_ms - o.e2e["ms_per_item"]
        o.layer["serving.searcher_ms_per_q"] = t.total("serving.searcher") * 1e3 / nq
        o.layer["serving.broker_merge_ms_per_q"] = t.self_seconds("serving.broker") * 1e3 / nq
        o.layer["hnsw.search_ms_per_probe"] = (
            t.total("hnsw.search") * 1e3 / len(t.of("hnsw.search"))
        )
        o.layer["segmenters.route_us_per_q"] = t.total("segmenters.route") * 1e6 / nq
        routes = segmenter.route(ds.queries, spill=SPILL)
        routing_layers(o, routes, expected, GROUPS_SHARDS, pstk, k)
    return o


WORKLOADS = {"query_sift": query_sift, "serve_groups": serve_groups}
