"""The paper's evaluation (Sec 6, Tables 1-9): sweeps, paper numbers and
table renderers, in one module.

``jobs/tables.py --group <g>`` runs one entry of ``TABLE_GROUPS`` and
writes each of its tables to ``RESULTS_DIR``/<name>.txt through
``emit_table``. Paper numbers sit next to each runner so every table
prints paper-vs-measured rows (also recorded in EXPERIMENTS.md).

Scale substitutions (DESIGN.md): SIFT1M → sift_like 20k×32; GIST1M →
gist_like 10k×128; Groups/People/PYMK/NearDupe → clustered proxies.
Absolute times are Python on one node, not the paper's JVM on YARN;
EXPERIMENTS.md compares *shapes* (which method wins, how times scale
with executors).
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.bruteforce.local import exact_topk
from repro.core.index_store import IndexStore
from repro.core.indexing import build_index
from repro.core.querying import query_index
from repro.eval.recall import recall_at_k, recall_table
from repro.segmenters.learning import learn_segmenter
from repro.serving.broker import Broker
from repro.synth_data import (
    AnnDataset,
    gist_like,
    groups_like,
    neardupe_like,
    people_like,
    pymk_like,
    sift_like,
    vectors_to_df,
)

EXECUTORS = (2, 4, 8)
RECALL_KS = (1, 5, 10, 15, 50, 100)
# Fixed settings of the SIFT/GIST sweep (paper Sec 6.1): segmenter kinds,
# top-K, spill band alpha, perShardTopK confidence and search ef. Every
# runner builds its HNSW partitions with HNSW_M and EF_CONSTRUCTION.
KINDS = ("RS", "RH", "APD")
TOPK = 100
ALPHA = 0.15
CONFIDENCE = 0.95
HNSW_M = 12
EF_CONSTRUCTION = 100
EF_SEARCH = 160
SPILL = "virtual"
SEED = 0

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))), "results"),
)


def emit_table(name: str, title: str, text: str) -> None:
    """Print a rendered table and persist it to ``RESULTS_DIR``/<name>.txt."""
    block = f"=== {title} ===\n{text}"
    print("\n" + block)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(block + "\n")

# ----------------------------------------------------------- paper numbers
# Table 1 (SIFT1M recall) / Table 4 (GIST1M recall)
PAPER_T1 = {
    "HNSW": [0.9912, 0.9969, 0.9977, 0.998, 0.9982, 0.9981],
    "RS(1,8)": [0.979, 0.9862, 0.9865, 0.9867, 0.987, 0.987],
    "RH(1,8)": [0.841, 0.818, 0.804, 0.798, 0.776, 0.762],
    "APD(1,8)": [0.9772, 0.977, 0.975, 0.973, 0.9666, 0.9616],
    "RS(2,4)": [0.989, 0.9944, 0.995, 0.995, 0.996, 0.996],
    "RH(2,4)": [0.9169, 0.9132, 0.9068, 0.9033, 0.8922, 0.885],
    "APD(2,4)": [0.9898, 0.9948, 0.9944, 0.9939, 0.9926, 0.9908],
}
PAPER_T2 = {  # build minutes, SIFT1M: executors -> {method: minutes}
    2: {"HNSW": 40, "RS": 8.2, "RH": 8.1, "APD": 8.4},
    4: {"RS": 6.6, "RH": 6.8, "APD": 6.3},
    8: {"RS": 4.3, "RH": 4.4, "APD": 4.1},
}
PAPER_T3 = {  # query ms, SIFT1M: (partitioning, executors) -> {method: ms}
    ("(1,8)", 2): {"HNSW": 50.4, "RS": 58.8, "RH": 21, "APD": 16.8},
    ("(1,8)", 4): {"RS": 46.2, "RH": 16.8, "APD": 12.6},
    ("(1,8)", 8): {"RS": 25.8, "RH": 13.2, "APD": 10.2},
    ("(2,4)", 2): {"RS": 49.2, "RH": 46.8, "APD": 44.4},
    ("(2,4)", 4): {"RS": 38.4, "RH": 25.8, "APD": 25.2},
    ("(2,4)", 8): {"RS": 33, "RH": 17.4, "APD": 17.4},
}
PAPER_T4 = {
    "HNSW": [0.994, 0.995, 0.995, 0.995, 0.993, 0.989],
    "RS(1,8)": [0.995, 0.998, 0.999, 0.999, 0.999, 0.999],
    "RH(1,8)": [0.872, 0.858, 0.851, 0.843, 0.827, 0.812],
    "APD(1,8)": [0.931, 0.919, 0.912, 0.91, 0.908, 0.905],
}
PAPER_T5 = {
    2: {"HNSW": 577, "RS": 132, "RH": 128, "APD": 140},
    4: {"RS": 96, "RH": 108, "APD": 106},
    8: {"RS": 48, "RH": 54, "APD": 52},
}
PAPER_T6 = {  # query ms, GIST1M: (partitioning, executors) -> {method: ms}
    ("(1,8)", 2): {"HNSW": 336, "RS": 330, "RH": 156, "APD": 144},
    ("(1,8)", 4): {"RS": 222, "RH": 132, "APD": 108},
    ("(1,8)", 8): {"RS": 132, "RH": 96, "APD": 66},
}
# Table 7: (segments, spill%) -> (physical R@15, physical QPS, virtual R@15, virtual QPS)
PAPER_T7 = {
    (1, 0): (0.9458, 863.29, 0.9458, 863.29),
    (4, 10): (0.8400, 2619.02, 0.8526, 2186.93),
    (4, 20): (0.8861, 2432.23, 0.8853, 2010.44),
    (4, 30): (0.9268, 2392.42, 0.9272, 1984.21),
    (8, 10): (0.7901, 2816.11, 0.7866, 2852.21),
    (8, 20): (0.8510, 2774.32, 0.8525, 2643.21),
    (8, 30): (0.9105, 2710.24, 0.9112, 2573.0),
    (16, 10): (0.7359, 2993.32, 0.7362, 3240.06),
    (16, 20): (0.8078, 2878.29, 0.812, 3072.43),
    (16, 30): (0.8836, 2797.42, 0.892, 2985.34),
}
# Table 8: dataset -> (S, dim, index size, build time, query size, query time)
PAPER_T8 = {
    "PYMK": (20, 50, "100M", "8h", "370M", "10h"),
    "People": (32, 50, "180M", "8h40m", "20k", "10m"),
    "NearDupe": (1, 2048, "148k", "1h20m", "500k", "5m"),
    "Groups": (1, 256, "2.7M", "2h13m", "20k", "7m"),
}
# Table 9: dataset -> (S, dim, index size, query size, K, R@K)
PAPER_T9 = {
    "People": (32, 50, "180M", "20k", 50, 0.97),
    "PYMK": (20, 50, "100M", "1M", 100, 0.95),
    "NearDupe": (1, 2048, "148k", "0.5M", 100, 0.97),
    "Groups": (1, 256, "2.7M", "20k", 100, 0.97),
}


# ------------------------------------------------------------ SIFT / GIST
@dataclass
class ExperimentResult:
    """All measurements from one dataset sweep."""

    dataset: str
    topk: int
    # method key: "HNSW" or f"{kind}({S},{m})"
    recall: dict[str, dict[int, float]] = field(default_factory=dict)
    build_seconds: dict[tuple[str, int], float] = field(default_factory=dict)  # (method, E)
    query_ms: dict[tuple[str, int], float] = field(default_factory=dict)  # (method, E)
    segmenter_learn_seconds: dict[str, float] = field(default_factory=dict)


def run_lanns_experiment(
    spark: SparkSession,
    dataset: AnnDataset,
    work_dir: str,
    partitionings: tuple[tuple[int, int], ...],
    executors: tuple[int, ...] = EXECUTORS,
) -> ExperimentResult:
    """One dataset's full sweep (Tables 1-6): the single-machine HNSW
    baseline at the smallest executor count, then every ``KINDS``
    segmenter at each (n_shards, n_segments) partitioning and executor
    count. Records R@k, build seconds and query ms/query."""
    os.makedirs(work_dir, exist_ok=True)
    res = ExperimentResult(dataset=dataset.name, topk=TOPK)
    gt_ids, _ = exact_topk(
        dataset.queries, dataset.base, TOPK, ids=dataset.ids, metric=dataset.metric
    )
    df = vectors_to_df(spark, dataset.base, dataset.ids).cache()
    df.count()  # materialize so build timing excludes generation

    def one_config(method: str, segmenter, n_shards: int, e: int) -> pd.DataFrame:
        """Build + query at executor count ``e``; returns final results."""
        root = os.path.join(work_dir, f"{method}-E{e}".replace("(", "_").replace(")", "").replace(",", "_"))
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        build_index(
            spark, df, root, segmenter, n_shards,
            spill=SPILL, metric=dataset.metric, hnsw_m=HNSW_M,
            ef_construction=EF_CONSTRUCTION, n_executors=e, seed=SEED,
        )
        res.build_seconds[(method, e)] = time.perf_counter() - t0
        t0 = time.perf_counter()
        out = query_index(
            spark, root, dataset.queries, TOPK,
            ef=EF_SEARCH, confidence=CONFIDENCE, n_executors=e,
        ).toPandas()
        res.query_ms[(method, e)] = (
            (time.perf_counter() - t0) * 1000.0 / dataset.queries.shape[0]
        )
        return out

    out = one_config("HNSW", learn_segmenter("RS", 1), 1, min(executors))
    res.recall["HNSW"] = recall_table(out, gt_ids, RECALL_KS)

    n_learn_sample = min(dataset.n, max(2000, dataset.n // 4))
    for n_shards, n_segments in partitionings:
        for kind in KINDS:
            method = f"{kind}({n_shards},{n_segments})"
            t0 = time.perf_counter()
            segmenter = learn_segmenter(
                kind, n_segments,
                sample=dataset.base[
                    np.random.default_rng(SEED).choice(
                        dataset.n, n_learn_sample, replace=False
                    )
                ],
                alpha=ALPHA, seed=SEED,
            )
            res.segmenter_learn_seconds[method] = time.perf_counter() - t0
            for e in executors:
                out = one_config(method, segmenter, n_shards, e)
            res.recall[method] = recall_table(out, gt_ids, RECALL_KS)  # last E's result
    df.unpersist()
    return res


def run_sift(spark: SparkSession, work_dir: str, *, scale: float = 1.0) -> ExperimentResult:
    """Tables 1-3 sweep on the SIFT1M stand-in (scale<1 shrinks it)."""
    ds = sift_like(n=max(2000, int(20_000 * scale)), n_queries=max(50, int(400 * scale)))
    return run_lanns_experiment(spark, ds, work_dir, ((1, 8), (2, 4)))


def run_gist(spark: SparkSession, work_dir: str, *, scale: float = 1.0) -> ExperimentResult:
    """Tables 4-6 sweep on the GIST1M stand-in."""
    ds = gist_like(n=max(1500, int(10_000 * scale)), n_queries=max(40, int(200 * scale)))
    return run_lanns_experiment(spark, ds, work_dir, ((1, 8),))


# ----------------------------------------------------------------- Table 7
@dataclass(frozen=True)
class SpillRow:
    """One Table-7 row: segments × spill% × both spill modes."""

    segments: int
    spill_pct: int
    physical_recall: float
    physical_qps: float
    virtual_recall: float
    virtual_qps: float


def run_groups_spill(
    spark: SparkSession, work_dir: str, *, scale: float = 1.0, topk: int = 15
) -> list[SpillRow]:
    """Table 7: APD segmentation on the Groups stand-in, physical vs
    virtual spill across segment counts and spill fractions.

    spill% is the fraction of boundary traffic routed/duplicated both
    ways at each level — the paper's '30% spill' is α=0.15 (0.5±α band).
    The QPS is a single-threaded in-process broker measurement; the
    paper's absolute QPS came from production searchers, so only the
    *relative* QPS across configurations is comparable.
    """
    ds = groups_like(
        n=max(2000, int(12_000 * scale)), n_queries=max(100, int(500 * scale))
    )
    df = vectors_to_df(spark, ds.base, ds.ids).cache()
    df.count()
    gt, _ = exact_topk(ds.queries, ds.base, topk, ids=ds.ids)
    sample = ds.base[np.random.default_rng(0).choice(ds.n, min(ds.n, 6000), replace=False)]
    ef = 100

    def measure(store_root: str) -> tuple[float, float]:
        broker = Broker(IndexStore(store_root), ef=ef)
        out, stats = broker.benchmark(ds.queries, topk)
        rec = float(
            np.mean(
                [
                    len(set(out[i].tolist()) & set(gt[i].tolist())) / topk
                    for i in range(len(out))
                ]
            )
        )
        return rec, stats.qps

    rows: list[SpillRow] = []
    # segments=1 baseline (spill is irrelevant; paper reports one row)
    root = os.path.join(work_dir, "g-seg1")
    shutil.rmtree(root, ignore_errors=True)
    build_index(spark, df, root, learn_segmenter("RS", 1), 1,
                metric=ds.metric, hnsw_m=HNSW_M, ef_construction=EF_CONSTRUCTION)
    rec, qps = measure(root)
    rows.append(SpillRow(1, 0, rec, qps, rec, qps))

    for n_seg in (4, 8, 16):
        for spill_pct in (10, 20, 30):
            alpha = spill_pct / 200.0  # 2α of traffic spills per level
            seg = learn_segmenter("APD", n_seg, sample=sample, alpha=alpha, seed=1)
            res = {}
            for mode in ("physical", "virtual"):
                root = os.path.join(work_dir, f"g-{n_seg}-{spill_pct}-{mode}")
                shutil.rmtree(root, ignore_errors=True)
                build_index(spark, df, root, seg, 1, spill=mode,
                            metric=ds.metric, hnsw_m=HNSW_M, ef_construction=EF_CONSTRUCTION)
                res[mode] = measure(root)
            rows.append(
                SpillRow(n_seg, spill_pct, res["physical"][0], res["physical"][1],
                         res["virtual"][0], res["virtual"][1])
            )
    df.unpersist()
    return rows


def format_table7(rows: list[SpillRow]) -> str:
    """Paper-style Table 7 with the paper's numbers interleaved."""
    hdr = (
        f"{'Segments':>8} {'Spill':>6} | {'phys R@15':>9} {'phys QPS':>9} "
        f"{'virt R@15':>9} {'virt QPS':>9} | paper(phys R,QPS | virt R,QPS)"
    )
    lines = [hdr]
    for r in rows:
        p = PAPER_T7.get((r.segments, r.spill_pct))
        ptxt = (
            f"{p[0]:.4f},{p[1]:7.0f} | {p[2]:.4f},{p[3]:7.0f}" if p else "-"
        )
        lines.append(
            f"{r.segments:>8} {r.spill_pct:>5}% | {r.physical_recall:9.4f} "
            f"{r.physical_qps:9.1f} {r.virtual_recall:9.4f} {r.virtual_qps:9.1f} | {ptxt}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------- Tables 8-9
@dataclass(frozen=True)
class RealWorldRow:
    """One Table-8/9 row for a real-world-proxy dataset."""

    dataset: str
    n_shards: int
    dim: int
    index_size: int
    query_size: int
    build_seconds: float
    query_seconds: float
    k: int
    recall: float


REALWORLD_SPECS = {
    # name -> (generator, n_shards, n_segments, kind, K, alpha)
    # shard counts scaled from the paper (20→4, 32→8, 1→1, 1→1); alpha is
    # the per-use-case "optimal trade-off" spill (the paper tunes these
    # per production service; Groups' overlapping embedding space needs
    # a wider spill band to hold recall at K=100)
    "PYMK": (pymk_like, 4, 2, "APD", 100, 0.15),
    "People": (people_like, 8, 2, "APD", 50, 0.15),
    "NearDupe": (neardupe_like, 1, 1, "RS", 100, 0.15),
    "Groups": (groups_like, 1, 4, "APD", 100, 0.25),
}


def run_realworld(
    spark: SparkSession, work_dir: str, *, scale: float = 1.0
) -> list[RealWorldRow]:
    """Tables 8-9: end-to-end build+query times and recall for the four
    production-dataset proxies, each with its (scaled) shard count."""
    rows = []
    for name, (gen, n_shards, n_segments, kind, k, alpha) in REALWORLD_SPECS.items():
        ds = gen() if scale >= 1.0 else gen(
            n=max(1200, int(gen.__kwdefaults__["n"] * scale)),
            n_queries=max(50, int(200 * scale)),
        )
        df = vectors_to_df(spark, ds.base, ds.ids).cache()
        df.count()
        sample = ds.base[
            np.random.default_rng(0).choice(ds.n, min(ds.n, 6000), replace=False)
        ]
        seg = learn_segmenter(kind, n_segments, sample=sample, alpha=alpha, seed=2)
        root = os.path.join(work_dir, f"rw-{name}")
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        build_index(spark, df, root, seg, n_shards, metric=ds.metric,
                    hnsw_m=HNSW_M, ef_construction=EF_CONSTRUCTION)
        build_s = time.perf_counter() - t0
        gt, _ = exact_topk(ds.queries, ds.base, k, ids=ds.ids, metric=ds.metric)
        t0 = time.perf_counter()
        res = query_index(spark, root, ds.queries, k, ef=max(150, 2 * k)).toPandas()
        query_s = time.perf_counter() - t0
        rows.append(
            RealWorldRow(
                dataset=name, n_shards=n_shards, dim=ds.dim, index_size=ds.n,
                query_size=ds.queries.shape[0], build_seconds=build_s,
                query_seconds=query_s, k=k, recall=recall_at_k(res, gt, k),
            )
        )
        df.unpersist()
    return rows


def format_table8(rows: list[RealWorldRow]) -> str:
    hdr = (
        f"{'Dataset':>9} {'S':>3} {'dim':>5} {'Size':>7} {'Build':>8} "
        f"{'QSize':>6} {'Query':>8} | paper(S,dim,size,build | qsize,qtime)"
    )
    lines = [hdr]
    for r in rows:
        p = PAPER_T8[r.dataset]
        lines.append(
            f"{r.dataset:>9} {r.n_shards:>3} {r.dim:>5} {r.index_size:>7} "
            f"{r.build_seconds:7.1f}s {r.query_size:>6} {r.query_seconds:7.1f}s | "
            f"S={p[0]},d={p[1]},{p[2]},{p[3]} | {p[4]},{p[5]}"
        )
    return "\n".join(lines)


def format_table9(rows: list[RealWorldRow]) -> str:
    hdr = f"{'Dataset':>9} {'S':>3} {'dim':>5} {'Size':>7} {'K':>4} {'R@K':>7} | paper R@K"
    lines = [hdr]
    for r in rows:
        p = PAPER_T9[r.dataset]
        lines.append(
            f"{r.dataset:>9} {r.n_shards:>3} {r.dim:>5} {r.index_size:>7} "
            f"{r.k:>4} {r.recall:7.4f} | {p[5]:.2f}"
        )
    return "\n".join(lines)


def format_table_1_or_4(res: ExperimentResult, paper: dict[str, list[float]]) -> str:
    """Recall table with paper rows interleaved (Tables 1 and 4)."""
    ks = RECALL_KS
    lines = ["Method".ljust(12) + "".join(f"R@{k}".rjust(9) for k in ks) + "   (ours / paper)"]
    for method, row in res.recall.items():
        ours = "".join(f"{row.get(k, float('nan')):9.4f}" for k in ks)
        lines.append(method.ljust(12) + ours + "   ours")
        if method in paper:
            pp = "".join(f"{v:9.4f}" for v in paper[method])
            lines.append("".ljust(12) + pp + "   paper")
    return "\n".join(lines)


def format_build_table(
    res: ExperimentResult, paper: dict[int, dict[str, float]], partitioning: str
) -> str:
    """Build-time table (Tables 2 and 5): ours in seconds, paper in minutes."""
    methods = ["HNSW", "RS", "RH", "APD"]
    lines = ["Executors  " + "".join(f"{m}(ours s / paper min)".rjust(28) for m in methods)]
    for e in EXECUTORS:
        cells = []
        for m in methods:
            key = "HNSW" if m == "HNSW" else f"{m}{partitioning}"
            v = res.build_seconds.get((key, e))
            p = paper.get(e, {}).get(m)
            cells.append(
                f"{'-' if v is None else format(v, '.1f')} / {'-' if p is None else p}".rjust(28)
            )
        lines.append(f"{e:<11}" + "".join(cells))
    return "\n".join(lines)


def format_query_table(
    res: ExperimentResult,
    paper_by_part: dict[tuple[str, int], dict[str, float]],
    partitionings: tuple[str, ...],
) -> str:
    """Query-time table (Tables 3 and 6): ms/query, ours vs paper."""
    methods = ["HNSW", "RS", "RH", "APD"]
    out = []
    for part in partitionings:
        out.append(f"-- {part}-partitioning (ms/query, ours / paper) --")
        out.append("Executors  " + "".join(m.rjust(20) for m in methods))
        for e in EXECUTORS:
            cells = []
            for m in methods:
                key = "HNSW" if m == "HNSW" else f"{m}{part}"
                v = res.query_ms.get((key, e))
                p = paper_by_part.get((part, e), {}).get(m)
                cells.append(
                    f"{'-' if v is None else format(v, '.1f')} / {'-' if p is None else p}".rjust(20)
                )
            out.append(f"{e:<11}" + "".join(cells))
    return "\n".join(out)


# ---------------------------------------------------------------- registry
# group -> (runner, [(results file name, title, formatter of the runner's result)])
TABLE_GROUPS = {
    "sift": (run_sift, [
        ("table1", "Table 1: SIFT recall (ours vs paper)",
         lambda r: format_table_1_or_4(r, PAPER_T1)),
        ("table2", "Table 2: SIFT build times, (1,8)-partitioning (ours s vs paper min)",
         lambda r: format_build_table(r, PAPER_T2, "(1,8)")),
        ("table3", "Table 3: SIFT query times (ms/query, ours vs paper)",
         lambda r: format_query_table(r, PAPER_T3, ("(1,8)", "(2,4)"))),
    ]),
    "gist": (run_gist, [
        ("table4", "Table 4: GIST recall (ours vs paper)",
         lambda r: format_table_1_or_4(r, PAPER_T4)),
        ("table5", "Table 5: GIST build times, (1,8)-partitioning (ours s vs paper min)",
         lambda r: format_build_table(r, PAPER_T5, "(1,8)")),
        ("table6", "Table 6: GIST query times (ms/query, ours vs paper)",
         lambda r: format_query_table(r, PAPER_T6, ("(1,8)",))),
    ]),
    "groups": (run_groups_spill, [
        ("table7", "Table 7: Groups spill study (ours vs paper)", format_table7),
    ]),
    "realworld": (run_realworld, [
        ("table8", "Table 8: real-world build/query times (proxies; ours vs paper)", format_table8),
        ("table9", "Table 9: real-world recall (proxies; ours vs paper)", format_table9),
    ]),
}
