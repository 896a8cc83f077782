"""Table-reproduction harness for the paper's evaluation (Sec 6.1).

``run_lanns_experiment`` executes one dataset's full sweep — the HNSW
baseline plus RS/RH/APD segmenters at each (n_shards, n_segments)
partitioning and executor count — and collects the three quantities the
paper tabulates: R@k (Tables 1/4), build minutes (Tables 2/5), and query
milliseconds (Tables 3/6).

Scale note: absolute times are Python-on-one-node, not the paper's
JVM-on-YARN; EXPERIMENTS.md compares *shapes* (which method wins, how
times scale with executors), per the reproduction contract.
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
from repro.core.indexing import build_index
from repro.core.querying import query_index
from repro.eval.recall import recall_table
from repro.segmenters.learning import learn_segmenter
from repro.synth_data import AnnDataset, vectors_to_df


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


def _method_key(kind: str, n_shards: int, n_segments: int) -> str:
    return f"{kind}({n_shards},{n_segments})"


def run_lanns_experiment(
    spark: SparkSession,
    dataset: AnnDataset,
    *,
    topk: int,
    partitionings: tuple[tuple[int, int], ...],
    executors: tuple[int, ...],
    kinds: tuple[str, ...] = ("RS", "RH", "APD"),
    ks: tuple[int, ...] = (1, 5, 10, 15, 50, 100),
    alpha: float = 0.15,
    confidence: float = 0.95,
    hnsw_m: int = 12,
    ef_construction: int = 100,
    ef_search: int | None = None,
    work_dir: str,
    include_hnsw_baseline: bool = True,
    spill: str = "virtual",
    seed: int = 0,
) -> ExperimentResult:
    """Run the full sweep for one dataset; see module docstring."""
    os.makedirs(work_dir, exist_ok=True)
    res = ExperimentResult(dataset=dataset.name, topk=topk)
    gt_ids, _ = exact_topk(
        dataset.queries, dataset.base, topk, ids=dataset.ids, metric=dataset.metric
    )
    df = vectors_to_df(spark, dataset.base, dataset.ids).cache()
    df.count()  # materialize so build timing excludes generation
    ef = ef_search or max(2 * topk, 100)

    def one_config(method: str, segmenter, n_shards: int, e: int) -> pd.DataFrame:
        """Build + query at executor count ``e``; returns final results."""
        root = os.path.join(work_dir, f"{method}-E{e}".replace("(", "_").replace(")", "").replace(",", "_"))
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        build_index(
            spark, df, root, segmenter, n_shards,
            spill=spill, metric=dataset.metric, hnsw_m=hnsw_m,
            ef_construction=ef_construction, n_executors=e, seed=seed,
        )
        res.build_seconds[(method, e)] = time.perf_counter() - t0
        t0 = time.perf_counter()
        out = query_index(
            spark, root, dataset.queries, topk,
            ef=ef, confidence=confidence, n_executors=e,
        ).toPandas()
        res.query_ms[(method, e)] = (
            (time.perf_counter() - t0) * 1000.0 / dataset.queries.shape[0]
        )
        return out

    if include_hnsw_baseline:
        seg1 = learn_segmenter("RS", 1)
        out = one_config("HNSW", seg1, 1, min(executors))
        res.recall["HNSW"] = recall_table(out, gt_ids, ks)
        # The paper reports the single-machine HNSW row only at the
        # smallest executor count; copy timing keys for table rendering.

    n_learn_sample = min(dataset.n, max(2000, dataset.n // 4))
    for n_shards, n_segments in partitionings:
        for kind in kinds:
            method = _method_key(kind, n_shards, n_segments)
            t0 = time.perf_counter()
            segmenter = learn_segmenter(
                kind, n_segments,
                sample=dataset.base[
                    np.random.default_rng(seed).choice(
                        dataset.n, n_learn_sample, replace=False
                    )
                ],
                alpha=alpha, seed=seed,
            )
            res.segmenter_learn_seconds[method] = time.perf_counter() - t0
            for e in executors:
                out = one_config(method, segmenter, n_shards, e)
            res.recall[method] = recall_table(out, gt_ids, ks)  # last E's result
    df.unpersist()
    return res
