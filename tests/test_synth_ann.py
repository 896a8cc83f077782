"""Tests for the ANN dataset generators (repro.synth_data extensions)."""
import numpy as np
import pytest

from repro.bruteforce.local import exact_topk
from repro.synth_data import (
    AnnDataset,
    gaussian_mixture,
    gist_like,
    groups_like,
    neardupe_like,
    people_like,
    pymk_like,
    sift_like,
    vectors_to_df,
)


class TestGaussianMixture:
    def test_shapes(self):
        ds = gaussian_mixture(n=500, dim=9, n_clusters=5, n_queries=20, seed=0)
        assert ds.base.shape == (500, 9)
        assert ds.queries.shape == (20, 9)
        assert ds.ids.shape == (500,)
        assert ds.base.dtype == np.float32

    def test_deterministic(self):
        a = gaussian_mixture(n=100, dim=4, n_clusters=3, n_queries=5, seed=9)
        b = gaussian_mixture(n=100, dim=4, n_clusters=3, n_queries=5, seed=9)
        np.testing.assert_array_equal(a.base, b.base)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_seed_changes_data(self):
        a = gaussian_mixture(n=100, dim=4, n_clusters=3, n_queries=5, seed=1)
        b = gaussian_mixture(n=100, dim=4, n_clusters=3, n_queries=5, seed=2)
        assert not np.array_equal(a.base, b.base)

    def test_clustered_structure(self):
        """Mean NN distance must be far below mean pairwise distance —
        the locality property the LANNS segmenters exploit."""
        ds = gaussian_mixture(n=800, dim=8, n_clusters=10, n_queries=10,
                              cluster_std=0.2, seed=4)
        _, nn_d = exact_topk(ds.base[:100], ds.base, 2)
        mean_nn = nn_d[:, 1].mean()  # skip self-distance
        g = np.random.default_rng(0)
        pairs = ds.base[g.choice(800, 200)] - ds.base[g.choice(800, 200)]
        mean_all = np.linalg.norm(pairs, axis=1).mean()
        assert mean_nn < 0.2 * mean_all

    def test_queries_near_base(self):
        ds = gaussian_mixture(n=400, dim=6, n_clusters=4, n_queries=30, seed=5)
        _, d = exact_topk(ds.queries, ds.base, 1)
        base_spread = np.linalg.norm(ds.base.std(axis=0))
        assert d[:, 0].mean() < base_spread


class TestNamedDatasets:
    @pytest.mark.parametrize(
        "fn,dim", [(sift_like, 32), (gist_like, 128), (groups_like, 64),
                   (people_like, 16), (pymk_like, 16), (neardupe_like, 256)]
    )
    def test_dims_match_design(self, fn, dim):
        ds = fn(n=200, n_queries=10)
        assert ds.dim == dim and ds.n == 200

    def test_names(self):
        assert sift_like(n=50, n_queries=2).name == "sift_like"
        assert neardupe_like(n=50, n_queries=2).name == "neardupe_like"

    def test_neardupe_queries_are_near_duplicates(self):
        ds = neardupe_like(n=300, n_queries=40)
        _, d = exact_topk(ds.queries, ds.base, 1)
        # perturbation sigma=0.05 in 256-d: NN distance ~ 0.05*16=0.8 << cluster std
        assert d[:, 0].mean() < 2.0

    def test_custom_ids_default(self):
        ds = AnnDataset(name="x", base=np.zeros((5, 2), np.float32),
                        queries=np.zeros((1, 2), np.float32))
        np.testing.assert_array_equal(ds.ids, np.arange(5))


class TestSparkConversion:
    def test_roundtrip(self, spark):
        ds = gaussian_mixture(n=150, dim=7, n_clusters=3, n_queries=5, seed=6)
        df = vectors_to_df(spark, ds.base, ds.ids)
        pdf = df.toPandas()
        np.testing.assert_array_equal(pdf["id"].to_numpy(), ds.ids)
        np.testing.assert_allclose(np.stack(pdf["vector"]), ds.base, rtol=1e-6)

    def test_custom_columns(self, spark):
        ds = gaussian_mixture(n=40, dim=3, n_clusters=2, n_queries=2, seed=7)
        df = vectors_to_df(spark, ds.base, ds.ids, id_col="query_id", vec_col="v")
        assert set(df.columns) == {"query_id", "v"}
        pdf = df.toPandas()
        np.testing.assert_array_equal(pdf["query_id"].to_numpy(), ds.ids)
        np.testing.assert_allclose(np.stack(pdf["v"]), ds.base, rtol=1e-6)

    def test_schema_types(self, spark):
        ds = gaussian_mixture(n=20, dim=3, n_clusters=2, n_queries=2, seed=8)
        df = vectors_to_df(spark, ds.base)
        dt = dict(df.dtypes)
        assert dt["id"] == "bigint"
        assert dt["vector"].startswith("array<float")
