"""Tests for the experiment harness (repro.eval.harness) on a tiny sweep."""
import numpy as np
import pytest

from repro.eval.harness import ExperimentResult, run_lanns_experiment
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def result(spark, tmp_path_factory):
    ds = gaussian_mixture(n=800, dim=8, n_clusters=8, n_queries=25, seed=61)
    return run_lanns_experiment(
        spark,
        ds,
        topk=10,
        partitionings=((1, 2),),
        executors=(2,),
        kinds=("RS", "APD"),
        ks=(1, 5, 10),
        ef_construction=40,
        hnsw_m=8,
        work_dir=str(tmp_path_factory.mktemp("harness")),
    )


class TestHarness:
    def test_methods_present(self, result):
        assert set(result.recall) == {"HNSW", "RS(1,2)", "APD(1,2)"}

    def test_recall_keys_and_ranges(self, result):
        for method, row in result.recall.items():
            assert set(row) == {1, 5, 10}
            assert all(0.0 <= v <= 1.0 for v in row.values())

    def test_hnsw_baseline_high_recall(self, result):
        assert result.recall["HNSW"][10] >= 0.95

    def test_build_and_query_times_recorded(self, result):
        assert ("HNSW", 2) in result.build_seconds
        assert ("RS(1,2)", 2) in result.build_seconds
        assert ("APD(1,2)", 2) in result.query_ms
        assert all(v > 0 for v in result.build_seconds.values())
        assert all(v > 0 for v in result.query_ms.values())

    def test_segmenter_learning_times(self, result):
        assert "APD(1,2)" in result.segmenter_learn_seconds

    def test_result_dataclass_fields(self, result):
        assert isinstance(result, ExperimentResult)
        assert result.topk == 10
        assert result.dataset == "gm"
