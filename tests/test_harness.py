"""Tests for the experiment sweep, table renderers and table registry
(repro.eval.experiments) on a tiny sweep."""
from collections import Counter

import pytest

from repro.core.querying import query_index
from repro.eval import experiments
from repro.eval.experiments import (
    EXECUTORS,
    PAPER_T1,
    PAPER_T2,
    PAPER_T3,
    QUERY_REPEATS,
    REALWORLD_SPECS,
    RECALL_KS,
    TABLE_GROUPS,
    TOPK,
    ExperimentResult,
    emit_table,
    format_build_table,
    format_query_table,
    format_table_1_or_4,
    run_lanns_experiment,
    run_realworld,
)
from repro.synth_data import gaussian_mixture


def _counting(calls: Counter):
    """``query_index`` that counts its jobs per store in ``calls``."""
    def counting_query_index(spark, store_root, *args, **kwargs):
        calls[store_root] += 1
        return query_index(spark, store_root, *args, **kwargs)

    return counting_query_index


@pytest.fixture(scope="module")
def sweep(spark, tmp_path_factory):
    """The tiny sweep, and how many ``query_index`` jobs ran on each store."""
    calls = Counter()
    ds = gaussian_mixture(n=800, dim=8, n_clusters=8, n_queries=25, seed=61)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "query_index", _counting(calls))
        res = run_lanns_experiment(
            spark,
            ds,
            str(tmp_path_factory.mktemp("harness")),
            ((1, 2),),
            executors=(2,),
        )
    return res, calls


@pytest.fixture(scope="module")
def realworld(spark, tmp_path_factory):
    """Tables 8-9 at the smallest scale, for one proxy dataset, and how many
    ``query_index`` jobs ran on its store."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "query_index", _counting(calls))
        mp.setattr(experiments, "REALWORLD_SPECS", {"PYMK": REALWORLD_SPECS["PYMK"]})
        rows = run_realworld(spark, str(tmp_path_factory.mktemp("realworld")), scale=0.0)
    return rows, calls


@pytest.fixture(scope="module")
def result(sweep):
    return sweep[0]


class TestHarness:
    def test_methods_present(self, result):
        assert set(result.recall) == {"HNSW", "RS(1,2)", "RH(1,2)", "APD(1,2)"}

    def test_recall_keys_and_ranges(self, result):
        for method, row in result.recall.items():
            assert set(row) == set(RECALL_KS)
            assert all(0.0 <= v <= 1.0 for v in row.values())

    def test_hnsw_baseline_high_recall(self, result):
        assert result.recall["HNSW"][10] >= 0.95

    def test_build_and_query_times_recorded(self, result):
        assert ("HNSW", 2) in result.build_seconds
        assert ("RS(1,2)", 2) in result.build_seconds
        assert ("APD(1,2)", 2) in result.query_ms
        assert all(v > 0 for v in result.build_seconds.values())
        assert all(v > 0 for v in result.query_ms.values())

    def test_query_cell_warmed_then_repeated(self, sweep, realworld):
        """Every query-time cell of Tables 3/6 and 8: one untimed job, then
        QUERY_REPEATS timed."""
        result, calls = sweep
        assert len(calls) == len(result.query_ms) == 4
        assert set(calls.values()) == {1 + QUERY_REPEATS}
        rows, calls = realworld
        assert [r.dataset for r in rows] == ["PYMK"] and rows[0].query_seconds > 0
        assert list(calls.values()) == [1 + QUERY_REPEATS]

    def test_result_dataclass_fields(self, result):
        assert isinstance(result, ExperimentResult)
        assert result.topk == TOPK
        assert result.dataset == "gm"


class TestFormatters:
    def test_recall_table(self, result):
        lines = format_table_1_or_4(result, PAPER_T1).splitlines()
        assert lines[0].split()[:7] == ["Method"] + [f"R@{k}" for k in RECALL_KS]
        # one "ours" row per method, in sweep order; no paper row for the
        # tiny sweep's (1,2) methods, one for HNSW
        ours = [ln.split()[0] for ln in lines if ln.endswith("ours")]
        assert ours == list(result.recall)
        assert sum(ln.endswith("paper") for ln in lines) == 1
        hnsw = lines[1].split()
        assert [float(v) for v in hnsw[1:7]] == pytest.approx(
            [result.recall["HNSW"][k] for k in RECALL_KS], abs=5e-5
        )

    def test_build_table(self, result):
        lines = format_build_table(result, PAPER_T2, "(1,2)").splitlines()
        assert len(lines) == 1 + len(EXECUTORS)
        row2 = lines[1]
        assert row2.startswith("2 ")
        assert f"{result.build_seconds[('HNSW', 2)]:.1f} / 40" in row2
        assert f"{result.build_seconds[('RS(1,2)', 2)]:.1f} / 8.2" in row2
        # executor counts the sweep did not run render as "-"
        assert lines[2].split()[:3] == ["4", "-", "/"]

    def test_query_table(self, result):
        text = format_query_table(result, PAPER_T3, ("(1,2)", "(1,8)"))
        lines = text.splitlines()
        assert lines[0] == "-- (1,2)-partitioning (ms/query, ours / paper) --"
        assert len(lines) == 2 * (2 + len(EXECUTORS))
        # a measured cell with no paper number for (1,2); for (1,8), the
        # HNSW cell pairs its measurement with the paper's, RS has only
        # the paper's
        assert f"{result.query_ms[('APD(1,2)', 2)]:.1f} / -" in lines[2]
        row = lines[2 + len(EXECUTORS) + 2].split()
        assert row[2:7] == ["/", "50.4", "-", "/", "58.8"]


def test_emit_table_writes_results_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "RESULTS_DIR", str(tmp_path / "results"))
    emit_table("tableX", "Table X: title", "a b\n1 2")
    assert (tmp_path / "results" / "tableX.txt").read_text() == (
        "=== Table X: title ===\na b\n1 2\n"
    )
    assert "=== Table X: title ===" in capsys.readouterr().out


def test_registry_names_every_table_once():
    names = [name for _, tables in TABLE_GROUPS.values() for name, _, _ in tables]
    assert sorted(names) == [f"table{i}" for i in range(1, 10)]
    titles = [title for _, tables in TABLE_GROUPS.values() for _, title, _ in tables]
    assert all(t.startswith(f"Table {n[5:]}:") for n, t in zip(names, titles))
