"""Tests for the online serving simulation (repro.serving) — Sec 7."""
import gc
import os
import pickle
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bruteforce.local import exact_topk
from repro.core.index_store import IndexStore
from repro.core.search import merge_candidates
from repro.core.topk import per_shard_topk
from repro.segmenters import RandomSegmenter, learn_apd_segmenter
from repro.serving import Broker, Searcher
from repro.serving.searcher import SearcherProcess
from repro.synth_data import AnnDataset, gaussian_mixture
from tests.util import build_local_store

# How long a searcher process may take to go away once it should.
EXIT_TIMEOUT_S = 20


def _python_env() -> dict:
    """The environment of a Python process that imports this checkout's repro."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie left for a reaper that is not this
    process counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_gone(pids: list[int]) -> None:
    deadline = time.monotonic() + EXIT_TIMEOUT_S
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(p) for p in pids), pids


def _child_pids(broker: Broker) -> list[int]:
    return [p.proc.pid for p in broker._processes]


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=3000, dim=12, n_clusters=16, n_queries=60, seed=21)


@pytest.fixture(scope="module")
def rs_store(ds, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve-rs"))
    return build_local_store(ds, root, RandomSegmenter(4), 2)


@pytest.fixture(scope="module")
def apd_store(ds, tmp_path_factory):
    seg = learn_apd_segmenter(ds.base[:1500], 4, alpha=0.15, seed=0)
    root = str(tmp_path_factory.mktemp("serve-apd"))
    return build_local_store(ds, root, seg, 1)


@pytest.fixture(scope="module")
def dup_store(ds, tmp_path_factory):
    """100 base vectors stored 20 times each under their own ids, over 2
    shards: exact distance ties fill every partition."""
    base = np.repeat(ds.base[:100], 20, axis=0)
    dups = AnnDataset("dups", base, ds.queries, ids=np.random.default_rng(0).permutation(len(base)))
    seg = learn_apd_segmenter(ds.base[:1500], 4, alpha=0.15, seed=0)
    root = str(tmp_path_factory.mktemp("serve-dup"))
    return build_local_store(dups, root, seg, 2, hnsw_m=4, ef_construction=8)


class TestSearcher:
    def test_loads_all_segments(self, rs_store):
        s = Searcher(rs_store, 0, ef=100)
        assert s.n_segments == 4

    def test_missing_shard_raises(self, rs_store):
        with pytest.raises(ValueError):
            Searcher(rs_store, 9)

    def test_results_sorted_and_bounded(self, rs_store, ds):
        s = Searcher(rs_store, 0, ef=100)
        ids, dists = s.search(ds.queries[0], np.arange(4), 10)
        assert len(ids) == len(dists) <= 10
        assert dists.tolist() == sorted(dists.tolist())

    def test_rs_probes_all_segments(self, rs_store, ds):
        """RS has no locality: searcher results over the routed segments
        must equal an exhaustive scan over everything the shard hosts."""
        s = Searcher(rs_store, 0, ef=10_000)
        all_ids, all_vecs = [], []
        for m, idx in s._segments.items():
            all_ids.append(idx.ids)
            all_vecs.append(idx._data)
        ids = np.concatenate(all_ids)
        vecs = np.vstack(all_vecs)
        gt, _ = exact_topk(ds.queries[:5], vecs, 10, ids=ids)
        routes = rs_store.load_segmenter().route(ds.queries[:5])
        for qi in range(5):
            got, _ = s.search(ds.queries[qi], routes[qi], 10)
            assert set(got.tolist()) == set(gt[qi].tolist())


class TestBroker:
    def test_high_recall_rs(self, rs_store, ds):
        with Broker(rs_store, ef=200) as broker:
            out, stats = broker.benchmark(ds.queries, 20)
        gt, _ = exact_topk(ds.queries, ds.base, 20, ids=ds.ids)
        rec = np.mean(
            [len(set(out[i].tolist()) & set(gt[i].tolist())) / 20 for i in range(ds.queries.shape[0])]
        )
        assert rec >= 0.95
        assert stats.qps > 0 and stats.p99_ms >= stats.p50_ms

    def test_high_recall_apd_single_shard(self, apd_store, ds):
        with Broker(apd_store, ef=200) as broker:
            out, _ = broker.benchmark(ds.queries, 15)
        gt, _ = exact_topk(ds.queries, ds.base, 15, ids=ds.ids)
        rec = np.mean(
            [len(set(out[i].tolist()) & set(gt[i].tolist())) / 15 for i in range(ds.queries.shape[0])]
        )
        assert rec >= 0.9

    def test_returns_topk_results(self, rs_store, ds):
        with Broker(rs_store, ef=100) as broker:
            ids, dists = broker.search(ds.queries[0], 12)
        assert len(ids) == 12
        assert np.all(np.diff(dists) >= -1e-6)
        assert len(set(ids.tolist())) == 12

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_query_raises(self, rs_store, ds, bad):
        """A NaN query used to be routed to no segment and get an empty answer."""
        query = ds.queries[0].copy()
        query[2] = bad
        with Broker(rs_store, ef=100) as broker, pytest.raises(ValueError, match="finite"):
            broker.search(query, 10)

    def test_per_shard_topk_reduces_fetch(self, rs_store, ds):
        """With perShardTopK on, each searcher is asked for fewer than
        topK candidates, yet final recall stays high (Sec 5.3.2)."""
        k = 40
        pstk = per_shard_topk(k, 2, 0.95)
        assert pstk < k
        gt, _ = exact_topk(ds.queries[:30], ds.base, k, ids=ds.ids)
        r_with, r_without = [], []
        with Broker(rs_store, ef=200, use_per_shard_topk=True) as with_opt, \
                Broker(rs_store, ef=200, use_per_shard_topk=False) as without:
            for i in range(30):
                a, _ = with_opt.search(ds.queries[i], k)
                b, _ = without.search(ds.queries[i], k)
                r_with.append(len(set(a.tolist()) & set(gt[i].tolist())) / k)
                r_without.append(len(set(b.tolist()) & set(gt[i].tolist())) / k)
        assert np.mean(r_with) >= np.mean(r_without) - 0.03
        assert np.mean(r_with) >= 0.93

    def test_physical_vs_virtual_spill_comparable(self, ds, tmp_path_factory):
        """Table 7's claim: the two spill modes reach comparable recall."""
        seg = learn_apd_segmenter(ds.base[:1500], 4, alpha=0.15, seed=0)
        recs = {}
        for spill in ("virtual", "physical"):
            root = str(tmp_path_factory.mktemp(f"spill-{spill}"))
            store = build_local_store(ds, root, seg, 1, spill=spill)
            with Broker(store, ef=150) as broker:
                out, _ = broker.benchmark(ds.queries, 15)
            gt, _ = exact_topk(ds.queries, ds.base, 15, ids=ds.ids)
            recs[spill] = np.mean(
                [len(set(out[i].tolist()) & set(gt[i].tolist())) / 15 for i in range(len(out))]
            )
        assert abs(recs["virtual"] - recs["physical"]) < 0.05
        assert min(recs.values()) > 0.8

    def test_stats_fields(self, rs_store, ds):
        with Broker(rs_store, ef=50) as broker:
            _, stats = broker.benchmark(ds.queries[:10], 5)
        assert stats.n_queries == 10
        assert stats.p50_ms > 0

    @pytest.mark.parametrize("store_name", ["rs_store", "apd_store", "dup_store"])
    @pytest.mark.parametrize("use_pstk", [True, False])
    def test_matches_in_process_reference(self, request, ds, store_name, use_pstk):
        """Searching shards in other processes changes no bit of a reply: the
        reference is one in-process ``Searcher`` per shard, then
        ``merge_candidates`` in shard order."""
        store = request.getfixturevalue(store_name)
        meta = store.load_metadata()
        segmenter = store.load_segmenter()
        searchers = [Searcher(store, s, ef=30) for s in range(meta.n_shards)]
        k = 10
        pstk = per_shard_topk(k, meta.n_shards) if use_pstk else k
        with Broker(store, ef=30, use_per_shard_topk=use_pstk) as broker:
            assert len(_child_pids(broker)) == meta.n_shards - 1  # S = 1 starts none
            for q in ds.queries:
                segs = segmenter.route(q[None], spill=meta.spill)[0]
                parts = [s.search(q, segs, pstk) for s in searchers]
                ref_ids, ref_dists = merge_candidates(
                    np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]), k
                )
                ids, dists = broker.search(q, k)
                assert ids.dtype == np.int64 and dists.dtype == np.float32
                assert ids.tobytes() == ref_ids.tobytes()
                assert dists.tobytes() == ref_dists.astype(np.float32).tobytes()


class TestSearcherProcesses:
    """Every searcher process a Broker starts ends with it, however the
    Broker ends."""

    def test_close_twice(self, rs_store, ds):
        broker = Broker(rs_store, ef=50)
        pids = _child_pids(broker)
        assert len(pids) == 1 and _alive(pids[0])
        broker.search(ds.queries[0], 5)
        broker.close()
        broker.close()
        _wait_gone(pids)
        with pytest.raises(RuntimeError, match="closed"):
            broker.search(ds.queries[0], 5)

    def test_with_block(self, rs_store, ds):
        with Broker(rs_store, ef=50) as broker:
            pids = _child_pids(broker)
            broker.search(ds.queries[0], 5)
        _wait_gone(pids)

    def test_dropped_broker(self, rs_store, ds):
        broker = Broker(rs_store, ef=50)
        pids = _child_pids(broker)
        broker.search(ds.queries[0], 5)
        del broker
        gc.collect()
        _wait_gone(pids)

    def test_killed_parent(self, rs_store):
        """A SIGKILLed broker process runs no clean-up; its searcher
        processes end on their stdin's end of file."""
        script = textwrap.dedent(f"""
            import sys, time
            from repro.core.index_store import IndexStore
            from repro.serving import Broker
            broker = Broker(IndexStore({rs_store.root!r}), ef=50)
            print(*[p.proc.pid for p in broker._processes], flush=True)
            time.sleep(600)
        """)
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=_python_env()
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 1 and _alive(pids[0])
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(EXIT_TIMEOUT_S)
            parent.stdout.close()
        _wait_gone(pids)

    def test_killed_searcher_fails_next_request(self, rs_store, ds):
        """A searcher process that died between two requests makes the next
        one raise, without hanging, and closes the Broker."""
        broker = Broker(rs_store, ef=50)
        broker.search(ds.queries[0], 5)
        proc = broker._processes[0].proc
        proc.kill()
        proc.wait(EXIT_TIMEOUT_S)
        raised = []

        def request():
            try:
                broker.search(ds.queries[1], 5)
            except RuntimeError as exc:
                raised.append(exc)

        t = threading.Thread(target=request, daemon=True)
        t.start()
        t.join(EXIT_TIMEOUT_S)
        assert not t.is_alive(), "search hung on a dead searcher process"
        assert len(raised) == 1, raised
        with pytest.raises(RuntimeError, match="closed"):
            broker.search(ds.queries[2], 5)

    @pytest.mark.parametrize("shard", ["first", "last"])
    @pytest.mark.parametrize("fault", ["lost", "truncated", "pickled"])
    def test_broken_partition_raises(self, rs_store, ds, tmp_path, monkeypatch, shard, fault):
        """A lost, truncated or pickled partition file raises the same error
        whether shard 0 (this process) or the last shard (a searcher
        process) holds it, and leaves no searcher process behind."""
        broken = str(tmp_path / "broken")
        shutil.copytree(rs_store.root, broken)
        store = IndexStore(broken)
        s = 0 if shard == "first" else store.load_metadata().n_shards - 1
        path = Path(store.index_path(s, 1))
        if fault == "lost":
            path.unlink()
            error = FileNotFoundError
        else:
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2] if fault == "truncated"
                             else pickle.dumps({"dim": ds.dim, "levels": []}))
            error = ValueError
        started, start = [], SearcherProcess.__init__

        def record(self, *args):
            start(self, *args)
            started.append(self.proc.pid)

        monkeypatch.setattr(SearcherProcess, "__init__", record)
        with pytest.raises(error) as raised:
            Broker(store, ef=50)
        assert len(started) == 1
        _wait_gone(started)  # while ``raised`` still holds the half-made Broker
        del raised
        with pytest.raises(error):
            Searcher(store, s)



def test_searcher_process_imports_no_spark():
    """A searcher process imports neither pyspark nor pandas: it starts in
    about a quarter of a second, not half of one."""
    code = (
        "import sys, repro.serving.searcher; "
        "print(sorted(m for m in ('pyspark', 'pandas') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_python_env(), timeout=60, check=True)
    assert out.stdout.strip() == "[]", out
