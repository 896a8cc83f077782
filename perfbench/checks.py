"""Output checks and the recall split, computed from outside the program.

Everything here is exact and untimed: it uses the generated inputs, the
program's public routing functions (``shard_of``, ``Segmenter.assign`` /
``route``, ``per_shard_topk``) and ``exact_topk`` for ground truth.
"""
from __future__ import annotations

import os

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.partitioner import shard_of

# Returned distances are float32 surrogates turned back into L2 values;
# they must match float64 recomputation to this tolerance. The largest
# error seen on these datasets is about 7e-5 (nearest distances are about
# 2 or more), so 1e-3 leaves room without letting a wrong neighbor through.
DIST_ATOL = 1e-3
DIST_RTOL = 1e-4


def check_topk(
    qids: np.ndarray,
    nids: np.ndarray,
    dists: np.ndarray,
    ranks: np.ndarray,
    queries: np.ndarray,
    base: np.ndarray,
    base_ids: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-query pass/fail for a long-format top-k result.

    A query passes when it has exactly ``k`` rows with ranks 1..k and
    ``k`` distinct neighbor ids from the base set, its distances do not
    decrease with rank, and each distance matches the one recomputed from
    the base vectors. Returns a bool array over ``queries``.
    """
    nq = queries.shape[0]
    qids = np.asarray(qids, dtype=np.int64)
    if not ((qids >= 0) & (qids < nq)).all():
        return np.zeros(nq, dtype=bool)  # rows for unknown queries: malformed
    ok = np.bincount(qids, minlength=nq) == k
    order = np.lexsort((ranks, qids))
    rows = order[ok[qids[order]]]
    if rows.size == 0:
        return ok
    Q = qids[rows].reshape(-1, k)[:, 0]
    R = np.asarray(ranks)[rows].reshape(-1, k)
    ids = np.asarray(nids, dtype=np.int64)[rows].reshape(-1, k)
    D = np.asarray(dists, dtype=np.float64)[rows].reshape(-1, k)

    good = (R == np.arange(1, k + 1)).all(axis=1)
    good &= (np.diff(np.sort(ids, axis=1), axis=1) != 0).all(axis=1)
    sorter = np.argsort(base_ids)
    pos = np.clip(np.searchsorted(base_ids, ids, sorter=sorter), 0, len(base_ids) - 1)
    row_of = sorter[pos]
    good &= (base_ids[row_of] == ids).all(axis=1)
    good &= (np.diff(D, axis=1) >= 0).all(axis=1)
    diff = queries[Q][:, None, :].astype(np.float64) - base[row_of].astype(np.float64)
    true = np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))
    good &= (np.abs(D - true) <= DIST_ATOL + DIST_RTOL * true).all(axis=1)
    ok[Q] = good
    return ok


def check_matrix(
    ids: np.ndarray, dists: np.ndarray, queries: np.ndarray, base: np.ndarray, base_ids: np.ndarray
) -> np.ndarray:
    """:func:`check_topk` for (queries, k) id and distance matrices whose
    column j holds rank j+1; missing results are -1 / inf."""
    nq, k = ids.shape
    return check_topk(
        np.repeat(np.arange(nq), k), ids.ravel(), dists.ravel(), np.tile(np.arange(1, k + 1), nq),
        queries, base, base_ids, k,
    )


def expected_partitions(
    base: np.ndarray, ids: np.ndarray, segmenter, n_shards: int, spill: str
) -> dict[tuple[int, int], int]:
    """n_items per (shard, segment), for every pair the config defines."""
    sizes = {(s, m): 0 for s in range(n_shards) for m in range(segmenter.n_segments)}
    shards = shard_of(ids, n_shards)
    for s, segs in zip(shards.tolist(), segmenter.assign(base, ids, spill=spill)):
        for m in segs.tolist():
            sizes[(s, m)] += 1
    return sizes


def check_store(
    root: str, summary, expected: dict[tuple[int, int], int]
) -> list[str]:
    """Problems with a built store: every expected (shard, segment) must be
    on disk and in the build summary with its exact ``n_items``."""
    problems = []
    store = IndexStore(root)
    on_disk = set(store.list_partitions())
    if on_disk != set(expected):
        missing = sorted(set(expected) - on_disk)
        extra = sorted(on_disk - set(expected))
        problems.append(f"store partitions: missing {missing}, unexpected {extra}")
    got = {
        (int(s), int(m)): int(n)
        for s, m, n in zip(summary["shard_id"], summary["segment_id"], summary["n_items"])
    }
    if got != expected:
        bad = sorted(p for p in set(got) | set(expected) if got.get(p) != expected.get(p))
        problems.append(f"summary n_items differ from expected at {bad}")
    meta_n = store.load_metadata().n_items
    if meta_n != sum(expected.values()):
        problems.append(f"metadata n_items {meta_n} != {sum(expected.values())}")
    return problems


def store_bytes(root: str) -> int:
    """Total size of every file under a store root."""
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def recall_per_query(got_ids: np.ndarray, gt_ids: np.ndarray, k: int) -> np.ndarray:
    """|result top-k ∩ true top-k| / k for each query (rows are queries)."""
    return np.asarray(
        [len(set(g[:k].tolist()) & set(t[:k].tolist())) / k for g, t in zip(got_ids, gt_ids)]
    )


def recall_split(
    queries: np.ndarray,
    base: np.ndarray,
    base_ids: np.ndarray,
    gt_ids: np.ndarray,
    segmenter,
    n_shards: int,
    spill: str,
    pstk: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-query recall ceilings after routing and after perShardTopK.

    A true neighbor is reachable when a segment it was assigned to is one
    the query is routed to (every shard is probed). Within one shard the
    reachable true neighbors are the closest reachable points, so the
    shard's top-``pstk`` keeps ``min(reachable, pstk)`` of them.
    """
    sorter = np.argsort(base_ids)
    rows = sorter[np.searchsorted(base_ids, gt_ids[:, :k], sorter=sorter)]
    shards = shard_of(base_ids, n_shards)
    in_seg = _membership(segmenter.assign(base, base_ids, spill=spill), segmenter.n_segments)
    probed = _membership(segmenter.route(queries, spill=spill), segmenter.n_segments)
    reach = (in_seg[rows] & probed[:, None, :]).any(axis=2)  # (nq, k)
    per_shard = np.stack([(reach & (shards[rows] == s)).sum(axis=1) for s in range(n_shards)])
    return reach.sum(axis=1) / k, np.minimum(per_shard, pstk).sum(axis=0) / k


def _membership(seg_lists: list[np.ndarray], n_segments: int) -> np.ndarray:
    """(rows, n_segments) bool matrix from per-row segment id lists."""
    out = np.zeros((len(seg_lists), n_segments), dtype=bool)
    for i, segs in enumerate(seg_lists):
        out[i, segs] = True
    return out
