"""Hierarchical Navigable Small World graph index (Malkov & Yashunin 2016).

This is the per-(shard, segment) index LANNS builds inside each Spark
executor (paper Sec 3, Fig 2/6). The implementation follows the original
paper's algorithms:

- Alg 1 (INSERT): geometric level sampling with mL = 1/ln(M); Alg 2 at
  ef=1 through the layers above the node's level, then at ef_construction
  with bidirectional linking and degree caps (M above layer 0, 2M at
  layer 0) on each layer below.
- Alg 5 (K-NN-SEARCH): Alg 2 at ef=1 through every layer above 0, then at
  the query's ef on layer 0.
- Alg 2 (SEARCH-LAYER): best-first search over one result list of at most
  ef (distance, node) entries, kept sorted: each step expands the closest
  result not yet expanded and merges its unvisited neighbors in, and the
  search stops when every result is expanded.
- Alg 2 in lockstep, for a search call with many queries (an offline
  query's probes of one partition), layer by layer: every step expands,
  for every query still searching, its closest result not yet expanded, so
  one gather of neighbor rows (padded neighbor matrices with a sentinel
  node), one visited-bitmap lookup, one product and one row sort serve
  them all. Each query's result list is a sorted row of uint64 keys
  (float32 distance bits, node, "expanded" bit), so a query takes the same
  steps and gets the same results as alone.
- A scan instead of either walk when the graph is small next to the search
  (``_use_scan``): one matrix-vector product gives the query's surrogate
  to every node, and the k smallest by (surrogate, node) are the result.
  Insertion takes each layer's ef_construction candidates from the same
  product, among that layer's nodes, with no ef=1 descent.
- Alg 4 (SELECT-NEIGHBORS-HEURISTIC): diversity-aware neighbor selection
  with keepPrunedConnections, which is what keeps recall high on the
  clustered data the LANNS segmenters produce.

Float bits: BLAS gives a row of a matrix-vector product of two or more rows
the same bits, whichever rows are stacked, but another (a dot product's)
for a single row. The walks compute fresh neighbors as one product of their
gathered rows, so the lockstep gives a single fresh neighbor, and both
paths the entry point, a one-row product of its own. Both walks order
results by (distance, node) on every layer, so the paths return bitwise
equal ids and distances, exact ties included.

Distances are computed internally as monotone surrogates (squared-L2
offset by a per-query constant; negative inner product for cosine), which
choose the k results. At the API boundary those k get true values (l2
recomputed from the vectors in float64, as its surrogate loses float32
precision when norms are large next to distances), ordered by (distance,
node). Vectors and queries with NaN or inf are refused.
"""
from __future__ import annotations

import math
from bisect import bisect
from itertools import chain
from typing import Iterator

import numpy as np

from repro import npz
from repro.hnsw.distance import normalize_rows, validate_metric

# A search() call with at least this many queries walks them in lockstep;
# fewer go one at a time, the walk insertion uses. Neither runs inside the
# scan rule (``_use_scan``). Lockstep speed relative to serial outside it
# (M=12, ef_construction=100, one BLAS thread; the median of three runs on
# 4 shared vCPUs), at 16 / 32 / 48 / 64 queries and at a full batch:
# groups_like (n=5076, d=64, ef=200) 1.15 / 1.81 / 2.20 / 2.52, 3.4 at 400;
# neardupe_like (n=8000, d=256, ef=200) 0.54 / 0.86 / 1.08 / 1.10, 1.5 at
# 400. A call also pays O(n) to build the padded neighbor matrices.
_BATCH_MIN = 64
# Byte budget of the lockstep search's visited bitmaps, one bool per query
# and node. A batch is searched in chunks of queries that fit it.
_VISITED_BYTES = 32 << 20


def _use_scan(n: int, ef: int, m0: int) -> bool:
    """Whether a search at ``ef`` over ``n`` nodes of layer-0 degree cap
    ``m0`` scans every node instead of walking the graph: when n + 1 is at
    most ef * m0, the most distances one layer-0 walk can compute. This is
    that bound, not a measured crossover."""
    return n + 1 <= ef * m0


def _nearest(sur: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest entries of ``sur``, ordered by
    (value, position); a tie at the k-th value goes to the lower position."""
    if k < sur.size:
        pos = np.flatnonzero(sur <= np.partition(sur, k - 1)[k - 1])
    else:
        pos = np.arange(sur.size)
    return pos[np.argsort(sur[pos], kind="stable")[:k]]


# Lockstep result keys (uint64): the order-preserving bits of the float32
# surrogate distance in the high half, node << 1 in the low half, and the
# lowest bit set once the node is expanded; so keys sort by (dist, node).
_ONE = np.uint64(1)
_HIGH = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)  # an unused slot: sorts last, "expanded"
_SIGN = np.uint32(0x80000000)


def _make_keys(dist: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Unexpanded result keys for float32 surrogates ``dist`` of ``nodes``."""
    bits = dist.view(np.uint32)
    bits = np.where(bits >> 31 == 1, ~bits, bits | _SIGN)
    return (bits.astype(np.uint64) << _HIGH) | (nodes.astype(np.uint64) << _ONE)


def _key_node(keys: np.ndarray) -> np.ndarray:
    return ((keys & _LOW) >> _ONE).astype(np.int64)


def _key_dist(keys: np.ndarray) -> np.ndarray:
    bits = (keys >> _HIGH).astype(np.uint32)
    return np.where(bits >> 31 == 1, bits ^ _SIGN, ~bits).view(np.float32)


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite; found NaN or inf")


# The members of a stored index and the dtype kinds each may have; scalars
# holds dim, M, ef_construction, seed and entry.
_MEMBERS = dict(scalars="i", metric="U", data="f", ids="i", levels="u", degree="u", neighbors="u")


def _smallest(a: np.ndarray) -> np.ndarray:
    """Non-negative integers ``a`` in the smallest dtype that holds them."""
    return a.astype(np.min_scalar_type(int(a.max(initial=0))))


class HNSWIndex:
    """An append-only HNSW index over float32 vectors with external ids.

    Parameters mirror hnswlib: ``M`` (degree target), ``ef_construction``
    (build-time frontier width), ``metric`` ("l2" or "cosine"), ``seed``
    (level sampling — builds are deterministic given insertion order).
    """

    def __init__(
        self,
        dim: int,
        *,
        M: int = 16,
        ef_construction: int = 200,
        metric: str = "l2",
        seed: int = 0,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if M < 2:
            raise ValueError(f"M must be >= 2, got {M}")
        if ef_construction < 1:
            raise ValueError(f"ef_construction must be >= 1, got {ef_construction}")
        self.dim = int(dim)
        self.M = int(M)
        self.M0 = 2 * int(M)
        self.ef_construction = int(ef_construction)
        self.metric = validate_metric(metric)
        self.seed = int(seed)
        self._mL = 1.0 / math.log(M)
        self._rng = np.random.default_rng(seed)
        self._data = np.empty((0, dim), dtype=np.float32)  # stored (normalized if cosine)
        self._sq_norms = np.empty((0,), dtype=np.float32)
        self._ids = np.empty((0,), dtype=np.int64)
        self._levels: list[int] = []
        # _links[level][node] -> list[int] of internal neighbor ids.
        self._links: list[dict[int, list[int]]] = []
        self._entry: int = -1

    # ------------------------------------------------------------------ size
    @property
    def n_items(self) -> int:
        """Number of indexed vectors."""
        return len(self._levels)

    @property
    def max_level(self) -> int:
        """Topmost populated layer (-1 when empty)."""
        return len(self._links) - 1

    @property
    def ids(self) -> np.ndarray:
        """External ids in insertion order (read-only view)."""
        return self._ids

    # ------------------------------------------------------- internal kernels
    def _surrogate(self, q: np.ndarray, nodes: np.ndarray | slice) -> np.ndarray:
        """Monotone distance surrogate from prepped query to internal nodes
        (an index array, or a slice for one product over a run of nodes)."""
        v = self._data[nodes]
        if self.metric == "cosine":
            return -(v @ q)
        return self._sq_norms[nodes] - 2.0 * (v @ q)

    def _scan(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nodes nearest prepped ``q`` and their surrogates, in
        (surrogate, node) order, from one matrix-vector product over every
        node: what Alg 2 returns when it visits every node."""
        sur = self._surrogate(q, slice(None))
        best = _nearest(sur, k)
        return best, sur[best]

    def _true_dist(self, q: np.ndarray, nodes: np.ndarray, surrogate: np.ndarray) -> np.ndarray:
        """True distances from prepped ``q`` to ``nodes``: from their
        ``surrogate`` for cosine, from the vectors in float64 for l2."""
        if self.metric == "cosine":
            return (1.0 + surrogate).astype(np.float32)
        diff = self._data[nodes].astype(np.float64) - q
        return np.sqrt(np.einsum("ij,ij->i", diff, diff)).astype(np.float32)

    def _search_layer(
        self,
        q: np.ndarray,
        entry_points: list[tuple[float, int]],
        ef: int,
        level: int,
    ) -> list[tuple[float, int]]:
        """Alg 2: ef-bounded best-first search in one layer.

        ``entry_points`` are (surrogate_dist, node) pairs; returns up to
        ``ef`` (surrogate_dist, node) pairs sorted ascending. This is
        ``_layer_batch``'s rule on one query: a key enters the results only
        while they are fewer than ef or it sorts before the last.
        """
        links = self._links[level]
        visited = {n for _, n in entry_points}
        results = sorted(entry_points)[:ef]
        expanded: set[int] = set()
        i = 0  # every result before i is expanded
        while True:
            while i < len(results) and results[i][1] in expanded:
                i += 1
            if i == len(results):
                return results
            c = results[i][1]
            expanded.add(c)
            fresh = [n for n in links.get(c, ()) if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            nd = self._surrogate(q, np.asarray(fresh, dtype=np.int64)).tolist()
            for key in zip(nd, fresh):
                if len(results) < ef or key < results[-1]:
                    j = bisect(results, key)
                    results.insert(j, key)
                    if len(results) > ef:
                        results.pop()
                    if j < i:
                        i = j

    def _select_heuristic(
        self, base: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Alg 4: pick <= m diverse neighbors, keepPrunedConnections=True.

        ``candidates`` are (surrogate_dist, node) pairs ascending by
        distance to ``base`` (a stored vector). A candidate is kept only if
        it is closer to ``base`` than to every already-selected neighbor;
        pruned candidates backfill remaining slots. Comparisons use true
        metric values (squared L2 / cosine distance) on both sides.
        """
        if len(candidates) <= m:
            return [n for _, n in candidates]
        nodes = [n for _, n in candidates]
        vecs = self._data[np.asarray(nodes, dtype=np.int64)]
        if self.metric == "l2":
            diff = vecs - base
            d_base = np.einsum("ij,ij->i", diff, diff)
        else:
            d_base = 1.0 - vecs @ base
        selected: list[int] = []
        selected_vecs: list[np.ndarray] = []
        pruned: list[int] = []
        for i, n in enumerate(nodes):
            if len(selected) >= m:
                break
            v = vecs[i]
            db = float(d_base[i])
            keep = True
            for sv in selected_vecs:
                if self.metric == "l2":
                    dv = v - sv
                    ds = float(dv @ dv)
                else:
                    ds = 1.0 - float(v @ sv)
                if ds < db:
                    keep = False
                    break
            if keep:
                selected.append(n)
                selected_vecs.append(v)
            else:
                pruned.append(n)
        for n in pruned:
            if len(selected) >= m:
                break
            selected.append(n)
        return selected

    # ---------------------------------------------------------------- insert
    def add_items(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Insert a batch of vectors with external int64 ids (Alg 1). An id
        that repeats in the batch or is already indexed raises ValueError."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) vectors, got {vectors.shape}")
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids and vectors length mismatch")
        known, counts = np.unique(np.concatenate([self._ids, ids]), return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"id {known[counts > 1][0]} is given twice; ids must be unique")
        _check_finite(vectors, "vectors")
        stored = normalize_rows(vectors) if self.metric == "cosine" else vectors
        start = self.n_items
        self._data = np.vstack([self._data, stored])
        self._sq_norms = np.concatenate(
            [self._sq_norms, np.einsum("ij,ij->i", stored, stored).astype(np.float32)]
        )
        self._ids = np.concatenate([self._ids, ids])
        for i in range(vectors.shape[0]):
            self._insert_one(start + i)

    def _insert_one(self, node: int) -> None:
        q = self._data[node]
        u = self._rng.random()
        level = int(-math.log(max(u, 1e-12)) * self._mL)
        self._levels.append(level)
        old_top = len(self._links) - 1  # pre-insert topmost layer (-1 if empty)
        while len(self._links) <= level:
            self._links.append({})
        for lc in range(level + 1):
            self._links[lc].setdefault(node, [])
        if self._entry < 0:
            self._entry = node
            return
        if _use_scan(node, self.ef_construction, self.M0):
            # The nodes inserted so far are few: each layer's candidates are
            # its ef_construction nodes nearest q, from one product over all.
            sur = self._surrogate(q, slice(node))
            levels = np.asarray(self._levels[:node])
            for lc in range(min(level, old_top), -1, -1):
                layer = np.flatnonzero(levels >= lc)
                best = layer[_nearest(sur[layer], self.ef_construction)]
                self._link(node, lc, list(zip(sur[best].tolist(), best.tolist())))
        else:
            # Alg 1: Alg 2 at ef=1 down to `level`, then at ef_construction
            # and linking at each layer below. Layers above old_top hold only
            # `node`.
            ep = self._entry
            w = [(float(self._surrogate(q, np.asarray([ep], dtype=np.int64))[0]), ep)]
            for lc in range(old_top, -1, -1):
                w = self._search_layer(q, w, self.ef_construction if lc <= level else 1, lc)
                if lc <= level:
                    self._link(node, lc, w)
        # A new topmost layer makes this node the global entry point.
        if level > old_top:
            self._entry = node

    def _link(self, node: int, lc: int, w: list[tuple[float, int]]) -> None:
        """Alg 1's linking at layer ``lc``: ``node`` takes Alg 4's pick of its
        candidates ``w`` as neighbors, and each neighbor links back, pruned
        by Alg 4 to the layer's degree cap."""
        m_cap = self.M0 if lc == 0 else self.M
        neighbors = self._select_heuristic(self._data[node], w, self.M)
        layer = self._links[lc]
        layer[node] = list(neighbors)
        for n in neighbors:
            lst = layer.setdefault(n, [])
            lst.append(node)
            if len(lst) > m_cap:
                nd = self._surrogate(self._data[n], np.asarray(lst, dtype=np.int64))
                cand = sorted(zip(nd.tolist(), lst))
                layer[n] = self._select_heuristic(self._data[n], cand, m_cap)

    # ---------------------------------------------------------------- search
    def search(
        self, queries: np.ndarray, k: int, *, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search for each row of ``queries``.

        Returns ``(ids, dists)`` of shape (q, k'), k' = min(k, n_items),
        ids are *external* ids, dists are true metric distances ascending,
        ties by node. A small graph is scanned (``_use_scan``); otherwise a
        call with at least ``_BATCH_MIN`` rows walks them in lockstep.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"expected (q, {self.dim}) queries, got {queries.shape}")
        _check_finite(queries, "queries")
        n = self.n_items
        kk = min(k, n)
        out_ids = np.empty((queries.shape[0], kk), dtype=np.int64)
        out_d = np.empty((queries.shape[0], kk), dtype=np.float32)
        if n == 0:
            return out_ids, out_d
        ef_eff = max(ef if ef is not None else max(2 * k, 50), kk)
        prepped = normalize_rows(queries) if self.metric == "cosine" else queries
        if _use_scan(n, ef_eff, self.M0):
            found = (self._scan(q, kk) for q in prepped)
        elif queries.shape[0] >= _BATCH_MIN:
            found = self._search_batch(prepped, ef_eff, kk)
        else:
            found = (self._search_one(q, ef_eff, kk) for q in prepped)
        for qi, (nodes, sur) in enumerate(found):
            q = prepped[qi]
            if nodes.shape[0] < kk:  # disconnected graph corner: backfill
                rest = np.setdiff1d(np.arange(n, dtype=np.int64), nodes)[: kk - nodes.shape[0]]
                nodes = np.concatenate([nodes, rest])
                sur = np.concatenate([sur, self._surrogate(q, rest).astype(np.float32)])
            dist = self._true_dist(q, nodes, sur)
            order = np.lexsort((nodes, dist))
            out_ids[qi] = self._ids[nodes[order]]
            out_d[qi] = dist[order]
        return out_ids, out_d

    def _search_one(
        self, q: np.ndarray, ef: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Alg 5 for one prepped query: Alg 2 at ef=1 on every layer above 0,
        then at ``ef`` on layer 0.

        Returns up to ``k`` (nodes, surrogate dists) ascending.
        """
        ep = self._entry
        w = [(float(self._surrogate(q, np.asarray([ep], dtype=np.int64))[0]), ep)]
        for lc in range(self.max_level, -1, -1):
            w = self._search_layer(q, w, ef if lc == 0 else 1, lc)
        res = w[:k]
        nodes = np.asarray([n for _, n in res], dtype=np.int64)
        return nodes, np.asarray([d for d, _ in res], dtype=np.float32)

    def _search_batch(
        self, Q: np.ndarray, ef: int, k: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``_search_one`` for each row of ``Q``, all rows in lockstep.

        The rows go in chunks whose visited bitmaps fit ``_VISITED_BYTES``.
        """
        n = self.n_items
        links = self._padded_links()
        data = np.vstack([self._data, np.zeros((1, self.dim), np.float32)])
        sq_norms = np.append(self._sq_norms, np.float32(0.0))
        chunk = max(1, _VISITED_BYTES // (n + 1))
        for lo in range(0, Q.shape[0], chunk):
            q = Q[lo : lo + chunk]
            ep = np.full(q.shape[0], self._entry, dtype=np.int64)
            ep_d = self._batch_surrogate(data, sq_norms, q, ep[:, None])[:, 0]
            for lc in range(self.max_level, -1, -1):
                keys = self._layer_batch(
                    data, sq_norms, q, ep, ep_d, links[lc], ef if lc == 0 else 1
                )
                ep, ep_d = _key_node(keys[:, 0]), _key_dist(keys[:, 0])
            for row in keys:
                row = row[row != _EMPTY][:k]
                yield _key_node(row), _key_dist(row)

    def _padded_links(self) -> list[np.ndarray]:
        """``_links`` as one (n + 1, width) int32 matrix per layer: row i holds
        node i's neighbors in list order, padded with the sentinel node n."""
        n = self.n_items
        out = []
        for layer in self._links:
            lens = np.fromiter(map(len, layer.values()), np.int64, len(layer))
            mat = np.full((n + 1, max(int(lens.max(initial=0)), 1)), n, dtype=np.int32)
            rows = np.repeat(np.fromiter(layer.keys(), np.int64, len(layer)), lens)
            cols = np.arange(rows.shape[0]) - np.repeat(np.cumsum(lens) - lens, lens)
            nbrs = chain.from_iterable(layer.values())
            mat[rows, cols] = np.fromiter(nbrs, np.int64, rows.shape[0])
            out.append(mat)
        return out

    def _batch_surrogate(
        self, data: np.ndarray, sq_norms: np.ndarray, Q: np.ndarray, nb: np.ndarray
    ) -> np.ndarray:
        """``_surrogate`` from row b of ``Q`` to the nodes ``nb[b]``: one
        stacked product, so each row of two or more nodes is a matrix-vector
        product and a row of one node a dot product, as on the serial path."""
        dot = (data[nb] @ Q[:, :, None])[:, :, 0]
        if self.metric == "cosine":
            return -dot
        return sq_norms[nb] - 2.0 * dot

    def _layer_batch(
        self,
        data: np.ndarray,
        sq_norms: np.ndarray,
        Q: np.ndarray,
        ep: np.ndarray,
        ep_d: np.ndarray,
        links: np.ndarray,
        ef: int,
    ) -> np.ndarray:
        """``_search_layer`` in one layer for every row of ``Q``, in lockstep.

        Each step expands, in every row still searching, its closest result
        not yet expanded. Returns the (rows, ef) result keys, sorted per
        row, with ``_EMPTY`` in unused slots.
        """
        n = self.n_items
        keys = np.full((Q.shape[0], ef), _EMPTY)
        keys[:, 0] = _make_keys(ep_d, ep)
        visited = np.zeros((Q.shape[0], n + 1), dtype=bool)
        visited[:, n] = True  # the sentinel is never fresh
        visited[np.arange(Q.shape[0]), ep] = True
        visited = visited.ravel()
        out = np.empty_like(keys)
        rid = np.arange(Q.shape[0])  # rows still searching
        while True:
            unexpanded = (keys & _ONE) == 0  # _EMPTY has the bit set
            j = unexpanded.argmax(axis=1)  # the closest unexpanded result
            live = unexpanded[np.arange(rid.size), j]
            if not live.all():
                out[rid[~live]] = keys[~live]
                rid, keys, j, Q = rid[live], keys[live], j[live], Q[live]
                if not rid.size:
                    return out
            r = np.arange(rid.size)
            expanded = keys[r, j] | _ONE
            keys[r, j] = expanded
            nb = links[_key_node(expanded)]
            flat = rid[:, None] * (n + 1) + nb
            fresh = ~visited[flat]
            visited[flat] = True
            n_fresh = fresh.sum(axis=1)
            g = n_fresh.nonzero()[0]  # rows with fresh neighbors
            nb, fresh = nb[g], fresh[g]
            new = _make_keys(self._batch_surrogate(data, sq_norms, Q[g], nb), nb)
            new = np.where(fresh, new, _EMPTY)
            one = (n_fresh[g] == 1).nonzero()[0]  # a single fresh node: a dot product
            if one.size:
                c = fresh[one].argmax(axis=1)
                nb1 = nb[one, c]
                d1 = self._batch_surrogate(data, sq_norms, Q[g[one]], nb1[:, None])[:, 0]
                new[one, c] = _make_keys(d1, nb1)
            e = (new.min(axis=1) < keys[g, -1]).nonzero()[0]  # rows whose results change
            g = g[e]
            merged = np.concatenate([keys[g], new[e]], axis=1)
            keys[g] = np.sort(merged, axis=1, kind="stable")[:, :ef]

    # --------------------------------------------------------- serialization
    def to_bytes(self) -> bytes:
        """Serialize vectors, graph and build configuration (paper Sec 7: the
        shipped index bundles all three) as the store's npz (``repro.npz``).
        The graph is CSR: layer by layer, the nodes with level >= l in node
        order give their ``degree`` and their ``neighbors``, concatenated."""
        rows = [nbrs for layer in self._links for _, nbrs in sorted(layer.items())]
        degree = np.fromiter(map(len, rows), np.int64, len(rows))
        neighbors = np.fromiter(chain.from_iterable(rows), np.int64, int(degree.sum()))
        scalars = [self.dim, self.M, self.ef_construction, self.seed, self._entry]
        return npz.pack({
            "scalars": np.asarray(scalars, dtype=np.int64),
            "metric": self.metric,
            "data": self._data,
            "ids": self._ids,
            "levels": _smallest(np.asarray(self._levels, dtype=np.int64)),
            "degree": _smallest(degree),
            "neighbors": _smallest(neighbors),
        })

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HNSWIndex":
        """Inverse of :meth:`to_bytes`. Reads plain arrays only, so loading
        runs no code; a blob that is not a well-formed index raises
        ``ValueError``."""
        f = npz.unpack(blob)
        for name, kind in _MEMBERS.items():
            if name not in f or f[name].dtype.kind != kind:
                raise ValueError(f"index member {name!r} is missing or not of kind {kind!r}")
        if f["scalars"].shape != (5,) or f["metric"].shape != ():
            raise ValueError("index scalars or metric have the wrong shape")
        dim, M, ef_construction, seed, entry = f["scalars"].tolist()
        idx = cls(dim, M=M, ef_construction=ef_construction, metric=str(f["metric"]), seed=seed)
        data, ids, levels = f["data"], f["ids"], f["levels"].astype(np.int64)
        degree, neighbors = f["degree"].astype(np.int64), f["neighbors"]
        n = levels.size
        if levels.ndim != 1 or ids.shape != levels.shape or data.shape != (n, dim):
            raise ValueError(f"index data {data.shape}, ids {ids.shape}, levels {levels.shape}")
        _check_finite(data, "index vectors")
        if degree.shape != (int((levels + 1).sum()),):
            raise ValueError(f"index degree has {degree.size} rows, not one per node and layer")
        if neighbors.shape != (int(degree.sum()),) or (neighbors >= n).any():
            raise ValueError("index neighbors disagree with degree or leave 0..n-1")
        if degree[:n].max(initial=0) > idx.M0 or degree[n:].max(initial=0) > idx.M:
            raise ValueError(f"index degree over its cap ({idx.M0} at layer 0, {idx.M} above)")
        top = int(levels.max(initial=-1))
        if not (entry == -1 if n == 0 else 0 <= entry < n and levels[entry] == top):
            raise ValueError(f"index entry {entry} is not a top-level node")
        nbrs, ends = neighbors.tolist(), np.cumsum(degree).tolist()
        rows = (nbrs[a:b] for a, b in zip([0, *ends], ends))
        for lc in range(top + 1):  # zip takes one row per node of the layer
            idx._links.append(dict(zip(np.flatnonzero(levels >= lc).tolist(), rows)))
        idx._data = data.astype(np.float32, copy=False)
        idx._sq_norms = np.einsum("ij,ij->i", idx._data, idx._data).astype(np.float32)
        idx._ids = ids.astype(np.int64, copy=False)
        idx._levels = levels.tolist()
        idx._entry = entry
        return idx
