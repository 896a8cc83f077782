"""Shared hyperplane-tree machinery for the RH and APD segmenters.

Paper Sec 4.3.2: each internal node holds a unit hyperplane ``h``, a
median split point ``s`` and spill boundaries ``l``/``r`` (the 0.5∓α
fractiles of the projections ``U = D·h``). A depth-L tree is complete,
so it is four heap-ordered arrays: ``h`` of shape (2^L−1, d) and ``s``,
``l``, ``r`` of shape (2^L−1,), all float32. Node i's children are
2i+1 and 2i+2; leaf j (left to right) is segment j, so a depth-L tree
yields 2^L segments.

Insertion (data side, no spill): ``x·h < s`` → left else right.
Query (virtual spill):           ``q·h < l`` → left, ``q·h > r`` → right,
                                 else both sides.
Physical spill swaps the two rules (data duplicates inside [l, r],
queries take the median rule). See footnote 1 in the paper.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.segmenters.base import Segmenter, validate_spill

HyperplaneFn = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def learn_tree(
    sample: np.ndarray,
    depth: int,
    alpha: float,
    hyperplane_fn: HyperplaneFn,
    *,
    seed: int = 0,
    min_node: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Learn a depth-``depth`` tree of splitting hyperplanes; returns the
    heap-ordered ``(h, s, l, r)`` arrays.

    ``hyperplane_fn(node_sample, rng) -> (d,) unit vector`` supplies the
    direction (random for RH, approximate principal direction for APD).
    ``alpha`` is the spill fraction (paper uses 0.15 → ~30% of queries
    spill to both sides at each level).
    """
    sample = np.asarray(sample, dtype=np.float32)
    if sample.ndim != 2 or sample.shape[0] < 2:
        raise ValueError(f"need a (n>=2, d) sample, got {sample.shape}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not (0.0 <= alpha < 0.5):
        raise ValueError(f"alpha must be in [0, 0.5), got {alpha}")
    rng = np.random.default_rng(seed)
    n_nodes = (1 << depth) - 1
    h = np.empty((n_nodes, sample.shape[1]), dtype=np.float32)
    s, l, r = (np.empty(n_nodes, dtype=np.float32) for _ in range(3))

    def build(node_sample: np.ndarray, i: int) -> None:
        # Pre-order: the order of the rng draws, and so the tree, is fixed by the seed.
        if i >= n_nodes:
            return
        if node_sample.shape[0] < min_node:
            # Degenerate node: fall back to a balanced random direction so
            # the tree keeps its full shape (leaf numbering stays dense).
            hi = rng.standard_normal(node_sample.shape[1]).astype(np.float32)
            hi /= np.linalg.norm(hi)
        else:
            hi = np.asarray(hyperplane_fn(node_sample, rng), dtype=np.float32)
            nrm = float(np.linalg.norm(hi))
            if nrm <= 0:
                raise ValueError("hyperplane_fn returned a zero vector")
            hi = hi / nrm
        u = node_sample @ hi
        if u.size == 0:  # n < 2^depth leaves a node empty: split at 0
            si = lo = up = 0.0
        else:
            si = float(np.median(u))
            lo = float(np.quantile(u, 0.5 - alpha))
            up = float(np.quantile(u, 0.5 + alpha))
        h[i], s[i], l[i], r[i] = hi, si, min(lo, si), max(up, si)
        build(node_sample[u < si], 2 * i + 1)
        build(node_sample[u >= si], 2 * i + 2)

    build(sample, 0)
    return h, s, l, r


class HyperplaneTreeSegmenter(Segmenter):
    """Segmenter backed by a learnt hyperplane tree (RH or APD)."""

    _fields = ("alpha", "h", "s", "l", "r")

    def __init__(self, h, s, l, r, *, kind: str, alpha: float) -> None:
        h = np.ascontiguousarray(h, dtype=np.float32)
        s, l, r = (np.asarray(a, dtype=np.float32) for a in (s, l, r))
        n_nodes = len(h) if h.ndim == 2 else 0
        if n_nodes < 1 or (n_nodes + 1) & n_nodes:
            raise ValueError(f"h must have 2^L-1 rows (L >= 1), got shape {h.shape}")
        if not s.shape == l.shape == r.shape == (n_nodes,):
            raise ValueError(f"s, l, r must have shape ({n_nodes},): {(s.shape, l.shape, r.shape)}")
        if not all(np.isfinite(a).all() for a in (h, s, l, r)):
            raise ValueError("hyperplane tree arrays must be finite")
        if not np.all((l <= s) & (s <= r)):
            raise ValueError("every node's spill band [l, r] must bracket its split s")
        self.h, self.s, self.l, self.r = h, s, l, r
        self.kind = kind
        self.alpha = float(alpha)
        self.depth = n_nodes.bit_length()
        self.n_segments = 1 << self.depth

    def _leaves(self, vectors: np.ndarray, *, spilling: bool) -> list[np.ndarray]:
        """Route each row down the tree, one level at a time.

        ``spilling=False`` → median rule, exactly one leaf per row.
        ``spilling=True``  → [l, r] band duplicates rows to both subtrees.
        """
        x = np.asarray(vectors, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        n = x.shape[0]
        # Matrix-vector products only (one per node; node matrix × row for a
        # single row): BLAS then gives a row the same projection at any batch
        # size, which one matrix-matrix product does not.
        if n == 1:
            u = (self.h @ x[0])[None, :]
        else:
            u = np.stack([x @ node_h for node_h in self.h], axis=1)
        reach = np.ones((n, 1), dtype=bool)  # (row, node of the level) reached
        for level in range(self.depth):
            lo, hi = (1 << level) - 1, (2 << level) - 1
            ul = u[:, lo:hi]
            if spilling:
                go_left, go_right = ul <= self.r[lo:hi], ul >= self.l[lo:hi]
            else:
                go_left = ul < self.s[lo:hi]
                go_right = ~go_left
            reach = np.repeat(reach, 2, axis=1)  # node j's children: 2j, 2j+1
            reach[:, 0::2] &= go_left
            reach[:, 1::2] &= go_right
        leaves = np.nonzero(reach)[1]  # row-major: each row's leaves sorted
        ends = np.cumsum(reach.sum(axis=1)).tolist()
        return [leaves[a:b] for a, b in zip([0, *ends], ends)]

    def assign(
        self, vectors: np.ndarray, ids: np.ndarray, *, spill: str = "virtual"
    ) -> list[np.ndarray]:
        validate_spill(spill)
        # virtual spill: data goes to exactly one segment;
        # physical spill: data inside the band is duplicated.
        return self._leaves(vectors, spilling=(spill == "physical"))

    def route(self, vectors: np.ndarray, *, spill: str = "virtual") -> list[np.ndarray]:
        validate_spill(spill)
        # virtual spill: queries in the band fan out; physical: single leaf.
        return self._leaves(vectors, spilling=(spill == "virtual"))
