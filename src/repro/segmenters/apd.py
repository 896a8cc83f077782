"""Approximate Principal Direction Hyperplane Segmenter (APD) — Sec 4.3.3.

The paper approximates the sparsest cut of the similarity graph
A = D·Dᵀ by splitting along the *second-largest right singular vector*
of the (sub)sampled data matrix D at each tree node. We compute it with
a dense SVD on the node's sample (capped for cost) — exact at our sample
sizes; the paper used Spark MLlib's distributed SVD for the same role
(see DESIGN.md substitution #6)."""
from __future__ import annotations

import numpy as np

from repro.segmenters.hyperplane import HyperplaneTreeSegmenter, learn_tree

_SVD_CAP = 8192  # rows fed to the dense SVD at each node


def _apd_direction(sample: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Second-largest right singular vector of the node's data matrix."""
    if sample.shape[0] > _SVD_CAP:
        pick = rng.choice(sample.shape[0], _SVD_CAP, replace=False)
        sample = sample[pick]
    # full_matrices=False: Vt is (min(n,d), d); row 1 = 2nd right SV.
    _, svals, vt = np.linalg.svd(sample.astype(np.float64), full_matrices=False)
    if vt.shape[0] < 2 or svals[1] <= 0:
        # Rank-deficient node: any direction orthogonal to the top SV.
        h = rng.standard_normal(sample.shape[1])
        h -= (h @ vt[0]) * vt[0]
        nrm = np.linalg.norm(h)
        if nrm == 0:
            h = rng.standard_normal(sample.shape[1])
            nrm = np.linalg.norm(h)
        return (h / nrm).astype(np.float32)
    return vt[1].astype(np.float32)


def learn_apd_segmenter(
    sample: np.ndarray, n_segments: int, *, alpha: float = 0.15, seed: int = 0
) -> HyperplaneTreeSegmenter:
    """Learn an APD segmenter with ``n_segments`` leaves (power of two)."""
    depth = int(np.log2(n_segments))
    if (1 << depth) != n_segments:
        raise ValueError(f"n_segments must be a power of 2, got {n_segments}")
    h, s, l, r = learn_tree(sample, depth, alpha, _apd_direction, seed=seed)
    return HyperplaneTreeSegmenter(h, s, l, r, kind="APD", alpha=alpha)
