"""Random Hyperplane Segmenter (RH) — paper Sec 4.3.2.

Hyperplanes are drawn uniformly from the unit sphere (isotropic Gaussian,
normalized); split at the median projection with an α spill band, per
Randomized Partition Trees (Dasgupta & Sinha)."""
from __future__ import annotations

import numpy as np

from repro.segmenters.hyperplane import HyperplaneTreeSegmenter, learn_tree


def _random_unit(sample: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    h = rng.standard_normal(sample.shape[1]).astype(np.float32)
    return h / np.linalg.norm(h)


def learn_rh_segmenter(
    sample: np.ndarray, n_segments: int, *, alpha: float = 0.15, seed: int = 0
) -> HyperplaneTreeSegmenter:
    """Learn an RH segmenter with ``n_segments`` leaves (power of two)."""
    depth = int(np.log2(n_segments))
    if (1 << depth) != n_segments:
        raise ValueError(f"n_segments must be a power of 2, got {n_segments}")
    h, s, l, r = learn_tree(sample, depth, alpha, _random_unit, seed=seed)
    return HyperplaneTreeSegmenter(h, s, l, r, kind="RH", alpha=alpha)
