"""From-scratch HNSW (Malkov & Yashunin) — the substrate LANNS partitions.

The container ships no ANN library (no hnswlib/FAISS), so the graph index
is implemented here in numpy: multi-layer proximity graph, geometric level
sampling, one ef-bounded layer search on every layer (ef=1 above the
target layer), and heuristic neighbor selection.
"""
from repro.hnsw.distance import batch_distances, pairwise_argsort_topk
from repro.hnsw.graph import HNSWIndex

__all__ = ["HNSWIndex", "batch_distances", "pairwise_argsort_topk"]
