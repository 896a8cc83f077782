"""LANNS core: two-level partitioning, offline indexing and querying.

The paper's primary contribution (Sec 4-5): hash sharding + learnt
segmentation, parallel per-(shard, segment) HNSW builds, the partitioned
query pipeline with two-level merging, and the perShardTopK optimization.

The names below are imported on first use (PEP 562), so a process that
only reads a store, such as a searcher, never imports pyspark or pandas.
"""
from importlib import import_module

_EXPORTS = {
    "shard_of": "partitioner",
    "tag_partitions": "partitioner",
    "route_queries": "partitioner",
    "IndexStore": "index_store",
    "IndexMetadata": "index_store",
    "build_index": "indexing",
    "query_index": "querying",
    "per_shard_topk": "topk",
    "theory": None,
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _EXPORTS[name]
    value = (
        import_module(f"{__name__}.{name}")
        if module is None
        else getattr(import_module(f"{__name__}.{module}"), name)
    )
    globals()[name] = value
    return value
