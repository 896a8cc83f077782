"""Online serving architecture (paper Sec 7, Fig 9).

One ``Searcher`` per shard deserializes that shard's segment indices and
the metadata from the index store. A ``Broker`` loads the segmenter and
shard 0's ``Searcher``, and starts one searcher process per other shard
(``python -m repro.serving.searcher``). It routes each query once,
computes perShardTopK, sends the query and its segments to every
process, searches shard 0 itself while they search theirs, and performs
the final merge — the same two-level merge as the offline pipeline, with
the offline pipeline's search kernel and a numpy twin of its merge
(``repro.core.search``). Used for Table 7's QPS/recall spill study and
for QPS/p99 measurements.

The names below are imported on first use (PEP 562), so that running
``repro.serving.searcher`` as a module does not import it twice.
"""
from importlib import import_module

_EXPORTS = {"Searcher": "searcher", "Broker": "broker", "ServingStats": "broker"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
