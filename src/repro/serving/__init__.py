"""Online serving architecture simulation (paper Sec 7, Fig 9).

One ``Searcher`` per shard deserializes that shard's segment indices and
the metadata from the index store; a ``Broker`` loads the segmenter,
routes each query once, computes perShardTopK, fans the query and its
segments out to all searchers, and performs
the final merge — the same two-level merge as the offline pipeline, but
in-process, with the offline pipeline's search kernel and a numpy twin of
its merge (``repro.core.search``). Used for Table 7's QPS/recall spill
study and for QPS/p99 measurements.
"""
from repro.serving.searcher import Searcher
from repro.serving.broker import Broker, ServingStats

__all__ = ["Searcher", "Broker", "ServingStats"]
