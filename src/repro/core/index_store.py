"""On-disk LANNS index layout — the paper's HDFS store (DESIGN.md
substitution #3: local filesystem standing in for HDFS).

```
<root>/
  metadata.json            # written from the driver (Fig 6)
  segmenter.bin            # the shared learnt segmenter (Fig 5): an npz, no pickle
  shard=<s>/segment=<m>.hnsw   # serialized HNSW (still a pickle), written from executors
```

The metadata bundles everything the online searcher needs to deserialize
consistently (paper Sec 7: distance function, segmenter, build params
ship with the index so offline build and online serving cannot drift).
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

from repro.hnsw.graph import HNSWIndex
from repro.segmenters.base import Segmenter
from repro.segmenters.learning import segmenter_from_bytes


@dataclass(frozen=True)
class IndexMetadata:
    """Build-time configuration persisted beside the index shards."""

    dim: int
    metric: str
    n_shards: int
    n_segments: int
    segmenter_kind: str
    spill: str
    alpha: float
    hnsw_m: int
    hnsw_ef_construction: int
    n_items: int


class IndexStore:
    """Filesystem layout + (de)serialization for one LANNS index."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------ metadata
    @property
    def metadata_path(self) -> str:
        return os.path.join(self.root, "metadata.json")

    def save_metadata(self, meta: IndexMetadata) -> None:
        with open(self.metadata_path, "w") as f:
            json.dump(asdict(meta), f, indent=2)

    def load_metadata(self) -> IndexMetadata:
        with open(self.metadata_path) as f:
            return IndexMetadata(**json.load(f))

    # ----------------------------------------------------------- segmenter
    @property
    def segmenter_path(self) -> str:
        return os.path.join(self.root, "segmenter.bin")

    def save_segmenter(self, segmenter: Segmenter) -> None:
        with open(self.segmenter_path, "wb") as f:
            f.write(segmenter.to_bytes())

    def load_segmenter(self) -> Segmenter:
        with open(self.segmenter_path, "rb") as f:
            return segmenter_from_bytes(f.read())

    # -------------------------------------------------------------- shards
    def index_path(self, shard_id: int, segment_id: int) -> str:
        return os.path.join(
            self.root, f"shard={shard_id}", f"segment={segment_id}.hnsw"
        )

    def write_index_bytes(self, shard_id: int, segment_id: int, blob: bytes) -> str:
        """Executor-side write of one serialized (shard, segment) index."""
        path = self.index_path(shard_id, segment_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)  # atomic: readers never see partial writes
        return path

    def read_index(self, shard_id: int, segment_id: int) -> HNSWIndex:
        with open(self.index_path(shard_id, segment_id), "rb") as f:
            return HNSWIndex.from_bytes(f.read())

    def list_partitions(self) -> list[tuple[int, int]]:
        """All (shard_id, segment_id) pairs present on disk, sorted."""
        out = []
        for d in sorted(os.listdir(self.root)):
            if not d.startswith("shard="):
                continue
            s = int(d.split("=", 1)[1])
            for f in sorted(os.listdir(os.path.join(self.root, d))):
                if f.startswith("segment=") and f.endswith(".hnsw"):
                    out.append((s, int(f[len("segment=") : -len(".hnsw")])))
        return sorted(out)
