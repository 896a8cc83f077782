"""Segmenter interface + serialization (paper Fig 5: the learnt segmenter
is stored once and shared by every shard's ingestion and querying). The
stored form is an ``.npz`` of plain arrays: reading it runs no code."""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import npz

SPILL_MODES = ("virtual", "physical")


def validate_spill(spill: str) -> str:
    """Return ``spill`` if it is a known mode, else raise ``ValueError``."""
    if spill not in SPILL_MODES:
        raise ValueError(f"unknown spill mode {spill!r}; expected one of {SPILL_MODES}")
    return spill


class Segmenter(ABC):
    """Routes points to segments at ingest (``assign``) and query time
    (``route``). Both return one ``np.ndarray`` of segment ids per input
    row — possibly with more than one entry when spill duplicates work."""

    kind: str  # 'RS', 'RH' or 'APD' (paper Sec 4.3 nomenclature)
    n_segments: int
    _fields: tuple[str, ...]  # what to_bytes stores beside ``kind``

    @abstractmethod
    def assign(
        self, vectors: np.ndarray, ids: np.ndarray, *, spill: str = "virtual"
    ) -> list[np.ndarray]:
        """Segment id(s) for each data point at ingestion time."""

    @abstractmethod
    def route(self, vectors: np.ndarray, *, spill: str = "virtual") -> list[np.ndarray]:
        """Segment id(s) each query fans out to."""

    def to_bytes(self) -> bytes:
        """Serialize for the index store / Spark broadcast: the store's
        ``.npz`` of plain arrays (``repro.npz``), so equal segmenters give
        equal bytes."""
        return npz.pack({name: getattr(self, name) for name in ("kind", *self._fields)})


def mix64(x: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic 64-bit integer mix (splitmix64 finalizer).

    Used for hash-based routing (sharding, RS segmentation) so partition
    assignment is identical on the driver, in every Spark worker, and
    across runs — unlike Python's randomized string hashing.
    """
    z = np.asarray(x, dtype=np.uint64) + np.uint64(
        ((salt + 1) * 0x9E3779B97F4A7C15) % (1 << 64)
    )
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z
