"""Segmenter learning framework (paper Sec 5.1, Fig 5).

The input dataset is subsampled uniformly at random on the cluster, the
sample is brought to the driver, and one segmenter is learnt and shared
across all shards (the paper notes shard data distributions are uniform
because sharding is hash-based, so one segmenter fits every shard)."""
from __future__ import annotations

import io
import zipfile

import numpy as np
from pyspark.sql import DataFrame

from repro.segmenters.apd import learn_apd_segmenter
from repro.segmenters.base import Segmenter
from repro.segmenters.hyperplane import HyperplaneTreeSegmenter
from repro.segmenters.random_segmenter import RandomSegmenter
from repro.segmenters.rh import learn_rh_segmenter

SEGMENTER_KINDS = ("RS", "RH", "APD")


def sample_vectors(
    df: DataFrame,
    *,
    n_sample: int,
    vec_col: str = "vector",
    seed: int = 0,
) -> np.ndarray:
    """Uniform random subsample of a vector DataFrame, as a numpy matrix.

    Mirrors Fig 5's "Sample" box: the paper learns on a 250k subsample of
    1M; we scale the sample with our datasets. Oversamples slightly then
    truncates, since ``DataFrame.sample`` is Bernoulli (approximate)."""
    total = df.count()
    if total == 0:
        raise ValueError("cannot learn a segmenter from an empty dataset")
    if n_sample >= total:
        pdf = df.select(vec_col).toPandas()
    else:
        frac = min(1.0, 1.25 * n_sample / total)
        pdf = df.select(vec_col).sample(fraction=frac, seed=seed).toPandas()
        pdf = pdf.iloc[:n_sample]
    return np.stack(pdf[vec_col].to_numpy()).astype(np.float32)


def learn_segmenter(
    kind: str,
    n_segments: int,
    *,
    sample: np.ndarray | None = None,
    alpha: float = 0.15,
    seed: int = 0,
) -> Segmenter:
    """Learn a segmenter of the given ``kind`` ("RS"/"RH"/"APD").

    RS needs no data; RH/APD require a ``sample`` matrix (from
    :func:`sample_vectors`). ``n_segments == 1`` degenerates to RS for
    any kind (a single leaf needs no hyperplanes)."""
    if kind not in SEGMENTER_KINDS:
        raise ValueError(f"unknown segmenter kind {kind!r}; expected {SEGMENTER_KINDS}")
    if n_segments == 1 or kind == "RS":
        return RandomSegmenter(n_segments)
    if sample is None:
        raise ValueError(f"{kind} segmenter requires a data sample")
    if kind == "RH":
        return learn_rh_segmenter(sample, n_segments, alpha=alpha, seed=seed)
    return learn_apd_segmenter(sample, n_segments, alpha=alpha, seed=seed)


def segmenter_from_bytes(blob: bytes) -> Segmenter:
    """Inverse of :meth:`Segmenter.to_bytes`. Reads plain arrays only, so
    loading ``segmenter.bin`` runs no code; a bad archive raises ``ValueError``."""
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
            f = {name: npz[name] for name in npz.files}
        kind = str(f["kind"])
        if kind == "RS":
            return RandomSegmenter(int(f["n_segments"]))
        if kind in ("RH", "APD"):
            alpha = float(f["alpha"])
            return HyperplaneTreeSegmenter(f["h"], f["s"], f["l"], f["r"], kind=kind, alpha=alpha)
    except (KeyError, TypeError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"not a segmenter archive: {e!r}") from e
    raise ValueError(f"unknown segmenter kind {kind!r}; expected {SEGMENTER_KINDS}")
