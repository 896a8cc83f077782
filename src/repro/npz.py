"""The index store's one file format, for ``segmenter.bin`` and every
``segment=<m>.hnsw``: an ``.npz`` of plain arrays. Reading uses
``allow_pickle=False``, so loading a store runs no code, and raises every
decode failure as ``ValueError``. Each member gets the zip format's default
timestamp, so equal arrays give equal bytes."""
from __future__ import annotations

import io
import zipfile

import numpy as np


def pack(arrays: dict[str, np.ndarray]) -> bytes:
    """One ``.npz`` holding each array under its name, in dict order."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, value in arrays.items():
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w") as f:
                np.lib.format.write_array(f, np.asarray(value), allow_pickle=False)
    return buf.getvalue()


def unpack(blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack`; a blob that is not such an archive (a
    pickle, a truncated file) raises ``ValueError``."""
    try:
        loaded = np.load(io.BytesIO(blob), allow_pickle=False)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array, not an npz archive")
        with loaded as npz:
            return {name: npz[name] for name in npz.files}
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"not an npz of plain arrays: {e!r}") from e
