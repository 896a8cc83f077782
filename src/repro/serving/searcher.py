"""A searcher node: hosts one shard's segment indices (paper Sec 7).

Startup mirrors production: the serialized indices + persisted metadata
are deserialized into native structures "with minimal additional
configuration", so the online path cannot diverge from the offline build
(the distance function comes from the store), and it searches with the
offline pipeline's kernel, ``repro.core.search``. The broker routes each
query once and hands every searcher the same segment list.

Run as ``python -m repro.serving.searcher <root> <shard> <ef>``, the
module is a searcher process: it loads its shard, sends an empty frame,
then answers one request frame after another on stdin/stdout until stdin
closes. A frame is an int64 byte count and that many raw bytes; a
negative count marks an error frame, ``"<exception class>\\n<message>"``,
after which the process exits. ``SearcherProcess`` is the other end.
"""
from __future__ import annotations

import os
import select
import signal
import struct
import subprocess
import sys
from contextlib import suppress
from typing import BinaryIO, Callable

import numpy as np

import repro
from repro.core.index_store import IndexStore
from repro.core.search import merge_candidates, search_probes

_HEADER = struct.Struct("<q")
_EXIT_TIMEOUT_S = 5.0  # after stdin closes, before the process is killed
# An error frame of one of these classes is raised as the same class in
# the broker (a store's load errors); any other class as RuntimeError.
_ERRORS = {"ValueError": ValueError, "FileNotFoundError": FileNotFoundError}


class Searcher:
    """Serves one shard: segment searches + segment-level merge in-node."""

    def __init__(self, store: IndexStore, shard_id: int, *, ef: int | None = None):
        self.shard_id = int(shard_id)
        self.meta = store.load_metadata()
        if not 0 <= self.shard_id < self.meta.n_shards:
            raise ValueError(f"shard {shard_id} not in 0..{self.meta.n_shards - 1}")
        self.ef = ef
        self._segments = {
            m: store.read_index(self.shard_id, m) for m in range(self.meta.n_segments)
        }

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def search(
        self, query: np.ndarray, segments: np.ndarray, per_shard_topk: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search the query's routed ``segments``, merge in-node (level-1
        merge). Returns up to ``per_shard_topk`` (ids, dists) ascending.
        """
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        n = len(segments)
        partial = search_probes(
            lambda _, m: self._segments[m], np.zeros(n, np.int64), np.repeat(query, n, axis=0),
            np.full(n, self.shard_id), segments, per_shard_topk, self.ef,
        )
        return merge_candidates(partial["neighbor_id"], partial["dist"], per_shard_topk)


def _write_frame(f: BinaryIO, payload: bytes, *, error: bool = False) -> None:
    f.write(_HEADER.pack(-len(payload) if error else len(payload)) + payload)
    f.flush()


def _read_frame(read: Callable[[int], bytes]) -> tuple[bytes, bool] | None:
    """``(payload, is_error)``, or None once the writer has gone. ``read(n)``
    returns n bytes, or fewer at the end of the stream."""
    head = read(_HEADER.size)
    if len(head) < _HEADER.size:
        return None
    n = _HEADER.unpack(head)[0]
    payload = read(abs(n))
    return (payload, n < 0) if len(payload) == abs(n) else None


class SearcherProcess:
    """The broker's end of one searcher process, which serves shard
    ``shard_id`` of the store at ``root``.

    The process is started by fork+exec, so a JVM running in the caller is
    safe; it imports ``repro`` from this one's location and no Spark.
    """

    def __init__(self, root: str, shard_id: int, ef: int | None):
        self.shard_id = shard_id
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.searcher", root, str(shard_id), str(ef)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
        self._out = self.proc.stdout.fileno()
        os.set_blocking(self._out, False)

    def _read(self, n: int) -> bytes:
        """n bytes of the process's stdout, or fewer at its end.

        Polls the non-blocking pipe instead of sleeping in ``read``. A pipe
        write wakes a sleeping reader with a sync hint, which moves it onto
        the writer's CPU: the broker then sat on the searcher's CPU, the
        next request woke the searcher there, and on a 4-vCPU host the two
        shared one CPU on 76-94% of requests, so no shard ran in parallel.
        """
        buf = b""
        while len(buf) < n:
            try:
                chunk = os.read(self._out, n - len(buf))
            except BlockingIOError:
                os.sched_yield()
                continue
            if not chunk:
                break
            buf += chunk
        return buf

    def _fail(self, what: str) -> RuntimeError:
        return RuntimeError(f"searcher process of shard {self.shard_id} {what}")

    def _receive(self) -> bytes:
        frame = _read_frame(self._read)
        if frame is None:
            raise self._fail(f"exited (code {self.proc.poll()})")
        payload, is_error = frame
        if is_error:
            name, _, message = payload.decode().partition("\n")
            raise _ERRORS.get(name, RuntimeError)(
                f"searcher process of shard {self.shard_id}: {name}: {message}"
            )
        return payload

    def wait_loaded(self) -> None:
        """Block until the shard is loaded; raise its load error if any."""
        select.select([self._out], [], [])  # sleeps: a load takes a while
        self._receive()

    def send(self, query: np.ndarray, segments: np.ndarray, per_shard_topk: int) -> None:
        """Send one request; ``query`` is float32, already checked."""
        payload = b"".join(
            [query.tobytes(), np.int64(per_shard_topk).tobytes(), segments.astype(np.int64).tobytes()]
        )
        try:
            _write_frame(self.proc.stdin, payload)
        except OSError as exc:
            raise self._fail("is gone") from exc

    def receive(self) -> tuple[np.ndarray, np.ndarray]:
        """The reply to the oldest request sent: ``Searcher.search``'s
        (int64 ids, float64 dists)."""
        payload = self._receive()
        n = len(payload) // 16
        return np.frombuffer(payload, np.int64, n), np.frombuffer(payload, np.float64, n, 8 * n)

    def close(self) -> None:
        """Close stdin, so the process exits, and reap it; kill it if it
        has not exited within ``_EXIT_TIMEOUT_S``."""
        with suppress(OSError):  # a dead process's pipe
            self.proc.stdin.close()
        try:
            self.proc.wait(_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _serve(searcher: Searcher, fin: BinaryIO, fout: BinaryIO) -> None:
    _write_frame(fout, b"")  # loaded
    qbytes = 4 * searcher.meta.dim
    while (frame := _read_frame(fin.read)) is not None:
        request = frame[0]
        query = np.frombuffer(request, np.float32, searcher.meta.dim)
        pstk = int(np.frombuffer(request, np.int64, 1, qbytes)[0])
        segments = np.frombuffer(request, np.int64, offset=qbytes + 8)
        ids, dists = searcher.search(query, segments, pstk)
        _write_frame(fout, ids.astype(np.int64).tobytes() + dists.astype(np.float64).tobytes())


def main(argv: list[str]) -> int:
    root, shard_id, ef = argv
    fout = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything printed goes to stderr, not into a frame
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the process ends when stdin closes
    try:
        searcher = Searcher(IndexStore(root), int(shard_id), ef=None if ef == "None" else int(ef))
        _serve(searcher, sys.stdin.buffer, fout)
    except Exception as exc:
        _write_frame(fout, f"{type(exc).__name__}\n{exc}".encode(), error=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
