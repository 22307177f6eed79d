"""Thread counts of the OpenBLAS copies loaded in this process.

numpy's OpenBLAS spreads a matrix product, an SVD or an LU factorisation over
every CPU once the matrices reach about 64 x 64. A threaded call waits for its
slowest thread, so on a small machine shared with other work its time follows
the load on every CPU. On a 2-vCPU Xeon VM with one vCPU kept busy by another
process, the spectral norm of a 256 x 256 generator took 135 ms on two
threads against 29 ms on one, and the spin-ladder benchmark's library calls
(N = 4, 8, 16) 0.33-0.49 s against 0.13-0.18 s; on idle vCPUs both took
0.11-0.18 s. ``one_thread`` runs the package's dense Liouville-space linear
algebra on one thread, so that its time follows the load of one CPU. A process
pool is forked inside a ``one_thread`` block, because a set call in a freshly
forked worker starts OpenBLAS's server thread, which busy-waits beside the
worker's own: the workers inherit the count of one and the open block, so no
block inside them makes a set call.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

#: get/set thread-count symbols of OpenBLAS builds: scipy-openblas (numpy's and
#: scipy's wheels) and plain OpenBLAS, with and without 64-bit integers
SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
           "openblas_{}_num_threads64_", "openblas_{}_num_threads")
#: OpenBLAS threads a product once m * n * k reaches 4 * 65536: a 64 x 64 square
THREADED_DIM = 64


def _copies() -> dict:
    """(get, set) thread-count functions of each loaded OpenBLAS copy, by path.

    Copies are found in /proc/self/maps. Where that cannot be read, or a copy
    has no thread symbol, the copy is left out.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in SYMBOLS:
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found[path] = (get, put)
                break
    return found


def threads(count=None) -> dict:
    """Each loaded OpenBLAS copy's thread count, by library path, before setting it.

    ``count`` is one count for every copy, a dict as returned (to restore
    them), or None to only read. The package loads only numpy's copy; scipy's
    is handled too, for a host process that imported it. Where no copy or no
    thread symbol is found this does nothing and returns {}.
    """
    counts = {}
    for path, (get, put) in _copies().items():
        counts[path] = get()
        target = count.get(path) if isinstance(count, dict) else count
        if target is not None:
            put(target)
    return counts


#: the copies loaded at the first one_thread block: numpy's, which the package
#: uses, is loaded with numpy, so looking once saves a /proc read per block
_pinned_copies = functools.cache(lambda: tuple(_copies().values()))
_lock = threading.Lock()
_open_blocks = 0  # one_thread blocks open now, in any Python thread
_restore = ()  # (set, count) of each copy, for when the last block closes


@contextmanager
def one_thread(dim: int | None = None):
    """Run the block on one OpenBLAS thread.

    With ``dim``, the block's matrices are dim x dim, and below
    ``THREADED_DIM`` OpenBLAS runs on one thread anyway, so the block runs as
    it is. Without it the block is always pinned: a product of thin matrices
    is threaded once m * n * k reaches the threshold, whatever each side is.
    Nested and concurrent blocks share one setting: the counts found when the
    first opens are restored when the last closes.
    """
    global _open_blocks, _restore
    if dim is not None and dim < THREADED_DIM:
        yield
        return
    with _lock:
        if _open_blocks == 0:
            _restore = tuple((put, get()) for get, put in _pinned_copies())
            for put, _count in _restore:
                put(1)
        _open_blocks += 1
    try:
        yield
    finally:
        with _lock:
            _open_blocks -= 1
            if _open_blocks == 0:
                for put, count in _restore:
                    put(count)
