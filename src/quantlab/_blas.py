"""One OpenBLAS thread for loops of many LAPACK calls on small bands and blocks.

``algebra._gram_top`` and ``dolbeault._chain_triplets`` run their loops in
``one_blas_thread()``: on their bands and blocks a second BLAS thread costs
more than it saves (measurements in those docstrings).  The thread count is
set through ``openblas_set_num_threads_local`` (OpenBLAS >= 0.3.27), which
the OpenBLAS builds numpy and scipy ship export unprefixed.  In those builds
(pthreads, 0.3.30-0.3.31) the call sets a process-wide count: another Python
thread reads the new count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from types import SimpleNamespace


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every loaded OpenBLAS that exports it.

    Looked up once, in the process's map of loaded libraries (Linux): numpy
    and scipy wheels each load their own OpenBLAS.  Elsewhere, or under a
    BLAS without that call (MKL, Accelerate, OpenBLAS before 0.3.27), none.
    """
    try:
        with open("/proc/self/maps") as maps:  # the path is the sixth field
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        try:  # RTLD_NOLOAD: only a library already loaded, never a new one
            setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


# the count is process-wide, so are the open blocks that hold it at 1: the
# first to open saves the counts and the last to close restores them
_holds = SimpleNamespace(lock=threading.Lock(), blocks=0, previous=())


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread.

    While any such block is open, in any Python thread, every OpenBLAS call
    of the process runs on one thread; when the last one closes, also by an
    exception, each library's previous count (the value its setter
    returned) is restored.  Does nothing where no OpenBLAS exports the call.
    """
    with _holds.lock:
        if _holds.blocks == 0:
            _holds.previous = [(setter, setter(1)) for setter in _openblas_thread_setters()]
        _holds.blocks += 1
    try:
        yield
    finally:
        with _holds.lock:
            _holds.blocks -= 1
            if _holds.blocks == 0:
                for setter, count in _holds.previous:
                    setter(count)
