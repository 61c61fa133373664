"""What the hardware lets this process use.

A stdlib-only leaf module: the interval kernels size their thread pools
from it and the serving layer sizes its scatter fan-out from it, and
neither has to import the other to do so.  The ISVD fit path also runs
scipy's LAPACK on one thread through it (:func:`single_threaded_scipy_lapack`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import Callable, Iterator, List, Tuple

#: ``(get, set)`` thread-count entry points of a 32-bit-integer (LP64)
#: OpenBLAS, the kind scipy's LAPACK wrappers link: the symbol-prefixed build
#: scipy wheels ship, and a plain one.  numpy wheels carry their own 64-bit
#: build (``*64_`` symbols), which is left alone, so that numpy's BLAS calls
#: in other threads keep their thread count and their bits.
_LP64_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
ThreadControl = Tuple[Callable[[], int], Callable[[int], None]]

#: Guards the two below: how many blocks run under
#: :func:`single_threaded_scipy_lapack` now, and the ``(set, threads)`` each
#: library gets back when the last one ends.  Process-wide, as the BLAS
#: thread counts they stand for are.
_BLAS_LOCK = threading.Lock()
_blas_users = 0
_blas_saved: List[Tuple[Callable[[int], None], int]] = []


def usable_cpu_count() -> int:
    """CPUs actually usable by this process.

    ``os.sched_getaffinity`` reflects container CPU quotas and ``taskset``
    pinning, which ``os.cpu_count`` ignores — on a 64-core host limited to 2
    CPUs, fanning scatter work out 64 ways would only add scheduling
    overhead to every request.  Falls back to ``os.cpu_count`` on platforms
    without affinity support (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return max(1, os.cpu_count() or 1)


def _openblas_paths() -> Tuple[str, ...]:
    """Files of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in line.rpartition("/")[2]}
    except (OSError, IndexError):
        return ()
    return tuple(sorted(paths))


@functools.lru_cache(maxsize=None)
def _thread_controls(paths: Tuple[str, ...]) -> Tuple[ThreadControl, ...]:
    """The ``(get, set)`` thread-count functions of each LP64 library in ``paths``."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return ()
    controls = []
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=noload | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _LP64_OPENBLAS_SYMBOLS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get_threads = getattr(library, get_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads = getattr(library, set_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return tuple(controls)


@contextlib.contextmanager
def single_threaded_scipy_lapack() -> Iterator[None]:
    """Run the block with scipy's OpenBLAS limited to one thread.

    For LAPACK work that threads badly: a threaded ``?syevr`` synchronizes
    its threads once per column of the tridiagonal reduction, so on cores
    shared with other work it runs slower than one thread does, and its
    time swings with that work.  While any caller (in any thread) is inside
    the block the limit holds; the last one out restores the thread count.
    Only LP64 OpenBLAS builds are limited (see ``_LP64_OPENBLAS_SYMBOLS``);
    where numpy shares one with scipy, numpy's calls are limited too.  A
    no-op where none is found (another BLAS vendor, or no
    ``/proc/self/maps``).
    """
    global _blas_users, _blas_saved
    with _BLAS_LOCK:
        if _blas_users == 0:
            _blas_saved = [(set_threads, get_threads()) for get_threads, set_threads
                           in _thread_controls(_openblas_paths())]
            for set_threads, _ in _blas_saved:
                set_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_users -= 1
            if _blas_users == 0:
                for set_threads, threads in _blas_saved:
                    set_threads(threads)
