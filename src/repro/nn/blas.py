"""Share the BLAS library's threads among concurrent worker processes.

numpy's OpenBLAS starts one compute thread per CPU in every process that
uses it.  A campaign that forks N trial workers on a C-CPU host therefore
runs up to N*C busy threads on C CPUs, and the contention costs more than
the extra workers gain.  :func:`thread_budget` lowers the library's thread
count to ``max(1, C // N)`` for the duration of a ``with`` block and puts
the old count back on exit.

The count must be lowered in the parent *before* it forks: a child inherits
the lowered count and never starts helper threads.  Lowering it in the child
after the fork makes OpenBLAS rebuild its thread pool there, and the rebuilt
helper threads spin.

The library is found among the shared objects mapped into this process
(``/proc/self/maps``) and driven through :mod:`ctypes`, so no third-party
thread-control package is needed.  Without an OpenBLAS (another BLAS, or no
``/proc``) every function here is a no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

#: (setter, getter) symbol names: the OpenBLAS numpy's wheels bundle, and
#: a plain OpenBLAS build.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@dataclass(frozen=True)
class OpenBLAS:
    """The thread-count controls of one loaded OpenBLAS library."""

    path: str
    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]


@functools.cache
def find_openblas() -> OpenBLAS | None:
    """The OpenBLAS library numpy loaded, or ``None`` when there is none.

    Candidates are the mapped shared objects named like OpenBLAS; the one
    numpy's wheel bundles (in the ``numpy.libs`` directory beside the
    package) is preferred over any other, such as SciPy's own copy.
    """
    mapped = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split(None, 5)  # the 6th field is the path
                if (len(fields) == 6 and "openblas"
                        in os.path.basename(fields[5]).lower()):
                    mapped.add(fields[5].rstrip("\n"))
    except OSError:
        return None
    bundled = os.path.dirname(np.__file__) + ".libs" + os.sep
    for path in sorted(mapped, key=lambda p: (not p.startswith(bundled), p)):
        try:
            # RTLD_NOLOAD: only ever attach to a library already in memory
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return OpenBLAS(path, setter, getter)
    return None


def num_threads() -> int | None:
    """The library's current thread count (``None`` without OpenBLAS)."""
    library = find_openblas()
    return None if library is None else library.get_num_threads()


@contextlib.contextmanager
def thread_budget(processes: int) -> Iterator[int | None]:
    """Give each of *processes* concurrent processes its share of the CPUs.

    Inside the block the library runs at most ``max(1, cpus // processes)``
    threads, where ``cpus`` counts the CPUs this process may run on.  The
    count is only ever lowered, never raised, so a caller's smaller
    ``OPENBLAS_NUM_THREADS`` stays in force; one process has nobody to
    share with and leaves the count alone.  Yields the count in effect,
    read back from the library (``None`` without OpenBLAS).  Enter it in
    the parent before forking the processes.
    """
    library = find_openblas()
    if library is None:
        yield None
        return
    before = library.get_num_threads()
    budget = max(1, len(os.sched_getaffinity(0)) // max(1, processes))
    lowered = processes > 1 and budget < before
    if lowered:
        library.set_num_threads(budget)
    try:
        yield library.get_num_threads()
    finally:
        if lowered:
            library.set_num_threads(before)
