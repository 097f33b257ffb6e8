"""A scoped cap on the thread count of the OpenBLAS copies numpy and scipy load.

numpy and scipy wheels each bundle their own OpenBLAS (in `numpy.libs/` and
`scipy.libs/` next to the packages), and both start one BLAS thread per CPU.
Each copy exports a getter and a setter for its thread count under its own
symbol names.  `blas_threads` reaches them through ctypes, so the cap needs
no third-party package.

Only copies the process has already loaded are touched (RTLD_NOLOAD): the
lookup never loads a library, and so never starts its thread pool.  The
counts are process-wide, so scopes nest (each restores what it found) but
are not meant to be entered from several Python threads at once.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager

# (getter, setter) symbol pairs: numpy's 64-bit-integer copy, scipy's copy
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_copies() -> list[tuple]:
    """(get, set) ctypes functions of every bundled OpenBLAS copy that is
    loaded in this process and exports a known thread setter."""
    copies = []
    if not hasattr(os, "RTLD_NOLOAD"):  # Windows: cannot open loaded-only
        return copies
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:  # not imported, so its OpenBLAS is not loaded
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            f"{package}.libs")
        try:
            names = sorted(n for n in os.listdir(libs) if "openblas" in n)
        except OSError:
            continue
        for name in names:
            try:
                lib = ctypes.CDLL(os.path.join(libs, name),
                                  mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:  # not loaded by this process
                continue
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, put = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    copies.append((get, put))
                    break
    return copies


@contextmanager
def blas_threads(n: int):
    """Cap every loaded OpenBLAS copy at n threads for the body of the block.

    Each copy is set to min(its current count, n), so no count rises and no
    thread is started; the previous counts are restored on exit, also when
    the body raises.  Yields True when a setter was found on at least one
    copy, False when none was (the body then runs unchanged).
    """
    if n < 1:
        raise ValueError(f"blas_threads: n={n} must be >= 1")
    copies = _openblas_copies()
    before = [get() for get, _ in copies]
    try:
        for (_, put), count in zip(copies, before):
            if n < count:
                put(n)
        yield bool(copies)
    finally:
        for (_, put), count in zip(copies, before):
            put(count)
