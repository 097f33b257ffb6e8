"""A scoped cap of the OpenBLAS copy numpy loads at one thread.

numpy wheels bundle their own OpenBLAS (in `numpy.libs/` next to the
package), which starts one BLAS thread per CPU.  It is the only BLAS the
package calls, since the package imports no scipy module.  Its round-off
depends on its thread count, so the package runs every BLAS and LAPACK
call on one thread: then an output does not depend on the host's CPU
count.  The copy exports a getter and a setter for its thread count;
`one_blas_thread` reaches them through ctypes, so the cap needs no
third-party package.

Only a copy the process has already loaded is touched (RTLD_NOLOAD): the
lookup never loads a library, and so never starts its thread pool.  The
counts are process-wide, so scopes nest (each restores what it found) but
are not meant to be entered from several Python threads at once.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager

# the (getter, setter) symbols of numpy's 64-bit-integer OpenBLAS
_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


def _openblas_copies() -> list[tuple]:
    """(get, set) ctypes functions of every OpenBLAS copy in numpy.libs that
    is loaded in this process and exports the thread setter."""
    copies = []
    numpy = sys.modules.get("numpy")
    # numpy not imported: its OpenBLAS is not loaded; Windows: cannot open
    # a library loaded-only
    if numpy is None or not hasattr(os, "RTLD_NOLOAD"):
        return copies
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if "openblas" in n)
    except OSError:
        return copies
    get_name, set_name = _SYMBOLS
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name),
                              mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # not loaded by this process
            continue
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            copies.append((get, put))
    return copies


@contextmanager
def one_blas_thread():
    """Run the body of the block with numpy's loaded OpenBLAS on one thread.

    The previous counts are restored on exit, also when the body raises.
    Yields True when a setter was found on at least one copy, False when
    none was (the body then runs at the library's own count).
    """
    copies = _openblas_copies()
    before = [get() for get, _ in copies]
    try:
        for _, put in copies:
            put(1)
        yield bool(copies)
    finally:
        for (_, put), count in zip(copies, before):
            put(count)
