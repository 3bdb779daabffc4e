"""One BLAS thread for the length of a comparison, to save CPU time.

numpy's wheels bundle OpenBLAS, which splits products above about 64^3
multiply-adds across threads. At this simulator's sizes the extra threads
keep other cores busy for no wall-time gain: on a 2-vCPU VM, a comparison
at m=n=256 with 10 clients took 1.75 s of CPU on two threads, 1.02 s on one.
Results do not depend on the count: the package's norms make no BLAS call,
and a split product splits its outputs, not any one sum. The exception is a
product with a single output, possible only at rank 1 or m = 1, which numpy
hands to a BLAS dot that OpenBLAS splits above 10,000 terms; inside a
comparison it runs on one thread too. ``one_thread`` sets one thread on
entry and gives the caller back its count on exit. The count is
process-wide, so it is meant for one command at a time. Where numpy's BLAS
has no thread control (builds other than OpenBLAS), it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager

# (prefix, suffix) of the thread functions: numpy 2 wheels (scipy-openblas),
# numpy 1 wheels (64-bit-integer OpenBLAS), and a plain OpenBLAS.
_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


@functools.cache
def _controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """numpy's OpenBLAS (get, set) thread-count functions, or None. Looked up
    on first use, through numpy's own extension module, which links the BLAS."""
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as extension
    try:
        library = ctypes.CDLL(extension.__file__)
    except OSError:
        return None
    for prefix, suffix in _SYMBOLS:
        try:
            get = getattr(library, f"{prefix}_get_num_threads{suffix}")
            put = getattr(library, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the body with BLAS on one thread, restoring the caller's count."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
