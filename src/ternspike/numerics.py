"""Dense float64 array substrate and deterministic randomness.

Arrays are plain row-major ``numpy.ndarray`` objects in float64 (``Array``);
this module also holds the numerically stable sigmoid.  Elementwise work and
reductions run in numpy; matrix products go to its BLAS, which may split
them over threads.  Reruns reproduce results bit-for-bit for a fixed
machine and BLAS thread count; another thread count may move last bits.

Memory: on glibc, importing this module calls ``mallopt`` once, setting the
mmap threshold to 32 MiB (glibc's 64-bit maximum) and the trim threshold to
1 GiB.  Under glibc's defaults each array above 128 KiB (a threshold it
raises as such arrays are freed) gets a fresh mapping and freed heap tops
go back to the kernel, so every wide batch would fault its (T, B, D)
stacks, GEMM outputs and gradients in again page by page.  With these
settings a freed batch's memory stays in the heap and the next batch
reuses it.  The resident set is not handed back between batches; its peak
is set by the largest batch either way.  Only the placement of arrays
changes, so every result is bit-for-bit the same.  Other C libraries are
left untouched.

Scalar operands: a float that a ufunc takes many times per batch (the
neuron's tau in the forward's step loop, the blend's sign-free rates) is
passed as a 0-d float64 array.  On desk-sized arrays a ufunc takes one in
about two thirds of the time of a Python float or a numpy float64 scalar
(0.43 against 0.64-0.68 us for a multiply at 32 x 12), and runs the same
float64 loop, so the bits are the same.  Converting costs about 0.2 us, so
a value used only once or twice per call stays a Python float.

Randomness is always explicit: every stochastic routine takes a
``numpy.random.Generator``.  Generators are PCG64 instances derived from a
single root seed via ``SeedSequence`` spawn keys, so the full stream layout is
a pure function of the root seed.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

Array = np.ndarray

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_in_heap() -> None:
    """Raise glibc's mmap and trim thresholds; a no-op on other C libraries."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory_in_heap()


def sigmoid(x) -> Array:
    """Numerically stable logistic function; sigmoid(0) is exactly 0.5."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) on the non-negative side, exp(x) on the other
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def component_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent, reproducible sub-stream from a root seed.

    The key identifies the consuming component (e.g. ``(epoch,)`` or
    ``(arm, seed_index)``); distinct keys give statistically independent
    streams, and the whole layout is a pure function of the root seed.
    """
    return np.random.default_rng(np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(k) for k in key)))
