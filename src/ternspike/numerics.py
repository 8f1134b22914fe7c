"""Dense float64 array substrate and deterministic randomness.

Arrays are plain row-major ``numpy.ndarray`` objects in float64 (``Array``);
this module also holds the numerically stable sigmoid.  Elementwise work and
reductions run in numpy; matrix products go to its BLAS, which may split
them over threads.  Reruns reproduce results bit-for-bit for a fixed
machine and BLAS thread count; another thread count may move last bits.

Randomness is always explicit: every stochastic routine takes a
``numpy.random.Generator``.  Generators are PCG64 instances derived from a
single root seed via ``SeedSequence`` spawn keys, so the full stream layout is
a pure function of the root seed.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def sigmoid(x) -> Array:
    """Numerically stable logistic function; sigmoid(0) is exactly 0.5."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) on the non-negative side, exp(x) on the other
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; equal seeds give equal draw sequences everywhere."""
    return np.random.default_rng(int(seed))


def component_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Derive an independent, reproducible sub-stream from a root seed.

    The key identifies the consuming component (e.g. ``(epoch,)`` or
    ``(arm, seed_index)``); distinct keys give statistically independent
    streams, and the whole layout is a pure function of the root seed.
    """
    return np.random.default_rng(np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(k) for k in key)))
