import os

import numpy as np
import pytest

from ternspike.numerics import component_rng, sigmoid


class TestElementwise:
    def test_sigmoid_at_zero_exact(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_finite_on_extremes(self):
        out = sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.all(np.isfinite(out))

    def test_unary_commutes_with_reshape(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(sigmoid(x).ravel(), sigmoid(x.ravel()))


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = component_rng(1234).random(10_000)
        b = component_rng(1234).random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        # the same component key under two root seeds draws two streams
        assert not np.array_equal(component_rng(1, 5).random(100), component_rng(2, 5).random(100))

    def test_component_streams_reproducible_and_distinct(self):
        a = component_rng(7, 1, 2).random(100)
        b = component_rng(7, 1, 2).random(100)
        c = component_rng(7, 1, 3).random(100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator set-up applies to glibc only")
def test_freed_batch_memory_is_reused_without_page_faults():
    # importing ternspike.numerics set glibc's thresholds, so a freed array
    # stays in the heap and the next one of its size takes its pages back
    import resource

    shape = (4, 256, 800)  # a wide eval trace: 6.25 MiB, 1,600 pages of 4 KiB

    def cycle():
        a = np.empty(shape)
        a.fill(1.0)
        b = np.empty(shape)
        b.fill(2.0)
        del a, b

    cycle()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        cycle()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1600, f"{faults} minor faults over 20 alloc/free cycles"
