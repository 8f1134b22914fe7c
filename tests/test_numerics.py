import numpy as np

from ternspike.numerics import component_rng, seeded_rng, sigmoid


class TestElementwise:
    def test_sigmoid_at_zero_exact(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_finite_on_extremes(self):
        out = sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.all(np.isfinite(out))

    def test_unary_commutes_with_reshape(self):
        rng = seeded_rng(1)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(sigmoid(x).ravel(), sigmoid(x.ravel()))


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = seeded_rng(1234).random(10_000)
        b = seeded_rng(1234).random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_rng(1).random(100), seeded_rng(2).random(100))

    def test_component_streams_reproducible_and_distinct(self):
        a = component_rng(7, 1, 2).random(100)
        b = component_rng(7, 1, 2).random(100)
        c = component_rng(7, 1, 3).random(100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
