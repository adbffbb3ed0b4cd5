import math

import numpy as np
import pytest

from zosmooth.rng import RandomStream
from zosmooth.smoothing import (
    QuadratureConvergenceError,
    smoothed_gradient_quadrature,
    smoothed_value,
)


def norm_cdf(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


class TestSmoothedValue:
    def test_linear_function_unchanged(self):
        x = np.array([0.3, -1.0])
        f = lambda p: 2.0 * p[0] - p[1]
        value, stderr = smoothed_value(f, x, 0.7, 20_000, RandomStream(1))
        assert abs(value - (2.0 * 0.3 + 1.0)) < 3.0 * stderr

    def test_squared_norm_shift(self):
        # E||x + eta Z||^2 = ||x||^2 + n eta^2 = f(x) + 0.5 here
        x = np.array([0.6, -0.1])
        value, stderr = smoothed_value(lambda p: float(p @ p), x, 0.5, 50_000, RandomStream(2))
        assert abs(value - (float(x @ x) + 0.5)) < 3.0 * stderr

    def test_convex_sandwich(self):
        # for convex f: f(x) <= f_eta(x) <= f(x) + L0 sqrt(n+1) eta
        l0 = math.sqrt(2.0)
        eta = 0.4
        x = np.array([0.2, -0.5])
        fx = abs(x[0]) + abs(x[1])
        value, stderr = smoothed_value(
            lambda p: abs(p[0]) + abs(p[1]), x, eta, 50_000, RandomStream(3)
        )
        assert value >= fx - 3.0 * stderr
        assert value <= fx + l0 * math.sqrt(3.0) * eta + 3.0 * stderr

    def test_lipschitz_transfer(self):
        l0 = 1.0
        f = lambda p: abs(p[0])
        rng = np.random.default_rng(0)
        for i in range(5):
            x = rng.normal(size=1)
            y = rng.normal(size=1)
            vx, ex = smoothed_value(f, x, 0.3, 50_000, RandomStream(4, 2 * i))
            vy, ey = smoothed_value(f, y, 0.3, 50_000, RandomStream(4, 2 * i + 1))
            assert abs(vx - vy) <= l0 * abs(x[0] - y[0]) + 3.0 * (ex + ey)

    def test_approximation_bound(self):
        # |f_eta(x) - f(x)| <= L0 sqrt(n+1) eta
        l0, eta = 1.0, 0.25
        x = np.array([0.1])
        value, stderr = smoothed_value(lambda p: abs(p[0]), x, eta, 50_000, RandomStream(5))
        assert abs(value - abs(x[0])) <= l0 * math.sqrt(2.0) * eta + 3.0 * stderr


class TestGradientQuadrature:
    def test_linear_gradient_exact(self):
        grad = smoothed_gradient_quadrature(
            lambda p: 3.0 * p[0] - 1.5 * p[1], np.array([0.2, 0.7]), eta=0.5
        )
        np.testing.assert_allclose(grad, [3.0, -1.5], rtol=1e-6)

    def test_abs_at_origin_is_zero(self):
        grad = smoothed_gradient_quadrature(
            lambda p: abs(p[0]), np.array([0.0]), eta=0.2, kink_coords=[0]
        )
        assert abs(grad[0]) < 1e-9

    def test_abs_matches_gaussian_cdf_form(self):
        # d/dx E|x + eta Z| = 2 Phi(x/eta) - 1
        x, eta = 0.3, 0.2
        grad = smoothed_gradient_quadrature(
            lambda p: abs(p[0]), np.array([x]), eta=eta, kink_coords=[0]
        )
        assert 0.0 < grad[0] < 1.0
        assert grad[0] == pytest.approx(2.0 * norm_cdf(x / eta) - 1.0, abs=1e-4)

    def test_abs_gradient_monotone_in_x(self):
        values = [
            smoothed_gradient_quadrature(
                lambda p: abs(p[0]), np.array([x]), eta=0.2, kink_coords=[0]
            )[0]
            for x in (0.05, 0.15, 0.3, 0.6)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_two_dimensional_mixed_function(self):
        x = np.array([0.4, -0.2])
        eta = 0.3
        grad = smoothed_gradient_quadrature(
            lambda p: abs(p[0]) + p[1] ** 2, x, eta=eta, kink_coords=[0]
        )
        np.testing.assert_allclose(
            grad, [2.0 * norm_cdf(x[0] / eta) - 1.0, 2.0 * x[1]], atol=1e-4
        )

    def test_gradient_smoothness_bound(self):
        # || grad f_eta(x) - grad f_eta(y) || <= 2 L0 sqrt(n) / (eta sqrt(2 pi))
        l0, eta = 1.0, 0.25
        lip = 2.0 * l0 / (eta * math.sqrt(2.0 * math.pi)) * (1.0 + 0.05)
        rng = np.random.default_rng(1)
        for _ in range(4):
            x = rng.normal(scale=0.5, size=1)
            y = rng.normal(scale=0.5, size=1)
            gx = smoothed_gradient_quadrature(
                lambda p: abs(p[0]), x, eta=eta, kink_coords=[0]
            )
            gy = smoothed_gradient_quadrature(
                lambda p: abs(p[0]), y, eta=eta, kink_coords=[0]
            )
            assert abs(gx[0] - gy[0]) <= lip * abs(x[0] - y[0]) + 1e-9

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            smoothed_gradient_quadrature(lambda p: p[0], np.zeros(3), eta=0.1)

    def test_undeclared_kink_fails_to_converge(self):
        # the message gives the last doubling's change, which is not 0
        with pytest.raises(QuadratureConvergenceError, match=r"last change [1-9]"):
            smoothed_gradient_quadrature(lambda p: abs(p[0]), np.array([0.3]), eta=0.2)


class TestViewValidation:
    """``smoothed_value`` checks its radius and sample count before it
    draws."""

    def test_bad_eta(self):
        stream = RandomStream(0)
        with pytest.raises(ValueError, match="eta must be > 0, got 0.0"):
            smoothed_value(lambda p: 0.0, np.zeros(1), 0.0, 10, stream)
        assert stream.generator.random() == RandomStream(0).generator.random()

    def test_bad_sample_count(self):
        stream = RandomStream(0)
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            smoothed_value(lambda p: 0.0, np.zeros(1), 1.0, 0, stream)
        assert stream.generator.random() == RandomStream(0).generator.random()

    def test_one_sample_has_an_infinite_standard_error(self):
        value, stderr = smoothed_value(lambda p: p[0], np.zeros(1), 1.0, 1, RandomStream(0))
        assert value == RandomStream(0).generator.standard_normal((1, 1))[0, 0]
        assert stderr == math.inf
