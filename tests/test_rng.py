import math

import numpy as np
import pytest
from scipy.integrate import quad

from zosmooth.rng import (
    RandomStream,
    sample_correlated_pair,
    sample_exponential,
    sample_gaussian_vector,
)


def draw_exponentials(seed, count):
    return sample_exponential(RandomStream(seed), count)


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        a = RandomStream(123, substream_id=4)
        b = RandomStream(123, substream_id=4)
        np.testing.assert_array_equal(sample_exponential(a, 100), sample_exponential(b, 100))

    def test_gaussian_reproducible(self):
        a = RandomStream(5, 1)
        b = RandomStream(5, 1)
        np.testing.assert_array_equal(
            sample_gaussian_vector(50, a, 3), sample_gaussian_vector(50, b, 3)
        )

    def test_substreams_differ_and_decorrelate(self):
        n = 50_000
        x = RandomStream(9, 0).generator.standard_normal(n)
        y = RandomStream(9, 1).generator.standard_normal(n)
        assert not np.array_equal(x, y)
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(n)


class TestExponential:
    def test_mean(self):
        draws = draw_exponentials(1, 100_000)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_tail_probability_at_ln2(self):
        draws = draw_exponentials(2, 100_000)
        assert abs((draws > math.log(2.0)).mean() - 0.5) < 0.01

    def test_sqrt_two_v_mean_matches_quadrature(self):
        # independent oracle: integrate sqrt(2v) e^-v over [0, inf)
        oracle_value, est_err = quad(lambda v: math.sqrt(2.0 * v) * math.exp(-v), 0, np.inf)
        assert est_err < 1e-8
        assert oracle_value == pytest.approx(1.2533141373155003, abs=1e-8)
        draws = draw_exponentials(3, 100_000)
        assert abs(np.sqrt(2.0 * draws).mean() - oracle_value) < 0.01

    def test_tight_mean_at_one_million(self):
        draws = draw_exponentials(4, 1_000_000)
        assert abs(draws.mean() - 1.0) < 4.0 / math.sqrt(1_000_000)

    def test_positive(self):
        draws = draw_exponentials(5, 10_000)
        assert np.all(draws >= 0.0)


class TestGaussianVector:
    def test_coordinate_variance(self):
        stream = RandomStream(11)
        z = sample_gaussian_vector(1000, stream, 1)
        assert abs(z.var() - 1.0) < 0.05

    def test_invalid_args(self):
        stream = RandomStream(0)
        with pytest.raises(ValueError):
            sample_gaussian_vector(0, stream, 1)


class TestCorrelatedPair:
    def test_rho_one_is_exact(self):
        stream = RandomStream(21)
        for _ in range(100):
            x1, x2 = sample_correlated_pair(1.5, -2.0, 0.7, 1.0, stream)
            assert (x1 - 1.5) == pytest.approx(x2 + 2.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 0.8])
    def test_empirical_correlation(self, rho):
        stream = RandomStream(22)
        pairs = np.array(
            [sample_correlated_pair(0.0, 0.0, 1.0, rho, stream) for _ in range(100_000)]
        )
        corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
        assert abs(corr - rho) < 0.01

    def test_marginal_variances(self):
        n = 100_000
        stream = RandomStream(23)
        pairs = np.array(
            [sample_correlated_pair(3.0, -1.0, 2.0, 0.5, stream) for _ in range(n)]
        )
        # variance of the sample variance of N(., sigma^2): 2 sigma^4 / n
        se = math.sqrt(2.0 * 16.0 / n)
        assert abs(pairs[:, 0].var(ddof=1) - 4.0) < 3.0 * se
        assert abs(pairs[:, 1].var(ddof=1) - 4.0) < 3.0 * se
        assert abs(pairs[:, 0].mean() - 3.0) < 3.0 * 2.0 / math.sqrt(n)

    def test_rejects_bad_rho(self):
        stream = RandomStream(0)
        with pytest.raises(ValueError):
            sample_correlated_pair(0.0, 0.0, 1.0, 1.5, stream)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="standard deviation must be >= 0, got -1.0"):
            sample_correlated_pair(0.0, 0.0, -1.0, 0.5, RandomStream(0))
