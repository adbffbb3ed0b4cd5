import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zosmooth.decision import (
    KnownDensityOracle,
    RandomFieldOracle,
    RatioBoundError,
    ValueBoundError,
    esgs_dd_known,
    esgs_dd_unknown,
    field_correlation,
)
from zosmooth.estimators import second_moment_probe
from zosmooth.optimizer import Schedule, run
from zosmooth.problems import market_problem
from zosmooth.projections import FeasibleSet
from zosmooth.rng import RandomStream, sample_correlated_pair

from recorder import Recorder

ETA = 0.3


class TestFieldCorrelation:
    def test_coincident_points(self):
        assert field_correlation(1.7, 1.7, 1.0, 0.1, math.sqrt(10.0)) == 1.0

    def test_hand_value(self):
        # c_xi = 1, beta = 0.1, sigma^2 = 10, separation^2 = 2
        rho = field_correlation(math.sqrt(2.0), 0.0, 1.0, 0.1, math.sqrt(10.0))
        assert rho == pytest.approx(1.0 - 0.99 * 2.0 / 20.0)

    def test_clamped_at_minus_one(self):
        assert field_correlation(100.0, -100.0, 1.0, 0.1, 1.0) == -1.0

    def test_rejects_c_xi_below_beta_squared(self):
        with pytest.raises(ValueError):
            field_correlation(0.0, 1.0, 0.0001, 0.1, 1.0)


def toy_known_oracle():
    """F_hat(x, xi) = x*xi with p(xi|x) = N(x, 1) against reference N(0, 1)."""

    def normal_pdf(u, mean):
        return np.exp(-0.5 * (u - mean) ** 2) / math.sqrt(2.0 * math.pi)

    def ref_sampler(stream, size):
        z = stream.generator.standard_normal(size)
        far = np.abs(z) > 8.0
        while far.any():
            z[far] = stream.generator.standard_normal(int(far.sum()))
            far = np.abs(z) > 8.0
        return (z,)

    return KnownDensityOracle(
        f_hat=lambda x, xi: x[..., 0] * xi[0],
        cond_density=lambda xi, x: normal_pdf(xi[0], x[..., 0]),
        ref_density=lambda xi: normal_pdf(xi[0], 0.0),
        ref_sampler=ref_sampler,
        ratio_bound_m=math.exp(8.0 * 4.0),
        value_bound_mf=50.0,
        lip_f_hat=10.0,
        lip_xi=1.0,
    )


class TestKnownDensityEstimator:
    def test_constant_with_fixed_density_gives_zero(self):
        oracle = KnownDensityOracle(
            f_hat=lambda x, xi: np.full(x.shape[:-1], 3.0),
            cond_density=lambda xi, x: np.full(x.shape[:-1], 0.5),
            ref_density=lambda xi: np.full(np.shape(xi[0]), 0.5),
            ref_sampler=lambda stream, size: (stream.generator.uniform(-1.0, 1.0, size),),
            ratio_bound_m=1.0,
            value_bound_mf=10.0,
            lip_f_hat=0.0,
            lip_xi=0.0,
        )
        sample = esgs_dd_known(oracle, np.zeros(3), ETA, RandomStream(0))
        np.testing.assert_array_equal(sample.estimate, np.zeros(3))
        assert sample.oracle_calls == 6

    def test_market_importance_ratio_closed_form(self):
        problem = market_problem()
        sigma2 = problem.extras["sigma2"]
        x = np.array([2.0, 0.0])
        m = problem.extras["a"] + problem.extras["beta"] * x[0]
        xi = (0.0, 1.0)  # zeta1 = 0
        ratio = problem.dd_known.cond_density(xi, x) / problem.dd_known.ref_density(xi)
        assert ratio == pytest.approx(math.exp(-m * m / (2.0 * sigma2)))

    def test_unbiased_against_finite_difference_of_closed_form(self):
        # E_{xi~N(x,1)}[x*xi] = x^2 has derivative 2x; the smoothed gradient
        # of a quadratic coincides with it, so the estimator mean must match
        # the central finite difference of the closed form.
        oracle = toy_known_oracle()
        x = np.array([0.7])
        h = 1e-6
        fd = ((x[0] + h) ** 2 - (x[0] - h) ** 2) / (2.0 * h)
        stream = RandomStream(42)
        count = 100_000
        acc = acc2 = 0.0
        for _ in range(count):
            g = esgs_dd_known(oracle, x, ETA, stream).estimate[0]
            acc += g
            acc2 += g * g
        mean = acc / count
        se = math.sqrt((acc2 / count - mean**2) / count)
        assert abs(mean - fd) < 4.0 * se

    def test_ratio_bound_violation_raises(self):
        oracle = toy_known_oracle()
        tight = KnownDensityOracle(
            f_hat=oracle.f_hat,
            cond_density=oracle.cond_density,
            ref_density=oracle.ref_density,
            ref_sampler=oracle.ref_sampler,
            ratio_bound_m=1.0 + 1e-9,  # violated as soon as x shifts the mean
            value_bound_mf=oracle.value_bound_mf,
            lip_f_hat=oracle.lip_f_hat,
            lip_xi=oracle.lip_xi,
        )
        stream = RandomStream(1)
        with pytest.raises(RatioBoundError):
            for _ in range(200):
                esgs_dd_known(tight, np.array([1.0]), ETA, stream)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        size=st.integers(1, 1100),
        rows=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_ref_density_matches_per_row(self, size, rows, seed):
        # the draw block's reference-density column has the bits of the
        # density evaluated on each iteration's (R, 1) components
        oracle = market_problem().dd_known
        xi = esgs_dd_known.draw(oracle, RandomStream(seed), size, 2)[-1]
        assert xi.shape == (size, 3)
        for r0 in range(0, size, rows):
            per_row = oracle.ref_density(tuple(xi[r0 : r0 + rows, :-1].T[:, :, None]))
            assert np.array_equal(xi[r0 : r0 + rows, -1], per_row[:, 0])

    @pytest.mark.parametrize("over", [5.0, math.inf])
    def test_guards_skip_nan_but_not_an_offending_neighbour(self, over):
        # ratio = first coordinate, value = second, reference density 1
        oracle = KnownDensityOracle(
            f_hat=lambda x, xi: x[..., 1],
            cond_density=lambda xi, x: x[..., 0],
            ref_density=lambda xi: np.ones(np.shape(xi[0])),
            ref_sampler=None,
            ratio_bound_m=2.0,
            value_bound_mf=2.0,
            lip_f_hat=0.0,
            lip_xi=0.0,
        )
        xi = (np.zeros(2),)
        with pytest.raises(RatioBoundError):
            oracle.weighted_value(np.array([[math.nan, 0.0], [over, 0.0]]), xi)
        with pytest.raises(ValueBoundError):
            oracle.weighted_value(np.array([[1.0, math.nan], [1.0, -over]]), xi)
        # an all-NaN ratio or value is no bound violation
        assert np.isnan(oracle.weighted_value(np.array([[math.nan, 1.0]] * 2), xi)).all()
        assert np.isnan(oracle.weighted_value(np.array([[1.0, math.nan]] * 2), xi)).all()


def shared_noise_field(c):
    """F_hat(x, xi) = c'x + xi with one N(0, 1) draw shared by each pair."""

    def field_sampler(xp, xm, noise):
        xi = noise[..., 0]
        return (xi,), (xi,)

    return RandomFieldOracle(
        f_hat=lambda x, xi: x @ c + xi[0],
        field_sampler=field_sampler,
        noise_sampler=lambda stream, size: stream.generator.standard_normal((size, len(c), 1)),
        c_xi=0.0,
    )


def market_field_noise(problem, stream, count):
    """``count`` noise entries of the market field, one per point pair, for
    an even ``count``: a block of ``count / 2`` draws for its n = 2 pairs,
    which are the entries of ``count`` draws for one pair each."""
    return problem.dd_unknown.noise_sampler(stream, count // 2).reshape(count, 3)


class TestRandomFieldEstimator:
    def test_constant_gives_zero(self):
        oracle = RandomFieldOracle(
            f_hat=lambda x, xi: np.full(x.shape[:-1], 1.25),
            field_sampler=lambda xp, xm, noise: ((noise[..., 0],), (noise[..., 0],)),
            noise_sampler=lambda stream, size: np.zeros((size, 4, 1)),
            c_xi=1.0,
        )
        sample = esgs_dd_unknown(oracle, np.zeros(4), ETA, RandomStream(0))
        np.testing.assert_array_equal(sample.estimate, np.zeros(4))
        assert sample.oracle_calls == 8

    def test_perfectly_correlated_field_is_unbiased_like_plain_esgs(self):
        # identical marginals independent of x reduce the estimator to the
        # non-decision-dependent one; on a linear function the mean is exact
        c = np.array([1.5, -0.5])
        oracle = shared_noise_field(c)
        stream = RandomStream(3)
        count = 50_000
        acc = np.zeros(2)
        acc2 = np.zeros(2)
        for _ in range(count):
            g = esgs_dd_unknown(oracle, np.array([0.2, 0.1]), ETA, stream).estimate
            acc += g
            acc2 += g * g
        mean = acc / count
        se = np.sqrt((acc2 / count - mean**2) / count)
        np.testing.assert_array_less(np.abs(mean - c), 3.0 * se)

    def test_market_field_lipschitz(self):
        problem = market_problem()
        c_xi = problem.extras["c_xi"]
        stream = RandomStream(4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            xp = rng.uniform(-3.0, 3.0, size=2)
            xm = xp + rng.uniform(-1.0, 1.0, size=2)
            noise = market_field_noise(problem, stream, 4000)
            xi_1, xi_2 = problem.dd_unknown.field_sampler(xp, xm, noise)
            sq = np.sum((np.array(xi_1) - np.array(xi_2)) ** 2, axis=0)
            bound = c_xi * float(np.sum((xp - xm) ** 2)) * 1.1
            assert sq.mean() <= bound + 3.0 * sq.std(ddof=1) / math.sqrt(len(sq))

    def test_market_field_marginal_law(self):
        problem = market_problem()
        a, beta = problem.extras["a"], problem.extras["beta"]
        sigma = problem.extras["sigma"]
        xp = np.array([2.0, 1.0])
        xm = np.array([1.5, 1.0])
        stream = RandomStream(6)
        count = 50_000
        noise = market_field_noise(problem, stream, count)
        zeta1 = problem.dd_unknown.field_sampler(xp, xm, noise)[0][0]
        mean_se = sigma / math.sqrt(count)
        assert abs(zeta1.mean() - (a + beta * xp[0])) < 4.0 * mean_se
        var_se = math.sqrt(2.0 * sigma**4 / count)
        assert abs(zeta1.var(ddof=1) - sigma**2) < 4.0 * var_se


class ScriptedNormals:
    """Generator stand-in whose ``standard_normal()`` returns pinned values."""

    def __init__(self, *normals):
        self._normals = list(normals)

    def standard_normal(self):
        return self._normals.pop(0)


class TestMarketBlockField:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_block_field_equals_scalar_map_pair_by_pair(self, data):
        # the broadcasting field at (m, k) point pairs gives each pair the
        # bits of the scalar field_correlation and sample_correlated_pair on
        # that pair's normals
        m = data.draw(st.integers(1, 4), label="m")
        k = data.draw(st.integers(1, 3), label="k")
        points = hnp.arrays(float, (m, k, 2), elements=st.floats(-25.0, 25.0))
        x_plus, x_minus = data.draw(points, label="x_plus"), data.draw(points, label="x_minus")
        noise = data.draw(
            hnp.arrays(float, (m, k, 3), elements=st.floats(-6.0, 6.0)), label="noise"
        )
        problem = market_problem()
        e = problem.extras
        xi_plus, xi_minus = problem.dd_unknown.field_sampler(x_plus, x_minus, noise)
        for i, j in np.ndindex(m, k):
            xp, xm = float(x_plus[i, j, 0]), float(x_minus[i, j, 0])
            z1, z2, zeta2 = (float(v) for v in noise[i, j])
            rho = field_correlation(xp, xm, e["c_xi"], e["beta"], e["sigma"])
            expected = sample_correlated_pair(
                e["a"] + e["beta"] * xp,
                e["a"] + e["beta"] * xm,
                e["sigma"],
                rho,
                SimpleNamespace(generator=ScriptedNormals(z1, z2)),
            )
            assert (xi_plus[0][i, j], xi_minus[0][i, j]) == expected
            assert xi_plus[1][i, j] == xi_minus[1][i, j] == zeta2


class TestMomentGates:
    """Two-sided closed-form gates on E||g||^2.  For a linear ``f_hat`` whose
    noise cancels in each pair, ``g_i = 2 c_i sqrt(V / pi)``, so ``||g||^2 =
    (4/pi) V ||c||^2`` with ``V ~ Exp(1)``: its mean and its standard
    deviation are both ``(4/pi) ||c||^2``, and a probe of N samples lies
    within 4 standard errors ``(4/pi) ||c||^2 / sqrt(N)`` of the mean."""

    C = np.array([1.5, -0.5, 2.0])
    X = np.array([0.2, -0.1, 0.4])
    COUNT = 10_000

    def assert_within_four_standard_errors(self, probe):
        exact = 4.0 / math.pi * float(self.C @ self.C)
        se = exact / math.sqrt(self.COUNT)
        assert abs(probe - exact) <= 4.0 * se, (probe, exact, se)

    def test_known_density_with_unit_ratio(self):
        def normal_pdf(u):
            return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

        oracle = KnownDensityOracle(
            f_hat=lambda x, xi: x @ self.C + xi[0],
            # the same density under every decision: the ratio is 1
            cond_density=lambda xi, x: normal_pdf(xi[0]) * np.ones(x.shape[:-1]),
            ref_density=lambda xi: normal_pdf(xi[0]),
            ref_sampler=lambda stream, size: (stream.generator.standard_normal(size),),
            ratio_bound_m=1.0,
            value_bound_mf=1e6,
            lip_f_hat=float(np.linalg.norm(self.C)),
            lip_xi=0.0,
        )
        probe = second_moment_probe(
            esgs_dd_known, oracle, self.X, ETA, self.COUNT, RandomStream(31)
        )
        self.assert_within_four_standard_errors(probe)

    def test_shared_noise_field(self):
        probe = second_moment_probe(
            esgs_dd_unknown, shared_noise_field(self.C), self.X, ETA, self.COUNT,
            RandomStream(32),
        )
        self.assert_within_four_standard_errors(probe)


class TestDriverWithToyOracles:
    """``run`` runs the decision-dependent kinds with any oracle written to
    the broadcasting contract."""

    def test_known_density_toy_oracle(self):
        streams = [RandomStream(8, r) for r in range(3)]
        batch, single = Recorder(), Recorder()
        trajs = run(
            toy_known_oracle(), esgs_dd_known, Schedule(kind="convex_diminishing", n=1),
            50, FeasibleSet.symmetric_box(2.0, 1), np.array([0.5]), streams,
            observe=batch,
        )
        assert len(trajs) == 3
        for traj in trajs:
            assert np.isfinite(traj.x).all() and abs(traj.x[0]) <= 2.0
            assert traj.oracle_calls == 50 * 2
        (alone,) = run(
            toy_known_oracle(), esgs_dd_known, Schedule(kind="convex_diminishing", n=1),
            50, FeasibleSet.symmetric_box(2.0, 1), np.array([0.5]), [RandomStream(8, 1)],
            observe=single,
        )
        for k, x in single.x.items():
            np.testing.assert_array_equal(x[0], batch.x[k][1])
        np.testing.assert_array_equal(alone.x, trajs[1].x)

    def test_shared_noise_random_field_oracle(self):
        c = np.array([1.5, -0.5])
        oracle = shared_noise_field(c)
        (traj,) = run(
            oracle, esgs_dd_unknown, Schedule(kind="convex_diminishing", n=2), 40,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(2)],
        )
        assert traj.oracle_calls == 40 * 2 * 2
        # the linear objective pushes every coordinate towards -sign(c)
        assert traj.x[0] < 0.0 < traj.x[1]


class TestSecondMomentLinearity:
    def test_market_probes_within_linear_bound(self):
        problem = market_problem()
        n = problem.n
        x = np.array([2.0, 1.0])
        count = 3000
        # the known-density estimate's Lipschitz figure, from the oracle's
        # declared bounds
        known = problem.dd_known
        l0_known = math.sqrt(
            2.0 * (known.ratio_bound_m**2 * known.lip_f_hat**2
                   + known.ratio_bound_m * known.value_bound_mf**2 * known.lip_xi**2)
        )
        assert 4.0 / math.pi * l0_known**2 * n * 1.1 == 1.3708152037770904e19
        for estimator, oracle, l0 in (
            (esgs_dd_known, known, l0_known),
            (esgs_dd_unknown, problem.dd_unknown, problem.extras["l0_unknown"]),
        ):
            stream = RandomStream(7)
            total = 0.0
            for _ in range(count):
                g = estimator(oracle, x, ETA, stream).estimate
                total += float(g @ g)
            probe = total / count
            assert probe <= 4.0 / math.pi * l0**2 * n * 1.1
