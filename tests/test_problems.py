import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zosmooth import problems
from zosmooth.bench import run_problem
from zosmooth.decision import RatioBoundError, ValueBoundError, esgs_dd_known
from zosmooth.estimators import esgs_estimate
from zosmooth.problems import (
    MARKET_SHIFT_ALLOWANCE,
    PL_INTERCEPTS,
    PL_MAX_MU,
    PL_SLOPES,
    _envelope_gaussian_stats,
    _proximal_gradient_quad,
    error_metric,
    make_quad_problem,
    market_problem,
    nonconvex_min_problem,
    performative_gap,
    piecewise_linear_problem,
    quad_l1_problem,
)
from zosmooth.projections import project
from zosmooth.rng import RandomStream

from reference import (
    contains,
    market_sample_noise_at,
    piecewise_linear_reference_cross_check,
    quad_reference_cross_check,
)


def mc_oracle_mean(problem, x, count, seed):
    xi = problem.oracle.noise_sampler(RandomStream(seed), count)
    values = problem.oracle.eval(np.tile(x, (count, 1)), xi)
    return values.mean(), values.std(ddof=1) / math.sqrt(count)


def reference_quad_l1(n, seed, l1_weight):
    """``quad_l1_problem`` with Q_hat written as one expression, not in place."""
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    d = gen.standard_normal((n, n))
    b_mat = 0.1 * gen.standard_normal((n, n))
    q_hat = d.T @ d / n + np.eye(n) + b_mat.T @ b_mat / n
    b = gen.standard_normal(n)
    if l1_weight == 0.0:
        worst = float(np.max(np.abs(np.linalg.solve(q_hat, -b))))
        if worst > 0.8:
            b = b * (0.8 / worst)
    problem = make_quad_problem(q_hat, b, l1_weight=l1_weight)
    if l1_weight == 0.0:
        problem.x_star = np.linalg.solve(q_hat, -b)
        problem.f_star = problem.exact_f(problem.x_star)
    return problem


def random_feasible(problem, count, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-3.0, 3.0, size=(count, problem.n))
    return np.array([project(problem.feasible, p) for p in points])


@pytest.mark.parametrize(
    "factory",
    [
        lambda: quad_l1_problem(8, 2),
        lambda: piecewise_linear_problem(8, 0.0),
        lambda: piecewise_linear_problem(8, 1.0),
        lambda: nonconvex_min_problem(8),
    ],
)
def test_oracle_mean_matches_exact_objective(factory):
    problem = factory()
    for i, x in enumerate(random_feasible(problem, 10, 3)):
        mean, se = mc_oracle_mean(problem, x, 4000, 100 + i)
        assert abs(mean - problem.exact_f(x)) < 4.0 * max(se, 1e-12)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: quad_l1_problem(8, 2),
        lambda: piecewise_linear_problem(8, 1.0),
        lambda: market_problem(),
    ],
)
def test_reference_optimality_against_random_feasible(factory):
    problem = factory()
    for x in random_feasible(problem, 1000, 4):
        assert problem.exact_f(problem.x_star) <= problem.exact_f(x) + 1e-9


@pytest.mark.parametrize(
    "factory",
    [
        lambda: quad_l1_problem(8, 2),
        lambda: piecewise_linear_problem(8, 0.0),
        lambda: nonconvex_min_problem(8),
        lambda: market_problem(),
    ],
)
def test_lipschitz_estimate_sanity(factory):
    problem = factory()
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = project(problem.feasible, rng.uniform(-3.0, 3.0, size=problem.n))
        y = project(problem.feasible, x + rng.normal(scale=0.3, size=problem.n))
        gap = np.linalg.norm(x - y)
        if gap < 1e-9:
            continue
        quotient = abs(problem.exact_f(x) - problem.exact_f(y)) / gap
        assert quotient <= 1.05 * problem.l0


class TestQuad:
    def test_one_dimensional_reference_value(self):
        problem = make_quad_problem(np.array([[2.0]]), np.array([0.0]))
        # minimizer of x^2 + 0.5|x| on [-1, 1] is 0
        assert problem.f_star == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(problem.x_star, [0.0], atol=1e-12)
        assert error_metric(problem, np.zeros(1)) == pytest.approx(0.0, abs=1e-12)

    def test_reference_solvers_agree(self):
        problem = quad_l1_problem(10, 7)
        assert abs(problem.f_star - quad_reference_cross_check(problem)) < 1e-6

    def test_starting_point(self):
        problem = quad_l1_problem(8, 1)
        np.testing.assert_array_equal(problem.x0, [1, 1, 1, 1, 1, 0, 0, 0])

    def test_smooth_variant_has_exact_interior_minimizer(self):
        problem = quad_l1_problem(6, 9, l1_weight=0.0)
        assert np.max(np.abs(problem.x_star)) < 1.0
        grad = problem.grad_exact(problem.x_star)
        np.testing.assert_allclose(grad, np.zeros(6), atol=1e-10)
        assert problem.mu >= 1.0

    def test_one_eigendecomposition_gives_norm_and_mu(self):
        problem = quad_l1_problem(50, 13)
        q_hat = problem.extras["q_hat"]
        eigenvalues = np.linalg.eigvalsh(q_hat)
        norm_q = float(eigenvalues[-1])
        assert problem.extras["norm_q"] == norm_q
        assert problem.mu == float(eigenvalues[0])
        svd_norm = float(np.linalg.norm(q_hat, 2))
        assert abs(norm_q - svd_norm) <= 1e-12 * svd_norm
        # bit for bit: the step, the schedule scales and the reference all
        # use this one float
        assert problem.default_schedule.gamma_scale == 1.0 / norm_q
        assert problem.default_schedule.eta_scale == 1.0 / norm_q
        x_ref = _proximal_gradient_quad(
            q_hat, problem.extras["b"], 0.5, problem.feasible, np.zeros(50), norm_q
        )
        np.testing.assert_array_equal(problem.x_star, x_ref)

    @pytest.mark.parametrize("l1_weight", [0.5, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 200])
    def test_in_place_build_is_bit_identical_to_the_expression(self, n, l1_weight):
        for seed in (0, 11, 2024):
            problem = quad_l1_problem(n, seed, l1_weight)
            ref = reference_quad_l1(n, seed, l1_weight)
            assert np.array_equal(problem.extras["q_hat"], ref.extras["q_hat"])
            assert np.array_equal(problem.extras["b"], ref.extras["b"])
            assert np.array_equal(problem.x_star, ref.x_star)
            assert problem.f_star == ref.f_star

    def test_build_holds_at_most_three_matrices(self):
        # Q_hat, B and W are alive together during the second product;
        # holding D and Q as well would read about 5 matrices
        n = 400
        # first-call work (lazy imports, caches) is not part of the guard
        quad_l1_problem(2, 11)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            problem = quad_l1_problem(n, 11)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert problem.extras["q_hat"].shape == (n, n)
        assert peak <= 3.2 * 8 * n * n

    def test_instances_are_seeded(self):
        a = quad_l1_problem(5, 3)
        b = quad_l1_problem(5, 3)
        c = quad_l1_problem(5, 4)
        np.testing.assert_array_equal(a.extras["q_hat"], b.extras["q_hat"])
        assert not np.array_equal(a.extras["q_hat"], c.extras["q_hat"])

    def test_negative_seed_names_the_parameter(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got seed=-1 at n=3$"):
            quad_l1_problem(3, -1)


class TestPiecewiseLinear:
    def test_value_at_origin_is_max_intercept(self):
        problem = piecewise_linear_problem(8, 0.0)
        assert problem.exact_f(np.zeros(8)) == pytest.approx(0.8)

    def test_convexity_tags(self):
        assert piecewise_linear_problem(4, 1.0).convexity == "strongly_convex"
        assert piecewise_linear_problem(4, 1.0).mu == 1.0
        assert piecewise_linear_problem(4, 0.0).convexity == "convex"

    def test_envelope_of_the_shipped_lines(self):
        assert problems._PL_LINES == [(0.6, 0.1), (0.8, 0.5), (0.2, 0.9)]
        assert problems._PL_BREAKS == [-0.5000000000000001, 1.5000000000000002]

    def test_envelope_expectation_against_gauss_hermite(self):
        # independent 50-node Gauss-Hermite cross-check of the closed form
        nodes, weights = np.polynomial.hermite.hermgauss(50)
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.uniform(-4.0, 4.0)
            s = rng.uniform(0.05, 2.0)
            t = m + math.sqrt(2.0) * s * nodes
            phi_vals = np.max(
                PL_INTERCEPTS[:, None] + PL_SLOPES[:, None] * t[None, :], axis=0
            )
            gh = float((weights * phi_vals).sum() / math.sqrt(math.pi))
            closed, _, _ = _envelope_gaussian_stats(m, s)
            assert closed == pytest.approx(gh, abs=5e-3)

    def test_gradient_matches_finite_difference(self):
        problem = piecewise_linear_problem(6, 1.0)
        rng = np.random.default_rng(12)
        x = project(problem.feasible, rng.normal(size=6))
        g = problem.grad_exact(x)
        h = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (problem.exact_f(x + e) - problem.exact_f(x - e)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, abs=1e-5)

    def test_reference_routes_agree(self):
        for mu in (0.0, 1.0):
            problem = piecewise_linear_problem(10, mu)
            assert abs(
                problem.f_star - piecewise_linear_reference_cross_check(problem)
            ) < 1e-6

    def test_reference_routes_stop_well_before_the_cap(self, monkeypatch):
        # at n = 3 the route from ones(n)/sqrt(n) zig-zags on the sphere at
        # rounding level with f unchanged, and ran to the 20 000-step cap
        route, counts = problems._projected_gradient, []

        def counted(f, grad, *args, **kwargs):
            counts.append(0)

            def counting_grad(x):
                counts[-1] += 1
                return grad(x)

            return route(f, counting_grad, *args, **kwargs)

        monkeypatch.setattr(problems, "_projected_gradient", counted)
        piecewise_linear_problem(3, 0.0)
        assert len(counts) == 2
        assert max(counts) < 200

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_mu_up_to_the_bound_builds_and_above_it_fails_before_any_solve(
        self, monkeypatch, n
    ):
        # the two reference routes agree at the bound itself
        problem = piecewise_linear_problem(n, PL_MAX_MU)
        assert abs(problem.f_star - piecewise_linear_reference_cross_check(problem)) < 1e-6

        def no_solve(*args):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(problems, "_projected_gradient", no_solve)
        for mu in (-1.0, 5e18, 1e50, 1e308):
            with pytest.raises(ValueError) as info:
                piecewise_linear_problem(n, mu)
            assert f"mu={mu!r}" in str(info.value) and f"n={n}" in str(info.value)


class TestNonconvex:
    def test_all_ones_is_stationary(self):
        problem = nonconvex_min_problem(6)
        np.testing.assert_allclose(problem.grad_exact(np.ones(6)), np.zeros(6))
        np.testing.assert_allclose(problem.grad_exact(-np.ones(6)), np.zeros(6))
        assert problem.stationarity_residual(np.ones(6)) == 0.0

    def test_value_at_origin(self):
        problem = nonconvex_min_problem(6)
        assert problem.exact_f(np.zeros(6)) == pytest.approx(8.0)  # 4n/3

    def test_reference_value_at_stationary_points(self):
        problem = nonconvex_min_problem(9)
        assert problem.exact_f(np.ones(9)) == pytest.approx(problem.f_star)
        assert problem.exact_f(-np.ones(9)) == pytest.approx(problem.f_star)

    def test_min_norm_subgradient_on_kink(self):
        problem = nonconvex_min_problem(2)
        x = np.array([0.5, -0.5])  # sum is zero: kink surface
        assert problem.stationarity_residual(x) == pytest.approx(float(4 * x @ x))

    def test_error_metric_uses_residual(self):
        problem = nonconvex_min_problem(4)
        assert error_metric(problem, np.ones(4)) == 0.0
        x = np.array([2.0, 0.0, 0.0, 0.0])
        assert error_metric(problem, x) == pytest.approx(
            float(np.sum((problem.grad_exact(x)) ** 2))
        )

    def test_smoothed_gradient_matches_estimator_mean(self):
        # dual route: closed-form smoothed gradient vs Monte-Carlo mean of
        # the coordinate-difference estimator
        problem = nonconvex_min_problem(3)
        x = np.array([0.4, -0.1, 0.3])
        eta = 0.5
        stream = RandomStream(21)
        count = 60_000
        acc = np.zeros(3)
        acc2 = np.zeros(3)
        for _ in range(count):
            g = esgs_estimate(problem.oracle, x, eta, stream).estimate
            acc += g
            acc2 += g * g
        mean = acc / count
        se = np.sqrt((acc2 / count - mean**2) / count)
        ref = problem.smoothed_gradient(x, eta)
        np.testing.assert_array_less(np.abs(mean - ref), 4.0 * se)


class TestMarket:
    def test_closed_form_targets(self):
        problem = market_problem()
        assert problem.x_star[0] == pytest.approx(4.5 / 1.4)
        assert problem.x_ps[0] == pytest.approx(3.0)
        # second coordinate: (l2 + r2) / (4 a2); no decision dependence
        assert problem.x_star[1] == pytest.approx(2.7 / 0.8)
        assert problem.x_ps[1] == problem.x_star[1]

    def test_gap_value_and_beta_zero(self):
        assert performative_gap(market_problem()) == pytest.approx(
            abs(4.5 / 1.4 - 4.5 / 1.5)
        )
        zero = market_problem(beta=0.0)
        np.testing.assert_allclose(zero.x_star, zero.x_ps)
        assert performative_gap(zero) == 0.0

    def test_gap_monotone_in_beta(self):
        gaps = [performative_gap(market_problem(beta=b)) for b in (0.05, 0.1, 0.3, 0.5)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_error_metric_zero_at_optimum(self):
        problem = market_problem()
        assert error_metric(problem, problem.x_star) == pytest.approx(0.0, abs=1e-9)

    def test_dd_oracles_unbiased_for_exact_objective(self):
        problem = market_problem()
        x = np.array([2.0, 1.5])
        fx = problem.exact_f(x)
        stream = RandomStream(31)
        # known-density route: importance-weighted values under the reference
        count = 60_000
        vals = np.empty(count)
        for i in range(count):
            (zeta1,), (zeta2,) = problem.dd_known.ref_sampler(stream, 1)
            vals[i] = problem.dd_known.weighted_value(x, (zeta1, zeta2))
        se = vals.std(ddof=1) / math.sqrt(count)
        assert abs(vals.mean() - fx) < 4.0 * se
        # random-field route: marginal draws at x
        vals = np.empty(count)
        for i in range(count):
            vals[i] = problem.dd_known.f_hat(x, market_sample_noise_at(problem, x, stream))
        se = vals.std(ddof=1) / math.sqrt(count)
        assert abs(vals.mean() - fx) < 4.0 * se

    def test_batched_oracle_values_equal_single_point_values(self):
        problem = market_problem()
        oracle = problem.dd_known
        stream = RandomStream(33)
        zeta1, zeta2 = oracle.ref_sampler(stream, 6)
        points = np.random.default_rng(34).uniform(-5.0, 5.0, size=(6, 4, 2))
        xi = (zeta1[:, None], zeta2[:, None])
        batched = oracle.weighted_value(points, xi)
        assert batched.shape == (6, 4)
        for r in range(6):
            for j in range(4):
                single = oracle.weighted_value(points[r, j], (zeta1[r], zeta2[r]))
                assert batched[r, j] == single
        # the bounds are checked at every point: one offending point raises
        ratios = oracle.cond_density(xi, points) / oracle.ref_density(xi)
        tight = replace(oracle, ratio_bound_m=float(ratios.max()) * (1.0 - 1e-12))
        with pytest.raises(RatioBoundError):
            tight.weighted_value(points, xi)
        far = points.copy()
        far[5, 3, 0] = 1e6
        with pytest.raises(ValueBoundError):
            oracle.weighted_value(far, xi)

    def test_ref_sampler_block_matches_law(self):
        problem = market_problem()
        zeta1, zeta2 = problem.dd_known.ref_sampler(RandomStream(35), 20_000)
        sigma = problem.extras["sigma"]
        assert abs(zeta1.mean()) < 4.0 * sigma / math.sqrt(20_000)
        assert np.all(np.abs(zeta1) <= 8.0 * sigma)
        assert np.all((zeta2 >= problem.extras["l2"]) & (zeta2 < problem.extras["r2"]))

    def test_ratio_bound_holds_on_sampled_draws(self):
        problem = market_problem()
        stream = RandomStream(32)
        x = np.array([5.0, 5.0])
        for _ in range(5000):
            xi = problem.dd_known.ref_sampler(stream, 1)
            ratio = problem.dd_known.cond_density(xi, x) / problem.dd_known.ref_density(xi)
            assert ratio <= problem.dd_known.ratio_bound_m

    @pytest.mark.parametrize("params", [{}, {"a": -4.5}, {"a": 1.0, "beta": -0.3}])
    def test_ratio_bound_holds_at_the_box_edge(self, params):
        # the bound takes the largest demand mean as |a| + |beta| * x1_reach,
        # which holds for either sign of a and beta
        problem = market_problem(**params)
        oracle = problem.dd_known
        zeta1, zeta2 = oracle.ref_sampler(RandomStream(36), 20_000)
        xi = (zeta1[:, None], zeta2[:, None])
        reach = 10.0 + MARKET_SHIFT_ALLOWANCE
        points = np.array([[-reach, 0.0], [-10.0, 10.0], [10.0, -10.0], [reach, 0.0]])
        ratios = oracle.cond_density(xi, points) / oracle.ref_density(xi)
        assert ratios.max() <= oracle.ratio_bound_m

    def test_known_density_kind_runs_at_negative_a(self):
        problem = market_problem(a=-4.5)
        streams = [RandomStream(1, substream_id=r) for r in range(2)]
        states = run_problem(problem, "esgs_dd_known", problem.default_schedule, 5000, streams)
        for state in states:
            # 4.66 at the start x0 = 0
            assert np.linalg.norm(state.x - problem.x_star) < 1.0

    def test_parameter_preconditions(self):
        with pytest.raises(ValueError):
            market_problem(a1=0.1, beta=0.2)
        # a1 - beta > 0 holds, but x_ps would divide by 2 a1 - beta = 0
        with pytest.raises(ValueError, match="requires a1 > 0 at a=4.5, a1=-0.05, "):
            market_problem(a1=-0.05, beta=-0.1)
        with pytest.raises(ValueError):
            market_problem(a2=0.0)
        with pytest.raises(ValueError):
            market_problem(l2=3.0, r2=1.0)

    def test_default_bounds_keep_their_bits(self):
        problem = market_problem()
        assert problem.dd_known.ratio_bound_m == 22972496.603409015
        assert problem.dd_known.value_bound_mf == 1236.3608681896349
        assert problem.l0 == 149.72776553968714

    def test_ratio_bound_overflow_names_the_parameters(self):
        market_problem(sigma2=0.01)  # a bound near 1e232 still builds
        with pytest.raises(ValueError) as info:
            market_problem(sigma2=0.001)
        for name in ("sigma2", "beta", "a", "box_half_width"):
            assert f" {name}=" in str(info.value)

    @pytest.mark.parametrize(
        "params, bound",
        [
            # exp does not overflow, but the value bound and l0 are infinite
            ({"beta": 0.0, "box_half_width": 1e308}, "value bound"),
            ({"a1": 1e307, "a2": 1e307}, "value bound"),
            ({"c_xi": 1e308}, "Lipschitz constant l0"),
        ],
    )
    def test_non_finite_bound_names_the_parameters(self, params, bound):
        with pytest.raises(ValueError) as info:
            market_problem(**params)
        message = str(info.value)
        assert f"the market's {bound} is not a finite float" in message
        for name, value in params.items():
            assert f" {name}={value!r}" in message

    @pytest.mark.parametrize("box_half_width", [-1.0, math.nan])
    def test_box_half_width_below_zero_names_the_parameter(self, box_half_width):
        with pytest.raises(ValueError, match="requires box_half_width >= 0 at a=") as info:
            market_problem(box_half_width=box_half_width)
        assert f" box_half_width={box_half_width}" in str(info.value)

    @pytest.mark.parametrize("c_xi", [-2.0, 0.001])
    def test_field_below_beta_squared_names_the_parameters(self, c_xi):
        # beta = 0.1: the random field needs c_xi >= 0.01, checked at build
        with pytest.raises(ValueError, match=f"c_xi={c_xi}") as info:
            market_problem(c_xi=c_xi)
        message = str(info.value)
        assert "random field requires c_xi >= beta^2" in message
        for name in ("a", "a1", "a2", "beta", "sigma2", "l2", "r2", "box_half_width"):
            assert f" {name}=" in message

    def test_ref_sampler_redraws_beyond_the_truncation_from_the_next_draws(self):
        from test_estimators import ScriptedGenerator, ScriptedStream

        # |z| > 8 is redrawn, in order, until none is; |z| = 8 is kept
        gen = ScriptedGenerator(
            uniforms=[[0.25, 0.5, 0.75, 0.0]],
            normals=[[0.5, 9.0, -8.5, 8.0], [-10.0, 1.25], [-0.75]],
        )
        problem = market_problem()
        zeta1, zeta2 = problem.dd_known.ref_sampler(ScriptedStream(gen), 4)
        sigma, l2, r2 = (problem.extras[k] for k in ("sigma", "l2", "r2"))
        np.testing.assert_array_equal(zeta1, sigma * np.array([0.5, -0.75, 1.25, 8.0]))
        np.testing.assert_array_equal(zeta2, l2 + (r2 - l2) * np.array([0.25, 0.5, 0.75, 0.0]))
        assert gen._normals == gen._uniforms == []

    @pytest.mark.parametrize(
        "x", [[0.0, 0.0], [2.0, -1.5], [-9.5, 9.0], [14.0, -30.0], [-25.0, 11.0]]
    )
    def test_grad_exact_matches_central_difference(self, x):
        # the first three points are inside the box of half-width 10, the rest outside
        problem = market_problem()
        x, h = np.array(x), 1e-4
        diff = [
            (problem.exact_f(x + h * e) - problem.exact_f(x - h * e)) / (2.0 * h)
            for e in np.eye(2)
        ]
        np.testing.assert_allclose(problem.grad_exact(x), diff, rtol=1e-7, atol=1e-7)


class TestFeasibility:
    def test_feasible_sets_match_problem_dimensions(self):
        for problem in (
            quad_l1_problem(4, 0),
            piecewise_linear_problem(4, 0.0),
            nonconvex_min_problem(4),
            market_problem(),
        ):
            assert contains(problem.feasible, problem.x0)
            assert problem.x0.shape == (problem.n,)


# Property tests: fixed example sequence (derandomized) and no example
# database, so every run checks the same points.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
AXIS_BUILDERS = {
    "quad_l1": lambda n: quad_l1_problem(n, 4),
    "piecewise_linear": lambda n: piecewise_linear_problem(n, 0.5),
    "nonconvex_min": nonconvex_min_problem,
}


@lru_cache(maxsize=None)
def axis_problem(name, n):
    return AXIS_BUILDERS[name](n)


# The market's decision-dependent oracles, whose eval_axis the esgs_dd kinds
# call, at the market's n = 2.
DD_ORACLES = {"market_known": "dd_known", "market_field": "dd_unknown"}
AXIS_ORACLES = sorted(AXIS_BUILDERS) + sorted(DD_ORACLES)


@lru_cache(maxsize=None)
def axis_oracle(name, n):
    if name in DD_ORACLES:
        return getattr(market_problem(), DD_ORACLES[name])
    return axis_problem(name, n).oracle


def axis_noise(name, oracle, seed, rows):
    """The rows' ``xi`` as their esgs kind draws it: the known-density
    leg's packed reference draws, or else the oracle's noise."""
    if name == "market_known":
        return esgs_dd_known.draw(oracle, RandomStream(seed), rows, 2)[-1]
    return oracle.noise_sampler(RandomStream(seed), rows)


def replaced(base, i, value):
    point = base.copy()
    point[i] = value
    return point


COORDINATE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("name", AXIS_ORACLES)
@PROPERTY
@given(data=st.data())
def test_eval_axis_equals_per_point_eval(name, data):
    n = 2 if name in DD_ORACLES else data.draw(st.integers(1, 8), label="n")
    oracle = axis_oracle(name, n)
    base = data.draw(hnp.arrays(float, (1, n), elements=COORDINATE), label="base")
    moved = data.draw(hnp.arrays(float, (1, 2, n), elements=COORDINATE), label="moved")
    xi = axis_noise(name, oracle, data.draw(st.integers(0, 2**32), label="seed"), 1)
    values = oracle.eval_axis(base, moved, xi)
    assert values.shape == (1, 2, n)
    for side in range(2):
        for i in range(n):
            point = replaced(base[0], i, moved[0, side, i])
            value = values[0, side, i]
            if name == "market_known":
                # the row's reference draw, with components of shape (1,);
                # numpy may round the density's exp of arrays of different
                # lengths differently in the last bit
                expected = oracle.weighted_value(point, tuple(xi[0, :-1, None]))
                assert value == pytest.approx(expected[0], rel=1e-14, abs=0)
            elif name == "market_field":
                # the field maps coordinate i's point pair with its own noise
                pair = (
                    replaced(base[0], i, moved[0, 0, i]),
                    replaced(base[0], i, moved[0, 1, i]),
                )
                field = oracle.field_sampler(*pair, xi[0, i])[side]
                assert value == oracle.f_hat(point, field)
            else:
                expected = oracle.eval(point, xi[0])
                assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)


def one_point_value(name, problem, x, xi):
    """F(x, xi) at one point, written as a scalar expression per family."""
    if name == "quad_l1":
        q, b, w = (problem.extras[k] for k in ("q_hat", "b", "l1_weight"))
        return float(0.5 * x @ (q @ x) + (b + xi) @ x + w * np.abs(x).sum())
    if name == "piecewise_linear":
        t = float((problem.extras["c"] + xi) @ x)
        return float(np.max(PL_INTERCEPTS + PL_SLOPES * t) + 0.5 * problem.mu * (x @ x))
    common = float(x @ x) + problem.n * xi * xi
    total = float(x.sum())
    return min(common - 2.0 * xi * total, common + 2.0 * xi * total)


@pytest.mark.parametrize("name", sorted(AXIS_BUILDERS))
@PROPERTY
@given(data=st.data())
def test_eval_on_stacked_points_equals_one_point_values(name, data):
    # the two-point kinds evaluate (R, 2, n) point pairs in one call; each
    # value has the bits of the scalar expression at its point, at n = 1
    # (where numpy's matvec is a dot) and at larger n alike
    n = data.draw(st.integers(1, 60), label="n")
    rows = data.draw(st.integers(1, 5), label="rows")
    problem = axis_problem(name, n)
    points = data.draw(hnp.arrays(float, (rows, 2, n), elements=COORDINATE), label="points")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    xi = problem.oracle.noise_sampler(RandomStream(seed), rows)
    values = problem.oracle.eval(points, xi[:, None])
    assert values.shape == (rows, 2)
    for r in range(rows):
        for side in range(2):
            expected = one_point_value(name, problem, points[r, side], xi[r])
            assert values[r, side] == expected


@pytest.mark.parametrize("name", AXIS_ORACLES)
@PROPERTY
@given(data=st.data())
def test_eval_axis_on_rows_equals_one_row_per_call(name, data):
    n = 2 if name in DD_ORACLES else data.draw(st.integers(1, 60), label="n")
    rows = data.draw(st.integers(1, 6), label="rows")
    oracle = axis_oracle(name, n)
    base = data.draw(hnp.arrays(float, (rows, n), elements=COORDINATE), label="base")
    moved = data.draw(hnp.arrays(float, (rows, 2, n), elements=COORDINATE), label="moved")
    xi = axis_noise(name, oracle, data.draw(st.integers(0, 2**32), label="seed"), rows)
    values = oracle.eval_axis(base, moved, xi)
    assert values.shape == (rows, 2, n)
    for r in range(rows):
        one = slice(r, r + 1)
        assert np.array_equal(values[one], oracle.eval_axis(base[one], moved[one], xi[one]))


@pytest.mark.parametrize("name", sorted(AXIS_BUILDERS))
@PROPERTY
@given(
    n=st.integers(1, 30), size=st.integers(1, 40), seed=st.integers(0, 2**32)
)
def test_noise_block_equals_single_draws(name, n, size, seed):
    # the kinds draw a block of noise where they once drew one per iteration
    sampler = axis_problem(name, n).oracle.noise_sampler
    block = sampler(RandomStream(seed), size)
    stream = RandomStream(seed)
    singles = np.concatenate([sampler(stream, 1) for _ in range(size)])
    assert block.shape[0] == size
    assert np.array_equal(block, singles)


@PROPERTY
@given(data=st.data())
def test_exact_f_rows_equals_per_point_exact_f(data):
    n = data.draw(st.integers(1, 60), label="n")
    m = data.draw(st.integers(1, 40), label="m")  # m = 1 takes numpy's gemv path
    problem = axis_problem("quad_l1", n)
    xs = data.draw(hnp.arrays(float, (m, n), elements=COORDINATE), label="xs")
    values = problem.exact_f_rows(xs)
    assert values.shape == (m,)
    for x, value in zip(xs, values):
        assert value == pytest.approx(problem.exact_f(x), rel=1e-12, abs=1e-12)


LINE_COEFFICIENT = st.floats(-10.0, 10.0)


@PROPERTY
@given(lines=st.lists(st.tuples(LINE_COEFFICIENT, LINE_COEFFICIENT), min_size=1, max_size=8))
def test_upper_envelope_is_the_maximum_over_all_lines(lines):
    intercepts, slopes = (np.array(part) for part in zip(*lines))
    kept, breaks = problems._upper_envelope(intercepts, slopes)
    assert len(kept) == len(breaks) + 1
    assert all(left < right for left, right in zip(breaks, breaks[1:]))
    # between two breaks, the kept line there is the maximum over all lines
    t = np.linspace(-30.0, 30.0, 241)
    v, s = np.array(kept).T
    span = np.searchsorted(breaks, t, side="right")
    full = np.max(intercepts + slopes * t[:, None], axis=1)
    np.testing.assert_allclose(v[span] + s[span] * t, full, rtol=1e-9, atol=1e-9)
