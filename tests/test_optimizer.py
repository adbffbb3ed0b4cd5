import math

import numpy as np
import pytest

from zosmooth.estimators import (
    ESTIMATORS,
    SQRT_2PI,
    GradientSample,
    StochasticOracle,
    esgs_estimate,
)
from zosmooth.optimizer import (
    MAX_BLOCK_ITERATIONS,
    NonFiniteError,
    Schedule,
    Trajectory,
    run,
    sample_random_iterate,
    schedule_values,
    step,
    weighted_average,
)
from zosmooth.projections import FeasibleSet, contains
from zosmooth.rng import RandomStream


class TestSchedules:
    def test_convex_diminishing_value(self):
        sched = Schedule(kind="convex_diminishing", n=4)
        assert schedule_values(sched, 0) == (0.5, 0.5)

    def test_strongly_convex_value(self):
        sched = Schedule(kind="strongly_convex", theta=2.0, mu=1.0)
        assert schedule_values(sched, 4) == (0.5, 0.5)

    def test_strongly_convex_undefined_at_zero(self):
        sched = Schedule(kind="strongly_convex", theta=2.0, mu=1.0)
        with pytest.raises(ValueError):
            schedule_values(sched, 0)

    def test_nonconvex_fixed_eta_value(self):
        sched = Schedule(kind="nonconvex_fixed_eta", eta_fixed=0.1, l0=1.0, n=1)
        gamma, eta = schedule_values(sched, 0)
        assert (gamma, eta) == (pytest.approx(0.1), 0.1)

    def test_constant_schedule(self):
        sched = Schedule(
            kind="convex_constant", n=4, horizon=100, radius_scale=2.0, l0=1.0
        )
        gamma, eta = schedule_values(sched, 17)
        assert gamma == pytest.approx(2.0 / math.sqrt(400))
        assert eta == pytest.approx(1.0 / math.sqrt(400))

    def test_theta_constraint(self):
        with pytest.raises(ValueError):
            Schedule(kind="strongly_convex", theta=0.9, mu=1.0)

    def test_asymptotic_exponent_constraints(self):
        Schedule(kind="nonconvex_asymptotic", alpha=0.9, beta=0.3)  # valid
        with pytest.raises(ValueError):
            Schedule(kind="nonconvex_asymptotic", alpha=0.6, beta=0.3)
        with pytest.raises(ValueError):
            Schedule(kind="nonconvex_asymptotic", alpha=1.1, beta=0.3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Schedule(kind="warp")


class TestStep:
    def test_zero_gradient_identity(self):
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(
            step(x, np.zeros(2), 0.7, FeasibleSet.unconstrained()), x
        )

    def test_unconstrained_arithmetic(self):
        out = step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.5,
                   FeasibleSet.unconstrained())
        np.testing.assert_allclose(out, [0.5, 1.5])

    def test_box_clamp_after_step(self):
        out = step(
            np.array([1.0, 0.0]),
            np.array([-4.0, 0.0]),
            1.0,
            FeasibleSet.symmetric_box(1.0, 2),
        )
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            step(np.zeros(2), np.zeros(3), 0.1, FeasibleSet.unconstrained())

    def test_batch_steps_row_by_row(self):
        x = np.array([[1.0, 0.0], [0.2, 0.3]])
        g = np.array([[-4.0, 0.0], [0.2, -0.2]])
        out = step(x, g, 1.0, FeasibleSet.symmetric_box(1.0, 2))
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.5]])

    def test_non_finite_point_raises_before_clipping(self):
        with pytest.raises(NonFiniteError):
            step(np.zeros(2), np.array([math.nan, 0.0]), 0.1,
                 FeasibleSet.symmetric_box(1.0, 2))


def linear_oracle(c):
    c = np.asarray(c, dtype=float)
    return StochasticOracle(
        eval=lambda x, xi: float(c @ x),
        noise_sampler=lambda stream: None,
        lipschitz_l0=float(np.linalg.norm(c)),
    )


class TestRun:
    def test_constant_objective_stays_at_start(self):
        oracle = StochasticOracle(
            eval=lambda x, xi: 2.0, noise_sampler=lambda s: None, lipschitz_l0=0.0
        )
        sched = Schedule(kind="convex_diminishing", n=3)
        traj = run(
            oracle, esgs_estimate, sched, 20, FeasibleSet.unconstrained(),
            np.array([1.0, -2.0, 0.5]), RandomStream(0),
        )
        for k in range(21):
            np.testing.assert_array_equal(traj.iterates[k], [1.0, -2.0, 0.5])

    def test_single_step_composes_estimate_and_projection(self):
        # same scripted draws as the estimator hand example: v = 0.5, any z
        from test_estimators import ScriptedGenerator, ScriptedStream

        u = 1.0 - math.exp(-0.5)
        gen = ScriptedGenerator(uniforms=[u], normals=[np.array([0.0, 0.0])])
        sched = Schedule(kind="convex_diminishing", n=2)
        traj = run(
            linear_oracle([1.0, 0.0]), esgs_estimate, sched, 1,
            FeasibleSet.unconstrained(), np.zeros(2), ScriptedStream(gen),
        )
        gamma0 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            traj.final_x, [-gamma0 * 2.0 / SQRT_2PI, 0.0], rtol=1e-12
        )

    def test_deterministic_given_stream(self):
        sched = Schedule(kind="convex_diminishing", n=2)
        runs = [
            run(
                linear_oracle([1.0, -1.0]), esgs_estimate, sched, 50,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(5, 3),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].iterates, runs[1].iterates)
        np.testing.assert_array_equal(
            runs[0].oracle_calls_cumulative, runs[1].oracle_calls_cumulative
        )

    def test_iterates_feasible_and_budget_counted(self):
        ball = FeasibleSet.unit_ball(3)
        sched = Schedule(kind="convex_diminishing", n=3)
        traj = run(
            linear_oracle([2.0, 1.0, -1.0]), esgs_estimate, sched, 100, ball,
            np.array([5.0, 5.0, 5.0]), RandomStream(8),
        )
        for k in range(101):
            assert contains(ball, traj.iterates[k], tol=1e-12)
        assert traj.oracle_calls_cumulative[-1] == 100 * 2 * 3
        assert np.all(np.diff(traj.oracle_calls_cumulative) > 0)

    def test_infeasible_start_projected(self):
        ball = FeasibleSet.unit_ball(2)
        sched = Schedule(kind="convex_diminishing", n=2)
        traj = run(
            linear_oracle([1.0, 0.0]), esgs_estimate, sched, 1, ball,
            np.array([3.0, 4.0]), RandomStream(9),
        )
        np.testing.assert_allclose(traj.iterates[0], [0.6, 0.8])

    def test_strongly_convex_rate_shape(self):
        # F(x, xi) = 0.5||x||^2 + xi'x: exact objective 0.5||x||^2, additive
        # gradient noise; theta/k steps track the optimum at rate ~ 1/k.
        n = 5
        oracle = StochasticOracle(
            eval=lambda x, xi: 0.5 * float(x @ x) + float(xi @ x),
            noise_sampler=lambda s: s.generator.standard_normal(n),
            lipschitz_l0=5.0,
        )
        sched = Schedule(kind="strongly_convex", theta=3.0, mu=1.0)
        ks = [100, 450, 2000]
        sq = {k: [] for k in ks}
        for rep in range(10):
            traj = run(
                oracle, esgs_estimate, sched, 2000, FeasibleSet.unconstrained(),
                2.0 * np.ones(n), RandomStream(100, rep), record_iterates=False,
                checkpoint_at=ks,
            )
            for k in ks:
                sq[k].append(float(traj.checkpoints[k].x @ traj.checkpoints[k].x))
        means = [np.mean(sq[k]) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(means), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_checkpoints_match_recorded_iterates(self):
        sched = Schedule(kind="convex_diminishing", n=2)
        traj = run(
            linear_oracle([1.0, 2.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(11),
            checkpoint_at=[10, 30],
        )
        np.testing.assert_array_equal(traj.checkpoints[10].x, traj.iterates[10])
        np.testing.assert_array_equal(traj.checkpoints[30].x, traj.iterates[30])
        gammas = traj.gammas[:10]
        manual = (gammas[:, None] * traj.iterates[:10]).sum(axis=0) / gammas.sum()
        np.testing.assert_allclose(
            traj.checkpoints[10].weighted_average, manual, rtol=1e-12
        )


class TestBatchedRun:
    @pytest.mark.parametrize("kind", ["esgs", "gs"])
    def test_run_ending_on_a_block_boundary_is_prefix_of_longer_run(self, kind):
        # at n = 2 a block holds MAX_BLOCK_ITERATIONS iterations
        estimator = ESTIMATORS[kind]
        sched = Schedule(kind="convex_diminishing", n=2)
        args = (FeasibleSet.symmetric_box(1.0, 2), np.zeros(2))
        k = 2 * MAX_BLOCK_ITERATIONS
        long = run(
            linear_oracle([1.0, 2.0]), estimator, sched, k + 100, *args,
            RandomStream(9), record_iterates=False, checkpoint_at=[k],
        )
        short = run(
            linear_oracle([1.0, 2.0]), estimator, sched, k, *args,
            RandomStream(9), record_iterates=False,
        )
        np.testing.assert_array_equal(long.checkpoints[k].x, short.final_x)
        np.testing.assert_array_equal(
            long.checkpoints[k].weighted_average, weighted_average(short)
        )
        assert long.checkpoints[k].oracle_calls == short.oracle_calls_cumulative[-1]

    def test_batch_returns_one_trajectory_per_stream(self):
        sched = Schedule(kind="convex_diminishing", n=2)
        streams = [RandomStream(5, r) for r in range(3)]
        trajs = run(
            linear_oracle([1.0, -1.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), streams,
            record_iterates=[1], checkpoint_at=[10],
        )
        assert isinstance(trajs, list) and len(trajs) == 3
        assert trajs[0].iterates is None and trajs[2].iterates is None
        alone = run(
            linear_oracle([1.0, -1.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(5, 1),
            checkpoint_at=[10],
        )
        assert isinstance(alone, Trajectory)
        np.testing.assert_array_equal(trajs[1].iterates, alone.iterates)
        np.testing.assert_array_equal(trajs[1].checkpoints[10].x, alone.checkpoints[10].x)
        assert trajs[1].oracle_calls_cumulative[-1] == 30 * 2 * 2

    def test_custom_single_sample_estimator_runs_per_row(self):
        def halving(oracle, x, params, stream):
            return GradientSample(
                estimate=0.5 * np.asarray(x), v=math.nan, z=np.zeros_like(x),
                oracle_calls=3,
            )

        sched = Schedule(kind="convex_diminishing", n=2)
        trajs = run(
            linear_oracle([1.0, 0.0]), halving, sched, 4, FeasibleSet.unconstrained(),
            np.ones(2), [RandomStream(0), RandomStream(1)],
        )
        np.testing.assert_array_equal(trajs[0].final_x, trajs[1].final_x)
        assert list(trajs[0].oracle_calls_cumulative) == [3, 6, 9, 12]

    def test_non_finite_estimate_names_kind_and_iteration(self):
        count = {"calls": 0}

        def eval_fn(x, xi):
            count["calls"] += 1
            return math.nan if count["calls"] > 2 * 2 * 7 else float(x[0])

        oracle = StochasticOracle(eval=eval_fn, noise_sampler=lambda s: None, lipschitz_l0=1.0)
        sched = Schedule(kind="convex_diminishing", n=2)
        with pytest.raises(NonFiniteError, match=r"'esgs'.*estimate at iteration k=7"):
            run(
                oracle, esgs_estimate, sched, 20, FeasibleSet.symmetric_box(1.0, 2),
                np.zeros(2), RandomStream(3),
            )

    def test_non_finite_iterate_detected_through_box_projection(self):
        # an infinite step would be clipped back into the box unnoticed
        sched = Schedule(kind="custom", alpha=0.5, beta=0.5, gamma_scale=math.inf)
        with pytest.raises(NonFiniteError, match=r"iterate at iteration k=0"):
            run(
                linear_oracle([1.0, 2.0]), esgs_estimate, sched, 5,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(4),
            )


def synthetic_trajectory(iterates, gammas):
    iterates = np.asarray(iterates, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    weighted = (gammas[:, None] * iterates[:-1]).sum(axis=0)
    return Trajectory(
        iterates=iterates,
        gammas=gammas,
        etas=gammas.copy(),
        oracle_calls_cumulative=np.arange(1, len(gammas) + 1) * 2,
        wall_time_ms=0.0,
        final_x=iterates[-1].copy(),
        weighted_sum=weighted,
        gamma_total=float(gammas.sum()),
    )


class TestAveragingAndSampling:
    def test_constant_trajectory_average(self):
        traj = synthetic_trajectory([[2.0], [2.0], [2.0]], [0.3, 0.7])
        np.testing.assert_allclose(weighted_average(traj), [2.0])

    def test_equal_weights(self):
        traj = synthetic_trajectory([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]], [1.0, 1.0])
        np.testing.assert_allclose(weighted_average(traj), [1.0, 1.0])

    def test_weighted_mean_value(self):
        traj = synthetic_trajectory([[0.0], [4.0], [5.0]], [1.0, 3.0])
        np.testing.assert_allclose(weighted_average(traj), [3.0])

    def test_single_iterate_sampled_with_probability_one(self):
        traj = synthetic_trajectory([[1.5], [2.5]], [0.4])
        for _ in range(10):
            np.testing.assert_array_equal(
                sample_random_iterate(traj, RandomStream(0)), [1.5]
            )

    def test_uniform_sampling_frequencies(self):
        traj = synthetic_trajectory(
            [[0.0], [1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 1.0, 1.0]
        )
        stream = RandomStream(17)
        draws = np.array(
            [sample_random_iterate(traj, stream)[0] for _ in range(100_000)]
        )
        for j in range(4):
            assert abs((draws == j).mean() - 0.25) < 0.01

    def test_weighted_sampling_frequencies(self):
        traj = synthetic_trajectory([[0.0], [1.0], [2.0]], [1.0, 3.0])
        stream = RandomStream(18)
        draws = np.array(
            [sample_random_iterate(traj, stream)[0] for _ in range(100_000)]
        )
        assert abs((draws == 1).mean() - 0.75) < 0.01

    def test_sampling_requires_recorded_iterates(self):
        sched = Schedule(kind="convex_diminishing", n=1)
        traj = run(
            linear_oracle([1.0]), esgs_estimate, sched, 5,
            FeasibleSet.unconstrained(), np.zeros(1), RandomStream(1),
            record_iterates=False,
        )
        with pytest.raises(ValueError):
            sample_random_iterate(traj, RandomStream(2))
        # the running weighted average is still available
        assert weighted_average(traj).shape == (1,)
