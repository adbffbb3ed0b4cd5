import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zosmooth.bench import KINDS
from zosmooth.decision import esgs_dd_known, esgs_dd_unknown
from zosmooth.estimators import (
    ESTIMATORS,
    SQRT_2PI,
    GradientSample,
    StochasticOracle,
    batch_form,
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
from zosmooth.problems import market_problem
from zosmooth.projections import FeasibleSet, contains
from zosmooth.rng import RandomStream

from recorder import Recorder


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

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("convex_diminishing", {"n": 0}, "n"),
            ("convex_constant", {"n": 2, "horizon": 0, "radius_scale": 1.0, "l0": 1.0}, "horizon"),
            ("convex_constant", {"n": 2, "horizon": 5, "radius_scale": 1.0, "l0": -1.0}, "l0"),
            ("strongly_convex", {"theta": 3.0, "mu": 0.0}, "mu"),
            ("strongly_convex", {"theta": 3.0, "mu": -1.0}, "mu"),
            ("nonconvex_fixed_eta", {"eta_fixed": 0.1, "l0": 0.0, "n": 2}, "l0"),
            ("nonconvex_fixed_eta", {"eta_fixed": 0.1, "l0": 1.0, "n": 0}, "n"),
            ("convex_constant", {"n": 2, "horizon": 5, "radius_scale": -1.0, "l0": 1.0},
             "radius_scale"),
            ("convex_constant", {"n": 2, "horizon": 5, "radius_scale": 0.0, "l0": 1.0},
             "radius_scale"),
            ("custom", {"alpha": 0.5, "beta": 0.5, "gamma_scale": -1.0}, "gamma_scale"),
            ("custom", {"alpha": 0.5, "beta": 0.5, "gamma_scale": 0.0}, "gamma_scale"),
            ("custom", {"alpha": 0.5, "beta": 0.5, "gamma_scale": math.nan}, "gamma_scale"),
        ],
    )
    def test_non_positive_divisor_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match=f"requires {name} > 0"):
            Schedule(kind=kind, **params)


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
        eval=lambda x, xi: np.vecdot(x, c),
        noise_sampler=lambda stream, size: np.zeros(size),
        lipschitz_l0=float(np.linalg.norm(c)),
    )


class TestRun:
    def test_constant_objective_stays_at_start(self):
        oracle = StochasticOracle(
            eval=lambda x, xi: np.full(x.shape[:-1], 2.0),
            noise_sampler=lambda s, size: np.zeros(size),
            lipschitz_l0=0.0,
        )
        sched = Schedule(kind="convex_diminishing", n=3)
        rec = Recorder()
        run(
            oracle, esgs_estimate, sched, 20, FeasibleSet.unconstrained(),
            np.array([1.0, -2.0, 0.5]), RandomStream(0), observe=rec,
        )
        assert rec.seen == list(range(21))
        for k in range(21):
            np.testing.assert_array_equal(rec.x[k], [[1.0, -2.0, 0.5]])

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
        recs = [Recorder(), Recorder()]
        runs = [
            run(
                linear_oracle([1.0, -1.0]), esgs_estimate, sched, 50,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(5, 3),
                observe=rec,
            )
            for rec in recs
        ]
        np.testing.assert_array_equal(recs[0].iterates(0), recs[1].iterates(0))
        np.testing.assert_array_equal(
            runs[0].oracle_calls_cumulative, runs[1].oracle_calls_cumulative
        )

    def test_iterates_feasible_and_budget_counted(self):
        ball = FeasibleSet.unit_ball(3)
        sched = Schedule(kind="convex_diminishing", n=3)
        rec = Recorder()
        traj = run(
            linear_oracle([2.0, 1.0, -1.0]), esgs_estimate, sched, 100, ball,
            np.array([5.0, 5.0, 5.0]), RandomStream(8), observe=rec,
        )
        for k in range(101):
            assert contains(ball, rec.x[k][0], tol=1e-12)
        assert traj.oracle_calls_cumulative[-1] == 100 * 2 * 3
        assert np.all(np.diff(traj.oracle_calls_cumulative) > 0)

    def test_infeasible_start_projected(self):
        ball = FeasibleSet.unit_ball(2)
        sched = Schedule(kind="convex_diminishing", n=2)
        rec = Recorder(at=[0])
        run(
            linear_oracle([1.0, 0.0]), esgs_estimate, sched, 1, ball,
            np.array([3.0, 4.0]), RandomStream(9), observe=rec,
        )
        np.testing.assert_allclose(rec.x[0], [[0.6, 0.8]])

    def test_strongly_convex_rate_shape(self):
        # F(x, xi) = 0.5||x||^2 + xi'x: exact objective 0.5||x||^2, additive
        # gradient noise; theta/k steps track the optimum at rate ~ 1/k.
        n = 5
        oracle = StochasticOracle(
            eval=lambda x, xi: 0.5 * np.vecdot(x, x) + np.vecdot(xi, x),
            noise_sampler=lambda s, size: s.generator.standard_normal((size, n)),
            lipschitz_l0=5.0,
        )
        sched = Schedule(kind="strongly_convex", theta=3.0, mu=1.0)
        ks = [100, 450, 2000]
        sq = {k: [] for k in ks}
        for rep in range(10):
            rec = Recorder(at=ks)
            run(
                oracle, esgs_estimate, sched, 2000, FeasibleSet.unconstrained(),
                2.0 * np.ones(n), RandomStream(100, rep), observe=rec,
            )
            for k in ks:
                sq[k].append(float(rec.x[k][0] @ rec.x[k][0]))
        means = [np.mean(sq[k]) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(means), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_checkpoints_match_recorded_iterates(self):
        # the states kept at k = 10 and 30 agree with every iterate recorded
        # by a second observer of the same run, and with the trajectory
        sched = Schedule(kind="convex_diminishing", n=2)
        checkpoints, every = Recorder(at=[10, 30]), Recorder()

        def observe(*state):
            checkpoints(*state)
            every(*state)

        traj = run(
            linear_oracle([1.0, 2.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(11),
            observe=observe,
        )
        iterates = every.iterates(0)
        np.testing.assert_array_equal(checkpoints.x[10][0], iterates[10])
        np.testing.assert_array_equal(checkpoints.x[30][0], iterates[30])
        np.testing.assert_array_equal(iterates[30], traj.final_x)
        gammas = traj.gammas[:10]
        manual = (gammas[:, None] * iterates[:10]).sum(axis=0) / gammas.sum()
        np.testing.assert_allclose(checkpoints.average[10][0], manual, rtol=1e-12)
        assert checkpoints.calls[10] == traj.oracle_calls_cumulative[9]


class TestBatchedRun:
    @pytest.mark.parametrize("kind", ["esgs", "gs"])
    def test_run_ending_on_a_block_boundary_is_prefix_of_longer_run(self, kind):
        # at n = 2 a block holds MAX_BLOCK_ITERATIONS iterations
        estimator = ESTIMATORS[kind]
        sched = Schedule(kind="convex_diminishing", n=2)
        args = (FeasibleSet.symmetric_box(1.0, 2), np.zeros(2))
        k = 2 * MAX_BLOCK_ITERATIONS
        at_k = Recorder(at=[k])
        run(
            linear_oracle([1.0, 2.0]), estimator, sched, k + 100, *args,
            RandomStream(9), observe=at_k,
        )
        short = run(
            linear_oracle([1.0, 2.0]), estimator, sched, k, *args, RandomStream(9),
        )
        np.testing.assert_array_equal(at_k.x[k][0], short.final_x)
        np.testing.assert_array_equal(at_k.average[k][0], weighted_average(short))
        assert at_k.calls[k] == short.oracle_calls_cumulative[-1]

    def test_batch_returns_one_trajectory_per_stream(self):
        sched = Schedule(kind="convex_diminishing", n=2)
        streams = [RandomStream(5, r) for r in range(3)]
        batch_rec, alone_rec = Recorder(), Recorder()
        trajs = run(
            linear_oracle([1.0, -1.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), streams,
            observe=batch_rec,
        )
        assert isinstance(trajs, list) and len(trajs) == 3
        assert all(x.shape == (3, 2) for x in batch_rec.x.values())
        alone = run(
            linear_oracle([1.0, -1.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), RandomStream(5, 1),
            observe=alone_rec,
        )
        assert isinstance(alone, Trajectory)
        np.testing.assert_array_equal(batch_rec.iterates(1), alone_rec.iterates(0))
        np.testing.assert_array_equal(batch_rec.average[10][1], alone_rec.average[10][0])
        np.testing.assert_array_equal(trajs[1].final_x, alone.final_x)
        assert trajs[1].oracle_calls_cumulative[-1] == 30 * 2 * 2

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_single_sample_estimator_resolves_to_its_kind(self, kind):
        assert batch_form(KINDS[kind].estimator.sample) is KINDS[kind].estimator

    @pytest.mark.parametrize(
        "kind, estimator",
        [("esgs_dd_known", esgs_dd_known), ("esgs_dd_unknown", esgs_dd_unknown)],
        ids=["esgs_dd_known", "esgs_dd_unknown"],
    )
    def test_decision_dependent_single_sample_runs_the_kernel(self, kind, estimator):
        # run draws in blocks for the kernel, so a per-row fallback, drawing
        # one sample at a time, would end elsewhere
        problem = market_problem()
        entry = KINDS[kind]
        oracle = getattr(problem, entry.oracle_field)
        args = (problem.default_schedule, 20, problem.feasible, problem.x0)
        got = run(oracle, estimator, *args, [RandomStream(6, r) for r in range(2)])
        want = run(oracle, entry.estimator, *args, [RandomStream(6, r) for r in range(2)])
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.final_x, b.final_x)

    def test_custom_single_sample_estimator_runs_per_row(self):
        def halving(oracle, x, params, stream):
            return GradientSample(estimate=0.5 * np.asarray(x), draws=(), oracle_calls=3)

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
            # one call per iteration, on the row's 2n replacement points
            count["calls"] += 1
            return x[..., 0] * (math.nan if count["calls"] > 7 else 1.0)

        oracle = StochasticOracle(
            eval=eval_fn, noise_sampler=lambda s, size: np.zeros(size), lipschitz_l0=1.0
        )
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


def noisy_quadratic_oracle(n):
    # F(x, xi) = 0.5 ||x||^2 + xi'x with xi ~ N(0, I); eval_axis keeps the
    # coordinate-wise kind at O(n) per row at large n
    def eval_axis(base, plus, minus, xi):
        rest = 0.5 * (np.vecdot(base, base)[:, None] - base * base) + (
            np.vecdot(xi, base)[:, None] - xi * base
        )
        value = lambda v: rest + 0.5 * v * v + xi * v
        return value(plus), value(minus)

    return StochasticOracle(
        eval=lambda x, xi: 0.5 * np.vecdot(x, x) + np.vecdot(xi, x),
        noise_sampler=lambda stream, size: stream.generator.standard_normal((size, n)),
        lipschitz_l0=1.0,
        eval_axis=eval_axis,
    )


class TestObserver:
    """``observe`` sees k = 0..K once each, in order and before iteration k,
    changes nothing, ends on the trajectory's final state, and sees row r as
    it would see replication r run alone.  At n = 400 and 900 a draw block
    holds 163 and 72 iterations, so longer runs cross block boundaries."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        kind=st.sampled_from(sorted(ESTIMATORS)),
        n=st.sampled_from([1, 3, 400, 900]),
        iterations=st.integers(0, 160),
        rows=st.integers(1, 3),
    )
    @example(kind="esgs", n=900, iterations=150, rows=3)
    @example(kind="gs", n=400, iterations=160, rows=2)
    def test_observed_records(self, kind, n, iterations, rows):
        def go(streams, observe=None):
            return run(
                noisy_quadratic_oracle(n), KINDS[kind].estimator,
                Schedule(kind="custom", alpha=0.5, beta=0.5), iterations,
                FeasibleSet.symmetric_box(1.0, n), np.full(n, 0.5), streams,
                observe=observe,
            )

        streams = lambda: [RandomStream(11, substream_id=r) for r in range(rows)]
        rec = Recorder()
        observed, plain = go(streams(), rec), go(streams())
        # (a) every k once, in order, with the state before iteration k
        assert rec.seen == list(range(iterations + 1))
        np.testing.assert_array_equal(rec.x[0], np.full((rows, n), 0.5))
        assert list(rec.calls.values()) == [0, *observed[0].oracle_calls_cumulative]
        # (b) observing changes no bit of the trajectories
        for a, b in zip(observed, plain):
            for name in ("gammas", "etas", "oracle_calls_cumulative", "final_x",
                         "weighted_sum"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert a.gamma_total == b.gamma_total
        # (c) the last record is the trajectory's final state
        for r, traj in enumerate(observed):
            np.testing.assert_array_equal(rec.x[iterations][r], traj.final_x)
            if iterations:
                np.testing.assert_array_equal(
                    rec.average[iterations][r], weighted_average(traj)
                )
                assert rec.calls[iterations] == traj.oracle_calls_cumulative[-1]
            else:
                assert rec.calls[0] == 0
        # (d) row r is observed as replication r alone
        for r in range(rows):
            alone = Recorder()
            go(RandomStream(11, substream_id=r), alone)
            for k in range(iterations + 1):
                np.testing.assert_array_equal(rec.x[k][r], alone.x[k][0])
                np.testing.assert_array_equal(rec.average[k][r], alone.average[k][0])
                assert rec.calls[k] == alone.calls[k]


def synthetic_trajectory(iterates, gammas):
    iterates = np.asarray(iterates, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    weighted = (gammas[:, None] * iterates[:-1]).sum(axis=0)
    return Trajectory(
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
        iterates = np.array([[1.5], [2.5]])
        for _ in range(10):
            np.testing.assert_array_equal(
                sample_random_iterate(iterates, np.array([0.4]), RandomStream(0)), [1.5]
            )

    def test_uniform_sampling_frequencies(self):
        iterates = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        gammas = np.ones(4)
        stream = RandomStream(17)
        draws = np.array(
            [sample_random_iterate(iterates, gammas, stream)[0] for _ in range(100_000)]
        )
        for j in range(4):
            assert abs((draws == j).mean() - 0.25) < 0.01

    def test_weighted_sampling_frequencies(self):
        iterates = np.array([[0.0], [1.0], [2.0]])
        stream = RandomStream(18)
        draws = np.array(
            [
                sample_random_iterate(iterates, np.array([1.0, 3.0]), stream)[0]
                for _ in range(100_000)
            ]
        )
        assert abs((draws == 1).mean() - 0.75) < 0.01

    def test_sampling_requires_recorded_iterates(self):
        sched = Schedule(kind="convex_diminishing", n=1)
        rec = Recorder(at=[0, 1, 2])
        traj = run(
            linear_oracle([1.0]), esgs_estimate, sched, 5,
            FeasibleSet.unconstrained(), np.zeros(1), RandomStream(1), observe=rec,
        )
        # x_0 .. x_4 are needed for K = 5 steps, only x_0 .. x_2 were kept
        with pytest.raises(ValueError, match="each of the 5 steps, got 3"):
            sample_random_iterate(rec.iterates(0), traj.gammas, RandomStream(2))
        sample_random_iterate(rec.iterates(0), traj.gammas[:3], RandomStream(2))
        # the running weighted average needs no observer
        assert weighted_average(traj).shape == (1,)
