import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zosmooth import optimizer
from zosmooth.bench import KINDS
from zosmooth.decision import esgs_dd_known, esgs_dd_unknown
from zosmooth.estimators import (
    ESTIMATORS,
    SQRT_2PI,
    BatchEstimator,
    GradientSample,
    StochasticOracle,
    esgs_estimate,
    gs_estimate,
    spherical_estimate,
    spsa_estimate,
)
from zosmooth.optimizer import (
    MAX_BLOCK_ITERATIONS,
    NonFiniteError,
    RunState,
    Schedule,
    run,
    sample_iterate_index,
    schedule_values,
    step,
    step_sizes,
    weighted_average,
)
from zosmooth.problems import market_problem, nonconvex_min_problem, quad_l1_problem
from zosmooth.projections import FeasibleSet
from zosmooth.rng import RandomStream

from recorder import Recorder
from reference import contains


# Each kind with a value for every field it reads, and for no other.
FULL_SCHEDULES = {
    "convex_diminishing": {"n": 4},
    "convex_constant": {"n": 4, "horizon": 100, "radius_scale": 2.0, "l0": 1.0},
    "strongly_convex": {"theta": 2.0, "mu": 1.0},
    "nonconvex_fixed_eta": {"n": 1, "l0": 1.0, "eta_fixed": 0.1},
    "nonconvex_asymptotic": {"alpha": 0.9, "beta": 0.3},
    "custom": {"alpha": 0.5, "beta": 0.5, "gamma_scale": 0.3, "eta_scale": 0.2},
}


class TestSchedules:
    def test_convex_diminishing_value(self):
        sched = Schedule(kind="convex_diminishing", n=4)
        assert schedule_values(sched, 0) == (0.5, 0.5)

    def test_strongly_convex_value(self):
        # the paper's theta/k over k >= 1, indexed from the run's k = 0
        sched = Schedule(kind="strongly_convex", theta=2.0, mu=1.0)
        assert schedule_values(sched, 3) == (0.5, 0.5)

    def test_strongly_convex_step_sizes_start_at_theta(self):
        sched = Schedule(kind="strongly_convex", theta=2.5, mu=1.0)
        gammas = step_sizes(sched, 50)
        assert gammas[0] == 2.5
        assert [g.hex() for g in gammas] == [(2.5 / (k + 1)).hex() for k in range(50)]

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

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_overflow_is_a_value_error_naming_kind_k_and_field(self, field):
        exponents = {"alpha": 0.5, "beta": 0.5, field: -1e308}
        sched = Schedule(kind="custom", **exponents)
        assert schedule_values(sched, 0) == (1.0, 1.0)
        with pytest.raises(ValueError) as info:
            schedule_values(sched, 1)
        message = str(info.value)
        assert "schedule kind 'custom'" in message and "at k=1 " in message
        assert f"{field}=-1e+308" in message
        # run stops with the same error at its second iteration
        problem = nonconvex_min_problem(2)
        with pytest.raises(ValueError, match="overflows a float at k=1 "):
            run(problem.oracle, esgs_estimate, sched, 3, problem.feasible, problem.x0,
                [RandomStream(0)])

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
        "kind, name",
        [
            (kind, name)
            for kind, params in FULL_SCHEDULES.items()
            for name in params
            if name not in ("gamma_scale", "eta_scale")  # these default to 1
        ],
    )
    def test_missing_field_the_kind_reads_is_rejected(self, kind, name):
        params = {key: value for key, value in FULL_SCHEDULES[kind].items() if key != name}
        with pytest.raises(ValueError, match=f"^schedule kind {kind!r} requires {name!r}$"):
            Schedule(kind=kind, **params)

    def test_negative_iteration_index_rejected(self):
        with pytest.raises(ValueError, match="iteration index must be >= 0, got -1"):
            schedule_values(Schedule(kind="convex_diminishing", n=2), -1)

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
            ("custom", {"alpha": 0.5, "beta": 0.5, "eta_scale": -1.0}, "eta_scale"),
            ("custom", {"alpha": 0.5, "beta": 0.5, "eta_scale": 0.0}, "eta_scale"),
            ("custom", {"alpha": 0.5, "beta": 0.5, "eta_scale": math.nan}, "eta_scale"),
            ("nonconvex_fixed_eta", {"eta_fixed": -1.0, "l0": 1.0, "n": 2}, "eta_fixed"),
            ("nonconvex_fixed_eta", {"eta_fixed": 0.0, "l0": 1.0, "n": 2}, "eta_fixed"),
            ("nonconvex_fixed_eta", {"eta_fixed": math.nan, "l0": 1.0, "n": 2}, "eta_fixed"),
        ],
    )
    def test_non_positive_divisor_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match=f"requires {name} > 0"):
            Schedule(kind=kind, **params)

    @pytest.mark.parametrize(
        "kind, name",
        [
            (kind, field.name)
            for kind, reads in FULL_SCHEDULES.items()
            for field in dataclasses.fields(Schedule)[1:]
            if field.name not in reads
        ],
    )
    def test_field_the_kind_does_not_read_is_rejected(self, kind, name):
        with pytest.raises(ValueError, match=f"does not read {name!r}"):
            Schedule(kind=kind, **FULL_SCHEDULES[kind], **{name: 7})

    @pytest.mark.parametrize("kind", optimizer.SCHEDULE_KINDS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_values_are_the_closed_form_bit_for_bit(self, kind, data):
        s = data.draw(VALID_SCHEDULES[kind])
        k = data.draw(st.integers(0, 10**9))
        closed_form = {
            "convex_diminishing": lambda: (1.0 / math.sqrt(s.n * (k + 1)),) * 2,
            "convex_constant": lambda: (
                s.radius_scale / (s.l0 * math.sqrt(s.n * s.horizon)),
                1.0 / math.sqrt(s.n * s.horizon),
            ),
            "strongly_convex": lambda: (s.theta / (k + 1),) * 2,
            "nonconvex_fixed_eta": lambda: (
                s.eta_fixed / (s.l0 * math.sqrt(s.n) * math.sqrt(k + 1)), s.eta_fixed
            ),
            "nonconvex_asymptotic": lambda: ((k + 1) ** -s.alpha, (k + 1) ** -s.beta),
            "custom": lambda: (
                s.gamma_scale * (k + 1) ** -s.alpha, s.eta_scale * (k + 1) ** -s.beta
            ),
        }[kind]()
        got = schedule_values(s, k)
        assert [v.hex() for v in got] == [v.hex() for v in closed_form]


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

    # the guard prints no RuntimeWarning, which would sit beside the CLI's
    # one-line error
    @pytest.mark.filterwarnings("error")
    def test_finite_point_whose_sum_overflows_passes(self):
        out = step(np.array([[1e308, 1e308]]), np.zeros((1, 2)), 0.1,
                   FeasibleSet.unconstrained())
        np.testing.assert_array_equal(out, [[1e308, 1e308]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_entry_raises(self, bad):
        x = np.zeros((3, 2))
        x[1, 0] = bad
        with pytest.raises(NonFiniteError):
            step(x, np.zeros((3, 2)), 0.1, FeasibleSet.unconstrained())
        x[2, 1] = -bad  # an inf of each sign, whose sum is NaN
        with pytest.raises(NonFiniteError):
            step(x, np.zeros((3, 2)), 0.1, FeasibleSet.unconstrained())


def linear_oracle(c):
    c = np.asarray(c, dtype=float)
    return StochasticOracle(
        eval=lambda x, xi: np.vecdot(x, c),
        noise_sampler=lambda stream, size: np.zeros(size),
    )


POSITIVE = st.floats(1e-3, 1e3)
# Valid parameters of each schedule kind, with every eta_k > 0.
VALID_SCHEDULES = {
    "convex_diminishing": st.builds(
        Schedule, kind=st.just("convex_diminishing"), n=st.integers(1, 10**6)
    ),
    "convex_constant": st.builds(
        Schedule, kind=st.just("convex_constant"), n=st.integers(1, 1000),
        horizon=st.integers(1, 10**6), radius_scale=POSITIVE, l0=POSITIVE,
    ),
    "strongly_convex": st.builds(
        lambda mu, gap: Schedule(kind="strongly_convex", theta=1.0 / mu + gap, mu=mu),
        POSITIVE, POSITIVE,
    ),
    "nonconvex_fixed_eta": st.builds(
        Schedule, kind=st.just("nonconvex_fixed_eta"), eta_fixed=POSITIVE, l0=POSITIVE,
        n=st.integers(1, 1000),
    ),
    # beta a fraction of 2*alpha - 1, so that 2*alpha - beta > 1
    "nonconvex_asymptotic": st.builds(
        lambda alpha, share: Schedule(
            kind="nonconvex_asymptotic", alpha=alpha, beta=share * (2.0 * alpha - 1.0)
        ),
        st.floats(0.51, 0.99), st.floats(0.01, 0.99),
    ),
    "custom": st.builds(
        Schedule, kind=st.just("custom"), alpha=st.floats(0.0, 2.0),
        beta=st.floats(0.0, 2.0), gamma_scale=POSITIVE, eta_scale=POSITIVE,
    ),
}


class TestRun:
    def test_constant_objective_stays_at_start(self):
        oracle = StochasticOracle(
            eval=lambda x, xi: np.full(x.shape[:-1], 2.0),
            noise_sampler=lambda s, size: np.zeros(size),
        )
        sched = Schedule(kind="convex_diminishing", n=3)
        rec = Recorder()
        run(
            oracle, esgs_estimate, sched, 20, FeasibleSet.unconstrained(),
            np.array([1.0, -2.0, 0.5]), [RandomStream(0)], observe=rec,
        )
        assert rec.seen == list(range(21))
        for k in range(21):
            np.testing.assert_array_equal(rec.x[k], [[1.0, -2.0, 0.5]])

    def test_weighted_average_needs_a_step(self):
        problem = quad_l1_problem(3, 1)
        (state,) = run(
            problem.oracle, esgs_estimate, problem.default_schedule, 0,
            problem.feasible, problem.x0, [RandomStream(0)],
        )
        with pytest.raises(ValueError, match="run state has no accumulated steps"):
            weighted_average(state)

    def test_single_step_composes_estimate_and_projection(self):
        # same scripted draws as the estimator hand example: v = 0.5, any z
        from test_estimators import ScriptedGenerator, ScriptedStream

        u = 1.0 - math.exp(-0.5)
        gen = ScriptedGenerator(uniforms=[u], normals=[np.array([0.0, 0.0])])
        sched = Schedule(kind="convex_diminishing", n=2)
        (traj,) = run(
            linear_oracle([1.0, 0.0]), esgs_estimate, sched, 1,
            FeasibleSet.unconstrained(), np.zeros(2), [ScriptedStream(gen)],
        )
        gamma0 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            traj.x, [-gamma0 * 2.0 / SQRT_2PI, 0.0], rtol=1e-12
        )

    def test_deterministic_given_stream(self):
        sched = Schedule(kind="convex_diminishing", n=2)
        recs = [Recorder(), Recorder()]
        runs = [
            run(
                linear_oracle([1.0, -1.0]), esgs_estimate, sched, 50,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(5, 3)],
                observe=rec,
            )[0]
            for rec in recs
        ]
        for k, x in recs[0].x.items():
            np.testing.assert_array_equal(x, recs[1].x[k])
        assert recs[0].calls == recs[1].calls
        assert runs[0].oracle_calls == runs[1].oracle_calls

    def test_iterates_feasible_and_budget_counted(self):
        ball = FeasibleSet.unit_ball(3)
        sched = Schedule(kind="convex_diminishing", n=3)
        rec = Recorder()
        (traj,) = run(
            linear_oracle([2.0, 1.0, -1.0]), esgs_estimate, sched, 100, ball,
            np.array([5.0, 5.0, 5.0]), [RandomStream(8)], observe=rec,
        )
        for k in range(101):
            assert contains(ball, rec.x[k][0])
        assert traj.oracle_calls == rec.calls[100] == 100 * 2 * 3
        assert np.all(np.diff(list(rec.calls.values())) > 0)

    def test_infeasible_start_projected(self):
        ball = FeasibleSet.unit_ball(2)
        sched = Schedule(kind="convex_diminishing", n=2)
        rec = Recorder(at=[0])
        run(
            linear_oracle([1.0, 0.0]), esgs_estimate, sched, 1, ball,
            np.array([3.0, 4.0]), [RandomStream(9)], observe=rec,
        )
        np.testing.assert_allclose(rec.x[0], [[0.6, 0.8]])

    def test_strongly_convex_rate_shape(self):
        # F(x, xi) = 0.5||x||^2 + xi'x: exact objective 0.5||x||^2, additive
        # gradient noise; theta/k steps track the optimum at rate ~ 1/k.
        n = 5
        oracle = StochasticOracle(
            eval=lambda x, xi: 0.5 * np.vecdot(x, x) + np.vecdot(xi, x),
            noise_sampler=lambda s, size: s.generator.standard_normal((size, n)),
        )
        sched = Schedule(kind="strongly_convex", theta=3.0, mu=1.0)
        ks = [100, 450, 2000]
        sq = {k: [] for k in ks}
        for rep in range(10):
            rec = Recorder(at=ks)
            run(
                oracle, esgs_estimate, sched, 2000, FeasibleSet.unconstrained(),
                2.0 * np.ones(n), [RandomStream(100, rep)], observe=rec,
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

        def observe(state):
            checkpoints(state)
            every(state)

        (traj,) = run(
            linear_oracle([1.0, 2.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(11)],
            observe=observe,
        )
        np.testing.assert_array_equal(checkpoints.x[10], every.x[10])
        np.testing.assert_array_equal(checkpoints.x[30], every.x[30])
        np.testing.assert_array_equal(every.x[30][0], traj.x)
        gammas = step_sizes(sched, 10)
        first = np.concatenate([every.x[k] for k in range(10)])
        manual = (gammas[:, None] * first).sum(axis=0) / gammas.sum()
        np.testing.assert_allclose(checkpoints.average[10][0], manual, rtol=1e-12)
        assert checkpoints.calls[10] == 10 * 2 * 2
        assert checkpoints.calls[30] == traj.oracle_calls

    @pytest.mark.parametrize(
        "schedule",
        [
            Schedule(kind="convex_diminishing", n=2),
            Schedule(kind="convex_constant", n=2, horizon=40, radius_scale=1.0, l0=1.5),
            Schedule(kind="strongly_convex", theta=3.0, mu=1.0),
            Schedule(kind="nonconvex_fixed_eta", eta_fixed=0.1, l0=1.5, n=2),
            Schedule(kind="nonconvex_asymptotic", alpha=0.9, beta=0.3),
            Schedule(kind="custom", alpha=0.5, beta=0.5, gamma_scale=0.3),
        ],
        ids=lambda schedule: schedule.kind,
    )
    def test_step_sizes_are_the_steps_run_takes(self, schedule, monkeypatch):
        gammas = step_sizes(schedule, 40).tolist()
        # every gamma_k that run looks up, and gamma_total before each k
        taken, totals = [], []
        values = optimizer.schedule_values

        def spy(schedule, k):
            gamma, eta = values(schedule, k)
            taken.append(gamma)
            return gamma, eta

        monkeypatch.setattr(optimizer, "schedule_values", spy)
        (traj,) = run(
            linear_oracle([1.0, -1.0]), esgs_estimate, schedule, 40,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(3)],
            observe=lambda state: totals.append(state.gamma_total),
        )
        assert gammas == taken
        total = 0.0
        for k, gamma in enumerate(gammas):
            assert totals[k] == total
            total += gamma
        assert total == totals[40] == traj.gamma_total

    @pytest.mark.parametrize("kind", optimizer.SCHEDULE_KINDS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data(), iterations=st.integers(0, 300))
    def test_gamma_total_is_the_left_to_right_sum_of_step_sizes(self, kind, data, iterations):
        schedule = data.draw(VALID_SCHEDULES[kind])
        total = 0.0
        for gamma in step_sizes(schedule, iterations).tolist():
            total += gamma
        # a kernel that draws nothing and leaves x where it is
        still = BatchEstimator(
            "still", lambda oracle, stream, size, n: (),
            lambda oracle, x, eta, draws: np.zeros_like(x), False,
        )
        (trajectory,) = run(
            linear_oracle([1.0, 0.0]), still, schedule, iterations,
            FeasibleSet.unconstrained(), np.ones(2), [RandomStream(0)],
        )
        assert trajectory.gamma_total.hex() == total.hex()

    def test_step_sizes_rejects_a_negative_horizon(self):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            step_sizes(Schedule(kind="convex_diminishing", n=2), -1)

    def test_memory_does_not_grow_with_iterations(self):
        # a kernel that draws nothing and allocates one array, so that what
        # could grow with the iteration count is run's own
        estimator = BatchEstimator(
            "halving", lambda oracle, stream, size, n: (),
            lambda oracle, x, eta, draws: 0.5 * x, False,
        )
        go = lambda iterations: run(
            linear_oracle([1.0, 0.0]), estimator, Schedule(kind="convex_diminishing", n=2),
            iterations, FeasibleSet.unconstrained(), np.ones(2), [RandomStream(0)],
        )
        go(2_000)
        peaks = {}
        for iterations in (2_000, 20_000):
            tracemalloc.start()
            try:
                go(iterations)
                peaks[iterations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 64 KiB per 180 000 iterations, over these 18 000: a run that kept
        # one float per iteration would grow by 144 000 bytes
        assert peaks[20_000] - peaks[2_000] <= 6_553


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
            [RandomStream(9)], observe=at_k,
        )
        (short,) = run(
            linear_oracle([1.0, 2.0]), estimator, sched, k, *args, [RandomStream(9)],
        )
        np.testing.assert_array_equal(at_k.x[k][0], short.x)
        np.testing.assert_array_equal(at_k.average[k][0], weighted_average(short))
        assert at_k.calls[k] == short.oracle_calls

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
        (alone,) = run(
            linear_oracle([1.0, -1.0]), esgs_estimate, sched, 30,
            FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(5, 1)],
            observe=alone_rec,
        )
        assert isinstance(alone, RunState)
        for k, x in alone_rec.x.items():
            np.testing.assert_array_equal(batch_rec.x[k][1], x[0])
        np.testing.assert_array_equal(batch_rec.average[10][1], alone_rec.average[10][0])
        np.testing.assert_array_equal(trajs[1].x, alone.x)
        assert trajs[1].oracle_calls == 30 * 2 * 2

    def test_any_iterable_of_streams_is_a_batch(self):
        problem = quad_l1_problem(3, 1)
        args = (
            problem.oracle, esgs_estimate, problem.default_schedule, 30,
            problem.feasible, problem.x0,
        )
        streams = lambda: [RandomStream(4, r) for r in range(3)]
        array = np.empty(3, dtype=object)
        array[:] = streams()
        want = run(*args, streams())
        for form in (tuple(streams()), (s for s in streams()), array):
            got = run(*args, form)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.x, b.x)
                np.testing.assert_array_equal(a.weighted_sum, b.weighted_sum)
                assert a.gamma_total == b.gamma_total
        with pytest.raises(TypeError, match="Generator.* is not a RandomStream"):
            run(*args, [RandomStream(4, 0), np.random.default_rng(4)])

    def test_negative_iterations_or_no_streams_is_a_value_error(self):
        problem = quad_l1_problem(3, 1)
        args = (problem.oracle, esgs_estimate, problem.default_schedule)
        with pytest.raises(ValueError, match="iterations must be >= 0, got -1"):
            run(*args, -1, problem.feasible, problem.x0, [RandomStream(4)])
        with pytest.raises(ValueError, match="run needs at least one stream"):
            run(*args, 30, problem.feasible, problem.x0, [])

    def test_a_bare_stream_is_a_type_error(self):
        problem = quad_l1_problem(3, 1)
        with pytest.raises(TypeError, match="RandomStream"):
            run(
                problem.oracle, esgs_estimate, problem.default_schedule, 30,
                problem.feasible, problem.x0, RandomStream(4),
            )

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_kind_is_its_public_name(self, kind):
        public = {
            "esgs": esgs_estimate,
            "gs": gs_estimate,
            "spherical": spherical_estimate,
            "spsa": spsa_estimate,
            "esgs_dd_known": esgs_dd_known,
            "esgs_dd_unknown": esgs_dd_unknown,
        }
        entry = KINDS[kind]
        assert entry.estimator is public[kind]
        assert entry.estimator.name == kind
        if entry.oracle_field == "oracle":
            assert ESTIMATORS[kind] is public[kind]
        else:
            assert kind not in ESTIMATORS

    @pytest.mark.parametrize("kind", ["esgs_dd_known", "esgs_dd_unknown"])
    def test_decision_dependent_single_sample_runs_the_kernel(self, kind):
        # replayed by hand: each row draws its 20 iterations as one block,
        # then the kernel takes the stacked rows and step moves them; a
        # per-row fallback, drawing one sample at a time, would end elsewhere
        problem = market_problem()
        estimator = KINDS[kind].estimator
        oracle = getattr(problem, KINDS[kind].oracle_field)
        schedule, feasible, n = problem.default_schedule, problem.feasible, problem.n
        streams = lambda: [RandomStream(6, r) for r in range(2)]
        got = run(oracle, estimator, schedule, 20, feasible, problem.x0, streams())
        blocks = [estimator.draw(oracle, s, 20, n) for s in streams()]
        want = np.tile(problem.x0, (2, 1))
        for k in range(20):
            draws = tuple(np.stack([b[k] for b in parts]) for parts in zip(*blocks))
            gamma, eta = schedule_values(schedule, k)
            want = step(want, estimator.estimate(oracle, want, eta, draws), gamma, feasible)
        for r, trajectory in enumerate(got):
            np.testing.assert_array_equal(trajectory.x, want[r])

    def test_custom_estimator_is_a_batch_estimator(self):
        def halving(oracle, x, params, stream):
            return GradientSample(estimate=0.5 * np.asarray(x), draws=(), oracle_calls=3)

        sched = Schedule(kind="convex_diminishing", n=2)
        rec = Recorder()
        go = lambda estimator: run(
            linear_oracle([1.0, 0.0]), estimator, sched, 4, FeasibleSet.unconstrained(),
            np.ones(2), [RandomStream(0), RandomStream(1)], observe=rec,
        )
        with pytest.raises(TypeError, match="halving"):
            go(halving)

        class Halver:
            def halving(self, oracle, x, params, stream):
                return halving(oracle, x, params, stream)

        # a bound method is rejected, a kind's own __call__ included
        with pytest.raises(TypeError, match="Halver.halving"):
            go(Halver().halving)
        with pytest.raises(TypeError, match="BatchEstimator.__call__"):
            go(esgs_estimate.__call__)
        # the same estimator as a kernel that draws nothing
        trajs = go(
            BatchEstimator(
                "halving", lambda oracle, stream, size, n: (),
                lambda oracle, x, eta, draws: 0.5 * x, False,
            )
        )
        np.testing.assert_array_equal(trajs[0].x, trajs[1].x)
        assert list(rec.calls.values()) == [0, 2, 4, 6, 8]
        assert trajs[0].oracle_calls == trajs[1].oracle_calls == 8

    def test_non_finite_estimate_names_kind_and_iteration(self):
        count = {"calls": 0}

        def eval_fn(x, xi):
            # one call per iteration, on the row's 2n replacement points
            count["calls"] += 1
            return x[..., 0] * (math.nan if count["calls"] > 7 else 1.0)

        oracle = StochasticOracle(
            eval=eval_fn, noise_sampler=lambda s, size: np.zeros(size)
        )
        sched = Schedule(kind="convex_diminishing", n=2)
        with pytest.raises(NonFiniteError, match=r"'esgs'.*estimate at iteration k=7"):
            run(
                oracle, esgs_estimate, sched, 20, FeasibleSet.symmetric_box(1.0, 2),
                np.zeros(2), [RandomStream(3)],
            )

    def test_non_finite_iterate_detected_through_box_projection(self):
        # an infinite step would be clipped back into the box unnoticed
        sched = Schedule(kind="custom", alpha=0.5, beta=0.5, gamma_scale=math.inf)
        with pytest.raises(NonFiniteError, match=r"iterate at iteration k=0"):
            run(
                linear_oracle([1.0, 2.0]), esgs_estimate, sched, 5,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(4)],
            )


def noisy_quadratic_oracle(n):
    # F(x, xi) = 0.5 ||x||^2 + xi'x with xi ~ N(0, I); eval_axis keeps the
    # coordinate-wise kind at O(n) per row at large n
    def eval_axis(base, moved, xi):
        rest = 0.5 * (np.vecdot(base, base)[:, None] - base * base) + (
            np.vecdot(xi, base)[:, None] - xi * base
        )
        xi = xi[:, None]
        return rest[:, None] + 0.5 * moved * moved + xi * moved

    return StochasticOracle(
        eval=lambda x, xi: 0.5 * np.vecdot(x, x) + np.vecdot(xi, x),
        noise_sampler=lambda stream, size: stream.generator.standard_normal((size, n)),
        eval_axis=eval_axis,
    )


class TestObserver:
    """``observe`` sees k = 0..K once each, in order and before iteration k,
    changes nothing, ends on each replication's final state, and sees row r
    as it would see replication r run alone; it cannot write into the run.
    At n = 400 and 900 a draw block holds 163 and 72 iterations, so longer
    runs cross block boundaries."""

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
        rec, kept = Recorder(), []

        def observe(state):
            rec(state)
            if state.k == iterations:
                kept.append(copy.deepcopy(state))

        observed, plain = go(streams(), observe), go(streams())
        (last,) = kept
        # (a) every k once, in order, with the state before iteration k
        assert rec.seen == list(range(iterations + 1))
        np.testing.assert_array_equal(rec.x[0], np.full((rows, n), 0.5))
        per_estimate = 2 * n if KINDS[kind].estimator.per_coordinate else 2
        assert list(rec.calls.values()) == [per_estimate * k for k in rec.seen]
        # (b) observing changes no bit of the final states
        for a, b in zip(observed, plain):
            for field in dataclasses.fields(RunState):
                np.testing.assert_array_equal(
                    getattr(a, field.name), getattr(b, field.name)
                )
        # (c) the last record is each replication's final state, row r of it
        for r, final in enumerate(observed):
            for field in dataclasses.fields(RunState):
                seen = getattr(last, field.name)
                if isinstance(seen, np.ndarray):
                    seen = seen[r]
                np.testing.assert_array_equal(seen, getattr(final, field.name))
            if iterations:
                np.testing.assert_array_equal(
                    rec.average[iterations][r], weighted_average(final)
                )
        # (d) row r is observed as replication r alone
        for r in range(rows):
            alone = Recorder()
            go([RandomStream(11, substream_id=r)], alone)
            for k in range(iterations + 1):
                np.testing.assert_array_equal(rec.x[k][r], alone.x[k][0])
                np.testing.assert_array_equal(rec.average[k][r], alone.average[k][0])
                assert rec.calls[k] == alone.calls[k]


    def test_observer_cannot_write_into_the_run(self):
        def go(observe=None):
            return run(
                linear_oracle([1.0, -1.0]), esgs_estimate,
                Schedule(kind="convex_diminishing", n=2), 5,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2),
                [RandomStream(2, r) for r in range(2)], observe=observe,
            )

        refused = []

        def observe(state):
            for name in ("x", "weighted_sum"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(state, name)[0, 0] = 9.0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(state, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.k = 0
            refused.append(state.k)

        observed, plain = go(observe), go()
        assert refused == list(range(6))
        for a, b in zip(observed, plain):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.weighted_sum, b.weighted_sum)
            # the states run returns stay writable
            assert a.x.flags.writeable and a.weighted_sum.flags.writeable


def synthetic_state(iterates, gammas):
    iterates = np.asarray(iterates, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    weighted = (gammas[:, None] * iterates[:-1]).sum(axis=0)
    return RunState(
        k=len(gammas),
        x=iterates[-1].copy(),
        weighted_sum=weighted,
        gamma_total=float(gammas.sum()),
        oracle_calls=2 * len(gammas),
    )


class TestAveragingAndSampling:
    def test_constant_trajectory_average(self):
        state = synthetic_state([[2.0], [2.0], [2.0]], [0.3, 0.7])
        np.testing.assert_allclose(weighted_average(state), [2.0])

    def test_equal_weights(self):
        state = synthetic_state([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]], [1.0, 1.0])
        np.testing.assert_allclose(weighted_average(state), [1.0, 1.0])

    def test_weighted_mean_value(self):
        state = synthetic_state([[0.0], [4.0], [5.0]], [1.0, 3.0])
        np.testing.assert_allclose(weighted_average(state), [3.0])

    def test_single_iterate_sampled_with_probability_one(self):
        for _ in range(10):
            assert sample_iterate_index(np.array([0.4]), RandomStream(0)) == 0

    def test_uniform_sampling_frequencies(self):
        gammas = np.ones(4)
        stream = RandomStream(17)
        draws = np.array(
            [sample_iterate_index(gammas, stream) for _ in range(100_000)]
        )
        for j in range(4):
            assert abs((draws == j).mean() - 0.25) < 0.01

    def test_weighted_sampling_frequencies(self):
        stream = RandomStream(18)
        draws = np.array(
            [
                sample_iterate_index(np.array([1.0, 3.0]), stream)
                for _ in range(100_000)
            ]
        )
        assert abs((draws == 1).mean() - 0.75) < 0.01
