import math
import re
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zosmooth import estimators
from zosmooth.estimators import (
    ESTIMATORS,
    EVAL_CHUNK_VALUES,
    PROBE_BLOCK_VALUES,
    SQRT_2PI,
    BatchEstimator,
    GradientSample,
    StochasticOracle,
    esgs_estimate,
    esgs_rows,
    gs_estimate,
    replacement_points,
    second_moment_probe,
    shift_draws,
    spherical_estimate,
    spsa_estimate,
)
from zosmooth.bench import KINDS
from zosmooth.optimizer import NonFiniteError, Schedule, run, schedule_values
from zosmooth.problems import market_problem, quad_l1_problem
from zosmooth.projections import FeasibleSet
from zosmooth.rng import RandomStream


class ScriptedGenerator:
    """Stand-in for numpy Generator with pinned draws."""

    def __init__(self, uniforms=(), normals=(), ints=()):
        self._uniforms = list(uniforms)
        self._normals = list(normals)
        self._ints = list(ints)

    def random(self, size=None):
        out = self._uniforms.pop(0)
        return np.reshape(out, size) if size is not None else out

    def standard_normal(self, size=None):
        out = self._normals.pop(0)
        return np.reshape(np.asarray(out, dtype=float), size) if size is not None else float(out)

    def integers(self, lo, hi, size=None):
        out = np.asarray(self._ints.pop(0))
        return np.reshape(out, size) if size is not None else out

    def uniform(self, low, high, size=None):
        return low + (high - low) * np.asarray(self.random(size))


class ScriptedStream(RandomStream):
    """A :class:`RandomStream` whose generator is a :class:`ScriptedGenerator`,
    so that ``run`` takes it among its streams."""

    def __init__(self, generator):
        self.generator = generator


def linear_oracle(c):
    c = np.asarray(c, dtype=float)
    return StochasticOracle(
        eval=lambda x, xi: np.vecdot(x, c),
        noise_sampler=lambda stream, size: np.zeros(size),
    )


def constant_oracle():
    return StochasticOracle(
        eval=lambda x, xi: np.full(x.shape[:-1], 4.25),
        noise_sampler=lambda stream, size: np.zeros(size),
    )


def wrap_counting(oracle):
    counter = {"calls": 0}
    inner = oracle.eval

    def counted(x, xi):
        # one oracle call per point evaluated
        counter["calls"] += math.prod(x.shape[:-1])
        return inner(x, xi)

    wrapped = StochasticOracle(
        eval=counted,
        noise_sampler=oracle.noise_sampler,
    )
    return wrapped, counter


def mc_mean(estimator, oracle, x, eta, count, seed):
    stream = RandomStream(seed)
    n = len(x)
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    for _ in range(count):
        g = estimator(oracle, np.asarray(x, float), eta, stream).estimate
        acc += g
        acc_sq += g * g
    mean = acc / count
    se = np.sqrt(np.maximum(acc_sq / count - mean**2, 0.0) / count)
    return mean, se


ETA = 0.3


class TestEsgs:
    def test_constant_function_gives_zero(self):
        sample = esgs_estimate(constant_oracle(), np.zeros(3), ETA, RandomStream(0))
        np.testing.assert_array_equal(sample.estimate, np.zeros(3))
        assert sample.oracle_calls == 6

    def test_hand_computed_linear_components(self):
        # v pinned to 0.5 so the shift is eta*sqrt(2v) = eta; F = x_1 at x = 0
        # gives +/- eta at coordinate 1 and equal values at coordinate 2.
        u = 1.0 - math.exp(-0.5)  # inverse CDF: -log(1-u) = 0.5
        gen = ScriptedGenerator(uniforms=[u], normals=[np.array([0.37, -0.81])])
        sample = esgs_estimate(
            linear_oracle([1.0, 0.0]),
            np.zeros(2),
            0.7,
            ScriptedStream(gen),
        )
        assert sample.draws[0] == pytest.approx(1.0)  # sqrt(2V) at V = 0.5
        np.testing.assert_allclose(
            sample.estimate, [2.0 / SQRT_2PI, 0.0], rtol=1e-12, atol=1e-12
        )

    def test_unbiased_for_linear(self):
        c = np.array([1.0, -2.0])
        mean, se = mc_mean(esgs_estimate, linear_oracle(c), [0.2, 0.5], ETA, 100_000, 7)
        np.testing.assert_array_less(np.abs(mean - c), 3.0 * se)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_linear_estimate_is_c_times_shift_weight(self, data):
        # On F(x, xi) = c'x + d + xi every term but the shifted coordinate
        # cancels, so each estimate is c * 2 sqrt(2V) / sqrt(2 pi) exactly,
        # up to the rounding of the cancelled terms.
        n = data.draw(st.integers(1, 10), label="n")
        value = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
        c, x = (data.draw(hnp.arrays(float, n, elements=value), label=k) for k in "cx")
        d = data.draw(value, label="d")
        eta = data.draw(st.floats(0.05, 2.0), label="eta")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        oracle = StochasticOracle(
            eval=lambda points, xi: np.vecdot(points, c) + d + xi,
            noise_sampler=lambda stream, size: stream.generator.uniform(-1.0, 1.0, size),
        )

        def check(estimate, root_2v, z):
            # allowance for the rounding of the cancelled terms
            scale = float(np.abs(c) @ (np.abs(x) + np.abs(z) + eta * root_2v))
            atol = 1e-14 * n * (scale + abs(d) + 1.0) / eta
            expected = c * 2.0 * root_2v / SQRT_2PI
            np.testing.assert_allclose(estimate, expected, rtol=1e-12, atol=atol)

        sample = esgs_estimate(oracle, x, eta, RandomStream(seed))
        root_2v, z_unit, _ = sample.draws
        check(sample.estimate, root_2v, eta * z_unit)

        # the driver's row kernel, fed from the block draws
        stream = RandomStream(seed)
        root_2v, z_unit = shift_draws(oracle, stream, 1, n)
        xi = oracle.noise_sampler(stream, 1)
        rows = esgs_rows(oracle, x[None, :], eta, (root_2v, z_unit, xi))
        check(rows[0], root_2v[0], eta * z_unit[0])

    def test_shift_weight_has_mean_one(self):
        # E[2 sqrt(2V) / sqrt(2 pi)] = 1 for V ~ Exp(1); with the identity
        # above this makes the estimator unbiased on linear functions.
        count = 100_000
        root_2v, _ = shift_draws(None, RandomStream(2024), count, 1)
        weight = 2.0 * root_2v / SQRT_2PI
        stderr = weight.std(ddof=1) / math.sqrt(count)
        assert abs(weight.mean() - 1.0) < 4.0 * stderr


class TestGs:
    def test_constant_function_gives_zero(self):
        sample = gs_estimate(constant_oracle(), np.zeros(3), ETA, RandomStream(0))
        np.testing.assert_array_equal(sample.estimate, np.zeros(3))
        assert sample.oracle_calls == 2

    def test_hand_computed_with_pinned_direction(self):
        gen = ScriptedGenerator(normals=[np.array([1.0, 1.0])])
        sample = gs_estimate(
            linear_oracle([1.0, 0.0]), np.zeros(2), ETA, ScriptedStream(gen)
        )
        np.testing.assert_allclose(sample.estimate, [1.0, 1.0], rtol=1e-12)

    def test_unbiased_for_linear(self):
        c = np.array([1.0, -2.0])
        mean, se = mc_mean(gs_estimate, linear_oracle(c), [0.0, 0.0], ETA, 100_000, 8)
        np.testing.assert_array_less(np.abs(mean - c), 3.0 * se)

    def test_second_moment_between_linear_and_worst_case(self):
        # E||g||^2 on F = L0*x_1 in dimension n sits between L0^2 n and
        # the worst-case L0^2 (n+4)^2.
        n, l0 = 100, 2.0
        probe = second_moment_probe(
            gs_estimate,
            linear_oracle([l0] + [0.0] * (n - 1)),
            np.zeros(n),
            ETA,
            100_000,
            RandomStream(9),
        )
        assert l0**2 * n < probe < l0**2 * (n + 4) ** 2


class TestSpherical:
    def test_constant_function_gives_zero(self):
        sample = spherical_estimate(constant_oracle(), np.zeros(2), ETA, RandomStream(0))
        np.testing.assert_array_equal(sample.estimate, np.zeros(2))
        assert sample.oracle_calls == 2

    def test_one_dimensional_hand_value(self):
        gen = ScriptedGenerator(normals=[np.array([0.7])])  # normalizes to u = +1
        sample = spherical_estimate(
            linear_oracle([1.0]), np.zeros(1), 0.1, ScriptedStream(gen)
        )
        np.testing.assert_allclose(sample.estimate, [1.0], rtol=1e-12)

    def test_zero_draw_is_redrawn_from_the_next_draws(self):
        # a zero row has no direction: the zero rows alone are redrawn, in
        # order, until none is zero
        gen = ScriptedGenerator(
            normals=[
                [[3.0, 4.0], [0.0, 0.0], [0.0, -2.0], [0.0, 0.0]],
                [[0.0, 0.0], [1.0, 1.0]],
                [[-5.0, 12.0]],
            ]
        )
        (directions, _) = spherical_estimate.draw(
            linear_oracle([1.0, 0.0]), ScriptedStream(gen), 4, 2
        )
        z = np.array([[3.0, 4.0], [-5.0, 12.0], [0.0, -2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(directions, z / np.sqrt(np.vecdot(z, z))[:, None])
        assert gen._normals == []

    def test_unbiased_for_linear(self):
        c = np.array([1.0, -2.0])
        mean, se = mc_mean(
            spherical_estimate, linear_oracle(c), [0.1, -0.3], ETA, 100_000, 10
        )
        np.testing.assert_array_less(np.abs(mean - c), 3.0 * se)


class TestSpsa:
    def test_constant_function_gives_zero(self):
        sample = spsa_estimate(constant_oracle(), np.zeros(2), ETA, RandomStream(0))
        np.testing.assert_array_equal(sample.estimate, np.zeros(2))
        assert sample.oracle_calls == 2

    def test_hand_computed_rademacher(self):
        # ints [1, 0] map to direction (+1, -1); c = (3, 5) gives (-2, 2)
        gen = ScriptedGenerator(ints=[np.array([1, 0])])
        sample = spsa_estimate(
            linear_oracle([3.0, 5.0]), np.zeros(2), ETA, ScriptedStream(gen)
        )
        np.testing.assert_allclose(sample.estimate, [-2.0, 2.0], rtol=1e-12)

    def test_unbiased_for_linear(self):
        c = np.array([1.0, -2.0])
        mean, se = mc_mean(spsa_estimate, linear_oracle(c), [0.0, 0.4], ETA, 100_000, 11)
        np.testing.assert_array_less(np.abs(mean - c), 3.0 * se)


class TestSecondMomentProbe:
    def test_constant_is_zero(self):
        probe = second_moment_probe(
            esgs_estimate, constant_oracle(), np.zeros(4), ETA, 100, RandomStream(0)
        )
        assert probe == 0.0

    def test_esgs_single_active_coordinate_bound(self):
        # only coordinate 1 contributes: E[(2 L0 sqrt(2V)/sqrt(2pi))^2] = 4 L0^2 / pi
        l0, n, count = 2.0, 5, 50_000
        stream = RandomStream(13)
        oracle = linear_oracle([l0] + [0.0] * (n - 1))
        values = np.array(
            [
                float(np.sum(esgs_estimate(oracle, np.zeros(n), ETA, stream).estimate ** 2))
                for _ in range(count)
            ]
        )
        se = values.std(ddof=1) / math.sqrt(count)
        assert values.mean() <= 4.0 * l0**2 / math.pi + 3.0 * se

    def test_esgs_dimension_bound_on_lipschitz_function(self):
        n, l0 = 50, 1.0
        oracle = StochasticOracle(
            eval=lambda x, xi: np.abs(x).sum(axis=-1) / math.sqrt(n),
            noise_sampler=lambda stream, size: np.zeros(size),
        )
        # away from the kinks: at x = 0 every estimate of this even function is 0
        x = np.linspace(-0.5, 0.5, n)
        probe = second_moment_probe(esgs_estimate, oracle, x, ETA, 20_000, RandomStream(14))
        assert probe <= 4.0 / math.pi * l0**2 * n * 1.1

    def test_dimension_scaling_contrast(self):
        # normalized l1 norm: esgs probe stays O(1); gs probe grows ~ n^2
        dims = [10, 50, 200]
        gs_over_n = []
        for n in dims:
            oracle = StochasticOracle(
                eval=lambda x, xi, n=n: np.abs(x).sum(axis=-1) / math.sqrt(n),
                noise_sampler=lambda stream, size: np.zeros(size),
            )
            # esgs is probed away from the kinks, where its estimates are not all 0
            p_es = second_moment_probe(
                esgs_estimate, oracle, np.linspace(-0.5, 0.5, n), ETA, 4000,
                RandomStream(15, n),
            )
            p_gs = second_moment_probe(
                gs_estimate, oracle, np.zeros(n), ETA, 4000, RandomStream(16, n)
            )
            assert p_es / n <= 4.0 / math.pi * 1.1
            assert p_gs / n**2 <= 2.0  # bounded after n^2 normalization
            gs_over_n.append(p_gs / n)
        assert gs_over_n[0] < gs_over_n[1] < gs_over_n[2]

    def test_gs_vs_esgs_ratio_on_linear(self):
        n = 200
        oracle = linear_oracle([1.0] + [0.0] * (n - 1))
        p_es = second_moment_probe(
            esgs_estimate, oracle, np.zeros(n), ETA, 10_000, RandomStream(17)
        )
        p_gs = second_moment_probe(
            gs_estimate, oracle, np.zeros(n), ETA, 10_000, RandomStream(18)
        )
        assert p_gs / p_es > 10.0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["esgs", "gs", "spherical", "spsa"])
    def test_oracle_calls_across_a_block_boundary(self, kind, offset):
        n = 1024
        count = PROBE_BLOCK_VALUES // n + offset
        oracle, counter = wrap_counting(linear_oracle(np.arange(n) / n))
        second_moment_probe(
            KINDS[kind].estimator, oracle, np.zeros(n), ETA, count, RandomStream(4)
        )
        assert counter["calls"] == count * (2 * n if kind == "esgs" else 2)

    def test_custom_estimator_is_a_batch_estimator(self):
        def doubled(oracle, x, params, stream):
            g = spherical_estimate(oracle, x, params, stream)
            return GradientSample(2.0 * g.estimate, g.draws, g.oracle_calls)

        n, count = 1024, 200  # several probe blocks
        oracle = linear_oracle(np.linspace(-1.0, 1.0, n))
        probe = lambda estimator: second_moment_probe(
            estimator, oracle, np.zeros(n), ETA, count, RandomStream(19)
        )
        with pytest.raises(TypeError, match="doubled"):
            probe(doubled)
        # the same estimator as a kernel on the spherical kind's draws
        spherical = KINDS["spherical"].estimator

        def doubled_rows(oracle, x, eta, draws):
            return 2.0 * spherical.estimate(oracle, x, eta, draws)

        assert probe(BatchEstimator("doubled", spherical.draw, doubled_rows, False)) == (
            4.0 * probe(spherical)
        )

    def test_non_finite_sample_names_kind_and_first_sample(self):
        # F = x_1 is infinite where |x_1| >= 0.75; gs at x = 0 evaluates
        # eta*Z, so the first bad sample is the first |Z_1| >= 2.5 of the
        # probe's one block of draws (the noise block draws nothing)
        oracle = StochasticOracle(
            eval=lambda x, xi: np.where(np.abs(x[..., 0]) < 0.75, x[..., 0], np.inf),
            noise_sampler=lambda stream, size: np.zeros(size),
        )
        count = 1000
        z = RandomStream(21).generator.standard_normal((count, 2))
        first = int(np.flatnonzero(np.abs(z[:, 0]) >= 2.5)[0])
        assert first > 0
        with pytest.raises(NonFiniteError, match=rf"'gs'.*non-finite.*sample {first} "):
            second_moment_probe(gs_estimate, oracle, np.zeros(2), ETA, count, RandomStream(21))
        with np.errstate(invalid="ignore"), pytest.raises(
            NonFiniteError, match=r"'esgs'.*non-finite.*sample 0 "
        ):
            second_moment_probe(
                esgs_estimate, inf_oracle(), np.zeros(3), ETA, count, RandomStream(21)
            )

    @pytest.mark.parametrize("kind", ["esgs", "gs", "spherical", "spsa"])
    def test_dimension_zero_is_a_value_error(self, kind):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            second_moment_probe(
                ESTIMATORS[kind], constant_oracle(), np.zeros(0), ETA, 10, RandomStream(0)
            )

    @pytest.mark.parametrize("x", [np.float64(0.0), np.zeros((2, 3))], ids=["0-d", "2-d"])
    def test_x_that_is_not_one_point_is_a_value_error(self, x):
        with pytest.raises(ValueError, match=re.escape(f"got shape {x.shape}")):
            second_moment_probe(esgs_estimate, constant_oracle(), x, ETA, 10, RandomStream(0))


class TestSmoothingRadius:
    """Every entry point that takes eta, and run for each eta_k, rejects
    eta <= 0 and NaN with one message."""

    @pytest.mark.parametrize("eta", [0.0, -0.3, math.nan])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_bad_eta_is_one_value_error(self, kind, eta):
        entry = KINDS[kind]
        if entry.oracle_field == "oracle":
            oracle = linear_oracle([1.0, 2.0])
        else:
            oracle = getattr(market_problem(), entry.oracle_field)
        x = np.zeros(2)
        message = re.escape(f"smoothing radius eta must be > 0, got {eta}")
        stream = RandomStream(0)
        with pytest.raises(ValueError, match=message):
            entry.estimator(oracle, x, eta, stream)
        # rejected before anything is drawn
        assert stream.generator.random() == RandomStream(0).generator.random()
        with pytest.raises(ValueError, match=message):
            second_moment_probe(entry.estimator, oracle, x, eta, 10, RandomStream(0))
        with pytest.raises(ValueError, match="requires eta_scale > 0"):
            Schedule(kind="custom", alpha=0.5, beta=0.5, eta_scale=eta)
        # run checks each eta_k too; set past the schedule's own check, the
        # bad scale reaches that guard at k = 0
        schedule = Schedule(kind="custom", alpha=0.5, beta=0.5)
        object.__setattr__(schedule, "eta_scale", eta)
        with pytest.raises(ValueError, match=message):
            run(
                oracle, entry.estimator, schedule, 1, FeasibleSet.symmetric_box(1.0, 2),
                x, [RandomStream(0)],
            )

    def test_run_rejects_an_eta_k_that_underflows(self):
        # a valid schedule whose (k+1)**-beta is 0.0 from k = 1 on
        schedule = Schedule(kind="custom", alpha=0.5, beta=1100.0)
        assert schedule_values(schedule, 1)[1] == 0.0
        with pytest.raises(ValueError, match="smoothing radius eta must be > 0, got 0.0"):
            run(
                linear_oracle([1.0, 2.0]), esgs_estimate, schedule, 2,
                FeasibleSet.symmetric_box(1.0, 2), np.zeros(2), [RandomStream(0)],
            )


class TestOracleCallAccounting:
    @pytest.mark.parametrize(
        "estimator",
        [esgs_estimate, gs_estimate, spherical_estimate, spsa_estimate],
        ids=["esgs_estimate", "gs_estimate", "spherical_estimate", "spsa_estimate"],
    )
    def test_reported_calls_match_invocations(self, estimator):
        oracle, counter = wrap_counting(linear_oracle([1.0, 2.0, 3.0]))
        sample = estimator(oracle, np.zeros(3), ETA, RandomStream(3))
        assert sample.oracle_calls == counter["calls"]
        assert sample.oracle_calls == (6 if estimator is esgs_estimate else 2)


def inf_oracle():
    return StochasticOracle(
        eval=lambda x, xi: np.full(x.shape[:-1], np.inf),
        noise_sampler=lambda stream, size: np.zeros(size),
    )


class TestOracleContract:
    """``eval`` must return one value per point of the array it is given."""

    @pytest.mark.parametrize(
        "evaluate",
        [lambda x, xi: float(np.sum(x)), lambda x, xi: np.sum(x**2)],
        ids=["python_float", "numpy_scalar"],
    )
    @pytest.mark.parametrize("kind", ["esgs", "gs", "spherical", "spsa"])
    def test_one_value_for_many_points_is_a_value_error(self, kind, evaluate):
        oracle = StochasticOracle(
            eval=evaluate,
            noise_sampler=lambda stream, size: np.zeros(size),
        )
        with pytest.raises(ValueError, match=r"eval\(points, xi\) must broadcast"):
            ESTIMATORS[kind](oracle, np.zeros(3), ETA, RandomStream(0))

    def test_per_row_eval_axis_is_a_value_error(self):
        n = 3
        oracle = StochasticOracle(
            eval=lambda x, xi: x[..., 0],
            noise_sampler=lambda stream, size: np.zeros(size),
            # the values of the first row only
            eval_axis=lambda base, moved, xi: moved[0],
        )
        with pytest.raises(ValueError, match="every row at once"):
            esgs_estimate(oracle, np.zeros(n), ETA, RandomStream(0))


def eval_only(oracle):
    """``oracle`` without its ``eval_axis``, so esgs takes the generic path."""
    return StochasticOracle(
        eval=oracle.eval,
        noise_sampler=oracle.noise_sampler,
    )


@lru_cache(maxsize=None)
def quad_oracle(n):
    return quad_l1_problem(n, 3).oracle


class TestEvalPathEquivalence:
    """The esgs kernel's two ways of reaching the 2n replacement points."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_generic_path_equals_one_point_per_call(self, data):
        # the chunked eval calls give each point the bits of an eval call on
        # that point alone; small chunks split rows and cross row boundaries
        n = data.draw(st.sampled_from([1, 2, 3, 7, 12, 100]), label="n")
        rows = data.draw(st.integers(1, 5), label="rows")
        chunk = data.draw(st.sampled_from([1, 5, 64, EVAL_CHUNK_VALUES]), label="chunk")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        oracle = eval_only(quad_oracle(n))
        stream = RandomStream(seed)
        x = stream.generator.uniform(-1.0, 1.0, (rows, n))
        draws = tuple(
            np.concatenate(parts)
            for parts in zip(*(KINDS["esgs"].estimator.draw(oracle, stream, 1, n) for _ in x))
        )
        with patch.object(estimators, "EVAL_CHUNK_VALUES", chunk):
            g = esgs_rows(oracle, x, 0.3, draws)
        root_2v, z_unit, xi = draws
        expected = np.empty((rows, n))
        for r in range(rows):
            base = x[r] - 0.3 * z_unit[r]
            shift = 0.3 * root_2v[r]
            for i in range(n):
                plus, minus = base.copy(), base.copy()
                plus[i] = x[r, i] + shift
                minus[i] = x[r, i] - shift
                diff = oracle.eval(plus, xi[r]) - oracle.eval(minus, xi[r])
                expected[r, i] = diff / (0.3 * SQRT_2PI)
        assert np.array_equal(g, expected)

    def test_generic_and_axis_paths_agree(self):
        # eval_axis updates F(base) by O(n) terms per point, so the two paths
        # differ in rounding only
        oracle = quad_oracle(12)
        x = quad_l1_problem(12, 3).x0
        g_axis = esgs_estimate(oracle, x, ETA, RandomStream(77)).estimate
        g_eval = esgs_estimate(eval_only(oracle), x, ETA, RandomStream(77)).estimate
        np.testing.assert_allclose(g_axis, g_eval, rtol=1e-10, atol=1e-12)


class TestEvalCallPlan:
    """The generic esgs path's eval calls: their points, shapes, order and noise."""

    @pytest.mark.parametrize(
        "n, rows, chunk, plan",
        [
            # the default chunk at n = 200: 81 points per call, 2n = 400 per row
            (200, 3, EVAL_CHUNK_VALUES, ([(1, 81, 200)] * 4 + [(1, 76, 200)]) * 3),
            # 3 points per call, 2n = 10 per row, so each row ends on a short call
            (5, 3, 15, ([(1, 3, 5)] * 3 + [(1, 1, 5)]) * 3),
            # whole rows, two per call, the last call one row
            (2, 5, 20, [(2, 4, 2), (2, 4, 2), (1, 4, 2)]),
        ],
        ids=["n200-default", "short-last-chunk", "whole-rows"],
    )
    def test_calls_follow_the_plan(self, n, rows, chunk, plan):
        calls = []

        def evaluate(points, xi):
            calls.append((points.copy(), np.array(xi, copy=True), points.flags.writeable))
            return quad_oracle(n).eval(points, xi)

        oracle = StochasticOracle(eval=evaluate, noise_sampler=quad_oracle(n).noise_sampler)
        stream = RandomStream(n + rows)
        x = stream.generator.uniform(-1.0, 1.0, (rows, n))
        draws = KINDS["esgs"].estimator.draw(oracle, stream, rows, n)
        with patch.object(estimators, "EVAL_CHUNK_VALUES", chunk):
            esgs_rows(oracle, x, 0.3, draws)
        assert [points.shape for points, _, _ in calls] == plan
        root_2v, z_unit, xi = draws
        base = x - 0.3 * z_unit
        moved = x[:, None] + (0.3 * root_2v)[:, None, None] * np.array([[1.0], [-1.0]])
        moved = moved.reshape(rows, 2 * n)
        r0 = j0 = 0
        for points, call_xi, writeable in calls:
            k, m, _ = points.shape
            r = slice(r0, r0 + k)
            want = fancy_index_replacement_points(base[r], moved[r, j0 : j0 + m], j0)
            assert np.array_equal(points, want)
            assert np.array_equal(call_xi, xi[r, None])
            # a split row's calls share its copy, so eval may not write it
            assert writeable == (m == 2 * n)
            j0 += m
            if j0 == 2 * n:
                r0, j0 = r0 + k, 0
        assert (r0, j0) == (rows, 0)

    def test_eval_that_writes_split_rows_is_a_value_error(self):
        def evaluate(points, xi):
            points -= 1.0
            return points[..., 0]

        oracle = StochasticOracle(eval=evaluate, noise_sampler=quad_oracle(200).noise_sampler)
        with pytest.raises(ValueError, match=r"eval wrote into its read-only points of shape"):
            esgs_estimate(oracle, np.zeros(200), 0.3, RandomStream(0))

    def test_eval_that_writes_whole_rows_keeps_later_points(self):
        # whole rows are copied into the buffer again before every call
        def writes(points, xi):
            points -= 1.0
            return points[..., 0]

        def reads(points, xi):
            return points[..., 0] - 1.0

        # two whole rows per call at n = 2, so 5 rows take 3 calls
        draws = KINDS["esgs"].estimator.draw(quad_oracle(2), RandomStream(0), 5, 2)
        x = np.arange(10.0).reshape(5, 2)
        estimates = []
        with patch.object(estimators, "EVAL_CHUNK_VALUES", 20):
            for evaluate in (writes, reads):
                oracle = StochasticOracle(eval=evaluate, noise_sampler=quad_oracle(2).noise_sampler)
                estimates.append(esgs_rows(oracle, x, 0.3, draws))
        assert np.array_equal(*estimates)


def fancy_index_replacement_points(base, moved, first):
    """Reference: the replaced coordinates written by one fancy-index
    assignment into a broadcast copy of ``base``."""
    rows, m = moved.shape
    n = base.shape[1]
    points = np.empty((rows, m, n))
    points[:] = base[:, None]
    j = np.arange(m)
    points.reshape(rows, -1)[:, j * n + (first + j) % n] = moved
    return points


class TestReplacementPoints:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        rows=st.integers(1, 6),
        m=st.integers(1, 12),
        n=st.integers(1, 9),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fancy_index_assignment(self, rows, m, n, strided, seed):
        gen = np.random.default_rng(seed)
        base = gen.standard_normal((rows, n))
        moved = gen.standard_normal((rows, m + 2))
        # the generic esgs path passes column slices of its moved values
        moved = moved[:, 1 : m + 1] if strided else moved[:, :m].copy()
        points = replacement_points(base, moved)
        assert points.shape == (rows, m, n)
        assert np.array_equal(points, fancy_index_replacement_points(base, moved, 0))


class TestRowKernels:
    """Each batched row kernel at R = 1 reproduces its single-sample function."""

    @pytest.mark.parametrize("kind", ["esgs", "gs", "spherical", "spsa"])
    def test_kernel_matches_single_sample(self, kind):
        problem = quad_l1_problem(6, 4)
        oracle, n, eta = problem.oracle, problem.n, 0.3
        x = np.linspace(-0.4, 0.5, n)
        for seed in range(5):
            sample = ESTIMATORS[kind](oracle, x, eta, RandomStream(seed))
            # replay the single-sample draws, then the oracle's noise draw
            stream = RandomStream(seed)
            gen = stream.generator
            if kind == "esgs":
                v = -np.log1p(-gen.random())
                draws = (np.array([np.sqrt(2.0 * v)]), gen.standard_normal(n)[None])
            elif kind == "spsa":
                draws = ((2.0 * gen.integers(0, 2, size=n).astype(float) - 1.0)[None],)
            else:
                z = gen.standard_normal(n)
                draws = ((z / np.linalg.norm(z) if kind == "spherical" else z)[None],)
            draws += (oracle.noise_sampler(stream, 1),)
            g = KINDS[kind].estimator.estimate(oracle, x[None], eta, draws)
            np.testing.assert_array_equal(g[0], sample.estimate)

    @pytest.mark.parametrize("kind", ["esgs_dd_known", "esgs_dd_unknown"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        x=hnp.arrays(float, 2, elements=st.floats(-10.0, 10.0)),
        eta=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decision_dependent_kernel_matches_single_sample(self, kind, x, eta, seed):
        problem = market_problem()
        oracle = getattr(problem, KINDS[kind].oracle_field)
        sample = KINDS[kind].estimator(oracle, x, eta, RandomStream(seed))
        reference = per_point_estimate(kind, oracle, x, eta, RandomStream(seed))
        if kind == "esgs_dd_known":
            # numpy's elementwise math may round arrays of different lengths
            # differently in the last bit
            np.testing.assert_allclose(sample.estimate, reference, rtol=1e-14, atol=0)
        else:
            np.testing.assert_array_equal(sample.estimate, reference)
        assert sample.oracle_calls == 2 * x.shape[0]


def per_point_estimate(kind, oracle, x, eta, stream):
    """A decision-dependent estimate evaluated one point per oracle call.

    Replays the kind's draws from ``stream``: the known-density leg's ``xi``,
    then ``(V, Z)``, then the random field's noise block.  The field maps
    each coordinate's point pair alone, and each replacement point goes to
    the oracle alone.
    """
    gen = stream.generator
    n = x.shape[0]
    if kind == "esgs_dd_known":
        # components of shape (1,), as the kernel's are, so that numpy rounds
        # the density's power and exp as it does there
        xi = oracle.ref_sampler(stream, 1)
    shift = eta * np.sqrt(2.0 * -np.log1p(-gen.random()))
    base = x - eta * gen.standard_normal(n)
    if kind == "esgs_dd_unknown":
        (noise,) = oracle.noise_sampler(stream, 1)
    f_plus, f_minus = np.empty(n), np.empty(n)
    for i in range(n):
        plus, minus = base.copy(), base.copy()
        plus[i] = x[i] + shift
        minus[i] = x[i] - shift
        if kind == "esgs_dd_known":
            (f_plus[i],) = oracle.weighted_value(plus, xi)
            (f_minus[i],) = oracle.weighted_value(minus, xi)
        else:
            xi_plus, xi_minus = oracle.field_sampler(plus, minus, noise[i])
            f_plus[i] = oracle.f_hat(plus, xi_plus)
            f_minus[i] = oracle.f_hat(minus, xi_minus)
    return (f_plus - f_minus) / (eta * SQRT_2PI)
