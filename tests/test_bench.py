import copy
import csv
import inspect
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zosmooth import bench, cli, optimizer
from zosmooth.bench import (
    KINDS,
    BenchConfig,
    ConfigError,
    budget_iterations,
    emit_aggregate_csv,
    emit_csv,
    run_benchmark,
    run_dd_benchmark,
    run_problem,
    emit_trajectory,
)
from zosmooth.cli import main as cli_main
from zosmooth.decision import RatioBoundError, ValueBoundError
from zosmooth.estimators import StochasticOracle
from zosmooth.optimizer import SCHEDULE_KINDS, NonFiniteError, Schedule, run, weighted_average
from zosmooth.projections import FeasibleSet
from zosmooth.problems import PROBLEM_BUILDERS, market_problem, quad_l1_problem, error_metric
from zosmooth.rng import RandomStream

from recorder import Recorder


def small_config_raw(**overrides):
    raw = {
        "problem": "quad_l1",
        "problem_params": {"n": 2, "seed": 3},
        "estimators": ["esgs", "gs"],
        "iterations": 1,
        "replications": 1,
        "base_seed": 7,
    }
    raw.update(overrides)
    return raw


def small_config(**overrides):
    return BenchConfig.from_dict(small_config_raw(**overrides))


@lru_cache(maxsize=None)
def independence_problem(oracle_field):
    """The market for the decision-dependent kinds, else quad_l1 at n = 3."""
    return market_problem() if oracle_field != "oracle" else quad_l1_problem(3, 2)


INT_N = r"problem_params\['n'\] must be a JSON int, got 2.0"


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            BenchConfig.from_dict(
                {
                    "problem": "quad_l1",
                    "estimators": ["esgs"],
                    "iterations": 1,
                    "replications": 1,
                    "base_seed": 0,
                    "typo_key": 1,
                }
            )

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing config key"):
            BenchConfig.from_dict({"problem": "quad_l1"})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            small_config(estimators=["esgs", "newton"])

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            small_config(problem="rosenbrock")

    def test_unknown_schedule_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown schedule keys"):
            small_config(schedule={"kind": "custom", "alpha": 0.5, "beta": 0.5, "lr": 1})

    def test_per_estimator_iterations(self):
        config = small_config(iterations={"esgs": 5, "gs": 3})
        assert config.iterations == {"esgs": 5, "gs": 3}
        with pytest.raises(ConfigError, match="missing"):
            small_config(iterations={"esgs": 5})
        with pytest.raises(ConfigError, match=r"iterations\['gs'\] must be >= 0, got -1"):
            small_config(iterations={"esgs": 5, "gs": -1})
        with pytest.raises(
            ConfigError, match=r"iterations given for estimators not in the run: \['spsa'\]"
        ):
            small_config(iterations={"esgs": 5, "gs": 3, "spsa": 1})

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError, match="replications must be >= 1"):
            small_config(replications=0)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"n": 2, "seeed": 3}, r"unknown problem_params for 'quad_l1': \['seeed'\]"),
            ({"n": 2}, "missing a required argument: 'seed'"),
        ],
    )
    def test_problem_params_bound_to_the_builder(self, params, message):
        with pytest.raises(ConfigError, match=message):
            small_config(problem_params=params)

    def test_non_numeric_schedule_value_rejected(self):
        with pytest.raises(ConfigError, match="schedule 'alpha' must be a JSON number"):
            small_config(schedule={"kind": "custom", "alpha": "x", "beta": 0.5})

    def test_wrong_type_problem_param_rejected_at_build(self):
        # the names bind, and the builder's signature declares n an int, so
        # the config rejects the value before any build
        with pytest.raises(
            ConfigError, match=r"problem_params\['n'\] must be a JSON number, got 'x'"
        ):
            small_config(problem_params={"n": "x", "seed": 1})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"record_trajectories": "false"}, "record_trajectories must be a JSON bool"),
            ({"record_trajectories": 1}, "record_trajectories must be a JSON bool"),
            ({"replications": 2.9}, "replications must be a JSON int, got 2.9"),
            ({"replications": True}, "replications must be a JSON int, got True"),
            ({"base_seed": "7"}, "base_seed must be a JSON int"),
            ({"base_seed": False}, "base_seed must be a JSON int"),
            ({"iterations": {"esgs": "7", "gs": 1}}, r"iterations\['esgs'\] must be a JSON int"),
            ({"iterations": {"esgs": 7, "gs": 1.0}}, r"iterations\['gs'\] must be a JSON int"),
            ({"iterations": True}, "iterations must be an int or a per-estimator mapping"),
            ({"output": 5}, "output must be a JSON str, got 5"),
            ({"estimators": "esgs"}, "estimators must be a JSON array of strings, got 'esgs'"),
            ({"estimators": ["esgs", 1]}, "estimators must be a JSON array of strings"),
            (
                {"problem_params": {"n": 2, "seed": True}},
                r"problem_params\['seed'\] must be a JSON number, got True",
            ),
            (
                {"problem": "market", "problem_params": {"a": True}},
                r"problem_params\['a'\] must be a JSON number, got True",
            ),
            ({"problem_params": [2, 3]}, "problem_params must be a JSON object"),
            ({"schedule": "custom"}, "schedule must be a JSON object"),
            # a field the builder or Schedule declares an int takes no float
            ({"problem_params": {"n": 2.0, "seed": 3}}, INT_N),
            ({"problem": "piecewise_linear", "problem_params": {"n": 2.0}}, INT_N),
            ({"problem": "nonconvex_min", "problem_params": {"n": 2.0}}, INT_N),
            (
                {"problem_params": {"n": 2, "seed": 1.5}},
                r"problem_params\['seed'\] must be a JSON int, got 1.5",
            ),
            (
                {"schedule": {"kind": "convex_diminishing", "n": 2.5}},
                "schedule 'n' must be a JSON int, got 2.5",
            ),
            (
                {"schedule": {"kind": "convex_constant", "n": 2, "horizon": 10.0,
                              "radius_scale": 1.0, "l0": 1.0}},
                "schedule 'horizon' must be a JSON int, got 10.0",
            ),
        ],
    )
    def test_json_types_are_not_coerced(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            small_config(**overrides)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                '"problem": "piecewise_linear", "problem_params": {"n": 3, "mu": %s}',
                r"problem_params\['mu'\] must be a finite JSON number, got ",
            ),
            (
                '"problem": "quad_l1", "problem_params": {"n": 2, "seed": 1}, '
                '"schedule": {"kind": "custom", "alpha": %s, "beta": 0.5}',
                "schedule 'alpha' must be a finite JSON number, got ",
            ),
        ],
        ids=["problem_params", "schedule"],
    )
    def test_non_finite_number_rejected(self, tmp_path, raw, message, number):
        # Python's json reads NaN and the infinities, which builders and
        # schedules would carry to a failure far from the key
        path = tmp_path / "config.json"
        path.write_text(
            '{' + raw % number + ', "estimators": ["esgs"], "iterations": 1, '
            '"replications": 1, "base_seed": 1}'
        )
        value = repr(float(number))
        with pytest.raises(ConfigError, match=message + value + "$"):
            BenchConfig.from_json(path)

    def test_duplicate_estimator_rejected(self):
        with pytest.raises(ConfigError, match="listed twice"):
            small_config(estimators=["esgs", "esgs"])

    def test_json_parse_error_has_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": }')
        with pytest.raises(ConfigError, match="line 1"):
            BenchConfig.from_json(path)


class TestBudget:
    def test_equal_budget_rule(self):
        assert budget_iterations("esgs", 200, 50) == 200
        assert budget_iterations("gs", 200, 50) == 10_000
        assert budget_iterations("spherical", 200, 50) == 10_000
        assert budget_iterations("spsa", 200, 50) == 10_000

    def test_minimal_run_consumes_equal_calls(self):
        rows = run_benchmark(small_config()).rows
        calls = {row.estimator: row.oracle_calls for row in rows}
        assert calls == {"esgs": 4, "gs": 4}

    @pytest.mark.parametrize(
        "kind", [k for k in KINDS if KINDS[k].oracle_field == "oracle"]
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        n=st.integers(1, 30),
        iterations=st.integers(1, 50),
        replications=st.integers(1, 4),
    )
    def test_calls_are_per_estimate_cost_times_iterations(
        self, kind, n, iterations, replications
    ):
        # a cheap oracle: the count must not depend on what F computes
        oracle = StochasticOracle(
            eval=lambda x, xi: np.vecdot(x, x),
            noise_sampler=lambda stream, size: np.zeros(size),
        )
        per_estimate = 2 * n if KINDS[kind].estimator.per_coordinate else 2
        steps = budget_iterations(kind, iterations, n)
        rec = Recorder()
        trajectories = run(
            oracle,
            KINDS[kind].estimator,
            Schedule(kind="custom", alpha=0.5, beta=0.5),
            steps,
            FeasibleSet.symmetric_box(1.0, n),
            np.zeros(n),
            [RandomStream(5, substream_id=r) for r in range(replications)],
            observe=rec,
        )
        assert list(rec.calls.values()) == [per_estimate * k for k in range(steps + 1)]
        for trajectory in trajectories:
            # every kind spends the same 2nK calls at its budget iterations
            assert trajectory.oracle_calls == 2 * n * iterations

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        n=st.integers(1, 8),
        iterations=st.integers(1, 4),
        kinds=st.lists(
            st.sampled_from([k for k in KINDS if KINDS[k].oracle_field == "oracle"]),
            min_size=1, unique=True,
        ),
    )
    def test_every_kind_gets_the_same_budget(self, n, iterations, kinds):
        for kind, entry in KINDS.items():
            per_estimate = 2 * n if entry.estimator.per_coordinate else 2
            assert budget_iterations(kind, iterations, n) * per_estimate == 2 * n * iterations
        rows = run_benchmark(
            small_config(
                problem_params={"n": n, "seed": 3}, estimators=kinds,
                iterations=iterations, replications=2,
            )
        ).rows
        assert sorted(row.estimator for row in rows) == sorted(kinds * 2)
        assert all(row.oracle_calls == 2 * n * iterations for row in rows)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_points_evaluated_are_the_counted_calls(self, kind):
        # every point the oracle evaluates, through eval or eval_axis,
        # counted: a K-iteration run of R rows evaluates K * R * oracle_calls(n)
        entry = KINDS[kind]
        problem = independence_problem(entry.oracle_field)
        oracle = getattr(problem, entry.oracle_field)
        oracles = [oracle]
        if entry.oracle_field == "oracle":
            oracles.append(replace(oracle, eval_axis=None))  # esgs's chunked eval path
        iterations, replications, n = 7, 3, problem.n
        for base in oracles:
            counted, points = copy.copy(base), [0]
            if getattr(base, "eval", None) is not None:
                def eval_(x, xi, inner=base.eval):
                    points[0] += math.prod(x.shape[:-1])
                    return inner(x, xi)
                counted.eval = eval_
            if base.eval_axis is not None:
                def eval_axis(rows, moved, xi, inner=base.eval_axis):
                    points[0] += moved.size
                    return inner(rows, moved, xi)
                counted.eval_axis = eval_axis
            trajectories = run(
                counted, entry.estimator, problem.default_schedule, iterations,
                problem.feasible, problem.x0,
                [RandomStream(8, substream_id=r) for r in range(replications)],
            )
            cost = entry.estimator.oracle_calls(n)
            assert points[0] == iterations * replications * cost
            assert all(t.oracle_calls == iterations * cost for t in trajectories)


class TestCheckedBeforeAnyRun:
    """A config that would fail on one of its kinds fails before any kind
    runs: ``bench.run`` is never called."""

    @pytest.fixture
    def runs(self, monkeypatch):
        seen = []

        def spy(oracle, estimator, *args, **kwargs):
            seen.append(estimator.name)
            return run(oracle, estimator, *args, **kwargs)

        monkeypatch.setattr(bench, "run", spy)
        return seen

    def test_unequal_budgets(self, runs):
        # quad_l1 at n = 2: esgs spends 2 * 4 calls, gs 1 * 2 * 2
        with pytest.raises(
            bench.BudgetMismatchError,
            match=r"budget mismatch on problem 'quad_l1': esgs 8, gs 4 oracle calls",
        ):
            run_benchmark(small_config(iterations={"esgs": 2, "gs": 1}))
        assert runs == []
        run_benchmark(small_config(iterations={"esgs": 2, "gs": 2}))
        assert runs == ["esgs", "gs"]

    @pytest.mark.parametrize("runner", [run_benchmark, run_dd_benchmark])
    def test_kind_without_an_oracle(self, runs, runner):
        config = small_config(
            problem="market", problem_params={},
            estimators=["esgs_dd_known", "esgs"], iterations=3,
        )
        with pytest.raises(
            ConfigError, match="problem market has no decision-independent oracle"
        ):
            runner(config)
        assert runs == []

    def test_unknown_kind(self, runs):
        problem = quad_l1_problem(2, 1)
        with pytest.raises(ConfigError, match="unknown estimator kind 'newton'"):
            bench.run_problem(problem, "newton", problem.default_schedule, 1, [RandomStream(0)])
        assert runs == []


class TestDeterminismAndOrdering:
    def test_rerun_identical_modulo_wall_time(self):
        config = small_config(iterations=20, replications=3)
        rows_a = run_benchmark(config).rows
        rows_b = run_benchmark(config).rows
        strip = lambda row: (row.problem, row.n, row.estimator, row.replication,
                             row.metrics["error"], row.oracle_calls, row.seed)
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_replication_independent_of_its_batch(self, kind):
        # enough iterations to cross a block of draws (1024 at these n)
        if KINDS[kind].oracle_field != "oracle":
            problem, iters = market_problem(), 1100
        else:
            problem = quad_l1_problem(3, 2)
            iters = budget_iterations(kind, 400, problem.n)
        config = small_config(replications=5)
        schedule = problem.default_schedule
        streams = [bench._replication_stream(config, kind, r) for r in range(5)]
        batch_rec = Recorder()
        batch = run_problem(problem, kind, schedule, iters, streams, observe=batch_rec)
        for r in range(5):
            alone_rec = Recorder()
            (alone,) = run_problem(
                problem, kind, schedule, iters, [bench._replication_stream(config, kind, r)],
                observe=alone_rec,
            )
            np.testing.assert_array_equal(batch[r].x, alone.x)
            assert bench._final_error(problem, batch[r]) == bench._final_error(
                problem, alone
            )
            # one row's calls before every iteration k, and its total
            assert batch_rec.calls == alone_rec.calls
            assert batch[r].oracle_calls == alone.oracle_calls

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(list(KINDS)), data=st.data())
    def test_replication_bits_do_not_depend_on_the_rows_beside_it(self, kind, data):
        # a few iterations, run as a batch of R rows and as any subset of
        # them, a single row included
        rows = data.draw(st.integers(1, 6), label="rows")
        subset = data.draw(
            st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows, unique=True),
            label="subset",
        )
        iterations = data.draw(st.integers(0, 12), label="iterations")
        config = small_config(base_seed=data.draw(st.integers(0, 2**32), label="seed"))
        problem = independence_problem(KINDS[kind].oracle_field)

        def go(replications):
            recorder = Recorder()
            streams = [bench._replication_stream(config, kind, r) for r in replications]
            return run_problem(
                problem, kind, problem.default_schedule, iterations, streams,
                observe=recorder,
            ), recorder

        (batch, batch_rec), (part, part_rec) = go(range(rows)), go(subset)
        for j, r in enumerate(subset):
            np.testing.assert_array_equal(part[j].x, batch[r].x)
            for k, x in part_rec.x.items():
                np.testing.assert_array_equal(x[j], batch_rec.x[k][r])
            assert part[j].oracle_calls == batch[r].oracle_calls
        # the calls before every iteration k
        assert part_rec.calls == batch_rec.calls

    def test_replication_permutation_leaves_aggregates_unchanged(self):
        config = small_config(iterations=20, replications=5)
        summary = run_benchmark(config)
        rng = np.random.default_rng(0)
        for kind in ("esgs", "gs"):
            group = [r.metrics["error"] for r in summary.rows if r.estimator == kind]
            permuted = list(rng.permutation(group))
            mean = summary.report[kind]["mean_error"]
            assert abs(sum(permuted) / len(permuted) - mean) < 1e-12


    def test_every_row_consumes_the_equal_budget(self):
        config = small_config(
            problem_params={"n": 3, "seed": 1},
            estimators=["esgs", "gs", "spherical", "spsa"],
            iterations=7,
            replications=3,
        )
        rows = run_benchmark(config).rows
        assert len(rows) == 12
        assert {row.oracle_calls for row in rows} == {2 * 3 * 7}

    def test_wall_time_is_batch_loop_time_per_replication(self, monkeypatch):
        # esgs's run takes 2 s and gs's 20 s on this clock; with two
        # replications each row reports half its kind's run time
        ticks = iter([0.0, 2.0, 10.0, 30.0])
        monkeypatch.setattr(
            bench, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        summary = run_benchmark(small_config(iterations=5, replications=2))
        assert {(r.estimator, r.wall_time_ms) for r in summary.rows} == {
            ("esgs", 1000),
            ("gs", 10000),
        }
        esgs, gs = summary.report["esgs"], summary.report["gs"]
        ratio = esgs["mean_wall_time_ms"] / gs["mean_wall_time_ms"]
        assert ratio == pytest.approx(0.1)

    def test_convex_error_is_the_error_of_the_weighted_average(self):
        config = small_config(
            problem="piecewise_linear", problem_params={"n": 3, "mu": 0.0},
            estimators=["esgs"], iterations=20, replications=2,
        )
        rows = run_benchmark(config).rows
        problem = bench.build_problem(config)
        assert problem.convexity == "convex"
        (alone,) = run_problem(
            problem, "esgs", problem.default_schedule, 20,
            [bench._replication_stream(config, "esgs", 0)],
        )
        assert rows[0].replication == 0
        assert rows[0].metrics["error"] == error_metric(problem, weighted_average(alone))
        # not the final iterate's error, which the other problems report
        assert rows[0].metrics["error"] != error_metric(problem, alone.x)


class TestSubstreams:
    def test_adding_a_kind_leaves_existing_streams_unchanged(self, monkeypatch):
        # a newcomer registered ahead of every kind and run first moves no
        # existing kind's rows
        def strip(rows):
            return [
                (r.estimator, r.replication, r.metrics["error"], r.oracle_calls)
                for r in rows
                if r.estimator != "newcomer"
            ]

        raw = small_config_raw(iterations=5, replications=3)
        before = run_benchmark(BenchConfig.from_dict(raw)).rows
        monkeypatch.setattr(bench, "KINDS", {"newcomer": KINDS["gs"], **KINDS})
        with_newcomer = {**raw, "estimators": ["newcomer"] + raw["estimators"]}
        after = run_benchmark(BenchConfig.from_dict(with_newcomer)).rows
        assert [r.estimator for r in after[:3]] == ["newcomer"] * 3
        assert strip(after) == strip(before)

    def test_kind_keys_distinct(self):
        assert len({bench.kind_key(kind) for kind in KINDS}) == len(KINDS)

    def test_no_collision_at_large_replication_index(self):
        config = small_config()
        draws = {
            (kind, r): tuple(bench._replication_stream(config, kind, r).generator.random(2))
            for kind in KINDS
            for r in (0, 1, 1_000_003, 1_000_004, 2_000_006)
        }
        assert len(set(draws.values())) == len(draws)


class TestCsvOutput:
    HEADERS = {
        "results": "problem,n,estimator,replication,error,wall_time_ms,oracle_calls,seed",
        "aggregate": "problem,n,estimator,replications,mean_error,stddev_error,"
                     "mean_wall_time_ms,stddev_wall_time_ms,oracle_calls",
        "trajectory": "k,error,oracle_calls",
        "dd_results": "mode,replication,final_x1,dist_to_optimum,dist_to_stable,"
                      "wall_time_ms,oracle_calls,seed",
        "moments": "estimator,n,l0,samples,second_moment,bound_linear_n",
    }

    @pytest.mark.parametrize("table", HEADERS)
    def test_empty_rows_header_only(self, tmp_path, monkeypatch, table):
        path = tmp_path / f"{table}.csv"
        if table == "results":
            emit_csv([], path)
        elif table == "aggregate":
            emit_aggregate_csv([], path)
        elif table == "trajectory":
            # a run that never reached the observer leaves the header alone
            with emit_trajectory(path, quad_l1_problem(2, 3), 4, 0):
                pass
        elif table == "dd_results":
            bench.emit_dd_csv([], path)
        else:
            # with no decision-independent kind registered, moments probes nothing
            dd_only = {k: v for k, v in KINDS.items() if v.oracle_field != "oracle"}
            monkeypatch.setattr(bench, "KINDS", dd_only)
            args = ["moments", "--dims", "2", "--samples", "1", "--out", str(tmp_path)]
            assert cli_main(args) == 0
        assert path.read_text() == self.HEADERS[table] + "\n"

    def test_round_trip(self, tmp_path):
        rows = run_benchmark(small_config(iterations=5, replications=2)).rows
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        with path.open() as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            assert rec["problem"] == row.problem
            assert int(rec["n"]) == row.n
            assert rec["estimator"] == row.estimator
            assert int(rec["replication"]) == row.replication
            assert float(rec["error"]) == row.metrics["error"]
            assert int(rec["oracle_calls"]) == row.oracle_calls
            assert int(rec["seed"]) == row.seed
        assert path.read_text().endswith("\n")

    def test_aggregate_matches_manual_recomputation(self, tmp_path):
        rows = run_benchmark(small_config(iterations=10, replications=4)).rows
        path = tmp_path / "agg.csv"
        emit_aggregate_csv(rows, path)
        with path.open() as fh:
            parsed = {rec["estimator"]: rec for rec in csv.DictReader(fh)}
        for kind in ("esgs", "gs"):
            errors = np.array([r.metrics["error"] for r in rows if r.estimator == kind])
            assert abs(float(parsed[kind]["mean_error"]) - errors.mean()) < 1e-12
            assert abs(float(parsed[kind]["stddev_error"]) - errors.std(ddof=0)) < 1e-12
            assert int(parsed[kind]["replications"]) == 4

    def test_trajectory_dump(self, tmp_path):
        problem = quad_l1_problem(2, 3)
        schedule = problem.default_schedule
        path = tmp_path / "traj.csv"
        cost = KINDS["esgs"].estimator.oracle_calls(problem.n)
        with emit_trajectory(path, problem, cost, 1) as observe:
            run_problem(problem, "esgs", schedule, 1, [RandomStream(5)], observe=observe)
        with path.open() as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2  # k = 0, 1
        assert float(parsed[0]["error"]) == pytest.approx(
            error_metric(problem, problem.x0)
        )
        calls = [int(rec["oracle_calls"]) for rec in parsed]
        assert calls == sorted(calls)
        assert calls[0] == 0 and calls[-1] == 4


class TestRecordedRun:
    @staticmethod
    def recorded_raw(iterations, **overrides):
        return small_config_raw(
            estimators=["esgs"], iterations=iterations, record_trajectories=True,
            **overrides,
        )

    def test_memory_does_not_grow_with_iterations(self, tmp_path):
        go = lambda iterations: run_benchmark(BenchConfig.from_dict(
            self.recorded_raw(iterations, output=str(tmp_path))
        ))
        go(2_000)
        peaks = {}
        for iterations in (2_000, 20_000):
            tracemalloc.start()
            try:
                go(iterations)
                peaks[iterations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the bound of the unrecorded run's test: keeping replication 0's
        # iterate at n = 2 would grow by 288 000 bytes over these 18 000
        assert peaks[20_000] - peaks[2_000] <= 6_553

    def test_rows_stream_across_chunks(self, tmp_path):
        iterations = 2_500
        raw = self.recorded_raw(iterations)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        with (out / "trajectory_esgs.csv").open() as fh:
            dump = list(csv.DictReader(fh))
        with (out / "results.csv").open() as fh:
            (result,) = csv.DictReader(fh)
        assert [int(rec["k"]) for rec in dump] == list(range(iterations + 1))
        assert dump[-1]["error"] == result["error"]
        # the rows on either side of each chunk edge, against the per-point
        # error of the same iterates
        chunk = bench.CHUNK
        edges = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, iterations]
        problem = quad_l1_problem(2, 3)
        rec = Recorder(at=edges)
        run_problem(
            problem, "esgs", problem.default_schedule, iterations,
            [bench._replication_stream(BenchConfig.from_dict(raw), "esgs", 0)], observe=rec,
        )
        for k in edges:
            expected = error_metric(problem, rec.x[k][0])
            assert float(dump[k]["error"]) == pytest.approx(expected, rel=1e-12, abs=0)


class TestHeadToHeadSmall:
    def test_esgs_beats_gs_on_small_quadratic(self):
        config = BenchConfig.from_dict(
            {
                "problem": "quad_l1",
                "problem_params": {"n": 10, "seed": 11},
                "estimators": ["esgs", "gs"],
                "iterations": 200,
                "replications": 20,
                "base_seed": 123,
            }
        )
        summary = run_benchmark(config)
        assert summary.report["esgs"]["mean_error"] < summary.report["gs"]["mean_error"]


class TestDDBenchmark:
    def test_zero_iterations_measures_start(self):
        config = BenchConfig.from_dict(
            {
                "problem": "market",
                "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
                "iterations": 0,
                "replications": 1,
                "base_seed": 5,
            }
        )
        rows = run_dd_benchmark(config).rows
        problem_star = np.array([4.5 / 1.4, 2.7 / 0.8])
        for row in rows:
            assert row.metrics["dist_to_optimum"] == pytest.approx(
                float(np.linalg.norm(problem_star))
            )
            assert row.oracle_calls == 0

    def test_beta_zero_targets_coincide(self):
        config = BenchConfig.from_dict(
            {
                "problem": "market",
                "problem_params": {"beta": 0.0},
                "estimators": ["esgs_dd_unknown"],
                "iterations": 500,
                "replications": 2,
                "base_seed": 5,
            }
        )
        rows = run_dd_benchmark(config).rows
        for row in rows:
            assert row.metrics["dist_to_optimum"] == row.metrics["dist_to_stable"]

    def test_requires_dd_oracle(self):
        config = small_config(estimators=["esgs_dd_known"])
        with pytest.raises(ConfigError, match="known-density"):
            run_benchmark(config)


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_compare_subcommand(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {
                "problem": "quad_l1",
                "problem_params": {"n": 3, "seed": 1},
                "estimators": ["esgs", "gs"],
                "iterations": 10,
                "replications": 2,
                "base_seed": 9,
            },
        )
        out = tmp_path / "out"
        code = cli_main(["compare", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "aggregate.csv").exists()

    def test_compare_writes_recorded_trajectories(self, tmp_path):
        config = self.write_config(
            tmp_path,
            {
                "problem": "quad_l1",
                "problem_params": {"n": 3, "seed": 1},
                "estimators": ["esgs", "gs"],
                "iterations": 4,
                "replications": 2,
                "base_seed": 9,
                "record_trajectories": True,
            },
        )
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "aggregate.csv").exists()
        # K_kind at the equal budget: 4 for esgs, 4n = 12 for gs
        for kind, iterations in (("esgs", 4), ("gs", 12)):
            with (out / f"trajectory_{kind}.csv").open() as fh:
                dump = list(csv.DictReader(fh))
            assert [int(rec["k"]) for rec in dump] == list(range(iterations + 1))

    def test_run_subcommand_with_trajectories(self, tmp_path):
        config = self.write_config(
            tmp_path,
            {
                "problem": "nonconvex_min",
                "problem_params": {"n": 3},
                "estimators": ["esgs"],
                "schedule": {"kind": "nonconvex_asymptotic", "alpha": 0.9, "beta": 0.3},
                "iterations": 10,
                "replications": 1,
                "base_seed": 2,
                "record_trajectories": True,
            },
        )
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "trajectory_esgs.csv").exists()

    def test_dd_subcommand_small(self, tmp_path):
        config = self.write_config(
            tmp_path,
            {
                "problem": "market",
                "estimators": ["esgs_dd_unknown"],
                "iterations": 50,
                "replications": 2,
                "base_seed": 3,
            },
        )
        out = tmp_path / "out"
        code = cli_main(["dd", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "dd_results.csv").exists()

    def test_dd_without_config_runs_the_shipped_market_config(self, monkeypatch, tmp_path):
        class Stop(Exception):
            pass

        seen = []

        def runner(config):
            seen.append(config)
            raise Stop  # the real run takes about 14 s

        monkeypatch.setattr(bench, "run_dd_benchmark", runner)
        out = tmp_path / "out"
        with pytest.raises(Stop):
            cli_main(["dd", "--seed", "5", "--out", str(out)])
        shipped = BenchConfig.from_json(CONFIG_DIR / "market_dd.json")
        assert seen == [replace(shipped, base_seed=5, output=str(out))]

    @pytest.mark.parametrize("c_xi", [-2.0, 0.001])
    def test_market_field_below_beta_squared_is_one_line_before_any_run(
        self, tmp_path, monkeypatch, capsys, c_xi
    ):
        runs = []
        monkeypatch.setattr(bench, "run", lambda *args, **kwargs: runs.append(args))
        raw = {"problem": "market", "problem_params": {"c_xi": c_xi},
               "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
               "iterations": 100_000_000, "replications": 2, "base_seed": 1}
        config = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["dd", "--config", str(config), "--out", str(out)]) == 1
        assert runs == [] and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"c_xi={c_xi}" in err[0]

    def test_market_whose_ratio_bound_overflows_is_one_line(self, tmp_path, capsys):
        raw = {"problem": "market", "estimators": ["esgs_dd_known"],
               "iterations": 3, "replications": 1, "base_seed": 1}
        for sigma2, status in ((0.01, 0), (0.001, 1)):
            raw["problem_params"] = {"sigma2": sigma2}
            config = self.write_config(tmp_path, raw)
            out = tmp_path / f"out_{sigma2}"
            assert cli_main(["dd", "--config", str(config), "--out", str(out)]) == status
        assert (tmp_path / "out_0.01" / "dd_results.csv").exists()
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "sigma2=0.001" in err[0]

    def test_dd_writes_recorded_trajectories(self, tmp_path):
        raw = {
            "problem": "market",
            "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
            "iterations": {"esgs_dd_known": 30, "esgs_dd_unknown": 20},
            "replications": 2,
            "base_seed": 3,
            "record_trajectories": True,
        }
        config = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert cli_main(["dd", "--config", str(config), "--out", str(out)]) == 0
        problem = market_problem()
        n, start = problem.n, problem.exact_f(problem.x0) - problem.f_star
        bench_config = BenchConfig.from_dict(raw)
        for kind, iterations in raw["iterations"].items():
            with (out / f"trajectory_{kind}.csv").open() as fh:
                dump = list(csv.DictReader(fh))
            assert [int(rec["k"]) for rec in dump] == list(range(iterations + 1))
            assert [int(rec["oracle_calls"]) for rec in dump] == [
                2 * n * k for k in range(iterations + 1)
            ]
            assert float(dump[0]["error"]) == start
            # replication 0 alone ends where it ends in its batch
            (alone,) = run_problem(
                problem, kind, problem.default_schedule, iterations,
                [bench._replication_stream(bench_config, kind, 0)],
            )
            assert dump[-1]["error"] == repr(float(error_metric(problem, alone.x)))

    @pytest.mark.parametrize(
        "command, table",
        [
            ("moments", "moments.csv"),
            ("run", "results.csv"),
            ("compare", "results.csv"),
            ("dd", "dd_results.csv"),
        ],
    )
    def test_unwritable_table_is_one_line(self, tmp_path, capsys, command, table):
        out = tmp_path / "out"
        (out / table).mkdir(parents=True)
        args = [command, "--out", str(out)]
        if command == "moments":
            args += ["--dims", "2", "--samples", "5"]
        else:
            raw = small_config_raw()
            if command == "dd":
                market = {"problem": "market", "problem_params": {}}
                raw.update(market, estimators=["esgs_dd_unknown"])
            args += ["--config", str(self.write_config(tmp_path, raw))]
        assert cli_main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write CSV to {out / table}: ")

    def test_moments_subcommand(self, tmp_path):
        out = tmp_path / "out"
        code = cli_main(
            ["moments", "--dims", "4,8", "--samples", "500", "--out", str(out),
             "--seed", "1"]
        )
        assert code == 0
        with (out / "moments.csv").open() as fh:
            parsed = list(csv.DictReader(fh))
        assert {rec["estimator"] for rec in parsed} == {"esgs", "gs", "spherical", "spsa"}

    def test_moments_seed_zero_is_not_seed_seven(self, tmp_path):
        texts = {}
        for seed in ("0", "7"):
            out = tmp_path / seed
            args = ["moments", "--dims", "3", "--samples", "50", "--out", str(out)]
            assert cli_main(args + ["--seed", seed]) == 0
            texts[seed] = (out / "moments.csv").read_text()
        assert texts["0"] != texts["7"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--dims", "0"],
            ["--dims", "4,0"],
            ["--samples", "0"],
            ["--dims", "10,0", "--samples", "10"],
            ["--dims", "abc"],
            ["--dims", "10", "--samples", "-3"],
            ["--seed", "-1"],
            # a repeated dimension would write each of its probes twice
            ["--dims", "3,3"],
        ],
    )
    def test_moments_errors_are_one_line(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert cli_main(["moments", "--out", str(out), *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # checked before any output: no partial moments.csv is left behind
        assert not out.exists()

    def test_moments_rejects_config(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["moments", "--config", str(tmp_path / "c.json")])
        assert exc.value.code == 2

    def test_run_builds_problem_once_and_dumps_replication_zero(
        self, tmp_path, monkeypatch
    ):
        config = self.write_config(
            tmp_path,
            {
                "problem": "nonconvex_min",
                "problem_params": {"n": 3},
                "estimators": ["esgs", "gs"],
                "iterations": 10,
                "replications": 3,
                "base_seed": 2,
                "record_trajectories": True,
            },
        )
        builds = []
        build = bench.build_problem
        monkeypatch.setattr(
            bench, "build_problem", lambda cfg: builds.append(cfg) or build(cfg)
        )
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert len(builds) == 1
        with (out / "results.csv").open() as fh:
            errors = {
                rec["estimator"]: float(rec["error"])
                for rec in csv.DictReader(fh)
                if rec["replication"] == "0"
            }
        for kind in ("esgs", "gs"):
            with (out / f"trajectory_{kind}.csv").open() as fh:
                last = list(csv.DictReader(fh))[-1]
            assert float(last["error"]) == errors[kind]

    def test_quad_dump_matches_results_and_leaves_them_unchanged(self, tmp_path):
        raw = {
            "problem": "quad_l1",
            "problem_params": {"n": 12, "seed": 5},
            "estimators": ["esgs", "gs"],
            "iterations": 30,
            "replications": 3,
            "base_seed": 4,
        }
        results = {}
        for record in (True, False):
            config = self.write_config(
                tmp_path, {**raw, "record_trajectories": record}
            )
            out = tmp_path / str(record)
            assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
            with (out / "results.csv").open() as fh:
                results[record] = list(csv.DictReader(fh))
        # the dump does not change results.csv, wall times aside
        for rows in results.values():
            for row in rows:
                del row["wall_time_ms"]
        assert results[True] == results[False]
        problem = quad_l1_problem(12, 5)
        start = problem.exact_f(problem.x0) - problem.f_star
        for kind in ("esgs", "gs"):
            with (tmp_path / "True" / f"trajectory_{kind}.csv").open() as fh:
                dump = list(csv.DictReader(fh))
            (error,) = (
                rec["error"]
                for rec in results[True]
                if rec["estimator"] == kind and rec["replication"] == "0"
            )
            # the last row is the per-point error that results.csv reports
            assert dump[-1]["error"] == error
            assert float(dump[0]["error"]) == pytest.approx(start, rel=1e-12)

    @staticmethod
    def moments_oracle_with(monkeypatch, evaluate):
        """Make ``zosmooth-bench moments`` probe an oracle with ``evaluate``."""
        make = cli.StochasticOracle
        monkeypatch.setattr(
            cli, "StochasticOracle", lambda **fields: make(**{**fields, "eval": evaluate})
        )

    @pytest.mark.parametrize(
        "evaluate",
        [lambda x, xi: float(np.sum(x)), lambda x, xi: np.sum(x**2)],
        ids=["python_float", "numpy_scalar"],
    )
    def test_moments_non_broadcasting_oracle_is_one_line(
        self, tmp_path, monkeypatch, capsys, evaluate
    ):
        self.moments_oracle_with(monkeypatch, evaluate)
        out = tmp_path / "out"
        args = ["moments", "--dims", "3", "--samples", "20", "--out", str(out)]
        assert cli_main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "must broadcast" in err[0]

    def test_moments_non_finite_probe_exit_code(self, tmp_path, monkeypatch, capsys):
        self.moments_oracle_with(monkeypatch, lambda x, xi: np.full(x.shape[:-1], np.inf))
        out = tmp_path / "out"
        args = ["moments", "--dims", "3", "--samples", "20", "--out", str(out)]
        assert cli_main(args) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'esgs'" in err[0] and "sample 0 " in err[0]
        assert not (out / "moments.csv").exists()

    @pytest.mark.parametrize(
        "error, code",
        [
            (RatioBoundError("density ratio 9 exceeds bound 2"), 3),
            (ValueBoundError("|f_hat| = 9 exceeds bound 2"), 3),
            (NonFiniteError("estimator 'esgs' produced a non-finite iterate"), 4),
            (ValueError("schedule kind 'custom' overflows a float at k=1"), 1),
            (bench.BudgetMismatchError("oracle budget mismatch"), 6),
            (MemoryError("Unable to allocate 21.3 PiB for an array"), 1),
        ],
    )
    def test_library_errors_map_to_exit_codes(
        self, tmp_path, monkeypatch, capsys, error, code
    ):
        def fail(config):
            raise error

        monkeypatch.setattr(bench, "run_benchmark", fail)
        config = self.write_config(tmp_path, small_config_raw())
        assert cli_main(["compare", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert err == f"error: {error}\n"

    def test_commands_call_the_bench_names_in_place(self, tmp_path, monkeypatch, capsys):
        # perfbench/child.py replaces these names before it calls main, so
        # each command must look them up then, not when cli was imported
        calls = []

        def runner(name):
            def run(config):
                calls.append((name, config.problem, config.base_seed))
                means = {"mean_error": 0.0, "mean_wall_time_ms": 0.0}
                return bench.BenchSummary([], dict.fromkeys(config.estimators, means), [])
            return run

        def emitter(name):
            return lambda rows, path: calls.append((name, Path(path).name))

        for name in ("run_benchmark", "run_dd_benchmark"):
            monkeypatch.setattr(bench, name, runner(name))
        for name in ("emit_csv", "emit_aggregate_csv", "emit_dd_csv"):
            monkeypatch.setattr(bench, name, emitter(name))
        config = str(self.write_config(tmp_path, small_config_raw()))
        expected = {
            "run": [("run_benchmark", "quad_l1", 5), ("emit_csv", "results.csv")],
            "compare": [("run_benchmark", "quad_l1", 5), ("emit_csv", "results.csv"),
                        ("emit_aggregate_csv", "aggregate.csv")],
            # without --config, dd runs its default config at the --seed given
            "dd": [("run_dd_benchmark", "market", 5), ("emit_dd_csv", "dd_results.csv")],
        }
        for command, want in expected.items():
            calls.clear()
            args = [command, "--seed", "5", "--out", str(tmp_path / command)]
            if command != "dd":
                args += ["--config", config]
            assert cli_main(args) == 0
            assert calls == want
        assert capsys.readouterr().err == ""

    def test_budget_mismatch_exit_code(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, small_config_raw(iterations={"esgs": 2, "gs": 1})
        )
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", str(config), "--out", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: oracle budget mismatch")

    def test_non_finite_iterate_exit_code(self, tmp_path, capsys):
        # a finite 1e308 step overflows in numpy, whose warning would print
        # lines before the error line; an infinite one is a config error
        for gamma_scale, code in ((float("inf"), 1), (1e308, 4)):
            raw = small_config_raw(
                schedule={"kind": "custom", "alpha": 0.5, "beta": 0.5,
                          "gamma_scale": gamma_scale}
            )
            config = self.write_config(tmp_path, raw)
            out = tmp_path / "out"
            assert cli_main(["run", "--config", str(config), "--out", str(out)]) == code
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            if code == 1:
                assert "schedule 'gamma_scale' must be a finite JSON number, got inf" in err[0]
            else:
                assert "'esgs'" in err[0] and "iteration k=0" in err[0]

    def test_recorded_non_finite_run_leaves_no_trajectory(self, tmp_path, capsys):
        raw = small_config_raw(
            schedule={"kind": "custom", "alpha": 0.5, "beta": 0.5, "gamma_scale": 1e308},
            record_trajectories=True,
        )
        config = self.write_config(tmp_path, raw)
        # the run makes both directories, and removes both
        out = tmp_path / "made" / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "made").exists()
        # a directory that was there before the run stays, without the table
        out = tmp_path / "kept"
        out.mkdir()
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.is_dir() and not list(out.iterdir())

    def test_sigterm_removes_a_recorded_run_and_its_directory(self, tmp_path):
        # a recorded run far too long to end, stopped once its table exists
        raw = small_config_raw(estimators=["esgs"], iterations=10**9, record_trajectories=True)
        config = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "zosmooth.cli", "run", "--config", str(config),
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not (out / "trajectory_esgs.csv").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert proc.returncode == 143 and err == ""
        assert not out.exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"problem": "quad_l1"})
        code = cli_main(["run", "--config", str(config)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem_params": {"n": 2, "seeed": 3}},
            {"problem_params": {"n": 2}},
            {"schedule": {"kind": "custom", "alpha": "x", "beta": 0.5}},
            {"estimators": ["esgs", "esgs"]},
            {"problem_params": {"n": "x", "seed": 1}},
            {"record_trajectories": "false"},
            {"replications": 2.9},
            {"replications": True},
            {"iterations": {"esgs": "7", "gs": 1}},
            {"base_seed": 1.5},
            {"output": 5},
            {"estimators": "esgs"},
            {"schedule": {"kind": "strongly_convex", "theta": 3, "mu": 0}},
            {"schedule": {"kind": "convex_constant", "n": 2, "horizon": 0,
                          "radius_scale": 1.0, "l0": 1.0}},
            {"schedule": {"kind": "nonconvex_fixed_eta", "eta_fixed": 0.1, "l0": 0, "n": 2}},
            {"schedule": {"theta": 3, "mu": 1}},
            {"schedule": {"kind": "custom", "alpha": 0.5, "beta": 0.5, "gamma_scale": -1.0}},
            {"schedule": {"kind": "convex_constant", "n": 2, "horizon": 10,
                          "radius_scale": -1.0, "l0": 1.0}},
            {"base_seed": -1},
            {"iterations": {"esgs": 3, "gs": -1}},
            {"iterations": -1},
            {"estimators": []},
            {"problem_params": {"n": 2, "seed": True}},
            {"problem": "piecewise_linear", "problem_params": {"n": 3, "mu": math.nan}},
            {"problem_params": {"n": 2, "seed": 1, "l1_weight": math.inf}},
            {"schedule": {"kind": "custom", "alpha": math.nan, "beta": 0.5}},
            {"schedule": {"kind": "custom", "alpha": 0.5, "beta": 0.5, "eta_scale": -1.0},
             "record_trajectories": True},
            {"schedule": {"kind": "nonconvex_asymptotic", "alpha": 0.9, "beta": 0.3,
                          "gamma_scale": 1e-9}},
            {"problem_params": [2, 3]},
            {"schedule": "custom"},
            {"iterations": {"esgs": 1, "gs": 1, "spsa": 1}},
            {"replications": 0},
            {"problem_params": {"n": 2.0, "seed": 3}},
            {"problem": "piecewise_linear", "problem_params": {"n": 2.0}},
            {"problem": "nonconvex_min", "problem_params": {"n": 2.0}},
            {"problem_params": {"n": 2, "seed": 1.5}},
            {"schedule": {"kind": "convex_diminishing", "n": 2.5}},
            {"schedule": {"kind": "convex_constant", "n": 2, "horizon": 10.0,
                          "radius_scale": 1.0, "l0": 1.0}},
        ],
    )
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_config_errors_are_one_line(self, tmp_path, capsys, command, overrides):
        config = self.write_config(tmp_path, small_config_raw(**overrides))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_missing_config_is_one_line(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli_main([command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: this subcommand requires --config <path>\n"
        assert not out.exists()

    def test_top_level_array_is_one_line(self, tmp_path, capsys):
        config = self.write_config(tmp_path, [small_config_raw()])
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {config}: top-level config must be a JSON object"]
        assert not out.exists()

    def test_seed_overrides_the_config_base_seed(self, tmp_path):
        # every perfbench round passes --seed with --config
        config = self.write_config(tmp_path, small_config_raw(replications=2, iterations=3))
        assert cli_main(["run", "--config", str(config), "--seed", "5",
                         "--out", str(tmp_path / "seeded")]) == 0
        config = self.write_config(
            tmp_path, small_config_raw(replications=2, iterations=3, base_seed=5)
        )
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "base")]) == 0
        tables = []
        for name in ("seeded", "base"):
            with (tmp_path / name / "results.csv").open() as fh:
                tables.append([{**row, "wall_time_ms": None} for row in csv.DictReader(fh)])
        assert len(tables[0]) == 4 and {row["seed"] for row in tables[0]} == {"5"}
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_zero_iterations_on_a_convex_problem_names_key_and_problem(
        self, tmp_path, capsys, command
    ):
        # the convex error is that of the gamma-weighted average, which needs
        # a step; strongly convex and nonconvex problems measure the start
        raw = small_config_raw(
            problem="piecewise_linear", problem_params={"n": 2},
            iterations={"esgs": 2, "gs": 0},
        )
        out = tmp_path / "out"
        config = self.write_config(tmp_path, raw)
        assert cli_main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: iterations['gs']")
        assert "'piecewise_linear'" in err[0]
        assert not out.exists()
        for problem, params in (("piecewise_linear", {"n": 2, "mu": 0.5}),
                                ("nonconvex_min", {"n": 2})):
            raw.update(problem=problem, problem_params=params, iterations=0)
            config = self.write_config(tmp_path, raw)
            assert cli_main([command, "--config", str(config), "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["moments", "run", "compare", "dd"])
    def test_negative_seed_names_its_source(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = [command, "--seed", "-1", "--out", str(out)]
        if command in ("run", "compare"):
            args += ["--config", str(self.write_config(tmp_path, small_config_raw()))]
        assert cli_main(args) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()
        config = self.write_config(tmp_path, small_config_raw(base_seed=-1))
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: base_seed must be >= 0, got -1\n"

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("ZOSMOOTH_OUT", str(env_dir))
        config = self.write_config(
            tmp_path,
            {
                "problem": "quad_l1",
                "problem_params": {"n": 2, "seed": 1},
                "estimators": ["esgs"],
                "iterations": 2,
                "replications": 1,
                "base_seed": 4,
            },
        )
        assert cli_main(["run", "--config", str(config)]) == 0
        assert (env_dir / "results.csv").exists()


# Values the config property test draws from: signed zeros, a tiny and the
# largest magnitudes, negatives and a few ordinary numbers.  Sizes stay
# small, so that no config allocates more than a few MB.
FUZZ_VALUES = (0, -0.0, 1e-300, 1e308, -1e308, -1.0, 0.3, 0.9, 1, 2, 10.0)
FUZZ_SIZES = (1, 2, 3, -1, 0, 2.0, 0.5)
DOCUMENTED_STATUSES = {0, 1, 3, 4, 6}


def _mostly(likely, other):
    """Three draws in four from ``likely``, else from ``other``."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(likely if i < 3 else other))


@st.composite
def cli_configs(draw):
    """A command and a config over every problem, kind subset, schedule
    kind and parameter, with at most 20 iterations and 2 replications.
    Most configs are runnable, so that the runs meet the extreme values."""
    problem = draw(st.sampled_from(sorted(PROBLEM_BUILDERS)), label="problem")
    params = {}
    for name, parameter in inspect.signature(PROBLEM_BUILDERS[problem]).parameters.items():
        required = parameter.default is inspect.Parameter.empty
        if required or draw(st.integers(0, 2)) == 0:
            if name == "n":
                values = _mostly(FUZZ_SIZES[:3], FUZZ_SIZES)
            elif name == "seed":
                values = _mostly(FUZZ_SIZES[:3], FUZZ_VALUES)
            else:
                values = st.sampled_from(FUZZ_VALUES)
            params[name] = draw(values, label=name)
    decision_dependent = [k for k in sorted(KINDS) if KINDS[k].oracle_field != "oracle"]
    independent = [k for k in sorted(KINDS) if k not in decision_dependent]
    kinds = decision_dependent if problem == "market" else independent
    raw = {
        "problem": problem,
        "problem_params": params,
        "estimators": draw(st.lists(_mostly(kinds, sorted(KINDS)), min_size=1,
                                    max_size=3, unique=True), label="estimators"),
        "iterations": draw(st.sampled_from([20, 2, 1, 0]), label="iterations"),
        "replications": draw(st.sampled_from([1, 2]), label="replications"),
        "base_seed": 1,
        "record_trajectories": draw(st.booleans(), label="record"),
    }
    if draw(st.booleans()):
        kind = draw(st.sampled_from(SCHEDULE_KINDS), label="schedule kind")
        reads = optimizer._SCHEDULES[kind][0]
        schedule = {"kind": kind}
        for name in reads:
            schedule[name] = draw(st.sampled_from(FUZZ_VALUES), label=name)
        if draw(st.integers(0, 7)) == 0:
            unread = [f.name for f in fields(Schedule)[1:] if f.name not in reads]
            name = draw(st.sampled_from(unread), label="unread field")
            schedule[name] = draw(st.sampled_from(FUZZ_VALUES), label=name)
        raw["schedule"] = schedule
    command = "dd" if problem == "market" else "run"
    return draw(_mostly([command], ["run", "compare", "dd"]), label="command"), raw


class TestEveryConfig:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=cli_configs())
    # a market whose value bound and l0 are infinite, so that its checks are vacuous
    @example(case=("dd", {"problem": "market",
                          "problem_params": {"beta": 0.0, "box_half_width": 1e308},
                          "estimators": ["esgs_dd_known"], "iterations": 3,
                          "replications": 1, "base_seed": 1}))
    # a curvature beyond what the reference solve takes
    @example(case=("run", {"problem": "piecewise_linear",
                           "problem_params": {"n": 3, "mu": 1e50},
                           "estimators": ["esgs"], "iterations": 3,
                           "replications": 1, "base_seed": 1}))
    # a step size that overflows a float at k = 1
    @example(case=("run", {"problem": "nonconvex_min", "problem_params": {"n": 2},
                           "estimators": ["esgs"], "iterations": 3,
                           "replications": 1, "base_seed": 1,
                           "schedule": {"kind": "custom", "alpha": -1e308, "beta": 0.5}}))
    def test_runs_or_fails_in_one_line(self, case):
        # a nonzero status is a documented one, with one error line and no
        # output directory; a run that succeeds had finite declared bounds
        command, raw = case
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(raw))
            out = Path(tmp) / "out"
            stderr = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                status = cli_main([command, "--config", str(config), "--out", str(out)])
            err = stderr.getvalue().splitlines()
            assert status in DOCUMENTED_STATUSES
            if status != 0:
                assert len(err) == 1 and err[0].startswith("error: ")
                assert not out.exists()
                return
            assert err == []
            problem = bench.build_problem(BenchConfig.from_dict(raw))
            bounds = [problem.l0]
            if problem.dd_known is not None:
                known = problem.dd_known
                bounds += [known.ratio_bound_m, known.value_bound_mf, known.lip_f_hat]
            assert all(math.isfinite(bound) for bound in bounds)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_shipped_configs_parse():
    BenchConfig.from_json(CONFIG_DIR / "quad200.json")
    # the shipped market config is the one dd runs without --config
    assert BenchConfig.from_json(CONFIG_DIR / "market_dd.json") == BenchConfig.from_dict(
        cli.DEFAULT_DD_CONFIG
    )


NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import zosmooth, zosmooth.cli, zosmooth.bench
from zosmooth import bench, cli
out, *configs = sys.argv[1:]
for path in configs:
    bench.build_problem(bench.BenchConfig.from_json(path))
compare = {"problem": "quad_l1", "problem_params": {"n": 3, "seed": 1},
           "estimators": ["esgs", "gs", "spherical", "spsa"],
           "iterations": 5, "replications": 2, "base_seed": 1}
dd = {"problem": "market", "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
      "iterations": 5, "replications": 2, "base_seed": 1}
for name, config in (("compare", compare), ("dd", dd)):
    with open(f"{out}/{name}.json", "w") as handle:
        json.dump(config, handle)
for argv in (
    ["moments", "--dims", "3", "--samples", "50", "--out", f"{out}/moments"],
    ["compare", "--config", f"{out}/compare.json", "--out", f"{out}/compare"],
    ["dd", "--config", f"{out}/dd.json", "--out", f"{out}/dd"],
):
    assert cli.main(argv) == 0, argv
loaded = (m for m, module in sys.modules.items() if module is not None)
print(json.dumps(sorted(m for m in loaded if m.startswith("scipy"))))
"""


def test_import_and_build_load_no_scipy(tmp_path):
    # scipy is a test-only dependency; a fresh interpreter with scipy
    # blocked imports the package, builds the problems and runs each
    # subcommand.
    env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).resolve().parents[1]))
    configs = [str(CONFIG_DIR / "market_dd.json"), str(CONFIG_DIR / "quad200.json")]
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path), *configs],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
    for table in ("moments/moments.csv", "compare/aggregate.csv", "dd/dd_results.csv"):
        assert (tmp_path / table).is_file(), table
