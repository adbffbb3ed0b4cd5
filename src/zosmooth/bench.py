"""Benchmark harness: equal-budget comparisons, replications, CSV output.

Every estimator kind is one entry of :data:`KINDS`, the only kind
registry: its batched form, the
:class:`~zosmooth.problems.BenchmarkProblem` field holding its oracle, and
whether it spends ``2n`` or 2 oracle calls per estimate.  Config
validation, the budget rule, :func:`run_problem` and the ``moments`` CLI
read that entry, so a kind is added by adding one.

Estimator comparisons hold the oracle budget fixed: the coordinate-wise
exponential-shift estimators run ``K`` iterations at ``2n`` oracle calls
each, while every two-point baseline runs ``n*K`` iterations at 2 calls
each, so all methods consume exactly ``2nK`` noisy evaluations.

:func:`run_benchmark` (``results.csv``) and :func:`run_dd_benchmark`
(``dd_results.csv``) run on one runner: it runs all replications of each
kind as one batch (see :func:`zosmooth.optimizer.run`), with replication
``r`` of kind ``k`` drawing from the substream keyed ``(kind_key(k), r)``,
and turns each trajectory into a :class:`ResultRow` with the metric columns
its table chooses.  Every CSV table is written by :func:`write_table`.
"""

from __future__ import annotations

import inspect
import json
import os
import zlib
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

# esgs_dd_known and esgs_dd_unknown are the single-sample forms of the two
# decision-dependent kinds; perfbench/child.py instruments them by these names.
from .decision import KNOWN_DENSITY, RANDOM_FIELD, esgs_dd_known, esgs_dd_unknown  # noqa: F401
from .estimators import ESGS, GS, SPHERICAL, SPSA, BatchEstimator
from .optimizer import Observer, Schedule, Trajectory, run, weighted_average
from .problems import PROBLEM_BUILDERS, BenchmarkProblem, error_metric, error_metric_rows
from .rng import RandomStream


@dataclass(frozen=True)
class Kind:
    """An estimator kind: its batched form, the :class:`BenchmarkProblem`
    field its oracle lives in, and whether one estimate costs ``2n`` oracle
    calls (``per_coordinate``) or 2."""

    estimator: BatchEstimator
    oracle_field: str
    per_coordinate: bool


KINDS: dict[str, Kind] = {
    "esgs": Kind(ESGS, "oracle", per_coordinate=True),
    "gs": Kind(GS, "oracle", per_coordinate=False),
    "spherical": Kind(SPHERICAL, "oracle", per_coordinate=False),
    "spsa": Kind(SPSA, "oracle", per_coordinate=False),
    "esgs_dd_known": Kind(KNOWN_DENSITY, "dd_known", per_coordinate=True),
    "esgs_dd_unknown": Kind(RANDOM_FIELD, "dd_unknown", per_coordinate=True),
}

# How error messages name the oracle each problem field holds.
_ORACLE_NAMES = {
    "oracle": "decision-independent",
    "dd_known": "known-density",
    "dd_unknown": "random-field",
}


class ConfigError(ValueError):
    """Raised on malformed benchmark configuration."""


class BudgetMismatchError(RuntimeError):
    """Rows of one problem consumed different oracle budgets."""


@dataclass(frozen=True)
class BenchConfig:
    problem: str
    problem_params: dict
    estimators: tuple[str, ...]
    schedule: dict | None
    iterations: dict[str, int]
    replications: int
    base_seed: int
    output: str | None = None
    record_trajectories: bool = False

    @staticmethod
    def from_dict(raw: dict) -> "BenchConfig":
        unknown = set(raw) - {f.name for f in fields(BenchConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("problem", "estimators", "iterations", "replications", "base_seed"):
            if key not in raw:
                raise ConfigError(f"missing config key {key!r}")
        problem = raw["problem"]
        if problem not in PROBLEM_BUILDERS:
            raise ConfigError(
                f"unknown problem {problem!r}; choose from {sorted(PROBLEM_BUILDERS)}"
            )
        problem_params = raw.get("problem_params", {})
        if not isinstance(problem_params, dict):
            raise ConfigError("problem_params must be a JSON object")
        signature = inspect.signature(PROBLEM_BUILDERS[problem])
        unknown = set(problem_params) - set(signature.parameters)
        if unknown:
            raise ConfigError(f"unknown problem_params for {problem!r}: {sorted(unknown)}")
        try:
            signature.bind(**problem_params)
        except TypeError as exc:
            raise ConfigError(f"problem_params for {problem!r}: {exc}") from None
        estimators = raw["estimators"]
        if not isinstance(estimators, list) or any(type(k) is not str for k in estimators):
            raise ConfigError(
                f"estimators must be a JSON array of strings, got {estimators!r}"
            )
        if not estimators:
            raise ConfigError("estimators must name at least one estimator")
        estimators = tuple(estimators)
        for kind in estimators:
            if kind not in KINDS:
                raise ConfigError(
                    f"unknown estimator {kind!r}; choose from {sorted(KINDS)}"
                )
        if len(set(estimators)) < len(estimators):
            raise ConfigError(f"an estimator is listed twice in {list(estimators)}")
        schedule = raw.get("schedule")
        if schedule is not None:
            if not isinstance(schedule, dict):
                raise ConfigError("schedule must be a JSON object")
            unknown = set(schedule) - {f.name for f in fields(Schedule)}
            if unknown:
                raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
            if "kind" not in schedule:
                raise ConfigError("schedule needs a 'kind'")
            for key, value in schedule.items():
                if key != "kind" and type(value) not in (int, float):
                    raise ConfigError(f"schedule {key!r} must be a number, got {value!r}")
        iterations = raw["iterations"]
        if type(iterations) is int:
            iterations = {kind: iterations for kind in estimators}
        elif isinstance(iterations, dict):
            unknown = set(iterations) - set(estimators)
            if unknown:
                raise ConfigError(
                    f"iterations given for estimators not in the run: {sorted(unknown)}"
                )
            missing = set(estimators) - set(iterations)
            if missing:
                raise ConfigError(f"iterations missing for: {sorted(missing)}")
            iterations = {
                k: _typed(f"iterations[{k!r}]", v, int) for k, v in iterations.items()
            }
        else:
            raise ConfigError("iterations must be an int or a per-estimator mapping")
        for kind, count in iterations.items():
            if count < 0:
                raise ConfigError(f"iterations[{kind!r}] must be >= 0, got {count}")
        replications = _typed("replications", raw["replications"], int)
        if replications < 1:
            raise ConfigError("replications must be >= 1")
        base_seed = _typed("base_seed", raw["base_seed"], int)
        if base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {base_seed}")
        output = raw.get("output")
        if output is not None:
            output = _typed("output", output, str)
        return BenchConfig(
            problem=problem,
            problem_params=dict(problem_params),
            estimators=estimators,
            schedule=schedule,
            iterations=iterations,
            replications=replications,
            base_seed=base_seed,
            output=output,
            record_trajectories=_typed(
                "record_trajectories", raw.get("record_trajectories", False), bool
            ),
        )

    @staticmethod
    def from_json(path: str | Path) -> "BenchConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top-level config must be a JSON object")
        return BenchConfig.from_dict(raw)


def _typed(name: str, value, kind: type):
    """``value`` if its type is exactly ``kind`` (so ``true`` is no int)."""
    if type(value) is not kind:
        raise ConfigError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class ResultRow:
    """One replication of one kind; ``metrics`` holds its table's metric
    columns in order (:data:`RESULT_METRICS` or :data:`DD_METRICS`)."""

    problem: str
    n: int
    estimator: str
    replication: int
    metrics: dict[str, float]
    wall_time_ms: int
    oracle_calls: int
    seed: int


@dataclass(frozen=True)
class BenchSummary:
    """The rows, a per-kind report on them, and the problem they were run on.

    ``trajectories`` maps each kind to replication 0's iterates
    ``x_0 .. x_K`` as a ``(K+1, n)`` array and its cumulative oracle calls
    before each, when the config asks for trajectory recording.
    """

    rows: list[ResultRow]
    report: dict[str, dict[str, float]]
    problem: BenchmarkProblem
    trajectories: dict[str, tuple[np.ndarray, np.ndarray]]


def build_problem(config: BenchConfig) -> BenchmarkProblem:
    """Build the configured problem; a ``problem_params`` value of the wrong
    type (the builder's ``TypeError``) becomes a :class:`ConfigError`."""
    try:
        return PROBLEM_BUILDERS[config.problem](**config.problem_params)
    except TypeError as exc:
        raise ConfigError(f"problem_params for {config.problem!r}: {exc}") from None


def resolve_schedule(
    config_schedule: dict | None, problem: BenchmarkProblem
) -> Schedule:
    if config_schedule is None:
        if problem.default_schedule is None:
            raise ConfigError(
                f"problem {problem.name} has no default schedule; configure one"
            )
        return problem.default_schedule
    return Schedule(**config_schedule)


def run_problem(
    problem: BenchmarkProblem,
    estimator_kind: str,
    schedule: Schedule,
    iterations: int,
    stream: RandomStream | Sequence[RandomStream],
    x0: np.ndarray | None = None,
    observe: Observer | None = None,
) -> Trajectory | list[Trajectory]:
    """Run the named estimator kind on ``problem``.

    One stream gives one trajectory; a sequence of streams runs them as one
    batch and gives one trajectory per stream.  ``observe`` is passed to
    :func:`zosmooth.optimizer.run`.
    """
    if estimator_kind not in KINDS:
        raise ConfigError(f"unknown estimator kind {estimator_kind!r}")
    kind = KINDS[estimator_kind]
    oracle = getattr(problem, kind.oracle_field)
    if oracle is None:
        raise ConfigError(
            f"problem {problem.name} has no {_ORACLE_NAMES[kind.oracle_field]} oracle"
        )
    start = problem.x0 if x0 is None else x0
    return run(
        oracle,
        kind.estimator,
        schedule,
        iterations,
        problem.feasible,
        start,
        stream,
        observe=observe,
    )


def budget_iterations(kind: str, iterations: int, n: int) -> int:
    """Iteration count giving every estimator the same 2nK oracle budget."""
    return iterations if KINDS[kind].per_coordinate else iterations * n


def kind_key(kind: str) -> int:
    """Fixed substream key of an estimator kind, derived from its name alone."""
    return zlib.crc32(kind.encode())


def _replication_stream(config: BenchConfig, kind: str, replication: int) -> RandomStream:
    return RandomStream(config.base_seed, substream_id=(kind_key(kind), replication))


Metric = Callable[[BenchmarkProblem, Trajectory], float]


def _final_error(problem: BenchmarkProblem, trajectory: Trajectory) -> float:
    # Convex problems report suboptimality of the gamma-weighted average
    # (the quantity the diminishing-step analysis controls); strongly convex
    # and nonconvex problems report the final iterate, whose convergence is
    # what their analyses track.
    if problem.convexity == "convex":
        return error_metric(problem, weighted_average(trajectory))
    return error_metric(problem, trajectory.final_x)


# The metric columns of each rows table, computed from a replication's end
# state.  They belong to the table, not the problem: ``compare`` on the
# market still writes ``error``.
RESULT_METRICS: dict[str, Metric] = {"error": _final_error}
DD_METRICS: dict[str, Metric] = {
    "final_x1": lambda p, t: t.final_x[0],
    "dist_to_optimum": lambda p, t: np.linalg.norm(t.final_x - p.x_star),
    "dist_to_stable": lambda p, t: np.linalg.norm(t.final_x - p.x_ps),
}


def _benchmark(
    config: BenchConfig,
    problem: BenchmarkProblem,
    metrics: dict[str, Metric],
    report: Callable[[BenchmarkProblem, list[ResultRow]], dict[str, float]],
) -> BenchSummary:
    """Run each kind's replications as one batch, turn every trajectory into
    a row with the ``metrics`` columns, and ``report`` on each kind's rows.
    A row's ``wall_time_ms`` is its batch's loop time per replication."""
    schedule = resolve_schedule(config.schedule, problem)
    batches, recorded = {}, {}
    for kind in config.estimators:
        iterations = budget_iterations(kind, config.iterations[kind], problem.n)
        observe = None
        if config.record_trajectories:
            iterates = np.empty((iterations + 1, problem.n))
            calls = np.empty(iterations + 1, dtype=np.int64)
            recorded[kind] = iterates, calls
            observe = partial(_record_row_zero, iterates, calls)
        batches[kind] = run_problem(
            problem,
            kind,
            schedule,
            iterations,
            [_replication_stream(config, kind, r) for r in range(config.replications)],
            observe=observe,
        )
    # scored only after every kind has run: scoring between the runs raised
    # market_dd's peak RSS by about 0.2 MB
    rows = [
        ResultRow(
            problem=problem.name,
            n=problem.n,
            estimator=kind,
            replication=replication,
            metrics={c: float(m(problem, trajectory)) for c, m in metrics.items()},
            wall_time_ms=int(round(trajectory.wall_time_ms)),
            oracle_calls=trajectory.oracle_calls,
            seed=config.base_seed,
        )
        for kind, batch in batches.items()
        for replication, trajectory in enumerate(batch)
    ]
    by_kind = {
        k: report(problem, [r for r in rows if r.estimator == k]) for k in config.estimators
    }
    return BenchSummary(rows, by_kind, problem, recorded)


def _record_row_zero(iterates, calls, k, x, weighted_sum, gamma_total, oracle_calls):
    # the observer of a recorded run: keep replication 0's x_k and calls
    iterates[k] = x[0]
    calls[k] = oracle_calls


def _mean_error_and_time(
    problem: BenchmarkProblem, rows: list[ResultRow]
) -> dict[str, float]:
    return {
        "mean_error": sum(r.metrics["error"] for r in rows) / len(rows),
        "mean_wall_time_ms": sum(r.wall_time_ms for r in rows) / len(rows),
    }


def run_benchmark(config: BenchConfig) -> tuple[list[ResultRow], BenchSummary]:
    """Run the configured estimator grid under equal oracle budgets.

    The report gives each kind's ``mean_error`` and ``mean_wall_time_ms``.
    Raises :class:`BudgetMismatchError` unless every row consumed the same
    number of oracle calls.
    """
    summary = _benchmark(config, build_problem(config), RESULT_METRICS, _mean_error_and_time)
    calls = {row.oracle_calls for row in summary.rows}
    if len(calls) > 1:
        raise BudgetMismatchError(
            f"oracle budget mismatch on problem {summary.problem.name!r}: {sorted(calls)}"
        )
    return summary.rows, summary


def _distances_to_targets(
    problem: BenchmarkProblem, rows: list[ResultRow]
) -> dict[str, float]:
    columns = [r.metrics for r in rows]
    return {
        "mean_dist_to_optimum": float(np.mean([c["dist_to_optimum"] for c in columns])),
        "mean_dist_to_stable": float(np.mean([c["dist_to_stable"] for c in columns])),
        "mean_abs_x1_minus_opt": float(
            np.mean([abs(c["final_x1"] - problem.x_star[0]) for c in columns])
        ),
        "mean_abs_x1_minus_stable": float(
            np.mean([abs(c["final_x1"] - problem.x_ps[0]) for c in columns])
        ),
    }


def run_dd_benchmark(config: BenchConfig) -> tuple[list[ResultRow], BenchSummary]:
    """Run the market problem under both decision-dependent protocols.

    The rows carry :data:`DD_METRICS`: the final iterate's distance to the
    closed-form optimum and to the performatively stable point, whose
    per-kind means the report gives.  Each kind keeps its own iteration
    count, so no equal budget is enforced.
    """
    problem = build_problem(config)
    if problem.x_star is None or problem.x_ps is None:
        raise ConfigError("decision-dependent benchmark needs closed-form targets")
    summary = _benchmark(config, problem, DD_METRICS, _distances_to_targets)
    return summary.rows, summary


# ---------------------------------------------------------------------------
# CSV output

def write_table(
    path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write one CSV table: the header line, then one line per row, each
    ending in a newline.  A float cell is written with ``repr``, so it reads
    back bit for bit; an ``OSError`` names the path."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _format(value) -> str:
    # float() first: a numpy scalar's repr names its type
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def emit_csv(rows: Sequence[ResultRow], path: str | os.PathLike) -> None:
    """Write ``results.csv``: one line per row."""
    write_table(
        path,
        ("problem", "n", "estimator", "replication", *RESULT_METRICS,
         "wall_time_ms", "oracle_calls", "seed"),
        (
            (r.problem, r.n, r.estimator, r.replication, *r.metrics.values(),
             r.wall_time_ms, r.oracle_calls, r.seed)
            for r in rows
        ),
    )


def emit_dd_csv(rows: Sequence[ResultRow], path: str | os.PathLike) -> None:
    """Write ``dd_results.csv``: one line per row.  The table holds one
    problem, so a row is named by its kind alone, as ``mode``."""
    write_table(
        path,
        ("mode", "replication", *DD_METRICS, "wall_time_ms", "oracle_calls", "seed"),
        (
            (r.estimator, r.replication, *r.metrics.values(),
             r.wall_time_ms, r.oracle_calls, r.seed)
            for r in rows
        ),
    )


def emit_aggregate_csv(rows: Sequence[ResultRow], path: str | os.PathLike) -> None:
    """Write per-(problem, n, estimator) means and standard deviations."""
    groups: dict[tuple[str, int, str], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.problem, row.n, row.estimator), []).append(row)
    lines = []
    for (name, n, kind), group in groups.items():
        errors = np.array([r.metrics["error"] for r in group])
        times = np.array([float(r.wall_time_ms) for r in group])
        lines.append((
            name, n, kind, len(group),
            errors.mean(), errors.std(ddof=0), times.mean(), times.std(ddof=0),
            group[0].oracle_calls,
        ))
    write_table(
        path,
        ("problem", "n", "estimator", "replications", "mean_error", "stddev_error",
         "mean_wall_time_ms", "stddev_wall_time_ms", "oracle_calls"),
        lines,
    )


def emit_trajectory(
    iterates: np.ndarray,
    oracle_calls: np.ndarray,
    problem: BenchmarkProblem,
    path: str | os.PathLike,
) -> None:
    """Write ``k, error, oracle_calls`` for one replication's observed
    iterates ``x_0 .. x_K``, a ``(K+1, n)`` array, and the cumulative oracle
    calls before each.

    ``error`` is each iterate's own ``error_metric``.  ``results.csv``
    reports that of the final iterate for strongly convex and nonconvex
    problems, so there the last row equals replication 0's row error bit
    for bit; for convex problems ``results.csv`` reports the error of the
    gamma-weighted average instead.  The rows before the last use the
    problem's one-pass ``exact_f_rows`` when it has one, and agree with the
    per-point error to rounding.
    """
    errors = [
        *error_metric_rows(problem, iterates[:-1]),
        *(error_metric(problem, x) for x in iterates[-1:]),
    ]
    write_table(
        path,
        ("k", "error", "oracle_calls"),
        ((k, err, int(oracle_calls[k])) for k, err in enumerate(errors)),
    )


def output_dir(config_output: str | None, cli_out: str | None) -> Path:
    """Resolve the output directory: flag > env override > config > cwd."""
    env = os.environ.get("ZOSMOOTH_OUT")
    chosen = cli_out or env or config_output or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path
