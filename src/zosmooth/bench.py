"""Benchmark harness: equal-budget comparisons, replications, CSV output.

Every estimator kind is one entry of :data:`KINDS`, the only kind
registry: its :class:`~zosmooth.estimators.BatchEstimator`, the kind's
public name (such as :func:`~zosmooth.estimators.esgs_estimate`), and the
:class:`~zosmooth.problems.BenchmarkProblem` field holding its oracle.  The
estimator states what one estimate costs (``oracle_calls(n)``, ``2n`` or
2), and every oracle-call count here is derived from it.  Config
validation, the budget rule, :func:`run_problem` and the ``moments`` CLI
read that entry, so a kind is added by adding one.

Estimator comparisons hold the oracle budget fixed: the coordinate-wise
exponential-shift estimators run ``K`` iterations at ``2n`` oracle calls
each, while every two-point baseline runs ``n*K`` iterations at 2 calls
each, so all methods consume exactly ``2nK`` noisy evaluations.
:func:`run_benchmark` checks that, and that the problem holds every
configured kind's oracle, before any kind runs.

:func:`run_benchmark` (``results.csv``) and :func:`run_dd_benchmark`
(``dd_results.csv``) run on one runner: it runs all replications of each
kind as one batch (see :func:`zosmooth.optimizer.run`), with replication
``r`` of kind ``k`` drawing from the substream keyed ``(kind_key(k), r)``,
and turns each replication's final :class:`~zosmooth.optimizer.RunState`
into a :class:`ResultRow` with the metric columns its table chooses;
:func:`emit_trajectory` streams a recorded run's rows.
Every CSV line is written by :func:`write_table`'s line writer.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import time
import zlib
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .decision import esgs_dd_known, esgs_dd_unknown
from .estimators import (
    BatchEstimator, esgs_estimate, gs_estimate, spherical_estimate, spsa_estimate,
)
from .optimizer import Observer, RunState, Schedule, run, weighted_average
from .problems import PROBLEM_BUILDERS, BenchmarkProblem, error_metric, error_metric_rows
from .rng import RandomStream


@dataclass(frozen=True)
class Kind:
    """An estimator kind: its :class:`BatchEstimator`, which also states
    its oracle calls per estimate, and the :class:`BenchmarkProblem` field
    its oracle lives in."""

    estimator: BatchEstimator
    oracle_field: str


KINDS: dict[str, Kind] = {
    "esgs": Kind(esgs_estimate, "oracle"),
    "gs": Kind(gs_estimate, "oracle"),
    "spherical": Kind(spherical_estimate, "oracle"),
    "spsa": Kind(spsa_estimate, "oracle"),
    "esgs_dd_known": Kind(esgs_dd_known, "dd_known"),
    "esgs_dd_unknown": Kind(esgs_dd_unknown, "dd_unknown"),
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
    """A config gives its kinds different oracle budgets on one problem."""


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
        declared = get_type_hints(PROBLEM_BUILDERS[problem])
        for key, value in problem_params.items():
            _number(f"problem_params[{key!r}]", value, declared[key])
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
            declared = get_type_hints(Schedule)
            unknown = set(schedule) - set(declared)
            if unknown:
                raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
            if "kind" not in schedule:
                raise ConfigError("schedule needs a 'kind'")
            for key, value in schedule.items():
                if key != "kind":
                    _number(f"schedule {key!r}", value, declared[key])
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


def _number(name: str, value, declared) -> None:
    """Reject a ``value`` that is no JSON number (so ``true``, which Python
    would read as 1), a NaN or infinity (which Python's json reads from
    ``NaN`` or ``Infinity``), or a float where ``declared``, the type its
    builder or :class:`Schedule` annotates, is an int."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a JSON number, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite JSON number, got {value!r}")
    if declared in (int, int | None):
        _typed(name, value, int)


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
    """The rows, a per-kind report on them, and the paths of the recorded
    ``trajectory_<kind>.csv`` tables, in config order."""

    rows: list[ResultRow]
    report: dict[str, dict[str, float]]
    trajectory_paths: list[Path]


def build_problem(config: BenchConfig) -> BenchmarkProblem:
    """Build the configured problem."""
    return PROBLEM_BUILDERS[config.problem](**config.problem_params)


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
    streams: Iterable[RandomStream],
    x0: np.ndarray | None = None,
    observe: Observer | None = None,
) -> list[RunState]:
    """Run the named estimator kind on ``problem`` from ``x0`` (the
    problem's own by default), one replication per stream, as one batch,
    and give each replication's final
    :class:`~zosmooth.optimizer.RunState`.  ``observe`` is passed to
    :func:`zosmooth.optimizer.run`.
    """
    if estimator_kind not in KINDS:
        raise ConfigError(f"unknown estimator kind {estimator_kind!r}")
    return run(
        kind_oracle(problem, estimator_kind),
        KINDS[estimator_kind].estimator,
        schedule,
        iterations,
        problem.feasible,
        problem.x0 if x0 is None else x0,
        streams,
        observe=observe,
    )


def kind_oracle(problem: BenchmarkProblem, kind: str):
    """The oracle ``problem`` holds for ``kind``; a :class:`ConfigError`
    when it holds none."""
    field = KINDS[kind].oracle_field
    oracle = getattr(problem, field)
    if oracle is None:
        raise ConfigError(f"problem {problem.name} has no {_ORACLE_NAMES[field]} oracle")
    return oracle


def budget_iterations(kind: str, iterations: int, n: int) -> int:
    """Iteration count giving every estimator the same 2nK oracle budget."""
    return iterations if KINDS[kind].estimator.per_coordinate else iterations * n


def kind_key(kind: str) -> int:
    """Fixed substream key of an estimator kind, derived from its name alone."""
    return zlib.crc32(kind.encode())


def _replication_stream(config: BenchConfig, kind: str, replication: int) -> RandomStream:
    return RandomStream(config.base_seed, substream_id=(kind_key(kind), replication))


Metric = Callable[[BenchmarkProblem, RunState], float]


def _final_error(problem: BenchmarkProblem, state: RunState) -> float:
    # Convex problems report suboptimality of the gamma-weighted average
    # (the quantity the diminishing-step analysis controls); strongly convex
    # and nonconvex problems report the final iterate, whose convergence is
    # what their analyses track.
    if problem.convexity == "convex":
        return error_metric(problem, weighted_average(state))
    return error_metric(problem, state.x)


# The metric columns of each rows table, computed from a replication's end
# state.  They belong to the table, not the problem: ``compare`` on the
# market still writes ``error``.
RESULT_METRICS: dict[str, Metric] = {"error": _final_error}
DD_METRICS: dict[str, Metric] = {
    "final_x1": lambda p, t: t.x[0],
    "dist_to_optimum": lambda p, t: np.linalg.norm(t.x - p.x_star),
    "dist_to_stable": lambda p, t: np.linalg.norm(t.x - p.x_ps),
}


def _benchmark(
    config: BenchConfig,
    problem: BenchmarkProblem,
    metrics: dict[str, Metric],
    report: Callable[[BenchmarkProblem, list[ResultRow]], dict[str, float]],
) -> BenchSummary:
    """Run each kind's replications as one batch, turn every final state
    into a row with the ``metrics`` columns, and ``report`` on each kind's
    rows.  A row's ``wall_time_ms`` is its kind's :func:`run_problem` time,
    measured here, divided by the replication count.
    Every kind's oracle is looked up before any kind runs.  Recorded tables
    stream into ``config.output`` or ``.``.  If a run raises, the tables are
    removed, and so are the directories that did not exist before the run
    (the ones the first table made), once empty."""
    schedule = resolve_schedule(config.schedule, problem)
    for kind in config.estimators:
        kind_oracle(problem, kind)
    out = Path(config.output or ".")
    # deepest first, so that each is empty when its turn comes
    missing = [d for d in (out, *out.parents) if not d.exists()]
    batches, wall_ms, paths = {}, {}, []
    try:
        for kind in config.estimators:
            iterations = budget_iterations(kind, config.iterations[kind], problem.n)
            streams = [_replication_stream(config, kind, r) for r in range(config.replications)]
            recording = nullcontext()
            if config.record_trajectories:
                path = out / f"trajectory_{kind}.csv"
                cost = KINDS[kind].estimator.oracle_calls(problem.n)
                # listed before the table is started, so that no moment leaves
                # a table behind that the cleanup does not know of
                paths.append(path)
                recording = emit_trajectory(path, problem, cost, iterations)
            start = time.perf_counter()
            with recording as observe:
                batches[kind] = run_problem(
                    problem, kind, schedule, iterations, streams, observe=observe
                )
            wall_ms[kind] = (time.perf_counter() - start) * 1000.0 / config.replications
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        for directory in missing:
            # rmdir leaves a directory that anything else wrote into
            with suppress(OSError):
                directory.rmdir()
        raise
    # scored only after every kind has run: scoring between the runs raised
    # market_dd's peak RSS by about 0.2 MB
    rows = [
        ResultRow(
            problem=problem.name,
            n=problem.n,
            estimator=kind,
            replication=replication,
            metrics={c: float(m(problem, state)) for c, m in metrics.items()},
            wall_time_ms=int(round(wall_ms[kind])),
            oracle_calls=state.oracle_calls,
            seed=config.base_seed,
        )
        for kind, batch in batches.items()
        for replication, state in enumerate(batch)
    ]
    by_kind = {
        k: report(problem, [r for r in rows if r.estimator == k]) for k in config.estimators
    }
    return BenchSummary(rows, by_kind, paths)


def _mean_error_and_time(
    problem: BenchmarkProblem, rows: list[ResultRow]
) -> dict[str, float]:
    return {
        "mean_error": sum(r.metrics["error"] for r in rows) / len(rows),
        "mean_wall_time_ms": sum(r.wall_time_ms for r in rows) / len(rows),
    }


def run_benchmark(config: BenchConfig) -> BenchSummary:
    """Run the configured estimator grid under equal oracle budgets.

    The report gives each kind's ``mean_error`` and ``mean_wall_time_ms``.
    Before any kind runs, raises :class:`ConfigError` when a kind has 0
    iterations on a convex problem or the problem holds no oracle for a
    kind, and :class:`BudgetMismatchError`, naming each kind's budget,
    unless every kind's iterations times its ``oracle_calls(n)`` are equal.
    """
    problem = build_problem(config)
    zero = [kind for kind, count in config.iterations.items() if count == 0]
    if zero and problem.convexity == "convex":
        raise ConfigError(
            f"iterations[{zero[0]!r}] must be >= 1 on the convex problem "
            f"{problem.name!r}: it reports the error of the gamma-weighted "
            f"average of the iterates, which needs at least one step"
        )
    n = problem.n
    budgets = {
        kind: budget_iterations(kind, config.iterations[kind], n)
        * KINDS[kind].estimator.oracle_calls(n)
        for kind in config.estimators
    }
    if len(set(budgets.values())) > 1:
        raise BudgetMismatchError(
            f"oracle budget mismatch on problem {problem.name!r}: "
            + ", ".join(f"{kind} {calls}" for kind, calls in budgets.items())
            + " oracle calls per replication"
        )
    return _benchmark(config, problem, RESULT_METRICS, _mean_error_and_time)


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


def run_dd_benchmark(config: BenchConfig) -> BenchSummary:
    """Run the market problem under both decision-dependent protocols.

    The rows carry :data:`DD_METRICS`: the final iterate's distance to the
    closed-form optimum and to the performatively stable point, whose
    per-kind means the report gives.  Each kind keeps its own iteration
    count, so no equal budget is enforced.
    """
    problem = build_problem(config)
    if problem.x_star is None or problem.x_ps is None:
        raise ConfigError("decision-dependent benchmark needs closed-form targets")
    return _benchmark(config, problem, DD_METRICS, _distances_to_targets)


# ---------------------------------------------------------------------------
# CSV output

def write_table(
    path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write one CSV table: the header line, then one line per row, each
    ending in a newline.  A float cell is written with ``repr``, so it reads
    back bit for bit; an ``OSError`` names the path."""
    _write_lines(path, "w", [header, *rows])


def _write_lines(path: str | os.PathLike, mode: str, rows: Iterable[Sequence]) -> None:
    # "w" starts a table (making its directory), "a" adds rows to it
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode, newline="") as fh:
            for row in rows:
                fh.write(",".join(_format(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _format(value) -> str:
    # float() first: a numpy scalar's repr names its type
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit_rows(path, rows: Sequence[ResultRow], key: dict[str, str], metrics: dict) -> None:
    """Write a rows table, one line per row: the ``key`` columns (header:
    the :class:`ResultRow` field each holds), ``replication``, the
    ``metrics`` columns, ``wall_time_ms``, ``oracle_calls`` and ``seed``."""
    write_table(
        path,
        (*key, "replication", *metrics, "wall_time_ms", "oracle_calls", "seed"),
        ((*(getattr(r, f) for f in key.values()), r.replication, *r.metrics.values(),
          r.wall_time_ms, r.oracle_calls, r.seed) for r in rows),
    )


def emit_csv(rows: Sequence[ResultRow], path: str | os.PathLike) -> None:
    """Write ``results.csv``."""
    _emit_rows(path, rows, {c: c for c in ("problem", "n", "estimator")}, RESULT_METRICS)


def emit_dd_csv(rows: Sequence[ResultRow], path: str | os.PathLike) -> None:
    """Write ``dd_results.csv``.  The table holds one problem, so a row is
    named by its kind alone, as ``mode``."""
    _emit_rows(path, rows, {"mode": "estimator"}, DD_METRICS)


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


# A recorded run buffers at most CHUNK iterates and at most 2**20 numbers.
CHUNK = 1024


@contextmanager
def emit_trajectory(
    path: str | os.PathLike,
    problem: BenchmarkProblem,
    calls_per_iteration: int,
    iterations: int,
) -> Iterator[Observer]:
    """Start the table ``k, error, oracle_calls`` at ``path`` and yield the
    observer of an ``iterations``-iteration run that writes replication 0's
    rows into it, :data:`CHUNK` iterates at a time, with ``oracle_calls``
    the ``k * calls_per_iteration`` calls spent before ``x_k``.

    ``error`` is each iterate's own ``error_metric``: per point in the last
    row, which on strongly convex and nonconvex problems equals replication
    0's ``results.csv`` error bit for bit, and from one ``error_metric_rows``
    pass per buffer in the others, which agree with it to rounding.
    """
    chunk = np.empty((min(iterations + 1, CHUNK, max(1, 2**20 // problem.n)), problem.n))
    write_table(path, ("k", "error", "oracle_calls"), ())

    def observe(state: RunState) -> None:
        row = state.k % len(chunk)
        chunk[row] = state.x[0]
        if state.k == iterations:
            errors = [*error_metric_rows(problem, chunk[:row]), error_metric(problem, chunk[row])]
        elif row + 1 == len(chunk):
            errors = error_metric_rows(problem, chunk)
        else:
            return
        lines = ((j, e, j * calls_per_iteration) for j, e in enumerate(errors, state.k - row))
        _write_lines(path, "a", lines)

    yield observe


def output_dir(config_output: str | None, cli_out: str | None) -> Path:
    """Resolve the output directory: flag > env override > config > cwd.
    The first table written into it makes it."""
    return Path(cli_out or os.environ.get("ZOSMOOTH_OUT") or config_output or ".")
