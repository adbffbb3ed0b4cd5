"""Benchmark harness: equal-budget comparisons, replications, CSV output.

Estimator comparisons hold the oracle budget fixed: the coordinate-wise
exponential-shift estimator runs ``K`` iterations at ``2n`` oracle calls
each, while every two-point baseline runs ``n*K`` iterations at 2 calls
each, so all methods consume exactly ``2nK`` noisy evaluations.

All replications of one estimator kind run as one batch (see
:func:`zosmooth.optimizer.run`); replication ``r`` of kind ``k`` draws from
the substream keyed ``(kind_key(k), r)``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# esgs_dd_known and esgs_dd_unknown are the single-sample forms of the two
# decision-dependent kinds; perfbench/child.py instruments them by these names.
from .decision import DD_BATCH_ESTIMATORS, esgs_dd_known, esgs_dd_unknown  # noqa: F401
from .estimators import BATCH_ESTIMATORS
from .optimizer import Schedule, Trajectory, run, weighted_average
from .problems import PROBLEM_BUILDERS, BenchmarkProblem, error_metric
from .rng import RandomStream

TWO_POINT_KINDS = ("gs", "spherical", "spsa")
DD_KINDS = ("esgs_dd_known", "esgs_dd_unknown")
ALL_KINDS = ("esgs",) + TWO_POINT_KINDS + DD_KINDS

_SCHEDULE_KEYS = {
    "kind",
    "n",
    "horizon",
    "radius_scale",
    "l0",
    "theta",
    "mu",
    "eta_fixed",
    "alpha",
    "beta",
    "gamma_scale",
    "eta_scale",
}

_CONFIG_KEYS = {
    "problem",
    "problem_params",
    "estimators",
    "schedule",
    "iterations",
    "replications",
    "base_seed",
    "output",
    "record_trajectories",
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
        unknown = set(raw) - _CONFIG_KEYS
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
        estimators = tuple(raw["estimators"])
        for kind in estimators:
            if kind not in ALL_KINDS:
                raise ConfigError(
                    f"unknown estimator {kind!r}; choose from {sorted(ALL_KINDS)}"
                )
        schedule = raw.get("schedule")
        if schedule is not None:
            unknown = set(schedule) - _SCHEDULE_KEYS
            if unknown:
                raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
        iterations = raw["iterations"]
        if isinstance(iterations, int):
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
            iterations = {k: int(v) for k, v in iterations.items()}
        else:
            raise ConfigError("iterations must be an int or a per-estimator mapping")
        replications = int(raw["replications"])
        if replications < 1:
            raise ConfigError("replications must be >= 1")
        return BenchConfig(
            problem=problem,
            problem_params=dict(raw.get("problem_params", {})),
            estimators=estimators,
            schedule=schedule,
            iterations=iterations,
            replications=replications,
            base_seed=int(raw["base_seed"]),
            output=raw.get("output"),
            record_trajectories=bool(raw.get("record_trajectories", False)),
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


@dataclass(frozen=True)
class ResultRow:
    problem: str
    n: int
    estimator: str
    replication: int
    error: float
    wall_time_ms: int
    oracle_calls: int
    seed: int


@dataclass
class BenchSummary:
    """Per-kind means of the rows, plus the problem they were run on.

    ``trajectories`` holds replication 0's trajectory of each kind, with its
    iterates, when the config asks for trajectory recording.
    """

    rows: list[ResultRow]
    mean_error: dict[str, float] = field(default_factory=dict)
    mean_wall_time_ms: dict[str, float] = field(default_factory=dict)
    problem: BenchmarkProblem | None = None
    trajectories: dict[str, Trajectory] = field(default_factory=dict)

    def compute(self) -> "BenchSummary":
        by_kind: dict[str, list[ResultRow]] = {}
        for row in self.rows:
            by_kind.setdefault(row.estimator, []).append(row)
        for kind, rows in by_kind.items():
            self.mean_error[kind] = sum(r.error for r in rows) / len(rows)
            self.mean_wall_time_ms[kind] = sum(r.wall_time_ms for r in rows) / len(rows)
        return self


def build_problem(config: BenchConfig) -> BenchmarkProblem:
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
    stream: RandomStream | Sequence[RandomStream],
    x0: np.ndarray | None = None,
    record_iterates: bool | Sequence[int] = False,
    checkpoint_at: Sequence[int] = (),
) -> Trajectory | list[Trajectory]:
    """Run the named estimator kind on ``problem``.

    One stream gives one trajectory; a sequence of streams runs them as one
    batch and gives one trajectory per stream (see
    :func:`zosmooth.optimizer.run`).
    """
    if estimator_kind in BATCH_ESTIMATORS:
        if problem.oracle is None:
            raise ConfigError(
                f"problem {problem.name} exposes no decision-independent oracle"
            )
        oracle, estimator = problem.oracle, BATCH_ESTIMATORS[estimator_kind]
    elif estimator_kind == "esgs_dd_known":
        if problem.dd_known is None:
            raise ConfigError(f"problem {problem.name} has no known-density oracle")
        oracle, estimator = problem.dd_known, DD_BATCH_ESTIMATORS[estimator_kind]
    elif estimator_kind == "esgs_dd_unknown":
        if problem.dd_unknown is None:
            raise ConfigError(f"problem {problem.name} has no random-field oracle")
        oracle, estimator = problem.dd_unknown, DD_BATCH_ESTIMATORS[estimator_kind]
    else:
        raise ConfigError(f"unknown estimator kind {estimator_kind!r}")
    start = problem.x0 if x0 is None else x0
    return run(
        oracle,
        estimator,
        schedule,
        iterations,
        problem.feasible,
        start,
        stream,
        record_iterates=record_iterates,
        checkpoint_at=checkpoint_at,
    )


def budget_iterations(kind: str, iterations: int, n: int) -> int:
    """Iteration count giving every estimator the same 2nK oracle budget."""
    if kind in TWO_POINT_KINDS:
        return iterations * n
    return iterations


def kind_key(kind: str) -> int:
    """Fixed substream key of an estimator kind, derived from its name alone."""
    return zlib.crc32(kind.encode())


def _replication_stream(config: BenchConfig, kind: str, replication: int) -> RandomStream:
    return RandomStream(config.base_seed, substream_id=(kind_key(kind), replication))


def _replication_streams(config: BenchConfig, kind: str) -> list[RandomStream]:
    return [_replication_stream(config, kind, r) for r in range(config.replications)]


def _total_calls(trajectory: Trajectory) -> int:
    calls = trajectory.oracle_calls_cumulative
    return int(calls[-1]) if len(calls) else 0


def _final_error(problem: BenchmarkProblem, trajectory: Trajectory) -> float:
    # Convex problems report suboptimality of the gamma-weighted average
    # (the quantity the diminishing-step analysis controls); strongly convex
    # and nonconvex problems report the final iterate, whose convergence is
    # what their analyses track.
    if problem.convexity == "convex":
        return error_metric(problem, weighted_average(trajectory))
    return error_metric(problem, trajectory.final_x)


def run_benchmark(config: BenchConfig) -> tuple[list[ResultRow], BenchSummary]:
    """Run the configured estimator grid under equal oracle budgets.

    Each (estimator, replication) pair owns an independent substream, so a
    row does not depend on which other replications or kinds are run.  Each
    row's ``wall_time_ms`` is its kind's batch loop time divided by the
    replication count.
    """
    problem = build_problem(config)
    schedule = resolve_schedule(config.schedule, problem)
    record = (0,) if config.record_trajectories else False

    rows: list[ResultRow] = []
    trajectories: dict[str, Trajectory] = {}
    for kind in config.estimators:
        iters = budget_iterations(kind, config.iterations[kind], problem.n)
        batch = run_problem(
            problem, kind, schedule, iters, _replication_streams(config, kind),
            record_iterates=record,
        )
        if config.record_trajectories:
            trajectories[kind] = batch[0]
        rows += [
            ResultRow(
                problem=problem.name,
                n=problem.n,
                estimator=kind,
                replication=replication,
                error=_final_error(problem, trajectory),
                wall_time_ms=int(round(trajectory.wall_time_ms)),
                oracle_calls=_total_calls(trajectory),
                seed=config.base_seed,
            )
            for replication, trajectory in enumerate(batch)
        ]

    groups: dict[str, set[int]] = {}
    for row in rows:
        groups.setdefault(row.problem, set()).add(row.oracle_calls)
    for name, calls in groups.items():
        if len(calls) != 1:
            raise BudgetMismatchError(
                f"oracle budget mismatch in group {name!r}: {sorted(calls)}"
            )
    summary = BenchSummary(rows=rows, problem=problem, trajectories=trajectories)
    return rows, summary.compute()


@dataclass(frozen=True)
class DDResultRow:
    mode: str
    replication: int
    final_x1: float
    dist_to_optimum: float
    dist_to_stable: float
    wall_time_ms: int
    oracle_calls: int
    seed: int


def run_dd_benchmark(
    config: BenchConfig,
) -> tuple[list[DDResultRow], dict[str, dict[str, float]]]:
    """Run the market problem under both decision-dependent protocols.

    Reports, per replication and on average, the distance of the final
    iterate to the closed-form optimum and to the performatively stable
    point.
    """
    problem = build_problem(config)
    if problem.x_star is None or problem.x_ps is None:
        raise ConfigError("decision-dependent benchmark needs closed-form targets")
    schedule = resolve_schedule(config.schedule, problem)

    rows: list[DDResultRow] = []
    for kind in config.estimators:
        batch = run_problem(
            problem, kind, schedule, config.iterations[kind],
            _replication_streams(config, kind),
        )
        for replication, trajectory in enumerate(batch):
            x = trajectory.final_x
            rows.append(
                DDResultRow(
                    mode=kind,
                    replication=replication,
                    final_x1=float(x[0]),
                    dist_to_optimum=float(np.linalg.norm(x - problem.x_star)),
                    dist_to_stable=float(np.linalg.norm(x - problem.x_ps)),
                    wall_time_ms=int(round(trajectory.wall_time_ms)),
                    oracle_calls=_total_calls(trajectory),
                    seed=config.base_seed,
                )
            )

    report: dict[str, dict[str, float]] = {}
    for kind in config.estimators:
        mode_rows = [r for r in rows if r.mode == kind]
        report[kind] = {
            "mean_dist_to_optimum": float(
                np.mean([r.dist_to_optimum for r in mode_rows])
            ),
            "mean_dist_to_stable": float(
                np.mean([r.dist_to_stable for r in mode_rows])
            ),
            "mean_abs_x1_minus_opt": float(
                np.mean([abs(r.final_x1 - problem.x_star[0]) for r in mode_rows])
            ),
            "mean_abs_x1_minus_stable": float(
                np.mean([abs(r.final_x1 - problem.x_ps[0]) for r in mode_rows])
            ),
        }
    return rows, report


# ---------------------------------------------------------------------------
# CSV output


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: Sequence[ResultRow], path: str | Path) -> None:
    """Write raw result rows; header fixed, one line per row, newline at end."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            fh.write("problem,n,estimator,replication,error,wall_time_ms,oracle_calls,seed\n")
            for row in rows:
                fh.write(
                    ",".join(
                        _format(v)
                        for v in (
                            row.problem,
                            row.n,
                            row.estimator,
                            row.replication,
                            row.error,
                            row.wall_time_ms,
                            row.oracle_calls,
                            row.seed,
                        )
                    )
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_aggregate_csv(rows: Sequence[ResultRow], path: str | Path) -> None:
    """Write per-(problem, n, estimator) means and standard deviations."""
    groups: dict[tuple[str, int, str], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.problem, row.n, row.estimator), []).append(row)
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            fh.write(
                "problem,n,estimator,replications,mean_error,stddev_error,"
                "mean_wall_time_ms,stddev_wall_time_ms,oracle_calls\n"
            )
            for (name, n, kind), group in groups.items():
                errors = np.array([r.error for r in group])
                times = np.array([float(r.wall_time_ms) for r in group])
                fh.write(
                    ",".join(
                        _format(v)
                        for v in (
                            name,
                            n,
                            kind,
                            len(group),
                            float(errors.mean()),
                            float(errors.std(ddof=0)),
                            float(times.mean()),
                            float(times.std(ddof=0)),
                            group[0].oracle_calls,
                        )
                    )
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_trajectory(
    trajectory: Trajectory, problem: BenchmarkProblem, path: str | Path
) -> None:
    """Write ``k, error, oracle_calls`` for each recorded iterate."""
    if trajectory.iterates is None:
        raise ValueError("trajectory was run without iterate recording")
    path = Path(path)
    calls = np.concatenate(([0], trajectory.oracle_calls_cumulative))
    try:
        with path.open("w", newline="") as fh:
            fh.write("k,error,oracle_calls\n")
            for k in range(trajectory.iterates.shape[0]):
                err = error_metric(problem, trajectory.iterates[k])
                fh.write(f"{k},{_format(float(err))},{int(calls[k])}\n")
    except OSError as exc:
        raise OSError(f"cannot write trajectory to {path}: {exc}") from exc


def output_dir(config_output: str | None, cli_out: str | None) -> Path:
    """Resolve the output directory: flag > env override > config > cwd."""
    env = os.environ.get("ZOSMOOTH_OUT")
    chosen = cli_out or env or config_output or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path
