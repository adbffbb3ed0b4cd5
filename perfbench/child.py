"""Code that runs in a fresh process started by ``run.py``.

``python3 perfbench/child.py setup <config|-> <refs.npz|->``
    Times ``import zosmooth`` plus ``bench.build_problem`` on the config
    (the import alone when the config is ``-``) and prints
    ``{"setup_s": ...}``.  With a refs path it also saves the quadratic
    problem's data, outside the timed part, for the output checks.

``python3 perfbench/child.py trace <trace.json> <cli args...>``
    Wraps the public callables of each zosmooth layer, runs
    ``zosmooth.cli.main(<cli args>)`` and writes the per-layer totals to
    ``<trace.json>``.  The program under ``src/`` is not edited: every
    wrapper is installed on a module attribute, a registry entry or an
    oracle instance in this process.

Self-time rule: a span's self time is its duration minus the durations of
the spans opened directly inside it.  The wrappers aggregate per layer as
they go instead of keeping one record per call, because a single workload
opens millions of spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layers whose self time is reported, and the metric that carries it.
TIME_METRICS = {
    "problems.build": "problems.build_s",
    "problems.oracle": "problems.oracle_s",
    "rng.draw": "rng.draw_s",
    "estimators": "estimators.self_s",
    "decision.weighted_value": "decision.weighted_value_s",
    "decision.field_sampler": "decision.field_sampler_s",
    "decision": "decision.self_s",
    "optimizer.schedule": "optimizer.schedule_s",
    "optimizer.step": "optimizer.step_s",
    "projections.project": "projections.project_s",
    "optimizer.run": "optimizer.run_self_s",
    "bench": "bench.self_s",
    "cli.write": "cli.write_s",
}


def setup(config_arg: str, refs_arg: str) -> int:
    t0 = time.perf_counter()
    from zosmooth import bench

    problem = None
    if config_arg != "-":
        problem = bench.build_problem(bench.BenchConfig.from_json(config_arg))
    setup_s = time.perf_counter() - t0
    if refs_arg != "-" and problem is not None:
        import numpy as np

        np.savez(
            refs_arg,
            q_hat=problem.extras["q_hat"],
            b=problem.extras["b"],
            l1_weight=problem.extras["l1_weight"],
            lo=problem.feasible.lo,
            hi=problem.feasible.hi,
            x_star=problem.x_star,
            f_star=problem.f_star,
            x0=problem.x0,
        )
    print(json.dumps({"setup_s": setup_s}))
    return 0


class Tracer:
    """Per-layer self time and call counts from nested wrapper spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def wrap(self, layer, fn, count=None, points=None):
        """Return ``fn`` timed as a span of ``layer``.

        ``count`` names a counter bumped once per call; ``points(args)``
        gives the noisy function values the call computes.
        """
        child_s = self._child_s
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                if count is not None:
                    counts[count] += 1
                if points is not None:
                    counts["problems.oracle_invocations"] += 1
                    counts["problems.points_evaluated"] += points(args)

        return wrapped

    def patch(self, owner, name, layer, **kw) -> None:
        setattr(owner, name, self.wrap(layer, getattr(owner, name), **kw))

    def metrics(self) -> dict[str, float]:
        out = {metric: self.self_s.get(layer, 0.0) for layer, metric in TIME_METRICS.items()}
        for name in (
            "problems.oracle_invocations",
            "problems.points_evaluated",
            "rng.draw_calls",
            "estimators.estimates",
            "decision.weighted_value_calls",
            "decision.field_sampler_calls",
            "optimizer.iterations",
        ):
            out[name] = self.counts.get(name, 0)
        return out


def _one_point(args) -> int:
    return 1


def _axis_points(args) -> int:
    return 2 * len(args[1])


def _batch_points(args) -> int:
    return len(args[0])


class _TimedFile:
    """File handle whose open, write and close count as ``cli.write``."""

    def __init__(self, tracer: Tracer, handle) -> None:
        self.write = tracer.wrap("cli.write", handle.write)
        self.close = tracer.wrap("cli.write", handle.close)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _TimedPath:
    """Output path handed to the CLI so that its inline CSV writes are timed."""

    def __init__(self, tracer: Tracer, path: Path) -> None:
        self._tracer = tracer
        self._path = path

    def __truediv__(self, name: str) -> "_TimedPath":
        return _TimedPath(self._tracer, self._path / name)

    def __fspath__(self) -> str:
        return str(self._path)

    def __str__(self) -> str:
        return str(self._path)

    def open(self, *args, **kwargs) -> _TimedFile:
        opener = self._tracer.wrap("cli.write", self._path.open)
        return _TimedFile(self._tracer, opener(*args, **kwargs))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public callables as the CLI reaches them."""
    from zosmooth import bench, cli, decision, estimators, optimizer, problems

    def instrument_oracle(oracle) -> None:
        for name, points in (
            ("eval", _one_point),
            ("eval_axis", _axis_points),
            ("eval_batch", _batch_points),
        ):
            if getattr(oracle, name) is not None:
                tracer.patch(oracle, name, "problems.oracle", points=points)
        tracer.patch(oracle, "noise_sampler", "rng.draw", count="rng.draw_calls")

    def instrument_problem(problem) -> None:
        if problem.oracle is not None:
            instrument_oracle(problem.oracle)
        if problem.dd_known is not None:
            tracer.patch(problem.dd_known, "ref_sampler", "rng.draw", count="rng.draw_calls")
        if problem.dd_unknown is not None:
            # the unknown-density leg calls f_hat directly; the known leg
            # calls it inside weighted_value, whose span it stays in
            tracer.patch(problem.dd_unknown, "f_hat", "problems.oracle", points=_one_point)
            tracer.patch(
                problem.dd_unknown,
                "field_sampler",
                "decision.field_sampler",
                count="decision.field_sampler_calls",
            )

    build = tracer.wrap("problems.build", bench.build_problem)

    def build_problem(config):
        problem = build(config)
        instrument_problem(problem)
        return problem

    bench.build_problem = build_problem

    make_oracle = cli.StochasticOracle

    def stochastic_oracle(*args, **kwargs):
        oracle = make_oracle(*args, **kwargs)
        instrument_oracle(oracle)
        return oracle

    cli.StochasticOracle = stochastic_oracle

    tracer.patch(
        decision.KnownDensityOracle,
        "weighted_value",
        "decision.weighted_value",
        count="decision.weighted_value_calls",
        points=_one_point,
    )
    for module in (estimators, decision):
        for name in ("sample_exponential", "sample_gaussian_vector"):
            tracer.patch(module, name, "rng.draw", count="rng.draw_calls")
    tracer.patch(problems, "sample_correlated_pair", "rng.draw", count="rng.draw_calls")

    # the registry dict is shared by bench and cli, so replacing its entries
    # reaches both
    registry = estimators.ESTIMATORS
    for kind, fn in list(registry.items()):
        registry[kind] = tracer.wrap("estimators", fn, count="estimators.estimates")
    tracer.patch(cli, "second_moment_probe", "estimators")
    for name in ("esgs_dd_known", "esgs_dd_unknown"):
        tracer.patch(bench, name, "decision", count="estimators.estimates")

    tracer.patch(optimizer, "schedule_values", "optimizer.schedule")
    tracer.patch(optimizer, "step", "optimizer.step", count="optimizer.iterations")
    tracer.patch(optimizer, "project", "projections.project")
    tracer.patch(bench, "run", "optimizer.run")

    for name in ("run_benchmark", "run_dd_benchmark", "run_problem"):
        tracer.patch(bench, name, "bench")
    for name in ("emit_csv", "emit_aggregate_csv", "emit_trajectory"):
        tracer.patch(bench, name, "cli.write")
    resolve_out = bench.output_dir
    bench.output_dir = lambda *args: _TimedPath(tracer, resolve_out(*args))


def trace(trace_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from zosmooth import cli

    code = cli.main(cli_args)
    Path(trace_path).write_text(json.dumps(tracer.metrics()))
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup(argv[1], argv[2])
    if len(argv) >= 2 and argv[0] == "trace":
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
