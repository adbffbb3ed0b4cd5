"""Command-line benchmark harness.

Subcommands
-----------
moments   Second-moment scaling table for the estimators across dimensions.
run       One benchmark from a JSON config; writes raw rows and, optionally,
          per-iterate trajectory dumps.
compare   Estimator grid under an equal oracle budget; writes raw rows, a
          mean/stddev aggregate table and, optionally, trajectory dumps.
dd        Market problem under both decision-dependent protocols; writes raw
          rows, the convergence-target report and, optionally, trajectory
          dumps.

Flags: ``--config <path>`` (run, compare, dd), ``--seed <u64>`` (overrides
the config's base seed; moments defaults to 7), ``--out <dir>`` (also via the
ZOSMOOTH_OUT environment variable; the first table written makes it).

Exit status: 0 on success; 1 for an invalid configuration, input or output
path, or an allocation that fails (``MemoryError``); 2 for a command-line
usage error; 3 when a decision-dependent oracle exceeds its declared ratio
or value bound; 4 when an estimate or iterate becomes non-finite; 6 when
the config gives kinds different oracle budgets (checked before any kind
runs).  Status 5 is unused: no subcommand runs the smoothing quadrature.
Every error is reported as one ``error:`` line on standard error.

A recorded run that fails, or whose command is stopped by SIGTERM, removes
its trajectory tables and the output directories it made.  While a command
runs, SIGTERM ends it with exit status 143 (128 + 15) and no error line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import replace

import numpy as np

from . import bench
from .decision import RatioBoundError, ValueBoundError
from .estimators import StochasticOracle, second_moment_probe
from .optimizer import NonFiniteError
from .rng import RandomStream

# Exit status of each library error; the first matching class wins.
EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (bench.ConfigError, 1),
    (ValueError, 1),
    (OSError, 1),
    (MemoryError, 1),
    (RatioBoundError, 3),
    (ValueBoundError, 3),
    (NonFiniteError, 4),
    (bench.BudgetMismatchError, 6),
)

DEFAULT_DD_CONFIG = {
    "problem": "market",
    "problem_params": {},
    "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
    "iterations": {"esgs_dd_known": 150_000, "esgs_dd_unknown": 25_000},
    "replications": 20,
    "base_seed": 20240,
}


def _load_config(args) -> bench.BenchConfig:
    if args.config is None:
        raise bench.ConfigError("this subcommand requires --config <path>")
    config = bench.BenchConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    return config


def _cmd_moments(args) -> int:
    # checked before the output directory is made, so a bad value leaves
    # no partial table behind
    try:
        dims = [int(d) for d in args.dims.split(",")]
    except ValueError:
        dims = [0]
    if min(dims) < 1:
        raise ValueError(
            f"--dims must be comma-separated integers >= 1, got {args.dims!r}"
        )
    if len(set(dims)) < len(dims):
        raise ValueError(f"a dimension is listed twice in --dims {args.dims!r}")
    samples = args.samples
    if samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    seed = 7 if args.seed is None else args.seed
    out = bench.output_dir(None, args.out)
    path = out / "moments.csv"
    eta = 0.05
    # every probe runs before the table is opened, so a probe that fails
    # leaves no partial table behind
    rows = []
    for n in dims:
        # unit-Lipschitz linear test function: only coordinate 1 matters
        oracle = StochasticOracle(
            eval=lambda x, xi: x[..., 0],
            noise_sampler=lambda stream, size: np.zeros(size),
        )
        x = np.zeros(n)
        for kind, entry in bench.KINDS.items():
            if entry.oracle_field != "oracle":
                continue
            stream = RandomStream(seed, substream_id=n)
            probe = second_moment_probe(entry.estimator, oracle, x, eta, samples, stream)
            rows.append((kind, n, 1.0, samples, probe, 4.0 / np.pi * n))
    bench.write_table(
        path,
        ("estimator", "n", "l0", "samples", "second_moment", "bound_linear_n"),
        rows,
    )
    print(f"wrote {path}")
    return 0


def _cmd_benchmark(args) -> int:
    """Write the rows and ``compare``'s aggregate table of them (the run
    writes any recorded trajectories)."""
    config = _load_config(args)
    out = bench.output_dir(config.output, args.out)
    summary = bench.run_benchmark(replace(config, output=str(out)))
    written = [out / "results.csv"]
    bench.emit_csv(summary.rows, written[0])
    if args.command == "compare":
        written.append(out / "aggregate.csv")
        bench.emit_aggregate_csv(summary.rows, written[1])
    written += summary.trajectory_paths
    for kind in config.estimators:
        report = summary.report[kind]
        print(
            f"{kind}: mean error {report['mean_error']:.6g}, "
            f"mean time {report['mean_wall_time_ms']:.1f} ms"
        )
    print("wrote " + " and ".join(str(path) for path in written))
    return 0


def _cmd_dd(args) -> int:
    """Write the rows and print the report; the run writes any trajectories."""
    if args.config is not None:
        config = _load_config(args)
    else:
        config = bench.BenchConfig.from_dict(DEFAULT_DD_CONFIG)
        if args.seed is not None:
            config = replace(config, base_seed=args.seed)
    out = bench.output_dir(config.output, args.out)
    summary = bench.run_dd_benchmark(replace(config, output=str(out)))
    written = [out / "dd_results.csv", *summary.trajectory_paths]
    bench.emit_dd_csv(summary.rows, written[0])
    print(json.dumps(summary.report, indent=2))
    print("wrote " + " and ".join(str(path) for path in written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zosmooth-bench",
        description="Zeroth-order optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="base seed override")
        p.add_argument("--out", type=str, default=None, help="output directory")

    p_moments = sub.add_parser("moments", help="second-moment scaling table")
    p_moments.add_argument("--seed", type=int, default=None, help="seed (default 7)")
    p_moments.add_argument("--out", type=str, default=None, help="output directory")
    p_moments.add_argument(
        "--dims", type=str, default="10,50,200", help="comma-separated dimensions"
    )
    p_moments.add_argument("--samples", type=int, default=20_000)
    p_moments.set_defaults(func=_cmd_moments)

    p_run = sub.add_parser("run", help="single benchmark run")
    common(p_run)
    p_run.set_defaults(func=_cmd_benchmark)

    p_compare = sub.add_parser("compare", help="estimator grid at equal budget")
    common(p_compare)
    p_compare.set_defaults(func=_cmd_benchmark)

    p_dd = sub.add_parser("dd", help="decision-dependent market benchmark")
    common(p_dd)
    p_dd.set_defaults(func=_cmd_dd)
    return parser


def _terminate(signum, frame):
    # an exception, unlike the default action, unwinds through the cleanup
    # of a recorded run; 128 + 15 is the status a shell reports for SIGTERM
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        # checked before any subcommand runs, so no output directory is made
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # numpy's overflow warnings would print lines before the one-line
        # error; the NonFiniteError guards still stop every NaN and infinity
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
