"""Benchmark of the zosmooth CLI on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is not installed: each round
runs ``python -m zosmooth.cli`` with ``PYTHONPATH=src`` in a fresh process
and waits for it to end.  A run sets up ``SETUP_REPEATS`` times, then
repeats whole rounds of the same CLI invocation as long as another round
is expected to end within ``--seconds`` (at least one round), checks every
round's output and reports the median of each metric.  ``--trace 1``
instead pairs each untraced round with a traced one (see ``child.py``) and
reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The children do their linear algebra on one BLAS thread, so that a run
# (this waiting process plus one child) keeps within two CPUs.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

from workloads import WORKLOADS  # noqa: E402  (after the thread settings)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_process(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run ``argv`` to its end; return wall seconds, peak RSS in MB, exit code."""
    with log.open("w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_once(workload, refs: Path | None, log: Path) -> float:
    config = str(workload.config_path()) if workload.config else "-"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", config, str(refs) if refs else "-"]
    _, _, code = timed_process(argv, log)
    lines = log.read_text().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"set-up of {workload.name} failed (exit {code}); see {log}")
    return float(json.loads(lines[-1])["setup_s"])


class Run:
    """Rounds of one workload at one seed, with their checks."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.config = workload.load_config()
        self.dir = OUT / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.refs = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def set_up(self, repeats: int) -> list[float]:
        refs_path = self.dir / "refs.npz" if self.workload.needs_refs else None
        times = [setup_once(self.workload, refs_path, self.dir / "setup0.log")]
        times += [setup_once(self.workload, None, self.dir / f"setup{i}.log") for i in range(1, repeats)]
        if refs_path is not None:
            import numpy as np

            with np.load(refs_path) as data:
                self.refs = {k: data[k] for k in data.files}
            refs_path.unlink()  # 8 MB at n = 1000
        return times

    def round(self, index: int, traced: bool) -> tuple[float, float, dict | None]:
        tag = f"round{index}" + ("-traced" if traced else "")
        out = self.dir / tag
        shutil.rmtree(out, ignore_errors=True)
        cli_args = self.workload.cli_args(self.seed, out)
        trace_path = self.dir / f"{tag}.trace.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(trace_path)] + cli_args
        else:
            argv = [sys.executable, "-m", "zosmooth.cli"] + cli_args
        wall, rss, code = timed_process(argv, self.dir / f"{tag}.log")
        outcomes = self.workload.check(out, self.config, self.refs)
        if code != 0:
            for reasons in outcomes.values():
                reasons.append(f"CLI exit code {code}; see {self.dir / (tag + '.log')}")
        self.attempted += len(outcomes)
        for op, reasons in outcomes.items():
            if reasons:
                self.failed += 1
                self.reasons.append(f"{tag} {op}: {'; '.join(reasons)}")
        layers = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return wall, rss, layers


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    setups = run.set_up(1 if trace else SETUP_REPEATS)
    walls, rss, traced_walls, layers = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        wall, peak, _ = run.round(index, traced=False)
        walls.append(wall)
        rss.append(peak)
        if trace:
            wall, _, layer = run.round(index, traced=True)
            traced_walls.append(wall)
            if layer is not None:
                layers.append(layer)
        index += 1
        # stop before a round that would likely end past the time limit
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break

    if trace:
        metrics = {}
        for name in layers[0] if layers else ():
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(l[name] for l in layers), "unit": unit}
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "rounds": index,
        "walls": walls,
        "correct": run.failed == 0 and (bool(layers) or not trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "reasons": run.reasons,
        "metrics": metrics,
    }


def report(name: str, seed: int, result: dict) -> None:
    walls = ", ".join(f"{w:.3f}" for w in result["walls"])
    print(
        f"{name} seed {seed}: {result['rounds']} round(s), "
        f"attempted {result['attempted']}, failed {result['failed']}; untraced walls [{walls}] s"
    )
    for reason in result["reasons"][:20]:
        print(f"  FAILED {reason}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "zosmooth" / "cli.py").is_file():
        print(f"perfbench: no zosmooth sources at {SRC / 'zosmooth'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(name, args.seed, results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
