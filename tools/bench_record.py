"""Paired benchmark records: the before/after files a perf claim cites.

    python3 tools/bench_record.py pair --parent DIR --label L [--seeds A-B]
    python3 tools/bench_record.py compare BENCH_L_parent.json BENCH_L_change.json

``pair`` runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` (the command ``BENCHMARK.json`` declares, with its
``run_seconds`` as T) in the checkout DIR, the parent, and in this tree,
the change, once per workload of ``BENCHMARK.json`` and seed.  The
two sides run one after the other, and the side that runs first alternates
with the seed and with the workload, so the host's drift falls on both.  It
reads the last JSON line of each run's output and writes
``BENCH_<L>_parent.json`` and ``BENCH_<L>_change.json`` at the root of this
tree, again after every pair, so an interrupted recording keeps its rounds.
The seeds default to 1-10.

Each file holds the host facts (CPU count and architecture, the Python
and numpy versions of the interpreter that ran the benchmark, the tree's
git revision and whether it was dirty, the BLAS thread variables and
``PYTHONDONTWRITEBYTECODE``) and, per workload, every round with its seed
and metric values and, per end-to-end metric, the median, quartiles and
count of the correct rounds' values.  A round that reports ``correct:
false``, or exits without a JSON line, is kept in ``rounds`` as failed and
counted in ``failed_rounds``; its values are left out of the statistics.
Quartiles are ``statistics.quantiles(..., method="inclusive")``.

``compare A B`` prints, per workload and end-to-end metric, the median
[q1, q3] of A and of B, the change in %, how many seeds read lower in B
than in A among those both sides ran correctly, and whether B's median is
within the metric's ``BENCHMARK.json`` bound of A's.  It exits 0 once both
files are read, whatever the verdicts; 1 when a file cannot be read.

Run from anywhere; this script imports nothing from ``zosmooth``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "PYTHONDONTWRITEBYTECODE",
)


def load_benchmark() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` (inclusive) or ``"A"`` as a list of seeds >= 0."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match is None or (match[2] is not None and int(match[2]) < int(match[1])):
        raise ValueError(f"seeds must be A-B with 0 <= A <= B, got {text!r}")
    first = int(match[1])
    return list(range(first, int(match[2] or first) + 1))


def last_json(stdout: str) -> dict | None:
    """The last line of ``stdout`` that is a JSON object, or None."""
    for line in reversed(stdout.splitlines()):
        try:
            result = json.loads(line)
        except ValueError:
            continue
        if isinstance(result, dict):
            return result
    return None


def round_record(seed: int, first: bool, returncode: int, stdout: str) -> dict:
    """One run of one workload at one seed, as the record keeps it."""
    result = last_json(stdout)
    record = {
        "seed": seed,
        "first": first,
        "exit": returncode,
        "correct": False,
        "attempted": None,
        "failed": None,
        "metrics": {},
    }
    if result is None:
        record["error"] = "no JSON line in the output"
        return record
    record["correct"] = result.get("correct") is True and returncode == 0
    record["attempted"] = result.get("attempted")
    record["failed"] = result.get("failed")
    record["metrics"] = {
        name: entry["value"] for name, entry in result.get("metrics", {}).items()
    }
    return record


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of ``values`` (None when empty)."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "count": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


def workload_entry(rounds: list[dict], metrics: list[dict]) -> dict:
    """A workload's rounds and, per end-to-end metric, the statistics of
    the correct rounds' values."""
    entry = {
        "rounds": rounds,
        "failed_rounds": sum(not r["correct"] for r in rounds),
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        good = [r["metrics"][name] for r in rounds if r["correct"] and name in r["metrics"]]
        entry["metrics"][name] = {"unit": metric["unit"], **summary(good)}
    return entry


def _git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout


def host_facts(tree: Path, python: str) -> dict:
    """The facts a reader needs to tell two records' hosts and trees apart."""
    script = "import platform, numpy; print(platform.python_version(), numpy.__version__)"
    versions = subprocess.run(
        [python, "-c", script], capture_output=True, text=True
    ).stdout.split()
    revision = _git(tree, "rev-parse", "HEAD")
    status = _git(tree, "status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": versions[0] if len(versions) == 2 else None,
        "numpy": versions[1] if len(versions) == 2 else None,
        "git_revision": revision.strip() if revision else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "environment": {name: os.environ.get(name) for name in HOST_VARIABLES},
    }


def run_round(
    tree: Path, command: list[str], workload: str, seed: int, seconds: float, first: bool
) -> dict:
    """Run the benchmark command in ``tree`` for one workload and seed."""
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    record = round_record(seed, first, done.returncode, done.stdout)
    if not record["correct"] and done.stderr:
        record["stderr"] = done.stderr[-2000:]
    return record


def cmd_pair(args) -> int:
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        raise ValueError(f"label must be letters, digits, '_', '.' or '-', got {args.label!r}")
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    if not (trees["parent"] / "perfbench" / "run.py").is_file():
        raise ValueError(f"no perfbench/run.py in {trees['parent']}")
    records = {
        side: {
            "label": args.label,
            "side": side,
            "command": bench["command"],
            "seconds": seconds,
            "host": host_facts(tree, bench["command"][0]),
            "workloads": {},
        }
        for side, tree in trees.items()
    }
    rounds = {side: {w: [] for w in workloads} for side in trees}
    for i, seed in enumerate(seeds):
        for j, workload in enumerate(workloads):
            order = ["change", "parent"] if (i + j) % 2 == 0 else ["parent", "change"]
            for side in order:
                record = run_round(
                    trees[side], bench["command"], workload, seed, seconds, side == order[0]
                )
                rounds[side][workload].append(record)
                verdict = "ok" if record["correct"] else "FAILED"
                print(f"{workload} seed {seed} {side}: {verdict}", file=sys.stderr, flush=True)
            for side, record in records.items():
                record["workloads"] = {
                    w: workload_entry(rs, metrics) for w, rs in rounds[side].items() if rs
                }
                path = ROOT / f"BENCH_{args.label}_{side}.json"
                path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote BENCH_{args.label}_parent.json and BENCH_{args.label}_change.json")
    return 0


def _stats(entry: dict) -> str:
    if entry["count"] == 0:
        return "n/a"
    return f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"


def compare_lines(a: dict, b: dict, metrics: list[dict]) -> list[str]:
    """The comparison of record ``b`` against record ``a``, one line each."""
    lines = [
        f"{a['label']} {a['side']} ({a['host'].get('git_revision')}) -> "
        f"{b['label']} {b['side']} ({b['host'].get('git_revision')}, "
        f"dirty {b['host'].get('git_dirty')})"
    ]
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            lines.append(f"{workload}: missing from {b['side']}")
            continue
        lines.append(
            f"{workload}: failed rounds {wa['failed_rounds']}/{len(wa['rounds'])} -> "
            f"{wb['failed_rounds']}/{len(wb['rounds'])}"
        )
        correct_a = {r["seed"]: r for r in wa["rounds"] if r["correct"]}
        correct_b = {r["seed"]: r for r in wb["rounds"] if r["correct"]}
        for metric in metrics:
            name = metric["name"]
            ea, eb = wa["metrics"].get(name), wb["metrics"].get(name)
            if not ea or not eb or ea["count"] == 0 or eb["count"] == 0:
                lines.append(f"  {name}: n/a")
                continue
            pairs = [
                (correct_a[s]["metrics"][name], correct_b[s]["metrics"][name])
                for s in correct_a.keys() & correct_b.keys()
                if name in correct_a[s]["metrics"] and name in correct_b[s]["metrics"]
            ]
            lower = sum(vb < va for va, vb in pairs)
            change = eb["median"] / ea["median"] - 1.0 if ea["median"] else float("nan")
            worse = change if metric["better"] == "lower" else -change
            verdict = "within" if worse <= metric["bound"] else "OUTSIDE"
            lines.append(
                f"  {name}: {_stats(ea)} -> {_stats(eb)} {metric['unit']} "
                f"({100 * change:+.1f}%, {lower}/{len(pairs)} lower; "
                f"{verdict} its {100 * metric['bound']:.0f}% bound)"
            )
    return lines


def cmd_compare(args) -> int:
    records = []
    for path in (args.a, args.b):
        with open(path) as fh:
            records.append(json.load(fh))
    for line in compare_lines(*records, load_benchmark()["end_to_end"]):
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = sub.add_parser("pair", help="record the parent and this tree, alternating")
    pair.add_argument("--parent", required=True, help="checkout of the parent commit")
    pair.add_argument("--label", required=True)
    pair.add_argument("--seeds", default="1-10", help="A-B, inclusive")
    pair.set_defaults(func=cmd_pair)
    compare = sub.add_parser("compare", help="print B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}" if isinstance(exc, KeyError) else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
