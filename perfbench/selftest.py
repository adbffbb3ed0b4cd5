"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/selftest.py -q

The outputs are written here from known answers, so the tests need neither
zosmooth nor a CLI run.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

KINDS = ["esgs", "gs", "spherical", "spsa"]


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def failed(outcomes) -> set:
    return {op for op, reasons in outcomes.items() if reasons}


@pytest.fixture
def refs():
    """A small quadratic + l1 problem, solved here by proximal gradient."""
    gen = np.random.default_rng(3)
    d = gen.standard_normal((5, 5))
    q = d.T @ d / 5 + np.eye(5)
    b = 3.0 * gen.standard_normal(5)
    data = {"q_hat": q, "b": b, "l1_weight": np.array(0.5), "lo": -np.ones(5), "hi": np.ones(5)}
    t = 1.0 / np.linalg.norm(q, 2)
    x = np.zeros(5)
    for _ in range(1_000):
        u = x - t * (q @ x + b)
        x = np.clip(np.sign(u) * np.maximum(np.abs(u) - 0.5 * t, 0.0), -1.0, 1.0)
    data["x_star"] = x
    data["f_star"] = np.array(wl.quad_value(data, x))
    data["x0"] = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    return data


# ---------------------------------------------------------------------------
# quad_equal_budget

EQUAL = {"problem_params": {"n": 5}, "iterations": 3, "replications": 2, "estimators": KINDS}
EQUAL_ERRORS = {"esgs": [0.1, 0.2], "gs": [1.0, 2.0], "spherical": [0.9, 3.0], "spsa": [1.5, 1.2]}


def write_equal(out: Path, errors=EQUAL_ERRORS, calls=30, mean_shift=0.0) -> None:
    out.mkdir(exist_ok=True)
    rows = [
        ["quad_l1", 5, k, r, e, 10, calls, 1] for k in KINDS for r, e in enumerate(errors[k])
    ]
    write_csv(out / "results.csv", ["problem", "n", "estimator", "replication", "error", "wall_time_ms", "oracle_calls", "seed"], rows)
    agg = [
        ["quad_l1", 5, k, 2, float(np.mean(errors[k])) + mean_shift, 0.1, 10.0, 0.0, calls] for k in KINDS
    ]
    write_csv(
        out / "aggregate.csv",
        ["problem", "n", "estimator", "replications", "mean_error", "stddev_error", "mean_wall_time_ms", "stddev_wall_time_ms", "oracle_calls"],
        agg,
    )


def test_equal_budget_accepts_correct_output(tmp_path, refs):
    write_equal(tmp_path)
    assert failed(wl.check_equal_budget(tmp_path, EQUAL, refs)) == set()


def test_equal_budget_rejects_wrong_budget(tmp_path, refs):
    write_equal(tmp_path, calls=31)
    assert len(failed(wl.check_equal_budget(tmp_path, EQUAL, refs))) == 8


def test_equal_budget_rejects_error_below_optimum(tmp_path, refs):
    write_equal(tmp_path, errors=dict(EQUAL_ERRORS, esgs=[0.1, -1e-6]))
    assert failed(wl.check_equal_budget(tmp_path, EQUAL, refs)) == {("esgs", 1)}


def test_equal_budget_rejects_esgs_losing(tmp_path, refs):
    write_equal(tmp_path, errors=dict(EQUAL_ERRORS, esgs=[0.1, 0.95]))
    assert failed(wl.check_equal_budget(tmp_path, EQUAL, refs)) == {("esgs", 1), ("spherical", 0)}


def test_equal_budget_rejects_unconfirmed_optimum(tmp_path, refs):
    write_equal(tmp_path)
    refs["x_star"] = refs["x_star"] + 1e-4
    assert len(failed(wl.check_equal_budget(tmp_path, EQUAL, refs))) == 8


def test_equal_budget_rejects_wrong_aggregate(tmp_path, refs):
    write_equal(tmp_path, mean_shift=1e-6)
    assert len(failed(wl.check_equal_budget(tmp_path, EQUAL, refs))) == 8


def test_equal_budget_rejects_missing_row(tmp_path, refs):
    write_equal(tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    (tmp_path / "results.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert ("spsa", 1) in failed(wl.check_equal_budget(tmp_path, EQUAL, refs))


# ---------------------------------------------------------------------------
# quad_esgs_n1000

N1000 = {"problem_params": {"n": 5}, "iterations": 4, "replications": 2, "estimators": ["esgs"]}


def write_n1000(out: Path, refs, finals=None, traj=None) -> None:
    out.mkdir(exist_ok=True)
    start = wl.quad_value(refs, refs["x0"]) - float(refs["f_star"])
    finals = finals or [start / 20, start / 30]
    rows = [["quad_l1", 5, "esgs", r, e, 10, 40, 1] for r, e in enumerate(finals)]
    write_csv(out / "results.csv", ["problem", "n", "estimator", "replication", "error", "wall_time_ms", "oracle_calls", "seed"], rows)
    if traj is None:
        errors = np.linspace(start, finals[0], 5)
        errors[-1] = finals[0]
        traj = [[k, float(errors[k]), 10 * k] for k in range(5)]
    write_csv(out / "trajectory_esgs.csv", ["k", "error", "oracle_calls"], traj)


def test_n1000_accepts_correct_output(tmp_path, refs):
    write_n1000(tmp_path, refs)
    assert failed(wl.check_n1000(tmp_path, N1000, refs)) == set()


def test_n1000_rejects_slow_convergence(tmp_path, refs):
    start = wl.quad_value(refs, refs["x0"]) - float(refs["f_star"])
    write_n1000(tmp_path, refs, finals=[start / 20, start / 5])
    assert failed(wl.check_n1000(tmp_path, N1000, refs)) == {("esgs", 1)}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t[:-1],  # a step missing
        lambda t: [[k, e, c + 1] for k, e, c in t],  # budget off by one
        lambda t: [[0, t[0][1] * 1.01, 0]] + t[1:],  # wrong starting error
        lambda t: t[:-1] + [[4, t[-1][1] * 1.01, 40]],  # end differs from the run
    ],
)
def test_n1000_rejects_corrupt_trajectory(tmp_path, refs, corrupt):
    write_n1000(tmp_path, refs)
    rows = [line.split(",") for line in (tmp_path / "trajectory_esgs.csv").read_text().splitlines()[1:]]
    good = [[int(k), float(e), int(c)] for k, e, c in rows]
    write_n1000(tmp_path, refs, traj=corrupt(good))
    assert failed(wl.check_n1000(tmp_path, N1000, refs)) == {("esgs", 0)}


# ---------------------------------------------------------------------------
# market_dd

MARKET = {
    "problem_params": {"a": 4.5, "a1": 0.8, "a2": 0.2, "beta": 0.1, "l2": 0.5, "r2": 2.2, "box_half_width": 10.0},
    "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
    "iterations": {"esgs_dd_known": 6, "esgs_dd_unknown": 3},
    "replications": 3,
}


def write_market(out: Path, points=None, calls=None, stable=None) -> None:
    out.mkdir(exist_ok=True)
    x_star, x_ps = wl.market_targets(MARKET["problem_params"])
    stable = x_ps if stable is None else stable
    calls = calls or {"esgs_dd_known": 24, "esgs_dd_unknown": 12}
    if points is None:
        points = {k: [x_star + [0.03, -0.01], x_star + [-0.02, 0.02], x_star + [0.01, 0.0]] for k in calls}
    rows = []
    for kind, xs in points.items():
        for r, x in enumerate(xs):
            x = np.asarray(x, dtype=float)
            rows.append(
                [kind, r, float(x[0]), float(np.linalg.norm(x - x_star)), float(np.linalg.norm(x - stable)), 100, calls[kind], 1]
            )
    write_csv(
        out / "dd_results.csv",
        ["mode", "replication", "final_x1", "dist_to_optimum", "dist_to_stable", "wall_time_ms", "oracle_calls", "seed"],
        rows,
    )


def test_market_accepts_correct_output(tmp_path):
    write_market(tmp_path)
    assert failed(wl.check_market(tmp_path, MARKET, None)) == set()


def test_market_rejects_stable_point(tmp_path):
    x_star, x_ps = wl.market_targets(MARKET["problem_params"])
    write_market(tmp_path, points={"esgs_dd_known": [x_ps] * 3, "esgs_dd_unknown": [x_star] * 3})
    assert failed(wl.check_market(tmp_path, MARKET, None)) == {("esgs_dd_known", r) for r in range(3)}


def test_market_rejects_wrong_x2(tmp_path):
    x_star, _ = wl.market_targets(MARKET["problem_params"])
    write_market(tmp_path, points={"esgs_dd_known": [x_star] * 3, "esgs_dd_unknown": [x_star + [0.0, 0.2]] * 3})
    assert failed(wl.check_market(tmp_path, MARKET, None)) == {("esgs_dd_unknown", r) for r in range(3)}


def test_market_rejects_wrong_budget(tmp_path):
    write_market(tmp_path, calls={"esgs_dd_known": 24, "esgs_dd_unknown": 6})
    assert failed(wl.check_market(tmp_path, MARKET, None)) == {("esgs_dd_unknown", r) for r in range(3)}


def test_market_rejects_distances_to_a_wrong_target(tmp_path):
    write_market(tmp_path, stable=np.array([3.0, 3.0]))
    assert len(failed(wl.check_market(tmp_path, MARKET, None))) == 6


def test_market_rejects_non_finite_and_outside_box(tmp_path):
    x_star, _ = wl.market_targets(MARKET["problem_params"])
    points = {
        "esgs_dd_known": [x_star, [math.nan, 3.0], x_star],
        "esgs_dd_unknown": [x_star, x_star, [10.5, 3.375]],
    }
    write_market(tmp_path, points=points)
    got = failed(wl.check_market(tmp_path, MARKET, None))
    assert {("esgs_dd_known", 1), ("esgs_dd_unknown", 2)} <= got


# ---------------------------------------------------------------------------
# moments_generic


def write_moments(out: Path, shift=None, bound_scale=1.0, samples=wl.MOMENT_SAMPLES) -> None:
    out.mkdir(exist_ok=True)
    rows = []
    for n in wl.MOMENT_DIMS:
        for kind in KINDS:
            mean, var = wl.moment_reference(kind, n)
            value = mean + (shift(kind, n, math.sqrt(var / samples)) if shift else 0.0)
            rows.append([kind, n, 1.0, samples, float(value), 4.0 / math.pi * n * bound_scale])
    write_csv(out / "moments.csv", ["estimator", "n", "l0", "samples", "second_moment", "bound_linear_n"], rows)


def test_moments_accept_values_within_tolerance(tmp_path):
    write_moments(tmp_path, shift=lambda kind, n, se: 4.5 * se)
    assert failed(wl.check_moments(tmp_path, {}, None)) == set()


def test_moments_reject_far_value(tmp_path):
    write_moments(tmp_path, shift=lambda kind, n, se: 6.0 * se if kind == "gs" and n == 50 else 0.0)
    assert failed(wl.check_moments(tmp_path, {}, None)) == {("gs", 50)}


def test_moments_reject_inexact_spsa(tmp_path):
    write_moments(tmp_path, shift=lambda kind, n, se: 1e-9 if kind == "spsa" and n == 10 else 0.0)
    assert failed(wl.check_moments(tmp_path, {}, None)) == {("spsa", 10)}


def test_moments_reject_wrong_columns(tmp_path):
    write_moments(tmp_path, bound_scale=2.0)
    assert len(failed(wl.check_moments(tmp_path, {}, None))) == 12
    write_moments(tmp_path, samples=wl.MOMENT_SAMPLES - 1)
    assert len(failed(wl.check_moments(tmp_path, {}, None))) == 12


def test_missing_output_fails_every_operation(tmp_path, refs):
    assert len(failed(wl.check_moments(tmp_path, {}, None))) == 12
    assert len(failed(wl.check_market(tmp_path, MARKET, None))) == 6
    assert len(failed(wl.check_n1000(tmp_path, N1000, refs))) == 2
    assert len(failed(wl.check_equal_budget(tmp_path, EQUAL, refs))) == 8


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
