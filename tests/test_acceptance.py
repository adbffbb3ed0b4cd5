"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance, prints one PASS/FAIL line (run pytest with -s to see them), and
asserts the criterion plus its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from zosmooth.bench import BenchConfig, emit_csv, run_benchmark, run_dd_benchmark, run_problem
from zosmooth.estimators import (
    ESTIMATORS,
    StochasticOracle,
    esgs_estimate,
    gs_estimate,
    second_moment_probe,
)
from zosmooth.optimizer import Schedule, sample_iterate_index, step_sizes
from zosmooth.problems import (
    error_metric,
    nonconvex_min_problem,
    piecewise_linear_problem,
    quad_l1_problem,
)
from zosmooth.rng import RandomStream
from zosmooth.smoothing import smoothed_gradient_quadrature

from recorder import Recorder


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nCRITERION {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def linear_first_coordinate_oracle(l0):
    def eval_fn(x, xi):
        return l0 * x[..., 0]

    def eval_axis(base, moved, xi):
        # only coordinate 1 moves F: the other replacements keep F(base)
        values = np.broadcast_to(l0 * base[:, None, :1], moved.shape).copy()
        values[:, :, 0] = l0 * moved[:, :, 0]
        return values

    return StochasticOracle(
        eval=eval_fn,
        noise_sampler=lambda stream, size: np.zeros(size),
        eval_axis=eval_axis,
    )


def test_criterion_1_unbiasedness_oracle_equivalence():
    t0 = time.perf_counter()
    eta = 0.3
    x = np.array([0.4, -0.2])

    def f(p):
        return np.abs(p[..., 0]) + p[..., 1] ** 2

    oracle = StochasticOracle(
        eval=lambda p, xi: f(p),
        noise_sampler=lambda s, size: np.zeros(size),
    )
    count = 200_000
    stream = RandomStream(1001)
    acc = np.zeros(2)
    acc_sq = np.zeros(2)
    for _ in range(count):
        g = esgs_estimate(oracle, x, eta, stream).estimate
        acc += g
        acc_sq += g * g
    mean = acc / count
    se = np.sqrt((acc_sq / count - mean**2) / count)
    reference = smoothed_gradient_quadrature(f, x, eta, kink_coords=[0])
    combined = 4.0 * se + 1e-6 * np.abs(reference)
    deviation = np.abs(mean - reference)
    elapsed = time.perf_counter() - t0
    report(
        1,
        bool(np.all(deviation < combined)) and elapsed < 30.0,
        f"MC mean {mean} vs quadrature {reference}, deviation/4se "
        f"{deviation / (4.0 * se)}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_moment_bound_suite():
    t0 = time.perf_counter()
    eta = 0.05
    l0 = 3.0
    details = []
    ok = True
    for n in (10, 50, 200):
        lin = linear_first_coordinate_oracle(l0)
        probe_lin = second_moment_probe(
            esgs_estimate, lin, np.zeros(n), eta, 20_000, RandomStream(2001, n)
        )
        bound_lin = 4.0 / math.pi * l0**2 * n * 1.1
        pl = piecewise_linear_problem(n, 0.0)
        probe_pl = second_moment_probe(
            esgs_estimate, pl.oracle, pl.x0, eta, 20_000, RandomStream(2002, n)
        )
        bound_pl = 4.0 / math.pi * pl.l0**2 * n * 1.1
        ok = ok and probe_lin <= bound_lin and probe_pl <= bound_pl
        details.append(f"n={n}: lin {probe_lin:.1f}<={bound_lin:.0f} pl {probe_pl:.1f}<={bound_pl:.0f}")
    n = 200
    lin = linear_first_coordinate_oracle(l0)
    probe_es = second_moment_probe(
        esgs_estimate, lin, np.zeros(n), eta, 10_000, RandomStream(2003)
    )
    probe_gs = second_moment_probe(
        gs_estimate, lin, np.zeros(n), eta, 10_000, RandomStream(2004)
    )
    ratio = probe_gs / probe_es
    ok = ok and ratio >= 10.0
    elapsed = time.perf_counter() - t0
    report(
        2,
        ok and elapsed < 60.0,
        "; ".join(details) + f"; gs/esgs ratio at n=200: {ratio:.0f} (>= 10), "
        f"{elapsed:.1f}s (< 60s)",
    )


def closed_form_moments(kind, n, l0):
    """Mean and variance of ||g||^2 on F = l0 * x_1 at any x and eta.

    esgs: ||g||^2 = (4/pi) l0^2 V with V ~ Exp(1).  gs: l0^2 Z_1^2 ||Z||^2,
    whose square has mean l0^4 (105 + 30(n-1) + 3(n-1)(n+1)).  spherical:
    n^2 l0^2 u_1^2 with u uniform on the sphere.  spsa: n l0^2 always.
    """
    if kind == "esgs":
        return 4.0 / math.pi * l0**2, 16.0 / math.pi**2 * l0**4
    if kind == "gs":
        mean = l0**2 * (n + 2)
        fourth = l0**4 * (105 + 30 * (n - 1) + 3 * (n - 1) * (n + 1))
        return mean, fourth - mean**2
    if kind == "spherical":
        return n * l0**2, n**2 * (2 * n - 2) / (n + 2) * l0**4
    return n * l0**2, 0.0


def test_criterion_2_closed_form_moments():
    # each probe within 5 standard errors of its closed form; spsa's
    # ||g||^2 is a constant, met to rounding
    t0 = time.perf_counter()
    eta = 0.05
    l0, samples = 3.0, 5000
    details = []
    ok = True
    for i, kind in enumerate(("esgs", "gs", "spherical", "spsa")):
        for n in (10, 50, 200):
            probe = second_moment_probe(
                ESTIMATORS[kind], linear_first_coordinate_oracle(l0), np.zeros(n),
                eta, samples, RandomStream(2005 + i, n),
            )
            mean, variance = closed_form_moments(kind, n, l0)
            if kind == "spsa":
                error = abs(probe - mean) / mean
                ok = ok and error <= 1e-12
                details.append(f"{kind} n={n}: rel {error:.1e}")
            else:
                z = (probe - mean) / math.sqrt(variance / samples)
                ok = ok and abs(z) <= 5.0
                details.append(f"{kind} n={n}: z {z:+.2f}")
    elapsed = time.perf_counter() - t0
    report(
        2,
        ok and elapsed < 30.0,
        "; ".join(details) + f"; {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_convex_rate_slope():
    t0 = time.perf_counter()
    n = 50
    problem = piecewise_linear_problem(n, 0.0)
    schedule = Schedule(kind="convex_diminishing", n=n)
    horizons = [128, 512, 2048, 8192]
    streams = [RandomStream(3001, substream_id=rep) for rep in range(20)]
    rec = Recorder(at=horizons)
    run_problem(problem, "esgs", schedule, 8192, streams, observe=rec)
    errors = {K: [error_metric(problem, xbar) for xbar in rec.average[K]] for K in horizons}
    means = np.array([np.mean(errors[K]) for K in horizons])
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    elapsed = time.perf_counter() - t0
    report(
        3,
        -0.65 <= slope <= -0.35 and elapsed < 300.0,
        f"mean f(xbar_K)-f* = {np.array2string(means, precision=4)} over K={horizons}, "
        f"log-log slope {slope:.3f} in [-0.65, -0.35], {elapsed:.0f}s (< 300s)",
    )


def test_criterion_4_strongly_convex_rate_slope():
    t0 = time.perf_counter()
    problem = quad_l1_problem(10, 5, l1_weight=0.0)  # smooth strongly convex quad
    theta = 2.0 / problem.mu
    schedule = Schedule(kind="strongly_convex", theta=theta, mu=problem.mu)
    ks = [100, 316, 1000, 3162, 10000]
    streams = [RandomStream(4001, substream_id=rep) for rep in range(20)]
    rec = Recorder(at=ks)
    run_problem(problem, "esgs", schedule, 10_000, streams, observe=rec)
    sq = {k: [float(np.sum((x - problem.x_star) ** 2)) for x in rec.x[k]] for k in ks}
    means = np.array([np.mean(sq[k]) for k in ks])
    slope = float(np.polyfit(np.log(ks), np.log(means), 1)[0])
    elapsed = time.perf_counter() - t0
    report(
        4,
        -1.2 <= slope <= -0.8 and elapsed < 300.0,
        f"mean ||x_k - x*||^2 log-log slope {slope:.3f} in [-1.2, -0.8] over "
        f"k={ks}, {elapsed:.0f}s (< 300s)",
    )


CRITERION_5_CONFIG = {
    "problem": "quad_l1",
    "problem_params": {"n": 200, "seed": 11},
    "estimators": ["esgs", "gs"],
    "iterations": 200,
    "replications": 20,
    "base_seed": 5001,
}


def test_criterion_5_head_to_head_equal_budget():
    t0 = time.perf_counter()
    config = BenchConfig.from_dict(CRITERION_5_CONFIG)
    summary = run_benchmark(config)
    calls = {row.oracle_calls for row in summary.rows}
    esgs, gs = summary.report["esgs"], summary.report["gs"]
    err_ratio = esgs["mean_error"] / gs["mean_error"]
    time_ratio = esgs["mean_wall_time_ms"] / gs["mean_wall_time_ms"]
    elapsed = time.perf_counter() - t0
    report(
        5,
        len(calls) == 1
        and err_ratio <= 1.0 / 3.0
        and time_ratio <= 1.0 / 5.0
        and elapsed < 600.0,
        f"equal budget {calls}; mean error esgs/gs = {err_ratio:.3f} (<= 1/3); "
        f"mean time esgs/gs = {time_ratio:.4f} (<= 1/5); {elapsed:.0f}s (< 600s)",
    )


def test_criterion_6_nonconvex_stationarity():
    t0 = time.perf_counter()
    n = 50
    problem = nonconvex_min_problem(n)
    eta = 1.0
    schedule = Schedule(
        kind="nonconvex_fixed_eta", eta_fixed=eta, l0=2.0 * math.sqrt(n), n=n
    )
    horizons = [256, 1024, 4096]
    replications = 20
    residuals = {K: [] for K in horizons}
    close = 0
    # start away from the kink surface and from the stationary points so the
    # residual path is decreasing from the first iterate (the origin is
    # itself a stationary point of the smoothed objective)
    x0 = 2.0 * np.ones(n)
    streams = [RandomStream(6001, substream_id=rep) for rep in range(replications)]
    # each row's index R_K, drawn before the run from a substream of its own
    # (drawing from the row's stream would move every draw of the run); the
    # run then keeps only the drawn iterates
    gammas = step_sizes(schedule, 4096)
    index = {}
    for rep in range(replications):
        pick = RandomStream(6001, substream_id=(rep, 1))
        for K in horizons:
            index[rep, K] = sample_iterate_index(gammas[:K], pick)
    rec = Recorder(at=index.values())
    trajs = run_problem(problem, "esgs", schedule, 4096, streams, x0=x0, observe=rec)
    for rep, traj in enumerate(trajs):
        for K in horizons:
            x_r = rec.x[index[rep, K]][rep]
            g = problem.smoothed_gradient(x_r, eta)
            residuals[K].append(float(g @ g))
        final = traj.x
        dist = min(
            float(np.max(np.abs(final - 1.0))), float(np.max(np.abs(final + 1.0)))
        )
        close += dist < 0.3
    means = [float(np.mean(residuals[K])) for K in horizons]
    decreasing = means[0] > means[1] > means[2]
    fraction = close / replications
    elapsed = time.perf_counter() - t0
    report(
        6,
        decreasing and fraction >= 0.8 and elapsed < 300.0,
        f"mean ||grad f_eta(x_RK)||^2 = {[f'{m:.1f}' for m in means]} decreasing; "
        f"{fraction:.0%} of runs within 0.3 of a stationary point (>= 80%); "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_7_decision_dependent_targets():
    t0 = time.perf_counter()
    config = BenchConfig.from_dict(
        {
            "problem": "market",
            "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
            "iterations": {"esgs_dd_known": 150_000, "esgs_dd_unknown": 25_000},
            "replications": 20,
            "base_seed": 7001,
        }
    )
    summary = run_dd_benchmark(config)
    ok = True
    details = []
    for mode in ("esgs_dd_known", "esgs_dd_unknown"):
        to_opt = summary.report[mode]["mean_abs_x1_minus_opt"]
        to_stable = summary.report[mode]["mean_abs_x1_minus_stable"]
        ok = ok and to_opt < 0.1 and to_stable > 0.1
        details.append(
            f"{mode}: mean |x1 - 3.2143| = {to_opt:.3f} (< 0.1), "
            f"mean |x1 - 3.0| = {to_stable:.3f} (> 0.1)"
        )
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 300.0, "; ".join(details) + f"; {elapsed:.0f}s (< 300s)")


def test_criterion_8_high_probability_shape():
    t0 = time.perf_counter()
    n = 20
    problem = piecewise_linear_problem(n, 0.0)
    schedule = Schedule(kind="custom", alpha=0.5, beta=0.5)  # gamma=eta=(k+1)^-1/2
    fit_k, check_k = 512, 4096
    streams = [RandomStream(8001, substream_id=rep) for rep in range(100)]
    rec = Recorder(at=[fit_k, check_k])
    run_problem(problem, "esgs", schedule, check_k, streams, observe=rec)
    errors = {
        K: [error_metric(problem, xbar) for xbar in rec.average[K]]
        for K in (fit_k, check_k)
    }
    q95_fit = float(np.quantile(errors[fit_k], 0.95))
    q95_check = float(np.quantile(errors[check_k], 0.95))
    c_fit = q95_fit * math.sqrt(fit_k) / (n * math.log(fit_k))
    bound = c_fit * n * math.log(check_k) / math.sqrt(check_k)
    elapsed = time.perf_counter() - t0
    report(
        8,
        q95_check <= bound and elapsed < 600.0,
        f"95th pct at K={check_k}: {q95_check:.5f} <= C*n*ln(K)/sqrt(K) = "
        f"{bound:.5f} with C fitted at K={fit_k}; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_9_determinism_and_budget(tmp_path):
    t0 = time.perf_counter()
    # rerun the criterion-5 configuration (replication count reduced to keep
    # the double run cheap) and compare emitted CSVs byte for byte with the
    # measured-time column masked; oracle budgets must agree exactly.
    config = BenchConfig.from_dict(
        {**CRITERION_5_CONFIG, "replications": 4, "iterations": 50}
    )
    dd_config = BenchConfig.from_dict(
        {
            "problem": "market",
            "estimators": ["esgs_dd_known", "esgs_dd_unknown"],
            "iterations": 2000,
            "replications": 4,
            "base_seed": 9001,
        }
    )

    def masked(path):
        lines = path.read_text().splitlines()
        out = []
        for line in lines[1:]:
            fields = line.split(",")
            fields[5] = "T"
            out.append(",".join(fields))
        return lines[0], out

    csvs = []
    budgets_ok = True
    for attempt in range(2):
        rows = run_benchmark(config).rows
        path = tmp_path / f"run_{attempt}.csv"
        emit_csv(rows, path)
        csvs.append(masked(path))
        budgets_ok = budgets_ok and len({r.oracle_calls for r in rows}) == 1
    identical = csvs[0] == csvs[1]

    dd_rows_a = run_dd_benchmark(dd_config).rows
    dd_rows_b = run_dd_benchmark(dd_config).rows
    strip = lambda r: (r.estimator, r.replication, r.metrics["final_x1"],
                       r.metrics["dist_to_optimum"], r.metrics["dist_to_stable"],
                       r.oracle_calls, r.seed)
    dd_identical = [strip(r) for r in dd_rows_a] == [strip(r) for r in dd_rows_b]
    dd_budget = len({r.oracle_calls for r in dd_rows_a}) == 1
    elapsed = time.perf_counter() - t0
    report(
        9,
        identical and dd_identical and budgets_ok and dd_budget and elapsed < 600.0,
        f"benchmark CSV rerun identical modulo timing: {identical}; DD rerun "
        f"identical: {dd_identical}; oracle budgets exactly equal within "
        f"groups: {budgets_ok and dd_budget}; {elapsed:.0f}s",
    )
