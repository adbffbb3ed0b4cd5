"""The four benchmark workloads and the checks on their outputs.

Every check compares the CLI's output files with a computation made here,
or tests a property the method must have.  None rests on a timing or on a
stored copy of earlier output.  A check returns, for each operation the
workload attempts, the list of reasons it failed (empty when it passed).
An operation is one (estimator, replication) run or one (estimator, n)
moment probe.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Lowest error a run may report: f* is the minimum, up to rounding.
ERROR_FLOOR = -1e-9
# Largest proximal-gradient fixed-point residual accepted at x_star.
RESIDUAL_TOL = 1e-9
# Moment probes must land within this many closed-form standard errors.
MOMENT_SES = 5.0

MOMENT_DIMS = (10, 50, 200)
MOMENT_SAMPLES = 5_000

Outcomes = dict[tuple, list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str | None  # file in configs/, passed as --config and built for setup_s
    extra_args: tuple[str, ...]
    needs_refs: bool  # the check needs the built quadratic problem's data
    check: Callable[[Path, dict, dict | None], Outcomes]

    def config_path(self) -> Path | None:
        return CONFIG_DIR / self.config if self.config else None

    def load_config(self) -> dict:
        path = self.config_path()
        return json.loads(path.read_text()) if path else {}

    def cli_args(self, seed: int, out: Path) -> list[str]:
        args = [self.subcommand, "--seed", str(seed), "--out", str(out)]
        if self.config:
            args += ["--config", str(self.config_path())]
        return args + list(self.extra_args)


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def _fail_all(ops: Outcomes, reason: str) -> Outcomes:
    for reasons in ops.values():
        reasons.append(reason)
    return ops


def _index(ops: Outcomes, rows: list[dict], key) -> dict[tuple, dict]:
    """Rows keyed by operation; rows for no expected operation fail all."""
    by_key: dict[tuple, dict] = {}
    for row in rows:
        k = key(row)
        if k not in ops or k in by_key:
            _fail_all(ops, f"unexpected or repeated row {k}")
        by_key[k] = row
    for k, reasons in ops.items():
        if k not in by_key:
            reasons.append("row missing")
    return by_key


# ---------------------------------------------------------------------------
# quadratic + l1 references


def quad_value(refs: dict, x: np.ndarray) -> float:
    """0.5 x'Qx + b'x + w ||x||_1, computed here from the problem data."""
    q, b, w = refs["q_hat"], refs["b"], float(refs["l1_weight"])
    return float(0.5 * x @ (q @ x) + b @ x + w * np.abs(x).sum())


def prox_residual(refs: dict, x: np.ndarray) -> float:
    """Max-norm proximal-gradient fixed-point residual; zero at the optimum."""
    q, b, w = refs["q_hat"], refs["b"], float(refs["l1_weight"])
    # any step t > 0 has the minimizers as its fixed points; 1/||Q||_F is
    # below 1/||Q||_2 and needs no SVD
    t = 1.0 / float(np.linalg.norm(q))
    u = x - t * (q @ x + b)
    prox = np.clip(np.sign(u) * np.maximum(np.abs(u) - w * t, 0.0), refs["lo"], refs["hi"])
    return float(np.max(np.abs(prox - x)))


def confirm_f_star(refs: dict) -> tuple[float, list[str]]:
    """f* = f(x_star) once x_star is shown optimal; reasons if it is not."""
    x_star = refs["x_star"]
    f_star = quad_value(refs, x_star)
    reasons = []
    residual = prox_residual(refs, x_star)
    if not residual <= RESIDUAL_TOL:
        reasons.append(f"x_star fixed-point residual {residual:.3g}")
    if not _close(f_star, float(refs["f_star"]), 1e-9):
        reasons.append(f"f_star {float(refs['f_star'])!r} != f(x_star) {f_star!r}")
    return f_star, reasons


def _check_quad_rows(ops: Outcomes, by_key: dict, budget: int, f_reasons: list[str]):
    errors = {}
    for k, row in by_key.items():
        ops[k].extend(f_reasons)
        if int(row["oracle_calls"]) != budget:
            ops[k].append(f"oracle_calls {row['oracle_calls']} != {budget}")
        error = float(row["error"])
        if not (math.isfinite(error) and error >= ERROR_FLOOR):
            ops[k].append(f"error {error!r} below the optimum")
        errors[k] = error
    return errors


def check_equal_budget(out: Path, config: dict, refs: dict | None) -> Outcomes:
    n = config["problem_params"]["n"]
    iterations, replications = config["iterations"], config["replications"]
    kinds = config["estimators"]
    budget = 2 * n * iterations
    ops: Outcomes = {(k, r): [] for k in kinds for r in range(replications)}
    try:
        rows = _rows(out / "results.csv")
        aggregate = _rows(out / "aggregate.csv")
        by_key = _index(ops, rows, lambda r: (r["estimator"], int(r["replication"])))
        _, f_reasons = confirm_f_star(refs)
        errors = _check_quad_rows(ops, by_key, budget, f_reasons)
    except (OSError, KeyError, ValueError) as exc:
        return _fail_all(ops, f"unreadable output: {exc!r}")

    # equal budget: esgs's worst replication beats each baseline's best
    esgs = [e for (k, _), e in errors.items() if k == "esgs"]
    for kind in kinds:
        if kind == "esgs" or not esgs:
            continue
        base = [e for (k, _), e in errors.items() if k == kind]
        if not base:
            continue
        worst, best = max(esgs), min(base)
        for (k, r), e in errors.items():
            if (k == "esgs" and e >= best) or (k == kind and e <= worst):
                ops[(k, r)].append(f"esgs worst {worst:.4g} does not beat {kind} best {best:.4g}")

    # the aggregate table restates the raw rows
    seen = set()
    for row in aggregate:
        kind = row.get("estimator")
        mine = [e for (k, _), e in errors.items() if k == kind]
        if kind not in kinds or kind in seen or not mine:
            _fail_all(ops, f"unexpected aggregate row {kind!r}")
            continue
        seen.add(kind)
        if (
            int(row["replications"]) != replications
            or int(row["oracle_calls"]) != budget
            or not _close(float(row["mean_error"]), float(np.mean(mine)))
        ):
            for r in range(replications):
                ops[(kind, r)].append("aggregate row disagrees with raw rows")
    for kind in set(kinds) - seen:
        for r in range(replications):
            ops[(kind, r)].append("aggregate row missing")
    return ops


def check_n1000(out: Path, config: dict, refs: dict | None) -> Outcomes:
    n = config["problem_params"]["n"]
    iterations, replications = config["iterations"], config["replications"]
    (kind,) = config["estimators"]
    budget = 2 * n * iterations
    ops: Outcomes = {(kind, r): [] for r in range(replications)}
    try:
        rows = _rows(out / "results.csv")
        trajectory = _rows(out / f"trajectory_{kind}.csv")
        by_key = _index(ops, rows, lambda r: (r["estimator"], int(r["replication"])))
        f_star, f_reasons = confirm_f_star(refs)
        errors = _check_quad_rows(ops, by_key, budget, f_reasons)
        start = quad_value(refs, refs["x0"]) - f_star
        for k, error in errors.items():
            if not error < start / 10.0:
                ops[k].append(f"final error {error:.4g} not below a tenth of {start:.4g}")

        first = ops[(kind, 0)]
        steps = [int(r["k"]) for r in trajectory]
        calls = [int(r["oracle_calls"]) for r in trajectory]
        if steps != list(range(iterations + 1)):
            first.append("trajectory rows are not k = 0..K")
        elif calls != [2 * n * k for k in steps]:
            first.append("trajectory oracle_calls != 2nk")
        else:
            if not _close(float(trajectory[0]["error"]), start, 1e-9):
                first.append(f"trajectory k=0 error {trajectory[0]['error']} != f(x0) - f* {start!r}")
            if (kind, 0) in errors and float(trajectory[-1]["error"]) != errors[(kind, 0)]:
                first.append("trajectory end differs from replication 0's error")
    except (OSError, KeyError, ValueError) as exc:
        return _fail_all(ops, f"unreadable output: {exc!r}")
    return ops


def market_targets(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form optimum and performatively stable point of the market."""
    a, a1, a2 = params["a"], params["a1"], params["a2"]
    beta, l2, r2 = params["beta"], params["l2"], params["r2"]
    x2 = (l2 + r2) / (4.0 * a2)
    return np.array([a / (2.0 * (a1 - beta)), x2]), np.array([a / (2.0 * a1 - beta), x2])


def check_market(out: Path, config: dict, refs: dict | None) -> Outcomes:
    params = config["problem_params"]
    x_star, x_ps = market_targets(params)
    half_gap = 0.5 * float(np.linalg.norm(x_star - x_ps))
    box = params["box_half_width"]
    kinds, replications = config["estimators"], config["replications"]
    ops: Outcomes = {(k, r): [] for k in kinds for r in range(replications)}
    try:
        rows = _rows(out / "dd_results.csv")
        by_key = _index(ops, rows, lambda r: (r["mode"], int(r["replication"])))
        legs: dict[str, list[tuple[float, float]]] = {k: [] for k in kinds}
        for (kind, r), row in by_key.items():
            reasons = ops[(kind, r)]
            budget = 2 * 2 * config["iterations"][kind]
            if int(row["oracle_calls"]) != budget:
                reasons.append(f"oracle_calls {row['oracle_calls']} != {budget}")
            x1 = float(row["final_x1"])
            d_opt, d_ps = float(row["dist_to_optimum"]), float(row["dist_to_stable"])
            if not all(map(math.isfinite, (x1, d_opt, d_ps))):
                reasons.append("non-finite iterate")
                continue
            # x* and x_ps share x2, so both distances give the same |x2 - x2*|
            d2_sq = d_opt**2 - (x1 - x_star[0]) ** 2
            if not _close(d2_sq, d_ps**2 - (x1 - x_ps[0]) ** 2, 1e-9) or d2_sq < -1e-9:
                reasons.append("distances inconsistent with the closed-form targets")
                continue
            d2 = math.sqrt(max(d2_sq, 0.0))
            if abs(x1) > box or min(abs(x_star[1] - d2), abs(x_star[1] + d2)) > box:
                reasons.append("iterate outside the box")
            legs[kind].append((x1, d2))
    except (OSError, KeyError, ValueError) as exc:
        return _fail_all(ops, f"unreadable output: {exc!r}")

    for kind, finals in legs.items():
        if not finals:
            continue
        x1s = np.array([x1 for x1, _ in finals])
        d2s = np.array([d2 for _, d2 in finals])
        mean_x1 = float(x1s.mean())
        reasons = []
        if not abs(mean_x1 - x_star[0]) < abs(mean_x1 - x_ps[0]):
            reasons.append(f"mean x1 {mean_x1:.4f} nearer x_ps than x*")
        # the CSV gives x2 only through distances, which lose its sign: the
        # root-mean-square deviation bounds |mean x2 - x2*| from above
        rms = float(np.sqrt(np.mean(d2s**2)))
        if not rms < half_gap:
            reasons.append(f"rms |x2 - x2*| {rms:.4f} not below {half_gap:.4f}")
        for r in range(replications):
            ops[(kind, r)].extend(reasons)
    return ops


def moment_reference(kind: str, n: int) -> tuple[float, float]:
    """Exact E||g||^2 and Var||g||^2 on f(x) = x_1 at x = 0, noise-free."""
    if kind == "esgs":  # ||g||^2 = 4V/pi, V ~ Exp(1)
        return 4.0 / math.pi, 16.0 / math.pi**2
    if kind == "gs":  # ||g||^2 = Z_1^2 ||Z||^2
        fourth = 105.0 + 30.0 * (n - 1) + 3.0 * (n - 1) * (n + 1)
        return n + 2.0, fourth - (n + 2.0) ** 2
    if kind == "spherical":  # ||g||^2 = n^2 u_1^2, u uniform on the sphere
        return float(n), n * n * (2.0 * n - 2.0) / (n + 2.0)
    if kind == "spsa":  # ||g||^2 = sum_i (D_1 / D_i)^2 = n exactly
        return float(n), 0.0
    raise KeyError(kind)


def check_moments(out: Path, config: dict, refs: dict | None) -> Outcomes:
    kinds = ("esgs", "gs", "spherical", "spsa")
    ops: Outcomes = {(k, n): [] for k in kinds for n in MOMENT_DIMS}
    try:
        rows = _rows(out / "moments.csv")
        by_key = _index(ops, rows, lambda r: (r["estimator"], int(r["n"])))
        for (kind, n), row in by_key.items():
            reasons = ops[(kind, n)]
            samples = int(row["samples"])
            if samples != MOMENT_SAMPLES or float(row["l0"]) != 1.0:
                reasons.append("samples or l0 differ from the request")
            if not _close(float(row["bound_linear_n"]), 4.0 / math.pi * n):
                reasons.append("bound column is not 4n/pi")
            mean, var = moment_reference(kind, n)
            value = float(row["second_moment"])
            se = math.sqrt(var / samples)
            if not abs(value - mean) <= MOMENT_SES * se:
                reasons.append(f"second moment {value!r} vs exact {mean!r} (se {se:.3g})")
    except (OSError, KeyError, ValueError) as exc:
        return _fail_all(ops, f"unreadable output: {exc!r}")
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quad_equal_budget", "compare", "quad_equal_budget.json", (), True, check_equal_budget),
        Workload("quad_esgs_n1000", "run", "quad_esgs_n1000.json", (), True, check_n1000),
        Workload("market_dd", "dd", "market_dd.json", (), False, check_market),
        Workload(
            "moments_generic",
            "moments",
            None,
            ("--dims", ",".join(map(str, MOMENT_DIMS)), "--samples", str(MOMENT_SAMPLES)),
            False,
            check_moments,
        ),
    )
}
