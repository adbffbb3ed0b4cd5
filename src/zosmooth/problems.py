"""Benchmark problem suite.

Four families:

* ``quad_l1_problem`` -- stochastic convex quadratic with an l1 term on a
  box, noisy linear coefficient.
* ``piecewise_linear_problem`` -- expectation of a piecewise-linear convex
  function of a noisy linear form, optionally with a quadratic term for
  strong convexity, on the unit ball.
* ``nonconvex_min_problem`` -- pointwise minimum of two shifted quadratics,
  whose expectation is nonsmooth and nonconvex with stationary points at
  the all-ones vectors of either sign.
* ``market_problem`` -- a two-product pricing problem whose noise
  distribution depends on the decision, exposing both decision-dependent
  oracle protocols and closed forms for the optimum and the performatively
  stable point.

Every problem carries an exact objective, a reference optimal value
computed by a deterministic solve (or in closed form), a feasible set, and a
documented Lipschitz estimate.  The tests check each solve against a second,
independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .decision import KnownDensityOracle, RandomFieldOracle, field_correlation
from .estimators import SQRT_2PI, StochasticOracle
from .optimizer import Schedule
from .projections import FeasibleSet, project
# sample_correlated_pair is unused here, but perfbench/child.py instruments it here
from .rng import RandomStream, correlate_pair, sample_correlated_pair  # noqa: F401


@dataclass
class BenchmarkProblem:
    """A stochastic objective with its ground-truth references."""

    name: str
    n: int
    oracle: StochasticOracle | None
    exact_f: Callable[[np.ndarray], float]
    feasible: FeasibleSet
    l0: float
    convexity: str  # "strongly_convex" | "convex" | "nonconvex"
    f_star: float
    x0: np.ndarray
    grad_exact: Callable[[np.ndarray], np.ndarray]
    default_schedule: Schedule
    mu: float = 0.0
    x_star: np.ndarray | None = None
    x_ps: np.ndarray | None = None
    stationarity_residual: Callable[[np.ndarray], float] | None = None
    smoothed_gradient: Callable[[np.ndarray, float], np.ndarray] | None = None
    dd_known: KnownDensityOracle | None = None
    dd_unknown: RandomFieldOracle | None = None
    # exact_f of each row of an (m, n) array, in one pass over the rows
    exact_f_rows: Callable[[np.ndarray], np.ndarray] | None = None
    extras: dict[str, Any] = field(default_factory=dict)


def error_metric(problem: BenchmarkProblem, x: np.ndarray) -> float:
    """Suboptimality for convex problems, squared stationarity residual else."""
    x = np.asarray(x, dtype=float)
    if problem.convexity == "nonconvex":
        return problem.stationarity_residual(x)
    return problem.exact_f(x) - problem.f_star


def error_metric_rows(problem: BenchmarkProblem, xs: np.ndarray) -> np.ndarray:
    """``error_metric`` of each row of ``xs``.

    Uses the problem's ``exact_f_rows`` when it has one and the error is a
    suboptimality; its values agree with the per-point ones to rounding,
    not bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    if problem.exact_f_rows is None or problem.convexity == "nonconvex":
        return np.array([error_metric(problem, x) for x in xs])
    return problem.exact_f_rows(xs) - problem.f_star


def check_dimension(n: int, axes: int = 1, name: str = "n") -> None:
    """Raise :class:`ValueError` naming ``name`` unless ``n >= 1`` and numpy
    can index a float array of ``n**axes`` entries: their byte count, 8 per
    entry, must fit a signed index.  A builder checks this before it
    allocates."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n**axes > np.iinfo(np.intp).max // 8:
        raise ValueError(f"{name}={n} is beyond numpy's array limit: {n**axes} floats in one array")


def performative_gap(problem: BenchmarkProblem) -> float:
    """Distance between the optimum and the performatively stable point."""
    if problem.x_star is None or problem.x_ps is None:
        raise ValueError(f"problem {problem.name} has no stable-point reference")
    return float(np.linalg.norm(problem.x_star - problem.x_ps))


# ---------------------------------------------------------------------------
# reference solvers


def _proximal_gradient_quad(
    q_hat: np.ndarray,
    b: np.ndarray,
    l1_weight: float,
    feasible: FeasibleSet,
    x_init: np.ndarray,
    norm_q: float,
) -> np.ndarray:
    """Proximal gradient on 0.5 x'Qx + b'x + w*||x||_1 over a box.

    ``norm_q`` is the spectral norm of ``q_hat``; the step is its inverse.
    For separable 1-D pieces the prox of ``w|.| + box indicator`` is the
    clipped soft-threshold.  Stops when no coordinate moves by 1e-14, or
    after 100 000 steps.
    """
    step = 1.0 / norm_q
    x = x_init.astype(float).copy()
    for _ in range(100_000):
        u = x - step * (q_hat @ x + b)
        new = np.sign(u) * np.maximum(np.abs(u) - l1_weight * step, 0.0)
        new = project(feasible, new)
        if float(np.max(np.abs(new - x))) < 1e-14:
            return new
        x = new
    return x


def _projected_gradient(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    feasible: FeasibleSet,
    x_init: np.ndarray,
) -> np.ndarray:
    """Projected gradient descent with Armijo backtracking.

    Stops when a step moves neither f (by 1e-12) nor x (by 1e-9), after 50
    steps in a row that did not decrease f (on a curved boundary the
    iterate can zig-zag by about 2e-8 with f unchanged, so x never stops
    moving), or after 20 000 steps.
    """
    x = x_init.astype(float).copy()
    fx = f(x)
    step = 1.0
    stalled = 0
    for _ in range(20_000):
        g = grad(x)
        while True:
            cand = project(feasible, x - step * g)
            f_cand = f(cand)
            decrease = float(g @ (x - cand)) - float(np.sum((x - cand) ** 2)) / (
                2.0 * step
            )
            if f_cand <= fx - 0.5 * decrease + 1e-18 or step < 1e-18:
                break
            step *= 0.5
        if abs(fx - f_cand) < 1e-12 and float(np.max(np.abs(cand - x))) < 1e-9:
            return cand
        stalled = stalled + 1 if f_cand >= fx else 0
        x, fx = cand, f_cand
        if stalled == 50:
            return x
        step = min(step * 2.0, 1e6)
    return x


# ---------------------------------------------------------------------------
# quadratic + l1 family, with its noise standard deviation and box half-width

QUAD_NOISE_STD = 1.0
QUAD_BOX_HALF_WIDTH = 1.0


def make_quad_problem(
    q_hat: np.ndarray,
    b: np.ndarray,
    l1_weight: float = 0.5,
) -> BenchmarkProblem:
    """Quadratic-plus-l1 problem from explicit data.

    ``F(x, xi) = 0.5 x'Q x + (b + xi)'x + w*||x||_1`` with noise vector
    ``xi`` of i.i.d. ``N(0, s^2)`` coordinates, on ``[-h, h]^n``, where
    ``s`` is :data:`QUAD_NOISE_STD` and ``h`` is :data:`QUAD_BOX_HALF_WIDTH`.
    ``q_hat`` must be symmetric positive definite and ``w`` finite and
    ``>= 0``.
    """
    q_hat = np.asarray(q_hat, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    # a negative weight makes F nonconvex, against its strongly_convex tag
    # and the proximal reference solve
    if not 0 <= l1_weight < math.inf:
        raise ValueError(f"l1_weight must be finite and >= 0, got l1_weight={l1_weight} at n={n}")
    feasible = FeasibleSet.symmetric_box(QUAD_BOX_HALF_WIDTH, n)

    # The oracle callables broadcast: points have shape (..., n) and xi the
    # matching (..., n) noise.  The stacked matvec and vecdot give each point
    # the bits of its own gemv and dot; a gemm over the points would not.
    # F at x, given its matvec q_x = Qx
    def value(x: np.ndarray, q_x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return np.vecdot(0.5 * x, q_x) + np.vecdot(b + xi, x) + l1_weight * np.abs(x).sum(-1)

    def eval_fn(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return value(x, np.matmul(q_hat, x[..., None])[..., 0], xi)

    def eval_axis(base, moved, xi):
        # All 2n points of a row share its `base` except one coordinate, so
        # one matvec plus O(n) work gives the per-point values up to rounding.
        q_base = np.matmul(q_hat, base[..., None])[..., 0]
        f_base = value(base, q_base, xi)[:, None, None]
        slope = (q_base + b + xi)[:, None]
        base = base[:, None]
        d = moved - base
        return (
            f_base
            + d * slope
            + 0.5 * d * d * np.diag(q_hat)
            + l1_weight * (np.abs(moved) - np.abs(base))
        )

    def noise_sampler(stream: RandomStream, size: int) -> np.ndarray:
        return QUAD_NOISE_STD * stream.generator.standard_normal((size, n))

    # Q is symmetric positive definite: one eigendecomposition gives both
    # its spectral norm (the largest eigenvalue) and mu (the smallest)
    eigenvalues = np.linalg.eigvalsh(q_hat)
    mu, norm_q = float(eigenvalues[0]), float(eigenvalues[-1])
    smooth_lip = norm_q * math.sqrt(n) * QUAD_BOX_HALF_WIDTH + float(np.linalg.norm(b))
    l0 = smooth_lip + l1_weight * math.sqrt(n) + QUAD_NOISE_STD

    # the noise enters linearly with mean zero, so f is F at xi = 0
    def exact_f(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(value(x, q_hat @ x, 0.0))

    def exact_f_rows(xs: np.ndarray) -> np.ndarray:
        # one gemm for all rows (Q is symmetric, so x'Q is (Qx)')
        return (
            0.5 * np.vecdot(xs, xs @ q_hat) + xs @ b + l1_weight * np.abs(xs).sum(axis=1)
        )

    def grad_smooth(x: np.ndarray) -> np.ndarray:
        return q_hat @ np.asarray(x, dtype=float) + b

    x_ref = _proximal_gradient_quad(q_hat, b, l1_weight, feasible, np.zeros(n), norm_q)

    x0 = np.zeros(n)
    x0[:5] = QUAD_BOX_HALF_WIDTH

    oracle = StochasticOracle(
        eval=eval_fn,
        noise_sampler=noise_sampler,
        eval_axis=eval_axis,
    )
    return BenchmarkProblem(
        name="quad_l1",
        n=n,
        oracle=oracle,
        exact_f=exact_f,
        feasible=feasible,
        l0=l0,
        convexity="strongly_convex",
        mu=mu,
        f_star=exact_f(x_ref),
        x_star=x_ref,
        x0=x0,
        grad_exact=grad_smooth,
        exact_f_rows=exact_f_rows,
        default_schedule=Schedule(
            kind="custom",
            alpha=0.5,
            beta=0.5,
            gamma_scale=1.0 / norm_q,
            eta_scale=1.0 / norm_q,
        ),
        extras={"q_hat": q_hat, "b": b, "l1_weight": l1_weight, "norm_q": norm_q},
    )


def quad_l1_problem(n: int, seed: int, l1_weight: float = 0.5) -> BenchmarkProblem:
    """Seeded instance of the quadratic + l1 benchmark.

    ``Q_hat = Q + W`` with ``Q = D'D/n + I`` (D standard normal) and
    ``W = B'B/n`` (B entries N(0, 0.01)); ``b`` standard normal.  When
    ``l1_weight`` is zero, ``b`` is rescaled so the unconstrained minimizer
    lies strictly inside the box and is stored as the exact ``x_star``.

    Q_hat is built in place: at most three n x n arrays are alive at once
    (Q_hat, B and W during the second product), and Q_hat is the only one
    kept.  Each in-place step is the same IEEE operation as the expression
    above, so Q_hat is bit-identical to it.
    """
    check_dimension(n, axes=2)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got seed={seed} at n={n}")
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    d = gen.standard_normal((n, n))
    q_hat = d.T @ d
    del d
    q_hat /= n
    q_hat[np.diag_indices(n)] += 1.0
    b_mat = gen.standard_normal((n, n))
    b_mat *= 0.1
    w = b_mat.T @ b_mat
    del b_mat
    w /= n
    q_hat += w
    del w
    b = gen.standard_normal(n)
    if l1_weight == 0.0:
        x_free = np.linalg.solve(q_hat, -b)
        worst = float(np.max(np.abs(x_free)))
        if worst > 0.8:
            b = b * (0.8 / worst)
    problem = make_quad_problem(q_hat, b, l1_weight=l1_weight)
    if l1_weight == 0.0:
        x_star = np.linalg.solve(q_hat, -b)
        problem.x_star = x_star
        problem.f_star = problem.exact_f(x_star)
    return problem


# ---------------------------------------------------------------------------
# piecewise-linear family

PL_INTERCEPTS = np.array([0.2, 0.3, 0.6, 0.5, 0.8])
PL_SLOPES = np.array([0.9, 0.2, 0.1, 0.5, 0.5])
# The largest mu the reference solve takes: its backtracking stops at steps
# of 1e-18, too long for a curvature above about 2e18, and from mu = 5e18 on
# its two runs disagree at every n tried (1 to 20, 50, 100 and 200).
PL_MAX_MU = 1e18

# The upper envelope of the five lines v + s*t above, which the closed forms
# integrate piece by piece: its (v, s) lines from left to right and the
# breaks between them, each the crossing of its two neighbours.  (0.3, 0.2)
# lies below the envelope everywhere, and (0.5, 0.5) below (0.8, 0.5), whose
# slope it shares.  _phi takes the maximum over all five.
_PL_LINES = [(0.6, 0.1), (0.8, 0.5), (0.2, 0.9)]
_PL_BREAKS = [(0.6 - 0.8) / (0.5 - 0.1), (0.8 - 0.2) / (0.9 - 0.5)]


def _phi(t):
    """max_j(v_j + s_j t), elementwise over an array ``t`` of any shape."""
    t = np.asarray(t, dtype=float)
    return np.max(PL_INTERCEPTS + PL_SLOPES * t[..., None], axis=-1)


def _norm_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def _norm_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / SQRT_2PI


def _envelope_gaussian_stats(m: float, s: float) -> tuple[float, float, float]:
    """(E[phi(T)], dE/dm, dE/ds) for T ~ N(m, s^2), exact via the envelope.

    Each envelope segment [a, b] with line (v, slope) contributes
    ``(v + slope*m) * (Phi(b') - Phi(a')) + slope*s*(pdf(a') - pdf(b'))``
    with standardized endpoints.
    """
    if s <= 0.0:
        return float(_phi(m)), _phi_derivative(m), 0.0
    # the outer edges standardize to -inf and inf, where the normal cdf is
    # exactly 0 and 1 and its pdf exactly 0
    edges = [-math.inf, *_PL_BREAKS, math.inf]
    total = d_m = d_s = 0.0
    for (v, slope), a, b in zip(_PL_LINES, edges[:-1], edges[1:]):
        a_std, b_std = (a - m) / s, (b - m) / s
        mass = _norm_cdf(b_std) - _norm_cdf(a_std)
        pdf_drop = _norm_pdf(a_std) - _norm_pdf(b_std)
        total += (v + slope * m) * mass + slope * s * pdf_drop
        d_m += slope * mass
        d_s += slope * pdf_drop
    return total, d_m, d_s


def _phi_derivative(t: float) -> float:
    """Slope of the active envelope line at t (right derivative at breaks)."""
    for (v, slope), brk in zip(_PL_LINES[:-1], _PL_BREAKS):
        if t < brk:
            return slope
    return _PL_LINES[-1][1]


def piecewise_linear_problem(n: int, mu: float = 0.0) -> BenchmarkProblem:
    """Piecewise-linear expectation benchmark on the unit ball.

    ``F(x, xi) = phi(sum_i (i/n + xi_i) x_i) + mu/2 ||x||^2`` with
    ``xi_i ~ N(0, 1)``.  The exact objective integrates the envelope against
    the Gaussian law of the inner argument (mean ``c'x``, variance
    ``||x||^2``) in closed form.  ``mu`` must lie in ``[0, PL_MAX_MU]``.
    """
    check_dimension(n)
    if not 0 <= mu <= PL_MAX_MU:
        raise ValueError(f"mu must lie in [0, {PL_MAX_MU:g}], got mu={mu} at n={n}")
    c = np.arange(1, n + 1, dtype=float) / n
    feasible = FeasibleSet.unit_ball(n)

    # F at the inner argument t and the squared norm sq
    def value(t: np.ndarray, sq: np.ndarray) -> np.ndarray:
        return _phi(t) + 0.5 * mu * sq

    # broadcasting over points of shape (..., n) and noise (..., n)
    def eval_fn(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return value(np.vecdot(c + xi, x), np.vecdot(x, x))

    def eval_axis(base, moved, xi):
        w = c + xi
        t_base = np.vecdot(w, base)[:, None, None]
        sq_base = np.vecdot(base, base)[:, None, None]
        w, base = w[:, None], base[:, None]
        return value(t_base + w * (moved - base), sq_base - base * base + moved * moved)

    def noise_sampler(stream: RandomStream, size: int) -> np.ndarray:
        return stream.generator.standard_normal((size, n))

    # the inner argument's standard deviation ||x||, then the envelope's
    # Gaussian stats at its mean c'x and that deviation
    def gaussian_stats(x: np.ndarray) -> tuple[float, float, float, float]:
        s = float(np.linalg.norm(x))
        return s, *_envelope_gaussian_stats(float(c @ x), s)

    def exact_f(x: np.ndarray) -> float:
        s, expected, _, _ = gaussian_stats(np.asarray(x, dtype=float))
        return expected + 0.5 * mu * s * s

    def grad_exact(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s, _, d_m, d_s = gaussian_stats(x)
        g = d_m * c + mu * x
        if s > 0:
            g = g + d_s * (x / s)
        return g

    s_max = float(PL_SLOPES.max())
    l0 = s_max * math.sqrt(float(c @ c) + 1.0) + mu

    # The reference solve: projected gradient on the exact objective, from
    # two starts that must agree.
    x_ref = _projected_gradient(exact_f, grad_exact, feasible, np.zeros(n))
    x_ref_b = _projected_gradient(
        exact_f, grad_exact, feasible, np.ones(n) / math.sqrt(n)
    )
    f_a, f_b = exact_f(x_ref), exact_f(x_ref_b)
    if abs(f_a - f_b) > 1e-6:
        raise RuntimeError("piecewise-linear reference runs disagree beyond 1e-6")
    f_ref = min(f_a, f_b)
    if f_b < f_a:
        x_ref = x_ref_b

    return BenchmarkProblem(
        name="piecewise_linear",
        n=n,
        oracle=StochasticOracle(
            eval=eval_fn,
            noise_sampler=noise_sampler,
            eval_axis=eval_axis,
        ),
        exact_f=exact_f,
        feasible=feasible,
        l0=l0,
        convexity="strongly_convex" if mu > 0 else "convex",
        mu=mu,
        f_star=f_ref,
        x_star=x_ref,
        x0=np.zeros(n),
        grad_exact=grad_exact,
        default_schedule=Schedule(kind="custom", alpha=0.52, beta=0.52),
        extras={"c": c},
    )


# ---------------------------------------------------------------------------
# nonconvex family


def nonconvex_min_problem(n: int) -> BenchmarkProblem:
    """Minimum of two shifted quadratics, xi ~ U[0, 2], on [-10, 10]^n.

    ``F(x, xi) = min(sum_i (x_i - xi)^2, sum_i (x_i + xi)^2)`` whose
    expectation is ``||x||^2 + 4n/3 - 2|sum_i x_i|``; the all-ones vectors
    of either sign are stationary.
    """
    check_dimension(n)
    feasible = FeasibleSet.symmetric_box(10.0, n)

    # F from the squared norm sq and coordinate sum total of a point
    def value(sq: np.ndarray, total: np.ndarray, xi: np.ndarray) -> np.ndarray:
        common = sq + n * xi * xi
        return np.minimum(common - 2.0 * xi * total, common + 2.0 * xi * total)

    # broadcasting over points of shape (..., n) and noise of shape (...)
    def eval_fn(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return value(np.vecdot(x, x), x.sum(axis=-1), xi)

    def eval_axis(base, moved, xi):
        sq_base = np.vecdot(base, base)[:, None, None]
        total_base = base.sum(axis=-1)[:, None, None]
        base = base[:, None]
        sq = sq_base - base * base + moved * moved
        return value(sq, total_base - base + moved, xi[:, None, None])

    def noise_sampler(stream: RandomStream, size: int) -> np.ndarray:
        return stream.generator.uniform(0.0, 2.0, size)

    def exact_f(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ x + 4.0 * n / 3.0 - 2.0 * abs(x.sum()))

    def grad_exact(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        total = float(x.sum())
        return 2.0 * x - 2.0 * math.copysign(1.0, total) * np.ones(n)

    def stationarity_residual(x: np.ndarray) -> float:
        # On the kink surface sum(x) = 0 the subdifferential is
        # {2x + v*1 : v in [-2, 2]}; report the squared min-norm element.
        x = np.asarray(x, dtype=float)
        total = float(x.sum())
        if abs(total) > 1e-12:
            g = grad_exact(x)
        else:
            v = min(2.0, max(-2.0, -2.0 * total / n))
            g = 2.0 * x + v * np.ones(n)
        return float(g @ g)

    def smoothed_gradient(x: np.ndarray, eta: float) -> np.ndarray:
        # E[grad f(x + eta*Z)]: the quadratic part smooths to 2x and the
        # sign smooths through the CDF of sum(x) + eta*sum(Z) ~ N(., eta^2 n).
        x = np.asarray(x, dtype=float)
        arg = float(x.sum()) / (eta * math.sqrt(n))
        return 2.0 * x - 2.0 * (2.0 * _norm_cdf(arg) - 1.0) * np.ones(n)

    l0 = 22.0 * math.sqrt(n)
    return BenchmarkProblem(
        name="nonconvex_min",
        n=n,
        oracle=StochasticOracle(
            eval=eval_fn,
            noise_sampler=noise_sampler,
            eval_axis=eval_axis,
        ),
        exact_f=exact_f,
        feasible=feasible,
        l0=l0,
        convexity="nonconvex",
        f_star=n / 3.0,
        x0=np.zeros(n),
        grad_exact=grad_exact,
        stationarity_residual=stationarity_residual,
        smoothed_gradient=smoothed_gradient,
        default_schedule=Schedule(kind="nonconvex_asymptotic", alpha=0.9, beta=0.3),
    )


# ---------------------------------------------------------------------------
# decision-dependent market problem

# Documented construction ranges backing the market oracle bounds: the
# reference sampler truncates the first noise coordinate at 8 standard
# deviations, and evaluation points stay within the feasible box enlarged by
# a perturbation allowance.
MARKET_TRUNCATION_SDS = 8.0
MARKET_SHIFT_ALLOWANCE = 12.0


def market_problem(
    a: float = 4.5,
    a1: float = 0.8,
    a2: float = 0.2,
    beta: float = 0.1,
    sigma2: float = 10.0,
    l2: float = 0.5,
    r2: float = 2.2,
    c_xi: float = 1.0,
    box_half_width: float = 10.0,
) -> BenchmarkProblem:
    """Two-product pricing with decision-dependent demand noise.

    The first product's demand intercept is ``N(a + beta*x1, sigma2)`` (its
    mean responds to the posted quantity), the second's is
    ``U[l2, r2]``.  The objective is the expected negative revenue

        f(x) = -x1 (E[zeta1(x1)] - a1 x1) - x2 (E[zeta2] - a2 x2),

    strongly convex when ``a1 - beta > 0`` and ``a2 > 0``.  The optimum and
    the performatively stable point are available in closed form:

        x_star = (a / (2 (a1 - beta)), (l2 + r2) / (4 a2))
        x_ps   = (a / (2 a1 - beta),   (l2 + r2) / (4 a2))

    (the second coordinate carries no decision dependence, so the two
    points differ only in the first).

    Both decision-dependent oracle protocols are exposed: a known-density
    oracle importance-reweighted against the zero-mean ``N(0, sigma2)``
    reference, and a random-field oracle whose pair correlation follows
    :func:`zosmooth.decision.field_correlation` with constant ``c_xi``.
    Their declared bounds take the largest demand mean as
    ``|a| + |beta| * x1_reach``, so they hold for either sign of ``a`` and
    ``beta``.
    """
    at = (
        f"at a={a}, a1={a1}, a2={a2}, beta={beta}, sigma2={sigma2}, l2={l2}, r2={r2}, "
        f"c_xi={c_xi}, box_half_width={box_half_width}"
    )
    if not a1 - beta > 0:
        raise ValueError(f"requires a1 - beta > 0, got a1={a1}, beta={beta}")
    # x_ps repeatedly minimizes a1 z^2 - z E[zeta1], which needs a1 > 0
    if not a1 > 0:
        raise ValueError(f"the market requires a1 > 0 {at}")
    if not a2 > 0:
        raise ValueError(f"requires a2 > 0, got {a2}")
    if not l2 < r2:
        raise ValueError(f"requires l2 < r2, got l2={l2}, r2={r2}")
    if sigma2 <= 0:
        raise ValueError(f"requires sigma2 > 0, got {sigma2}")
    if not box_half_width >= 0:
        raise ValueError(f"the market requires box_half_width >= 0 {at}")
    sigma = math.sqrt(sigma2)
    mid2 = 0.5 * (l2 + r2)
    n = 2
    feasible = FeasibleSet.symmetric_box(box_half_width, n)

    # The oracle callables broadcast: x has shape (..., 2) and each noise
    # component broadcasts against its leading axes.
    def f_hat(x: np.ndarray, xi: tuple[float, float]):
        zeta1, zeta2 = xi
        x1, x2 = x[..., 0], x[..., 1]
        return -x1 * (zeta1 - a1 * x1) - x2 * (zeta2 - a2 * x2)

    def exact_f(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(
            (a1 - beta) * x[0] ** 2 - a * x[0] + a2 * x[1] ** 2 - mid2 * x[1]
        )

    def grad_exact(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array(
            [2.0 * (a1 - beta) * x[0] - a, 2.0 * a2 * x[1] - mid2]
        )

    x_star = np.array([a / (2.0 * (a1 - beta)), (l2 + r2) / (4.0 * a2)])
    x_ps = np.array([a / (2.0 * a1 - beta), (l2 + r2) / (4.0 * a2)])

    uniform_density = 1.0 / (r2 - l2)

    # the density of (zeta1, zeta2) when zeta1 has mean m
    def density(xi: tuple[float, float], m):
        return (
            np.exp(-0.5 * ((xi[0] - m) / sigma) ** 2) / (sigma * SQRT_2PI)
        ) * uniform_density

    def cond_density(xi: tuple[float, float], x: np.ndarray):
        return density(xi, a + beta * x[..., 0])

    def ref_density(xi: tuple[float, float]):
        return density(xi, 0.0)

    def ref_sampler(stream: RandomStream, size: int):
        """A block of ``size`` ``(zeta1, zeta2)`` draws, as two arrays."""
        z = stream.generator.standard_normal(size)
        far = np.abs(z) > MARKET_TRUNCATION_SDS
        while far.any():  # essentially never at 8 sds
            z[far] = stream.generator.standard_normal(int(far.sum()))
            far = np.abs(z) > MARKET_TRUNCATION_SDS
        return sigma * z, stream.generator.uniform(l2, r2, size)

    x1_reach = box_half_width + MARKET_SHIFT_ALLOWANCE
    m_max = abs(a) + abs(beta) * x1_reach
    zeta1_reach = MARKET_TRUNCATION_SDS * sigma
    try:
        ratio_bound = math.exp(2.0 * zeta1_reach * m_max / (2.0 * sigma2))
    except OverflowError:
        ratio_bound = math.inf
    value_bound = x1_reach * (zeta1_reach + m_max + a1 * x1_reach) + x1_reach * (
        max(abs(l2), abs(r2)) + a2 * x1_reach
    )
    grad_x_bound = math.hypot(
        zeta1_reach + m_max + 2.0 * a1 * x1_reach,
        max(abs(l2), abs(r2)) + 2.0 * a2 * x1_reach,
    )
    joint_lip = math.hypot(grad_x_bound, math.sqrt(2.0) * x1_reach)
    # the random field needs it; checked at build, so that no kind runs first
    if not c_xi >= beta * beta:
        raise ValueError(f"the market's random field requires c_xi >= beta^2 {at}")
    l0_unknown = joint_lip * math.sqrt(2.0 + 2.0 * c_xi)
    # a bound that is not finite would make its check vacuous
    for name, bound in (
        ("density-ratio bound", ratio_bound),
        ("value bound", value_bound),
        ("Lipschitz bound of f_hat", grad_x_bound),
        ("Lipschitz constant l0", l0_unknown),
    ):
        if not math.isfinite(bound):
            raise ValueError(f"the market's {name} is not a finite float {at}")
    # the symmetric KL of the demand laws at x1 and y1 is (beta*(x1 - y1))^2 / sigma2
    lip_xi = beta / sigma

    dd_known = KnownDensityOracle(
        f_hat=f_hat,
        cond_density=cond_density,
        ref_density=ref_density,
        ref_sampler=ref_sampler,
        ratio_bound_m=ratio_bound,
        value_bound_mf=value_bound,
        lip_f_hat=grad_x_bound,
        lip_xi=lip_xi,
    )

    def noise_sampler(stream: RandomStream, size: int) -> np.ndarray:
        # per point pair: two standard normals, then one U[l2, r2] draw
        normals = stream.generator.standard_normal((size, n, 2))
        uniforms = stream.generator.uniform(l2, r2, (size, n, 1))
        return np.concatenate((normals, uniforms), axis=2)

    def field_sampler(x_plus: np.ndarray, x_minus: np.ndarray, noise: np.ndarray):
        # Only the first coordinate moves the demand law; the second noise
        # coordinate is decision-independent and shared across the pair.
        x1_plus, x1_minus = x_plus[..., 0], x_minus[..., 0]
        rho = field_correlation(x1_plus, x1_minus, c_xi, beta, sigma)
        zeta1_plus, zeta1_minus = correlate_pair(
            a + beta * x1_plus, a + beta * x1_minus, sigma, rho, noise[..., 0], noise[..., 1]
        )
        zeta2 = noise[..., 2]
        return (zeta1_plus, zeta2), (zeta1_minus, zeta2)

    dd_unknown = RandomFieldOracle(
        f_hat=f_hat, field_sampler=field_sampler, noise_sampler=noise_sampler, c_xi=c_xi
    )

    mu = 2.0 * min(a1 - beta, a2)
    return BenchmarkProblem(
        name="market",
        n=n,
        oracle=None,
        exact_f=exact_f,
        feasible=feasible,
        l0=l0_unknown,
        convexity="strongly_convex",
        mu=mu,
        f_star=exact_f(x_star),
        x_star=x_star,
        x_ps=x_ps,
        x0=np.zeros(n),
        grad_exact=grad_exact,
        dd_known=dd_known,
        dd_unknown=dd_unknown,
        default_schedule=Schedule(kind="strongly_convex", theta=3.0, mu=mu),
        extras={
            "a": a,
            "a1": a1,
            "a2": a2,
            "beta": beta,
            "sigma": sigma,
            "sigma2": sigma2,
            "l2": l2,
            "r2": r2,
        },
    )


PROBLEM_BUILDERS: dict[str, Callable[..., BenchmarkProblem]] = {
    "quad_l1": quad_l1_problem,
    "piecewise_linear": piecewise_linear_problem,
    "nonconvex_min": nonconvex_min_problem,
    "market": market_problem,
}
