"""Second, independent routes to the quantities the library computes.

The tests check the library against these; no library path runs them.

* :func:`smoothed_value` and :func:`smoothed_gradient_quadrature` -- the
  Gaussian-mollified function ``f_eta(x) = E[f(x + eta*Z)]``, ``Z``
  standard normal, by Monte Carlo, and its gradient by deterministic
  tensor quadrature in dimension <= 2:

      d/dx_i f_eta(x) = E_{V, Z^{-i}}[ f(x_i + eta*sqrt(2V), x^{-i} - Z^{-i})
                                     - f(x_i - eta*sqrt(2V), x^{-i} - Z^{-i}) ]
                        / (eta * sqrt(2*pi)),

  with ``V ~ Exp(1)`` and ``Z ~ N(0, eta^2 I)``.
* :func:`quad_reference_cross_check` and
  :func:`piecewise_linear_reference_cross_check` -- each family's optimal
  value by a route other than its builder's solve.
* :func:`contains` -- feasible-set membership with a tolerance.
* :func:`market_sample_noise_at` -- one draw of the market's demand
  intercepts at a decision.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import (
    roots_genlaguerre,
    roots_hermite,
    roots_laguerre,
    roots_legendre,
)

from zosmooth.estimators import SQRT_2PI
from zosmooth.problems import BenchmarkProblem, _envelope_gaussian_stats
from zosmooth.projections import FeasibleSet
from zosmooth.rng import RandomStream


# ---------------------------------------------------------------------------
# the mollified function


@lru_cache(maxsize=64)
def _rule(kind: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    if kind == "genlag":  # weight v^(1/2) e^-v on [0, inf)
        return roots_genlaguerre(m, 0.5)
    if kind == "laguerre":  # weight e^-v on [0, inf)
        return roots_laguerre(m)
    if kind == "legendre":  # weight 1 on [-1, 1]
        return roots_legendre(m)
    if kind == "hermite":  # weight e^(-t^2) on (-inf, inf)
        return roots_hermite(m)
    raise ValueError(kind)


class QuadratureConvergenceError(RuntimeError):
    """Raised when node doubling fails to reach the fixed tolerance."""


def smoothed_value(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    eta: float,
    samples: int,
    stream: RandomStream,
) -> tuple[float, float]:
    """Monte-Carlo estimate of ``f_eta(x)`` from ``samples`` draws, and its
    sample standard error (infinite for one draw)."""
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    x = np.asarray(x, dtype=float)
    z = stream.generator.standard_normal((samples, x.shape[0]))
    values = np.fromiter((f(x + eta * z[j]) for j in range(samples)), dtype=float, count=samples)
    stderr = values.std(ddof=1) / math.sqrt(samples) if samples > 1 else math.inf
    return float(values.mean()), float(stderr)


def _shift_integral(
    diff: Callable[[float], float],
    kink_vs: Sequence[float],
    m: int,
) -> float:
    """Integrate ``diff(v) * exp(-v)`` over v in [0, inf) with m-node rules.

    ``diff(v)`` is an axis difference ``f(.. + eta*sqrt(2v) ..) - f(.. -
    eta*sqrt(2v) ..)``; for smooth ``f`` it factors as ``sqrt(v)`` times a
    smooth function, so the head of the integral uses generalized
    Gauss-Laguerre with weight ``v^(1/2) e^-v``.  Known kink preimages split
    the domain: each finite piece is handled in the substitution
    ``v = s^2/2`` by Gauss-Legendre, and the tail beyond the last kink by a
    shifted standard Gauss-Laguerre rule.
    """
    kinks = sorted(float(v) for v in kink_vs if v > 0.0)
    if not kinks:
        nodes, weights = _rule("genlag", m)
        return float(np.sum(weights * np.array([diff(v) / math.sqrt(v) for v in nodes])))

    total = 0.0
    s_edges = [0.0] + [math.sqrt(2.0 * v) for v in kinks]
    leg_nodes, leg_weights = _rule("legendre", m)
    for a, b in zip(s_edges[:-1], s_edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        s = mid + half * leg_nodes
        vals = np.array([diff(0.5 * si * si) * si * math.exp(-0.5 * si * si) for si in s])
        total += half * float(np.sum(leg_weights * vals))
    v_last = kinks[-1]
    lag_nodes, lag_weights = _rule("laguerre", m)
    tail = np.array([diff(v_last + u) for u in lag_nodes])
    total += math.exp(-v_last) * float(np.sum(lag_weights * tail))
    return total


def smoothed_gradient_quadrature(
    base_f: Callable[[np.ndarray], float],
    x: np.ndarray,
    eta: float,
    kink_coords: Sequence[int] = (),
) -> np.ndarray:
    """Deterministic quadrature for the gradient of the mollified function.

    Valid for dimension <= 2.  For each component the exponential-shift
    integral is evaluated as described in :func:`_shift_integral`; in two
    dimensions the remaining coordinate is integrated against its
    ``N(0, eta^2)`` weight with Gauss-Hermite nodes.  Node counts double
    from 16 until successive values agree to ``max(1e-6*|value|, 1e-9)``.

    Parameters
    ----------
    kink_coords : sequence of int, optional
        Coordinates along which ``base_f`` has a kink at coordinate value 0
        (absolute-value style terms).  Their shift integrals are split at
        the kink preimage ``v = x_i^2 / (2 eta^2)``.

    Raises
    ------
    QuadratureConvergenceError
        If doubling up to 256 nodes does not converge.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n > 2:
        raise ValueError("quadrature oracle supports dimension <= 2 only")
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    kink_set = set(int(i) for i in kink_coords)

    def component(i: int, m: int) -> float:
        kink_vs = [x[i] ** 2 / (2.0 * eta * eta)] if i in kink_set else []

        if n == 1:

            def diff(v: float) -> float:
                shift = eta * math.sqrt(2.0 * v)
                return base_f(np.array([x[0] + shift])) - base_f(
                    np.array([x[0] - shift])
                )

            return _shift_integral(diff, kink_vs, m) / (eta * SQRT_2PI)

        j = 1 - i
        # z_j = eta*sqrt(2)*t maps the N(0, eta^2) weight to exp(-t^2)/sqrt(pi)
        t_nodes, t_weights = _rule("hermite", m)
        t_weights = t_weights / math.sqrt(math.pi)
        total = 0.0
        point_plus = x.copy()
        point_minus = x.copy()
        for t, w in zip(t_nodes, t_weights):
            other = x[j] - eta * math.sqrt(2.0) * t

            def diff(v: float) -> float:
                shift = eta * math.sqrt(2.0 * v)
                point_plus[i] = x[i] + shift
                point_plus[j] = other
                point_minus[i] = x[i] - shift
                point_minus[j] = other
                return base_f(point_plus) - base_f(point_minus)

            total += w * _shift_integral(diff, kink_vs, m)
        return total / (eta * SQRT_2PI)

    grad = np.empty(n)
    for i in range(n):
        m = 16
        previous = component(i, m)
        while m < 256:
            m *= 2
            current = component(i, m)
            if not math.isfinite(current):
                raise QuadratureConvergenceError(
                    f"component {i}: non-finite quadrature value at {m} nodes"
                )
            change = abs(current - previous)
            if change <= max(1e-6 * abs(current), 1e-9):
                break
            previous = current
        else:
            raise QuadratureConvergenceError(
                f"component {i} did not converge to a relative 1e-6 within "
                f"256 nodes (last change {change:.3e})"
            )
        grad[i] = current
    return grad


# ---------------------------------------------------------------------------
# optimal values by a second route


def _quad_face_solve(
    q_hat: np.ndarray,
    b: np.ndarray,
    l1_weight: float,
    feasible: FeasibleSet,
    x_guess: np.ndarray,
) -> np.ndarray | None:
    """Direct KKT solve on the face identified from an approximate solution.

    Independent cross-check for the proximal-gradient reference: coordinates
    at a box bound or at zero are pinned, the rest solve the reduced linear
    system with the l1 signs frozen.  Returns None when the face solve is
    inconsistent with its own assumptions.
    """
    tol = 1e-7
    lo = feasible.lo if feasible.variant == "box" else None
    hi = feasible.hi if feasible.variant == "box" else None
    x = x_guess.copy()
    at_zero = np.abs(x) <= tol
    at_lo = lo is not None and np.abs(x - lo) <= tol
    at_hi = hi is not None and np.abs(x - hi) <= tol
    fixed = at_zero | at_lo | at_hi
    x[at_zero] = 0.0
    if lo is not None:
        x[at_lo] = lo[at_lo]
        x[at_hi] = hi[at_hi]
    free = ~fixed
    if np.any(free):
        signs = np.sign(x[free])
        rhs = -b[free] - l1_weight * signs - q_hat[np.ix_(free, ~free)] @ x[~free]
        x_free = np.linalg.solve(q_hat[np.ix_(free, free)], rhs)
        if np.any(np.sign(x_free) != signs):
            return None
        if lo is not None and (
            np.any(x_free < lo[free] - tol) or np.any(x_free > hi[free] + tol)
        ):
            return None
        x[free] = x_free
    return x


def quad_reference_cross_check(problem: BenchmarkProblem) -> float:
    """Optimal value from the direct face solve; None-safe fallback raises."""
    x = _quad_face_solve(
        problem.extras["q_hat"],
        problem.extras["b"],
        problem.extras["l1_weight"],
        problem.feasible,
        problem.x_star.copy(),
    )
    if x is None:
        raise RuntimeError("face solve inconsistent with proximal-gradient solution")
    return problem.exact_f(x)


def piecewise_linear_reference_cross_check(problem: BenchmarkProblem) -> float:
    """Independent optimal value via the (m, s) reduction.

    The exact objective depends on x only through ``m = c'x`` and
    ``s = ||x||``; every envelope slope is positive, so the minimum over the
    ball sits on the ray ``x = -s * c/||c||``, reducing the problem to a 1-D
    convex minimization solved by bounded Brent.
    """
    c = problem.extras["c"]
    mu = problem.mu
    c_norm = float(np.linalg.norm(c))

    def h(s: float) -> float:
        value, _, _ = _envelope_gaussian_stats(-c_norm * s, s)
        return value + 0.5 * mu * s * s

    res = minimize_scalar(h, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


# ---------------------------------------------------------------------------
# feasible sets and the market's noise


def contains(feasible: FeasibleSet, x: np.ndarray) -> bool:
    """Membership test with absolute tolerance 1e-12."""
    x = np.asarray(x, dtype=float)
    tol = 1e-12
    if feasible.variant == "unconstrained":
        return True
    if feasible.variant == "box":
        return bool(
            np.all(x >= feasible.lo - tol) and np.all(x <= feasible.hi + tol)
        )
    if feasible.variant == "ball":
        return float(np.linalg.norm(x - feasible.center)) <= feasible.radius + tol
    raise ValueError(f"unknown feasible set variant {feasible.variant!r}")


def market_sample_noise_at(
    problem: BenchmarkProblem, x: np.ndarray, stream: RandomStream
) -> tuple[float, float]:
    """One ``(zeta1, zeta2)`` draw from the market's demand laws at ``x``:
    a standard normal, then one ``U[l2, r2]`` draw."""
    e = problem.extras
    zeta1 = e["a"] + e["beta"] * float(x[0]) + e["sigma"] * stream.generator.standard_normal()
    zeta2 = float(stream.generator.uniform(e["l2"], e["r2"]))
    return zeta1, zeta2
