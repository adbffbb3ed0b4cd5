"""Ground-truth oracles for the Gaussian-mollified function.

For a Lipschitz function ``f`` and radius ``eta``, the mollified function is
``f_eta(x) = E[f(x + eta*Z)]`` with ``Z`` standard normal.  This module
provides a Monte-Carlo evaluator for ``f_eta`` and, in dimension <= 2, a
deterministic tensor-quadrature oracle for its gradient

    d/dx_i f_eta(x) = E_{V, Z^{-i}}[ f(x_i + eta*sqrt(2V), x^{-i} - Z^{-i})
                                   - f(x_i - eta*sqrt(2V), x^{-i} - Z^{-i}) ]
                      / (eta * sqrt(2*pi)),

with ``V ~ Exp(1)`` and ``Z ~ N(0, eta^2 I)``.  The quadrature oracle is the
reference against which the tests verify the Monte-Carlo estimators; no
``zosmooth-bench`` subcommand runs it, so its
:class:`QuadratureConvergenceError` reaches library callers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .estimators import SQRT_2PI
from .rng import RandomStream


@lru_cache(maxsize=64)
def _rule(kind: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    # Deferred so that importing the package loads no scipy module.
    from scipy.special import (
        roots_genlaguerre,
        roots_hermite,
        roots_laguerre,
        roots_legendre,
    )

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
    """Raised when node doubling fails to reach the requested tolerance."""


@dataclass(frozen=True)
class SmoothedFunctionView:
    """A deterministic function together with its smoothing configuration."""

    base_f: Callable[[np.ndarray], float]
    eta: float
    mc_samples: int = 20_000

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")


@dataclass(frozen=True)
class MCValue:
    value: float
    stderr: float


def smoothed_value(
    view: SmoothedFunctionView, x: np.ndarray, stream: RandomStream
) -> MCValue:
    """Monte-Carlo estimate of ``f_eta(x)`` with its sample standard error."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    z = stream.generator.standard_normal((view.mc_samples, n))
    values = np.fromiter(
        (view.base_f(x + view.eta * z[j]) for j in range(view.mc_samples)),
        dtype=float,
        count=view.mc_samples,
    )
    value = float(values.mean())
    if view.mc_samples > 1:
        stderr = float(values.std(ddof=1) / math.sqrt(view.mc_samples))
    else:
        stderr = math.inf
    return MCValue(value=value, stderr=stderr)


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
    rtol: float = 1e-6,
    atol: float = 1e-9,
    kink_coords: Sequence[int] = (),
) -> np.ndarray:
    """Deterministic quadrature for the gradient of the mollified function.

    Valid for dimension <= 2.  For each component the exponential-shift
    integral is evaluated as described in :func:`_shift_integral`; in two
    dimensions the remaining coordinate is integrated against its
    ``N(0, eta^2)`` weight with Gauss-Hermite nodes.  Node counts double
    from 16 until successive values agree to ``max(rtol*|value|, atol)``.

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
        converged = False
        while m < 256:
            m *= 2
            current = component(i, m)
            if not math.isfinite(current):
                raise QuadratureConvergenceError(
                    f"component {i}: non-finite quadrature value at {m} nodes"
                )
            if abs(current - previous) <= max(rtol * abs(current), atol):
                converged = True
                break
            previous = current
        if not converged:
            raise QuadratureConvergenceError(
                f"component {i} did not converge below rtol={rtol} within "
                f"256 nodes (last change {abs(current - previous):.3e})"
            )
        grad[i] = current
    return grad
