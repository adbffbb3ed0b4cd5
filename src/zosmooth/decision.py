"""Decision-dependent oracle protocols and their gradient estimators.

When the noise distribution depends on the decision ``x``, the plain
estimators of :mod:`zosmooth.estimators` are biased.  Two protocols restore
unbiasedness for the gradient of the mollified objective:

* **Known conditional density** -- draw ``xi`` from a fixed reference
  density ``p_ref`` and reweight each evaluation by the importance ratio
  ``p(xi | x) / p_ref(xi)`` (:func:`esgs_dd_known`).

* **Unknown density / random field** -- query an oracle that returns
  correlated noise realizations indexed by the evaluation points, with
  marginals ``D(x)`` and mean-square increments controlled by the point
  separation (:func:`esgs_dd_unknown`).

Both are the exponential-shift estimator of :mod:`zosmooth.estimators`
with a different oracle: they draw ``(sqrt(2V), Z / eta)`` with
:func:`~zosmooth.estimators.shift_draws`, share it across all coordinates
and consume ``2n`` oracle calls per estimate.  The known-density estimator
draws ``xi`` first.

Their batched forms (:data:`KNOWN_DENSITY`, :data:`RANDOM_FIELD`, registered
in :data:`zosmooth.bench.KINDS`) evaluate all R replications of an
iteration together.  They need oracles whose callables
broadcast: points of shape ``(..., n)`` and noise realizations that are
tuples of components, each component an array over the same leading axes
(the market problem's oracles are built this way).  :func:`esgs_dd_known`
and :func:`esgs_dd_unknown` evaluate one point per call instead, so they
need only per-point callables; passed to :func:`zosmooth.optimizer.run` as
bare functions, they run once per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .estimators import (
    SQRT_2PI,
    BatchEstimator,
    GradientSample,
    SmoothingParams,
    point_values,
    shift_draws,
)
# sample_exponential and sample_gaussian_vector stay importable from this
# module, where perfbench/child.py instruments them
from .rng import RandomStream, sample_exponential, sample_gaussian_vector  # noqa: F401


class RatioBoundError(RuntimeError):
    """Importance ratio exceeded the declared uniform bound."""


class ValueBoundError(RuntimeError):
    """Oracle value exceeded the declared uniform bound."""


@dataclass
class KnownDensityOracle:
    """Decision-dependent oracle with an available conditional density.

    Fields
    ------
    f_hat : callable
        ``f_hat(x, xi) -> float``, the raw objective integrand.
    cond_density : callable
        ``cond_density(xi, x) -> float``, the conditional density of the
        noise under decision ``x``.
    ref_density : callable
        ``ref_density(xi) -> float``, the fixed positive reference density.
    ref_sampler : callable
        ``ref_sampler(stream) -> xi`` drawing from the reference density.
        Batched runs call ``ref_sampler(stream, size)`` for a block of
        ``size`` draws, returned as a tuple of component arrays.
    ratio_bound_m : float
        Uniform bound on ``cond_density / ref_density``; checked at every
        evaluated point, violations raise :class:`RatioBoundError`.
    value_bound_mf : float
        Uniform bound on ``|f_hat|`` at sampled points.
    lip_f_hat : float
        Lipschitz constant of ``f_hat(., xi)`` in the reference L2 metric.
    lip_xi : float
        Sensitivity constant: the symmetric KL divergence between
        ``p(. | x)`` and ``p(. | y)`` is at most ``lip_xi^2 ||x - y||^2``.
    """

    f_hat: Callable[[np.ndarray, Any], float]
    cond_density: Callable[[Any, np.ndarray], float]
    ref_density: Callable[[Any], float]
    ref_sampler: Callable[[RandomStream], Any]
    ratio_bound_m: float
    value_bound_mf: float
    lip_f_hat: float
    lip_xi: float

    def weighted_value(self, x: np.ndarray, xi: Any):
        """``f_hat(x, xi) * p(xi | x) / p_ref(xi)`` with bound checks.

        ``x`` is one point or an array of points along its last axis, with
        ``xi`` broadcasting against the leading axes; both bounds are checked
        at every point.
        """
        ratio = self.cond_density(xi, x) / self.ref_density(xi)
        if np.greater(ratio, self.ratio_bound_m).any():
            raise RatioBoundError(
                f"density ratio {np.max(ratio):.6g} exceeds bound "
                f"{self.ratio_bound_m:.6g}"
            )
        value = self.f_hat(x, xi)
        if np.greater(np.abs(value), self.value_bound_mf).any():
            raise ValueBoundError(
                f"|f_hat| = {np.max(np.abs(value)):.6g} exceeds bound "
                f"{self.value_bound_mf:.6g}"
            )
        return value * ratio


@dataclass
class RandomFieldOracle:
    """Decision-dependent oracle backed by a correlated random field.

    ``field_sampler(x_plus, x_minus, stream)`` returns one pair
    ``(xi_1, xi_2)`` whose marginal laws are ``D(x_plus)`` and
    ``D(x_minus)`` and whose mean-square difference satisfies
    ``E||xi_1 - xi_2||^2 <= c_xi * ||x_plus - x_minus||^2``.  Each call is an
    independent realization of the field.
    """

    f_hat: Callable[[np.ndarray, Any], float]
    field_sampler: Callable[
        [np.ndarray, np.ndarray, RandomStream], tuple[Any, Any]
    ]
    c_xi: float


def _shift_points(oracle, x: np.ndarray, eta: float, stream: RandomStream):
    """One ``(sqrt(2V), Z / eta)`` draw and the points it gives at ``x``.

    Returns the draws, the base point ``x - eta*Z`` and the values
    ``x +/- eta*sqrt(2V)`` that replace one coordinate of it.
    """
    root_2v, z_unit = (d[0] for d in shift_draws(oracle, stream, 1, x.shape[0]))
    shift = eta * root_2v
    return (root_2v, z_unit), x - eta * z_unit, x + shift, x - shift


def esgs_dd_known(
    oracle: KnownDensityOracle,
    x: np.ndarray,
    params: SmoothingParams,
    stream: RandomStream,
) -> GradientSample:
    """Importance-reweighted exponential-shift estimate (known density).

    Draws ``xi`` from the reference density, then ``(V, Z)``, and
    differences the ratio-weighted oracle at the coordinate-replacement
    points, one point per call, sharing ``(V, Z, xi)`` across components.
    """
    x = np.asarray(x, dtype=float)
    xi = oracle.ref_sampler(stream)
    draws, base, plus, minus = _shift_points(oracle, x, params.eta, stream)
    w_plus, w_minus = point_values(oracle.weighted_value, base, plus, minus, xi)
    estimate = (w_plus - w_minus) / (params.eta * SQRT_2PI)
    return GradientSample(estimate, draws + (xi,), 2 * x.shape[0])


def esgs_dd_unknown(
    oracle: RandomFieldOracle,
    x: np.ndarray,
    params: SmoothingParams,
    stream: RandomStream,
) -> GradientSample:
    """Random-field exponential-shift estimate (unknown density).

    For each coordinate the field is queried at the pair of evaluation
    points, producing correlated noise with the correct marginals; the
    ``(V, Z)`` perturbation is shared across coordinates while field pairs
    are drawn fresh per coordinate.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    draws, base, plus, minus = _shift_points(oracle, x, params.eta, stream)
    f_plus = np.empty(n)
    f_minus = np.empty(n)
    for i in range(n):
        point_plus, point_minus = base.copy(), base.copy()
        point_plus[i] = plus[i]
        point_minus[i] = minus[i]
        xi_1, xi_2 = oracle.field_sampler(point_plus, point_minus, stream)
        f_plus[i] = oracle.f_hat(point_plus, xi_1)
        f_minus[i] = oracle.f_hat(point_minus, xi_2)
    estimate = (f_plus - f_minus) / (params.eta * SQRT_2PI)
    return GradientSample(estimate, draws, 2 * n)


def _replacement_points(x, eta, root_2v, z_unit) -> np.ndarray:
    """The ``(R, 2n, n)`` coordinate-replacement points of each row.

    Point ``j < n`` of row ``r`` is ``x_r - eta*Z_r`` with coordinate ``j``
    set to ``x_rj + eta*sqrt(2V_r)``; point ``n + j`` sets it to
    ``x_rj - eta*sqrt(2V_r)``.
    """
    shift = (eta * root_2v)[:, None]
    moved = np.concatenate((x + shift, x - shift), axis=1)
    base = x - eta * z_unit
    return np.where(_replaced(x.shape[1]), moved[:, :, None], base[:, None, :])


@lru_cache(maxsize=None)
def _replaced(n: int) -> np.ndarray:
    """``(2n, n)`` mask of the coordinate each replacement point moves."""
    return np.tile(np.eye(n, dtype=bool), (2, 1))


def known_rows(oracle: KnownDensityOracle, x, eta, draws, streams):
    """Importance-reweighted estimates at the rows of ``x``.

    ``draws = (sqrt(2V), Z / eta, *xi)`` with each noise component of shape
    ``(R, 1)``; all ``R * 2n`` replacement points go to one
    :meth:`KnownDensityOracle.weighted_value` call.
    """
    root_2v, z_unit, *xi = draws
    n = x.shape[1]
    points = _replacement_points(x, eta, root_2v, z_unit)
    w = oracle.weighted_value(points, tuple(xi))
    return (w[:, :n] - w[:, n:]) / (eta * SQRT_2PI), 2 * n


def field_rows(oracle: RandomFieldOracle, x, eta, draws, streams):
    """Random-field estimates at the rows of ``x``.

    ``draws = (sqrt(2V), Z / eta)``.  The field is sampled once per row and
    coordinate, from that row's stream; ``f_hat`` then evaluates all
    ``R * 2n`` points in one call.
    """
    root_2v, z_unit = draws
    rows, n = x.shape
    points = _replacement_points(x, eta, root_2v, z_unit)
    pairs = [
        oracle.field_sampler(row[i], row[n + i], stream)
        for row, stream in zip(points, streams)
        for i in range(n)
    ]
    # (row, coordinate, side, component) -> per component, (row, 2n points)
    xi = np.array(pairs, dtype=float).reshape(rows, n, 2, -1)
    xi = xi.transpose(3, 0, 2, 1).reshape(-1, rows, 2 * n)
    f = oracle.f_hat(points, tuple(xi))
    return (f[:, :n] - f[:, n:]) / (eta * SQRT_2PI), 2 * n


def _known_draws(oracle: KnownDensityOracle, stream, size: int, n: int):
    xi = oracle.ref_sampler(stream, size)
    # a trailing axis lets each component broadcast over an iterate's 2n points
    return shift_draws(oracle, stream, size, n) + tuple(c[:, None] for c in xi)


KNOWN_DENSITY = BatchEstimator("esgs_dd_known", _known_draws, known_rows)
RANDOM_FIELD = BatchEstimator("esgs_dd_unknown", shift_draws, field_rows)


def kl_sym_normal(mean_x: float, mean_y: float, sigma: float) -> float:
    """Symmetric KL divergence between two normals with common variance.

    Equals ``(mean_x - mean_y)^2 / sigma^2`` (each one-directional term
    contributes half).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    d = mean_x - mean_y
    return d * d / (sigma * sigma)


def field_correlation(
    x_plus: float, x_minus: float, c_xi: float, beta: float, sigma: float
) -> float:
    """Correlation making a Gaussian field mean-square Lipschitz.

    For marginals ``N(a + beta*x, sigma^2)`` indexed by a scalar ``x``, the
    pair correlation ``max(1 - (c_xi - beta^2)(x_plus - x_minus)^2 /
    (2 sigma^2), -1)`` yields ``E[(xi_plus - xi_minus)^2] <= c_xi
    (x_plus - x_minus)^2``.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if c_xi < beta * beta:
        raise ValueError(f"c_xi must be >= beta^2, got c_xi={c_xi}, beta={beta}")
    d = x_plus - x_minus
    return max(1.0 - (c_xi - beta * beta) * d * d / (2.0 * sigma * sigma), -1.0)
