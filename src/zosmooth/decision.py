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

Each protocol is one :class:`~zosmooth.estimators.BatchEstimator`
(:data:`KNOWN_DENSITY`, :data:`RANDOM_FIELD`, registered in
:data:`zosmooth.bench.KINDS`), whose row kernel evaluates the ``2n``
replacement points of every row in one call; :func:`esgs_dd_known` and
:func:`esgs_dd_unknown` are its draw of size 1 followed by the kernel on
one row.  So the oracles' callables broadcast over leading axes of points,
as :class:`KnownDensityOracle` and :class:`RandomFieldOracle` document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .estimators import SQRT_2PI, BatchEstimator, shift_draws
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

    Points are arrays of shape ``(..., n)`` and a noise realization ``xi`` is
    a tuple of component arrays that broadcast against the points' leading
    axes; each callable returns one value per point, over those axes.

    Fields
    ------
    f_hat : callable
        ``f_hat(x, xi)``, the raw objective integrand.
    cond_density : callable
        ``cond_density(xi, x)``, the conditional density of the noise under
        decision ``x``.
    ref_density : callable
        ``ref_density(xi)``, the fixed positive reference density.
    ref_sampler : callable
        ``ref_sampler(stream, size) -> xi`` drawing ``size`` independent
        realizations from the reference density, each component an array of
        shape ``(size,)``.  The known-density kind draws ``xi`` before
        ``(V, Z)``.
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

    f_hat: Callable[[np.ndarray, tuple], np.ndarray]
    cond_density: Callable[[tuple, np.ndarray], np.ndarray]
    ref_density: Callable[[tuple], np.ndarray]
    ref_sampler: Callable[[RandomStream, int], tuple]
    ratio_bound_m: float
    value_bound_mf: float
    lip_f_hat: float
    lip_xi: float

    def weighted_value(self, x: np.ndarray, xi: tuple):
        """``f_hat(x, xi) * p(xi | x) / p_ref(xi)`` with bound checks.

        ``x`` is one point or an array of points along its last axis, with
        the components of ``xi`` broadcasting against its leading axes; both
        bounds are checked at every point.
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

    ``f_hat(x, xi)`` follows the contract of :class:`KnownDensityOracle`:
    points of shape ``(..., n)``, ``xi`` a tuple of component arrays that
    broadcast against their leading axes, one value per point.

    ``field_sampler(x_plus, x_minus, stream)`` takes one pair of points of
    shape ``(n,)`` and returns one pair ``(xi_1, xi_2)`` of realizations,
    each a tuple of scalar components, whose marginal laws are ``D(x_plus)``
    and ``D(x_minus)`` and whose mean-square difference satisfies
    ``E||xi_1 - xi_2||^2 <= c_xi * ||x_plus - x_minus||^2``.  Each call is an
    independent realization of the field.
    """

    f_hat: Callable[[np.ndarray, tuple], np.ndarray]
    field_sampler: Callable[[np.ndarray, np.ndarray, RandomStream], tuple[tuple, tuple]]
    c_xi: float


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

# The single-sample estimator of each protocol.
esgs_dd_known = KNOWN_DENSITY.sample
esgs_dd_unknown = RANDOM_FIELD.sample


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
