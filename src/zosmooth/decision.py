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
with a different oracle: like esgs, each draws one ``(sqrt(2V), Z / eta,
xi)`` triple per row, shares it across all coordinates and runs the row
kernel :func:`~zosmooth.estimators.esgs_rows`, whose one
``eval_axis(base, moved, xi)`` call is the oracle's method here: it
takes the ``(R, 2, n)`` replacement values ``x_i +- eta*sqrt(2V)`` and
returns one value for each.  The known-density ``xi`` is the reference
draw, drawn before ``(V, Z)`` and ending with its reference density; the
random-field ``xi`` is the field's noise, drawn after them by its
``noise_sampler(stream, size)``, as every oracle's noise is.  Each protocol
is one callable :class:`~zosmooth.estimators.BatchEstimator`
(:func:`esgs_dd_known`, :func:`esgs_dd_unknown`, registered in
:data:`zosmooth.bench.KINDS`) whose call is its draw of size 1 followed by
the kernel on one row; the field's kind draws with esgs's own block
sampler.  So the oracles' callables broadcast over leading axes of points,
as :class:`KnownDensityOracle` and :class:`RandomFieldOracle` document.
The reference draw and the field's noise come from the block samplers, as
all randomness does: the kernel takes no stream.  Another
decision-dependent estimator is one more
:class:`~zosmooth.estimators.BatchEstimator` whose kernel draws nothing;
:func:`~zosmooth.optimizer.run` raises :class:`TypeError` for anything
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import (
    BatchEstimator, esgs_estimate, esgs_rows, replacement_points, shift_draws,
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
        ``(V, Z)``, evaluates ``ref_density`` once on the block and packs
        both into one ``(size, c + 1)`` array: the ``c`` components, then
        their reference density.
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

    def weighted_value(self, x: np.ndarray, xi: tuple, ref: np.ndarray | None = None):
        """``f_hat(x, xi) * p(xi | x) / p_ref(xi)`` with bound checks.

        ``x`` is one point or an array of points along its last axis, with
        the components of ``xi`` broadcasting against its leading axes; both
        bounds are checked at every point, and a NaN ratio or value is no
        violation.  ``ref`` is ``ref_density(xi)`` when the caller has it
        already, as :meth:`eval_axis` does; it is computed when not given.
        """
        if ref is None:
            ref = self.ref_density(xi)
        ratio = self.cond_density(xi, x) / ref
        # fmax skips NaN, as a comparison does; one reduction is cheaper
        # than comparing every entry and then testing any()
        largest = np.fmax.reduce(ratio, axis=None)
        if largest > self.ratio_bound_m:
            raise RatioBoundError(
                f"density ratio {largest:.6g} exceeds bound {self.ratio_bound_m:.6g}"
            )
        value = self.f_hat(x, xi)
        largest = np.fmax.reduce(np.abs(value), axis=None)
        if largest > self.value_bound_mf:
            raise ValueBoundError(
                f"|f_hat| = {largest:.6g} exceeds bound {self.value_bound_mf:.6g}"
            )
        return value * ratio

    def eval_axis(self, base, moved, xi):
        """One :meth:`weighted_value` call at the rows' ``(2, n)``
        replacement points, with ``xi`` the rows' ``(R, c + 1)`` packed
        reference draws: ``c`` components, then their reference density."""
        # component j of row r, broadcasting over the row's 2n points, then
        # the row's reference density
        *xi, ref = xi.T[:, :, None, None]
        return self.weighted_value(replacement_points(base, moved), tuple(xi), ref)


@dataclass
class RandomFieldOracle:
    """Decision-dependent oracle backed by a correlated random field.

    ``f_hat(x, xi)`` follows the contract of :class:`KnownDensityOracle`:
    points of shape ``(..., n)``, ``xi`` a tuple of component arrays that
    broadcast against their leading axes, one value per point.

    ``noise_sampler(stream, size)`` draws a ``(size, n, ...)`` block of
    noise, one independent entry per point pair, after ``(V, Z)``; the
    oracle's builder fixes ``n``.
    ``field_sampler(x_plus, x_minus, noise)`` maps it through the field at
    point pairs of shape ``(..., n)`` and returns ``(xi_plus, xi_minus)``,
    tuples of components of shape ``x_plus.shape[:-1]``, whose marginal
    laws are ``D(x_plus)`` and ``D(x_minus)`` and whose mean-square
    difference satisfies
    ``E||xi_plus - xi_minus||^2 <= c_xi * ||x_plus - x_minus||^2``.
    """

    f_hat: Callable[[np.ndarray, tuple], np.ndarray]
    field_sampler: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[tuple, tuple]]
    noise_sampler: Callable[[RandomStream, int], np.ndarray]
    c_xi: float

    def eval_axis(self, base, moved, noise):
        """One :attr:`field_sampler` call on the rows' ``(R, n)`` point pairs
        with their noise, then one ``f_hat`` call at the ``(R, 2, n)``
        points, each with the field's value at it."""
        points = replacement_points(base, moved)
        pairs = zip(*self.field_sampler(points[:, 0], points[:, 1], noise))
        # each component's two sides as (R, 2, n); np.stack took three times
        # as long on the market's (8, 2) components
        return self.f_hat(points, tuple(np.array(pair).swapaxes(0, 1) for pair in pairs))


def _known_draws(oracle: KnownDensityOracle, stream, size: int, n: int):
    # the reference density depends on xi alone, so it is evaluated once per
    # block, not once per iteration, and packed after the components
    xi = oracle.ref_sampler(stream, size)
    xi = np.stack((*xi, oracle.ref_density(xi)), axis=1)
    return shift_draws(oracle, stream, size, n) + (xi,)


esgs_dd_known = BatchEstimator("esgs_dd_known", _known_draws, esgs_rows, True)
esgs_dd_unknown = BatchEstimator("esgs_dd_unknown", esgs_estimate.draw, esgs_rows, True)


def field_correlation(x_plus, x_minus, c_xi: float, beta: float, sigma: float):
    """Correlation making a Gaussian field mean-square Lipschitz.

    For marginals ``N(a + beta*x, sigma^2)`` indexed by a scalar ``x``, the
    pair correlation ``max(1 - (c_xi - beta^2)(x_plus - x_minus)^2 /
    (2 sigma^2), -1)`` yields ``E[(xi_plus - xi_minus)^2] <= c_xi
    (x_plus - x_minus)^2``.  ``x_plus`` and ``x_minus`` broadcast.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if c_xi < beta * beta:
        raise ValueError(f"c_xi must be >= beta^2, got c_xi={c_xi}, beta={beta}")
    d = x_plus - x_minus
    return np.maximum(1.0 - (c_xi - beta * beta) * d * d / (2.0 * sigma * sigma), -1.0)
