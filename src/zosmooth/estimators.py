"""Single-sample zeroth-order gradient estimators.

The primary estimator (:func:`esgs_estimate`) differences the noisy oracle
coordinate-by-coordinate at points whose active coordinate is shifted by
``eta * sqrt(2 V)`` with ``V ~ Exp(1)`` while the remaining coordinates are
displaced by a Gaussian perturbation ``Z ~ N(0, eta^2 I)``; one shared
``(V, Z, xi)`` realization serves all ``n`` components, consuming ``2n``
oracle calls.  Its second moment scales linearly in the dimension, in
contrast to the quadratic scaling of two-point Gaussian smoothing.

Three standard two-point baselines (Gaussian smoothing, spherical smoothing,
SPSA) are provided for benchmarking, each consuming 2 oracle calls per
estimate.

Each kind also has a batched form (:class:`BatchEstimator`) with which the
driver advances R replications at once: a block sampler that draws one
replication's perturbations for many iterations from its own stream, and a
row kernel that computes the estimates at all R iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .rng import RandomStream, sample_exponential, sample_gaussian_vector

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing radius eta > 0."""

    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"smoothing radius eta must be > 0, got {self.eta}")


@dataclass
class GradientSample:
    """One realized gradient estimate together with its perturbation triple.

    ``oracle_calls`` counts noisy function evaluations consumed: ``2n`` for
    the coordinate-wise exponential-shift estimator, 2 for the two-point
    baselines.
    """

    estimate: np.ndarray
    v: float
    z: np.ndarray
    oracle_calls: int


@dataclass
class StochasticOracle:
    """Noisy zeroth-order function oracle F(x, xi).

    Parameters
    ----------
    eval : callable
        ``eval(x, xi) -> float``; deterministic given ``(x, xi)``.
    noise_sampler : callable
        ``noise_sampler(stream) -> xi`` drawing one noise realization.
    lipschitz_l0 : float
        Lipschitz constant of ``F(., xi)`` in the L2(xi) sense.
    eval_batch : callable, optional
        ``eval_batch(points, xi) -> values`` evaluating F at each row of an
        ``(m, n)`` array.  Semantically identical to looping ``eval``.
    eval_axis : callable, optional
        ``eval_axis(base, plus, minus, xi) -> (f_plus, f_minus)`` where entry
        ``i`` evaluates F at ``base`` with coordinate ``i`` replaced by
        ``plus[i]`` (resp. ``minus[i]``).  Structured objectives implement
        this in O(n) total instead of O(n) full evaluations; values must
        match ``eval`` on the same points.
    """

    eval: Callable[[np.ndarray, Any], float]
    noise_sampler: Callable[[RandomStream], Any]
    lipschitz_l0: float
    eval_batch: Callable[[np.ndarray, Any], np.ndarray] | None = None
    eval_axis: (
        Callable[[np.ndarray, np.ndarray, np.ndarray, Any], tuple[np.ndarray, np.ndarray]]
        | None
    ) = None


def _axis_values(
    oracle: StochasticOracle,
    base: np.ndarray,
    plus: np.ndarray,
    minus: np.ndarray,
    xi: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate F at the 2n coordinate-replacement points.

    Point ``i+`` is ``base`` with coordinate i set to ``plus[i]``; likewise
    for ``minus``.  Uses the oracle's structured path when available.
    """
    if oracle.eval_axis is not None:
        f_plus, f_minus = oracle.eval_axis(base, plus, minus, xi)
        return np.asarray(f_plus, dtype=float), np.asarray(f_minus, dtype=float)
    if oracle.eval_batch is not None:
        n = base.shape[0]
        points = np.tile(base, (2 * n, 1))
        idx = np.arange(n)
        points[idx, idx] = plus
        points[n + idx, idx] = minus
        values = np.asarray(oracle.eval_batch(points, xi), dtype=float)
        return values[:n], values[n:]
    return point_values(oracle.eval, base, plus, minus, xi)


def point_values(evaluate, base, plus, minus, xi) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate(point, xi)`` at the 2n replacement points, one at a time."""
    n = base.shape[0]
    f_plus = np.empty(n)
    f_minus = np.empty(n)
    point = base.copy()
    for i in range(n):
        saved = point[i]
        point[i] = plus[i]
        f_plus[i] = evaluate(point, xi)
        point[i] = minus[i]
        f_minus[i] = evaluate(point, xi)
        point[i] = saved
    return f_plus, f_minus


def exponential_shift(stream: RandomStream, n: int, eta: float):
    """One ``(V, Z, eta*sqrt(2V))`` draw of the exponential-shift family:
    ``V ~ Exp(1)``, then ``Z ~ N(0, eta^2 I_n)``."""
    v = sample_exponential(stream)
    z = sample_gaussian_vector(n, eta, stream)
    return v, z, eta * math.sqrt(2.0 * v)


def shift_sample(f_plus, f_minus, eta: float, v: float, z: np.ndarray) -> GradientSample:
    """The exponential-shift estimate from the values at the 2n points."""
    estimate = (f_plus - f_minus) / (eta * SQRT_2PI)
    return GradientSample(estimate=estimate, v=v, z=z, oracle_calls=2 * len(z))


def esgs_estimate(
    oracle: StochasticOracle,
    x: np.ndarray,
    params: SmoothingParams,
    stream: RandomStream,
) -> GradientSample:
    """Exponentially-shifted Gaussian smoothing gradient estimate.

    Component ``i`` is
    ``[F(x_i + eta*sqrt(2V), x^{-i} - Z^{-i}, xi)
       - F(x_i - eta*sqrt(2V), x^{-i} - Z^{-i}, xi)] / (eta*sqrt(2*pi))``
    with one shared realization of ``V ~ Exp(1)``, ``Z ~ N(0, eta^2 I)``,
    and ``xi`` across all components.
    """
    x = np.asarray(x, dtype=float)
    v, z, shift = exponential_shift(stream, x.shape[0], params.eta)
    xi = oracle.noise_sampler(stream)
    f_plus, f_minus = _axis_values(oracle, x - z, x + shift, x - shift, xi)
    return shift_sample(f_plus, f_minus, params.eta, v, z)


def gs_estimate(
    oracle: StochasticOracle,
    x: np.ndarray,
    params: SmoothingParams,
    stream: RandomStream,
) -> GradientSample:
    """Two-point Gaussian smoothing estimate with unit covariance.

    ``g = ((F(x + eta*Z, xi) - F(x, xi)) / eta) * Z`` with ``Z`` standard
    normal.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    eta = params.eta
    z = sample_gaussian_vector(n, 1.0, stream)
    xi = oracle.noise_sampler(stream)
    diff = oracle.eval(x + eta * z, xi) - oracle.eval(x, xi)
    estimate = (diff / eta) * z
    return GradientSample(estimate=estimate, v=math.nan, z=z, oracle_calls=2)


def spherical_estimate(
    oracle: StochasticOracle,
    x: np.ndarray,
    params: SmoothingParams,
    stream: RandomStream,
) -> GradientSample:
    """Two-point spherical smoothing estimate.

    ``g = (n / (2*eta)) * (F(x + eta*u, xi) - F(x - eta*u, xi)) * u`` with
    ``u`` uniform on the unit sphere.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    eta = params.eta
    z = sample_gaussian_vector(n, 1.0, stream)
    norm = float(np.linalg.norm(z))
    while norm == 0.0:  # probability zero in practice
        z = sample_gaussian_vector(n, 1.0, stream)
        norm = float(np.linalg.norm(z))
    u = z / norm
    xi = oracle.noise_sampler(stream)
    diff = oracle.eval(x + eta * u, xi) - oracle.eval(x - eta * u, xi)
    estimate = (n / (2.0 * eta)) * diff * u
    return GradientSample(estimate=estimate, v=math.nan, z=u, oracle_calls=2)


def spsa_estimate(
    oracle: StochasticOracle,
    x: np.ndarray,
    params: SmoothingParams,
    stream: RandomStream,
) -> GradientSample:
    """Two-point simultaneous-perturbation estimate with Rademacher directions.

    ``g_i = (F(x + eta*D, xi) - F(x - eta*D, xi)) / (2*eta*D_i)`` with
    ``D_i`` i.i.d. uniform on {-1, +1}.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    eta = params.eta
    delta = 2.0 * stream.generator.integers(0, 2, size=n).astype(float) - 1.0
    xi = oracle.noise_sampler(stream)
    diff = oracle.eval(x + eta * delta, xi) - oracle.eval(x - eta * delta, xi)
    estimate = diff / (2.0 * eta * delta)
    return GradientSample(estimate=estimate, v=math.nan, z=delta, oracle_calls=2)


# ---------------------------------------------------------------------------
# Row kernels: the estimates at every row of an (R, n) iterate array, with
# the same arithmetic as the single-sample functions above.  Each takes the
# current iteration's perturbations stacked over rows (``draws``) and one
# stream per row for the draws the oracle makes per call; it returns the
# (R, n) estimates and the oracle calls each row consumed.  The single-sample
# functions keep their own code: the moment probes call them one sample at a
# time, and routing them through (1, n) arrays made those probes slower.


def esgs_rows(oracle, x, eta, draws, streams):
    """Exponential-shift estimates from ``draws = (sqrt(2V), Z / eta)``."""
    root_2v, z_unit = draws
    base = x - eta * z_unit
    diff = np.empty_like(x)
    for r, stream in enumerate(streams):
        xi = oracle.noise_sampler(stream)
        shift = eta * float(root_2v[r])
        f_plus, f_minus = _axis_values(oracle, base[r], x[r] + shift, x[r] - shift, xi)
        diff[r] = f_plus - f_minus
    return diff / (eta * SQRT_2PI), 2 * x.shape[1]


def _two_point_diffs(oracle, plus, minus, streams) -> np.ndarray:
    """``F(plus_r, xi_r) - F(minus_r, xi_r)`` with one fresh ``xi_r`` per row."""
    diff = np.empty(len(plus))
    for r, stream in enumerate(streams):
        xi = oracle.noise_sampler(stream)
        diff[r] = oracle.eval(plus[r], xi) - oracle.eval(minus[r], xi)
    return diff


def gs_rows(oracle, x, eta, draws, streams):
    """Gaussian smoothing estimates from ``draws = (Z,)``."""
    (z,) = draws
    diff = _two_point_diffs(oracle, x + eta * z, x, streams)
    return (diff / eta)[:, None] * z, 2


def spherical_rows(oracle, x, eta, draws, streams):
    """Spherical smoothing estimates from ``draws = (u,)``, unit rows."""
    (u,) = draws
    diff = _two_point_diffs(oracle, x + eta * u, x - eta * u, streams)
    return (x.shape[1] / (2.0 * eta)) * diff[:, None] * u, 2


def spsa_rows(oracle, x, eta, draws, streams):
    """Simultaneous-perturbation estimates from ``draws = (D,)``."""
    (delta,) = draws
    diff = _two_point_diffs(oracle, x + eta * delta, x - eta * delta, streams)
    return diff[:, None] / (2.0 * eta * delta), 2


# ---------------------------------------------------------------------------
# Block draws: one replication's perturbations for ``size`` iterations.


def shift_draws(oracle, stream: RandomStream, size: int, n: int):
    """``(sqrt(2V), Z / eta)`` blocks of the exponential-shift family."""
    root_2v = np.sqrt(2.0 * sample_exponential(stream, size))
    return root_2v, sample_gaussian_vector(n, 1.0, stream, size)


def _gaussian_draws(oracle, stream: RandomStream, size: int, n: int):
    return (sample_gaussian_vector(n, 1.0, stream, size),)


def _sphere_draws(oracle, stream: RandomStream, size: int, n: int):
    z = sample_gaussian_vector(n, 1.0, stream, size)
    norms = np.sqrt(np.vecdot(z, z))
    while not norms.all():  # probability zero in practice
        zero = norms == 0.0
        z[zero] = sample_gaussian_vector(n, 1.0, stream, int(zero.sum()))
        norms = np.sqrt(np.vecdot(z, z))
    return (z / norms[:, None],)


def _rademacher_draws(oracle, stream: RandomStream, size: int, n: int):
    signs = stream.generator.integers(0, 2, size=(size, n)).astype(float)
    return (2.0 * signs - 1.0,)


@dataclass(frozen=True)
class BatchEstimator:
    """One estimator kind in the form the driver advances R replications in.

    ``draw(oracle, stream, size, n)`` draws one replication's perturbations
    for ``size`` consecutive iterations from that replication's own stream,
    as a tuple of arrays with leading axis ``size``.  ``estimate(oracle, x,
    eta, draws, streams)`` is the row kernel: ``draws`` holds each array of
    ``draw`` at the current iteration, stacked over the R rows of ``x``.
    ``sample`` is the single-sample function of the same kind.
    """

    name: str
    sample: Callable[..., GradientSample]
    draw: Callable[..., tuple[np.ndarray, ...]]
    estimate: Callable[..., tuple[np.ndarray, int]]


BATCH_ESTIMATORS: dict[str, BatchEstimator] = {
    "esgs": BatchEstimator("esgs", esgs_estimate, shift_draws, esgs_rows),
    "gs": BatchEstimator("gs", gs_estimate, _gaussian_draws, gs_rows),
    "spherical": BatchEstimator(
        "spherical", spherical_estimate, _sphere_draws, spherical_rows
    ),
    "spsa": BatchEstimator("spsa", spsa_estimate, _rademacher_draws, spsa_rows),
}

# The single-sample function of each kind, for callers that draw one
# estimate at a time (the moment probes).
ESTIMATORS: dict[str, Callable[..., GradientSample]] = {
    kind: batch.sample for kind, batch in BATCH_ESTIMATORS.items()
}


def second_moment_probe(
    make_estimate: Callable[..., GradientSample],
    oracle: StochasticOracle,
    x: np.ndarray,
    params: SmoothingParams,
    sample_count: int,
    stream: RandomStream,
) -> float:
    """Monte-Carlo estimate of E[||g||^2] from ``sample_count`` fresh draws."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    total = 0.0
    for _ in range(sample_count):
        g = make_estimate(oracle, x, params, stream)
        total += float(g.estimate @ g.estimate)
    return total / sample_count
