"""Zeroth-order gradient estimators.

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

Each kind is one :class:`BatchEstimator`: a block sampler that draws one
replication's perturbations for many iterations from its own stream, and a
row kernel that computes the estimates at every row of an ``(R, n)`` array
of points.  The driver advances R replications with them.  A single-sample
estimator such as :func:`esgs_estimate` is its kind's draw of size 1
followed by its kernel on one row, and :func:`second_moment_probe`
evaluates its samples in blocks, each block as the rows of one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
    """One realized gradient estimate together with the draws behind it.

    ``draws`` is the kind's tuple of block-sampler draws at this sample:
    ``(sqrt(2V), Z / eta)`` for the exponential-shift estimators, ``(Z,)``,
    ``(u,)`` and ``(D,)`` for the two-point baselines.  The known-density
    estimator appends the components of its reference draw ``xi`` (drawn
    before ``(V, Z)``), each an array of shape ``(1,)``.
    ``oracle_calls`` counts noisy function evaluations consumed: ``2n`` for
    the coordinate-wise exponential-shift estimator, 2 for the two-point
    baselines.
    """

    estimate: np.ndarray
    draws: tuple
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


# ---------------------------------------------------------------------------
# Row kernels: the estimates at every row of an (R, n) array of points.  Each
# takes one perturbation draw per row, stacked over rows (``draws``), and one
# stream per row for the draws the oracle makes per call; it returns the
# (R, n) estimates and the oracle calls each row consumed.


def esgs_rows(oracle, x, eta, draws, streams):
    """Exponentially-shifted Gaussian smoothing from ``draws = (sqrt(2V), Z / eta)``.

    Component ``i`` of row ``r`` is
    ``[F(x_i + eta*sqrt(2V), x^{-i} - Z^{-i}, xi)
       - F(x_i - eta*sqrt(2V), x^{-i} - Z^{-i}, xi)] / (eta*sqrt(2*pi))``
    with one realization of ``V ~ Exp(1)``, ``Z ~ N(0, eta^2 I)`` and ``xi``
    shared across the row's components.
    """
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
    """Two-point Gaussian smoothing with unit covariance from ``draws = (Z,)``.

    ``g = ((F(x + eta*Z, xi) - F(x, xi)) / eta) * Z`` with ``Z`` standard
    normal.
    """
    (z,) = draws
    diff = _two_point_diffs(oracle, x + eta * z, x, streams)
    return (diff / eta)[:, None] * z, 2


def spherical_rows(oracle, x, eta, draws, streams):
    """Two-point spherical smoothing from ``draws = (u,)``, unit rows.

    ``g = (n / (2*eta)) * (F(x + eta*u, xi) - F(x - eta*u, xi)) * u`` with
    ``u`` uniform on the unit sphere.
    """
    (u,) = draws
    diff = _two_point_diffs(oracle, x + eta * u, x - eta * u, streams)
    return (x.shape[1] / (2.0 * eta)) * diff[:, None] * u, 2


def spsa_rows(oracle, x, eta, draws, streams):
    """Two-point simultaneous perturbation from ``draws = (D,)``.

    ``g_i = (F(x + eta*D, xi) - F(x - eta*D, xi)) / (2*eta*D_i)`` with
    ``D_i`` i.i.d. uniform on {-1, +1}.
    """
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
    """

    name: str
    draw: Callable[..., tuple[np.ndarray, ...]]
    estimate: Callable[..., tuple[np.ndarray, int]]

    def sample(
        self,
        oracle,
        x: np.ndarray,
        params: SmoothingParams,
        stream: RandomStream,
    ) -> GradientSample:
        """One estimate at ``x``: the kind's draw of size 1 from ``stream``,
        then its row kernel (which states the formula) on ``x`` as one row."""
        x = np.asarray(x, dtype=float)
        draws = self.draw(oracle, stream, 1, x.shape[0])
        g, calls = self.estimate(oracle, x[None], params.eta, draws, [stream])
        return GradientSample(g[0], tuple(d[0] for d in draws), calls)


BATCH_ESTIMATORS: dict[str, BatchEstimator] = {
    "esgs": BatchEstimator("esgs", shift_draws, esgs_rows),
    "gs": BatchEstimator("gs", _gaussian_draws, gs_rows),
    "spherical": BatchEstimator("spherical", _sphere_draws, spherical_rows),
    "spsa": BatchEstimator("spsa", _rademacher_draws, spsa_rows),
}

# The single-sample estimator of each kind.
ESTIMATORS: dict[str, Callable[..., GradientSample]] = {
    kind: batch.sample for kind, batch in BATCH_ESTIMATORS.items()
}
esgs_estimate = ESTIMATORS["esgs"]
gs_estimate = ESTIMATORS["gs"]
spherical_estimate = ESTIMATORS["spherical"]
spsa_estimate = ESTIMATORS["spsa"]

EstimatorFn = Callable[..., GradientSample]


def batch_form(estimator: BatchEstimator | EstimatorFn) -> BatchEstimator:
    """The batched form of ``estimator``.

    A :class:`BatchEstimator` is its own batched form, and a
    :meth:`BatchEstimator.sample` resolves to the estimator it belongs to:
    every entry of :data:`ESTIMATORS`, and
    :func:`~zosmooth.decision.esgs_dd_known` and
    :func:`~zosmooth.decision.esgs_dd_unknown`, whose kernels need the
    broadcasting callables their oracles document.  Any other single-sample
    function is called once per row, drawing from the row's stream as it
    goes.
    """
    if isinstance(estimator, BatchEstimator):
        return estimator
    owner = getattr(estimator, "__self__", None)
    if isinstance(owner, BatchEstimator):
        return owner
    name = getattr(estimator, "__name__", repr(estimator))
    return BatchEstimator(name, _no_draws, partial(_per_row, estimator))


def _no_draws(oracle, stream, size, n):
    return ()


def _per_row(sample, oracle, x, eta, draws, streams):
    params = SmoothingParams(eta)
    samples = [sample(oracle, row, params, s) for row, s in zip(x, streams)]
    calls = {s.oracle_calls for s in samples}
    if len(calls) != 1:
        raise ValueError(f"rows used different oracle call counts {sorted(calls)}")
    return np.array([s.estimate for s in samples]), calls.pop()


# The probe's (rows, n) blocks hold about PROBE_BLOCK_VALUES numbers, fewer
# than the driver's blocks because peak memory grew with the block size.  On
# ``zosmooth-bench moments --dims 10,50,200 --samples 5000`` (one BLAS
# thread, 12 alternating runs), the median peak RSS was 36.36 MB one sample
# at a time, 36.53 MB with blocks of 2^13 values, 36.87 MB with 2^14 and
# 39.35 MB with 2^16; blocks of 2^12 to 2^14 values took the same time.
PROBE_BLOCK_VALUES = 1 << 13


def second_moment_probe(
    make_estimate: BatchEstimator | EstimatorFn,
    oracle: StochasticOracle,
    x: np.ndarray,
    params: SmoothingParams,
    sample_count: int,
    stream: RandomStream,
) -> float:
    """Monte-Carlo estimate of E[||g||^2] from ``sample_count`` fresh draws.

    ``make_estimate`` is resolved by :func:`batch_form`.  The samples are
    drawn from ``stream`` in blocks of rows, and each block is evaluated as
    the rows of one kernel call, so the draws fall in a different order than
    in ``sample_count`` single-sample calls on the same stream.  A function
    without a batched form is called once per sample, in order.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    batch = batch_form(make_estimate)
    block = max(1, PROBE_BLOCK_VALUES // n)
    total = 0.0
    for first in range(0, sample_count, block):
        size = min(block, sample_count - first)
        draws = batch.draw(oracle, stream, size, n)
        rows = np.broadcast_to(x, (size, n))
        g, _ = batch.estimate(oracle, rows, params.eta, draws, [stream] * size)
        # summed in sample order, as a loop of single-sample calls sums
        for square in np.vecdot(g, g).tolist():
            total += square
    return total / sample_count
