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
replication's perturbations for many iterations from its own stream, then
the oracle's noise for the same iterations, and a row kernel that computes
the estimates at every row of an ``(R, n)`` array of points.  The kernels
hand all rows of an iteration to the oracle at once: a two-point kernel
makes one :attr:`StochasticOracle.eval` call on the ``(R, 2, n)`` stacked
point pairs, and the exponential-shift kernel :func:`esgs_rows` one
``eval_axis`` call on the ``(R, n)`` rows, or, without one, ``eval`` calls
on chunks of the ``R * 2n`` replacement points.  So the oracle's callables
broadcast, as :class:`StochasticOracle` documents.  The driver advances R
replications with them.  A single-sample estimator such as
:func:`esgs_estimate` is its kind's draw of size 1 followed by its kernel
on one row, and :func:`second_moment_probe` evaluates its samples in
blocks, each block as the rows of one kernel call.  The decision-dependent
kinds of :mod:`zosmooth.decision` run :func:`esgs_rows` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable

import numpy as np

from .rng import RandomStream, sample_exponential, sample_gaussian_vector

SQRT_2PI = math.sqrt(2.0 * math.pi)


class NonFiniteError(RuntimeError):
    """A gradient estimate or an iterate became NaN or infinite."""


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
    ``(sqrt(2V), Z / eta, xi)`` for the exponential-shift estimator and both
    decision-dependent ones, ``(Z, xi)``, ``(u, xi)`` and ``(D, xi)`` for
    the two-point baselines, where ``xi`` is the oracle's noise
    realization.  The known-density ``xi`` is its reference draw, one value
    per component and drawn before ``(V, Z)``; the random-field ``xi`` is
    the noise its field maps, one row per coordinate.
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

    Points are arrays of shape ``(..., n)`` and ``xi`` is an array of noise
    realizations whose leading axes broadcast against the points' leading
    axes; each callable returns one value per point, over those axes.

    Parameters
    ----------
    eval : callable
        ``eval(points, xi) -> values`` of shape ``points.shape[:-1]``;
        deterministic given ``(points, xi)``.  The two-point kinds pass the
        ``(R, 2, n)`` point pairs of an iteration with ``xi[:, None]``.
    noise_sampler : callable
        ``noise_sampler(stream, size) -> xi``, an array of ``size``
        independent realizations along its leading axis.  Each kind draws
        it right after its perturbation block for the same iterations.
    lipschitz_l0 : float
        Lipschitz constant of ``F(., xi)`` in the L2(xi) sense.
    eval_batch : callable, optional
        Not read by the estimators; ``eval`` broadcasts over points.  Kept
        so that code which inspects the field still finds it.
    eval_axis : callable, optional
        ``eval_axis(base, plus, minus, xi) -> (f_plus, f_minus)`` over
        ``(R, n)`` rows, with ``xi`` the ``(R, ...)`` noise of the rows:
        entry ``(r, i)`` evaluates F at ``base[r]`` with coordinate ``i``
        replaced by ``plus[r, i]`` (resp. ``minus[r, i]``).  Structured
        objectives implement this in O(n) per row instead of O(n) full
        evaluations; values must match ``eval`` on the same points.
    """

    eval: Callable[[np.ndarray, Any], np.ndarray]
    noise_sampler: Callable[[RandomStream, int], Any]
    lipschitz_l0: float
    eval_batch: Callable[[np.ndarray, Any], np.ndarray] | None = None
    eval_axis: (
        Callable[[np.ndarray, np.ndarray, np.ndarray, Any], tuple[np.ndarray, np.ndarray]]
        | None
    ) = None


def _evaluate(evaluate, points: np.ndarray, xi: Any) -> np.ndarray:
    """``evaluate(points, xi)``, checked to give one value per point."""
    values = np.asarray(evaluate(points, xi), dtype=float)
    if values.shape != points.shape[:-1]:
        raise ValueError(
            f"oracle eval returned shape {values.shape} for points of shape "
            f"{points.shape}; eval(points, xi) must broadcast over the points' "
            f"leading axes and return one value per point"
        )
    return values


# The generic esgs path hands ``eval`` about EVAL_CHUNK_VALUES coordinates of
# replacement points per call: whole rows at small n, part of a row at large
# n, where a whole row's 2n*n values (640 kB at n = 200) raised peak memory.
EVAL_CHUNK_VALUES = 1 << 14


def replacement_points(base, moved, first: int = 0, out=None) -> np.ndarray:
    """``(R, m, n)`` points: point ``j`` of row ``r`` is ``base[r]`` with
    coordinate ``(first + j) mod n`` set to ``moved[r, j]``, written into
    ``out`` (C-contiguous) when given."""
    rows, m = moved.shape
    n = base.shape[1]
    points = np.empty((rows, m, n)) if out is None else out
    points[:] = base[:, None]
    points.reshape(rows, -1)[:, _replaced(m, n, first)] = moved
    return points


@lru_cache(maxsize=None)
def _replaced(m: int, n: int, first: int) -> np.ndarray:
    """Flat index of each replaced coordinate in an ``(m, n)`` block; cached,
    because computing it took as long as the rest of a small call."""
    j = np.arange(m)
    index = j * n + (first + j) % n
    index.flags.writeable = False
    return index


def _replacement_values(evaluate, base, moved, xi) -> np.ndarray:
    """``evaluate`` at the ``(R, 2n)`` points of :func:`replacement_points`,
    each with its row's noise ``xi[r]``, in chunks of one buffer that the
    next chunk overwrites."""
    rows, n = base.shape
    per_row = 2 * n
    span = max(1, EVAL_CHUNK_VALUES // n)  # points per call
    # a call takes `step` whole rows, or `cols` < 2n points of one row
    cols = min(per_row, span)
    step = max(1, span // per_row)
    values = np.empty((rows, per_row))
    # one buffer for every chunk: a new array per chunk raised peak memory
    buffer = np.empty(min(rows, step) * cols * n)
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        for j0 in range(0, per_row, cols):
            j1 = min(per_row, j0 + cols)
            points = buffer[: (r1 - r0) * (j1 - j0) * n].reshape(r1 - r0, j1 - j0, n)
            replacement_points(base[r0:r1], moved[r0:r1, j0:j1], j0, points)
            values[r0:r1, j0:j1] = _evaluate(evaluate, points, xi[r0:r1, None])
    return values


# ---------------------------------------------------------------------------
# Row kernels: the estimates at every row of an (R, n) array of points.  Each
# takes one draw per row, stacked over rows (``draws``, ending with the rows'
# noise), and one stream per row; it returns the (R, n) estimates and the
# oracle calls each row consumed.


def esgs_rows(oracle, x, eta, draws, streams):
    """Exponentially-shifted Gaussian smoothing from ``draws = (sqrt(2V), Z / eta, xi)``.

    Component ``i`` of row ``r`` is
    ``[F(x_i + eta*sqrt(2V), x^{-i} - Z^{-i}, xi)
       - F(x_i - eta*sqrt(2V), x^{-i} - Z^{-i}, xi)] / (eta*sqrt(2*pi))``
    with one realization of ``V ~ Exp(1)``, ``Z ~ N(0, eta^2 I)`` and ``xi``
    shared across the row's components, from one ``oracle.eval_axis`` call
    (a method of the decision-dependent oracles) or else ``oracle.eval``.
    """
    root_2v, z_unit, xi = draws
    n = x.shape[1]
    base = x - eta * z_unit
    shift = (eta * root_2v)[:, None]
    if oracle.eval_axis is not None:
        f_plus, f_minus = (
            np.asarray(f, dtype=float)
            for f in oracle.eval_axis(base, x + shift, x - shift, xi)
        )
        if f_plus.shape != x.shape or f_minus.shape != x.shape:
            raise ValueError(
                f"oracle eval_axis returned shapes {f_plus.shape} and "
                f"{f_minus.shape} for rows of shape {x.shape}; it must "
                f"evaluate every row at once"
            )
    else:
        # x + shift and x - shift live only until they are concatenated
        values = _replacement_values(
            oracle.eval, base, np.concatenate((x + shift, x - shift), axis=1), xi
        )
        f_plus, f_minus = values[:, :n], values[:, n:]
    return (f_plus - f_minus) / (eta * SQRT_2PI), 2 * n


def _two_point_diffs(oracle, plus, minus, xi) -> np.ndarray:
    """``F(plus_r, xi_r) - F(minus_r, xi_r)``, all rows in one ``eval`` call."""
    f = _evaluate(oracle.eval, np.stack((plus, minus), axis=1), xi[:, None])
    return f[:, 0] - f[:, 1]


def gs_rows(oracle, x, eta, draws, streams):
    """Two-point Gaussian smoothing with unit covariance from ``draws = (Z, xi)``.

    ``g = ((F(x + eta*Z, xi) - F(x, xi)) / eta) * Z`` with ``Z`` standard
    normal.
    """
    z, xi = draws
    diff = _two_point_diffs(oracle, x + eta * z, x, xi)
    return (diff / eta)[:, None] * z, 2


def spherical_rows(oracle, x, eta, draws, streams):
    """Two-point spherical smoothing from ``draws = (u, xi)``, unit rows.

    ``g = (n / (2*eta)) * (F(x + eta*u, xi) - F(x - eta*u, xi)) * u`` with
    ``u`` uniform on the unit sphere.
    """
    u, xi = draws
    diff = _two_point_diffs(oracle, x + eta * u, x - eta * u, xi)
    return (x.shape[1] / (2.0 * eta)) * diff[:, None] * u, 2


def spsa_rows(oracle, x, eta, draws, streams):
    """Two-point simultaneous perturbation from ``draws = (D, xi)``.

    ``g_i = (F(x + eta*D, xi) - F(x - eta*D, xi)) / (2*eta*D_i)`` with
    ``D_i`` i.i.d. uniform on {-1, +1}.
    """
    delta, xi = draws
    diff = _two_point_diffs(oracle, x + eta * delta, x - eta * delta, xi)
    return diff[:, None] / (2.0 * eta * delta), 2


# ---------------------------------------------------------------------------
# Block draws: one replication's perturbations for ``size`` iterations.  The
# decision-independent kinds then draw the oracle's noise for the same
# iterations (see _with_noise), which is the order in which drawing it once
# per iteration would consume the stream.


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


def _with_noise(draw):
    """``draw`` followed by ``oracle.noise_sampler(stream, size)``."""

    def draw_with_noise(oracle, stream: RandomStream, size: int, n: int):
        return draw(oracle, stream, size, n) + (oracle.noise_sampler(stream, size),)

    return draw_with_noise


@dataclass(frozen=True)
class BatchEstimator:
    """One estimator kind in the form the driver advances R replications in.

    ``draw(oracle, stream, size, n)`` draws one replication's perturbations
    and noise for ``size`` consecutive iterations from that replication's
    own stream, as a tuple of arrays with leading axis ``size``.
    ``estimate(oracle, x, eta, draws, streams)`` is the row kernel: ``draws``
    holds each array of ``draw`` at the current iteration, stacked over the
    R rows of ``x``.
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


# The decision-independent kinds; zosmooth.bench.KINDS registers them.
ESGS = BatchEstimator("esgs", _with_noise(shift_draws), esgs_rows)
GS = BatchEstimator("gs", _with_noise(_gaussian_draws), gs_rows)
SPHERICAL = BatchEstimator("spherical", _with_noise(_sphere_draws), spherical_rows)
SPSA = BatchEstimator("spsa", _with_noise(_rademacher_draws), spsa_rows)

# The single-sample estimator of each decision-independent kind.
ESTIMATORS: dict[str, Callable[..., GradientSample]] = {
    batch.name: batch.sample for batch in (ESGS, GS, SPHERICAL, SPSA)
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

    Raises :class:`NonFiniteError`, naming the estimator and the first
    sample, when a sample's ``||g||^2`` is NaN or infinite.
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
        squares = np.vecdot(g, g)
        if not np.isfinite(squares).all():
            bad = first + int(np.flatnonzero(~np.isfinite(squares))[0])
            raise NonFiniteError(
                f"estimator {batch.name!r} produced a non-finite ||g||^2 at "
                f"sample {bad} of the second-moment probe"
            )
        # summed in sample order, as a loop of single-sample calls sums
        for square in squares.tolist():
            total += square
    return total / sample_count
