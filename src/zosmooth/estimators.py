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

Each kind is one callable :class:`BatchEstimator`: a block sampler that
draws one replication's perturbations for many iterations from its own
stream, then the oracle's noise for the same iterations, a row kernel
that computes the estimates at every row of an ``(R, n)`` array of points,
and ``per_coordinate``, which states the kind's cost once:
:meth:`BatchEstimator.oracle_calls` gives ``2n`` or 2 calls per estimate,
and every oracle-call count of the driver and the benchmark derives from
it.  A kernel returns the estimates alone, takes no stream and draws
nothing, so all randomness enters through the block sampler.  The kinds'
public names are those objects: :func:`esgs_estimate`, :func:`gs_estimate`,
:func:`spherical_estimate` and :func:`spsa_estimate`, which
:data:`ESTIMATORS` maps by name.  A custom estimator is one more
:class:`BatchEstimator`; the driver and :func:`second_moment_probe` raise
:class:`TypeError` for anything else.
The kernels hand all rows of an iteration to the oracle at once: a
two-point kernel makes one :attr:`StochasticOracle.eval` call on the
``(R, 2, n)`` stacked point pairs, and the exponential-shift kernel
:func:`esgs_rows` one ``eval_axis`` call on the ``(R, n)`` rows and their
``(R, 2, n)`` replacement values, or, without one, ``eval`` calls on
chunks of the ``R * 2n`` replacement points.  So the oracle's callables
broadcast, as :class:`StochasticOracle` documents.  The driver advances R
replications with them.  Calling a kind, as in ``esgs_estimate(oracle, x,
eta, stream)``, gives one estimate: its draw of size 1 followed by its
kernel on one row.  :func:`second_moment_probe` evaluates its samples in
blocks, each block as the rows of one kernel call.  The decision-dependent
kinds of :mod:`zosmooth.decision` run :func:`esgs_rows` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .rng import RandomStream, sample_exponential, sample_gaussian_vector

SQRT_2PI = math.sqrt(2.0 * math.pi)


class NonFiniteError(RuntimeError):
    """A gradient estimate or an iterate became NaN or infinite."""


def _check_eta(eta: float) -> None:
    """Reject a smoothing radius that is not > 0, NaN included."""
    if not eta > 0:
        raise ValueError(f"smoothing radius eta must be > 0, got {eta}")


def _check_estimator(estimator: object) -> None:
    """Reject anything that is not a :class:`BatchEstimator`."""
    if not isinstance(estimator, BatchEstimator):
        raise TypeError(
            f"{estimator!r} is not a BatchEstimator; wrap a custom estimator "
            f"as BatchEstimator(name, draw, estimate, per_coordinate)"
        )


@dataclass
class GradientSample:
    """One realized gradient estimate together with the draws behind it.

    ``draws`` is the kind's tuple of block-sampler draws at this sample:
    ``(sqrt(2V), Z / eta, xi)`` for the exponential-shift estimator and both
    decision-dependent ones, ``(Z, xi)``, ``(u, xi)`` and ``(D, xi)`` for
    the two-point baselines, where ``xi`` is the oracle's noise
    realization.  The known-density ``xi`` is its reference draw, one value
    per component followed by their reference density, and drawn before
    ``(V, Z)``; the random-field ``xi`` is the noise its field maps, one row
    per coordinate.
    ``oracle_calls`` is the kind's :meth:`BatchEstimator.oracle_calls`:
    ``2n`` noisy function evaluations for the coordinate-wise
    exponential-shift estimators, 2 for the two-point baselines.
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
    eval_batch : callable, optional
        Not read by the estimators; ``eval`` broadcasts over points.  Kept
        so that code which inspects the field still finds it.
    eval_axis : callable, optional
        ``eval_axis(base, moved, xi) -> values`` with ``base`` the ``(R, n)``
        rows, ``moved`` the ``(R, 2, n)`` replacement values and ``xi`` the
        ``(R, ...)`` noise of the rows: ``values[r, s, i]`` evaluates F at
        ``base[r]`` with coordinate ``i`` replaced by ``moved[r, s, i]``,
        so ``values`` has ``moved``'s shape.  esgs passes
        ``x_i + eta*sqrt(2V)`` as side 0 and ``x_i - eta*sqrt(2V)`` as
        side 1.  Structured objectives implement this in O(n) per row
        instead of O(n) full evaluations; values must match ``eval`` on the
        same points.
    """

    eval: Callable[[np.ndarray, Any], np.ndarray]
    noise_sampler: Callable[[RandomStream, int], Any]
    eval_batch: Callable[[np.ndarray, Any], np.ndarray] | None = None
    eval_axis: Callable[[np.ndarray, np.ndarray, Any], np.ndarray] | None = None


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
    # one put: a fancy-index assignment took most of a small call's time
    points.put(_replaced(rows, m, n, first), moved)
    return points


@lru_cache(maxsize=256)
def _replaced(rows: int, m: int, n: int, first: int) -> np.ndarray:
    """Flat index of each replaced coordinate in a C-contiguous ``(rows, m,
    n)`` block, in the order of ``moved``; cached, because computing it took
    as long as the rest of a small call."""
    j = np.arange(m)
    index = (np.arange(rows)[:, None] * (m * n) + (j * n + (first + j) % n)).ravel()
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
# noise), and draws nothing itself; it returns the (R, n) estimates alone:
# what an estimate costs in oracle calls is its BatchEstimator's to say.


# The signs of the two sides, as a (2, 1) factor: x + (-s) and x - s are
# the same IEEE value, so one broadcast builds both sides' bits.
_SIDES = np.array([[1.0], [-1.0]])


def esgs_rows(oracle, x, eta, draws):
    """Exponentially-shifted Gaussian smoothing from ``draws = (sqrt(2V), Z / eta, xi)``.

    Component ``i`` of row ``r`` is
    ``[F(x_i + eta*sqrt(2V), x^{-i} - Z^{-i}, xi)
       - F(x_i - eta*sqrt(2V), x^{-i} - Z^{-i}, xi)] / (eta*sqrt(2*pi))``
    with one realization of ``V ~ Exp(1)``, ``Z ~ N(0, eta^2 I)`` and ``xi``
    shared across the row's components.  The ``(R, 2, n)`` replacement
    values ``x_i +- eta*sqrt(2V)`` go to one ``oracle.eval_axis`` call (a
    method of the decision-dependent oracles) or else, as ``R`` rows of
    ``2n``, to ``oracle.eval`` in chunks.
    """
    root_2v, z_unit, xi = draws
    rows, n = x.shape
    base = x - eta * z_unit
    moved = x[:, None] + (eta * root_2v)[:, None, None] * _SIDES
    if oracle.eval_axis is not None:
        f = np.asarray(oracle.eval_axis(base, moved, xi), dtype=float)
    else:
        f = _replacement_values(oracle.eval, base, moved.reshape(rows, 2 * n), xi)
        f = f.reshape(moved.shape)
    if f.shape != moved.shape:
        raise ValueError(
            f"oracle eval_axis returned shape {f.shape} for replacement values "
            f"of shape {moved.shape}; it must evaluate every row at once"
        )
    return (f[:, 0] - f[:, 1]) / (eta * SQRT_2PI)


def _two_point_diffs(oracle, points, xi) -> np.ndarray:
    """``F(points[r, 0], xi_r) - F(points[r, 1], xi_r)``, all rows in one ``eval`` call."""
    f = _evaluate(oracle.eval, points, xi[:, None])
    return f[:, 0] - f[:, 1]


def gs_rows(oracle, x, eta, draws):
    """Two-point Gaussian smoothing with unit covariance from ``draws = (Z, xi)``.

    ``g = ((F(x + eta*Z, xi) - F(x, xi)) / eta) * Z`` with ``Z`` standard
    normal.
    """
    z, xi = draws
    points = np.empty((len(x), 2, x.shape[1]))
    points[:, 0] = x + eta * z
    points[:, 1] = x
    diff = _two_point_diffs(oracle, points, xi)
    return (diff / eta)[:, None] * z


def spherical_rows(oracle, x, eta, draws):
    """Two-point spherical smoothing from ``draws = (u, xi)``, unit rows.

    ``g = (n / (2*eta)) * (F(x + eta*u, xi) - F(x - eta*u, xi)) * u`` with
    ``u`` uniform on the unit sphere.
    """
    u, xi = draws
    diff = _two_point_diffs(oracle, x[:, None] + (eta * u)[:, None] * _SIDES, xi)
    return (x.shape[1] / (2.0 * eta)) * diff[:, None] * u


def spsa_rows(oracle, x, eta, draws):
    """Two-point simultaneous perturbation from ``draws = (D, xi)``.

    ``g_i = (F(x + eta*D, xi) - F(x - eta*D, xi)) / (2*eta*D_i)`` with
    ``D_i`` i.i.d. uniform on {-1, +1}.
    """
    delta, xi = draws
    diff = _two_point_diffs(oracle, x[:, None] + (eta * delta)[:, None] * _SIDES, xi)
    return diff[:, None] / (2.0 * eta * delta)


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
    ``estimate(oracle, x, eta, draws)`` is the row kernel: ``draws`` holds
    each array of ``draw`` at the current iteration, stacked over the R rows
    of ``x``, and it returns the ``(R, n)`` estimates.  The kernel gets no
    stream, so all randomness enters through ``draw``, and a row's estimate
    does not depend on the rows beside it.  ``per_coordinate`` is the one
    statement of what an estimate costs: ``2n`` oracle calls when true, 2
    when false (see :meth:`oracle_calls`).
    """

    name: str
    draw: Callable[..., tuple[np.ndarray, ...]]
    estimate: Callable[..., np.ndarray]
    per_coordinate: bool

    def oracle_calls(self, n: int) -> int:
        """Noisy function evaluations one estimate spends in dimension ``n``."""
        return 2 * n if self.per_coordinate else 2

    def __call__(
        self,
        oracle,
        x: np.ndarray,
        eta: float,
        stream: RandomStream,
    ) -> GradientSample:
        """One estimate at ``x`` at smoothing radius ``eta``: the kind's draw
        of size 1 from ``stream``, then its row kernel (which states the
        formula) on ``x`` as one row.  ``eta <= 0`` or NaN raises ValueError."""
        _check_eta(eta)
        x = np.asarray(x, dtype=float)
        draws = self.draw(oracle, stream, 1, x.shape[0])
        g = self.estimate(oracle, x[None], eta, draws)
        calls = self.oracle_calls(x.shape[0])
        return GradientSample(g[0], tuple(d[0] for d in draws), calls)


# The decision-independent kinds; zosmooth.bench.KINDS registers them.
esgs_estimate = BatchEstimator("esgs", _with_noise(shift_draws), esgs_rows, True)
gs_estimate = BatchEstimator("gs", _with_noise(_gaussian_draws), gs_rows, False)
spherical_estimate = BatchEstimator(
    "spherical", _with_noise(_sphere_draws), spherical_rows, False
)
spsa_estimate = BatchEstimator("spsa", _with_noise(_rademacher_draws), spsa_rows, False)

ESTIMATORS: dict[str, BatchEstimator] = {
    kind.name: kind
    for kind in (esgs_estimate, gs_estimate, spherical_estimate, spsa_estimate)
}


# The probe's (rows, n) blocks hold about PROBE_BLOCK_VALUES numbers, fewer
# than the driver's blocks because peak memory grew with the block size.  On
# ``zosmooth-bench moments --dims 10,50,200 --samples 5000`` (one BLAS
# thread, 12 alternating runs), the median peak RSS was 36.36 MB one sample
# at a time, 36.53 MB with blocks of 2^13 values, 36.87 MB with 2^14 and
# 39.35 MB with 2^16; blocks of 2^12 to 2^14 values took the same time.
PROBE_BLOCK_VALUES = 1 << 13


def second_moment_probe(
    make_estimate: BatchEstimator,
    oracle: StochasticOracle,
    x: np.ndarray,
    eta: float,
    sample_count: int,
    stream: RandomStream,
) -> float:
    """Monte-Carlo estimate of E[||g||^2] at smoothing radius ``eta > 0``
    from ``sample_count`` fresh draws.

    ``make_estimate`` is a :class:`BatchEstimator`, such as
    :func:`esgs_estimate`; anything else raises :class:`TypeError`.  The
    samples are drawn from ``stream`` in blocks of rows, and each block is
    evaluated as the rows of one kernel call, so the draws fall in a
    different order than in ``sample_count`` single-sample calls on the
    same stream.

    Raises :class:`ValueError` when ``eta`` is not > 0, NaN included, and
    :class:`NonFiniteError`, naming the estimator and the first sample, when
    a sample's ``||g||^2`` is NaN or infinite.
    """
    _check_eta(eta)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    _check_estimator(make_estimate)
    block = max(1, PROBE_BLOCK_VALUES // n)
    total = 0.0
    for first in range(0, sample_count, block):
        size = min(block, sample_count - first)
        draws = make_estimate.draw(oracle, stream, size, n)
        rows = np.broadcast_to(x, (size, n))
        g = make_estimate.estimate(oracle, rows, eta, draws)
        squares = np.vecdot(g, g)
        if not np.isfinite(squares).all():
            bad = first + int(np.flatnonzero(~np.isfinite(squares))[0])
            raise NonFiniteError(
                f"estimator {make_estimate.name!r} produced a non-finite "
                f"||g||^2 at sample {bad} of the second-moment probe"
            )
        # summed in sample order, as a loop of single-sample calls sums
        for square in squares.tolist():
            total += square
    return total / sample_count
