"""Projected zeroth-order SGD driver with named step-size schedules.

One iteration applies ``x_{k+1} = proj_X(x_k - gamma_k * g_k)`` where
``g_k`` is a single-sample gradient estimate at smoothing radius ``eta_k``.
The schedules correspond to the analysis regimes:

==================== ==========================================================
kind                 (gamma_k, eta_k)
==================== ==========================================================
convex_diminishing   1/sqrt(n*(k+1)) for both
convex_constant      gamma = R/(L0*sqrt(n*K)), eta = 1/sqrt(n*K)
strongly_convex      theta/k for both, k >= 1, requires theta > 1/mu
nonconvex_fixed_eta  gamma = eta/(L0*sqrt(n)*sqrt(k+1)), eta fixed
nonconvex_asymptotic gamma = (k+1)^-alpha, eta = (k+1)^-beta,
                     0 < alpha, beta < 1 and 2*alpha - beta > 1
custom               gamma = gamma_scale*(k+1)^-alpha, eta = eta_scale*(k+1)^-beta
==================== ==========================================================

The strongly convex schedule is undefined at k = 0, so the driver feeds it
``k + 1``; iterate indexing shifts accordingly.

:func:`run` advances R replications of one estimator kind together as an
``(R, n)`` iterate array: the schedule, step, projection and bookkeeping run
once per iteration for the whole batch.  Each replication draws only from
its own stream, in blocks of iterations.  A block's size depends on the
dimension and, for the last block, on the number of iterations left, never
on R.  So a replication's trajectory is the same whichever replications
share its batch; a single stream is the R = 1 case.  An optional
``observe`` callable sees the state before each iteration k = 0..K (see
:func:`run`); what it sees at k inside a longer run has the law of the end
of a k-iteration run, and its bits when k is a multiple of the block size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# NonFiniteError lives in estimators, whose probe raises it too, and stays
# importable from here
from .estimators import BatchEstimator, NonFiniteError, _check_estimator, _check_eta
from .projections import FeasibleSet, project
from .rng import RandomStream

# A replication draws its perturbations for up to MAX_BLOCK_ITERATIONS
# iterations at a time, and for fewer when n is large, so that one block
# holds about BLOCK_VALUES numbers.
BLOCK_VALUES = 1 << 16
MAX_BLOCK_ITERATIONS = 1024

SCHEDULE_KINDS = (
    "convex_diminishing",
    "convex_constant",
    "strongly_convex",
    "nonconvex_fixed_eta",
    "nonconvex_asymptotic",
    "custom",
)


@dataclass(frozen=True)
class Schedule:
    """Step-size and smoothing sequences ``(gamma_k, eta_k)``."""

    kind: str
    n: int | None = None
    horizon: int | None = None
    radius_scale: float | None = None
    l0: float | None = None
    theta: float | None = None
    mu: float | None = None
    eta_fixed: float | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma_scale: float = 1.0
    eta_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "convex_diminishing":
            self._require("n")
            self._positive("n")
        elif self.kind == "convex_constant":
            self._require("n", "horizon", "radius_scale", "l0")
            self._positive("n", "horizon", "l0", "radius_scale")
        elif self.kind == "strongly_convex":
            self._require("theta", "mu")
            self._positive("mu")
            if not self.theta > 1.0 / self.mu:
                raise ValueError(
                    f"strongly_convex requires theta > 1/mu; "
                    f"got theta={self.theta}, 1/mu={1.0 / self.mu}"
                )
        elif self.kind == "nonconvex_fixed_eta":
            self._require("eta_fixed", "l0", "n")
            self._positive("l0", "n", "eta_fixed")
        elif self.kind == "nonconvex_asymptotic":
            self._require("alpha", "beta")
            if not (0 < self.alpha < 1 and 0 < self.beta < 1):
                raise ValueError("nonconvex_asymptotic requires 0 < alpha, beta < 1")
            if not 2 * self.alpha - self.beta > 1:
                raise ValueError(
                    "nonconvex_asymptotic requires 2*alpha - beta > 1; "
                    f"got alpha={self.alpha}, beta={self.beta}"
                )
        elif self.kind == "custom":
            self._require("alpha", "beta")
            self._positive("gamma_scale", "eta_scale")

    def _require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"schedule kind {self.kind!r} requires {name!r}")

    def _positive(self, *names: str) -> None:
        # the schedule divides by these, or scales the step or the smoothing
        # radius by them: a non-positive step scale would step uphill, and
        # a non-positive radius would fail only once the run had begun
        for name in names:
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"schedule kind {self.kind!r} requires {name} > 0, "
                    f"got {getattr(self, name)!r}"
                )

    @property
    def starts_at_one(self) -> bool:
        return self.kind == "strongly_convex"


def schedule_values(schedule: Schedule, k: int) -> tuple[float, float]:
    """Return ``(gamma_k, eta_k)`` for iteration index ``k``."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    kind = schedule.kind
    if kind == "convex_diminishing":
        g = 1.0 / math.sqrt(schedule.n * (k + 1))
        return g, g
    if kind == "convex_constant":
        gamma = schedule.radius_scale / (
            schedule.l0 * math.sqrt(schedule.n * schedule.horizon)
        )
        eta = 1.0 / math.sqrt(schedule.n * schedule.horizon)
        return gamma, eta
    if kind == "strongly_convex":
        if k < 1:
            raise ValueError("strongly_convex schedule is defined for k >= 1")
        g = schedule.theta / k
        return g, g
    if kind == "nonconvex_fixed_eta":
        eta = schedule.eta_fixed
        gamma = eta / (schedule.l0 * math.sqrt(schedule.n) * math.sqrt(k + 1))
        return gamma, eta
    if kind == "nonconvex_asymptotic":
        return (k + 1) ** -schedule.alpha, (k + 1) ** -schedule.beta
    if kind == "custom":
        return (
            schedule.gamma_scale * (k + 1) ** -schedule.alpha,
            schedule.eta_scale * (k + 1) ** -schedule.beta,
        )
    raise ValueError(f"unknown schedule kind {kind!r}")


def step_sizes(schedule: Schedule, iterations: int) -> np.ndarray:
    """``gamma_0 .. gamma_{K-1}`` as :func:`run` takes them in ``iterations``
    iterations, bit for bit (the strongly convex ``k + 1`` included)."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    offset = 1 if schedule.starts_at_one else 0
    return np.array([schedule_values(schedule, k + offset)[0] for k in range(iterations)])


def step(
    x_k: np.ndarray, gradient: np.ndarray, gamma_k: float, feasible: FeasibleSet
) -> np.ndarray:
    """One projected step ``proj_X(x_k - gamma_k * gradient)``.

    ``x_k`` and ``gradient`` are one point or an ``(R, n)`` batch of points.
    Raises :class:`NonFiniteError` when the point to project is NaN or
    infinite, which box clipping would otherwise hide.
    """
    x_k = np.asarray(x_k, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if x_k.shape != gradient.shape:
        raise ValueError(
            f"dimension mismatch: iterate {x_k.shape} vs gradient {gradient.shape}"
        )
    u = x_k - gamma_k * gradient
    # one reduction, not ndarray.all(), whose Python wrapper cost more than
    # the test; a finite-sum test would be cheaper still, but summing +inf
    # with -inf, or finite entries that overflow, prints a RuntimeWarning
    # beside the one-line error
    if not np.logical_and.reduce(np.isfinite(u), axis=None):
        raise NonFiniteError("projected step met a NaN or infinite point")
    return project(feasible, u)


@dataclass
class Trajectory:
    """End state of one optimization run: the final iterate ``x_K``, the
    sums of ``gamma_j * x_j`` and of ``gamma_j`` over ``j < K``, and one
    replication's oracle calls, ``K`` times the estimator's
    ``oracle_calls(n)``.  An observer sees each state (see
    :func:`run`); :func:`step_sizes` gives the step sizes."""

    wall_time_ms: float
    final_x: np.ndarray
    weighted_sum: np.ndarray
    gamma_total: float
    oracle_calls: int


# observe(k, x, weighted_sum, gamma_total, oracle_calls); see run
Observer = Callable[[int, np.ndarray, np.ndarray, float, int], None]


def run(
    oracle,
    estimator: BatchEstimator,
    schedule: Schedule,
    iterations: int,
    feasible: FeasibleSet,
    x0: np.ndarray,
    stream: RandomStream | Iterable[RandomStream],
    observe: Observer | None = None,
) -> Trajectory | list[Trajectory]:
    """Run ``iterations`` estimate-then-step updates from ``x0``.

    ``estimator`` is a :class:`~zosmooth.estimators.BatchEstimator`, such
    as :func:`~zosmooth.estimators.esgs_estimate`; anything else raises
    :class:`TypeError`.  ``stream`` is one :class:`RandomStream`, giving one
    :class:`Trajectory`, or any other iterable of R streams (a list, a
    tuple, a generator, an object array), one per replication, giving a
    list of R trajectories; an entry that is not a :class:`RandomStream`
    raises :class:`TypeError`.  The initial point is projected onto the
    feasible set if necessary.  Each trajectory is fully deterministic
    given its own stream.

    ``observe(k, x, weighted_sum, gamma_total, oracle_calls)``, when given,
    is called for each k = 0..K in order with the state before iteration k:
    the ``(R, n)`` iterate ``x_k``, the sum of ``gamma_j * x_j`` and the sum
    of ``gamma_j`` over ``j < k`` (their ratio is the weighted average
    ``xbar_k``), and one row's oracle calls so far, ``k`` times the
    estimator's ``oracle_calls(n)``.  The arrays are the loop's own, so an
    observer copies what it keeps, and picks its own k.

    Wall time covers the iteration loop, including draws, estimator work
    and the observer, and is measured with a monotonic clock; each
    trajectory reports the batch's loop time divided by R.

    Raises :class:`NonFiniteError`, naming the estimator and the iteration,
    as soon as an estimate or an iterate is NaN or infinite.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    single = isinstance(stream, RandomStream)
    streams = [stream] if single else list(stream)
    if not streams:
        raise ValueError("run needs at least one stream")
    for s in streams:
        if not isinstance(s, RandomStream):
            raise TypeError(f"stream entry {s!r} is not a RandomStream")
    _check_estimator(estimator)
    start_x = project(feasible, np.asarray(x0, dtype=float))
    rows, n = len(streams), start_x.shape[0]
    x = np.tile(start_x, (rows, 1))
    offset = 1 if schedule.starts_at_one else 0

    weighted_sum = np.zeros((rows, n))
    gamma_total = 0.0
    cost = estimator.oracle_calls(n)
    block = max(1, min(MAX_BLOCK_ITERATIONS, BLOCK_VALUES // n))

    t0 = time.perf_counter()
    for first in range(0, iterations, block):
        size = min(block, iterations - first)
        # (size, R, ...) so that each iteration's slice is contiguous, filled
        # one replication at a time.  The last block, with the last
        # iteration's draws (views into it), is dropped before the block is
        # filled, and each replication's draws before the next replication
        # draws, so that besides the block only one replication's draws are
        # alive; a single replication's draws are the block, without a copy
        blocks = draws = None
        for r, s in enumerate(streams):
            parts = estimator.draw(oracle, s, size, n)
            if rows == 1:
                blocks = [p[:, None] for p in parts]
                continue
            if blocks is None:
                blocks = [np.empty((size, rows) + p.shape[1:], p.dtype) for p in parts]
            for i, part in enumerate(parts):
                blocks[i][:, r] = part
            parts = part = None
        for j, *draws in zip(range(size), *blocks):
            k = first + j
            if observe is not None:
                observe(k, x, weighted_sum, gamma_total, k * cost)
            gamma_k, eta_k = schedule_values(schedule, k + offset)
            _check_eta(eta_k)
            g = estimator.estimate(oracle, x, eta_k, draws)
            try:
                x_next = step(x, g, gamma_k, feasible)
            except NonFiniteError:
                raise _non_finite(estimator.name, k, g, x - gamma_k * g) from None
            weighted_sum += gamma_k * x
            gamma_total += gamma_k
            x = x_next
    if observe is not None:
        observe(iterations, x, weighted_sum, gamma_total, iterations * cost)
    wall_ms = (time.perf_counter() - t0) * 1000.0 / rows

    trajectories = [
        Trajectory(
            wall_time_ms=wall_ms,
            final_x=x[r].copy(),
            weighted_sum=weighted_sum[r],
            gamma_total=gamma_total,
            oracle_calls=iterations * cost,
        )
        for r in range(rows)
    ]
    return trajectories[0] if single else trajectories


def _non_finite(kind: str, k: int, g: np.ndarray, u: np.ndarray) -> NonFiniteError:
    what = "gradient estimate" if not np.isfinite(g).all() else "iterate"
    row = int(np.flatnonzero(~np.isfinite(u).all(axis=1))[0])
    return NonFiniteError(
        f"estimator {kind!r} produced a non-finite {what} at iteration k={k} "
        f"(batch row {row})"
    )


def weighted_average(trajectory: Trajectory) -> np.ndarray:
    """Gamma-weighted mean of the iterates ``x_0 .. x_{K-1}``."""
    if trajectory.gamma_total <= 0:
        raise ValueError("trajectory has no accumulated steps")
    return trajectory.weighted_sum / trajectory.gamma_total


def sample_iterate_index(gammas: np.ndarray, stream: RandomStream) -> int:
    """Draw the index ``j`` of the random iterate ``x_R``, with
    ``P[j] = gamma_j / sum(gamma)`` over ``j < K``.

    ``gammas`` holds ``gamma_0 .. gamma_{K-1}``, as :func:`step_sizes` gives
    them.  Drawn before the run, from a stream other than the run's own (so
    that no draw of the run moves), ``j`` names the one iterate an observer
    of :func:`run` keeps.
    """
    return int(stream.generator.choice(len(gammas), p=gammas / gammas.sum()))
