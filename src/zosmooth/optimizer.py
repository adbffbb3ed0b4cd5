"""Projected zeroth-order SGD driver with named step-size schedules.

One iteration applies ``x_{k+1} = proj_X(x_k - gamma_k * g_k)`` where
``g_k`` is a single-sample gradient estimate at smoothing radius ``eta_k``.
The schedules correspond to the analysis regimes.  Each kind reads only
the :class:`Schedule` fields listed here; any other field must keep its
default, or the constructor raises :class:`ValueError` naming it:

==================== ========================= ===============================================
kind                 fields read               (gamma_k, eta_k)
==================== ========================= ===============================================
convex_diminishing   n                         1/sqrt(n*(k+1)) for both
convex_constant      n, horizon, radius_scale, gamma = R/(L0*sqrt(n*K)), eta = 1/sqrt(n*K)
                     l0
strongly_convex      theta, mu                 theta/(k+1) for both, requires theta > 1/mu
nonconvex_fixed_eta  n, l0, eta_fixed          gamma = eta/(L0*sqrt(n)*sqrt(k+1)), eta fixed
nonconvex_asymptotic alpha, beta               gamma = (k+1)^-alpha, eta = (k+1)^-beta,
                                               0 < alpha, beta < 1 and 2*alpha - beta > 1
custom               alpha, beta, gamma_scale, gamma = gamma_scale*(k+1)^-alpha,
                     eta_scale                 eta = eta_scale*(k+1)^-beta
==================== ========================= ===============================================

:func:`run` advances R replications of one estimator kind together as an
``(R, n)`` iterate array: the schedule, step, projection and bookkeeping run
once per iteration for the whole batch.  Each replication draws only from
its own stream, in blocks of iterations.  A block's size depends on the
dimension and, for the last block, on the number of iterations left, never
on R.  So a replication's trajectory is the same whichever replications
share its batch; one replication is the R = 1 case.  An optional
``observe`` callable sees the :class:`RunState` before each iteration
k = 0..K (see :func:`run`), and the run returns each replication's state at
k = K; what an observer sees at k inside a longer run has the law of the
end of a k-iteration run, and its bits when k is a multiple of the block
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
        if self.kind not in _SCHEDULES:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        reads = _SCHEDULES[self.kind][0]
        # a field the kind reads is set and, the exponents aside, > 0: the
        # schedule divides by it, or scales the step or the smoothing radius
        # by it, and a non-positive step scale would step uphill and a
        # non-positive radius fail only once the run had begun
        for field in fields(self)[1:]:
            name, value = field.name, getattr(self, field.name)
            if name not in reads:
                if value != field.default:
                    raise ValueError(
                        f"schedule kind {self.kind!r} does not read {name!r}, got {value!r}"
                    )
            elif value is None:
                raise ValueError(f"schedule kind {self.kind!r} requires {name!r}")
            elif name not in ("alpha", "beta") and not value > 0:
                raise ValueError(
                    f"schedule kind {self.kind!r} requires {name} > 0, got {value!r}"
                )
        if self.kind == "strongly_convex" and not self.theta > 1.0 / self.mu:
            raise ValueError(
                f"strongly_convex requires theta > 1/mu; "
                f"got theta={self.theta}, 1/mu={1.0 / self.mu}"
            )
        if self.kind == "nonconvex_asymptotic":
            if not (0 < self.alpha < 1 and 0 < self.beta < 1):
                raise ValueError("nonconvex_asymptotic requires 0 < alpha, beta < 1")
            if not 2 * self.alpha - self.beta > 1:
                raise ValueError(
                    "nonconvex_asymptotic requires 2*alpha - beta > 1; "
                    f"got alpha={self.alpha}, beta={self.beta}"
                )


# Each schedule kind's entry: the Schedule fields it reads, and its
# (gamma_k, eta_k) as a function of the schedule and k.
_SCHEDULES: dict[str, tuple[tuple[str, ...], Callable[[Schedule, int], tuple[float, float]]]] = {
    "convex_diminishing": (
        ("n",),
        lambda s, k: (g := 1.0 / math.sqrt(s.n * (k + 1)), g),
    ),
    "convex_constant": (
        ("n", "horizon", "radius_scale", "l0"),
        lambda s, k: (
            s.radius_scale / (s.l0 * math.sqrt(s.n * s.horizon)),
            1.0 / math.sqrt(s.n * s.horizon),
        ),
    ),
    "strongly_convex": (("theta", "mu"), lambda s, k: (g := s.theta / (k + 1), g)),
    "nonconvex_fixed_eta": (
        ("n", "l0", "eta_fixed"),
        lambda s, k: (
            s.eta_fixed / (s.l0 * math.sqrt(s.n) * math.sqrt(k + 1)),
            s.eta_fixed,
        ),
    ),
    "nonconvex_asymptotic": (
        ("alpha", "beta"),
        lambda s, k: ((k + 1) ** -s.alpha, (k + 1) ** -s.beta),
    ),
    "custom": (
        ("alpha", "beta", "gamma_scale", "eta_scale"),
        lambda s, k: (s.gamma_scale * (k + 1) ** -s.alpha, s.eta_scale * (k + 1) ** -s.beta),
    ),
}
SCHEDULE_KINDS = tuple(_SCHEDULES)


def schedule_values(schedule: Schedule, k: int) -> tuple[float, float]:
    """Return ``(gamma_k, eta_k)`` for iteration index ``k``; a value that
    overflows a float raises :class:`ValueError` naming the kind, ``k`` and
    the fields the kind reads."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    reads, values = _SCHEDULES[schedule.kind]
    try:
        return values(schedule, k)
    except OverflowError:
        fields_read = ", ".join(f"{name}={getattr(schedule, name)!r}" for name in reads)
        raise ValueError(
            f"schedule kind {schedule.kind!r} overflows a float at k={k} ({fields_read})"
        ) from None


def step_sizes(schedule: Schedule, iterations: int) -> np.ndarray:
    """``gamma_0 .. gamma_{K-1}`` as :func:`run` takes them in ``iterations``
    iterations, bit for bit."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return np.array([schedule_values(schedule, k)[0] for k in range(iterations)])


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


@dataclass(frozen=True)
class RunState:
    """The state of a run before iteration ``k``: the iterate ``x_k``, the
    sums of ``gamma_j * x_j`` and of ``gamma_j`` over ``j < k`` (their ratio
    is the weighted average ``xbar_k``, see :func:`weighted_average`), and
    one replication's oracle calls so far, ``k`` times the estimator's
    ``oracle_calls(n)``.  :func:`run` shows an observer the ``(R, n)``
    batch state and returns each replication's state at ``k = K``;
    :func:`step_sizes` gives the step sizes."""

    k: int
    x: np.ndarray
    weighted_sum: np.ndarray
    gamma_total: float
    oracle_calls: int


Observer = Callable[[RunState], None]


def run(
    oracle,
    estimator: BatchEstimator,
    schedule: Schedule,
    iterations: int,
    feasible: FeasibleSet,
    x0: np.ndarray,
    streams: Iterable[RandomStream],
    observe: Observer | None = None,
) -> list[RunState]:
    """Run ``iterations`` estimate-then-step updates from ``x0``.

    ``estimator`` is a :class:`~zosmooth.estimators.BatchEstimator`, such
    as :func:`~zosmooth.estimators.esgs_estimate`; anything else raises
    :class:`TypeError`.  ``streams`` is an iterable of R
    :class:`RandomStream` (a list, a tuple, a generator, an object array),
    one per replication, and the run returns a list of R :class:`RunState`
    at ``k = K``; a bare stream or an entry that is not a
    :class:`RandomStream` raises :class:`TypeError`.  The initial point is
    projected onto the feasible set if necessary.  Each returned state is
    fully determined by its own stream.

    ``observe(state)``, when given, is called for each k = 0..K in order
    with the :class:`RunState` before iteration k, whose ``x`` and
    ``weighted_sum`` are ``(R, n)`` read-only views of the loop's own
    arrays: writing into them raises :class:`ValueError`, and
    ``weighted_sum`` moves on with the run, so an observer copies what it
    keeps, and picks its own k.  The returned states' arrays are writable.

    Raises :class:`NonFiniteError`, naming the estimator and the iteration,
    as soon as an estimate or an iterate is NaN or infinite.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    streams = list(streams)
    if not streams:
        raise ValueError("run needs at least one stream")
    for s in streams:
        if not isinstance(s, RandomStream):
            raise TypeError(f"stream entry {s!r} is not a RandomStream")
    _check_estimator(estimator)
    start_x = project(feasible, np.asarray(x0, dtype=float))
    rows, n = len(streams), start_x.shape[0]
    x = np.tile(start_x, (rows, 1))

    weighted_sum = np.zeros((rows, n))
    gamma_total = 0.0
    cost = estimator.oracle_calls(n)
    block = max(1, min(MAX_BLOCK_ITERATIONS, BLOCK_VALUES // n))

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
                observe(_observed(k, x, weighted_sum, gamma_total, cost))
            gamma_k, eta_k = schedule_values(schedule, k)
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
        observe(_observed(iterations, x, weighted_sum, gamma_total, cost))
    return [
        RunState(iterations, x[r].copy(), weighted_sum[r], gamma_total, iterations * cost)
        for r in range(rows)
    ]


def _observed(
    k: int, x: np.ndarray, weighted_sum: np.ndarray, gamma_total: float, cost: int
) -> RunState:
    # read-only views: an observer writing into the loop's arrays would move the run
    x, weighted_sum = x.view(), weighted_sum.view()
    x.flags.writeable = weighted_sum.flags.writeable = False
    return RunState(k, x, weighted_sum, gamma_total, k * cost)


def _non_finite(kind: str, k: int, g: np.ndarray, u: np.ndarray) -> NonFiniteError:
    what = "gradient estimate" if not np.isfinite(g).all() else "iterate"
    row = int(np.flatnonzero(~np.isfinite(u).all(axis=1))[0])
    return NonFiniteError(
        f"estimator {kind!r} produced a non-finite {what} at iteration k={k} "
        f"(batch row {row})"
    )


def weighted_average(state: RunState) -> np.ndarray:
    """Gamma-weighted mean of the iterates ``x_0 .. x_{k-1}``."""
    if state.gamma_total <= 0:
        raise ValueError("run state has no accumulated steps")
    return state.weighted_sum / state.gamma_total


def sample_iterate_index(gammas: np.ndarray, stream: RandomStream) -> int:
    """Draw the index ``j`` of the random iterate ``x_R``, with
    ``P[j] = gamma_j / sum(gamma)`` over ``j < K``.

    ``gammas`` holds ``gamma_0 .. gamma_{K-1}``, as :func:`step_sizes` gives
    them.  Drawn before the run, from a stream other than the run's own (so
    that no draw of the run moves), ``j`` names the one iterate an observer
    of :func:`run` keeps.
    """
    return int(stream.generator.choice(len(gammas), p=gammas / gammas.sum()))
