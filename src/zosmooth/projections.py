"""Euclidean projections onto the feasible sets used by the benchmark suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeasibleSet:
    """A feasible set: unconstrained, a box, or a Euclidean ball.

    Use the constructors :meth:`unconstrained`, :meth:`box`, and
    :meth:`ball` rather than instantiating directly.
    """

    variant: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None

    @staticmethod
    def unconstrained() -> "FeasibleSet":
        return FeasibleSet("unconstrained")

    @staticmethod
    def box(lo, hi) -> "FeasibleSet":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if not np.all(lo <= hi):
            raise ValueError("box requires lo <= hi componentwise")
        return FeasibleSet("box", lo=lo, hi=hi)

    @staticmethod
    def symmetric_box(half_width: float, n: int) -> "FeasibleSet":
        """The box [-half_width, half_width]^n."""
        return FeasibleSet.box(-half_width * np.ones(n), half_width * np.ones(n))

    @staticmethod
    def ball(center, radius: float) -> "FeasibleSet":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not radius > 0:
            raise ValueError(f"ball radius must be > 0, got {radius}")
        return FeasibleSet("ball", center=center, radius=float(radius))

    @staticmethod
    def unit_ball(n: int) -> "FeasibleSet":
        return FeasibleSet.ball(np.zeros(n), 1.0)


def project(feasible: FeasibleSet, u: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``u`` onto ``feasible``.

    ``u`` is one point of shape ``(n,)`` or a batch of points of shape
    ``(R, n)``, projected row by row; a point takes the same code as a batch,
    so it gets the bits it would get as a row.  Idempotent and
    non-expansive; raises on dimension mismatch.
    """
    u = np.asarray(u, dtype=float)
    if feasible.variant == "unconstrained":
        return u.copy()
    if feasible.variant == "box":
        if u.shape[-1:] != feasible.lo.shape:
            raise ValueError(
                f"dimension mismatch: point {u.shape} vs box {feasible.lo.shape}"
            )
        return np.minimum(np.maximum(u, feasible.lo), feasible.hi)
    if feasible.variant == "ball":
        if u.shape[-1:] != feasible.center.shape:
            raise ValueError(
                f"dimension mismatch: point {u.shape} vs ball {feasible.center.shape}"
            )
        d = u - feasible.center
        radius = feasible.radius
        # one vecdot call gives every point's squared distance to the center
        norms = np.sqrt(np.vecdot(d, d))[..., None]
        top = norms.max()
        if top <= radius:
            return u.copy()
        outside = norms > radius
        # rescaling can land one ulp outside; repeat until every point is
        # inside, so projection is exactly idempotent (the next call then
        # takes the interior branch); points already inside are scaled by
        # exactly 1 and returned unchanged
        while top > radius:
            d = d * (radius / np.maximum(norms, radius))
            norms = np.sqrt(np.vecdot(d, d))[..., None]
            top = norms.max()
        # center + d can round outside again; step each such point toward
        # the center, which is inside, until it passes the interior test
        p = np.where(outside, feasible.center + d, u)
        while True:
            d = p - feasible.center
            over = outside & (np.sqrt(np.vecdot(d, d))[..., None] > radius)
            if not over.any():
                return p
            p = np.where(over, np.nextafter(p, feasible.center), p)
    raise ValueError(f"unknown feasible set variant {feasible.variant!r}")

