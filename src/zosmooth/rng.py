"""Deterministic, seedable random variate generation.

All stochastic components of the library draw their randomness through a
:class:`RandomStream`, a thin wrapper over ``numpy.random.Generator`` seeded
via ``numpy.random.SeedSequence``.  Independence across substreams comes from
the SeedSequence spawn-key mechanism, so every replication owns its own
sequence of draws and stays bit-reproducible whichever replications it is
run alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RandomStream:
    """A single-owner random variate stream.

    Parameters
    ----------
    seed : int
        Base seed shared by a whole experiment.
    substream_id : int or tuple of int, optional
        Index of the substream (one per replication or per oracle role), used
        as the SeedSequence spawn key; a tuple gives a multi-part key such as
        ``(kind_key, replication)``.  Distinct ids give statistically
        independent sequences; the same ``(seed, substream_id)`` pair always
        reproduces the identical sequence of draws.
    """

    seed: int
    substream_id: int | tuple[int, ...] = 0
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        key = self.substream_id
        spawn_key = tuple(key) if isinstance(key, tuple) else (key,)
        ss = np.random.SeedSequence(self.seed, spawn_key=spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(ss))


def sample_exponential(stream: RandomStream, size: int) -> np.ndarray:
    """Draw ``size`` unit-rate exponential variates via the inverse CDF.

    Uses ``-log(1 - U)`` with ``U`` uniform on [0, 1), which is exact and
    cannot overflow.
    """
    return -np.log1p(-stream.generator.random(size))


def sample_gaussian_vector(n: int, stream: RandomStream, size: int) -> np.ndarray:
    """Draw a ``(size, n)`` block of vectors with i.i.d. N(0, 1) coordinates."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return stream.generator.standard_normal((size, n))


def sample_correlated_pair(
    mean1: float,
    mean2: float,
    sigma: float,
    rho: float,
    stream: RandomStream,
) -> tuple[float, float]:
    """Draw a jointly Gaussian pair with common variance and given correlation.

    Constructed from the Cholesky factor of the 2x2 covariance, so ``rho = 1``
    produces two draws whose deviations from their means are identical.

    Parameters
    ----------
    mean1, mean2 : float
        Marginal means.
    sigma : float
        Common marginal standard deviation (>= 0).
    rho : float
        Correlation coefficient in [-1, 1].

    Returns
    -------
    tuple[float, float]
        One realization of the pair.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if sigma < 0:
        raise ValueError(f"standard deviation must be >= 0, got {sigma}")
    z1 = stream.generator.standard_normal()
    z2 = stream.generator.standard_normal()
    x1, x2 = correlate_pair(mean1, mean2, sigma, rho, z1, z2)
    return float(x1), float(x2)


def correlate_pair(mean1, mean2, sigma, rho, z1, z2):
    """The Cholesky map of :func:`sample_correlated_pair` applied to given
    standard normals ``z1``, ``z2``; it broadcasts and does not check ``rho``."""
    x1 = mean1 + sigma * z1
    x2 = mean2 + sigma * (rho * z1 + np.sqrt(np.maximum(0.0, 1.0 - rho * rho)) * z2)
    return x1, x2
