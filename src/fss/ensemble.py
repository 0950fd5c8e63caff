"""Static Gaussian detuning ensembles: Overhauser dephasing and laser intensity noise.

This module centralizes the one convention most likely to go wrong anywhere
else: the inhomogeneous linewidth sigma = sqrt(2)/T2* is an angular rate, so
the API value in ordinary MHz is sqrt(2)/(2 pi T2*).  With that choice the
free-induction envelope is exp(-(tau/T2*)^2) and a 74 ns T2* pairs with a
7.2 MHz full width at half maximum.

Laser intensity noise is treated quasi-statically: a fractional intensity
fluctuation dI/I shifts the drive-induced differential Stark shift, adding a
detuning spread sigma_laser = |stark_ratio| * Omega * dI/I that combines in
quadrature with the Overhauser spread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _require_finite_fields
from .errors import UsageError

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
DEFAULT_NODES = 21


@dataclass(frozen=True)
class EnsembleSpec:
    """Inhomogeneous-broadening description consumed by the protocol simulator."""

    t2star_ns: float
    stark_ratio: float = 0.0      # differential Stark shift per unit Rabi frequency
    omega_mhz: float = 0.0        # drive Rabi frequency the laser noise acts on
    di_over_i: float = 0.0        # rms fractional intensity fluctuation
    nodes: int = DEFAULT_NODES
    correlated_rabi_jitter: bool = False  # also scale Omega by (1 + dI/I) per node

    def __post_init__(self):
        _require_finite_fields(self)
        if self.t2star_ns <= 0:
            raise UsageError("T2* must be > 0")
        if self.di_over_i < 0:
            raise UsageError("dI/I must be >= 0")
        if self.nodes < 9 or self.nodes % 2 == 0:
            raise UsageError("quadrature node count must be odd and >= 9")


def gaussian_sigma(t2star_ns: float) -> float:
    """Overhauser detuning spread in ordinary MHz for a given T2*."""
    if t2star_ns <= 0:
        raise UsageError("T2* must be > 0")
    return math.sqrt(2.0) / (2.0 * math.pi * t2star_ns) * 1e3


def laser_sigma(spec: EnsembleSpec) -> float:
    return abs(spec.stark_ratio) * spec.omega_mhz * spec.di_over_i


def combined_sigma(spec: EnsembleSpec) -> float:
    """Root-sum-square of the laser and Overhauser detuning spreads (MHz)."""
    return math.hypot(laser_sigma(spec), gaussian_sigma(spec.t2star_ns))


def quadrature_nodes(sigma_mhz, nodes: int = DEFAULT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite detuning offsets (MHz) and weights for a Gaussian of width
    sigma: a spread gives (nodes,) offsets, and an array of spreads (for
    example a column) gives the offsets of each, broadcast against the
    nodes along the last axis."""
    x, w = _hermgauss(nodes)
    return math.sqrt(2.0) * sigma_mhz * x, w / math.sqrt(math.pi)


@functools.lru_cache(maxsize=32)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite abscissae and weights, once per node count.

    Golub-Welsch: the abscissae are the eigenvalues of the Jacobi matrix of
    the Hermite polynomials, tridiagonal with off-diagonal sqrt(k/2), and
    the weights sqrt(pi) times the squared first components of its
    eigenvectors; both are symmetrized about 0, and the weights scaled to
    sum to sqrt(pi), as numpy.polynomial.hermite.hermgauss does."""
    off = np.sqrt(np.arange(1, nodes) / 2.0)
    x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    w *= math.sqrt(math.pi) / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def weighted_average(weights, traces) -> np.ndarray:
    """Fixed-order compensated (Kahan) weighted sum of equally shaped traces."""
    traces = [np.asarray(tr, dtype=float) for tr in traces]
    acc = np.zeros_like(traces[0])
    comp = np.zeros_like(traces[0])
    for w, tr in zip(weights, traces):
        term = w * tr - comp
        total = acc + term
        comp = (total - acc) - term
        acc = total
    return acc

