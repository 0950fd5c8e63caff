"""Frequency/rate unit conventions used throughout the package.

Every public API value is an ordinary frequency:

* Rabi frequencies and detunings are in MHz, with the pi time of a resonant
  drive given by t_pi = 1/(2 * Omega).
* Decay and dephasing rates are quoted as rate/2pi in MHz (the "Gamma_2/2pi =
  3.7 MHz" convention), so a rate R MHz damps as exp(-2pi * R * 1e-3 * t_ns).
* Optical-scale splittings and detunings are in GHz.
* Times are in ns.

Internally everything is converted once, at model-construction time, to
angular rad/ns.  Quantities quoted in the literature as plain ns^-1 (trion
rates, Raman arm amplitudes of the CPT model) are already angular and go
through :func:`perns_to_angular` unchanged.
"""

from __future__ import annotations

import math

from .errors import UsageError

TWO_PI = 2.0 * math.pi

# CODATA 2018
PLANCK_H = 6.62607015e-34       # J s (exact)
BOHR_MAGNETON = 9.2740100783e-24  # J/T

# Nuclear gyromagnetic ratios gamma/2pi in MHz/T, per standard NMR tables.
GYROMAGNETIC_MHZ_PER_T = {
    "75As": 7.292,
    "69Ga": 10.22,
    "71Ga": 12.98,
}


def mhz_to_angular(f_mhz: float) -> float:
    """Ordinary MHz -> angular rad/ns."""
    return TWO_PI * f_mhz * 1e-3


def angular_to_mhz(w: float) -> float:
    """Angular rad/ns -> ordinary MHz."""
    return w * 1e3 / TWO_PI


def ghz_to_angular(f_ghz: float) -> float:
    """Ordinary GHz -> angular rad/ns."""
    return TWO_PI * f_ghz


def angular_to_ghz(w: float) -> float:
    return w / TWO_PI


def perns_to_angular(rate_perns: float) -> float:
    """Rates already quoted in ns^-1 are treated as angular (identity)."""
    return rate_perns


def rate_mhz_from_lifetime(lifetime_ns: float) -> float:
    """Exponential lifetime in ns -> API rate (rate/2pi, MHz).

    The Lindblad rate is 1/lifetime in rad/ns; the API quotes it divided
    by 2pi in MHz.
    """
    if not (math.isfinite(lifetime_ns) and lifetime_ns > 0):
        raise UsageError(f"lifetime must be finite and > 0, got {lifetime_ns}")
    return angular_to_mhz(1.0 / lifetime_ns)
