"""Closed-form Raman algebra, heavy-hole/light-hole mixing, and polarization calculus.

Sign conventions fixed here and used package-wide:

* differential Stark shift: negative for sigma- drive, positive for sigma+
  (the strong spin-conserving arm of a red-detuned sigma- beam lowers the
  |down> state more than the weak arm lowers |up>).
* Stokes S3 = +1 labels sigma- polarization; with horizontal input, a
  quarter-wave plate at +45 deg (equivalently -135 deg) produces sigma-,
  at -45 deg sigma+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError

# GaAs bulk deformation potentials and spin-orbit splitting (meV).
GAAS_B_MEV = -2000.0
GAAS_D_MEV = -4800.0
GAAS_DELTA_SO_MEV = 341.0


@dataclass(frozen=True)
class RamanParams:
    """Symbols of the two-photon drive: detuning, per-arm amplitudes, imbalance."""

    delta_ghz: float
    omega_down_ghz: float = 0.0
    omega_up_ghz: float = 0.0
    eta: float | None = None
    handedness: str = "sigma-"
    omega_h_ghz: float = 0.0

    def __post_init__(self):
        if self.delta_ghz == 0:
            raise DomainError("single-photon detuning must be nonzero")
        if self.omega_down_ghz < 0 or self.omega_up_ghz < 0:
            raise UsageError("arm amplitudes must be >= 0")
        if self.handedness not in ("sigma-", "sigma+"):
            raise UsageError("handedness must be sigma- or sigma+")
        if self.eta is None and self.omega_up_ghz > 0:
            object.__setattr__(self, "eta", self.omega_down_ghz / self.omega_up_ghz)
        if self.eta is not None:
            if self.eta <= 0:
                raise UsageError("imbalance eta must be > 0")
            if self.omega_up_ghz > 0 and self.omega_down_ghz > 0:
                implied = self.omega_down_ghz / self.omega_up_ghz
                if abs(self.eta - implied) > 1e-9 * max(1.0, implied):
                    raise UsageError("eta inconsistent with Omega_down/Omega_up")


def two_photon_rabi(omega_down_ghz: float, omega_up_ghz: float, delta_ghz: float) -> float:
    """Effective ground-state Rabi frequency in MHz: Omega_d * Omega_u / (2 Delta)."""
    if delta_ghz == 0:
        raise DomainError("single-photon detuning must be nonzero")
    return omega_down_ghz * omega_up_ghz / (2.0 * delta_ghz) * 1e3


def differential_stark(omega_mhz: float, eta: float, handedness: str = "sigma-") -> float:
    """Signed differential a.c. Stark shift in MHz: magnitude
    Omega |eta^2 - 1| / (2 eta), negative for sigma-, positive for sigma+.

    The magnitude is invariant under eta -> 1/eta, so flipping the handedness
    together with inverting the imbalance flips only the sign.
    """
    if eta <= 0:
        raise UsageError("imbalance eta must be > 0")
    magnitude = omega_mhz * abs(eta * eta - 1.0) / (2.0 * eta)
    if handedness == "sigma-":
        return -magnitude
    if handedness == "sigma+":
        return magnitude
    raise UsageError("handedness must be sigma- or sigma+")


def eta_from_slope(slope: float) -> float:
    """Invert the Stark-slope relation: eta = |s| + sqrt(s^2 + 1)."""
    if slope == 0:
        return 1.0
    s = abs(slope)
    return s + math.sqrt(s * s + 1.0)


def eta_from_cyclicity(c: float, handedness: str = "sigma-") -> float:
    """Ideal dipole-matched imbalance: sqrt(C) when the strong arm is the
    spin-conserving sigma- transition, 1/sqrt(C) for the opposite handedness."""
    if c < 1:
        raise UsageError("cyclicity must be >= 1")
    if handedness == "sigma-":
        return math.sqrt(c)
    if handedness == "sigma+":
        return 1.0 / math.sqrt(c)
    raise UsageError("handedness must be sigma- or sigma+")


# --- strain-induced heavy-hole/light-hole mixing -------------------------------

@dataclass(frozen=True)
class HoleMixing:
    """Hole-state composition |up_h> = alpha|3/2> + chi|1/2> + eps|-1/2>."""

    alpha: float
    chi: complex
    epsilon: complex
    delta_lh_mev: float
    delta_so_mev: float
    r_mev: complex
    s_mev: complex


def hole_mixing_from_strain(
    strain: np.ndarray,
    b_mev: float = GAAS_B_MEV,
    d_mev: float = GAAS_D_MEV,
    delta_so_mev: float = GAAS_DELTA_SO_MEV,
    delta_lh_override_mev: float | None = None,
) -> HoleMixing:
    """Light-hole admixture coefficients from the strain tensor.

    The HH-LH splitting is computed from the biaxial strain component unless
    ``delta_lh_override_mev`` is given (confinement-dominated dots have a
    splitting unrelated to strain).  Inverted light-hole ordering
    (delta_lh <= 0) is unsupported.
    """
    e = np.asarray(strain, dtype=float)
    if e.shape != (3, 3):
        raise UsageError("strain tensor must be 3x3")
    if np.max(np.abs(e - e.T)) > 1e-12:
        raise UsageError("strain tensor must be symmetric")
    if delta_so_mev <= 0:
        raise UsageError("spin-orbit splitting must be > 0")

    exx, eyy, ezz = e[0, 0], e[1, 1], e[2, 2]
    exy, ezx, eyz = e[0, 1], e[2, 0], e[1, 2]

    delta_lh = 0.5 * b_mev * (exx + eyy - 2.0 * ezz)
    if delta_lh_override_mev is not None:
        delta_lh = delta_lh_override_mev
    if delta_lh <= 0:
        raise DomainError(
            f"HH-LH splitting must be > 0 (got {delta_lh:g} meV); inverted ordering unsupported"
        )

    r = (math.sqrt(3.0) / 2.0) * b_mev * (exx - eyy) - 1j * d_mev * exy
    s = (d_mev / math.sqrt(2.0)) * (ezx - 1j * eyz)

    denom = delta_lh * delta_so_mev
    chi = (-math.sqrt(2.0) * delta_so_mev * np.conj(s) - math.sqrt(6.0) * s * np.conj(r)) / denom
    eps = ((1.5 * delta_lh + delta_so_mev) * np.conj(r) + math.sqrt(3.0) * np.conj(s) ** 2) / denom

    norm = math.sqrt(1.0 + abs(chi) ** 2 + abs(eps) ** 2)
    return HoleMixing(
        alpha=1.0 / norm,
        chi=complex(chi / norm),
        epsilon=complex(eps / norm),
        delta_lh_mev=float(delta_lh),
        delta_so_mev=float(delta_so_mev),
        r_mev=complex(r),
        s_mev=complex(s),
    )


def raman_coupling_in_plane(
    chi: complex,
    intensity_minus: float,
    intensity_plus: float,
    delta_ghz: float,
    omega_h_ghz: float,
) -> complex:
    """Net Raman coupling (GHz) of the two interfering lambda paths for
    in-plane polarized light: -chi* I-/(2 Delta) + chi* I+/(2 (Delta + omega_h)).

    Equal intensities destructively interfere exactly when omega_h = 0.
    """
    if delta_ghz == 0 or delta_ghz + omega_h_ghz == 0:
        raise DomainError("Raman denominators must be nonzero")
    chi_c = np.conj(chi)
    return complex(
        -chi_c * intensity_minus / (2.0 * delta_ghz)
        + chi_c * intensity_plus / (2.0 * (delta_ghz + omega_h_ghz))
    )


def raman_coupling_with_pi_z(
    chi: complex,
    epsilon: complex,
    eta_z: float,
    omega_sigma_minus: complex,
    omega_sigma_plus: complex,
    omega_pi: complex,
    delta_ghz: float,
    omega_h_ghz: float,
) -> complex:
    """Raman coupling including the pi_z field component (coupling fraction eta_z).

    Reduces exactly to :func:`raman_coupling_in_plane` with the field
    intensities |Omega_sigma-+|^2 when epsilon * eta_z = 0.
    """
    if delta_ghz == 0 or delta_ghz + omega_h_ghz == 0:
        raise DomainError("Raman denominators must be nonzero")
    chi_c = np.conj(chi)
    eps_c = np.conj(epsilon)
    term_minus = np.conj(omega_sigma_minus) * (
        -chi_c * omega_sigma_minus + eps_c * eta_z * omega_pi
    ) / (2.0 * delta_ghz)
    term_plus = omega_sigma_plus * (
        chi_c * np.conj(omega_sigma_plus) + eps_c * eta_z * np.conj(omega_pi)
    ) / (2.0 * (delta_ghz + omega_h_ghz))
    return complex(term_minus + term_plus)


# --- Jones / Stokes calculus ----------------------------------------------------

class StokesVector(NamedTuple):
    s0: float
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True)
class JonesVector:
    """Unit-norm polarization state in the (H, V) basis."""

    h: complex
    v: complex

    def __post_init__(self):
        norm = math.sqrt(abs(self.h) ** 2 + abs(self.v) ** 2)
        if norm == 0:
            raise UsageError("Jones vector must be nonzero")
        object.__setattr__(self, "h", complex(self.h / norm))
        object.__setattr__(self, "v", complex(self.v / norm))

    @classmethod
    def horizontal(cls) -> "JonesVector":
        return cls(1.0, 0.0)

    @classmethod
    def diagonal(cls) -> "JonesVector":
        return cls(1.0, 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.v], dtype=complex)


def _rotation(theta) -> np.ndarray:
    """Rotations by ``theta`` radians, as a (..., 2, 2) stack over its shape."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2).astype(complex)


def retarder_matrix(theta_deg, retardance: float) -> np.ndarray:
    """Waveplate with fast axis at theta from horizontal, given retardance.

    ``theta_deg`` may be an array of angles; the result is then the
    (..., 2, 2) stack of one waveplate per angle.
    """
    th = np.radians(theta_deg)
    core = np.array([[1.0, 0.0], [0.0, np.exp(-1j * retardance)]], dtype=complex)
    return _rotation(th) @ core @ _rotation(-th)


def hwp_matrix(theta_deg: float) -> np.ndarray:
    return retarder_matrix(theta_deg, math.pi)


def qwp_matrix(theta_deg: float) -> np.ndarray:
    return retarder_matrix(theta_deg, math.pi / 2)


def jones_through_waveplates(state: JonesVector, hwp_deg: float, qwp_deg: float) -> JonesVector:
    """Propagate through a half-wave then a quarter-wave plate.

    Angles are measured from the calibrated horizontal axis; (0, 0) leaves
    horizontal light horizontal.
    """
    out = qwp_matrix(qwp_deg) @ hwp_matrix(hwp_deg) @ state.as_array()
    return JonesVector(out[0], out[1])


def stokes(state: JonesVector) -> StokesVector:
    """Stokes parameters, normalized to S0 = 1.  S3 = +1 labels sigma-."""
    h, v = state.h, state.v
    s0 = abs(h) ** 2 + abs(v) ** 2
    return StokesVector(
        s0=1.0,
        s1=(abs(h) ** 2 - abs(v) ** 2) / s0,
        s2=float(2.0 * (np.conj(h) * v).real / s0),
        s3=float(2.0 * (np.conj(h) * v).imag / s0),
    )


def s3_map(hwp_grid_deg, qwp_grid_deg, state: JonesVector | None = None) -> np.ndarray:
    """Degree of circular polarization over a waveplate-angle grid.

    Returns an array of shape (len(hwp_grid), len(qwp_grid)): entry (i, j)
    is ``stokes(jones_through_waveplates(state, hwp[i], qwp[j])).s3``, from
    one stack of half-wave and one of quarter-wave plates applied to
    ``state`` (default horizontal) over the whole grid at once.
    """
    if state is None:
        state = JonesVector.horizontal()
    after_hwp = hwp_matrix(hwp_grid_deg) @ state.as_array()
    out = np.einsum("qij,hj->hqi", qwp_matrix(qwp_grid_deg), after_hwp)
    h, v = out[..., 0], out[..., 1]
    return 2.0 * (np.conj(h) * v).imag / (np.abs(h) ** 2 + np.abs(v) ** 2)
