"""Concrete physical models and derived scalar quantities.

Three systems are built here:

* a driven two-level electron spin with ground-state relaxation and
  dephasing (the workhorse for Rabi/Ramsey/echo protocols),
* the three-level lambda system whose steady-state fluorescence shows the
  coherent-population-trapping dip,
* the four-level Faraday model (two spins + two trions) with two-tone
  Raman drive envelopes and cyclicity-scaled spin-flip couplings.

Level ordering conventions: two-level (down, up); three-level
(down, up, trion); four-level (down, up, trion_minus, trion_plus) where
trion_minus couples to |down> through the sigma- dipole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    CollapseChannel,
    DensityMatrix,
    Drive,
    LindbladModel,
    _commutator_superop,
    _propagate,
    _require_finite_fields,
    _steady_states,
    liouvillian,
)
from .errors import DomainError, UsageError
from .fitting import refine_peak
from .units import (
    BOHR_MAGNETON,
    PLANCK_H,
    angular_to_ghz,
    angular_to_mhz,
    ghz_to_angular,
    mhz_to_angular,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HANDEDNESS = ("sigma-", "sigma+", "both")


def _ground_flip(dim: int) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=complex)
    op[0, 1] = op[1, 0] = 1.0
    return op


def _ground_dephase(dim: int) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=complex)
    op[0, 0] = 1.0
    op[1, 1] = -1.0
    return op


def _proj(dim: int, ket: int, bra: int) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=complex)
    op[ket, bra] = 1.0
    return op


def ground_channels(dim: int, gamma1_mhz: float, gamma2_mhz: float) -> list[CollapseChannel]:
    """Symmetric ground-state flip at Gamma1 and pure dephasing at Gamma2.

    The flip channel is sqrt(G1/2)(|d><u| + |u><d|): the population
    difference decays at the angular rate G1, so a relaxation fit returns
    the quoted Gamma1.  The dephasing channel is sqrt(G2)(|d><d| - |u><u|),
    i.e. Gamma2 is the sigma_z jump rate and the ground coherence damps at
    2*G2.  That pairing is what reproduces the measured pi-contrast /
    quality-factor / Gamma2 triples on driven Rabi traces.
    """
    chans = []
    if gamma1_mhz > 0:
        chans.append(CollapseChannel(gamma1_mhz / 2, _ground_flip(dim), "ground-flip"))
    if gamma2_mhz > 0:
        chans.append(CollapseChannel(gamma2_mhz, _ground_dephase(dim), "ground-dephase"))
    return chans


def build_two_level(
    omega_mhz: float,
    delta_mhz: float,
    gamma1_mhz: float,
    gamma2_mhz: float,
    phase: float = 0.0,
) -> LindbladModel:
    """Driven two-level spin: H = (Omega/2)(cos p sx + sin p sy) + (delta/2) sz."""
    if not all(map(math.isfinite, (omega_mhz, delta_mhz, gamma1_mhz, gamma2_mhz, phase))):
        raise UsageError("two-level drive, detuning, rates and phase must be finite")
    if gamma1_mhz < 0 or gamma2_mhz < 0:
        raise UsageError("rates must be >= 0")
    w = mhz_to_angular(omega_mhz)
    d = mhz_to_angular(delta_mhz)
    h0 = (w / 2) * (math.cos(phase) * SIGMA_X + math.sin(phase) * SIGMA_Y) + (d / 2) * SIGMA_Z
    return LindbladModel(
        dim=2,
        h0=h0,
        channels=tuple(ground_channels(2, gamma1_mhz, gamma2_mhz)),
        labels=("down", "up"),
    )


# --- three-level CPT model ---------------------------------------------------

@dataclass(frozen=True)
class CptParams:
    """Lambda-system parameters for the two-laser CPT spectrum.

    Arm amplitudes and the ground dephasing rate are plain ns^-1 (angular);
    splittings/detunings are ordinary GHz; relaxation channels are given as
    lifetimes in ns.
    """

    omega_e0_ghz: float = 2.60       # bare electron splitting
    delta_ghz: float = 0.0           # single-photon detuning
    omega_down: float = 9.3          # strong-arm Rabi amplitude, ns^-1
    omega_up: float = 0.19           # weak-arm Rabi amplitude, ns^-1
    gamma1_inv_ns: float = 45000.0   # ground relaxation time
    gamma2: float = 0.53             # ground dephasing rate, ns^-1
    trion_lifetime_ns: float = 0.25  # gamma_1^-1
    spin_flip_time_ns: float = 100.0  # gamma_SP^-1

    def __post_init__(self):
        _require_finite_fields(self)
        for name in ("gamma1_inv_ns", "trion_lifetime_ns", "spin_flip_time_ns"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be > 0")
        if self.omega_down < 0 or self.omega_up < 0:
            raise UsageError("arm amplitudes must be >= 0")
        if self.gamma2 < 0:
            raise UsageError("gamma2 must be >= 0")

    @property
    def saturation_ratio(self) -> float:
        """Strong-arm amplitude in units of Omega_sat = gamma_1/sqrt(2)."""
        return self.omega_down * self.trion_lifetime_ns * math.sqrt(2.0)


def build_cpt_three_level(p: CptParams, omega_ghz: float | None = None) -> LindbladModel:
    """Three-level lambda model at two-photon detuning delta = omega - omega_e0.

    With ``omega_ghz`` omitted the model sits exactly on two-photon resonance.
    """
    delta2 = 0.0 if omega_ghz is None else ghz_to_angular(omega_ghz - p.omega_e0_ghz)
    big_delta = ghz_to_angular(p.delta_ghz)

    h = np.zeros((3, 3), dtype=complex)
    h[2, 2] = big_delta
    h[1, 1] = delta2
    h[0, 2] = h[2, 0] = p.omega_down / 2
    h[1, 2] = h[2, 1] = p.omega_up / 2

    chans = [
        CollapseChannel(angular_to_mhz(0.5 / p.gamma1_inv_ns), _ground_flip(3), "ground-flip"),
        CollapseChannel(angular_to_mhz(p.gamma2), _ground_dephase(3), "ground-dephase"),
        CollapseChannel(angular_to_mhz(1.0 / p.trion_lifetime_ns), _proj(3, 0, 2), "spin-conserving"),
        CollapseChannel(angular_to_mhz(1.0 / p.spin_flip_time_ns), _proj(3, 1, 2), "spin-flipping"),
    ]
    return LindbladModel(dim=3, h0=h, channels=tuple(chans), labels=("down", "up", "trion"))


def cpt_spectrum(p: CptParams, omega_grid_ghz) -> np.ndarray:
    """Steady-state fluorescence (gamma_1 * rho_ee, ns^-1) per probe frequency.

    The model is affine in the two-photon detuning delta, which enters only
    as delta |up><up|: every frequency's generator is L(0) + delta * L_up, and
    all the steady states are one batched solve.
    """
    grid = np.atleast_1d(np.asarray(omega_grid_ghz, dtype=float))
    if grid.size == 0:
        raise UsageError("frequency grid must be non-empty")
    model = build_cpt_three_level(p)
    up = _proj(3, 1, 1)
    delta2 = ghz_to_angular(grid - p.omega_e0_ghz)[:, None, None]
    rhos = _steady_states(liouvillian(model) + delta2 * _commutator_superop(up), model.h0 + delta2 * up,
                          model.channels, lambda k: f"probe frequency {grid[k]:g} GHz")
    return (1.0 / p.trion_lifetime_ns) * rhos[:, 2, 2].real


# --- four-level Faraday model -------------------------------------------------

@dataclass(frozen=True)
class FaradayParams:
    """Four-level model parameters (splittings in GHz, rates as rate/2pi MHz)."""

    omega_e_ghz: float            # electron splitting entering H0
    omega_h_ghz: float            # hole splitting (extra detuning of sigma+ trion)
    delta_ghz: float              # rotating-frame single-photon detuning
    cyclicity: float              # gamma_SC / gamma_SP
    gamma1_mhz: float             # total trion decay rate / 2pi
    bigGamma1_mhz: float = 0.0    # ground relaxation rate / 2pi
    bigGamma2_mhz: float = 0.0    # ground dephasing rate / 2pi

    def __post_init__(self):
        _require_finite_fields(self)
        if self.cyclicity < 1:
            raise UsageError("cyclicity must be >= 1")
        for name in ("gamma1_mhz", "bigGamma1_mhz", "bigGamma2_mhz"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")

    @property
    def gamma_sc_mhz(self) -> float:
        """Spin-conserving branch: total decay apportioned C : 1."""
        return self.gamma1_mhz * self.cyclicity / (self.cyclicity + 1.0)

    @property
    def gamma_sp_mhz(self) -> float:
        return self.gamma1_mhz / (self.cyclicity + 1.0)


@dataclass(frozen=True)
class TwoToneDrive:
    """Raman drive envelopes: two tones separated by Delta_RF."""

    omega1_mhz: float
    omega2_mhz: float
    delta_rf_ghz: float = 0.0
    phase: float = 0.0

    @property
    def mean_square_angular(self) -> float:
        """Time average of |Omega_-+(t)|^2 in (rad/ns)^2."""
        w1 = mhz_to_angular(self.omega1_mhz)
        w2 = mhz_to_angular(self.omega2_mhz)
        return 0.5 * (w1 * w1 + w2 * w2)


def build_faraday_four_level(
    p: FaradayParams,
    drive: TwoToneDrive,
    handedness: str = "sigma-",
) -> LindbladModel:
    """Four-level model {down, up, trion-, trion+} with two-tone envelopes.

    Spin-flipping couplings are scaled by 1/sqrt(C); each trion decays at
    the total rate gamma_1 with branching C : 1 into the spin-conserving and
    spin-flipping ground states.
    """
    if handedness not in HANDEDNESS:
        raise UsageError(f"handedness must be one of {HANDEDNESS}")

    we = ghz_to_angular(p.omega_e_ghz)
    wh = ghz_to_angular(p.omega_h_ghz)
    dd = ghz_to_angular(p.delta_ghz)
    h0 = np.diag([0.0, -we, dd, dd + wh]).astype(complex)

    inv_sqrt_c = 1.0 / math.sqrt(p.cyclicity)
    coupling_minus = -(_proj(4, 2, 0) + inv_sqrt_c * _proj(4, 2, 1))
    coupling_plus = _proj(4, 3, 1) + inv_sqrt_c * _proj(4, 3, 0)

    w1 = mhz_to_angular(drive.omega1_mhz)
    w2 = mhz_to_angular(drive.omega2_mhz)
    wrf = ghz_to_angular(drive.delta_rf_ghz)
    phase = drive.phase

    def tone_sum(t: float) -> complex:
        return w1 + w2 * np.exp(-1j * (wrf * t + phase))

    drives: list[Drive] = []
    static = np.zeros((4, 4), dtype=complex)

    def add_arm(op: np.ndarray, chirality: complex):
        if w1 == 0 and w2 == 0:
            return
        if w2 == 0 or wrf == 0:
            nonlocal static
            amp = chirality * complex(tone_sum(0.0))
            static += amp * op + np.conj(amp) * op.conj().T
        else:
            drives.append(Drive(
                envelope=lambda t, c=chirality: c * tone_sum(t),
                operator=op,
                period_ns=2 * math.pi / abs(wrf),
            ))

    if handedness in ("sigma-", "both"):
        add_arm(coupling_minus, (1 + 1j) / 2)
    if handedness in ("sigma+", "both"):
        add_arm(coupling_plus, (1 - 1j) / 2)

    chans = [
        CollapseChannel(p.gamma_sc_mhz, _proj(4, 0, 2), "sc-minus"),
        CollapseChannel(p.gamma_sp_mhz, _proj(4, 1, 2), "sp-minus"),
        CollapseChannel(p.gamma_sc_mhz, _proj(4, 1, 3), "sc-plus"),
        CollapseChannel(p.gamma_sp_mhz, _proj(4, 0, 3), "sp-plus"),
    ]
    chans.extend(ground_channels(4, p.bigGamma1_mhz, p.bigGamma2_mhz))

    return LindbladModel(
        dim=4,
        h0=h0 + static,
        channels=tuple(chans),
        drives=tuple(drives),
        labels=("down", "up", "trion-", "trion+"),
    )


def faraday_stark_shift_ghz(p: FaradayParams, drive: TwoToneDrive, handedness: str = "sigma-") -> float:
    """Second-order prediction of the drive-induced shift of the splitting (GHz).

    Negative for sigma- (the strong spin-conserving arm lowers |down> more
    than the weak spin-flipping arm lowers |up>), positive for sigma+.
    """
    if handedness not in HANDEDNESS:
        raise UsageError(f"handedness must be one of {HANDEDNESS}")
    m2 = drive.mean_square_angular
    we = ghz_to_angular(p.omega_e_ghz)
    wh = ghz_to_angular(p.omega_h_ghz)
    dd = ghz_to_angular(p.delta_ghz)
    c = p.cyclicity
    shift = 0.0
    if handedness in ("sigma-", "both"):
        shift += -m2 / dd + m2 / (c * (dd + we))
    if handedness in ("sigma+", "both"):
        shift += -m2 / (c * (dd + wh)) + m2 / (dd + wh + we)
    return angular_to_ghz(shift)


def faraday_two_photon_rabi_mhz(p: FaradayParams, drive: TwoToneDrive, handedness: str = "sigma-") -> float:
    """Adiabatic-elimination estimate of the two-photon Rabi frequency (MHz)."""
    w1 = mhz_to_angular(drive.omega1_mhz)
    w2 = mhz_to_angular(drive.omega2_mhz)
    we = ghz_to_angular(p.omega_e_ghz)
    wh = ghz_to_angular(p.omega_h_ghz)
    dd = ghz_to_angular(p.delta_ghz)
    amp = w1 * w2 / math.sqrt(p.cyclicity)
    if handedness == "sigma-":
        eff = 0.5 * (1.0 / dd + 1.0 / (dd + we))
    elif handedness == "sigma+":
        eff = 0.5 * (1.0 / (dd + wh) + 1.0 / (dd + wh + we))
    else:
        raise UsageError("two-photon Rabi estimate supports a single handedness")
    return angular_to_mhz(amp * eff)


def faraday_flip_projector(p: FaradayParams) -> np.ndarray:
    """Readout observable for the flipped spin: |down> plus the trion weight
    that relaxes back to |down> (branching C/(C+1) from trion-, 1/(C+1) from
    trion+), matching a fluorescence readout taken after the control pulse.
    """
    c = p.cyclicity
    return np.diag([1.0, 0.0, c / (c + 1.0), 1.0 / (c + 1.0)]).astype(complex)


def calibrate_faraday_drive(
    p: FaradayParams,
    omega_target_mhz: float,
    handedness: str = "sigma-",
) -> tuple[TwoToneDrive, float]:
    """Choose equal-tone amplitudes and Delta_RF hitting a target two-photon Rabi.

    Mirrors the experimental calibration loop: from the perturbative Stark and
    Rabi estimates, locate the two-photon resonance on the coherent model and
    correct the tone amplitude from the observed flop period.  The Stark shift
    scales with the squared amplitude, so the resonance offset is carried as a
    fitted kappa * w_env^2 law while the amplitude converges.  Returns
    (drive, resonant Delta_RF in GHz); the drive already carries that Delta_RF.
    """

    def make(w_env_rad: float, rf_ghz: float) -> TwoToneDrive:
        w_mhz = angular_to_mhz(w_env_rad)
        return TwoToneDrive(omega1_mhz=w_mhz, omega2_mhz=w_mhz, delta_rf_ghz=rf_ghz)

    # equal tones: the two-photon Rabi frequency scales with w_env^2
    w_env = math.sqrt(omega_target_mhz / faraday_two_photon_rabi_mhz(p, make(1.0, 0.0), handedness))

    def stark_ghz(w_env_rad: float) -> float:
        return faraday_stark_shift_ghz(p, make(w_env_rad, 0.0), handedness)

    rf = p.omega_e_ghz + stark_ghz(w_env)
    coherent = replace(p, gamma1_mhz=0.0, bigGamma1_mhz=0.0, bigGamma2_mhz=0.0)
    rho0 = DensityMatrix.pure(4, 1).matrix
    t_pi = 1e3 / (2 * omega_target_mhz)
    flip = faraday_flip_projector(p).diagonal().real

    def transfer_curve(rf_ghz: float, w_env_rad: float, t_grid: np.ndarray) -> np.ndarray:
        """Beat-averaged flipped-spin signal on t_grid (detector-smoothed)."""
        drv = make(w_env_rad, rf_ghz)
        model = build_faraday_four_level(coherent, drv, handedness)
        beat = 2 * math.pi / abs(ghz_to_angular(drv.delta_rf_ghz))
        offsets = (np.arange(8) / 8.0 - 0.5) * beat
        samples = np.clip(np.atleast_1d(t_grid)[:, None] + offsets, 0.0, None)
        tt, rows = np.unique(np.append(0.0, samples), return_inverse=True)
        states = _propagate(liouvillian(model)[None], [rho0], tt, model.drives,
                            at=(rows[1:].reshape(samples.shape), 0))
        return np.mean(states.diagonal(axis1=-2, axis2=-1).real @ flip, axis=1)

    # one numeric resonance location fixes kappa in rf = omega_e + kappa w^2
    span = 0.5 * omega_target_mhz * 1e-3
    for _ in range(2):
        rfs = np.linspace(rf - span, rf + span, 5)
        scores = np.array([transfer_curve(x, w_env, np.array([t_pi]))[0] for x in rfs])
        rf = refine_peak(rfs, scores, int(np.argmax(scores)))
        span /= 3.0
    kappa = (rf - p.omega_e_ghz) / w_env**2

    for _ in range(2):
        tg = np.linspace(0.72 * t_pi, 1.34 * t_pi, 17)
        curve = transfer_curve(rf, w_env, tg)
        t_max = refine_peak(tg, curve, int(np.argmax(curve)))
        w_env *= math.sqrt(t_max / t_pi)
        rf = p.omega_e_ghz + kappa * w_env**2
    return make(w_env, rf), rf


def saturation_tone_mhz(gamma1_mhz: float, s: float) -> float:
    """Single-tone envelope amplitude for pump saturation parameter s = P/P_sat.

    The optical transition is driven at the arm Rabi frequency
    gamma_1 sqrt(s/2), i.e. the standard saturation parameter 2 Omega^2 /
    gamma_1^2 equals s; the envelope amplitude is that value divided by
    sqrt(2) (the tone enters the coupling with weight (1+i)/2).
    """
    if s < 0:
        raise UsageError("saturation parameter must be >= 0")
    return gamma1_mhz * math.sqrt(s) / 2.0


# --- derived scalar quantities -------------------------------------------------

class Cyclicity(NamedTuple):
    cyclicity: float
    branching: float


def cyclicity(trion_lifetime_ns: float, pumping_time_ns: float) -> Cyclicity:
    """C = gamma_SC/gamma_SP = t_SP/t_trion - 1; branching = gamma_SP/gamma_1."""
    if trion_lifetime_ns <= 0 or pumping_time_ns <= 0:
        raise UsageError("times must be > 0")
    if pumping_time_ns <= trion_lifetime_ns:
        raise DomainError(
            "spin-flip time must exceed the trion lifetime (cyclicity would be <= 0)"
        )
    c = pumping_time_ns / trion_lifetime_ns - 1.0
    return Cyclicity(cyclicity=c, branching=trion_lifetime_ns / pumping_time_ns)


def g_factor(omega_e0_ghz: float, b_tesla: float) -> float:
    """Out-of-plane g-factor from the electron splitting: g = h f / (mu_B B)."""
    if b_tesla <= 0:
        raise DomainError("magnetic field must be > 0")
    return PLANCK_H * omega_e0_ghz * 1e9 / (BOHR_MAGNETON * b_tesla)


class PiContrast(NamedTuple):
    f_pi: float
    q: float
    flag: str  # "ok", "unbounded" (f_pi -> 1), "no-contrast" (f_pi <= 0.5)


def pi_contrast_and_q(f_pi: float) -> PiContrast:
    """Pi-pulse contrast f_pi and quality factor Q = -1/ln(2 f_pi - 1)."""
    f_pi = float(f_pi)
    if f_pi <= 0.5:
        return PiContrast(f_pi, 0.0, "no-contrast")
    arg = 2 * f_pi - 1
    # contrast indistinguishable from 1 at integration accuracy: lossless
    if arg >= 1.0 - 1e-8:
        return PiContrast(f_pi, math.inf, "unbounded")
    return PiContrast(f_pi, -1.0 / math.log(arg), "ok")
