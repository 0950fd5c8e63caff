"""Pulse protocols (Rabi, ESR scan, Ramsey, Hahn echo, spin pumping, T1, CPT
spectrum) and their simulation against the two-, three- or four-level
physics models.

A Protocol is pure data (kind, parameters, scan axes) so it can round-trip
through the scenario config format.  ``simulate_protocol`` binds a protocol
to a physics description and an inhomogeneous ensemble and returns one signal
value per scan point, always assembled in scan order.

The pulse-sequence families (Rabi on either model, ESR scan, Ramsey, Hahn
echo, T1) have one pulse-sequence form: the shot table that
:func:`_shot_table` builds once per protocol over its scan axis.  Per depth
of the shots it holds one segment kind, one target and a column array of
the segments' parameters (:data:`_COLUMNS`), one row per (scan point,
shot).  One executor runs it depth by depth through a small binding to the
physics model, sharing the states of equal prefixes (found by _unique_rows)
across scan points, shots and ensemble nodes, and the per-kind code only
forms the signal from the shots' readouts.

Nuclear-spin cooling is not simulated dynamically: a Ramsey or echo
protocol's ``cooling_t2star_ns`` is the T2* that cooling leaves, which sets
the detuning ensemble when no EnsembleSpec is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import models
from .core import (DensityMatrix, Drive, _commutator_superop, _coords, _guard, _hermitian_basis, _propagate,
                   _require_finite, _require_finite_fields, _unique_rows, liouvillian)
from .ensemble import (
    DEFAULT_NODES,
    EnsembleSpec,
    combined_sigma,
    gaussian_sigma,
    quadrature_nodes,
    weighted_average,
)
from .errors import UsageError
from .models import CptParams, FaradayParams, TwoToneDrive
from .raman import s3_map
from .units import ghz_to_angular, mhz_to_angular

# Serrodyne phase convention: the ramp advances the second pi/2 pulse phase so
# that the fitted fringe frequency is delta + f_serr (both positive adding).
# The ramp starts from a quadrature (pi/2) reference, making the contrast a
# pure sine of the delay as in the serrodyne fringe fits.
_SERR_SIGN = -1.0
_SERR_REFERENCE = -math.pi / 2

# The parameter columns of a shot table, in this order.  On the spin (levels
# "down", "up"), ``initialize`` prepares its target up to the physics'
# initialization infidelity; ``drive`` and ``wait`` evolve for duration_ns at
# Rabi frequency omega_mhz, detuning delta_mhz and drive phase ``phase`` (a
# wait has omega_mhz = 0, and may carry a sinusoidal detuning modulation of
# amplitude mod_amp_mhz and frequency mod_freq_mhz whose phase at the start
# of the wait is ``phase``); ``rotation`` is an instantaneous ideal pulse of
# ``angle`` about the axis at ``phase``; ``readout`` is the population of its
# target (on the four-level model, with the trion weight that relaxes into it).
_COLUMNS = ("omega_mhz", "delta_mhz", "phase", "duration_ns", "angle", "mod_amp_mhz", "mod_freq_mhz")


@dataclass(frozen=True)
class Protocol:
    """Scan description: protocol kind, fixed parameters, named scan axes and
    the T2* that nuclear-spin cooling leaves (0: no cooling)."""

    kind: str
    params: dict
    axes: tuple[tuple[str, np.ndarray], ...]
    cooling_t2star_ns: float = 0.0

    def __post_init__(self):
        if self.kind not in RUNS_ON:
            raise UsageError(f"unknown protocol kind {self.kind!r}")
        if not (math.isfinite(self.cooling_t2star_ns) and self.cooling_t2star_ns >= 0):
            raise UsageError(f"cooling T2* must be finite and >= 0, got {self.cooling_t2star_ns}")
        axes = tuple((name, np.asarray(vals, dtype=float)) for name, vals in self.axes)
        object.__setattr__(self, "axes", axes)

    def axis(self, name: str) -> np.ndarray:
        for n, vals in self.axes:
            if n == name:
                return vals
        raise UsageError(f"protocol has no axis {name!r}")


@dataclass(frozen=True)
class TwoLevelPhysics:
    gamma1_mhz: float = 0.0
    gamma2_mhz: float = 0.0
    epsilon_init: float = 0.0

    def __post_init__(self):
        _require_finite_fields(self)
        if self.gamma1_mhz < 0 or self.gamma2_mhz < 0:
            raise UsageError("rates must be >= 0")
        if not 0 <= self.epsilon_init < 1:
            raise UsageError("initialization infidelity must be in [0, 1)")


# The protocol kinds, each with the physics classes it runs on; a polarization
# map runs on any physics or on none.
RUNS_ON: dict[str, tuple[type, ...]] = {
    "rabi": (TwoLevelPhysics, FaradayParams),
    "esr_scan": (TwoLevelPhysics,),
    "ramsey": (TwoLevelPhysics,),
    "hahn_echo": (TwoLevelPhysics,),
    "spin_pumping": (FaradayParams,),
    "t1": (TwoLevelPhysics,),
    "rabi_q": (TwoLevelPhysics,),
    "polarization_map": (object,),
    "cpt_spectrum": (CptParams,),
}


@dataclass
class ScanResult:
    axes: tuple[tuple[str, np.ndarray], ...]
    signal: np.ndarray
    name: str = ""
    extras: dict = field(default_factory=dict)

    def axis(self, name: str) -> np.ndarray:
        for n, vals in self.axes:
            if n == name:
                return vals
        raise UsageError(f"result has no axis {name!r}")


# --- protocol constructors ------------------------------------------------------

def rabi_protocol(omega_mhz: float, delta_mhz: float, tau_grid_ns) -> Protocol:
    """Initialize |up>, drive for tau, read out |down>; scanned over tau."""
    tau = np.asarray(tau_grid_ns, dtype=float)
    return Protocol(
        kind="rabi",
        params={"omega_mhz": omega_mhz, "delta_mhz": delta_mhz},
        axes=(("tau_ns", tau),),
    )


def esr_scan_protocol(
    omega_mhz: float,
    tau_ns: float | None,
    omega_grid_ghz,
    stark_ratio: float,
    omega_e0_ghz: float,
) -> Protocol:
    """Fixed-duration probe versus drive frequency; the resonance sits at
    omega_e0 + stark_ratio * Omega.  With ``tau_ns`` omitted the probe runs
    for the pi time 1/(2 Omega)."""
    if tau_ns is None:
        if omega_mhz <= 0:
            raise UsageError("the pi-time probe needs omega_mhz > 0")
        tau_ns = 1e3 / (2.0 * omega_mhz)
    elif tau_ns <= 0:
        raise UsageError(f"probe duration must be > 0, got {tau_ns}")
    grid = np.asarray(omega_grid_ghz, dtype=float)
    return Protocol(
        kind="esr_scan",
        params={
            "omega_mhz": omega_mhz,
            "tau_ns": tau_ns,
            "stark_ratio": stark_ratio,
            "omega_e0_ghz": omega_e0_ghz,
        },
        axes=(("omega_ghz", grid),),
    )


def ramsey_protocol(
    omega_mhz: float,
    delta_mhz: float,
    tau_grid_ns,
    f_serr_mhz: float = 0.0,
    balanced: bool = True,
    cooling_t2star_ns: float = 0.0,
) -> Protocol:
    """Two pi/2 pulses separated by tau; balanced contrast via a phase-pi pair.

    A nonzero serrodyne frequency advances the second pulse phase linearly in
    tau, shifting the fringe frequency to delta + f_serr.  A nonzero
    ``cooling_t2star_ns`` is the T2* that nuclear-spin cooling leaves.
    """
    tau = np.asarray(tau_grid_ns, dtype=float)
    _require_finite(np.append(tau, [omega_mhz, delta_mhz, f_serr_mhz]), "Ramsey delays, omega, delta and f_serr")
    if omega_mhz <= 0:
        raise UsageError(f"pi/2 pulses need omega_mhz > 0, got {omega_mhz}")
    return Protocol(
        kind="ramsey",
        params={
            "omega_mhz": omega_mhz,
            "delta_mhz": delta_mhz,
            "f_serr_mhz": f_serr_mhz,
            "balanced": balanced,
        },
        axes=(("tau_ns", tau),),
        cooling_t2star_ns=cooling_t2star_ns,
    )


def hahn_echo_protocol(
    omega_mhz: float,
    total_delay_grid_ns,
    t2he_ns: float | None = None,
    modulation_amp_mhz: float = 0.0,
    modulation_freq_mhz: float = 0.0,
    modulation_phases: int = 1,
    modulation_mode: str = "refocus",
    cooling_t2star_ns: float = 0.0,
) -> Protocol:
    """Ramsey pair with a refocusing pi pulse halfway through the delay T.

    With only a static detuning ensemble the echo holds contrast at ~1; decay
    enters through the optional phenomenological envelope exp(-(T/T2HE)^2) or
    an injected sinusoidal detuning modulation (amplitude and frequency in
    MHz).  Modulation modes: "refocus" phase-locks the modulation to the pi
    pulse, so the echo contrast oscillates at the modulation frequency itself
    (the signature of a nuclear mode kicked by the refocusing pulse); "free"
    runs the modulation from sequence start and averages over
    ``modulation_phases`` initial phases, which dephases the echo at even
    orders only (spectral weight at half the modulation frequency).  A
    nonzero ``cooling_t2star_ns`` is the T2* that nuclear-spin cooling leaves.
    """
    grid = np.asarray(total_delay_grid_ns, dtype=float)
    _require_finite(np.append(grid, [omega_mhz, t2he_ns or 0.0, modulation_amp_mhz, modulation_freq_mhz]),
                    "echo delays, omega, T2HE and modulation")
    if omega_mhz <= 0:
        raise UsageError(f"echo pulses need omega_mhz > 0, got {omega_mhz}")
    if modulation_mode not in ("refocus", "free"):
        raise UsageError("modulation_mode must be 'refocus' or 'free'")
    if modulation_amp_mhz != 0 and modulation_phases < 1:
        raise UsageError("a detuning modulation needs modulation_phases >= 1")
    return Protocol(
        kind="hahn_echo",
        params={
            "omega_mhz": omega_mhz,
            "t2he_ns": t2he_ns,
            "modulation_amp_mhz": modulation_amp_mhz,
            "modulation_freq_mhz": modulation_freq_mhz,
            "modulation_phases": modulation_phases,
            "modulation_mode": modulation_mode,
        },
        axes=(("total_delay_ns", grid),),
        cooling_t2star_ns=cooling_t2star_ns,
    )


def spin_pumping_protocol(s: float, duration_ns: float, points: int = 161) -> Protocol:
    """Resonant single-tone pumping of |down> -> trion; time-binned emission."""
    if s < 0:
        raise UsageError("saturation parameter must be >= 0")
    if duration_ns <= 0:
        raise UsageError("duration must be > 0")
    return Protocol(
        kind="spin_pumping",
        params={"s": s},
        axes=(("t_ns", np.linspace(0.0, duration_ns, points)),),
    )


def t1_protocol(delay_grid_ns) -> Protocol:
    """Initialize, wait a variable delay, read out; exponential at rate Gamma1."""
    grid = np.asarray(delay_grid_ns, dtype=float)
    return Protocol(
        kind="t1",
        params={},
        axes=(("delay_ns", grid),),
    )


def rabi_q_protocol(
    omega_grid_mhz,
    di_over_i_grid,
    gamma2_mhz: float = 4.2,
    gamma1_per_omega: float = 0.0048,
    stark_ratio: float = -7.4,
    t2star_ns: float = 34.0,
) -> Protocol:
    """Quality factor of Rabi oscillations versus drive and intensity noise."""
    omegas, noises = np.asarray(omega_grid_mhz, dtype=float), np.asarray(di_over_i_grid, dtype=float)
    _require_finite(np.concatenate([omegas, noises, [gamma2_mhz, gamma1_per_omega, stark_ratio, t2star_ns]]),
                    "Rabi frequencies, dI/I values, rates, stark_ratio and T2*")
    if np.any(omegas <= 0) or np.any(noises < 0):
        raise UsageError(f"Rabi frequencies must be > 0 and dI/I values >= 0, got {omegas} and {noises}")
    return Protocol(
        kind="rabi_q",
        params=dict(gamma2_mhz=gamma2_mhz, gamma1_per_omega=gamma1_per_omega, stark_ratio=stark_ratio,
                    t2star_ns=t2star_ns),
        axes=(("omega_mhz", omegas), ("di_over_i", noises)),
    )


def polarization_map_protocol(hwp_grid_deg, qwp_grid_deg) -> Protocol:
    """Stokes S3 of the drive beam over waveplate angles (no spin dynamics)."""
    if np.size(hwp_grid_deg) == 0 or np.size(qwp_grid_deg) == 0:
        raise UsageError("wave-plate grids must be non-empty")
    return Protocol(
        kind="polarization_map",
        params={},
        axes=(
            ("hwp_deg", np.asarray(hwp_grid_deg, dtype=float)),
            ("qwp_deg", np.asarray(qwp_grid_deg, dtype=float)),
        ),
    )


def cpt_spectrum_protocol(omega_grid_ghz) -> Protocol:
    """Steady-state two-laser CPT fluorescence versus probe frequency."""
    grid = np.asarray(omega_grid_ghz, dtype=float)
    if grid.size == 0:
        raise UsageError("frequency grid must be non-empty")
    return Protocol(
        kind="cpt_spectrum",
        params={},
        axes=(("omega_ghz", grid),),
    )


def _shot_table(p: Protocol, x, ideal_pulses: bool) -> list[tuple[str, str | None, np.ndarray]]:
    """The shots of a two-level family at the scan values ``x``, one
    (kind, target, columns) entry per depth: all shots have the same segment
    kind and target at a depth, and ``columns`` holds the segments' _COLUMNS
    as a (points x shots per point, 7) array, point-major in shot order.
    ``ideal_pulses`` replaces the finite Ramsey and echo pulses with
    instantaneous rotations of the same angle and phase."""
    if p.kind not in ("rabi", "esr_scan", "ramsey", "hahn_echo", "t1"):
        raise UsageError(f"protocol kind {p.kind!r} has no sequence representation")
    q, x = p.params, np.asarray(x, dtype=float)[:, None]  # points down, shots across

    def seg(kind: str, target: str | None = None, **columns) -> tuple:
        return kind, target, columns

    def pulse(quarters: int, phase, delta: float = 0.0) -> tuple:
        """A pi/2 (quarters=1) or pi (quarters=2) pulse."""
        if ideal_pulses:
            return seg("rotation", phase=phase, angle=quarters * math.pi / 2)
        return seg("drive", omega_mhz=q["omega_mhz"], delta_mhz=delta, phase=phase,
                   duration_ns=quarters * (1e3 / (4.0 * q["omega_mhz"])))

    shots, init, readout = 1, seg("initialize", "up"), seg("readout", "down")
    if p.kind == "rabi":
        depths = [init, seg("drive", omega_mhz=q["omega_mhz"], delta_mhz=q["delta_mhz"], duration_ns=x), readout]
    elif p.kind == "esr_scan":
        delta = (x - (q["omega_e0_ghz"] + q["stark_ratio"] * q["omega_mhz"] * 1e-3)) * 1e3
        depths = [init, seg("drive", omega_mhz=q["omega_mhz"], delta_mhz=delta, duration_ns=q["tau_ns"]), readout]
    elif p.kind == "t1":
        depths = [init, seg("wait", duration_ns=x), readout]
    elif p.kind == "ramsey":
        delta, extra = q["delta_mhz"], np.array([0.0, math.pi] if q["balanced"] else [0.0])
        serr = _SERR_SIGN * (2.0 * math.pi * q["f_serr_mhz"] * 1e-3 * x
                             + (_SERR_REFERENCE if q["f_serr_mhz"] else 0.0))
        depths = [init, pulse(1, 0.0, delta), seg("wait", delta_mhz=delta, duration_ns=x),
                  pulse(1, serr + extra, delta), readout]
        shots = extra.size
    else:
        # Hahn echo, a (phi, phi + pi) pair per modulation phase: "refocus"
        # starts the modulation at the pi pulse, "free" runs it from the first
        # wait; either way the pulses take no modulation time
        amp, freq = q["modulation_amp_mhz"], q["modulation_freq_mhz"]
        n_phases = int(q["modulation_phases"]) if amp else 1
        ph = np.repeat(2.0 * math.pi * np.arange(n_phases) / n_phases, 2)
        locked = q["modulation_mode"] == "refocus"

        def wait(phase, modulated: bool) -> tuple:
            if not (modulated and amp):
                return seg("wait", duration_ns=x / 2)
            return seg("wait", phase=phase, duration_ns=x / 2, mod_amp_mhz=amp, mod_freq_mhz=freq)

        depths = [init, pulse(1, 0.0), wait(ph, not locked), pulse(2, math.pi / 2),
                  wait(ph if locked else ph + mhz_to_angular(freq) * x / 2, True),
                  pulse(1, np.tile([0.0, math.pi], n_phases)), readout]
        shots = ph.size
    table = []
    for kind, target, columns in depths:
        cols = np.zeros((x.shape[0], shots, len(_COLUMNS)))
        for name, values in columns.items():
            cols[..., _COLUMNS.index(name)] = values
        table.append((kind, target, cols.reshape(-1, len(_COLUMNS))))
    if any(np.any(cols[:, 3] < 0) for _, _, cols in table):
        raise UsageError("segment duration must be >= 0")
    return table


# --- simulation -----------------------------------------------------------------

_LEVELS = ("down", "up")  # basis order of the two-level model


def _resolve_sigma(protocol: Protocol, ensemble: EnsembleSpec | None) -> tuple[float, int]:
    if ensemble is not None:
        return combined_sigma(ensemble), ensemble.nodes
    if protocol.cooling_t2star_ns:
        return gaussian_sigma(protocol.cooling_t2star_ns), DEFAULT_NODES
    return 0.0, DEFAULT_NODES


def _two_level_generators(rows: np.ndarray, phys: TwoLevelPhysics) -> tuple[np.ndarray, list[tuple[Drive, ...]]]:
    """Generators of drive or wait rows (_COLUMNS) of a shot table, and each row's drives."""
    gens = models.two_level_generators(rows[:, 0], rows[:, 1], phys.gamma1_mhz, phys.gamma2_mhz, rows[:, 2])
    return gens, [_modulation(*row) for row in rows[:, [2, 5, 6]].tolist()]


def _modulation(phase: float, amp_mhz: float, freq_mhz: float) -> tuple[Drive, ...]:
    """The drive of a wait's sinusoidal detuning modulation; none without one."""
    if not amp_mhz:
        return ()
    w_mod, f_ang = mhz_to_angular(amp_mhz), mhz_to_angular(freq_mhz)

    def env(t: float) -> complex:
        return 0.5 * w_mod * math.cos(f_ang * t + phase)

    period = 2 * math.pi / abs(f_ang) if f_ang else None
    return (Drive(env, models.SIGMA_Z / 2, period_ns=period),)


@dataclass(frozen=True)
class _Binding:
    """What the executor needs of one physics model: per target, the
    coordinates of the state ``initialize`` prepares and of the diagonal
    observable ``readout`` measures; the generators of drive or wait rows
    (_COLUMNS) of a shot table, as an (R, d^2, d^2) stack, and each row's
    drives; ``offset``, the Hamiltonian term that an ensemble node's
    detuning offset adds per rad/ns; for four-level physics, the calibrated
    (drive, resonant Delta_RF) per Rabi frequency."""

    initial: dict[str, np.ndarray]
    readout: dict[str, np.ndarray]
    generators: Callable[[np.ndarray], tuple[np.ndarray, list[tuple[Drive, ...]]]]
    offset: np.ndarray
    calibrated: Callable[[float], tuple[TwoToneDrive, float]] | None = None


def _bind(physics, handedness: str = "sigma-") -> _Binding:
    """The executor binding of a TwoLevelPhysics or a FaradayParams."""
    if isinstance(physics, TwoLevelPhysics):
        # shot tables initialize "up" and read "down" (_shot_table); on the
        # coordinates (rho_00, 2 Re rho_01, 2 Im rho_01, rho_11) of _LEVELS
        eps = physics.epsilon_init
        return _Binding(initial={"up": np.array([eps, 0.0, 0.0, 1.0 - eps])},
                        readout={"down": np.array([1.0, 0.0, 0.0, 0.0])},
                        generators=functools.partial(_two_level_generators, phys=physics),
                        offset=models.SIGMA_Z / 2)
    calibrated = functools.cache(
        lambda omega_mhz: models.calibrate_faraday_drive(physics, omega_mhz, handedness))

    def generators(rows: np.ndarray) -> tuple[np.ndarray, list[tuple[Drive, ...]]]:
        built = []
        for omega, delta in rows[:, :2].tolist():
            drive, _ = calibrated(omega)
            drive = replace(drive, delta_rf_ghz=drive.delta_rf_ghz + delta * 1e-3)
            built.append(models.build_faraday_four_level(physics, drive, handedness))
        return np.array([liouvillian(m) for m in built]), [m.drives for m in built]

    # the flipped spin counts the trion weight that relaxes back to |down>
    flip = _coords(models.faraday_flip_projector(physics))
    # the offset shifts the electron splitting, which sits on -|up><up|
    return _Binding(initial={"up": _coords(DensityMatrix.pure(4, 1).matrix)}, readout={"down": flip},
                    generators=generators, offset=-np.diag([0.0, 1.0, 0.0, 0.0]), calibrated=calibrated)


def _run_shots(protocol: Protocol, binding: _Binding, sigma: float, nodes: int,
               ideal_pulses: bool) -> np.ndarray:
    """Ensemble-averaged readout of every shot at every scan point, as a
    (points, shots) array.

    The protocol's shot table (:func:`_shot_table`) runs one depth at a time.
    A row's state is set by its parent's state and its parameter columns, so
    each depth holds one (nodes, d^2) stack of coordinates per distinct
    (columns, parent) pair, found by one np.unique (:func:`_unique_rows`);
    every segment's detuning gets the node offset.  A rotation depth is one
    product of the superoperators U (x) U* of the closed-form 2 x 2 unitaries,
    in coordinates, with the states, guarded as one stack; a readout is one
    product of the states with the coordinates of the target's observable.  A
    drive or wait depth takes the generators of its distinct duration-free rows
    as one stack (``binding.generators``), to which the nodes add offset *
    L_offset; each (parent, row) pair with nonzero durations is one block of
    nodes in a stack of generators and initial states.  All static blocks are
    one _propagate call over the union of their durations, and the blocks of
    each driven row one call with its drives; a zero duration carries its
    parent's states through unguarded.
    """
    ((_, values),) = protocol.axes
    offsets, weights = quadrature_nodes(sigma, nodes) if sigma > 0 else (np.zeros(1), None)
    n = offsets.size
    shift = mhz_to_angular(offsets)[:, None, None] * _commutator_superop(binding.offset)
    for kind, target, cols in _shot_table(protocol, values, ideal_pulses):
        if kind == "initialize":
            states, parent = np.repeat(binding.initial[target][None, None], n, 1), np.zeros(len(cols))
            continue
        rows, parent = _unique_rows(np.column_stack([cols, parent]))  # _COLUMNS, then the parent
        parents, states = states, states[rows[:, -1].astype(int)]
        if kind == "readout":
            readout = (states @ binding.readout[target])[parent].T
        elif kind == "rotation":
            # U = cos(angle/2) I - i sin(angle/2) (cos(phase) sigma_x + sin(phase) sigma_y)
            half, phase = 0.5 * rows[:, 4], rows[:, 2]  # angle and phase
            c, off = np.cos(half), -1j * np.sin(half) * np.exp(-1j * phase)
            u = np.moveaxis(np.array([[c, off], [-off.conj(), c]]), -1, 0)
            basis, inverse = _hermitian_basis(2)
            sup = (basis @ np.einsum("rik,rjl->rijkl", u, u.conj()).reshape(-1, 4, 4) @ inverse).real
            states = _guard(np.einsum("rab,rnb->rna", sup, states))
        else:
            moving = np.flatnonzero(rows[:, 3] != 0.0)  # nonzero durations
            free = rows[moving, :-1].copy()
            free[:, 3] = 0.0
            free, model = _unique_rows(free)
            gens, drives = binding.generators(free)
            gens = gens[:, None] + shift  # (models, nodes, d^2, d^2)
            blocks, block = _unique_rows(np.column_stack([rows[moving, -1], model]))
            blocks = blocks.astype(int)
            calls: dict = {}  # None: every static block; a driven row: its blocks
            for b, m in enumerate(blocks[:, 1]):
                calls.setdefault(m if drives[m] else None, []).append(b)
            for members in calls.values():
                items = np.flatnonzero(np.isin(block, members))
                grid, at = np.unique(np.append(0.0, rows[moving[items], 3]), return_inverse=True)
                local = np.searchsorted(members, block[items])
                states[moving[items]] = _propagate(
                    gens[blocks[members, 1]].reshape(-1, *shift.shape[1:]),
                    np.concatenate(parents[blocks[members, 0]]), grid, drives[blocks[members[0], 1]],
                    at=(at[1:, None], local[:, None] * n + np.arange(n)))
    pops = readout[0] if weights is None else weighted_average(weights, readout)
    return pops.reshape(values.size, -1)


def simulate_protocol(
    protocol: Protocol,
    physics,
    ensemble: EnsembleSpec | None = None,
    ideal_pulses: bool = False,
    counts_per_shot: float = 0.0,
    seed: int | None = None,
    handedness: str = "sigma-",
) -> ScanResult:
    """Simulate a protocol, returning the signal per scan point.

    ``physics`` is a TwoLevelPhysics (Rabi/Ramsey/echo/ESR/T1 families), a
    FaradayParams (spin pumping, four-level Rabi) or a CptParams (the CPT
    spectrum).  Four-level Rabi runs the shots like the two-level families,
    on a drive calibrated once (its resonant Delta_RF is in ``extras``) and
    at most 9 ensemble nodes.
    Deterministic for fixed inputs; when ``counts_per_shot`` > 0 a seeded
    generator draws Poisson counts per shot (a ``seed`` >= 0 is then required).
    """
    if counts_per_shot > 0 and (seed is None or seed < 0):
        raise UsageError(f"shot-noise sampling requires a seed >= 0, got {seed}")
    if not isinstance(physics, RUNS_ON[protocol.kind]):
        names = " or ".join(cls.__name__ for cls in RUNS_ON[protocol.kind])
        raise UsageError(f"protocol kind {protocol.kind!r} runs on {names}, not {type(physics).__name__}")
    check_inputs(protocol, physics, ensemble)
    rng = np.random.default_rng(seed) if counts_per_shot > 0 else None

    if protocol.kind == "polarization_map":
        return ScanResult(protocol.axes, s3_map(protocol.axis("hwp_deg"), protocol.axis("qwp_deg")))
    if protocol.kind == "spin_pumping":
        return _simulate_spin_pumping(protocol, physics, handedness)
    if protocol.kind == "rabi_q":
        return _simulate_rabi_q(protocol, physics, ensemble)
    if protocol.kind == "cpt_spectrum":
        return ScanResult(protocol.axes, models.cpt_spectrum(physics, protocol.axis("omega_ghz")))

    four_level = isinstance(physics, FaradayParams)
    binding = _bind(physics, handedness)
    if protocol.axes[0][1].size == 0:
        return ScanResult(protocol.axes, np.empty(0))
    sigma, nodes = _resolve_sigma(protocol, ensemble)
    pops = _run_shots(protocol, binding, sigma, min(nodes, 9) if four_level else nodes, ideal_pulses)
    q = protocol.params
    if protocol.kind == "ramsey" and not q["balanced"]:
        result = ScanResult(protocol.axes, pops[:, 0], extras={"n_phi": pops[:, 0]})
    elif protocol.kind in ("ramsey", "hahn_echo"):
        # shots come in (phi, phi + pi) pairs, one pair per modulation phase
        n0, n1 = pops[:, 0::2].mean(axis=1), pops[:, 1::2].mean(axis=1)
        contrast = (n0 - n1) / (n0 + n1)
        if q.get("t2he_ns"):
            contrast = contrast * np.exp(-((protocol.axes[0][1] / q["t2he_ns"]) ** 2))
        result = ScanResult(protocol.axes, contrast, extras={"n_phi": n0, "n_phi_pi": n1})
    else:
        result = ScanResult(protocol.axes, pops[:, 0])
    if four_level:
        result.extras["delta_rf_ghz"] = np.array([binding.calibrated(q["omega_mhz"])[1]])
    if rng is not None:
        result = _apply_counts(result, counts_per_shot, rng)
    return result


def _apply_counts(result: ScanResult, counts_per_shot: float, rng) -> ScanResult:
    if "n_phi_pi" in result.extras:
        n0 = rng.poisson(np.clip(result.extras["n_phi"], 0, None) * counts_per_shot)
        n1 = rng.poisson(np.clip(result.extras["n_phi_pi"], 0, None) * counts_per_shot)
        tot = np.where(n0 + n1 > 0, n0 + n1, 1)
        contrast = (n0 - n1) / tot
        return replace(result, signal=contrast.astype(float),
                       extras={**result.extras, "counts_phi": n0, "counts_phi_pi": n1})
    counts = rng.poisson(np.clip(result.signal, 0, None) * counts_per_shot)
    return replace(result, signal=counts.astype(float), extras={**result.extras})


def _simulate_spin_pumping(protocol, params: FaradayParams, handedness: str) -> ScanResult:
    tgrid = protocol.axis("t_ns")
    if tgrid.size == 0:
        return ScanResult(protocol.axes, np.empty(0))
    s = protocol.params["s"]
    tone = models.saturation_tone_mhz(params.gamma1_mhz, s)
    drive = TwoToneDrive(omega1_mhz=tone, omega2_mhz=0.0)
    model = models.build_faraday_four_level(params, drive, handedness)
    if tgrid.min() < 0:
        raise UsageError("pumping times must be >= 0")
    # the pump switches on at t = 0
    grid, rows = np.unique(np.append(0.0, tgrid), return_inverse=True)
    states = _propagate(liouvillian(model)[None], _coords(DensityMatrix.pure(4, 0).matrix)[None], grid,
                        model.drives, at=(rows[1:], 0))
    emission = mhz_to_angular(params.gamma1_mhz) * states[:, ::5][:, 2:].sum(axis=1)  # the trion populations
    return ScanResult(protocol.axes, emission)


def faraday_pi_contrast(
    params: FaradayParams,
    omega_mhz: float,
    t2star_ns: float,
    nodes: int = 9,
    handedness: str = "sigma-",
) -> models.PiContrast:
    """Beat-averaged pi contrast of the calibrated four-level model under a
    static detuning ensemble: the mean readout of Rabi shots at 16 durations
    across one Delta_RF beat around the pi time (those clipped to 0 dropped)."""
    binding = _bind(params, handedness)
    drive, _ = binding.calibrated(omega_mhz)
    beat = 2 * math.pi / abs(ghz_to_angular(drive.delta_rf_ghz))
    offsets = (np.arange(16) / 16.0 - 0.5) * beat
    tau = np.unique(np.clip(1e3 / (2 * omega_mhz) + offsets, 0.0, None))
    pops = _run_shots(rabi_protocol(omega_mhz, 0.0, tau[tau > 0]), binding,
                      gaussian_sigma(t2star_ns), nodes, False)
    return models.pi_contrast_and_q(float(np.mean(pops)))


def two_level_pi_contrast(
    omega_mhz: float,
    gamma1_mhz: float,
    gamma2_mhz: float,
    t2star_ns: float | None = None,
    sigma_mhz: float | None = None,
    nodes: int = DEFAULT_NODES,
) -> models.PiContrast:
    """Pi contrast of the driven two-level model under a static detuning ensemble: one _pi_readouts row."""
    if not (math.isfinite(omega_mhz) and omega_mhz > 0):
        raise UsageError(f"the Rabi frequency must be finite and > 0, got {omega_mhz}")
    if sigma_mhz is None:
        sigma_mhz = gaussian_sigma(t2star_ns) if t2star_ns else 0.0
    f_pi = _pi_readouts([omega_mhz], [0.0], [gamma1_mhz], gamma2_mhz, [1e3 / (2 * omega_mhz)], [sigma_mhz],
                        nodes if sigma_mhz > 0 else 1)
    return models.pi_contrast_and_q(f_pi[0])


def _pi_readouts(omega, delta, gamma1, gamma2_mhz: float, t_pi, sigma, nodes: int) -> np.ndarray:
    """Readout of |down> after a drive of duration t_pi from |up> per row,
    Kahan-averaged over detuning offsets of spread sigma on ``nodes``
    nodes.  Every (row, node) is a member L * t_pi, L the generator at the
    row's detuning plus the node's offset, of one stack built by one
    :func:`models.two_level_generators` call and advanced over [0, 1] by one
    _propagate call."""
    def column(values) -> np.ndarray:
        return np.asarray(values, dtype=float)[:, None]

    offsets, weights = quadrature_nodes(column(sigma), nodes)
    gens = models.two_level_generators(column(omega), column(delta) + offsets, column(gamma1), gamma2_mhz)
    gens = (gens * column(t_pi)[..., None, None]).reshape(-1, 4, 4)
    up = _coords(DensityMatrix.pure(2, _LEVELS.index("up")).matrix)
    states = _propagate(gens, np.broadcast_to(up, (len(gens), 4)), [0.0, 1.0], at=(1, np.arange(len(gens))))
    return weighted_average(weights, states[:, 0].reshape(-1, nodes).T)  # the population of |down>


def check_inputs(protocol: Protocol, phys, ensemble: EnsembleSpec | None) -> None:
    """Raise UsageError naming what a simulation of ``protocol`` would ignore:
    a cooling T2* beside an ensemble, which sets the detuning spread in its
    place, and each physics or ensemble value of a rabi_q protocol, which
    takes its rates, T2* and Stark ratio from the protocol, so that only the
    ensemble's node count and jitter mode are read."""
    if protocol.cooling_t2star_ns and ensemble is not None:
        raise UsageError(f"{protocol.kind} would ignore its cooling T2* ({protocol.cooling_t2star_ns:g} ns): "
                         "an ensemble sets the detuning spread, so give one or the other")
    if protocol.kind != "rabi_q":
        return
    q = protocol.params
    ignored = [f"TwoLevelPhysics.{f.name}" for f in fields(phys) if getattr(phys, f.name) != f.default]
    if ensemble is not None:
        ignored += [f"EnsembleSpec.{name}" for name, bad in (
            ("t2star_ns", ensemble.t2star_ns != q["t2star_ns"]),
            ("stark_ratio", ensemble.stark_ratio not in (0.0, q["stark_ratio"])),
            ("omega_mhz", ensemble.omega_mhz != 0.0), ("di_over_i", ensemble.di_over_i != 0.0)) if bad]
    if ignored:
        raise UsageError(f"rabi_q would ignore {', '.join(ignored)}: it takes its rates, T2* and Stark ratio "
                         "from the protocol and its drive and noise from the protocol's axes")


def _simulate_rabi_q(protocol, phys: TwoLevelPhysics, ensemble) -> ScanResult:
    """f_pi and Q per (omega, dI/I) point, all rows of one _pi_readouts call:
    a point is one row with the combined Overhauser and laser spread, or,
    with correlated Rabi jitter and dI/I > 0, 9 rows over the intensity
    nodes eps (drive omega (1 + eps), detuning stark_ratio omega eps, the
    nominal pi time, the Overhauser spread) averaged over eps.  The rates,
    T2* and Stark ratio come from the protocol and the drives and noise
    levels from its axes (see :func:`check_inputs`)."""
    omegas, noises = protocol.axis("omega_mhz"), protocol.axis("di_over_i")
    q = protocol.params
    nodes = ensemble.nodes if ensemble is not None else DEFAULT_NODES
    w, di = np.repeat(omegas, noises.size), np.tile(noises, omegas.size)
    jittered = (di > 0) & (ensemble is not None and ensemble.correlated_rabi_jitter)
    plain = np.flatnonzero(~jittered)
    eps, eps_w = quadrature_nodes(di[jittered, None], 9)
    point = np.concatenate([plain, np.repeat(np.flatnonzero(jittered), 9)])
    eps = np.concatenate([np.zeros(plain.size), eps.ravel()])
    sigma = [combined_sigma(EnsembleSpec(q["t2star_ns"], q["stark_ratio"], w[k], di[k], nodes)) for k in plain]
    sigma += [gaussian_sigma(q["t2star_ns"])] * (eps.size - plain.size)
    rows = _pi_readouts(w[point] * (1.0 + eps), q["stark_ratio"] * w[point] * eps, q["gamma1_per_omega"] * w[point],
                        q["gamma2_mhz"], 1e3 / (2 * w[point]), sigma, nodes)
    f_pi = np.empty(w.size)
    f_pi[plain] = rows[:plain.size]
    f_pi[jittered] = weighted_average(eps_w, rows[plain.size:].reshape(-1, 9).T)
    qual = np.array([models.pi_contrast_and_q(f).q for f in f_pi]).reshape(omegas.size, noises.size)
    return ScanResult(protocol.axes, qual, extras={"f_pi": f_pi.reshape(qual.shape)})


# --- spin-pumping analysis --------------------------------------------------------

@dataclass(frozen=True)
class PumpingAnalysis:
    """Both readings of a pumping trace, reflecting the trion-occupation ambiguity.

    ``fitted_decay_ns`` is the raw exponential time of the simulated emission;
    ``branch_time_ns`` is 1/gamma_SP of the model; ``occupation_factor`` is the
    quasi-steady trion occupation s/(2(1+s)) relating the two (the raw decay is
    slower than the branch time by roughly that factor).
    """

    s: float
    fitted_decay_ns: float
    branch_time_ns: float
    occupation_factor: float
    times_ns: np.ndarray
    emission: np.ndarray


def spin_pumping_analysis(
    params: FaradayParams,
    s: float,
    duration_ns: float,
    points: int = 161,
    handedness: str = "sigma-",
) -> PumpingAnalysis:
    """Run the pumping protocol and fit the emission tail to an exponential."""
    from .fitting import MODEL_LIBRARY, fit

    protocol = spin_pumping_protocol(s, duration_ns, points)
    res = simulate_protocol(protocol, params, handedness=handedness)
    t = res.axis("t_ns")
    y = res.signal
    # skip the trion turn-on transient before fitting the pumping tail
    mask = t > min(10.0 / mhz_to_angular(params.gamma1_mhz), 0.2 * duration_ns)
    tt, yy = t[mask], y[mask]
    tau0 = max((tt[-1] - tt[0]) / max(math.log(max(yy[0], 1e-30) / max(yy[-1], 1e-30)), 0.5), 1.0)
    out = fit(MODEL_LIBRARY["exp_decay"], tt, yy, {"amplitude": yy[0], "tau": tau0, "offset": yy[-1]})
    branch = 1.0 / mhz_to_angular(params.gamma_sp_mhz)
    return PumpingAnalysis(
        s=s,
        fitted_decay_ns=float(out["tau"]),
        branch_time_ns=float(branch),
        occupation_factor=s / (2.0 * (1.0 + s)) if s > 0 else 0.0,
        times_ns=t,
        emission=y,
    )
