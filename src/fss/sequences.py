"""Pulse protocols (Rabi, ESR scan, Ramsey, Hahn echo, spin pumping, T1) and
their simulation against the two-level or four-level physics models.

A Protocol is pure data (kind + parameters + scan axes) so it can round-trip
through the scenario config format.  ``simulate_protocol`` binds a protocol
to a physics description and an inhomogeneous ensemble and returns one signal
value per scan point, always assembled in scan order.

The pulse-sequence families (Rabi on either model, ESR scan, Ramsey, Hahn
echo, T1) run their pulse sequences: the shots that ``Protocol.shots``
returns are exactly what one executor propagates, batched over scan points,
shots and ensemble nodes, through a small binding to the physics model; the
per-kind code only forms the signal from the shots' readouts.

Nuclear-spin cooling stages are not simulated dynamically; a CoolingSpec
carries the cooling parameters as metadata and contributes only its resulting
T2* to the detuning ensemble.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import models
from .core import DensityMatrix, Drive, LindbladModel, _commutator_superop, _guard, _propagate, evolve, liouvillian
from .ensemble import (
    EnsembleSpec,
    combined_sigma,
    gaussian_sigma,
    quadrature_nodes,
    weighted_average,
)
from .errors import UsageError
from .models import FaradayParams, TwoToneDrive, build_two_level
from .raman import s3_map
from .units import ghz_to_angular, mhz_to_angular

# Serrodyne phase convention: the ramp advances the second pi/2 pulse phase so
# that the fitted fringe frequency is delta + f_serr (both positive adding).
# The ramp starts from a quadrature (pi/2) reference, making the contrast a
# pure sine of the delay as in the serrodyne fringe fits.
_SERR_SIGN = -1.0
_SERR_REFERENCE = -math.pi / 2

PROTOCOL_KINDS = (
    "rabi",
    "esr_scan",
    "ramsey",
    "hahn_echo",
    "spin_pumping",
    "t1",
    "rabi_q",
    "polarization_map",
)


@dataclass(frozen=True)
class PulseSegment:
    """One step of a shot on the spin (levels "down", "up").

    ``initialize`` prepares ``target`` up to the physics' initialization
    infidelity; ``drive`` and ``wait`` evolve for ``duration_ns`` at Rabi
    frequency ``omega_mhz``, detuning ``delta_mhz`` and drive phase
    ``phase``; ``rotation`` is an instantaneous ideal pulse of ``angle``
    about the axis at ``phase``; ``readout`` is the population of ``target``
    (on the four-level model, with the trion weight that relaxes into it).
    A wait may carry a sinusoidal detuning modulation of amplitude
    ``mod_amp_mhz`` and frequency ``mod_freq_mhz``, whose phase at the start
    of the wait is ``phase``.
    """

    kind: str  # initialize | drive | wait | rotation | readout
    omega_mhz: float = 0.0
    delta_mhz: float = 0.0
    phase: float = 0.0
    duration_ns: float = 0.0
    target: str | None = None
    angle: float = 0.0
    mod_amp_mhz: float = 0.0
    mod_freq_mhz: float = 0.0

    def __post_init__(self):
        if self.kind not in ("initialize", "drive", "wait", "rotation", "readout"):
            raise UsageError(f"unknown segment kind {self.kind!r}")
        if self.duration_ns < 0:
            raise UsageError("segment duration must be >= 0")
        if self.kind == "wait" and self.omega_mhz != 0:
            raise UsageError("wait segments carry no drive")


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple[PulseSegment, ...]


@dataclass(frozen=True)
class CoolingSpec:
    """Nuclear-spin cooling stage; only ``resulting_t2star_ns`` affects simulation."""

    method: str
    resulting_t2star_ns: float
    omega_cool_mhz: float = 0.0
    omega_cool_ghz: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("raman", "rabi", "algorithmic", "modified-algorithmic"):
            raise UsageError(f"unknown cooling method {self.method!r}")
        if self.resulting_t2star_ns <= 0:
            raise UsageError("resulting T2* must be > 0")


@dataclass(frozen=True)
class Protocol:
    """Scan description: protocol kind, fixed parameters, named scan axes."""

    kind: str
    params: dict
    axes: tuple[tuple[str, np.ndarray], ...]
    signal: str
    cooling: CoolingSpec | None = None

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise UsageError(f"unknown protocol kind {self.kind!r}")
        axes = tuple((name, np.asarray(vals, dtype=float)) for name, vals in self.axes)
        object.__setattr__(self, "axes", axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(vals) for _, vals in self.axes)

    def axis(self, name: str) -> np.ndarray:
        for n, vals in self.axes:
            if n == name:
                return vals
        raise UsageError(f"protocol has no axis {name!r}")

    def shots(self, ideal_pulses: bool = False, **point) -> list[PulseSequence]:
        """The pulse sequences that ``simulate_protocol`` runs at one scan point."""
        return _shots_for(self, point, ideal_pulses)


@dataclass(frozen=True)
class TwoLevelPhysics:
    gamma1_mhz: float = 0.0
    gamma2_mhz: float = 0.0
    epsilon_init: float = 0.0

    def __post_init__(self):
        if self.gamma1_mhz < 0 or self.gamma2_mhz < 0:
            raise UsageError("rates must be >= 0")
        if not 0 <= self.epsilon_init < 1:
            raise UsageError("initialization infidelity must be in [0, 1)")


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
        signal="population",
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
        signal="population",
    )


def ramsey_protocol(
    omega_mhz: float,
    delta_mhz: float,
    tau_grid_ns,
    f_serr_mhz: float = 0.0,
    balanced: bool = True,
    cooling: CoolingSpec | None = None,
) -> Protocol:
    """Two pi/2 pulses separated by tau; balanced contrast via a phase-pi pair.

    A nonzero serrodyne frequency advances the second pulse phase linearly in
    tau, shifting the fringe frequency to delta + f_serr.
    """
    if omega_mhz <= 0:
        raise UsageError(f"pi/2 pulses need omega_mhz > 0, got {omega_mhz}")
    tau = np.asarray(tau_grid_ns, dtype=float)
    return Protocol(
        kind="ramsey",
        params={
            "omega_mhz": omega_mhz,
            "delta_mhz": delta_mhz,
            "f_serr_mhz": f_serr_mhz,
            "balanced": balanced,
        },
        axes=(("tau_ns", tau),),
        signal="contrast" if balanced else "population",
        cooling=cooling,
    )


def hahn_echo_protocol(
    omega_mhz: float,
    total_delay_grid_ns,
    t2he_ns: float | None = None,
    modulation_amp_mhz: float = 0.0,
    modulation_freq_mhz: float = 0.0,
    modulation_phases: int = 1,
    modulation_mode: str = "refocus",
    cooling: CoolingSpec | None = None,
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
    orders only (spectral weight at half the modulation frequency).
    """
    if omega_mhz <= 0:
        raise UsageError(f"echo pulses need omega_mhz > 0, got {omega_mhz}")
    if modulation_mode not in ("refocus", "free"):
        raise UsageError("modulation_mode must be 'refocus' or 'free'")
    if modulation_amp_mhz != 0 and modulation_phases < 1:
        raise UsageError("a detuning modulation needs modulation_phases >= 1")
    grid = np.asarray(total_delay_grid_ns, dtype=float)
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
        signal="contrast",
        cooling=cooling,
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
        signal="emission",
    )


def t1_protocol(delay_grid_ns) -> Protocol:
    """Initialize, wait a variable delay, read out; exponential at rate Gamma1."""
    grid = np.asarray(delay_grid_ns, dtype=float)
    return Protocol(
        kind="t1",
        params={},
        axes=(("delay_ns", grid),),
        signal="population",
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
    return Protocol(
        kind="rabi_q",
        params={
            "gamma2_mhz": gamma2_mhz,
            "gamma1_per_omega": gamma1_per_omega,
            "stark_ratio": stark_ratio,
            "t2star_ns": t2star_ns,
        },
        axes=(
            ("omega_mhz", np.asarray(omega_grid_mhz, dtype=float)),
            ("di_over_i", np.asarray(di_over_i_grid, dtype=float)),
        ),
        signal="qfactor",
    )


def polarization_map_protocol(hwp_grid_deg, qwp_grid_deg) -> Protocol:
    """Stokes S3 of the drive beam over waveplate angles (no spin dynamics)."""
    return Protocol(
        kind="polarization_map",
        params={},
        axes=(
            ("hwp_deg", np.asarray(hwp_grid_deg, dtype=float)),
            ("qwp_deg", np.asarray(qwp_grid_deg, dtype=float)),
        ),
        signal="s3",
    )


def _shots_for(p: Protocol, point: dict, ideal_pulses: bool = False) -> list[PulseSequence]:
    """Shots of the two-level families at one scan point.  ``ideal_pulses``
    replaces the finite Ramsey and echo pulses with instantaneous rotations
    of the same angle and phase."""
    if p.kind not in ("rabi", "esr_scan", "ramsey", "hahn_echo", "t1"):
        raise UsageError(f"protocol kind {p.kind!r} has no sequence representation")
    q = p.params
    ((name, values),) = p.axes
    x = float(point.get(name, values[0]))
    init = PulseSegment("initialize", target="up")
    readout = PulseSegment("readout", target="down")
    if p.kind == "rabi":
        drive = PulseSegment("drive", q["omega_mhz"], q["delta_mhz"], 0.0, x)
        return [PulseSequence((init, drive, readout))]
    if p.kind == "esr_scan":
        delta = (x - (q["omega_e0_ghz"] + q["stark_ratio"] * q["omega_mhz"] * 1e-3)) * 1e3
        drive = PulseSegment("drive", q["omega_mhz"], delta, 0.0, q["tau_ns"])
        return [PulseSequence((init, drive, readout))]
    if p.kind == "t1":
        return [PulseSequence((init, PulseSegment("wait", duration_ns=x), readout))]

    t_half = 1e3 / (4.0 * q["omega_mhz"])

    def pulse(quarters: int, phase: float, delta: float = 0.0) -> PulseSegment:
        """A pi/2 (quarters=1) or pi (quarters=2) pulse."""
        if ideal_pulses:
            return PulseSegment("rotation", phase=phase, angle=quarters * math.pi / 2)
        return PulseSegment("drive", q["omega_mhz"], delta, phase, quarters * t_half)

    if p.kind == "ramsey":
        delta = q["delta_mhz"]
        serr = _SERR_SIGN * (2.0 * math.pi * q["f_serr_mhz"] * 1e-3 * x
                             + (_SERR_REFERENCE if q["f_serr_mhz"] else 0.0))
        wait = PulseSegment("wait", 0.0, delta, 0.0, x)
        return [PulseSequence((init, pulse(1, 0.0, delta), wait, pulse(1, serr + extra, delta), readout))
                for extra in ((0.0, math.pi) if q["balanced"] else (0.0,))]

    # Hahn echo: "refocus" starts the modulation at the pi pulse, "free" runs
    # it from the first wait; either way the pulses take no modulation time
    amp, freq = q["modulation_amp_mhz"], q["modulation_freq_mhz"]
    n_phases = int(q["modulation_phases"]) if amp else 1
    locked = q["modulation_mode"] == "refocus"

    def wait(phase: float, modulated: bool) -> PulseSegment:
        if not (modulated and amp):
            return PulseSegment("wait", duration_ns=x / 2)
        return PulseSegment("wait", phase=phase, duration_ns=x / 2, mod_amp_mhz=amp, mod_freq_mhz=freq)

    shots = []
    for ph in 2.0 * math.pi * np.arange(n_phases) / n_phases:
        first = wait(ph, not locked)
        second = wait(ph if locked else ph + mhz_to_angular(freq) * x / 2, True)
        shots += [PulseSequence((init, pulse(1, 0.0), first, pulse(2, math.pi / 2), second,
                                 pulse(1, extra), readout))
                  for extra in (0.0, math.pi)]
    return shots


# --- simulation -----------------------------------------------------------------

_LEVELS = ("down", "up")  # basis order of build_two_level


def _rotation_unitary(theta: float, phase: float) -> np.ndarray:
    axis = math.cos(phase) * models.SIGMA_X + math.sin(phase) * models.SIGMA_Y
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis


def _resolve_sigma(protocol: Protocol, ensemble: EnsembleSpec | None) -> tuple[float, int]:
    if ensemble is not None:
        return combined_sigma(ensemble), ensemble.nodes
    if protocol.cooling is not None:
        return gaussian_sigma(protocol.cooling.resulting_t2star_ns), 21
    return 0.0, 21


def _segment_model(seg: PulseSegment, phys: TwoLevelPhysics) -> LindbladModel:
    """Two-level model of a drive or wait segment."""
    model = build_two_level(seg.omega_mhz, seg.delta_mhz, phys.gamma1_mhz, phys.gamma2_mhz, phase=seg.phase)
    if not seg.mod_amp_mhz:
        return model
    w_mod, f_ang = mhz_to_angular(seg.mod_amp_mhz), mhz_to_angular(seg.mod_freq_mhz)

    def env(t: float) -> complex:
        return 0.5 * w_mod * math.cos(f_ang * t + seg.phase)

    period = 2 * math.pi / abs(f_ang) if f_ang else None
    return replace(model, drives=(Drive(env, models.SIGMA_Z / 2, period_ns=period),))


@dataclass(frozen=True)
class _Binding:
    """What the executor needs of one physics model: per target, the state
    ``initialize`` prepares and the weights ``readout`` puts on populations;
    a segment's model; ``offset``, the Hamiltonian term that an ensemble
    node's detuning offset adds per rad/ns; ODE solver tolerances; for
    four-level physics, the calibrated (drive, resonant Delta_RF) per Rabi
    frequency."""

    initial: dict[str, DensityMatrix]
    readout: dict[str, np.ndarray]
    model: Callable[[PulseSegment], LindbladModel]
    offset: np.ndarray
    solver: dict = field(default_factory=dict)
    calibrated: Callable[[float], tuple[TwoToneDrive, float]] | None = None


def _bind(physics, handedness: str = "sigma-") -> _Binding:
    """The executor binding of a TwoLevelPhysics or a FaradayParams."""
    if isinstance(physics, TwoLevelPhysics):
        eps = physics.epsilon_init
        return _Binding(initial={"down": DensityMatrix.from_populations([1.0 - eps, eps]),
                                 "up": DensityMatrix.from_populations([eps, 1.0 - eps])},
                        readout={t: np.eye(2)[k] for k, t in enumerate(_LEVELS)},
                        model=functools.partial(_segment_model, phys=physics),
                        offset=models.SIGMA_Z / 2)
    if not isinstance(physics, FaradayParams):
        raise UsageError("physics must be TwoLevelPhysics or FaradayParams")
    calibrated = functools.cache(
        lambda omega_mhz: models.calibrate_faraday_drive(physics, omega_mhz, handedness))

    def model(seg: PulseSegment) -> LindbladModel:
        drive, _ = calibrated(seg.omega_mhz)
        drive = replace(drive, delta_rf_ghz=drive.delta_rf_ghz + seg.delta_mhz * 1e-3)
        return models.build_faraday_four_level(physics, drive, handedness)

    # the flipped spin counts the trion weight that relaxes back to |down>
    flip = models.faraday_flip_projector(physics).diagonal().real
    # the offset shifts the electron splitting, which sits on -|up><up|
    return _Binding(initial={"up": DensityMatrix.pure(4, 1)}, readout={"down": flip}, model=model,
                    offset=-np.diag([0.0, 1.0, 0.0, 0.0]), solver={"rtol": 1e-9, "atol": 1e-12},
                    calibrated=calibrated)


def _run_shots(protocol: Protocol, binding: _Binding, sigma: float, nodes: int,
               ideal_pulses: bool) -> np.ndarray:
    """Ensemble-averaged readout of every shot at every scan point, as a
    (points, shots) array.

    The shots are advanced one segment index at a time.  Shots that share a
    prefix share its states, held as one (nodes, d, d) stack; every segment's
    detuning gets the node offset.
    """
    ((name, values),) = protocol.axes
    seqs = [shot.segments for v in values
            for shot in _shots_for(protocol, {name: v}, ideal_pulses)]
    offsets, weights = quadrature_nodes(sigma, nodes) if sigma > 0 else (np.zeros(1), None)
    readout = np.empty((offsets.size, len(seqs)))
    frontier = [(None, list(range(len(seqs))))]  # (states, indices of the shots sharing them)
    depth = 0
    while frontier:
        items = []
        for states, members in frontier:
            split: dict[PulseSegment, list[int]] = {}
            for m in members:
                split.setdefault(seqs[m][depth], []).append(m)
            items += [(states, seg, shared) for seg, shared in split.items()]
        frontier = []
        for (_, seg, shared), out in zip(items, _advance(items, offsets, binding)):
            if seg.kind == "readout":
                readout[:, shared] = out[:, None]
            else:
                frontier.append((out, shared))
        depth += 1
    pops = readout[0] if weights is None else weighted_average(weights, readout)
    return pops.reshape(values.size, -1)


def _advance(items, offsets: np.ndarray, binding: _Binding) -> list[np.ndarray]:
    """Apply each item's segment to its (nodes, d, d) states.

    Rotations are one batched product, guarded as one stack.  A drive or wait
    builds its one model, and propagates the (nodes, d^2, d^2) generator
    stack L(0) + offset * L_offset with that model's drives through
    _propagate.  Without drives, the segments that differ from one another
    only in duration on one shared prefix are stepped over their sorted
    durations in one call, and all other segments of one duration are one
    call over shots x nodes.  With drives, one call per segment runs over the
    union of the items' durations and ends each item's states at its own
    duration; each node's generator builds one table of propagators.
    A readout yields its target's (nodes,) weighted populations.
    """
    out: list = [None] * len(items)
    rotations, evolving = [], {}
    for i, (states, seg, _) in enumerate(items):
        if seg.kind == "initialize":
            out[i] = np.repeat(binding.initial[seg.target].matrix[None], offsets.size, 0)
        elif seg.kind == "readout":
            out[i] = (np.diagonal(states, axis1=1, axis2=2).real * binding.readout[seg.target]).sum(1)
        elif seg.kind == "rotation":
            rotations.append(i)
        elif seg.duration_ns == 0.0:
            out[i] = states
        else:
            evolving.setdefault((id(states), replace(seg, duration_ns=0.0)), []).append(i)

    if rotations:
        us = np.stack([_rotation_unitary(items[i][1].angle, items[i][1].phase) for i in rotations])
        rhos = np.stack([items[i][0] for i in rotations])
        for i, block in zip(rotations, _guard(np.einsum("rij,rnjk,rlk->rnil", us, rhos, us.conj()))):
            out[i] = block

    # per segment: its generator stack over the nodes, and its model's drives
    gens: dict[PulseSegment, tuple[np.ndarray, tuple[Drive, ...]]] = {}
    shift = mhz_to_angular(offsets)[:, None, None] * _commutator_superop(binding.offset)
    for _, seg in evolving:
        if seg not in gens:
            model = binding.model(seg)
            gens[seg] = liouvillian(model) + shift, model.drives

    batches: dict[float, list[tuple]] = {}
    driven: dict[PulseSegment, list[int]] = {}
    for (_, seg), idx in evolving.items():
        stack, drives = gens[seg]
        durations = [items[i][1].duration_ns for i in idx]
        if drives:
            driven.setdefault(seg, []).extend(idx)
        elif len(idx) == 1:
            batches.setdefault(durations[0], []).append((seg, idx[0]))
        else:
            grid = np.array([0.0] + sorted(durations))
            block = _propagate(stack, items[idx[0]][0], grid, **binding.solver)
            for i, k in zip(idx, np.searchsorted(grid, durations)):
                out[i] = block[k]
    for duration, batch in batches.items():
        finals = _propagate(np.concatenate([gens[seg][0] for seg, _ in batch]),
                            np.concatenate([items[i][0] for _, i in batch]),
                            np.array([0.0, duration]), **binding.solver)[-1]
        for k, (_, i) in enumerate(batch):
            out[i] = finals[k * offsets.size:(k + 1) * offsets.size]
    for seg, idx in driven.items():
        stack, drives = gens[seg]
        grid, ends = np.unique([0.0] + [items[i][1].duration_ns for i in idx], return_inverse=True)
        finals = _propagate(np.tile(stack, (len(idx), 1, 1)), np.concatenate([items[i][0] for i in idx]),
                            grid, drives, ends=np.repeat(ends[1:], offsets.size), **binding.solver)
        for k, i in enumerate(idx):
            out[i] = finals[k * offsets.size:(k + 1) * offsets.size]
    return out


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

    ``physics`` is a TwoLevelPhysics (Rabi/Ramsey/echo/ESR/T1 families) or a
    FaradayParams (spin pumping, four-level Rabi).  Four-level Rabi runs the
    shots like the two-level families, on a drive calibrated once (its
    resonant Delta_RF is in ``extras``) and at most 9 ensemble nodes.
    Deterministic for fixed inputs; when ``counts_per_shot`` > 0 a seeded
    generator draws Poisson counts per shot (``seed`` is then required).
    """
    if counts_per_shot > 0 and seed is None:
        raise UsageError("shot-noise sampling requires a seed")
    rng = np.random.default_rng(seed) if counts_per_shot > 0 else None

    if protocol.kind == "polarization_map":
        return ScanResult(protocol.axes, s3_map(protocol.axis("hwp_deg"), protocol.axis("qwp_deg")))
    if protocol.kind == "spin_pumping":
        if not isinstance(physics, FaradayParams):
            raise UsageError("spin pumping requires FaradayParams physics")
        return _simulate_spin_pumping(protocol, physics, handedness)
    if protocol.kind == "rabi_q":
        if not isinstance(physics, TwoLevelPhysics):
            raise UsageError("the intensity-noise Q scan runs on the two-level model")
        return _simulate_rabi_q(protocol, physics, ensemble)

    four_level = isinstance(physics, FaradayParams)
    if four_level and protocol.kind != "rabi":
        raise UsageError(f"four-level physics supports rabi/spin_pumping, not {protocol.kind}")
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
    grid = tgrid if tgrid[0] == 0.0 else np.concatenate([[0.0], tgrid])
    skip = 0 if tgrid[0] == 0.0 else 1
    traj = evolve(model, DensityMatrix.pure(4, 0), grid)
    gamma1_ang = mhz_to_angular(params.gamma1_mhz)
    emission = gamma1_ang * (traj.population(2) + traj.population(3))[skip:]
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
    nodes: int = 21,
) -> models.PiContrast:
    """Pi contrast of the driven two-level model under a static detuning ensemble."""
    if sigma_mhz is None:
        sigma_mhz = gaussian_sigma(t2star_ns) if t2star_ns else 0.0
    binding = _bind(TwoLevelPhysics(gamma1_mhz, gamma2_mhz))
    f_pi = _pi_population(omega_mhz, 0.0, 1e3 / (2 * omega_mhz), binding, sigma_mhz, nodes)
    return models.pi_contrast_and_q(f_pi)


def _pi_population(omega_mhz, delta_mhz, t_pi, binding: _Binding, sigma_mhz, nodes) -> float:
    """Ensemble-averaged readout of one Rabi shot of duration ``t_pi``."""
    shot = rabi_protocol(omega_mhz, delta_mhz, [t_pi])
    return float(_run_shots(shot, binding, sigma_mhz, nodes, False)[0, 0])


def _simulate_rabi_q(protocol, phys: TwoLevelPhysics, ensemble) -> ScanResult:
    omegas = protocol.axis("omega_mhz")
    noises = protocol.axis("di_over_i")
    q = protocol.params
    base_nodes = ensemble.nodes if ensemble is not None else 21
    jitter = ensemble.correlated_rabi_jitter if ensemble is not None else False

    def point(w: float, di: float) -> float:
        gamma1 = q["gamma1_per_omega"] * w
        spec = EnsembleSpec(t2star_ns=q["t2star_ns"], stark_ratio=q["stark_ratio"],
                            omega_mhz=w, di_over_i=di, nodes=base_nodes)
        if jitter and di > 0:
            return _f_pi_with_rabi_jitter(w, gamma1, q["gamma2_mhz"], spec)
        return two_level_pi_contrast(w, gamma1, q["gamma2_mhz"],
                                     sigma_mhz=combined_sigma(spec), nodes=base_nodes).f_pi

    f_pi = np.array([point(float(w), float(di)) for w in omegas for di in noises])
    qual = np.array([models.pi_contrast_and_q(f).q for f in f_pi])
    shape = (omegas.size, noises.size)
    return ScanResult(protocol.axes, qual.reshape(shape), extras={"f_pi": f_pi.reshape(shape)})


def _f_pi_with_rabi_jitter(omega_mhz, gamma1_mhz, gamma2_mhz, spec: EnsembleSpec) -> float:
    """Sensitivity variant: intensity fluctuations co-vary with the Rabi amplitude."""
    t_pi = 1e3 / (2 * omega_mhz)
    eps_nodes, eps_w = quadrature_nodes(spec.di_over_i, 9)
    binding = _bind(TwoLevelPhysics(gamma1_mhz, gamma2_mhz))
    sigma = gaussian_sigma(spec.t2star_ns)
    pops = [_pi_population(omega_mhz * (1.0 + eps), spec.stark_ratio * omega_mhz * eps,
                           t_pi, binding, sigma, spec.nodes) for eps in eps_nodes]
    return float(weighted_average(eps_w, pops))


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
