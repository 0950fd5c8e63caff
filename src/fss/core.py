"""Density matrices, Lindblad dynamics and time evolution for 2-4 level systems.

The master equation solved here is

    drho/dt = -i [H(t), rho] + sum_i g_i (L_i rho L_i^+ - 1/2 {L_i^+ L_i, rho})

with hbar = 1, H in angular rad/ns and channel rates g_i in rad/ns.  Public
rates are quoted as rate/2pi in MHz (see :mod:`fss.units`).

A model without drives has a constant vectorized Liouvillian L, and its
evolution is exact: one ``scipy.linalg.expm(L dt)`` (scaling and squaring,
Al-Mohy & Higham 2009) per distinct step of the time grid, applied step by
step and batched over models.  Only models with drives, such as the two-tone
envelopes of the four-level model, are integrated numerically, with scipy's
adaptive RK45 at rtol 2e-9 / atol 1e-11.  States returned to the caller pass
a positivity guard: eigenvalues in [floor, 0) are clamped to zero with the
trace renormalized, anything more negative is a numerical failure.  The floor
is -1e-8 (exact states stay within about -1e-14 of zero), widened to -1e-7 for
RK45 states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import NumericalFailure, SteadyStateAmbiguityError, UsageError
from .units import mhz_to_angular

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8

# RK45 tolerances for models with drives.  Slightly tighter than the nominal
# rtol 1e-8 / atol 1e-10: error at the nominal setting random-walks right up
# to the -1e-8 positivity floor on long pure-state evolutions and spuriously
# trips the guard.
_RTOL = 2e-9
_ATOL = 1e-11

# RK45 drift on multi-hundred-ns pure-state evolutions can push the zero
# eigenvalue a few 1e-8 negative; clamp up to this before failing.
_EVOLUTION_EIG_FLOOR = -1e-7


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def _require_square(m: np.ndarray, what: str) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UsageError(f"{what} must be a square matrix, got shape {m.shape}")
    return m.shape[0]


def _require_finite(m, what: str):
    if not np.all(np.isfinite(m)):
        raise UsageError(f"{what} has non-finite entries")


def _require_hermitian(m: np.ndarray, what: str, tol: float = HERMITICITY_TOL):
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol:
        raise UsageError(f"{what} is not Hermitian (max deviation {dev:.3e})")


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of a 2-4 level system.

    Small negative eigenvalues (down to ``floor``) are clamped to zero with
    the trace renormalized; anything below the floor is a numerical failure.
    RK45 states get a wider floor than direct construction uses, since
    integration drift accumulates over long evolutions; returned states are
    exactly positive either way.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix, *, time_ns: float | None = None, floor: float = EIGENVALUE_FLOOR):
        m = np.array(matrix, dtype=complex)
        dim = _require_square(m, "density matrix")
        if not 2 <= dim <= 4:
            raise UsageError(f"supported level counts are 2-4, got {dim}")
        if not np.all(np.isfinite(m)):
            raise NumericalFailure("density matrix has non-finite entries", time_ns)
        _require_hermitian(m, "density matrix")
        m = 0.5 * (m + m.conj().T)
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise NumericalFailure(
                f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}", time_ns
            )
        evals, evecs = np.linalg.eigh(m)
        if evals.min() < floor:
            raise NumericalFailure(
                f"density matrix has negative eigenvalue {evals.min():.3e}", time_ns
            )
        if evals.min() < 0.0:
            evals = np.clip(evals, 0.0, None)
            m = (evecs * evals) @ evecs.conj().T
            m /= m.trace().real
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def pure(cls, dim: int, index: int) -> "DensityMatrix":
        """Projector onto basis level ``index``."""
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def from_populations(cls, populations: Sequence[float]) -> "DensityMatrix":
        return cls(np.diag(np.asarray(populations, dtype=float)).astype(complex))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def population(self, index: int) -> float:
        return self.matrix[index, index].real

    def coherence(self, i: int, j: int) -> complex:
        return self.matrix[i, j]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, diag={np.real(np.diag(self.matrix))})"


@dataclass(frozen=True)
class CollapseChannel:
    """One Lindblad dissipation channel.

    ``rate_mhz`` is the channel weight quoted as rate/2pi in MHz; the jump
    operator is dimensionless.  Use :func:`fss.units.rate_mhz_from_lifetime`
    to convert literature lifetimes.
    """

    rate_mhz: float
    operator: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.rate_mhz) and self.rate_mhz >= 0):
            raise UsageError(f"channel rate must be finite and >= 0, got {self.rate_mhz}")
        op = np.asarray(self.operator, dtype=complex)
        _require_square(op, "jump operator")
        _require_finite(op, "jump operator")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)

    @property
    def rate_angular(self) -> float:
        return mhz_to_angular(self.rate_mhz)


@dataclass(frozen=True)
class Drive:
    """Time-dependent Hamiltonian term f(t) * op + conj(f(t)) * op^+.

    ``envelope`` returns the complex amplitude in rad/ns; ``frequency_scale``
    is the fastest angular frequency in the envelope (rad/ns), used to bound
    the integrator step so oscillating envelopes are never stepped over.
    """

    envelope: Callable[[float], complex]
    operator: np.ndarray
    frequency_scale: float = 0.0

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        _require_square(op, "drive operator")
        _require_finite(op, "drive operator")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)


@dataclass(frozen=True)
class LindbladModel:
    """Static Hamiltonian + drives + collapse channels over labelled levels."""

    dim: int
    h0: np.ndarray
    channels: tuple[CollapseChannel, ...] = ()
    drives: tuple[Drive, ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        if _require_square(h0, "Hamiltonian") != self.dim:
            raise UsageError("Hamiltonian dimension does not match model dim")
        _require_finite(h0, "static Hamiltonian")
        _require_hermitian(h0, "static Hamiltonian", tol=1e-12)
        h0.setflags(write=False)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "drives", tuple(self.drives))
        for ch in self.channels:
            if ch.operator.shape[0] != self.dim:
                raise UsageError("channel operator dimension mismatch")
        for dr in self.drives:
            if dr.operator.shape[0] != self.dim:
                raise UsageError("drive operator dimension mismatch")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(self.dim)))
        elif len(self.labels) != self.dim:
            raise UsageError("need one label per level")

    def hamiltonian(self, t: float) -> np.ndarray:
        """Full Hermitian Hamiltonian at time t (rad/ns)."""
        h = np.array(self.h0)
        for dr in self.drives:
            f = dr.envelope(t)
            h += f * dr.operator + np.conj(f) * dr.operator.conj().T
        return h

    @property
    def time_dependent(self) -> bool:
        return bool(self.drives)

    def level_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UsageError(f"unknown level label {label!r}; have {self.labels}") from None

    def slowest_rate_angular(self) -> float:
        rates = [ch.rate_angular for ch in self.channels if ch.rate_angular > 0]
        if not rates:
            raise UsageError("model has no dissipative channel")
        return min(rates)


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the state (and optional expectation values) at each point."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    values: dict[str, np.ndarray] = field(default_factory=dict)

    def population(self, index: int) -> np.ndarray:
        return np.array([s.population(index) for s in self.states])

    def expectations(self, observable: np.ndarray) -> np.ndarray:
        return np.array([expectation(s, observable) for s in self.states])

    @property
    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def lindblad_rhs(rho, hamiltonian: np.ndarray, channels: Sequence[CollapseChannel]) -> np.ndarray:
    """Right-hand side of the master equation, drho/dt in 1/ns.

    The result is traceless and keeps rho + dt * rhs Hermitian to first order.
    """
    r = _as_matrix(rho)
    h = np.asarray(hamiltonian, dtype=complex)
    dim = _require_square(r, "rho")
    if _require_square(h, "Hamiltonian") != dim:
        raise UsageError("rho and Hamiltonian dimensions differ")
    _require_hermitian(h, "Hamiltonian")
    out = -1j * (h @ r - r @ h)
    for ch in channels:
        if ch.operator.shape[0] != dim:
            raise UsageError("channel operator dimension mismatch")
        g = ch.rate_angular
        if g == 0.0:
            continue
        L = ch.operator
        LdL = L.conj().T @ L
        out += g * (L @ r @ L.conj().T - 0.5 * (LdL @ r + r @ LdL))
    return out


# --- vectorized Liouvillian -------------------------------------------------
#
# Row-major vec: vec(A rho B) = kron(A, B.T) vec(rho).

def _commutator_superop(op: np.ndarray) -> np.ndarray:
    dim = op.shape[0]
    eye = np.eye(dim)
    return -1j * (np.kron(op, eye) - np.kron(eye, op.T))


def _dissipator_superop(op: np.ndarray) -> np.ndarray:
    dim = op.shape[0]
    eye = np.eye(dim)
    LdL = op.conj().T @ op
    return (
        np.kron(op, op.conj())
        - 0.5 * np.kron(LdL, eye)
        - 0.5 * np.kron(eye, LdL.T)
    )


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Static part of the vectorized Liouvillian (dim^2 x dim^2)."""
    L = _commutator_superop(model.h0)
    for ch in model.channels:
        g = ch.rate_angular
        if g > 0:
            L += g * _dissipator_superop(ch.operator)
    return L


def _checked_grid(times, models, rho0s) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise UsageError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise UsageError("times must be finite")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise UsageError("times must be strictly increasing")
    if len(models) != len(rho0s):
        raise UsageError("need one initial state per model")
    if any(r.dim != m.dim for m, r in zip(models, rho0s)):
        raise UsageError("initial state dimension does not match model")
    return t


def _propagate_static(models, rho0s, t: np.ndarray) -> list[tuple[DensityMatrix, ...]]:
    """Exact states of time-independent models on a shared grid.

    The Liouvillians are stacked as (B, n, n) and one expm(L dt) is built per
    distinct grid step; each step then advances the whole batch with einsum,
    which keeps these tiny products off threaded BLAS.
    """
    if len({m.dim for m in models}) > 1:
        raise UsageError("batched models must share a dimension")
    dim = models[0].dim
    gens = np.stack([liouvillian(m) for m in models])
    steps, which = np.unique(np.diff(t), return_inverse=True)
    props = [expm(gens * dt) for dt in steps]
    vecs = np.empty((t.size, len(models), dim * dim), dtype=complex)
    vecs[0] = np.stack([r.matrix.reshape(-1) for r in rho0s])
    for k, j in enumerate(which, start=1):
        vecs[k] = np.einsum("bij,bj->bi", props[j], vecs[k - 1])
    mats = vecs.reshape(t.size, len(models), dim, dim)
    return [
        (rho0,) + tuple(DensityMatrix(mats[k, b], time_ns=float(t[k])) for k in range(1, t.size))
        for b, rho0 in enumerate(rho0s)
    ]


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    times: Sequence[float],
    observables: dict[str, np.ndarray] | None = None,
    max_step: float | None = None,
    rtol: float = _RTOL,
    atol: float = _ATOL,
) -> Trajectory:
    """Evolve the master equation, returning the state on the given grid.

    ``times`` must be strictly increasing with times[0] the initial time.
    A model without drives is propagated exactly; ``max_step``, ``rtol`` and
    ``atol`` apply only to models with drives, which RK45 integrates.
    Deterministic for fixed inputs.
    """
    t = _checked_grid(times, [model], [rho0])
    if not model.time_dependent:
        states = _propagate_static([model], [rho0], t)[0]
        return Trajectory(times=t, states=states, values=_traj_values(states, observables))
    if t.size == 1:
        return Trajectory(times=t, states=(rho0,), values=_traj_values([rho0], observables))

    L0 = liouvillian(model)
    drive_terms = [
        (dr.envelope, _commutator_superop(dr.operator), _commutator_superop(dr.operator.conj().T))
        for dr in model.drives
    ]

    def rhs(tt, y):
        dy = L0 @ y
        for env, c_op, c_opd in drive_terms:
            f = env(tt)
            dy += f * (c_op @ y) + np.conj(f) * (c_opd @ y)
        return dy

    if max_step is None:
        freq = max(dr.frequency_scale for dr in model.drives)
        max_step = (2 * np.pi / freq) / 10.0 if freq > 0 else np.inf

    sol = solve_ivp(
        rhs,
        (t[0], t[-1]),
        rho0.matrix.reshape(-1),
        method="RK45",
        t_eval=t,
        rtol=rtol,
        atol=atol,
        max_step=max_step,
    )
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else float(t[0])
        raise NumericalFailure(f"integrator failed: {sol.message}", time_ns=t_fail)

    states = []
    for k in range(sol.y.shape[1]):
        m = sol.y[:, k].reshape(model.dim, model.dim)
        states.append(DensityMatrix(m, time_ns=float(sol.t[k]), floor=_EVOLUTION_EIG_FLOOR))
    return Trajectory(times=t, states=tuple(states), values=_traj_values(states, observables))


def _traj_values(states, observables):
    if not observables:
        return {}
    return {
        name: np.array([expectation(s, op) for s in states])
        for name, op in observables.items()
    }


def evolve_batch(
    models: Sequence[LindbladModel],
    rho0s: Sequence[DensityMatrix],
    times: Sequence[float],
    rtol: float = _RTOL,
    atol: float = _ATOL,
) -> list[Trajectory]:
    """Evolve several independent models on one shared time grid.

    Equivalent to calling :func:`evolve` per model.  Time-independent models
    of one dimension are propagated together, with each distinct step's
    propagator built once for the whole batch; used by the scan loops where
    many small static systems share a grid.  If any model has drives, every
    model gets its own :func:`evolve` call, and ``rtol``/``atol`` apply to the
    RK45 integration of those with drives.
    """
    t = _checked_grid(times, models, rho0s)
    if any(m.time_dependent for m in models):
        return [evolve(m, r, t, rtol=rtol, atol=atol) for m, r in zip(models, rho0s)]
    if not models:
        return []
    return [Trajectory(times=t, states=s) for s in _propagate_static(models, rho0s, t)]


def expectation(rho, observable: np.ndarray) -> float:
    """Tr(rho O) for a Hermitian observable; the tiny imaginary residue is checked and dropped."""
    r = _as_matrix(rho)
    o = np.asarray(observable, dtype=complex)
    dim = _require_square(r, "rho")
    if _require_square(o, "observable") != dim:
        raise UsageError("rho and observable dimensions differ")
    _require_hermitian(o, "observable")
    val = np.trace(r @ o)
    if abs(val.imag) > 1e-10:
        raise NumericalFailure(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


STEADY_STATE_RESIDUAL_TOL = 1e-10


def steady_state(model: LindbladModel) -> DensityMatrix:
    """Unique stationary state of a time-independent dissipative model.

    Solves the vectorized null-space problem with the trace constraint
    replacing one row (dense LU; exact and cheap for dim <= 4).  A null
    space of dimension > 1 raises :class:`SteadyStateAmbiguityError`.
    """
    if model.time_dependent:
        raise UsageError("steady_state requires a time-independent Hamiltonian")
    model.slowest_rate_angular()  # raises if there is no dissipative channel

    L = liouvillian(model)
    n = model.dim
    sv = np.linalg.svd(L, compute_uv=False)
    tol = max(L.shape) * np.finfo(float).eps * sv[0]
    null_dim = int(np.sum(sv < max(tol, 1e-12 * sv[0])))
    if null_dim > 1:
        raise SteadyStateAmbiguityError(null_dim)

    A = np.array(L)
    b = np.zeros(n * n, dtype=complex)
    trace_row = np.eye(n, dtype=complex).reshape(-1)
    A[0, :] = trace_row
    b[0] = 1.0
    vec = np.linalg.solve(A, b)
    rho = vec.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real

    residual = np.max(np.abs(lindblad_rhs(rho, model.h0, model.channels)))
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise NumericalFailure(f"steady-state residual {residual:.3e} exceeds tolerance")
    return DensityMatrix(rho)
