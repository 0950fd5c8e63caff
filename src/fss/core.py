"""Density matrices, Lindblad dynamics and time evolution for 2-4 level systems.

The master equation solved here is

    drho/dt = -i [H(t), rho] + sum_i g_i (L_i rho L_i^+ - 1/2 {L_i^+ L_i, rho})

with hbar = 1, H in angular rad/ns and channel rates g_i in rad/ns.  Public
rates are quoted as rate/2pi in MHz (see :mod:`fss.units`).

Generators are arrays: ``liouvillian`` builds the vectorized Liouvillian by
broadcasting (no Kronecker products), and models that differ by one
Hamiltonian term x V, such as ensemble nodes or CPT probe frequencies, are
one stack L(0) + x C(V), C(V) the commutator superoperator of V.

There is one propagation function, ``_propagate``, and one input form: a
(B, d^2, d^2) stack of generators plus the drives that all of its members
share.  It advances a (B, d, d) stack of initial states over a shared grid
and returns the states at (grid index, member) pairs, by default all of
them as one (T, B, d, d) array; ``evolve`` (a one-member stack), the
pulse-sequence executor of :mod:`fss.sequences`, spin pumping and the drive
calibration of :mod:`fss.models` go through it.  Without drives the
generator L is constant, and the evolution is exact: one
``scipy.linalg.expm(L dt)`` (scaling and squaring, Al-Mohy & Higham 2009)
per distinct step of the grid, applied step by step and batched over the
stack.

With drives, each distinct generator of the stack goes through one table of
propagators, ``_propagators``, which ``_propagate`` applies to every initial
state that shares it.  The 8th-order Dormand-Prince method (scipy's DOP853,
rtol 2e-9 / atol 1e-11) integrates the propagator ODE dP/dt = L(t) P,
P(t0) = I, over one period T of the drives, with outputs at the residues
(t - t0) mod T of the requested times; a time t0 + kT + tau is then
P(tau) P(T)^k (Floquet stepping; Shirley, Phys. Rev. 138, B979, 1965).
Aperiodic drives (``Drive.period_ns`` None, or drives of different periods)
are the same computation with T infinite: k = 0 and the table spans the
grid.

Every state the package produces passes one positivity guard, ``_guard``,
exactly once, as part of a stack: eigenvalues in [EIGENVALUE_FLOOR, 0) =
[-1e-8, 0) are clamped to zero with the trace renormalized, anything more
negative is a numerical failure.  Exact states stay within about -1e-14 of
zero and states of models with drives within about -1e-9.
``DensityMatrix`` is that guard applied to one matrix; propagated states
are wrapped without a second check.

Steady states have one path too, ``_steady_states``, batched over a stack
of generators; ``steady_state`` is its one-model case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import NumericalFailure, SteadyStateAmbiguityError, UsageError
from .units import mhz_to_angular

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8

# Solver tolerances for the propagator tables of models with drives.  At the
# nominal rtol 1e-8 the most negative pre-clamp eigenvalue of a driven state
# over the tier-1 suite is -4.8e-9, half the positivity floor; at 2e-9 it is
# -5.4e-10 (2,406 states), and -2.5e-10 over the 13 bundled scenarios and the
# pulse-driven benchmark at seed 0 (numpy 2.4.6, scipy 1.17.1).
_RTOL = 2e-9
_ATOL = 1e-11


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
    dev = np.max(np.abs(m - _dagger(m)), initial=0.0)
    if dev > tol:
        raise UsageError(f"{what} is not Hermitian (max deviation {dev:.3e})")


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _guard(rhos, times=None) -> np.ndarray:
    """The one validation of states: a stack (..., d, d) in one pass.

    Returns the stack Hermitian-symmetrized, with eigenvalues in
    [EIGENVALUE_FLOOR, 0) clamped to zero and the trace renormalized.
    Non-finite entries, a trace off by more than TRACE_TOL and an eigenvalue
    below EIGENVALUE_FLOOR raise
    NumericalFailure carrying the time of the first state that fails
    (``times`` broadcasts against the stack's leading shape); a non-Hermitian
    state raises UsageError.
    """
    m = np.asarray(rhos, dtype=complex)

    def check(bad: np.ndarray, message: str, values: np.ndarray | None = None):
        if np.any(bad):
            k = np.flatnonzero(bad)[0]
            t = None if times is None else float(np.broadcast_to(times, bad.shape).flat[k])
            raise NumericalFailure(message.format(None if values is None else values.flat[k]), t)

    check(~np.isfinite(m).all(axis=(-2, -1)), "density matrix has non-finite entries")
    _require_hermitian(m, "density matrix")
    m = 0.5 * (m + _dagger(m))
    off = np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)
    check(off > TRACE_TOL, "density matrix trace deviates from 1 by {:.3e}", off)
    evals, evecs = np.linalg.eigh(m)
    low = evals[..., 0]  # eigh sorts ascending
    check(low < EIGENVALUE_FLOOR, "density matrix has negative eigenvalue {:.3e}", low)
    neg = low < 0.0
    if np.any(neg):
        vecs = evecs[neg]
        clamped = (vecs * np.clip(evals[neg], 0.0, None)[..., None, :]) @ _dagger(vecs)
        m[neg] = clamped / np.trace(clamped, axis1=-2, axis2=-1).real[:, None, None]
    return m


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of a 2-4 level system.

    Small negative eigenvalues (down to EIGENVALUE_FLOOR) are clamped to zero
    with the trace renormalized; anything below the floor is a numerical
    failure (see :func:`_guard`, which every state of the package passes once).
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        dim = _require_square(m, "density matrix")
        if not 2 <= dim <= 4:
            raise UsageError(f"supported level counts are 2-4, got {dim}")
        m = _guard(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def _guarded(cls, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a read-only matrix that :func:`_guard` has already checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dim", matrix.shape[0])
        return self

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

    ``envelope`` returns the complex amplitude in rad/ns.  ``period_ns`` is
    its period, f(t + period) = f(t), or None for an aperiodic envelope.  A
    model whose drives share one period is propagated one period at a time
    (an envelope that does not repeat after it raises UsageError there);
    the shortest period also bounds the integrator step to a tenth of it, so
    oscillating envelopes are never stepped over.
    """

    envelope: Callable[[float], complex]
    operator: np.ndarray
    period_ns: float | None = None

    def __post_init__(self):
        if self.period_ns is not None and not (math.isfinite(self.period_ns) and self.period_ns > 0):
            raise UsageError(f"drive period must be finite and > 0, got {self.period_ns}")
        op = np.asarray(self.operator, dtype=complex)
        _require_square(op, "drive operator")
        _require_finite(op, "drive operator")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)


def _common_period(drives: Sequence[Drive]) -> float | None:
    """The common period of ``drives``; None if any drive is aperiodic or
    their periods differ."""
    periods = {dr.period_ns for dr in drives}
    return periods.pop() if len(periods) == 1 else None


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

    @property
    def period_ns(self) -> float | None:
        """The common period of the drives (see :func:`_common_period`)."""
        return _common_period(self.drives)

    def slowest_rate_angular(self) -> float:
        rates = [ch.rate_angular for ch in self.channels if ch.rate_angular > 0]
        if not rates:
            raise UsageError("model has no dissipative channel")
        return min(rates)


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the state at each point."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]

    def population(self, index: int) -> np.ndarray:
        return np.array([s.population(index) for s in self.states])

    @property
    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def lindblad_rhs(rho, hamiltonian: np.ndarray, channels: Sequence[CollapseChannel]) -> np.ndarray:
    """Right-hand side of the master equation, drho/dt in 1/ns.

    ``rho`` and ``hamiltonian`` may also be (..., d, d) stacks that
    broadcast against each other.  The result is traceless and keeps
    rho + dt * rhs Hermitian to first order.
    """
    r = _as_matrix(rho)
    h = np.asarray(hamiltonian, dtype=complex)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise UsageError(f"rho must be a square matrix or a stack of them, got shape {r.shape}")
    dim = r.shape[-1]
    if h.shape[-2:] != (dim, dim):
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
# Row-major vec, vec(rho)[i d + j] = rho[i, j]: vec(A rho B) = (A (x) B^T) vec(rho),
# where A (x) B is the broadcast product einsum("ik,jl->ijkl", A, B) read as a
# d^2 x d^2 matrix with rows (i, j) and columns (k, l).

def _commutator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [op, rho]."""
    d = op.shape[0]
    eye = np.eye(d)
    gen = np.einsum("ik,jl->ijkl", op, eye) - np.einsum("ik,jl->ijkl", eye, op.T)
    return -1j * gen.reshape(d * d, d * d)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Static part of the vectorized Liouvillian (dim^2 x dim^2).

    With K = -i h0 - 1/2 sum_i g_i L_i^+ L_i it is K (x) I + I (x) conj(K)
    + sum_i g_i L_i (x) conj(L_i), i.e. rho -> K rho + rho K^+ + sum_i g_i
    L_i rho L_i^+.
    """
    d = model.dim
    rates = np.array([ch.rate_angular for ch in model.channels])
    ops = np.array([ch.operator for ch in model.channels]).reshape(-1, d, d)
    k = -1j * model.h0 - 0.5 * np.einsum("c,cki,ckj->ij", rates, ops.conj(), ops)
    eye = np.eye(d)
    gen = (np.einsum("ik,jl->ijkl", k, eye) + np.einsum("ik,jl->ijkl", eye, k.conj())
           + np.einsum("c,cik,cjl->ijkl", rates, ops, ops.conj()))
    return gen.reshape(d * d, d * d)


def _propagate(gens: np.ndarray, rhos, times, drives: Sequence[Drive] = (), max_step: float | None = None,
               rtol: float = _RTOL, atol: float = _ATOL, at=None) -> np.ndarray:
    """States of a (B, d^2, d^2) stack of generators on one shared grid.
    ``gens`` holds static vectorized Liouvillians (as :func:`liouvillian`
    builds them) and ``drives`` the drives that all of them share: member b
    evolves under gens[b] plus the drives' commutator terms from the initial
    state rhos[b] at times[0].

    ``at = (rows, members)`` picks the returned states: grid index rows[...]
    of stack member members[...], the two index arrays broadcasting
    together.  The result has their broadcast shape plus (d, d); the default
    is the whole grid, (arange(T)[:, None], arange(B)[None, :]), a
    (T, B, d, d) array whose first row is ``rhos``.

    The initial states are taken as already guarded; every other returned
    state passes :func:`_guard` once.  Without drives the propagation is
    exact: one expm(L dt) is built per distinct grid step up to the last row
    asked for, and each step advances the whole stack with einsum, which
    keeps these tiny products off threaded BLAS.  With drives, each distinct
    generator of the stack builds one table of :func:`_propagators`, applied
    to all of its initial states.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise UsageError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise UsageError("times must be finite")
    if np.any(np.diff(t) <= 0):
        raise UsageError("times must be strictly increasing")
    gens = np.asarray(gens, dtype=complex)
    dim = math.isqrt(gens.shape[-1]) if gens.ndim == 3 else 0
    if gens.ndim != 3 or gens.shape[1:] != (dim * dim, dim * dim):
        raise UsageError(f"a generator stack must have shape (B, d^2, d^2), got {gens.shape}")
    n = len(gens)
    if len(rhos) != n:
        raise UsageError("need one initial state per generator")
    if any(np.shape(r) != (dim, dim) for r in rhos) or any(dr.operator.shape != (dim, dim) for dr in drives):
        raise UsageError("initial state or drive dimension does not match the generators")
    rows, cols = (np.arange(t.size)[:, None], np.arange(n)[None, :]) if at is None else at
    try:
        rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))
    except ValueError:
        raise UsageError("the grid and member indices of at do not broadcast together") from None
    if np.any((rows < 0) | (rows >= t.size)) or np.any((cols < 0) | (cols >= n)):
        raise UsageError("at must name points on the grid and members of the stack")
    init = np.asarray(rhos, dtype=complex).reshape(n, dim * dim)

    if drives:
        distinct, which = np.unique(gens, axis=0, return_inverse=True)
        tables = np.stack([_propagators(g, drives, t, max_step, rtol, atol) for g in distinct])
        vecs = np.einsum("...ij,...j->...i", tables[which[cols], rows], init[cols])
    else:
        steps, which = np.unique(np.diff(t[:rows.max(initial=0) + 1]), return_inverse=True)
        props = [expm(gens * dt) for dt in steps]
        path = np.empty((which.size + 1, n, dim * dim), dtype=complex)
        path[0] = init
        for k, j in enumerate(which, start=1):
            path[k] = np.einsum("bij,bj->bi", props[j], path[k - 1])
        vecs = path[rows, cols]

    out = vecs.reshape(rows.shape + (dim, dim))
    new = rows > 0
    out[~new] = init[cols[~new]].reshape(-1, dim, dim)
    if new.any():
        out[new] = _guard(out[new], t[rows[new]])
    return out


def _propagators(gen: np.ndarray, drives: Sequence[Drive], t: np.ndarray, max_step: float | None = None,
                 rtol: float = _RTOL, atol: float = _ATOL) -> np.ndarray:
    """Propagators P(t_k, t_0) of the static generator ``gen`` (d^2 x d^2)
    plus the commutator terms of ``drives`` on the increasing grid ``t``, as
    a (T, d^2, d^2) array acting on row-major vectorized states.

    DOP853 integrates dP/dt = L(t) P from P(t0) = I over one common period T
    of the drives, with outputs at the sorted residues tau = (t - t0) mod T
    (and at T itself if the grid runs past it); a time t0 + kT + tau is then
    P(tau) P(T)^k, with each distinct power taken once; before folding, a
    drive whose envelope does not repeat after T raises UsageError.
    Aperiodic drives have T = inf, so k = 0 and the table runs to the last
    time.  ``max_step`` defaults to a tenth of the shortest drive period.

    The integration runs in the frame that rotates with the imaginary part
    of the generator's diagonal, P(t) = exp(D s) Q(s) with s = t - t0 and
    D = i Im diag(gen).  With real jump operators, as in every model of this
    package, D is the commutator superoperator of the static Hamiltonian's
    diagonal: Q then carries no phase of levels the drives leave uncoupled,
    such as the far-detuned trion of the four-level model, which would
    otherwise set the step size.
    """
    n2 = gen.shape[0]
    rates = 1j * gen.diagonal().imag
    L0 = gen - np.diag(rates)
    drive_terms = [
        (dr.envelope, _commutator_superop(dr.operator), _commutator_superop(dr.operator.conj().T))
        for dr in drives
    ]

    def rhs(tt, y):
        lt = L0.copy()
        for env, c_op, c_opd in drive_terms:
            f = env(tt)
            lt += f * c_op + np.conj(f) * c_opd
        phase = np.exp(rates * (tt - t[0]))
        return ((lt * phase) / phase[:, None] @ y.reshape(n2, n2)).reshape(-1)

    if max_step is None:
        periods = [dr.period_ns for dr in drives if dr.period_ns is not None]
        max_step = min(periods) / 10.0 if periods else np.inf

    period = _common_period(drives) or np.inf
    k, tau = np.divmod(t - t[0], period)
    if k[-1]:
        _require_periodic(drives, t[0], period)
    # the grid increases, so all k are 0 exactly when the last one is
    taus, which = np.unique(np.append(tau, period if k[-1] else tau[-1]), return_inverse=True)
    table = np.broadcast_to(np.eye(n2, dtype=complex), (taus.size, n2, n2))
    if taus[-1] > 0:
        sol = solve_ivp(
            rhs,
            (t[0], t[0] + taus[-1]),
            np.eye(n2, dtype=complex).reshape(-1),
            method="DOP853",
            t_eval=t[0] + taus,
            rtol=rtol,
            atol=atol,
            max_step=max_step,
        )
        if not sol.success:
            t_fail = float(sol.t[-1]) if sol.t.size else float(t[0])
            raise NumericalFailure(f"integrator failed: {sol.message}", time_ns=t_fail)
        table = np.exp(np.outer(taus, rates))[..., None] * sol.y.T.reshape(taus.size, n2, n2)
    powers, k_of = np.unique(k.astype(int), return_inverse=True)
    cycles = np.stack([np.linalg.matrix_power(table[-1], p) for p in powers])
    return table[which[:-1]] @ cycles[k_of]


def _require_periodic(drives: Sequence[Drive], t0: float, period: float):
    """Folding takes f(t + T) = f(t) on trust; check it at a few points of
    the first period.  Rounding of the drives' phases grows with t/T, hence
    the tolerance's (1 + |t0|/T)."""
    s = t0 + period * np.array([0.0, 0.23, 0.58, 0.91])
    tol = 1e-12 * (1.0 + abs(t0) / period)
    for dr in drives:
        f = np.array([dr.envelope(x) for x in s])
        dev = np.max(np.abs(np.array([dr.envelope(x + period) for x in s]) - f))
        if dev > tol * np.max(np.abs(f)):
            raise UsageError(f"drive envelope does not repeat with period_ns={period}: "
                             f"|f(t + T) - f(t)| reaches {dev:.3e}")


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    times: Sequence[float],
    max_step: float | None = None,
    rtol: float = _RTOL,
    atol: float = _ATOL,
) -> Trajectory:
    """Evolve the master equation, returning the state on the given grid.

    ``times`` must be strictly increasing with times[0] the initial time, and
    ``states[0]`` is ``rho0`` itself.  A model without drives is propagated
    exactly; ``max_step``, ``rtol`` and ``atol`` apply only to models with
    drives, whose one-period propagator DOP853 integrates.  Every later state
    passes the positivity guard once.  Deterministic for fixed inputs.
    """
    t = np.asarray(times, dtype=float)
    states = _propagate(liouvillian(model)[None], [rho0.matrix], t, model.drives, max_step, rtol, atol)
    states.setflags(write=False)
    return Trajectory(times=t, states=(rho0,) + tuple(map(DensityMatrix._guarded, states[1:, 0])))


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
    """Unique stationary state of a time-independent dissipative model: the
    one-member batch of :func:`_steady_states`.

    A null space of dimension > 1 raises :class:`SteadyStateAmbiguityError`.
    """
    if model.time_dependent:
        raise UsageError("steady_state requires a time-independent Hamiltonian")
    model.slowest_rate_angular()  # raises if there is no dissipative channel
    rho = _steady_states(liouvillian(model)[None], model.h0[None], model.channels)[0]
    rho.setflags(write=False)
    return DensityMatrix._guarded(rho)


def _steady_states(gens: np.ndarray, hamiltonians: np.ndarray, channels: Sequence[CollapseChannel],
                   where: Callable[[int], str] = "batch index {}".format) -> np.ndarray:
    """Stationary states of a (B, d^2, d^2) stack of static generators, as a
    guarded (B, d, d) array: one batched SVD (a singular value below 1e-12 of
    the largest counts as zero), one batched solve with the trace row in
    place of each generator's first row, and one residual check by
    :func:`lindblad_rhs` from the (B, d, d) ``hamiltonians`` and shared
    ``channels``, independent of the generators solved.  A degenerate null
    space raises SteadyStateAmbiguityError and a residual above
    STEADY_STATE_RESIDUAL_TOL NumericalFailure, naming the first failing
    member as ``where(index)``.
    """
    b, n2 = gens.shape[:2]
    n = math.isqrt(n2)
    sv = np.linalg.svd(gens, compute_uv=False)
    null_dim = np.sum(sv < 1e-12 * sv[:, :1], axis=1)
    if np.any(null_dim > 1):
        k = int(np.argmax(null_dim > 1))
        raise SteadyStateAmbiguityError(int(null_dim[k]), where(k))

    a = np.array(gens)
    a[:, 0, :] = np.eye(n).reshape(-1)
    rhs = np.zeros((b, n2, 1), dtype=complex)
    rhs[:, 0] = 1.0
    rho = np.linalg.solve(a, rhs).reshape(b, n, n)
    rho = 0.5 * (rho + _dagger(rho))
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]

    residual = np.max(np.abs(lindblad_rhs(rho, hamiltonians, channels)), axis=(-2, -1))
    if np.any(residual > STEADY_STATE_RESIDUAL_TOL):
        k = int(np.argmax(residual > STEADY_STATE_RESIDUAL_TOL))
        raise NumericalFailure(f"steady-state residual {residual[k]:.3e} exceeds tolerance at {where(k)}")
    return _guard(rho)
