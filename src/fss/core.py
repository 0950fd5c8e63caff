"""Density matrices, Lindblad dynamics and time evolution for 2-4 level systems.

The master equation solved here is

    drho/dt = -i [H(t), rho] + sum_i g_i (L_i rho L_i^+ - 1/2 {L_i^+ L_i, rho})

with hbar = 1, H in angular rad/ns and channel rates g_i in rad/ns.  Public
rates are quoted as rate/2pi in MHz (see :mod:`fss.units`).

Generators and states have one form each, real on the coordinates of a
basis of Hermitian matrices (``_hermitian_basis``): d^2 x d^2 superoperators,
built once, and d^2 vectors with populations x[..., ::d + 1].  ``liouvillian``
is the sum of ``_commutator_superop`` and ``_dissipator_superop``, and
models that differ by one Hamiltonian term x V, such as ensemble nodes or
CPT probe frequencies, are one stack L(0) + x C(V), C(V) the commutator
superoperator of V.

There is one propagation function, ``_propagate``, and one input form: a
(B, d^2, d^2) stack of generators plus the drives that all of its members
share.  It advances a (B, d^2) stack of initial states over a shared grid
and returns the states at (grid index, member) pairs, by default all of
them as one (T, B, d^2) array; ``evolve`` (a one-member stack), the
pulse-sequence executor of :mod:`fss.sequences`, spin pumping and the drive
calibration of :mod:`fss.models` go through it, in float64.  Without drives
the generator L is constant, and the evolution is exact: one exponential
exp(L dt) of the whole stack per distinct step of the grid, ``_expm``
(Padé-13 scaling and squaring, Higham, SIAM J. Matrix Anal. Appl. 26, 1179,
2005, with one scaling for the stack), applied step by step.

With drives, each distinct generator of the stack goes through one table of
propagators, ``_propagators``, which ``_propagate`` applies to every initial
state that shares it.  The table holds the propagators P(t0 + tau, t0) over
one period T of the drives, at the residues tau = (t - t0) mod T of the
requested times; a time t0 + kT + tau is then P(tau) P(T)^k (Floquet
stepping; Shirley, Phys. Rev. 138, B979, 1965).  Aperiodic drives
(``Drive.period_ns`` None, or drives of different periods) are the same
computation with T infinite: k = 0 and the table spans the grid.  ``_cfm4``
builds each table as products of exponentials, with the fourth-order
commutator-free Magnus integrator: two exponentials per step, all steps of
a grid in one ``_expm`` call, the step count doubled until two grids agree
and the last two grids extrapolated to sixth order.  Every exponent is a
Lindblad generator, so every step is completely positive and trace
preserving.

Every state the package produces passes one positivity guard, ``_guard``,
exactly once, as part of a stack of coordinates: eigenvalues in
[EIGENVALUE_FLOOR, 0) = [-1e-8, 0) are clamped to zero with the trace
renormalized, anything more negative is a numerical failure.  Only the
states it clamps are diagonalized; the others need only their lowest
eigenvalue.  Exact states stay within about -1e-14 of zero and states of
models with drives within about -4e-14 (see _CFM4_TOL).  ``DensityMatrix``
checks states from outside, and ``evolve`` and ``steady_state`` return d x d
matrices (``_matrices``); propagated states are not checked twice.

Steady states have one path too, ``_steady_states``, batched over a stack
of generators and solved in float64; ``steady_state`` is its one-model case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalFailure, SteadyStateAmbiguityError, UsageError
from .units import mhz_to_angular

# Checks only outside input (DensityMatrix, Hamiltonians, observables); inner
# states are coordinates, and were within |rho - rho^+| <= 1.2e-16 as matrices.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8


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
        raise UsageError(f"{what} must be finite")


def _require_finite_fields(record) -> None:
    """Raise UsageError naming each field of the dataclass ``record`` that is not finite."""
    bad = [f.name for f in fields(record) if not math.isfinite(getattr(record, f.name))]
    if bad:
        raise UsageError(f"{type(record).__name__}.{', '.join(bad)} must be finite")


def _require_hermitian(m: np.ndarray, what: str, tol: float = HERMITICITY_TOL) -> None:
    """Raise UsageError unless ``m`` lies within ``tol`` of its conjugate transpose."""
    dev = np.max(np.abs(m - _dagger(m)), initial=0.0)
    if dev > tol:
        raise UsageError(f"{what} is not Hermitian (max deviation {dev:.3e})")


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _guard(x, times=None) -> np.ndarray:
    """The one validation of states: a stack (..., d^2) of coordinates in one pass.

    Returns the stack with eigenvalues in [EIGENVALUE_FLOOR, 0) clamped to
    zero and the trace (the sum of the populations) renormalized.  Non-finite
    entries, a trace off by more than TRACE_TOL and an eigenvalue below
    EIGENVALUE_FLOOR raise NumericalFailure carrying the time of the first
    state that fails (``times`` broadcasts against the stack's leading shape).

    Only the states whose lowest eigenvalue (:func:`_lowest_eigenvalues`)
    is below zero are rebuilt.  A clamped 2 x 2 state (a, 2 Re b, 2 Im b, c)
    of [[a, b], [b*, c]] is the projector onto its upper eigenvector,
    (r + h, 2 Re b, 2 Im b, r - h) / 2r with h = (a - c)/2 and
    r = hypot(h, |b|); a larger one is rebuilt from ``eigh`` of its matrix,
    with the eigenvalues clipped.
    """
    d = math.isqrt(x.shape[-1])

    def check(bad: np.ndarray, message: str, values: np.ndarray | None = None):
        if np.any(bad):
            k = np.flatnonzero(bad)[0]
            t = None if times is None else float(np.broadcast_to(times, bad.shape).flat[k])
            raise NumericalFailure(message.format(None if values is None else values.flat[k]), t)

    check(~np.isfinite(x).all(axis=-1), "density matrix has non-finite entries")
    off = np.abs(x[..., ::d + 1].sum(axis=-1) - 1.0)
    check(off > TRACE_TOL, "density matrix trace deviates from 1 by {:.3e}", off)
    low = _lowest_eigenvalues(x)
    check(low < EIGENVALUE_FLOOR, "density matrix has negative eigenvalue {:.3e}", low)
    neg = low < 0.0
    if not np.any(neg):
        return x
    x, p = x.copy(), x[neg]
    if d == 2:
        h = 0.5 * (p[:, 0] - p[:, 3])
        r = np.hypot(h, 0.5 * np.hypot(p[:, 1], p[:, 2]))
        x[neg] = np.column_stack([r + h, p[:, 1], p[:, 2], r - h]) / (2 * r)[:, None]
    else:
        evals, vecs = np.linalg.eigh(_matrices(p))
        clamped = _coords((vecs * np.clip(evals, 0.0, None)[..., None, :]) @ _dagger(vecs))
        x[neg] = clamped / clamped[:, ::d + 1].sum(axis=-1, keepdims=True)
    return x


def _lowest_eigenvalues(x: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each state of a (..., d^2) stack of coordinates:
    for d = 2 the closed form (a + c)/2 - hypot((a - c)/2, |b|) of the
    state (a, 2 Re b, 2 Im b, c), otherwise ``eigvalsh`` of the matrices."""
    if x.shape[-1] == 4:
        a, c = x[..., 0], x[..., 3]
        return 0.5 * (a + c) - np.hypot(0.5 * (a - c), 0.5 * np.hypot(x[..., 1], x[..., 2]))
    return np.linalg.eigvalsh(_matrices(x))[..., 0]  # ascending


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of a 2-4 level system.

    Non-finite entries are a numerical failure, a non-Hermitian matrix a
    usage error; eigenvalues in [EIGENVALUE_FLOOR, 0) are clamped to zero
    with the trace renormalized, lower ones fail (see :func:`_guard`).
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        dim = _require_square(m, "density matrix")
        if not 2 <= dim <= 4:
            raise UsageError(f"supported level counts are 2-4, got {dim}")
        if not np.isfinite(m).all():  # before m - m^+, which would warn on inf - inf
            raise NumericalFailure("density matrix has non-finite entries")
        _require_hermitian(m, "density matrix")
        m = _matrices(_guard(_coords(m)))
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
    (an envelope that does not repeat after it raises UsageError there).
    The integrator calls the envelope at two points of every step, and step
    doubling, not the period, sets the step (see :func:`_cfm4`).
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
    rho + dt * rhs Hermitian to first order.  The channels enter as one
    stack of sqrt(g) L: the jump terms g L rho L^+ of all channels are one
    d^2 x d^2 superoperator, applied to the whole state stack by one matrix
    product, and the anticommutator terms share one sum of g L^+ L.
    """
    r = _as_matrix(rho)
    h = np.asarray(hamiltonian, dtype=complex)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise UsageError(f"rho must be a square matrix or a stack of them, got shape {r.shape}")
    dim = r.shape[-1]
    if h.shape[-2:] != (dim, dim):
        raise UsageError("rho and Hamiltonian dimensions differ")
    _require_hermitian(h, "Hamiltonian")
    if any(ch.operator.shape[0] != dim for ch in channels):
        raise UsageError("channel operator dimension mismatch")
    out = -1j * (h @ r - r @ h)
    if channels:
        ops = np.stack([math.sqrt(ch.rate_angular) * ch.operator for ch in channels])  # sqrt(g) L
        decay = np.einsum("cji,cjk->ik", ops.conj(), ops)
        # vec(rho) @ jumps = vec(sum of g L rho L^+), with the row-major vec below
        jumps = np.einsum("cij,clk->jkil", ops, ops.conj()).reshape(dim * dim, dim * dim)
        out += (r.reshape(*r.shape[:-2], dim * dim) @ jumps).reshape(r.shape) - 0.5 * (decay @ r + r @ decay)
    return out


# --- superoperators ---------------------------------------------------------
#
# A superoperator is real on the coordinates of _hermitian_basis (the coherence
# vector of Alicki & Lendi, Lect. Notes Phys. 717, 2007).  It is written out on
# row-major vec(rho)[i d + j] = rho[i, j], where vec(A rho B) = (A (x) B^T) vec(rho)
# and A (x) B is einsum("ik,jl->ijkl", A, B) with rows (i, j) and columns (k, l),
# and mapped to the coordinates once, as it is built.

@functools.cache
def _hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The map of row-major vectorized d x d matrices to their coordinates
    Tr(B rho) in the Hermitian basis E_ii, E_ij + E_ji and i (E_ij - E_ji)
    (i < j), and its inverse.  A Hermitian rho has the real coordinates
    rho_ii at row-major position (i, i), 2 Re rho_ij at (i, j) and 2 Im
    rho_ij at (j, i), and a superoperator that keeps matrices Hermitian,
    such as every Lindblad generator, is real in this basis.  The entries of
    both maps are 0, 1/2 and 1 times powers of i, so the identity maps to
    the identity exactly, and real coordinates map back to exactly
    Hermitian matrices."""
    rows = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        rows[i, i, i, i] = 1.0
        for j in range(i + 1, d):
            rows[i, j, i, j] = rows[i, j, j, i] = 1.0
            rows[j, i, i, j], rows[j, i, j, i] = -1j, 1j
    basis = rows.reshape(d * d, d * d)
    return basis, basis.conj().T / (basis * basis.conj()).real.sum(axis=1)


def _coords(m: np.ndarray) -> np.ndarray:
    """Real (..., d^2) coordinates of the Hermitian parts of (..., d, d) matrices."""
    return (m.reshape(m.shape[:-2] + (m.shape[-1] ** 2,)) @ _hermitian_basis(m.shape[-1])[0].T).real


def _matrices(x: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (..., d, d) matrices of real (..., d^2) coordinates."""
    d = math.isqrt(x.shape[-1])
    return (x @ _hermitian_basis(d)[1].T).reshape(x.shape[:-1] + (d, d))


def _commutator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [op, rho] for a Hermitian op, or one per
    matrix of a (..., d, d) stack of them."""
    d = op.shape[-1]
    eye = np.eye(d)
    gen = np.einsum("...ik,jl->...ijkl", op, eye) - np.einsum("ik,...lj->...ijkl", eye, op)
    basis, inverse = _hermitian_basis(d)
    # -i X is real in the coordinates, so it is the imaginary part of X there
    return (basis @ gen.reshape(op.shape[:-2] + (d * d, d * d)) @ inverse).imag


def _dissipator_superop(ops: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> sum_c L_c rho L_c^+ - 1/2 {L_c^+ L_c, rho}
    over a (C, d, d) stack of jump operators L_c, or of one (d, d) operator."""
    d = ops.shape[-1]
    ops = ops.reshape(-1, d, d)
    eye, n = np.eye(d), np.einsum("cki,ckj->ij", ops.conj(), ops)
    gen = (np.einsum("cik,cjl->ijkl", ops, ops.conj())
           - 0.5 * (np.einsum("ik,jl->ijkl", n, eye) + np.einsum("ik,jl->ijkl", eye, n.conj())))
    basis, inverse = _hermitian_basis(d)
    return (basis @ gen.reshape(d * d, d * d) @ inverse).real


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Static part of the Liouvillian (dim^2 x dim^2, real, on the
    coordinates of :func:`_hermitian_basis`): the commutator superoperator
    of h0 plus the dissipator of the channels' sqrt(g_i) L_i,
    rho -> -i [h0, rho] + sum_i g_i (L_i rho L_i^+ - 1/2 {L_i^+ L_i, rho}).
    """
    d = model.dim
    ops = np.array([math.sqrt(ch.rate_angular) * ch.operator for ch in model.channels]).reshape(-1, d, d)
    return _commutator_superop(model.h0) + _dissipator_superop(ops)


# Padé-13 coefficients b_k / b_0, k = 0..13, and the 1-norm up to which the
# approximant is accurate to double precision without scaling (Higham 2005).
# With b_0 = 1 the approximant of a zero stack is exactly the identity.
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
    10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def _expm(gens: np.ndarray, dt: float) -> np.ndarray:
    """exp(L dt) of every member L of a (B, n, n) stack: one Padé-13 scaling
    and squaring for the whole stack, scaled by 2^-s so that the largest
    1-norm of the stack times dt is at most _THETA13, then squared s times.
    An exponential that overflows raises NumericalFailure."""
    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(gens).sum(axis=-2).max(initial=0.0)) * dt
        if not math.isfinite(norm):
            raise NumericalFailure("matrix exponential of the generator stack overflows")
        s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
        a = gens * (dt * 2.0 ** -s)
        eye = np.eye(a.shape[-1])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        r = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            r = r @ r
        if not np.isfinite(r).all():
            raise NumericalFailure("matrix exponential of the generator stack overflows")
    return r


def _propagate(gens: np.ndarray, states, times, drives: Sequence[Drive] = (), at=None) -> np.ndarray:
    """States of a (B, d^2, d^2) stack of generators on one shared grid.
    ``gens`` holds static Liouvillians, real on the coordinates of
    :func:`_hermitian_basis` as :func:`liouvillian` builds them (a complex
    stack raises UsageError), and ``drives`` the drives that all of them
    share: member b evolves under gens[b] plus the drives' commutator terms
    from the initial coordinates states[b] at times[0].

    ``at = (rows, members)`` picks the returned states: grid index rows[...]
    of stack member members[...], the two index arrays broadcasting
    together.  The result has their broadcast shape plus (d^2,); the
    default is the whole grid, (arange(T)[:, None], arange(B)[None, :]), a
    (T, B, d^2) array whose first row is ``states``.

    The initial states are taken as already guarded; every other returned
    state passes :func:`_guard` once.  A stack with non-finite entries
    raises NumericalFailure before any propagator is built.  Both paths run
    in float64.
    Without drives the propagation is exact: one batched :func:`_expm` of
    the stack, exp(L dt), is built per distinct grid step up to the last
    row asked for, and each step advances the whole stack with einsum,
    which keeps these tiny products off threaded BLAS.  With drives, each
    distinct generator of the stack builds one table of
    :func:`_propagators`, applied to all of its initial states.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise UsageError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t)):
        raise UsageError("times must be finite")
    if np.any(np.diff(t) <= 0):
        raise UsageError("times must be strictly increasing")
    gens = np.asarray(gens)
    if np.iscomplexobj(gens):
        raise UsageError("a generator stack must be real: superoperators on the coordinates of _hermitian_basis")
    dim = math.isqrt(gens.shape[-1]) if gens.ndim == 3 else 0
    if gens.ndim != 3 or gens.shape[1:] != (dim * dim, dim * dim):
        raise UsageError(f"a generator stack must have shape (B, d^2, d^2), got {gens.shape}")
    n = len(gens)
    try:
        x = np.asarray(states, dtype=float)
    except (TypeError, ValueError):  # a ragged list, or not coordinates
        x = None
    if x is None or x.shape != (n, dim * dim) or any(dr.operator.shape != (dim, dim) for dr in drives):
        raise UsageError("initial state or drive dimension does not match the generators")
    rows, cols = (np.arange(t.size)[:, None], np.arange(n)[None, :]) if at is None else at
    try:
        rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))
    except ValueError:
        raise UsageError("the grid and member indices of at do not broadcast together") from None
    if np.any((rows < 0) | (rows >= t.size)) or np.any((cols < 0) | (cols >= n)):
        raise UsageError("at must name points on the grid and members of the stack")
    if not np.isfinite(gens).all():
        raise NumericalFailure("generator stack has non-finite entries")

    if drives:
        distinct, which = np.unique(gens, axis=0, return_inverse=True)
        tables = np.stack([_propagators(g, drives, t) for g in distinct])
        vecs = np.einsum("...ij,...j->...i", tables[which[cols], rows], x[cols])
    else:
        steps, which = np.unique(np.diff(t[:rows.max(initial=0) + 1]), return_inverse=True)
        props = [_expm(gens, dt) for dt in steps]
        path = np.empty((which.size + 1, n, dim * dim))
        path[0] = x
        for k, j in enumerate(which, start=1):
            path[k] = np.einsum("bij,bj->bi", props[j], path[k - 1])
        vecs = path[rows, cols]

    new = rows > 0
    vecs[new] = _guard(vecs[new], t[rows[new]])
    return vecs


def _propagators(gen: np.ndarray, drives: Sequence[Drive], t: np.ndarray) -> np.ndarray:
    """Propagators P(t_k, t_0) of the static generator ``gen`` (d^2 x d^2)
    plus the commutator terms of ``drives`` on the increasing grid ``t``, as
    a real (T, d^2, d^2) array acting on coordinates (:func:`_hermitian_basis`).

    :func:`_cfm4` builds the table over one common period T of the drives,
    at the sorted residues tau = (t - t0) mod T (and at T itself if the grid
    runs past it); a time t0 + kT + tau is then P(tau) P(T)^k, with each
    distinct power taken once; before folding, a drive whose envelope does
    not repeat after T raises UsageError.  A grid that reaches k = 2^52
    periods, where tau keeps no significant bit, and a table that
    overflows raise NumericalFailure.  Aperiodic drives have T = inf, so
    k = 0 and the table runs to the last time.
    """
    n2 = gen.shape[0]
    period = _common_period(drives) or np.inf
    k, tau = np.divmod(t - t[0], period)
    if k[-1] >= 2.0 ** 52:  # (t - t0) mod T has no significant bit left
        raise NumericalFailure(f"the grid spans 2^52 or more drive periods of {period:g} ns",
                               float(t[np.argmax(k >= 2.0 ** 52)]))
    if k[-1]:
        _require_periodic(drives, t[0], period)
    # the grid increases, so all k are 0 exactly when the last one is
    taus, which = np.unique(np.append(tau, period if k[-1] else tau[-1]), return_inverse=True)
    # residues that differ only by the rounding of t - t0 are one point
    first = np.r_[True, np.diff(taus) > 1e-13 * taus[-1]]
    taus, which = taus[first], (np.cumsum(first) - 1)[which]
    table = np.broadcast_to(np.eye(n2), (taus.size, n2, n2))
    # a growing solution ends in the checks of _expm or below, not in
    # floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if taus[-1] > 0:
            table = _cfm4(gen, (t[0], t[0] + taus[-1]), drives, taus)
        powers, k_of = np.unique(k.astype(int), return_inverse=True)
        cycles = np.stack([np.linalg.matrix_power(table[-1], p) for p in powers])
        out = table[which[:-1]] @ cycles[k_of]
    if not np.isfinite(out).all():
        raise NumericalFailure("propagator table overflows")
    return out


# Fourth-order commutator-free Magnus integrator CFM4 (Blanes & Moan, Appl.
# Numer. Math. 56, 1519, 2006; Alvermann & Fehske, J. Comput. Phys. 230,
# 5930, 2011): a step of length h from s is exp(h B2) exp(h B1), with
# B_i = sum_j _CFM4_WEIGHTS[i, j] L(s + _GAUSS_NODES[j] h) at the two
# Gauss-Legendre nodes.  The weights of each exponent sum to 1/2, so the
# static part enters each as gen / 2, and every exponent is a Lindblad
# generator: each step is a completely positive, trace-preserving map.
_GAUSS_NODES = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
_CFM4_WEIGHTS = np.array([[0.25 + math.sqrt(3) / 6, 0.25 - math.sqrt(3) / 6],
                          [0.25 - math.sqrt(3) / 6, 0.25 + math.sqrt(3) / 6]])

# Step doubling: a table is accepted once the propagators on a grid and on
# the grid of twice its steps differ by at most _CFM4_TOL (largest entry).
# The scheme is symmetric, so its error is even in h, and the two grids
# extrapolate to sixth order, (16 P_fine - P_coarse) / 15.  Measured against
# DOP853 at rtol 1e-13 (numpy 2.4.6, scipy 1.17.1): the tables of the
# benchmark's two-tone four-level model and of the GaAs-like sigma- and
# sigma+ calibrated drives are within 8e-11 at every residue (at 1e-5 they
# are within 4.5e-9), and the states of 150 random models of
# tests/test_propagators.py, folded over up to five periods, within 4.8e-10
# (at 1e-5, 3e-8).  Being products of completely positive steps, the driven
# states of the tier-1 suite, which runs every bundled scenario, have no
# pre-clamp eigenvalue below -3.8e-14.  The grids start at
# _CFM4_START_STEPS steps over the span and double at most _CFM4_DOUBLINGS
# times.
_CFM4_TOL = 1e-6
_CFM4_START_STEPS = 8
_CFM4_DOUBLINGS = 7


def _cfm4(gen: np.ndarray, t_span: tuple[float, float], drives: Sequence[Drive],
          taus: np.ndarray) -> np.ndarray:
    """Propagators P(t0 + tau, t0) of ``gen`` plus the commutator terms of
    ``drives`` at the sorted offsets ``taus`` of t_span = (t0, t1), the
    last offset being t1 - t0, as a (len(taus), d^2, d^2) array.

    The span is cut into equal CFM4 steps, doubled until two successive
    grids agree to _CFM4_TOL; a span that does not converge within
    _CFM4_DOUBLINGS doublings raises NumericalFailure.  Each grid's
    exponentials are one batched :func:`_expm` call, and the propagators on
    the grid are its prefix products, extrapolated from the last two grids
    on the coarser one's points.  An offset past such a point is reached by
    one step and by two half steps from it, extrapolated the same way, so
    every offset's propagator depends on the span and on that offset alone.
    The generator, the drives' commutator superoperators and so every step
    are real, on the coordinates of :func:`_hermitian_basis`.
    """
    t0, t1 = t_span
    n2 = gen.shape[0]
    # f op + conj(f) op^+ = Re f (op + op^+) + Im f i (op - op^+)
    ops = np.stack([dr.operator for dr in drives])
    ops = _commutator_superop(np.concatenate([ops + _dagger(ops), 1j * (ops - _dagger(ops))]))

    def steps(starts: np.ndarray, h) -> np.ndarray:
        """The CFM4 step of length h (a scalar or one per start) from each start."""
        nodes = t0 + starts[:, None] + np.multiply.outer(h, _GAUSS_NODES)
        f = np.array([[dr.envelope(x) for x in nodes.flat] for dr in drives]).reshape(len(drives), -1, 2)
        c = f @ _CFM4_WEIGHTS.T  # (drives, steps, exponent)
        b = 0.5 * gen + np.einsum("dsi,dkl->iskl", np.concatenate([c.real, c.imag]), ops)
        e = _expm((b * np.reshape(h, (-1, 1, 1))).reshape(-1, n2, n2), 1.0).reshape(b.shape)
        return e[1] @ e[0]

    eye = np.eye(n2)[None]
    n, coarse = _CFM4_START_STEPS, None
    for _ in range(_CFM4_DOUBLINGS + 1):
        h = (t1 - t0) / n
        grid = np.concatenate([eye, _prefix_products(steps(h * np.arange(n), h))])
        if coarse is not None and np.max(np.abs(grid[::2] - coarse)) <= _CFM4_TOL:
            break
        coarse, n = grid, 2 * n
    else:
        raise NumericalFailure(f"propagator table did not converge on {n // 2} steps per span",
                               time_ns=float(t0))

    grid = (16.0 * grid[::2] - coarse) / 15.0
    below = np.minimum(np.floor(taus / (2 * h)), n // 2).astype(int)
    rest = taus - below * 2 * h
    out = grid[below]
    part = np.flatnonzero(rest > 0)
    if part.size:
        start, r = below[part] * 2 * h, rest[part]
        one, half = np.split(steps(np.r_[start, start, start + r / 2], np.r_[r, r / 2, r / 2]), [part.size])
        two = half[part.size:] @ half[:part.size]
        out[part] = ((16.0 * two - one) / 15.0) @ out[part]
    return out


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Products m[k] ... m[1] m[0] of a (N, n, n) stack for every k, in
    log2(N) batched products (Hillis & Steele's scan)."""
    out = np.array(m)
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] @ out[:-shift]
        shift *= 2
    return out


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


def evolve(model: LindbladModel, rho0: DensityMatrix, times: Sequence[float]) -> Trajectory:
    """Evolve the master equation, returning the state on the given grid.

    ``times`` must be strictly increasing with times[0] the initial time, and
    ``states[0]`` is ``rho0`` itself.  A model without drives is propagated
    exactly, a model with drives through its one-period propagator table
    (see :func:`_propagators`).  Every later state passes the positivity
    guard once.  Deterministic for fixed inputs.
    """
    t = np.asarray(times, dtype=float)
    states = _matrices(_propagate(liouvillian(model)[None], _coords(rho0.matrix)[None], t, model.drives)[1:, 0])
    states.setflags(write=False)
    return Trajectory(times=t, states=(rho0,) + tuple(map(DensityMatrix._guarded, states)))


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
    rho = _matrices(_steady_states(liouvillian(model)[None], model.h0[None], model.channels)[0])
    rho.setflags(write=False)
    return DensityMatrix._guarded(rho)


def _steady_states(gens: np.ndarray, hamiltonians: np.ndarray, channels: Sequence[CollapseChannel],
                   where: Callable[[int], str] = "batch index {}".format) -> np.ndarray:
    """Stationary states of a (B, d^2, d^2) stack of static generators, as a
    guarded (B, d^2) array of coordinates: one batched SVD (a singular value
    below 1e-12 of the largest counts as zero), one batched solve with the
    trace row in place of each generator's first row, both in float64, and
    one residual check by :func:`lindblad_rhs` of their matrices, from the
    (B, d, d) ``hamiltonians`` and shared ``channels``, independent of the
    generators solved.  A degenerate null space raises
    SteadyStateAmbiguityError and a residual above STEADY_STATE_RESIDUAL_TOL
    NumericalFailure, naming the first failing member as ``where(index)``.
    """
    n2 = gens.shape[1]
    n = math.isqrt(n2)
    sv = np.linalg.svd(gens, compute_uv=False)
    null_dim = np.sum(sv < 1e-12 * sv[:, :1], axis=1)
    if np.any(null_dim > 1):
        k = int(np.argmax(null_dim > 1))
        raise SteadyStateAmbiguityError(int(null_dim[k]), where(k))

    a = np.array(gens)
    a[:, 0, :] = np.eye(n).reshape(-1)  # the coordinates of E_ii are the populations
    x = np.linalg.solve(a, np.eye(n2)[:, :1])[..., 0]
    x /= x[:, ::n + 1].sum(axis=1, keepdims=True)

    residual = np.max(np.abs(lindblad_rhs(_matrices(x), hamiltonians, channels)), axis=(-2, -1))
    if np.any(residual > STEADY_STATE_RESIDUAL_TOL):
        k = int(np.argmax(residual > STEADY_STATE_RESIDUAL_TOL))
        raise NumericalFailure(f"steady-state residual {residual[k]:.3e} exceeds tolerance at {where(k)}")
    return _guard(x)
