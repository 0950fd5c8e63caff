"""Oracles that share no code with ``fss``: Lindblad superoperators written
out with Kronecker products on row-major vectorized matrices,
vec(rho)[i d + j] = rho[i, j], where vec(A rho B) = (A (x) B^T) vec(rho),
the map of such a superoperator to the real coordinates that ``fss.core``
builds its generators in, and the positivity guard of states in those
coordinates with an eigendecomposition of every state."""

import numpy as np


def oracle_liouvillian(h, channels_angular):
    """rho -> -i [h, rho] + sum of the dissipators of (rate, operator) pairs."""
    return oracle_commutator(h) + oracle_dissipator(channels_angular, h.shape[0])


def oracle_commutator(h):
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def oracle_dissipator(channels_angular, dim):
    eye = np.eye(dim)
    D = np.zeros((dim * dim, dim * dim), dtype=complex)
    for rate, op in channels_angular:
        ldl = op.conj().T @ op
        D += rate * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(ldl, eye)
            - 0.5 * np.kron(eye, ldl.T)
        )
    return D


def model_liouvillian(model):
    """oracle_liouvillian of a LindbladModel's static Hamiltonian and channels."""
    return oracle_liouvillian(model.h0, [(c.rate_angular, c.operator) for c in model.channels])


def coordinate_map(dim):
    """The matrix M with M vec(rho) the coordinates of rho: rho_ii at
    position (i, i), rho_ij + rho_ji = 2 Re rho_ij at (i, j) and
    i (rho_ji - rho_ij) = 2 Im rho_ij at (j, i), for i < j."""
    m = np.zeros((dim, dim, dim, dim), dtype=complex)  # (coordinate a, b; entry k, l)
    for i in range(dim):
        m[i, i, i, i] = 1.0
        for j in range(i + 1, dim):
            m[i, j, i, j] = m[i, j, j, i] = 1.0
            m[j, i, j, i], m[j, i, i, j] = 1j, -1j
    return m.reshape(dim * dim, dim * dim)


def to_coordinates(superop):
    """A row-major superoperator that keeps matrices Hermitian, as the real
    matrix acting on coordinates (see coordinate_map)."""
    m = coordinate_map(int(round(np.sqrt(superop.shape[-1]))))
    out = m @ superop @ np.linalg.inv(m)
    assert np.abs(out.imag).max() <= 1e-12 * max(1.0, np.abs(out).max())
    return out.real


def guard_reference(x, times=None):
    """The positivity guard of states of d > 2 levels, with ``eigvalsh`` of
    every state: a (..., d^2) stack of coordinates (see coordinate_map) with
    eigenvalues in [-1e-8, 0) clamped to zero and the trace renormalized.
    Returns that stack, or (message, time) of the first state with
    non-finite entries, then of the first whose trace is off by more than
    1e-8, then of the first with an eigenvalue below -1e-8 (``times``
    broadcasts against the stack's leading shape).  Its arithmetic is the
    guard's, so a clamped state comes out with the same bits."""
    d = int(round(np.sqrt(x.shape[-1])))
    m = coordinate_map(d)
    inverse = m.conj().T / (m * m.conj()).real.sum(axis=1)

    def matrices(c):
        return (c @ inverse.T).reshape(c.shape[:-1] + (d, d))

    def first(bad, message, values=None):
        k = np.flatnonzero(bad)[0]
        t = None if times is None else float(np.broadcast_to(times, bad.shape).flat[k])
        return message.format(None if values is None else values.flat[k]), t

    bad = ~np.isfinite(x).all(axis=-1)
    if np.any(bad):
        return first(bad, "density matrix has non-finite entries")
    off = np.abs(x[..., ::d + 1].sum(axis=-1) - 1.0)
    if np.any(off > 1e-8):
        return first(off > 1e-8, "density matrix trace deviates from 1 by {:.3e}", off)
    low = np.linalg.eigvalsh(matrices(x))[..., 0]
    if np.any(low < -1e-8):
        return first(low < -1e-8, "density matrix has negative eigenvalue {:.3e}", low)
    neg = low < 0.0
    if not np.any(neg):
        return x
    x, p = x.copy(), x[neg]
    evals, vecs = np.linalg.eigh(matrices(p))
    clamped = (vecs * np.clip(evals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    clamped = (clamped.reshape(-1, d * d) @ m.T).real
    x[neg] = clamped / clamped[:, ::d + 1].sum(axis=-1, keepdims=True)
    return x
