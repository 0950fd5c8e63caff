import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fss import core
from fss.core import (
    CollapseChannel,
    DensityMatrix,
    Drive,
    LindbladModel,
    evolve,
    expectation,
    lindblad_rhs,
    _commutator_superop,
    _coords,
    _expm,
    _guard,
    _lowest_eigenvalues,
    _matrices,
    _propagate,
    _steady_states,
    liouvillian,
    steady_state,
)
from fss.errors import NumericalFailure, SteadyStateAmbiguityError, UsageError
from fss.units import mhz_to_angular
from oracles import (coordinate_map, model_liouvillian, oracle_commutator, oracle_dissipator, oracle_liouvillian,
                     to_coordinates)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# --- independent matrix-exponential oracle (the row-major superoperators of
# tests/oracles.py; shares no code with fss.core) ------------------------------

def expm_stepping_oracle(model, rho0, t_final, dt):
    """Propagate by matrix exponentials over piecewise-constant slices,
    sampling the Hamiltonian at each slice midpoint."""
    from scipy.linalg import expm

    channels = [(c.rate_angular, c.operator) for c in model.channels]
    dissipator = oracle_dissipator(channels, model.dim)  # time-independent: built once
    vec = rho0.matrix.reshape(-1).astype(complex)
    n = int(round(t_final / dt))
    cache = {}
    for k in range(n):
        t_mid = (k + 0.5) * dt
        if model.time_dependent:
            L = oracle_commutator(model.hamiltonian(t_mid)) + dissipator
            step = expm(L * dt)
        else:
            if "static" not in cache:
                cache["static"] = expm(oracle_liouvillian(model.h0, channels) * dt)
            step = cache["static"]
        vec = step @ vec
    return vec.reshape(model.dim, model.dim)


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.pure(3, 1)
        assert rho.population(1) == 1.0
        assert rho.population(0) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(UsageError):
            DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.array([[0.7, 0], [0, 0.7]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.array([[1.1, 0], [0, -0.1]]))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.full((2, 2), np.nan))
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.array([[np.inf, 0], [0, 0.0]]))

    def test_error_classes_of_outside_states(self):
        # a state from outside is checked for finite entries first, then for
        # Hermiticity, then by the guard
        bad = np.diag([0.3, 0.7]).astype(complex)
        bad[0, 1] = 0.1
        with pytest.raises(UsageError, match="not Hermitian"):
            DensityMatrix(bad)
        bad[1, 1] = np.inf
        with pytest.raises(NumericalFailure, match="non-finite"):
            DensityMatrix(bad)
        with pytest.raises(NumericalFailure, match="trace"):
            DensityMatrix(1.1 * np.diag([0.3, 0.7]))

    def test_clamps_tiny_negative(self):
        rho = DensityMatrix(np.array([[1.0 + 5e-9, 0], [0, -5e-9]]))
        assert min(np.linalg.eigvalsh(rho.matrix)) >= 0.0

    def test_immutable(self):
        rho = DensityMatrix.pure(2, 0)
        with pytest.raises(AttributeError):
            rho.dim = 3
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestGuard:
    TIMES = np.array([0.0, 1.5, 3.0, 4.5, 6.0])

    @staticmethod
    def _stack():
        """Five two-level states as coordinates (a, 2 Re b, 2 Im b, c)."""
        return _coords(np.stack([np.diag([0.2 + 0.1 * k, 0.8 - 0.1 * k]) for k in range(5)]).astype(complex))

    def test_first_state_below_floor_names_its_time(self):
        rhos = self._stack()
        rhos[3] = _coords(np.diag([1.2, -0.2]))
        rhos[4] = _coords(np.diag([1.3, -0.3]))
        with pytest.raises(NumericalFailure) as err:
            _guard(rhos, self.TIMES)
        assert err.value.time_ns == 4.5
        assert "-2.000e-01" in str(err.value)

    def test_time_of_failing_state_in_a_time_by_batch_stack(self):
        rhos = np.stack([self._stack()] * 3, axis=1)  # (T, B, d^2)
        rhos[2, 1] = _coords(np.diag([1.2, -0.2]))
        with pytest.raises(NumericalFailure) as err:
            _guard(rhos, self.TIMES[:, None])
        assert err.value.time_ns == 3.0

    def test_state_inside_floor_clamped_to_unit_trace_psd(self):
        rhos = self._stack()
        u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        rhos[2] = _coords(u @ np.diag([1.0 + 4e-9, -4e-9]) @ u.conj().T)
        out = _guard(rhos, self.TIMES)
        assert np.min(np.linalg.eigvalsh(_matrices(out[2]))) >= -1e-15
        assert np.trace(_matrices(out[2])).real == pytest.approx(1.0, abs=1e-15)
        assert np.abs(_matrices(out[2]) - u @ np.diag([1.0, 0.0]) @ u.conj().T).max() <= 1e-8
        others = [0, 1, 3, 4]
        assert np.array_equal(out[others], rhos[others])

    def test_error_classes(self):
        # coordinates are Hermitian by construction; a non-Hermitian matrix
        # is outside input (TestDensityMatrix.test_error_classes_of_outside_states)
        rhos = self._stack()
        rhos[1, 0] = np.nan
        with pytest.raises(NumericalFailure) as err:
            _guard(rhos, self.TIMES)
        assert err.value.time_ns == 1.5
        rhos = self._stack()
        rhos[4] *= 1.1
        with pytest.raises(NumericalFailure) as err:
            _guard(rhos, self.TIMES)
        assert err.value.time_ns == 6.0

    def test_density_matrix_is_the_guard_on_one_matrix(self):
        m = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        assert np.array_equal(DensityMatrix(m).matrix, _matrices(_guard(_coords(m))))

    @staticmethod
    def _full_eigh_guard(rhos):
        """The guard's clamp with every state diagonalized, for states that
        pass its other checks."""
        m = 0.5 * (rhos + rhos.conj().swapaxes(-1, -2))
        evals, evecs = np.linalg.eigh(m)
        neg = evals[..., 0] < 0.0
        if np.any(neg):
            vecs = evecs[neg]
            clamped = (vecs * np.clip(evals[neg], 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
            m[neg] = clamped / np.trace(clamped, axis1=-2, axis2=-1).real[:, None, None]
        return m

    @staticmethod
    def _two_level_states(lows, offs) -> np.ndarray:
        """Unit-trace states [[a, b], [b*, c]] with lowest eigenvalue ``low``
        and off-diagonal ``b``, for every (low, b) pair, b fastest."""
        low, b = (x.ravel() for x in np.meshgrid(lows, np.asarray(offs, dtype=complex), indexing="ij"))
        h = np.sqrt((0.5 - low) ** 2 - np.abs(b) ** 2)
        m = np.empty((low.size, 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0] = 0.5 + h, 0.5 - h, b, b.conj()
        return m

    def test_two_level_clamp_is_the_eigh_reconstruction(self):
        offs = [0.0, 0.3, -0.45, 0.2 - 0.25j, 1e-3j]
        rhos = self._two_level_states([-0.99e-8, -1e-9, -1e-11, -1e-13], offs)
        assert np.all(_lowest_eigenvalues(_coords(rhos)) < 0.0)
        out = _matrices(_guard(_coords(rhos)))
        assert np.abs(out - self._full_eigh_guard(rhos)).max() <= 1e-12
        assert np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0).max() <= 1e-15
        # the projector's eigenvalues are 1 and 0 up to rounding, and
        # exactly so for a diagonal state
        assert np.linalg.eigvalsh(out).min() >= -1e-15
        diagonal = out[::len(offs)]
        assert np.array_equal(diagonal, np.broadcast_to(np.diag([1.0, 0.0]), diagonal.shape))
        with pytest.raises(NumericalFailure, match="negative eigenvalue"):
            _guard(_coords(self._two_level_states([-1.01e-8], [0.2 - 0.25j])))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["general", "diagonal", "near-degenerate"]),
           st.floats(0.0, 1.0), st.floats(0.0, 0.5), st.floats(0.0, 2 * np.pi), st.floats(-12.0, -4.0))
    def test_two_level_closed_form_matches_eigvalsh(self, kind, a, b, phase, log_gap):
        if kind == "diagonal":
            b = 0.0
        elif kind == "near-degenerate":
            a, b = 0.5 + 10.0 ** log_gap, 10.0 ** log_gap * b
        off = b * np.exp(1j * phase)
        m = np.array([[a, off], [np.conj(off), 1.0 - a]])
        assert abs(_lowest_eigenvalues(_coords(m)) - np.linalg.eigvalsh(m)[0]) <= 1e-15

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
    def test_guard_matches_full_eigh_clamp(self, seed, dim):
        rng = np.random.default_rng(seed)
        b = 40
        evals = rng.dirichlet(np.ones(dim), size=b)
        clamp = rng.random(b) < 0.4
        evals[clamp, 0] = -rng.uniform(0.0, 1e-8, size=clamp.sum())
        evals[clamp, 1:] *= (1.0 - evals[clamp, :1]) / evals[clamp, 1:].sum(axis=-1, keepdims=True)
        z = rng.normal(size=(b, dim, dim)) + 1j * rng.normal(size=(b, dim, dim))
        u, _ = np.linalg.qr(z)
        rhos = (u * evals[:, None, :]) @ u.conj().swapaxes(-1, -2)
        assert np.any(np.linalg.eigvalsh(rhos)[:, 0] < 0.0)
        assert np.abs(_matrices(_guard(_coords(rhos))) - self._full_eigh_guard(rhos)).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_coordinate_conventions(dim):
    rng = np.random.default_rng(dim)
    z = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    m = z + z.conj().swapaxes(-1, -2)
    x = _coords(m)
    assert x.dtype == np.float64 and x.shape == (3, dim * dim)
    assert np.array_equal(_matrices(x), m)
    assert np.abs(x - (m.reshape(3, -1) @ coordinate_map(dim).T).real).max() <= 1e-14
    # the populations are every (d + 1)-th coordinate
    assert np.array_equal(x[..., ::dim + 1], np.diagonal(m, axis1=-2, axis2=-1).real)
    # only the Hermitian part has coordinates
    assert np.array_equal(_coords(z - z.conj().swapaxes(-1, -2)), np.zeros((3, dim * dim)))
    assert np.array_equal(_coords(z), _coords(0.5 * m))


class TestModelInputs:
    def test_channel_rejects_non_finite_rate(self):
        for rate in (np.nan, np.inf):
            with pytest.raises(UsageError):
                CollapseChannel(rate, SZ)

    def test_channel_rejects_non_finite_operator(self):
        with pytest.raises(UsageError):
            CollapseChannel(1.0, np.array([[0, np.nan], [0, 0]]))

    def test_model_rejects_non_finite_hamiltonian(self):
        with pytest.raises(UsageError):
            LindbladModel(dim=2, h0=np.full((2, 2), np.nan))
        with pytest.raises(UsageError):
            LindbladModel(dim=2, h0=np.diag([np.inf, 0.0]))

    def test_drive_rejects_non_finite_operator(self):
        with pytest.raises(UsageError):
            Drive(lambda t: 1.0, np.array([[0, np.inf], [0, 0]]))


class TestLindbladRhs:
    def test_stationary_pure_state(self):
        # rho commutes with H, no channels
        h = np.diag([1.0, 2.0]).astype(complex)
        rho = DensityMatrix.pure(2, 0)
        assert np.max(np.abs(lindblad_rhs(rho, h, []))) == 0.0

    def test_sigma_x_commutator(self):
        w = mhz_to_angular(80.0)
        rhs = lindblad_rhs(DensityMatrix.pure(2, 1), (w / 2) * SX, [])
        # d rho / dt = -i [H, rho]: off-diagonals -+i w/2
        assert rhs[0, 1] == pytest.approx(-1j * w / 2)
        assert rhs[1, 0] == pytest.approx(1j * w / 2)
        assert abs(np.trace(rhs)) <= 1e-12

    def test_dephasing_channel_symbolic(self):
        # channel sqrt(G2/2) * (sigma_z/sqrt(2)): expanding the dissipator
        # L r L+ - 1/2{L+L, r} for L = sigma_z/sqrt(2) at rate G2/2 gives
        # coherence derivative -G2 c / 2 (populations untouched).
        g2_mhz = 5.0
        g2 = mhz_to_angular(g2_mhz)
        c = 0.31 + 0.12j
        rho = np.array([[0.6, c], [np.conj(c), 0.4]])
        ch = CollapseChannel(g2_mhz / 2, SZ / np.sqrt(2))
        rhs = lindblad_rhs(rho, np.zeros((2, 2)), [ch])
        assert rhs[0, 1] == pytest.approx(-g2 * c / 2)
        assert rhs[0, 0] == pytest.approx(0.0)
        # matrix-form cross-check with explicit numpy algebra
        L = SZ / np.sqrt(2)
        direct = (g2 / 2) * (L @ rho @ L.conj().T - 0.5 * (L.conj().T @ L @ rho + rho @ L.conj().T @ L))
        assert np.allclose(rhs, direct, atol=1e-15)

    def test_rhs_traceless_and_hermiticity_preserving(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = a + a.conj().T
        rho = DensityMatrix.maximally_mixed(3)
        ch = CollapseChannel(2.0, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rhs = lindblad_rhs(rho, h, [ch])
        assert abs(np.trace(rhs)) <= 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            lindblad_rhs(DensityMatrix.pure(2, 0), np.zeros((3, 3)), [])

    def test_channel_dimension_mismatch(self):
        with pytest.raises(UsageError, match="channel"):
            lindblad_rhs(DensityMatrix.pure(2, 0), np.zeros((2, 2)), [CollapseChannel(1.0, np.eye(3))])

    def test_stack_matches_per_channel_sum(self):
        rng = np.random.default_rng(11)
        b, d = 5, 3

        def random_ops(*shape):
            return rng.normal(size=(*shape, d, d)) + 1j * rng.normal(size=(*shape, d, d))

        a = random_ops(b)
        hs = a + np.conj(np.swapaxes(a, -1, -2))
        m = random_ops(b)
        rhos = m @ np.conj(np.swapaxes(m, -1, -2))
        rhos /= np.trace(rhos, axis1=-2, axis2=-1)[:, None, None]
        channels = [CollapseChannel(rate, op) for rate, op in zip((3.0, 0.0, 0.7), random_ops(3))]
        expected = np.empty_like(rhos)
        for k, (h, r) in enumerate(zip(hs, rhos)):
            out = -1j * (h @ r - r @ h)
            for ch in channels:
                g, L = ch.rate_angular, ch.operator
                Ld = L.conj().T
                out = out + g * (L @ r @ Ld - 0.5 * (Ld @ L @ r + r @ Ld @ L))
            expected[k] = out
        got = lindblad_rhs(rhos, hs, channels)
        assert got.shape == (b, d, d)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        # one Hamiltonian broadcast over the state stack
        assert np.allclose(lindblad_rhs(rhos, hs[0], channels),
                           [lindblad_rhs(r, hs[0], channels) for r in rhos], rtol=0, atol=1e-12)


class TestEvolve:
    def test_identity_evolution(self):
        model = LindbladModel(dim=2, h0=np.zeros((2, 2)))
        rho0 = DensityMatrix.from_populations([0.3, 0.7])
        traj = evolve(model, rho0, np.linspace(0, 50, 11))
        for s in traj.states:
            assert np.allclose(s.matrix, rho0.matrix, atol=1e-9)

    def test_resonant_rabi_analytic(self):
        omega = 100.0  # MHz; P_down(t) = sin^2(pi Omega t), pi time 5 ns
        model = LindbladModel(dim=2, h0=(mhz_to_angular(omega) / 2) * SX)
        t = np.linspace(0, 10, 201)
        traj = evolve(model, DensityMatrix.pure(2, 1), t)
        expected = np.sin(np.pi * omega * 1e-3 * t) ** 2
        assert np.max(np.abs(traj.population(0) - expected)) <= 1e-6
        assert np.interp(5.0, t, traj.population(0)) == pytest.approx(1.0, abs=1e-6)

    def test_detuned_generalized_rabi(self):
        omega, delta = 80.0, 60.0
        h = (mhz_to_angular(omega) / 2) * SX + (mhz_to_angular(delta) / 2) * SZ
        model = LindbladModel(dim=2, h0=h)
        t = np.linspace(0, 60, 3001)
        traj = evolve(model, DensityMatrix.pure(2, 1), t)
        p = traj.population(0)
        # generalized Rabi frequency from the oscillation period (first two maxima)
        peaks = [i for i in range(1, len(t) - 1) if p[i] > p[i - 1] and p[i] > p[i + 1]]
        periods = np.diff(t[peaks])
        f_meas = 1e3 / np.mean(periods)
        assert f_meas == pytest.approx(np.hypot(omega, delta), rel=1e-3)

    def test_against_expm_oracle_static_four_level(self):
        from fss.models import FaradayParams, TwoToneDrive, build_faraday_four_level
        from fss.units import rate_mhz_from_lifetime

        params = FaradayParams(
            omega_e_ghz=2.6, omega_h_ghz=59.0, delta_ghz=0.0, cyclicity=409.0,
            gamma1_mhz=rate_mhz_from_lifetime(0.27),
            bigGamma1_mhz=0.0035, bigGamma2_mhz=0.08,
        )
        tone = 300.0  # MHz, resonant single tone: static Hamiltonian
        model = build_faraday_four_level(params, TwoToneDrive(tone, 0.0), "sigma-")
        assert not model.time_dependent
        rho0 = DensityMatrix.pure(4, 0)
        t_final = 20.0
        traj = evolve(model, rho0, np.array([0.0, t_final]))
        rho_oracle = expm_stepping_oracle(model, rho0, t_final, dt=0.01)
        pops = np.real(np.diag(traj.final_state.matrix))
        pops_oracle = np.real(np.diag(rho_oracle))
        assert np.max(np.abs(pops - pops_oracle)) <= 1e-6

    def test_against_expm_oracle_two_tone(self):
        # time-dependent envelope at moderate detuning; oracle slices fine
        # enough that its own discretization error is below the tolerance
        from fss.models import FaradayParams, TwoToneDrive, build_faraday_four_level

        params = FaradayParams(
            omega_e_ghz=2.6, omega_h_ghz=10.0, delta_ghz=4.0, cyclicity=25.0,
            gamma1_mhz=80.0, bigGamma1_mhz=0.1, bigGamma2_mhz=1.0,
        )
        drive = TwoToneDrive(omega1_mhz=500.0, omega2_mhz=500.0, delta_rf_ghz=2.4)
        model = build_faraday_four_level(params, drive, "sigma-")
        assert model.time_dependent
        rho0 = DensityMatrix.pure(4, 1)
        t_final = 8.0
        traj = evolve(model, rho0, np.array([0.0, t_final]))
        rho_oracle = expm_stepping_oracle(model, rho0, t_final, dt=0.0005)
        pops = np.real(np.diag(traj.final_state.matrix))
        pops_oracle = np.real(np.diag(rho_oracle))
        assert np.max(np.abs(pops - pops_oracle)) <= 1e-6

    def test_piecewise_constant_drive_vs_oracle(self):
        # square-envelope drive: the oracle's slices are exact segments
        w = mhz_to_angular(120.0)

        def env(t):
            return 0.5 * w if t < 5.0 else 0.25 * w

        model = LindbladModel(
            dim=2, h0=np.zeros((2, 2)),
            channels=(CollapseChannel(3.0, np.array([[0, 1], [0, 0]], dtype=complex)),),
            drives=(Drive(env, SX / 2),),
        )
        rho0 = DensityMatrix.pure(2, 1)
        traj = evolve(model, rho0, np.array([0.0, 10.0]))
        oracle = expm_stepping_oracle(model, rho0, 10.0, dt=0.00125)
        assert np.max(np.abs(np.diag(traj.final_state.matrix) - np.diag(oracle))) <= 1e-6

    def test_deterministic(self):
        model = LindbladModel(
            dim=2, h0=(mhz_to_angular(90.0) / 2) * SX,
            channels=(CollapseChannel(2.0, SZ),),
        )
        t = np.linspace(0, 30, 31)
        a = evolve(model, DensityMatrix.pure(2, 1), t)
        b = evolve(model, DensityMatrix.pure(2, 1), t)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.matrix, sb.matrix)

    def test_times_must_increase(self):
        model = LindbladModel(dim=2, h0=np.zeros((2, 2)))
        with pytest.raises(UsageError):
            evolve(model, DensityMatrix.pure(2, 0), np.array([0.0, 2.0, 1.0]))

    def test_times_must_be_finite(self):
        model = LindbladModel(dim=2, h0=np.zeros((2, 2)))
        with pytest.raises(UsageError):
            evolve(model, DensityMatrix.pure(2, 0), np.array([0.0, np.nan]))


class TestExactPropagation:
    @staticmethod
    def _two_level(delta_mhz):
        h = (mhz_to_angular(90.0) / 2) * SX + (mhz_to_angular(delta_mhz) / 2) * SZ
        return LindbladModel(
            dim=2, h0=h,
            channels=(CollapseChannel(2.0, np.array([[0, 1], [0, 0]], dtype=complex)),
                      CollapseChannel(1.5, SZ)),
        )

    @pytest.mark.parametrize("t", [
        np.array([0.0, 0.3, 1.1, 1.15, 4.0, 9.7]),
        np.array([2.5, 3.0, 6.0, 6.25, 12.0]),
    ])
    def test_batch_matches_evolve(self, t):
        models = [self._two_level(d) for d in (-40.0, 0.0, 13.0, 75.0)]
        rho0s = [DensityMatrix.pure(2, 1), DensityMatrix.from_populations([0.2, 0.8]),
                 DensityMatrix.maximally_mixed(2), DensityMatrix.pure(2, 0)]
        gens = np.stack([liouvillian(m) for m in models])
        batch = _propagate(gens, _coords(np.stack([r.matrix for r in rho0s])), t)
        assert batch.shape == (t.size, len(models), 4)
        for b, (model, rho0) in enumerate(zip(models, rho0s)):
            single = evolve(model, rho0, t)
            assert np.array_equal(_matrices(batch[0, b]), rho0.matrix)
            for a, s in zip(batch[:, b], single.states):
                assert np.max(np.abs(_matrices(a) - s.matrix)) <= 1e-12

    def test_single_point_grid_returns_initial_state(self):
        rho0 = DensityMatrix.from_populations([0.3, 0.7])
        traj = evolve(self._two_level(10.0), rho0, [4.0])
        assert traj.states == (rho0,)
        batch = _propagate(liouvillian(self._two_level(10.0))[None], _coords(rho0.matrix)[None], [4.0])
        assert np.array_equal(batch, _coords(rho0.matrix)[None, None])

    def test_batch_rejects_mixed_dimensions(self):
        gens = np.stack([liouvillian(self._two_level(0.0))] * 2)
        with pytest.raises(UsageError):
            _propagate(gens, [_coords(DensityMatrix.pure(2, 1).matrix), _coords(DensityMatrix.pure(3, 0).matrix)],
                       [0.0, 1.0])

    @pytest.mark.parametrize("rhos", [
        [_coords(np.eye(2) / 2), _coords(np.eye(3) / 3)],  # ragged
        [_coords(np.eye(2) / 2), [[1.0, 0.0]]],  # ragged, one state not a vector
        [_coords(np.eye(3) / 3)] * 2,  # every state of the wrong d
        np.full((2, 2, 2), 0.25),  # states as matrices, not coordinates
    ], ids=["ragged", "ragged-row", "wrong-d", "non-square"])
    def test_batch_rejects_states_of_the_wrong_shape(self, rhos):
        gens = np.stack([liouvillian(self._two_level(0.0))] * 2)
        with pytest.raises(UsageError, match="dimension does not match"):
            _propagate(gens, rhos, [0.0, 1.0])

    @staticmethod
    def _spy_expm(monkeypatch) -> list:
        """Record each _expm call's stack, step and result."""
        seen = []
        real = core._expm

        def spy(gens, dt):
            out = real(gens, dt)
            seen.append((gens, dt, out))
            return out

        monkeypatch.setattr(core, "_expm", spy)
        return seen

    def test_static_lindblad_stack_runs_in_real_arithmetic(self, monkeypatch):
        from scipy.linalg import expm

        seen = self._spy_expm(monkeypatch)
        models = [self._two_level(d) for d in (-40.0, 0.0, 75.0)]
        rho0 = DensityMatrix.from_populations([0.2, 0.8]).matrix
        t = np.array([0.0, 0.5, 1.0, 2.5])
        states = _matrices(_propagate(np.stack([liouvillian(m) for m in models]), [_coords(rho0)] * 3, t))
        assert [(g.dtype, out.dtype) for g, _, out in seen] == [(np.float64, np.float64)] * 2  # steps 0.5, 1.5
        for k, tk in enumerate(t):
            for b, model in enumerate(models):
                ref = (expm(model_liouvillian(model) * tk) @ rho0.reshape(4)).reshape(2, 2)
                assert np.max(np.abs(states[k, b] - ref)) <= 1e-12

    @pytest.mark.parametrize("driven", [False, True])
    def test_complex_stack_is_a_usage_error(self, monkeypatch, driven):
        # generators are real on coordinates; a complex stack is not one,
        # even with a zero imaginary part, and fails before any propagator
        monkeypatch.setattr(core, "_expm", None)  # any exponential would raise TypeError
        gens = np.stack([liouvillian(self._two_level(5.0))] * 2).astype(complex)
        drives = (Drive(lambda t: 0.3, SX / 2, 2.0),) if driven else ()
        with pytest.raises(UsageError, match="must be real"):
            _propagate(gens, [_coords(np.eye(2) / 2)] * 2, [0.0, 0.4, 1.0], drives)

    def test_static_pumping_against_direct_expm(self):
        # fig1e physics: single-tone 16x16 pumping over 1200 ns on 201 points
        from scipy.linalg import expm

        from fss.models import (
            FaradayParams, TwoToneDrive, build_faraday_four_level, saturation_tone_mhz,
        )

        params = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=79.0, delta_ghz=0.0,
                               cyclicity=409.0, gamma1_mhz=589.463)
        drive = TwoToneDrive(saturation_tone_mhz(params.gamma1_mhz, 6.0), 0.0)
        model = build_faraday_four_level(params, drive, "sigma-")
        assert not model.time_dependent
        rho0 = DensityMatrix.pure(4, 0)
        t = np.linspace(0.0, 1200.0, 201)
        traj = evolve(model, rho0, t)
        L = model_liouvillian(model)
        vec0 = rho0.matrix.reshape(-1)
        for tk, state in zip(t, traj.states):
            oracle = (expm(L * tk) @ vec0).reshape(4, 4)
            assert np.max(np.abs(state.matrix - oracle)) <= 1e-9

    @pytest.mark.parametrize("driven", [False, True])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_generators_fail_before_any_propagator(self, monkeypatch, value, driven):
        import fss.core

        monkeypatch.setattr(fss.core, "_cfm4", None)  # any integrator call would raise TypeError
        gens = np.stack([liouvillian(self._two_level(5.0))] * 2)
        gens[1, 2, 1] = value
        drives = (Drive(lambda t: 0.3, SX / 2, 2.0),) if driven else ()
        with pytest.raises(NumericalFailure, match="generator stack has non-finite entries"):
            _propagate(gens, [_coords(DensityMatrix.pure(2, 1).matrix)] * 2, np.linspace(0, 10, 6), drives)

    @pytest.mark.parametrize("driven", [False, True])
    def test_overflowing_exponential_is_a_numerical_failure(self, driven):
        # a growth rate of 1e300 rad/ns: exp(L dt) overflows, and so does
        # the propagator ODE; neither may surface as an OverflowError or a
        # RuntimeWarning (an error under this suite's warning filter)
        gens = np.stack([liouvillian(self._two_level(5.0))] * 2)
        gens[1, 0, 0] = 1e300
        drives = (Drive(lambda t: 0.3, SX / 2, 2.0),) if driven else ()
        with pytest.raises(NumericalFailure):
            _propagate(gens, [_coords(DensityMatrix.pure(2, 1).matrix)] * 2, np.linspace(0, 10, 6), drives)

    def test_huge_oscillating_generator_entry_fails_fast(self):
        # an antisymmetric pair of +-1e300 rotates two coordinates at 1e300
        # rad/ns: no table can resolve it, and building one must end in a
        # NumericalFailure, not in an unbounded step search
        gens = np.stack([liouvillian(self._two_level(5.0))] * 2)
        gens[1, 1, 2], gens[1, 2, 1] = 1e300, -1e300
        with pytest.raises(NumericalFailure):
            _propagate(gens, [_coords(DensityMatrix.pure(2, 1).matrix)] * 2, np.linspace(0, 10, 6),
                       (Drive(lambda t: 0.3, SX / 2, 2.0),))

    def test_unresolved_drive_stops_after_the_last_doubling(self):
        # an envelope that changes sign every 1e-7 ns: no step grid of the
        # integrator comes near it
        drive = Drive(lambda t: 0.3 * math.cos(3e7 * t), SX / 2)
        model = LindbladModel(dim=2, h0=np.zeros((2, 2)), drives=(drive,))
        with pytest.raises(NumericalFailure, match="did not converge"):
            evolve(model, DensityMatrix.pure(2, 1), [0.0, 10.0])

    def test_only_driven_models_reach_the_ode_solver(self, monkeypatch):
        import fss.core

        calls = []
        real = fss.core._cfm4

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fss.core, "_cfm4", counting)
        static = self._two_level(5.0)
        evolve(static, DensityMatrix.pure(2, 1), np.linspace(0, 10, 11))
        _propagate(np.stack([liouvillian(static)] * 2), [_coords(DensityMatrix.pure(2, 1).matrix)] * 2,
                   np.linspace(0, 10, 11))
        assert calls == []
        driven = LindbladModel(dim=2, h0=np.zeros((2, 2)),
                               drives=(Drive(lambda t: 0.3, SX / 2),))
        evolve(driven, DensityMatrix.pure(2, 1), np.linspace(0, 10, 11))
        assert len(calls) == 1


class TestBatchedExpm:
    """``_expm`` against scipy.linalg.expm, which works one matrix at a time."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.integers(1, 12),
           st.floats(-3.0, 3.0), st.booleans())
    def test_matches_scipy_expm(self, seed, dim, members, log_norm, spread):
        from scipy.linalg import expm

        rng = np.random.default_rng(seed)
        n = dim * dim
        a = rng.normal(size=(members, n, n)) + 1j * rng.normal(size=(members, n, n))
        # the largest 1-norm is 10^log_norm; with spread the others reach 6 decades below it
        norms = 10.0 ** (log_norm - 6.0 * spread * rng.random(members))
        norms[0] = 10.0 ** log_norm
        a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
        dt = float(rng.uniform(0.5, 2.0))
        got = _expm(a / dt, dt)
        for g, m in zip(got, a):
            ref = expm(m)
            one_norm = np.abs(ref).sum(axis=0).max()
            assert np.abs(g - ref).sum(axis=0).max() <= 1e-12 * max(1.0, one_norm)

    def test_zero_stack_is_exactly_the_identity(self):
        out = _expm(np.zeros((3, 9, 9), dtype=complex), 0.7)
        assert np.array_equal(out, np.broadcast_to(np.eye(9), (3, 9, 9)))

    def test_one_member_stack(self):
        from scipy.linalg import expm

        gen = liouvillian(TestExactPropagation._two_level(20.0))
        out = _expm(gen[None], 3.0)
        assert out.shape == (1, 4, 4)
        assert np.abs(out[0] - expm(gen * 3.0)).max() <= 1e-12


class TestExpectation:
    def test_maximally_mixed_sigma_z(self):
        assert expectation(DensityMatrix.maximally_mixed(2), SZ) == pytest.approx(0.0)

    def test_projector_on_own_state(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        assert expectation(DensityMatrix.pure(2, 0), proj) == pytest.approx(1.0)

    def test_eigendecomposition_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho_raw = a @ a.conj().T
        rho = DensityMatrix(rho_raw / np.trace(rho_raw).real)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        obs = b + b.conj().T
        evals, evecs = np.linalg.eigh(obs)
        oracle = sum(
            lam * np.real(evecs[:, k].conj() @ rho.matrix @ evecs[:, k])
            for k, lam in enumerate(evals)
        )
        assert expectation(rho, obs) == pytest.approx(oracle, abs=1e-10)

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(UsageError):
            expectation(DensityMatrix.pure(2, 0), np.array([[0, 1], [0, 0]]))


class TestSteadyState:
    def test_unique_absorbing_state(self):
        model = LindbladModel(
            dim=2, h0=np.zeros((2, 2)),
            channels=(CollapseChannel(10.0, np.array([[0, 1], [0, 0]], dtype=complex)),),
        )
        ss = steady_state(model)
        assert ss.population(0) == pytest.approx(1.0, abs=1e-10)

    def test_driven_damped_two_level(self):
        omega_mhz, gamma_mhz = 40.0, 25.0
        w, g = mhz_to_angular(omega_mhz), mhz_to_angular(gamma_mhz)
        model = LindbladModel(
            dim=2, h0=(w / 2) * SX,
            channels=(CollapseChannel(gamma_mhz, np.array([[0, 1], [0, 0]], dtype=complex)),),
        )
        s = 2 * w**2 / g**2
        ss = steady_state(model)
        assert ss.population(1) == pytest.approx(s / (2 * (1 + s)), abs=1e-10)
        # long-time evolve agrees within 1e-6 at t = 50 / slowest rate
        t_end = 50.0 / model.slowest_rate_angular()
        traj = evolve(model, DensityMatrix.pure(2, 0), np.array([0.0, t_end]))
        assert traj.final_state.population(1) == pytest.approx(ss.population(1), abs=1e-6)

    def test_residual_below_tolerance(self):
        model = LindbladModel(
            dim=2, h0=(mhz_to_angular(40.0) / 2) * SX,
            channels=(CollapseChannel(25.0, np.array([[0, 1], [0, 0]], dtype=complex)),),
        )
        ss = steady_state(model)
        assert np.max(np.abs(lindblad_rhs(ss, model.h0, model.channels))) <= 1e-10

    def test_degenerate_null_space_raises(self):
        # dissipation only inside the {0,1} block leaves the {2,3} block free
        op = np.zeros((4, 4), dtype=complex)
        op[0, 1] = 1.0
        model = LindbladModel(dim=4, h0=np.zeros((4, 4)), channels=(CollapseChannel(5.0, op),))
        with pytest.raises(SteadyStateAmbiguityError) as err:
            steady_state(model)
        assert err.value.null_dim > 1

    def test_requires_dissipation(self):
        model = LindbladModel(dim=2, h0=SZ)
        with pytest.raises(UsageError):
            steady_state(model)

    def test_requires_time_independent(self):
        model = LindbladModel(
            dim=2, h0=np.zeros((2, 2)),
            channels=(CollapseChannel(1.0, SZ),),
            drives=(Drive(lambda t: 1.0, SX),),
        )
        with pytest.raises(UsageError):
            steady_state(model)


class TestInvariantsAlongTrajectories:
    def test_random_models_preserve_invariants(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (a + a.conj().T)
            chans = []
            for _ in range(int(rng.integers(1, 3))):
                op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                chans.append(CollapseChannel(float(rng.uniform(0.2, 5.0)), op / np.linalg.norm(op)))
            model = LindbladModel(dim=dim, h0=h, channels=tuple(chans))
            pops = rng.dirichlet(np.ones(dim))
            traj = evolve(model, DensityMatrix.from_populations(pops), np.linspace(0, 5, 6))
            for s in traj.states:
                m = s.matrix
                assert np.max(np.abs(m - m.conj().T)) <= 1e-10
                assert abs(np.trace(m).real - 1.0) <= 1e-8
                assert np.linalg.eigvalsh(m).min() >= -1e-8


# --- vectorized generators and batched steady states -------------------------

def _random_model(seed: int, dim: int, channels: int) -> LindbladModel:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    chans = tuple(CollapseChannel(float(rng.uniform(0.0, 50.0)),
                                  rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                  for _ in range(channels))
    return LindbladModel(dim=dim, h0=0.5 * (a + a.conj().T), channels=chans)


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4), channels=st.integers(0, 4))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_liouvillian_matches_kron_oracle(seed, dim, channels):
    model = _random_model(seed, dim, channels)
    gen = liouvillian(model)
    assert gen.dtype == np.float64
    assert np.max(np.abs(gen - to_coordinates(model_liouvillian(model)))) <= 1e-13
    assert np.max(np.abs(_commutator_superop(model.h0) - to_coordinates(oracle_commutator(model.h0)))) <= 1e-13


class TestBatchedSteadyStates:
    @staticmethod
    def _damped(delta_mhz: float) -> LindbladModel:
        return LindbladModel(
            dim=2, h0=(mhz_to_angular(40.0) / 2) * SX + (mhz_to_angular(delta_mhz) / 2) * SZ,
            channels=(CollapseChannel(25.0, np.array([[0, 1], [0, 0]], dtype=complex)),),
        )

    def _batch(self, models):
        return (np.stack([liouvillian(m) for m in models]), np.stack([m.h0 for m in models]),
                models[0].channels)

    def test_batch_matches_single_models(self):
        models = [self._damped(d) for d in (-30.0, 0.0, 12.0, 80.0)]
        batch = _steady_states(*self._batch(models))
        assert batch.shape == (len(models), 4) and batch.dtype == np.float64
        for rho, model in zip(_matrices(batch), models):
            assert np.max(np.abs(rho - steady_state(model).matrix)) <= 1e-14

    def test_one_ambiguous_member_raises_naming_it(self):
        op = np.zeros((4, 4), dtype=complex)
        op[0, 1] = 1.0
        chans = (CollapseChannel(5.0, op),)
        unique = LindbladModel(dim=4, h0=np.zeros((4, 4)), channels=chans)
        # dissipation only inside the {0,1} block leaves the {2,3} block free,
        # unless a coupling carries it into that block
        mix = np.zeros((4, 4), dtype=complex)
        mix[1, 2] = mix[2, 1] = mix[2, 3] = mix[3, 2] = 1.0
        coupled = LindbladModel(dim=4, h0=mix, channels=chans)
        gens = np.stack([liouvillian(coupled), liouvillian(coupled), liouvillian(unique)])
        hams = np.stack([coupled.h0, coupled.h0, unique.h0])
        assert _steady_states(gens[:2], hams[:2], chans).shape == (2, 16)
        with pytest.raises(SteadyStateAmbiguityError, match="batch index 2") as err:
            _steady_states(gens, hams, chans)
        assert err.value.null_dim > 1

    def test_residual_is_checked_against_the_hamiltonians(self):
        # the third generator does not belong to its Hamiltonian: its state
        # solves the generator, and the independent residual catches that
        models = [self._damped(d) for d in (-30.0, 0.0, 12.0, 80.0)]
        gens, hams, chans = self._batch(models)
        gens[2] = liouvillian(self._damped(5.0))
        with pytest.raises(NumericalFailure, match="residual .* at batch index 2"):
            _steady_states(gens, hams, chans)
        with pytest.raises(NumericalFailure, match="at point 2"):
            _steady_states(gens, hams, chans, "point {}".format)
