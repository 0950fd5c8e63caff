import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fss.core import DensityMatrix, evolve, expectation, liouvillian, steady_state
from fss.errors import DomainError, UsageError
from fss.fitting import MODEL_LIBRARY, FitModel, fit
from fss.models import (
    CptParams,
    FaradayParams,
    TwoToneDrive,
    build_cpt_three_level,
    build_faraday_four_level,
    build_two_level,
    calibrate_faraday_drive,
    cpt_spectrum,
    cyclicity,
    faraday_flip_projector,
    faraday_stark_shift_ghz,
    faraday_two_photon_rabi_mhz,
    g_factor,
    pi_contrast_and_q,
    two_level_generators,
)
from fss.sequences import TwoLevelPhysics
from fss.units import ghz_to_angular, mhz_to_angular, rate_mhz_from_lifetime


RATES = st.one_of(st.just(0.0), st.floats(0.0, 60.0))
TWO_LEVEL_ROWS = st.lists(st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), RATES, RATES,
                                    st.floats(-10.0, 10.0)), min_size=1, max_size=6)


class TestTwoLevelGenerators:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(TWO_LEVEL_ROWS)
    def test_rows_match_the_models(self, rows):
        gens = two_level_generators(*map(np.array, zip(*rows)))
        assert gens.shape == (len(rows), 4, 4)
        for gen, row in zip(gens, rows):
            assert np.max(np.abs(gen - liouvillian(build_two_level(*row)))) <= 1e-12

    def test_parameters_broadcast(self):
        gens = two_level_generators([[10.0], [20.0]], [0.0, 5.0, -5.0], 0.4, 1.2)
        assert gens.shape == (2, 3, 4, 4)
        assert np.max(np.abs(gens[1, 2] - liouvillian(build_two_level(20.0, -5.0, 0.4, 1.2)))) <= 1e-12

    @pytest.mark.parametrize("args, message", [
        (([1.0, np.nan], 0.0, 0.0, 0.0), "must be finite"),
        ((1.0, 0.0, 0.0, 0.0, np.inf), "must be finite"),
        ((1.0, 0.0, [0.5, -0.1], 0.0), "rates must be >= 0"),
        ((1.0, 0.0, 0.0, -2.0), "rates must be >= 0"),
    ])
    def test_bad_inputs_rejected_like_the_model(self, args, message):
        with pytest.raises(UsageError, match=message):
            two_level_generators(*args)
        with pytest.raises(UsageError, match=message):
            build_two_level(*(np.ravel(a)[-1] for a in args))


class TestTwoLevel:
    def test_free_precession(self):
        delta = 120.0
        model = build_two_level(0.0, delta, 0.0, 0.0)
        plus = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        t = np.linspace(0, 20, 81)
        traj = evolve(model, plus, t)
        coh = np.array([s.coherence(0, 1) for s in traj.states])
        assert np.allclose(np.abs(coh), 0.5, atol=1e-7)
        phase_rate = np.angle(coh[1] / coh[0]) / (t[1] - t[0])
        assert phase_rate == pytest.approx(-mhz_to_angular(delta), rel=1e-6)

    def test_gamma1_relaxation_rate(self):
        # undriven relaxation: population difference decays at the quoted rate
        model = build_two_level(0.0, 0.0, 0.8, 0.0)
        t = np.linspace(0, 700, 71)
        traj = evolve(model, DensityMatrix.pure(2, 1), t)
        r = fit(MODEL_LIBRARY["exp_decay"], t, traj.population(0),
                {"amplitude": -0.5, "tau": 150.0, "offset": 0.5})
        assert rate_mhz_from_lifetime(r["tau"]) == pytest.approx(0.8, rel=1e-4)

    def test_gamma2_coherence_decay(self):
        # the quoted Gamma2 is the sigma_z jump rate: coherence damps at 2*Gamma2
        g2 = 3.7
        model = build_two_level(0.0, 0.0, 0.0, g2)
        plus = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        t = np.linspace(0, 40, 41)
        traj = evolve(model, plus, t)
        coh = np.array([abs(s.coherence(0, 1)) for s in traj.states])
        expected = 0.5 * np.exp(-2 * mhz_to_angular(g2) * t)
        assert np.allclose(coh, expected, atol=1e-7)

    def test_detuned_relaxation_round_trip(self):
        # delta = 400 MHz trace: monotone bright-state recovery whose
        # master-equation refit returns the injected Gamma1 = 0.8 MHz
        model = build_two_level(226.8, 400.0, 0.8, 3.7)
        t = np.linspace(0, 700, 141)
        target = evolve(model, DensityMatrix.pure(2, 1), t).population(0)
        tail = target[t > 60]
        assert np.all(np.diff(tail) > -1e-6)
        assert target[-1] == pytest.approx(0.5, abs=0.01)

        def shape(_, gamma1_mhz):
            m = build_two_level(226.8, 400.0, gamma1_mhz, 3.7)
            return evolve(m, DensityMatrix.pure(2, 1), t).population(0)

        refit_model = FitModel("detuned_relaxation", ("gamma1_mhz",), shape)
        r = fit(refit_model, t, target, {"gamma1_mhz": 0.5})
        assert r["gamma1_mhz"] == pytest.approx(0.8, rel=0.10)


class TestCptModel:
    def test_decoupled_weak_arm(self):
        p = CptParams(omega_up=0.0)
        ss = steady_state(build_cpt_three_level(p))
        assert abs(ss.coherence(1, 2)) <= 1e-10

    def test_flat_spectrum_without_weak_arm(self):
        p = CptParams(omega_up=0.0)
        grid = np.linspace(2.5, 2.7, 9)
        spec = cpt_spectrum(p, grid)
        assert np.max(spec) - np.min(spec) <= 1e-9 * np.max(spec)

    def test_dip_at_bare_splitting(self):
        p = CptParams()
        grid = np.linspace(2.40, 2.80, 161)
        spec = cpt_spectrum(p, grid)
        k = int(np.argmin(spec))
        assert grid[k] == pytest.approx(2.60, abs=0.01)
        # a real dip: the fluorescence well off resonance is much brighter
        far = cpt_spectrum(p, np.array([2.2, 3.0]))
        assert np.all(far > 1.5 * spec[k])

    def test_dip_tracks_bare_splitting(self):
        for w0 in (2.4, 2.6, 2.8):
            p = CptParams(omega_e0_ghz=w0)
            grid = np.linspace(w0 - 0.1, w0 + 0.1, 81)
            spec = cpt_spectrum(p, grid)
            assert grid[np.argmin(spec)] == pytest.approx(w0, abs=0.0026)

    def test_dip_position_invariant_under_arm_scaling(self):
        grid = np.linspace(2.55, 2.65, 101)
        step = grid[1] - grid[0]
        positions = []
        for scale in (0.5, 1.0, 2.0):
            p = CptParams(omega_down=9.3 * scale, omega_up=0.19 * scale)
            spec = cpt_spectrum(p, grid)
            positions.append(grid[np.argmin(spec)])
        assert max(positions) - min(positions) <= step + 1e-12

    def test_saturation_ratio(self):
        assert CptParams().saturation_ratio == pytest.approx(3.29, abs=0.01)

    def test_batched_spectrum_matches_per_point_steady_states(self):
        p = CptParams(delta_ghz=0.3, gamma2=0.2)
        grid = np.linspace(2.45, 2.75, 31)
        per_point = [steady_state(build_cpt_three_level(p, w)).population(2) / p.trion_lifetime_ns
                     for w in grid]
        assert np.max(np.abs(cpt_spectrum(p, grid) - per_point)) <= 1e-12

    def test_failure_names_the_probe_frequency(self, monkeypatch):
        import fss.core
        from fss.errors import NumericalFailure

        monkeypatch.setattr(fss.core, "STEADY_STATE_RESIDUAL_TOL", -1.0)
        with pytest.raises(NumericalFailure, match="at probe frequency 2.57 GHz"):
            cpt_spectrum(CptParams(), [2.57, 2.6])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(2.0, 3.0), st.floats(-5.0, 5.0), st.floats(0.0, 20.0), st.floats(0.0, 2.0),
           st.floats(1.0, 1e5), st.floats(0.0, 3.0), st.floats(0.05, 2.0), st.floats(1.0, 1e3),
           st.floats(-0.3, 0.3), st.integers(0, 2**32 - 1))
    def test_cached_bases_match_the_model(self, e0, delta, w_down, w_up, t1, g2, trion, flip, offset, seed):
        from fss.core import lindblad_rhs
        from fss.models import _cpt_coefficients, _cpt_terms

        p = CptParams(omega_e0_ghz=e0, delta_ghz=delta, omega_down=w_down, omega_up=w_up, gamma1_inv_ns=t1,
                      gamma2=g2, trion_lifetime_ns=trion, spin_flip_time_ns=flip)
        model = build_cpt_three_level(p, e0 + offset)
        coeffs = _cpt_coefficients(p, ghz_to_angular(offset))
        gens, rhs = _cpt_terms()
        gen = liouvillian(model)
        assert np.max(np.abs((coeffs @ gens).reshape(9, 9) - gen)) <= 1e-12 * max(1.0, np.abs(gen).max())
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = z @ z.conj().T / np.trace(z @ z.conj().T)
        want = lindblad_rhs(rho, model.h0, model.channels)
        got = ((coeffs @ rhs).view(complex).reshape(9, 9) @ rho.reshape(-1)).reshape(3, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())
        # the term table writes the lambda Hamiltonian entry by entry
        h = np.zeros((3, 3), dtype=complex)
        h[2, 2], h[1, 1] = ghz_to_angular(delta), ghz_to_angular(e0 + offset - e0)
        h[0, 2] = h[2, 0] = w_down / 2
        h[1, 2] = h[2, 1] = w_up / 2
        assert np.array_equal(model.h0, h)
        assert [ch.label for ch in model.channels] == ["ground-flip", "ground-dephase", "spin-conserving",
                                                       "spin-flipping"]

    def test_spectrum_states_are_cleared_without_eigvalsh(self, monkeypatch):
        from importlib import resources

        from fss import scenario

        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        # fig2b's physics and probe grid
        spectrum = cpt_spectrum(CptParams(), np.linspace(2.40, 2.80, 161))
        assert spectrum.shape == (161,) and np.all(np.isfinite(spectrum))
        assert calls == []
        # fig1e's pumped states have an empty level: the certificate clears
        # none of them, and eigvalsh decides
        sc = scenario.load_scenario(resources.files("fss") / "scenarios" / "fig1e.scenario")
        scenario.run_scenario(sc, seed=0)
        assert calls and all(shape[-2:] == (4, 4) for shape in calls)
        assert sum(shape[0] for shape in calls if len(shape) == 3) >= 200

    def test_trion_population_is_local_minimum_at_resonance(self):
        p = CptParams()
        pop = [steady_state(build_cpt_three_level(p, w)).population(2)
               for w in (2.59, 2.60, 2.61)]
        assert pop[1] < pop[0] and pop[1] < pop[2]


class TestFourLevel:
    def test_infinite_cyclicity_decouples(self):
        params = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=59.0, delta_ghz=0.0,
                               cyclicity=1e12, gamma1_mhz=rate_mhz_from_lifetime(0.27))
        model = build_faraday_four_level(params, TwoToneDrive(300.0, 0.0), "sigma-")
        h = model.hamiltonian(0.0)
        assert abs(h[2, 1]) / abs(h[2, 0]) <= 1e-6
        traj = evolve(model, DensityMatrix.pure(4, 0), np.linspace(0, 400, 21))
        assert traj.population(1).max() <= 1e-4  # stays in the driven manifold

    def test_symmetric_lambda_pi_pulse(self):
        # C = 1, equal tones: adiabatic-elimination pi pulse transfers the spin
        params = FaradayParams(omega_e_ghz=2.0, omega_h_ghz=59.0, delta_ghz=40.0,
                               cyclicity=1.0, gamma1_mhz=0.0)
        drive0 = TwoToneDrive(600.0, 600.0, 0.0)
        omega_eff = faraday_two_photon_rabi_mhz(params, drive0, "sigma-")
        rf = 2.0 + faraday_stark_shift_ghz(params, drive0, "sigma-")
        model = build_faraday_four_level(params, replace(drive0, delta_rf_ghz=rf), "sigma-")
        t_pi = 1e3 / (2 * omega_eff)
        traj = evolve(model, DensityMatrix.pure(4, 1), np.linspace(0, 1.1 * t_pi, 45))
        pd = traj.population(0)
        assert pd.max() >= 0.95
        assert traj.times[np.argmax(pd)] == pytest.approx(t_pi, rel=0.05)

    def test_raman_flopping_matches_effective_two_level(self):
        # adiabatic-elimination check against build_two_level at the derived Rabi
        params = FaradayParams(omega_e_ghz=2.0, omega_h_ghz=59.0, delta_ghz=40.0,
                               cyclicity=1.0, gamma1_mhz=0.0)
        drive0 = TwoToneDrive(600.0, 600.0, 0.0)
        omega_eff = faraday_two_photon_rabi_mhz(params, drive0, "sigma-")
        rf = 2.0 + faraday_stark_shift_ghz(params, drive0, "sigma-")
        model4 = build_faraday_four_level(params, replace(drive0, delta_rf_ghz=rf), "sigma-")
        model2 = build_two_level(omega_eff, 0.0, 0.0, 0.0)
        t_pi = 1e3 / (2 * omega_eff)
        t = np.linspace(0, 1.2 * t_pi, 49)
        p4 = evolve(model4, DensityMatrix.pure(4, 1), t).population(0)
        p2 = evolve(model2, DensityMatrix.pure(2, 1), t).population(0)
        # flop frequency within 5% of the closed-form two-photon Rabi
        assert t[np.argmax(p4)] == pytest.approx(t_pi, rel=0.05)
        # the traces track pointwise over the first flop
        assert np.max(np.abs(p4 - p2)) <= 0.05

    def test_stark_shift_signs(self):
        params = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=150.0, delta_ghz=600.0,
                               cyclicity=409.0, gamma1_mhz=rate_mhz_from_lifetime(0.27))
        drive = TwoToneDrive(5000.0, 5000.0, 2.6)
        assert faraday_stark_shift_ghz(params, drive, "sigma-") < 0
        assert faraday_stark_shift_ghz(params, drive, "sigma+") > 0

    def test_decay_apportionment(self):
        params = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=59.0, delta_ghz=0.0,
                               cyclicity=409.0, gamma1_mhz=589.46)
        assert params.gamma_sc_mhz + params.gamma_sp_mhz == pytest.approx(params.gamma1_mhz)
        assert params.gamma_sc_mhz / params.gamma_sp_mhz == pytest.approx(409.0)

    def test_calibration_hits_target(self):
        params = FaradayParams(omega_e_ghz=10.0, omega_h_ghz=150.0, delta_ghz=50.0,
                               cyclicity=25.0, gamma1_mhz=rate_mhz_from_lifetime(5.4))
        drive, rf = calibrate_faraday_drive(params, 226.8, "sigma-")
        assert drive.delta_rf_ghz == rf
        coherent = build_faraday_four_level(params, drive, "sigma-")
        flip = faraday_flip_projector(params)
        t_pi = 1e3 / (2 * 226.8)
        beat = 2 * math.pi / abs(ghz_to_angular(rf))
        tg = np.unique(np.clip(t_pi + (np.arange(16) / 16 - 0.5) * beat, 0, None))
        traj = evolve(coherent, DensityMatrix.pure(4, 1), np.r_[0.0, tg])
        f_pi = np.mean([expectation(s, flip) for s in traj.states[1:]])
        assert f_pi >= 0.99


class TestDerivedScalars:
    def test_cyclicity_device1(self):
        c = cyclicity(0.7, 203.0)
        assert c.cyclicity == pytest.approx(289.0, abs=3.0)
        assert c.branching == pytest.approx(0.0034, abs=0.0003)

    def test_cyclicity_device2(self):
        c = cyclicity(0.270, 111.0)
        assert c.cyclicity == pytest.approx(409.0, abs=6.0)
        assert c.branching == pytest.approx(0.0024, abs=0.0002)

    def test_cyclicity_arithmetic(self):
        c = cyclicity(1.0, 2.0)
        assert c.cyclicity == pytest.approx(1.0)
        assert c.branching == pytest.approx(0.5)

    def test_cyclicity_domain(self):
        with pytest.raises(DomainError):
            cyclicity(2.0, 1.0)

    def test_g_factor_values(self):
        assert g_factor(2.60, 6.5) == pytest.approx(0.0286, abs=0.0002)
        assert g_factor(0.0, 3.0) == 0.0
        assert g_factor(1.0, 1.0) == pytest.approx(0.07145, abs=0.0001)

    def test_g_factor_domain(self):
        with pytest.raises(DomainError):
            g_factor(2.6, 0.0)

    @pytest.mark.parametrize("lifetime", [0.0, -0.27, math.nan, math.inf])
    def test_lifetime_must_be_finite_and_positive(self, lifetime):
        with pytest.raises(UsageError, match="lifetime"):
            rate_mhz_from_lifetime(lifetime)


class TestPiContrast:
    def test_paper_values(self):
        assert pi_contrast_and_q(0.968).q == pytest.approx(15.1, abs=0.1)
        assert pi_contrast_and_q(0.974).q == pytest.approx(18.8, abs=0.2)

    def test_lossless_limit_flag(self):
        r = pi_contrast_and_q(1.0)
        assert math.isinf(r.q) and r.flag == "unbounded"

    def test_no_contrast_flag(self):
        r = pi_contrast_and_q(0.45)
        assert r.q == 0.0 and r.flag == "no-contrast"

    def test_monotone_in_f_pi(self):
        f = np.linspace(0.52, 0.999, 40)
        q = [pi_contrast_and_q(x).q for x in f]
        assert np.all(np.diff(q) > 0)


FARADAY = dict(omega_e_ghz=2.6, omega_h_ghz=6.0, delta_ghz=4.0, cyclicity=409.0, gamma1_mhz=589.463)
TWO_LEVEL_ARGS = dict(omega_mhz=100.0, delta_mhz=5.0, gamma1_mhz=0.3, gamma2_mhz=1.5, phase=0.2)


# every field of each physics record and argument of build_two_level, with a
# non-finite value: a NaN passes every "< 0" check, so a NaN Gamma1 once ran
# as no relaxation at all, and a NaN CPT splitting ended in numpy's LinAlgError
NON_FINITE_PHYSICS = (
    [(TwoLevelPhysics, {}, name, value) for name, value in
     [("gamma1_mhz", math.nan), ("gamma2_mhz", math.inf), ("epsilon_init", math.nan)]]
    + [(FaradayParams, FARADAY, name, math.nan) for name in (*FARADAY, "bigGamma1_mhz", "bigGamma2_mhz")]
    + [(FaradayParams, FARADAY, "cyclicity", math.inf)]
    + [(CptParams, {}, name, math.nan) for name in ("omega_e0_ghz", "delta_ghz", "omega_down", "omega_up",
                                                     "gamma1_inv_ns", "gamma2", "trion_lifetime_ns",
                                                     "spin_flip_time_ns")]
    + [(build_two_level, TWO_LEVEL_ARGS, name, value) for name, value in
       [("omega_mhz", math.nan), ("delta_mhz", math.inf), ("gamma1_mhz", math.nan), ("gamma2_mhz", -math.inf),
        ("phase", math.nan)]]
)


@pytest.mark.parametrize("make, valid, key, value", NON_FINITE_PHYSICS,
                         ids=[f"{make.__name__}-{key}" for make, _, key, _ in NON_FINITE_PHYSICS])
def test_physics_rejects_non_finite_field(make, valid, key, value):
    make(**valid)
    with pytest.raises(UsageError, match="must be finite"):
        make(**{**valid, key: value})
