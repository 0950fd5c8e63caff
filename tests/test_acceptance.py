"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with ``pytest -s`` to see them
inline; they are also captured in the test report).
"""

import math

import numpy as np
import pytest

import fss
from fss.cli import main as cli_main
from fss.core import CollapseChannel, DensityMatrix, LindbladModel, evolve
from fss.ensemble import ensemble_average, gaussian_sigma
from fss.fitting import MODEL_LIBRARY, FitModel, fit, larmor_frequencies, linewidth_from_t2star, t2star_from_linewidth
from fss.models import CptParams, FaradayParams, cpt_spectrum, cyclicity, g_factor
from fss.raman import (
    JonesVector,
    differential_stark,
    eta_from_slope,
    jones_through_waveplates,
    raman_coupling_in_plane,
)
from fss.sequences import (
    TwoLevelPhysics,
    faraday_pi_contrast,
    hahn_echo_protocol,
    rabi_q_protocol,
    ramsey_protocol,
    simulate_protocol,
    two_level_pi_contrast,
)
from fss.units import mhz_to_angular, rate_mhz_from_lifetime


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


class TestCriterion1ClosedForm:
    def test_closed_form_numbers(self):
        c1 = cyclicity(0.7, 203.0).cyclicity
        assert c1 == pytest.approx(289.0, abs=3.0)
        c2 = cyclicity(0.270, 111.0).cyclicity
        assert c2 == pytest.approx(409.0, abs=6.0)

        ratio = abs(differential_stark(1.0, math.sqrt(409.0)))
        assert ratio == pytest.approx(10.08, abs=0.05)

        eta_plus = eta_from_slope(17.2)
        eta_minus = eta_from_slope(-7.4)
        assert eta_plus == pytest.approx(34.0, abs=1.0)
        assert eta_minus == pytest.approx(15.0, abs=1.0)

        g = g_factor(2.60, 6.5)
        assert g == pytest.approx(0.0286, abs=0.0002)

        sigma_laser = 7.4 * 250.0 * 0.01
        assert sigma_laser == 18.5

        freqs = larmor_frequencies(6.5)
        for val, ref in zip(freqs.values(), (47.4, 66.4, 84.4)):
            assert val == pytest.approx(ref, abs=1.0)

        t2 = t2star_from_linewidth(7.0)
        assert t2 == pytest.approx(74.0, abs=11.0)
        assert linewidth_from_t2star(74.0) == pytest.approx(7.0, abs=1.0)

        report("1 closed-form numbers",
               f"C={c1:.0f}/{c2:.0f}, stark {ratio:.2f}, eta {eta_plus:.1f}/{eta_minus:.1f}, "
               f"g={g:.4f}, sigma_laser={sigma_laser}, larmor OK, 7 MHz <-> {t2:.1f} ns")


class TestCriterion2Cpt:
    def test_cpt_dip_and_refit(self):
        grid = np.linspace(2.40, 2.80, 81)
        true = CptParams()
        spec = cpt_spectrum(true, grid)
        k = int(np.argmin(spec))
        assert grid[k] == pytest.approx(2.60, abs=0.01)

        def model_fn(x, omega_e0, omega_down, omega_up, gamma2):
            p = CptParams(omega_e0_ghz=omega_e0, omega_down=abs(omega_down),
                          omega_up=abs(omega_up), gamma2=abs(gamma2))
            return cpt_spectrum(p, x)

        model = FitModel("cpt_steady_state", ("omega_e0", "omega_down", "omega_up", "gamma2"), model_fn)
        r = fit(model, grid, spec,
                {"omega_e0": 2.62, "omega_down": 8.4, "omega_up": 0.22, "gamma2": 0.45})
        recovered = {
            "omega_e0": (r["omega_e0"], 2.60),
            "omega_down": (r["omega_down"], 9.3),
            "omega_up": (r["omega_up"], 0.19),
            "gamma2": (r["gamma2"], 0.53),
        }
        for name, (got, want) in recovered.items():
            assert got == pytest.approx(want, rel=0.05), name
        report("2 CPT reproduction",
               f"dip at {grid[k]:.3f} GHz; refit " +
               ", ".join(f"{n}={v[0]:.3g}" for n, v in recovered.items()))


class TestCriterion3Rabi:
    def test_two_level_pipeline_and_four_level_agreement(self):
        two = two_level_pi_contrast(226.8, 0.8, 3.7, t2star_ns=34.0)
        assert two.f_pi == pytest.approx(0.968, abs=0.005)
        assert two.q == pytest.approx(15.1, abs=1.0)

        # four-level model at matched effective parameters (Omega, Gamma1,
        # Gamma2, T2*), run in the adiabatic regime where the reduction to
        # the two-level model is controlled
        params = FaradayParams(
            omega_e_ghz=10.0, omega_h_ghz=150.0, delta_ghz=50.0, cyclicity=25.0,
            gamma1_mhz=rate_mhz_from_lifetime(5.4),
            bigGamma1_mhz=0.8, bigGamma2_mhz=3.7,
        )
        four = faraday_pi_contrast(params, 226.8, t2star_ns=34.0, nodes=9)
        assert abs(four.f_pi - two.f_pi) <= 0.01
        report("3 Rabi reproduction",
               f"two-level f_pi={two.f_pi:.4f}, Q={two.q:.1f}; "
               f"four-level f_pi={four.f_pi:.4f} (diff {abs(four.f_pi - two.f_pi) * 100:.2f} pts)")


class TestCriterion4IntensityNoise:
    def test_q_degrades_with_intensity_noise(self):
        prot = rabi_q_protocol([60.0, 225.0], [0.0, 0.01, 0.02, 0.04])
        res = simulate_protocol(prot, TwoLevelPhysics())
        q = res.signal  # shape (omega, di)
        for row in q:
            assert np.all(np.diff(row) <= 1e-9)
        assert q[1, 3] < 0.6 * q[1, 0]
        report("4 intensity-noise trend",
               f"Q(225 MHz): {q[1, 0]:.2f} -> {q[1, 3]:.2f} over dI/I 0 -> 0.04")


class TestCriterion5RamseyEcho:
    def test_t2star_round_trips(self):
        recovered = {}
        for t2star in (8.0, 17.0, 34.0, 74.0):
            delta = 229.0 if t2star < 20 else 100.0
            tau = np.linspace(0.0, 2.5 * t2star, 101)
            prot = ramsey_protocol(125.0, delta, tau)
            res = simulate_protocol(prot, TwoLevelPhysics(),
                                    fss.EnsembleSpec(t2star_ns=t2star), ideal_pulses=True)
            r = fit(MODEL_LIBRARY["damped_ramsey"], tau, res.signal,
                    {"amplitude": 0.9, "delta_mhz": delta * 1.05, "phase": 1.4,
                     "t2star_ns": t2star * 0.8})
            assert r["t2star_ns"] == pytest.approx(t2star, rel=0.05)
            recovered[t2star] = r["t2star_ns"]
        report("5a Ramsey T2* round trips",
               ", ".join(f"{k:g}->{v:.1f} ns" for k, v in recovered.items()))

    def test_echo_envelope_and_static_cancellation(self):
        grid = np.linspace(0.0, 2000.0, 21)
        prot = hahn_echo_protocol(125.0, grid, t2he_ns=1140.0)
        res = simulate_protocol(prot, TwoLevelPhysics(),
                                fss.EnsembleSpec(t2star_ns=34.0, nodes=9), ideal_pulses=True)
        r = fit(MODEL_LIBRARY["echo_envelope"], grid, res.signal,
                {"amplitude": 1.0, "t2he_ns": 900.0})
        assert r["t2he_ns"] == pytest.approx(1140.0, rel=0.05)

        bare = hahn_echo_protocol(125.0, np.linspace(0.0, 1000.0, 9))
        res2 = simulate_protocol(bare, TwoLevelPhysics(),
                                 fss.EnsembleSpec(t2star_ns=34.0, nodes=9), ideal_pulses=True)
        assert np.all(res2.signal >= 0.99)
        report("5b echo", f"T2HE refit {r['t2he_ns']:.0f} ns; static contrast >= {res2.signal.min():.4f}")

    def test_serrodyne_shift(self):
        tau = np.linspace(0.0, 60.0, 181)
        base = ramsey_protocol(125.0, 12.0, tau, f_serr_mhz=0.0)
        res0 = simulate_protocol(base, TwoLevelPhysics(),
                                 fss.EnsembleSpec(t2star_ns=74.0), ideal_pulses=True)
        r0 = fit(MODEL_LIBRARY["damped_ramsey"], tau, res0.signal,
                 {"amplitude": 0.9, "delta_mhz": 13.0, "phase": 1.5, "t2star_ns": 60.0})
        serr = ramsey_protocol(125.0, 12.0, tau, f_serr_mhz=100.0)
        res1 = simulate_protocol(serr, TwoLevelPhysics(),
                                 fss.EnsembleSpec(t2star_ns=74.0), ideal_pulses=True)
        r1 = fit(MODEL_LIBRARY["serrodyne_ramsey"], tau, res1.signal,
                 {"amplitude": 0.9, "freq_mhz": 108.0, "t2star_ns": 60.0})
        shift = r1["freq_mhz"] - r0["delta_mhz"]
        tol = max(math.hypot(r1.error("freq_mhz"), r0.error("delta_mhz")), 0.05)
        assert shift == pytest.approx(100.0, abs=tol)
        report("5c serrodyne", f"fringe shift {shift:.3f} MHz (tol {tol:.3f})")


class TestCriterion6PropertySuites:
    def test_density_matrix_invariants_on_random_models(self):
        rng = np.random.default_rng(20250808)
        worst_herm = worst_trace = worst_eig = 0.0
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (a + a.conj().T) * rng.uniform(0.2, 3.0)
            chans = []
            for _ in range(int(rng.integers(1, 4))):
                op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                chans.append(CollapseChannel(float(rng.uniform(0.1, 8.0)),
                                             op / np.linalg.norm(op)))
            model = LindbladModel(dim=dim, h0=h, channels=tuple(chans))
            rho0 = DensityMatrix.from_populations(rng.dirichlet(np.ones(dim)))
            traj = evolve(model, rho0, np.linspace(0.0, 3.0, 4))
            for s in traj.states:
                m = s.matrix
                worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
                worst_trace = max(worst_trace, abs(float(np.trace(m).real) - 1.0))
                worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m).min()))
        assert worst_herm <= 1e-10
        assert worst_trace <= 1e-8
        assert worst_eig >= -1e-8
        report("6a invariants (200 random models)",
               f"herm {worst_herm:.1e}, trace {worst_trace:.1e}, min eig {worst_eig:.1e}")

    def test_analytic_rabi_and_expm_oracle(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        omega = 100.0
        model = LindbladModel(dim=2, h0=(mhz_to_angular(omega) / 2) * sx)
        t = np.linspace(0.0, 10.0, 201)
        traj = evolve(model, DensityMatrix.pure(2, 1), t)
        err_rabi = float(np.max(np.abs(traj.population(0) - np.sin(np.pi * omega * 1e-3 * t) ** 2)))
        assert err_rabi <= 1e-6

        from test_core import expm_stepping_oracle
        from fss.models import TwoToneDrive, build_faraday_four_level

        params = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=59.0, delta_ghz=0.0,
                               cyclicity=409.0, gamma1_mhz=rate_mhz_from_lifetime(0.27),
                               bigGamma1_mhz=0.0035, bigGamma2_mhz=0.08)
        model4 = build_faraday_four_level(params, TwoToneDrive(300.0, 0.0), "sigma-")
        traj4 = evolve(model4, DensityMatrix.pure(4, 0), np.array([0.0, 20.0]))
        oracle = expm_stepping_oracle(model4, DensityMatrix.pure(4, 0), 20.0, dt=0.01)
        err_oracle = float(np.max(np.abs(
            np.real(np.diag(traj4.final_state.matrix)) - np.real(np.diag(oracle)))))
        assert err_oracle <= 1e-6
        report("6b integrator", f"analytic Rabi err {err_rabi:.1e}, expm oracle err {err_oracle:.1e}")

    def test_quadrature_waveplates_and_raman_zero(self):
        t2star = 34.0
        sigma = gaussian_sigma(t2star)
        tau = np.linspace(0.0, 3 * t2star, 25)
        avg = ensemble_average(lambda d: np.cos(2e-3 * np.pi * d * tau), sigma)
        err_quad = float(np.max(np.abs(avg - np.exp(-((tau / t2star) ** 2)))))
        assert err_quad <= 1e-6

        rng = np.random.default_rng(5)
        worst_norm = 0.0
        for _ in range(50):
            mix = rng.uniform(0.01, 0.99)
            state = JonesVector(math.sqrt(1 - mix), math.sqrt(mix) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            out = jones_through_waveplates(state, rng.uniform(-180, 180), rng.uniform(-180, 180))
            worst_norm = max(worst_norm, abs(abs(out.h) ** 2 + abs(out.v) ** 2 - 1.0))
        assert worst_norm <= 1e-12

        assert raman_coupling_in_plane(0.08 + 0.03j, 1.7, 1.7, 600.0, 0.0) == 0.0
        report("6c quadrature/waveplates/raman",
               f"quadrature err {err_quad:.1e}, waveplate norm err {worst_norm:.1e}, interference zero exact")


MC_CASES = {
    "linear": (np.linspace(0, 10, 40), {"slope": 0.131, "intercept": 0.4}, 0.05),
    "exp_decay": (np.linspace(0, 600, 80), {"amplitude": 900.0, "tau": 111.0, "offset": 25.0}, 9.0),
    "saturation": (np.linspace(2, 300, 50), {"r_inf": 9.0, "p_sat": 48.0}, 0.09),
    "gaussian_peak": (np.linspace(-80, 80, 90), {"amplitude": 5.0, "center": 4.0, "fwhm": 31.0, "offset": 1.0}, 0.05),
    "damped_ramsey": (np.linspace(0, 40, 120), {"amplitude": 0.95, "delta_mhz": 75.0, "phase": 0.4, "t2star_ns": 34.0}, 0.02),
    "echo_envelope": (np.linspace(0, 2500, 60), {"amplitude": 0.97, "t2he_ns": 1140.0}, 0.01),
    "serrodyne_ramsey": (np.linspace(0, 22, 120), {"amplitude": 0.9, "freq_mhz": 112.0, "t2star_ns": 74.0}, 0.02),
    "lorentzian_multi": (np.linspace(-3, 3, 120), {"offset": 0.2, "amp1": 4.0, "center1": 0.3, "fwhm1": 0.8}, 0.04),
}


class TestCriterion7FitCalibration:
    @pytest.mark.parametrize("name", sorted(MC_CASES))
    def test_noiseless_and_monte_carlo(self, name):
        model = MODEL_LIBRARY[name]
        x, true, noise = MC_CASES[name]
        clean = model(x, *[true[n] for n in model.param_names])

        exact = fit(model, x, clean, {k: v * 1.05 for k, v in true.items()})
        for k, v in true.items():
            assert exact[k] == pytest.approx(v, rel=1e-6), k

        rng = np.random.default_rng(hash(name) % 2**32)
        hits = 0
        for _ in range(100):
            y = clean + rng.normal(0.0, noise, x.size)
            p0 = {k: v * float(rng.uniform(0.92, 1.08)) for k, v in true.items()}
            r = fit(model, x, y, p0)
            if all(abs(r[k] - v) <= 3 * r.error(k) for k, v in true.items()):
                hits += 1
        assert hits >= 95
        report(f"7 fit calibration [{name}]", f"noiseless exact, 3-sigma coverage {hits}/100")


class TestCriterion8Determinism:
    def test_bundled_scenario_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            rc = cli_main(["simulate", "fig2b", "--out", str(tmp_path / sub)])
            assert rc == 0
        a = (tmp_path / "a" / "fig2b_spectrum.csv").read_bytes()
        b = (tmp_path / "b" / "fig2b_spectrum.csv").read_bytes()
        assert a == b

        noisy = (
            "[scenario]\nname = seeded\n\n[physics]\nkind = two_level\n"
            "gamma1 = 0.5 MHz\ngamma2 = 2.0 MHz\n\n[protocol t]\nkind = rabi\n"
            "omega = 100 MHz\ndelta = 0 MHz\ntau_start = 0 ns\ntau_stop = 20 ns\n"
            "tau_points = 21\n\n[output]\ncounts_per_shot = 300\nseed = 11\n"
        )
        path = tmp_path / "seeded.scenario"
        path.write_text(noisy, encoding="utf-8")
        for sub in ("c", "d"):
            assert cli_main(["simulate", str(path), "--out", str(tmp_path / sub)]) == 0
        c = (tmp_path / "c" / "seeded_t.csv").read_bytes()
        d = (tmp_path / "d" / "seeded_t.csv").read_bytes()
        assert c == d
        report("8 determinism", "fig2b and seeded shot-noise reruns byte-identical")
