import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fss.errors import DataError, DomainError, UsageError
from fss.fitting import (
    _find_peaks,
    MODEL_LIBRARY,
    FitModel,
    fft_spectrum,
    fit,
    fit_rabi_master_equation,
    fit_result_json,
    fit_result_text,
    get_model,
    larmor_frequencies,
    linewidth_from_t2star,
    lorentzian_multi,
    read_data_csv,
    refine_peak,
    t2star_from_linewidth,
)

# per-model synthetic setups: (x grid, true parameter dict)
MODEL_CASES = {
    "linear": (np.linspace(0, 10, 40), {"slope": 0.131, "intercept": 0.4}),
    "exp_decay": (np.linspace(0, 600, 80), {"amplitude": 900.0, "tau": 111.0, "offset": 25.0}),
    "saturation": (np.linspace(2, 300, 50), {"r_inf": 9.0, "p_sat": 48.0}),
    "gaussian_peak": (np.linspace(-80, 80, 90), {"amplitude": 5.0, "center": 4.0, "fwhm": 31.0, "offset": 1.0}),
    "damped_ramsey": (np.linspace(0, 40, 120), {"amplitude": 0.95, "delta_mhz": 75.0, "phase": 0.4, "t2star_ns": 34.0}),
    "echo_envelope": (np.linspace(0, 2500, 60), {"amplitude": 0.97, "t2he_ns": 1140.0}),
    "serrodyne_ramsey": (np.linspace(0, 22, 120), {"amplitude": 0.9, "freq_mhz": 112.0, "t2star_ns": 74.0}),
    "lorentzian_multi": (np.linspace(-3, 3, 120), {"offset": 0.2, "amp1": 4.0, "center1": 0.3, "fwhm1": 0.8}),
}


def _params_vec(model, true):
    return [true[name] for name in model.param_names]


def _counting(model, bounds=None):
    """``model`` with ``bounds``, recording each call in the returned list."""
    calls = []

    def func(*args):
        calls.append(args)
        return model.func(*args)

    return FitModel("counted", model.param_names, func, bounds=bounds), calls


class TestFitEngine:
    def test_fixed_point_on_exact_data(self):
        model = MODEL_LIBRARY["exp_decay"]
        x, true = MODEL_CASES["exp_decay"]
        y = model(x, *_params_vec(model, true))
        r = fit(model, x, y, true)
        assert r.residual_norm <= 1e-9
        for name, val in true.items():
            assert r[name] == pytest.approx(val, rel=1e-9)

    def test_linear_matches_closed_form(self):
        x = np.linspace(0, 5, 30)
        y = 2.0 * x - 0.7
        r = fit(MODEL_LIBRARY["linear"], x, y, {"slope": 1.0, "intercept": 0.0})
        design = np.stack([x, np.ones_like(x)], axis=1)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert r["slope"] == pytest.approx(beta[0], abs=1e-10)
        assert r["intercept"] == pytest.approx(beta[1], abs=1e-10)

    @pytest.mark.parametrize("name", sorted(MODEL_CASES))
    def test_noiseless_recovery_from_perturbed_guess(self, name):
        model = MODEL_LIBRARY[name]
        x, true = MODEL_CASES[name]
        y = model(x, *_params_vec(model, true))
        p0 = {k: v * 1.2 if v != 0 else 0.1 for k, v in true.items()}
        r = fit(model, x, y, p0)
        for k, v in true.items():
            assert r[k] == pytest.approx(v, rel=1e-6), (name, k)

    def test_monte_carlo_error_calibration(self):
        # quick single-model calibration; the full per-model sweep runs in
        # the acceptance suite
        model = MODEL_LIBRARY["damped_ramsey"]
        x, true = MODEL_CASES["damped_ramsey"]
        clean = model(x, *_params_vec(model, true))
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(100):
            y = clean + rng.normal(0, 0.02, x.size)
            p0 = {k: v * float(rng.uniform(0.9, 1.1)) for k, v in true.items()}
            r = fit(model, x, y, p0)
            if all(abs(r[k] - v) <= 3 * r.error(k) for k, v in true.items()):
                hits += 1
        assert hits >= 95

    def test_error_bars_invariant_under_y_rescale(self):
        model = MODEL_LIBRARY["exp_decay"]
        x, true = MODEL_CASES["exp_decay"]
        rng = np.random.default_rng(13)
        y = model(x, *_params_vec(model, true)) + rng.normal(0, 3.0, x.size)
        r1 = fit(model, x, y, true)
        scaled = {**true, "amplitude": true["amplitude"] * 1e3, "offset": true["offset"] * 1e3}
        r2 = fit(model, x, 1e3 * y, scaled)
        assert r2.error("tau") == pytest.approx(r1.error("tau"), rel=1e-8)
        assert r2.error("amplitude") == pytest.approx(1e3 * r1.error("amplitude"), rel=1e-8)

    def test_fixed_parameters(self):
        model = MODEL_LIBRARY["linear"]
        x = np.linspace(0, 10, 20)
        y = 0.131 * x
        r = fit(model, x, y, {"slope": 0.1}, fixed={"intercept": 0.0})
        assert r["slope"] == pytest.approx(0.131, rel=1e-9)
        assert r["intercept"] == 0.0
        assert "intercept" in r.fixed

    def test_non_convergence_flagged(self):
        model = MODEL_LIBRARY["damped_ramsey"]
        x, true = MODEL_CASES["damped_ramsey"]
        y = model(x, *_params_vec(model, true))
        r = fit(model, x, y, {"amplitude": 0.5, "delta_mhz": 20.0, "phase": 0.0, "t2star_ns": 5.0},
                max_nfev=3)
        assert not r.converged
        assert r.status == "max-iterations"
        assert np.isfinite(r.params).all()

    def test_rank_deficiency_names_parameters(self):
        model = MODEL_LIBRARY["linear"]
        x = np.ones(12)
        r = fit(model, x, 2.0 * x, {"slope": 1.0, "intercept": 1.0})
        assert r.status == "rank-deficient"
        assert len(r.unidentifiable) >= 1
        assert all(math.isinf(r.error(n)) for n in r.unidentifiable)

    @pytest.mark.parametrize("bounded", [False, True], ids=["lm", "trf"])
    def test_n_eval_counts_every_model_call(self, bounded):
        base = MODEL_LIBRARY["exp_decay"]
        x, true = MODEL_CASES["exp_decay"]
        y = base(x, *_params_vec(base, true)) + np.random.default_rng(5).normal(0, 3.0, x.size)
        model, calls = _counting(base, base.bounds if bounded else None)
        r = fit(model, x, y, {k: v * 1.1 for k, v in true.items()})
        # after the optimisation, the error bars take one residual and one
        # forward difference per free parameter
        assert r.n_eval == len(calls) - 1 - len(r.param_names)

    def test_multi_peak_lorentzian(self):
        model = lorentzian_multi(2)
        x = np.linspace(-5, 5, 200)
        true = [0.1, 3.0, -1.2, 0.7, 1.5, 2.0, 0.5]
        y = model(x, *true)
        p0 = [0.0, 2.5, -1.0, 0.9, 1.2, 1.8, 0.7]
        r = fit(model, x, y, dict(zip(model.param_names, p0)))
        assert r["center1"] == pytest.approx(-1.2, abs=1e-6)
        assert r["center2"] == pytest.approx(2.0, abs=1e-6)

    def test_unknown_model_rejected(self):
        with pytest.raises(UsageError):
            get_model("polynomial")


_TAU = np.linspace(0.0, 30.0, 25)
_COUNTS = 60.0 + 400.0 * np.sin(0.2 * _TAU) ** 2


class TestRabiMasterEquationFit:
    def test_round_trip(self):
        from fss.sequences import TwoLevelPhysics, rabi_protocol, simulate_protocol
        from fss.ensemble import EnsembleSpec

        tau = np.linspace(0, 66, 111)
        prot = rabi_protocol(226.8, 0.0, tau)
        res = simulate_protocol(prot, TwoLevelPhysics(gamma1_mhz=0.8, gamma2_mhz=3.7),
                                EnsembleSpec(t2star_ns=34.0, nodes=11))
        counts = 480.0 * res.signal + 60.0
        r, contrast = fit_rabi_master_equation(
            tau, counts, omega0_mhz=229.0, gamma2_0_mhz=3.0,
            t2star_ns=34.0, gamma1_mhz=0.8,
        )
        assert r["omega_mhz"] == pytest.approx(226.8, rel=0.005)
        assert r["gamma2_mhz"] == pytest.approx(3.7, rel=0.10)
        assert r["scale"] == pytest.approx(480.0, rel=0.02)
        assert contrast.f_pi == pytest.approx(0.969, abs=0.005)

    def test_undamped_trace_unbounded_q(self):
        from fss.sequences import TwoLevelPhysics, rabi_protocol, simulate_protocol

        tau = np.linspace(0, 25, 101)
        prot = rabi_protocol(200.0, 0.0, tau)
        res = simulate_protocol(prot, TwoLevelPhysics())
        r, contrast = fit_rabi_master_equation(
            tau, res.signal, omega0_mhz=201.0, gamma2_0_mhz=0.0,
            t2star_ns=1e9, gamma1_mhz=0.0,
        )
        assert contrast.flag == "unbounded"

    def test_best_case_quality_factor(self):
        # generated at the drive and dephasing of the best measured pi pulse
        from fss.sequences import TwoLevelPhysics, rabi_protocol, simulate_protocol
        from fss.ensemble import EnsembleSpec

        omega, gamma2 = 217.0, 2.5
        gamma1 = 0.0048 * omega
        tau = np.linspace(0, 60, 121)
        prot = rabi_protocol(omega, 0.0, tau)
        res = simulate_protocol(prot, TwoLevelPhysics(gamma1_mhz=gamma1, gamma2_mhz=gamma2),
                                EnsembleSpec(t2star_ns=34.0, nodes=11))
        r, contrast = fit_rabi_master_equation(
            tau, res.signal, omega0_mhz=215.0, gamma2_0_mhz=3.0,
            t2star_ns=34.0, gamma1_mhz=gamma1,
        )
        assert contrast.q == pytest.approx(18.8, abs=1.0)
        assert contrast.f_pi == pytest.approx(0.974, abs=0.002)

    def test_matches_nelder_mead_oracle(self):
        # a noisy trace like the benchmark's; the oracle minimises the same
        # sum of squares by Nelder-Mead over (Omega, Gamma2), with scale and
        # offset solved linearly at every step
        from scipy.optimize import minimize
        from fss.sequences import TwoLevelPhysics, rabi_protocol, simulate_protocol
        from fss.ensemble import EnsembleSpec

        ensemble = EnsembleSpec(t2star_ns=34.0, nodes=9)
        tau = np.linspace(0.0, 30.0, 25)

        def population(omega, gamma2):
            physics = TwoLevelPhysics(gamma1_mhz=0.4, gamma2_mhz=gamma2)
            return simulate_protocol(rabi_protocol(omega, 0.0, tau), physics, ensemble).signal

        counts = 480.0 * population(60.0, 3.7) + 60.0 + np.random.default_rng(7).normal(0.0, 0.4, tau.size)
        r, _ = fit_rabi_master_equation(tau, counts, omega0_mhz=60.6, gamma2_0_mhz=2.96,
                                        t2star_ns=34.0, gamma1_mhz=0.4, nodes=9)

        def projected(p):
            s = population(*p)
            basis = np.stack([s, np.ones_like(s)], axis=1)
            coef, *_ = np.linalg.lstsq(basis, counts, rcond=None)
            return coef, float(np.sum((basis @ coef - counts) ** 2))

        oracle = minimize(lambda p: projected(p)[1], [60.6, 2.96], method="Nelder-Mead",
                          options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 400})
        assert oracle.success
        expected = [*oracle.x, *projected(oracle.x)[0]]
        for name, value in zip(("omega_mhz", "gamma2_mhz", "scale", "offset"), expected):
            assert abs(r[name] - value) <= 0.05 * r.error(name), name
        assert r.n_eval < 60  # a derivative-free walk takes over 100

    @pytest.mark.parametrize("field, bad", [
        ("counts", {"counts": np.r_[_COUNTS[:3], np.nan, _COUNTS[4:]]}),
        ("counts", {"counts": _COUNTS[:-1]}),
        ("counts", {"counts": _COUNTS[None, :]}),
        ("tau_ns", {"tau_ns": np.r_[np.inf, _TAU[1:]]}),
        ("tau_ns", {"tau_ns": _TAU[:4], "counts": _COUNTS[:4]}),
        ("omega0_mhz", {"omega0_mhz": -60.0}),
        ("omega0_mhz", {"omega0_mhz": 0.0}),
        ("omega0_mhz", {"omega0_mhz": np.nan}),
        ("gamma2_0_mhz", {"gamma2_0_mhz": -1.0}),
        ("gamma2_0_mhz", {"gamma2_0_mhz": np.inf}),
        ("t2star_ns", {"t2star_ns": 0.0}),
        ("gamma1_mhz", {"gamma1_mhz": -0.1}),
    ], ids=["nan-count", "short-counts", "2d-counts", "inf-tau", "four-points", "negative-omega0",
            "zero-omega0", "nan-omega0", "negative-gamma2", "inf-gamma2", "zero-t2star",
            "negative-gamma1"])
    def test_bad_input_fails_before_simulating(self, monkeypatch, field, bad):
        import fss.sequences

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before validating the input")

        monkeypatch.setattr(fss.sequences, "simulate_protocol", no_simulation)
        good = {"tau_ns": _TAU, "counts": _COUNTS, "omega0_mhz": 60.0, "gamma2_0_mhz": 3.0,
                "t2star_ns": 34.0, "gamma1_mhz": 0.4}
        with pytest.raises(UsageError, match=field):
            fit_rabi_master_equation(**{**good, **bad})


class TestSpectra:
    def test_pure_tone_peak(self):
        t = np.arange(1024)
        y = np.cos(2 * np.pi * 0.0474 * t)
        spec = fft_spectrum(t, y)
        assert spec.peaks[0][0] == pytest.approx(47.4, abs=0.5)

    def test_constant_trace_no_peaks(self):
        spec = fft_spectrum(np.arange(64), np.full(64, 3.3))
        assert spec.peaks == ()

    def test_three_larmor_tones(self):
        t = np.arange(2048)
        freqs = larmor_frequencies(6.5)
        y = sum(a * np.cos(2e-3 * np.pi * f * t)
                for a, f in zip((1.0, 0.6, 0.4), freqs.values()))
        spec = fft_spectrum(t, y)
        found = sorted(f for f, _ in spec.peaks[:3])
        for f_found, f_ref in zip(found, sorted(freqs.values())):
            assert f_found == pytest.approx(f_ref, abs=0.5)

    def test_peak_error_below_half_bin(self):
        t = np.arange(512)  # 1 ns sampling: bin width ~1.95 MHz
        rng = np.random.default_rng(17)
        y = np.cos(2 * np.pi * 0.0333 * t) + rng.normal(0, 0.1, t.size)
        spec = fft_spectrum(t, y)
        bin_width = spec.freq_mhz[1] - spec.freq_mhz[0]
        assert abs(spec.peaks[0][0] - 33.3) <= bin_width / 2

    def test_nonuniform_grid_rejected(self):
        t = np.concatenate([np.arange(50), [50.7]])
        with pytest.raises(UsageError):
            fft_spectrum(t, np.zeros(t.size))

    def test_too_short_rejected(self):
        with pytest.raises(UsageError):
            fft_spectrum(np.arange(16), np.zeros(16))

    def test_refine_peak_vertex(self):
        xs = np.linspace(0.0, 3.0, 4)
        assert refine_peak(xs, 1.0 - (xs - 1.3) ** 2, 1) == pytest.approx(1.3)

    def test_refine_peak_at_edge(self):
        xs = np.linspace(0.0, 3.0, 4)
        ys = np.array([5.0, 3.0, 2.0, 1.0])
        assert refine_peak(xs, ys, 0) == 0.0
        assert refine_peak(xs, ys[::-1], 3) == 3.0

    def test_refine_peak_without_downward_curvature(self):
        xs = np.linspace(0.0, 3.0, 4)
        assert refine_peak(xs, np.array([1.0, 2.0, 3.0, 0.0]), 1) == 1.0  # denom = 0
        assert refine_peak(xs, np.array([3.0, 1.0, 3.0, 0.0]), 1) == 1.0  # denom > 0


class TestTabulated:
    def test_larmor_at_6p5_tesla(self):
        freqs = larmor_frequencies(6.5)
        assert freqs["75As"] == pytest.approx(47.4, abs=1.0)
        assert freqs["69Ga"] == pytest.approx(66.4, abs=1.0)
        assert freqs["71Ga"] == pytest.approx(84.4, abs=1.0)

    def test_larmor_small_field_limit(self):
        freqs = larmor_frequencies(1e-9)
        assert all(v < 1e-7 for v in freqs.values())

    def test_unknown_species(self):
        with pytest.raises(UsageError):
            larmor_frequencies(6.5, ("115In",))

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            larmor_frequencies(0.0)

    def test_linewidth_pairings(self):
        assert t2star_from_linewidth(7.0) == pytest.approx(75.7, abs=0.1)
        assert t2star_from_linewidth(31.0) == pytest.approx(17.1, abs=0.1)
        assert linewidth_from_t2star(t2star_from_linewidth(12.3)) == pytest.approx(12.3, rel=1e-12)


class TestDataInterface:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# comment\nx,y,yerr\n1,2,0.1\n2,4.1,0.1\n", encoding="utf-8")
        x, y, yerr = read_data_csv(path)
        assert list(x) == [1.0, 2.0]
        assert list(yerr) == [0.1, 0.1]

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n3,oops\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_data_csv(path)
        assert err.value.row == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_data_csv(path)

    def test_result_records(self):
        model = MODEL_LIBRARY["linear"]
        x = np.linspace(0, 5, 12)
        r = fit(model, x, 0.131 * x + 0.02, {"slope": 0.1, "intercept": 0.0})
        text = fit_result_text(r)
        assert "slope" in text and "+-" in text
        doc = json.loads(fit_result_json(r))
        assert doc["parameters"]["slope"]["value"] == pytest.approx(0.131)
        assert doc["converged"] is True


# the peak search of fft_spectrum, against scipy.signal.find_peaks as the
# reference: identical indices on random traces, on traces of a few levels
# (plateaus of every length, at the ends too) and on a constant trace
PEAKS = settings(max_examples=60, deadline=None, derandomize=True)


def _reference_peaks(x, prominence):
    from scipy.signal import find_peaks

    return find_peaks(x, prominence=prominence)[0]


@given(x=st.lists(st.floats(-10.0, 10.0), min_size=0, max_size=40), prominence=st.floats(0.0, 5.0))
@PEAKS
def test_find_peaks_matches_scipy_on_random_traces(x, prominence):
    x = np.array(x, dtype=float)
    assert np.array_equal(_find_peaks(x, prominence), _reference_peaks(x, prominence))


@given(x=st.lists(st.integers(0, 3), min_size=0, max_size=40), prominence=st.sampled_from([0.0, 1.0, 2.0]))
@PEAKS
def test_find_peaks_matches_scipy_on_plateaus(x, prominence):
    x = np.array(x, dtype=float)
    assert np.array_equal(_find_peaks(x, prominence), _reference_peaks(x, prominence))


def test_find_peaks_plateau_midpoint_and_constant_trace():
    x = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0, 5.0, 5.0])
    assert _find_peaks(x, 0.0).tolist() == [2, 6] == _reference_peaks(x, 0.0).tolist()
    assert _find_peaks(np.full(12, 0.7), 0.0).size == 0 == _reference_peaks(np.full(12, 0.7), 0.0).size
