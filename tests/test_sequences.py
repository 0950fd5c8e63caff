import functools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fss import models, sequences
from fss.core import DensityMatrix, _commutator_superop, evolve, expectation, liouvillian
from fss.ensemble import EnsembleSpec, gaussian_sigma, quadrature_nodes, weighted_average
from fss.errors import UsageError
from fss.fitting import MODEL_LIBRARY, fft_spectrum, fit
from fss.models import CptParams, FaradayParams
from fss.sequences import (
    RUNS_ON,
    Protocol,
    TwoLevelPhysics,
    cpt_spectrum_protocol,
    esr_scan_protocol,
    hahn_echo_protocol,
    polarization_map_protocol,
    rabi_protocol,
    rabi_q_protocol,
    ramsey_protocol,
    simulate_protocol,
    spin_pumping_analysis,
    spin_pumping_protocol,
    t1_protocol,
)
from fss.units import mhz_to_angular, rate_mhz_from_lifetime
from oracles import model_liouvillian

IDEAL = dict(ideal_pulses=True)

# four-level model with small splittings and detuning, so that RK45 takes
# few steps for either handedness
SMALL_FOUR_LEVEL = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=6.0, delta_ghz=4.0, cyclicity=409.0,
                                 gamma1_mhz=589.463, bigGamma1_mhz=0.2, bigGamma2_mhz=1.0)


_refined_calibration = functools.cache(models.calibrate_faraday_drive)

# one row of a shot table as the executor reads it: its depth's segment kind
# and target, then the parameter columns
Segment = namedtuple("Segment", ("kind", "target") + sequences._COLUMNS)


def _shots(prot, ideal_pulses=False, x=None) -> list[list[Segment]]:
    """The shots of ``prot`` at scan value ``x`` (by default the first value
    of its axis), read from the shot table that the executor runs."""
    ((_, values),) = prot.axes
    table = sequences._shot_table(prot, [values[0] if x is None else x], ideal_pulses)
    return [[Segment(kind, target, *cols[k].tolist()) for kind, target, cols in table]
            for k in range(len(table[0][2]))]


def _row(**columns) -> np.ndarray:
    """A shot-table row with the given columns, and 0 in the others."""
    return np.array([columns.get(name, 0.0) for name in sequences._COLUMNS])


@pytest.fixture
def quick_calibration(monkeypatch):
    """Share each four-level drive calibration (a fraction of a second each)
    across this module's tests and record each call's Rabi frequency."""
    calls = []

    def cached(p, omega_mhz, handedness="sigma-"):
        calls.append(omega_mhz)
        return _refined_calibration(p, omega_mhz, handedness)

    monkeypatch.setattr(models, "calibrate_faraday_drive", cached)
    return calls


class TestRabiProtocol:
    def test_zero_duration_readout(self):
        prot = rabi_protocol(100.0, 0.0, [0.0, 2.0])
        res = simulate_protocol(prot, TwoLevelPhysics())
        assert res.signal[0] == pytest.approx(0.0, abs=1e-9)

    def test_initialization_infidelity(self):
        prot = rabi_protocol(100.0, 0.0, [0.0])
        res = simulate_protocol(prot, TwoLevelPhysics(epsilon_init=0.03))
        assert res.signal[0] == pytest.approx(0.03, abs=1e-9)

    def test_sequence_structure(self):
        prot = rabi_protocol(100.0, 50.0, [0.0, 4.0])
        (shot,) = _shots(prot, x=4.0)
        kinds = [seg.kind for seg in shot]
        assert kinds == ["initialize", "drive", "readout"]
        assert shot[1].duration_ns == 4.0

    def test_empty_grid_gives_empty_trace(self):
        prot = rabi_protocol(100.0, 0.0, [])
        res = simulate_protocol(prot, TwoLevelPhysics())
        assert res.signal.size == 0

    def test_empty_grid_four_level(self, quick_calibration):
        res = simulate_protocol(rabi_protocol(100.0, 0.0, []), SMALL_FOUR_LEVEL)
        assert res.signal.shape == (0,)
        assert quick_calibration == []

    def test_non_finite_drive_fails_fast(self):
        with pytest.raises(UsageError):
            simulate_protocol(rabi_protocol(float("nan"), 0, [0, 1]), TwoLevelPhysics())


class TestEsrScan:
    def test_peak_at_bare_splitting_without_stark(self):
        grid = np.linspace(2.45, 2.75, 61)
        prot = esr_scan_protocol(110.0, None, grid, 0.0, 2.60)
        res = simulate_protocol(prot, TwoLevelPhysics())
        assert grid[np.argmax(res.signal)] == pytest.approx(2.60, abs=0.006)

    def test_peak_shifted_by_stark_ratio(self):
        # stark ratio -7.4 at 110 MHz: peak moves 814 MHz below the splitting
        grid = np.linspace(1.55, 2.05, 81)
        prot = esr_scan_protocol(110.0, None, grid, -7.4, 2.60)
        res = simulate_protocol(prot, TwoLevelPhysics())
        assert grid[np.argmax(res.signal)] == pytest.approx(2.60 - 0.814, abs=0.007)

    def test_slope_refit(self):
        # peak position vs Omega recovers the injected ratio within 2%
        ratio = 17.2
        peaks = []
        omegas = [50.0, 150.0, 250.0]
        for w in omegas:
            center = 2.60 + ratio * w * 1e-3
            grid = np.linspace(center - 0.3, center + 0.3, 61)
            prot = esr_scan_protocol(w, None, grid, ratio, 2.60)
            res = simulate_protocol(prot, TwoLevelPhysics())
            k = np.argmax(res.signal)
            peaks.append(grid[k])
        slope = np.polyfit(np.array(omegas) * 1e-3, peaks, 1)[0]
        assert slope == pytest.approx(ratio, rel=0.02)


    def test_zero_tau_rejected(self):
        with pytest.raises(UsageError):
            esr_scan_protocol(110.0, 0.0, [2.6], 0.0, 2.60)
        with pytest.raises(UsageError):
            esr_scan_protocol(110.0, -1.0, [2.6], 0.0, 2.60)
        with pytest.raises(UsageError):
            esr_scan_protocol(0.0, None, [2.6], 0.0, 2.60)

    def test_explicit_tau_kept(self):
        assert esr_scan_protocol(110.0, 3.0, [2.6], 0.0, 2.60).params["tau_ns"] == 3.0
        assert esr_scan_protocol(110.0, None, [2.6], 0.0, 2.60).params["tau_ns"] == \
            pytest.approx(1e3 / 220.0)


class TestRamsey:
    def test_full_contrast_on_resonance(self):
        prot = ramsey_protocol(125.0, 0.0, np.linspace(0, 50, 26))
        res = simulate_protocol(prot, TwoLevelPhysics(), **IDEAL)
        assert np.allclose(res.signal, 1.0, atol=1e-7)

    def test_envelope_and_fringe_recovery(self):
        t2star = 34.0
        prot = ramsey_protocol(125.0, 100.0, np.linspace(0, 80, 161))
        res = simulate_protocol(prot, TwoLevelPhysics(), EnsembleSpec(t2star_ns=t2star), **IDEAL)
        r = fit(MODEL_LIBRARY["damped_ramsey"], prot.axis("tau_ns"), res.signal,
                {"amplitude": 0.9, "delta_mhz": 95.0, "phase": 1.2, "t2star_ns": 30.0})
        assert r["t2star_ns"] == pytest.approx(34.0, abs=2.0)
        assert r["delta_mhz"] == pytest.approx(100.0, abs=2.0)

    def test_analytic_contrast(self):
        t2star, delta = 34.0, 100.0
        tau = np.linspace(0, 2 * t2star, 69)
        prot = ramsey_protocol(125.0, delta, tau)
        res = simulate_protocol(prot, TwoLevelPhysics(), EnsembleSpec(t2star_ns=t2star), **IDEAL)
        analytic = np.exp(-((tau / t2star) ** 2)) * np.cos(2e-3 * np.pi * delta * tau)
        assert np.max(np.abs(res.signal - analytic)) < 0.01

    def test_serrodyne_shifts_fringe(self):
        prot = ramsey_protocol(125.0, 12.0, np.linspace(0, 60, 241), f_serr_mhz=100.0)
        res = simulate_protocol(prot, TwoLevelPhysics(),
                                EnsembleSpec(t2star_ns=74.0), **IDEAL)
        r = fit(MODEL_LIBRARY["serrodyne_ramsey"], prot.axis("tau_ns"), res.signal,
                {"amplitude": 1.0, "freq_mhz": 105.0, "t2star_ns": 60.0})
        assert r["freq_mhz"] == pytest.approx(112.0, abs=1.0)
        assert r["t2star_ns"] == pytest.approx(74.0, rel=0.05)

    def test_contrast_bounded(self):
        prot = ramsey_protocol(125.0, 150.0, np.linspace(0, 60, 61))
        res = simulate_protocol(prot, TwoLevelPhysics(gamma2_mhz=2.0),
                                EnsembleSpec(t2star_ns=20.0), **IDEAL)
        assert np.all(res.signal <= 1.0 + 1e-9)
        assert np.all(res.signal >= -1.0 - 1e-9)

    def test_finite_pulses_consistent_up_to_pulse_phase(self):
        # finite pi/2 pulses at nonzero detuning add a constant fringe phase
        # (extra precession during the pulses); frequency and envelope match
        tau = np.linspace(0, 60, 121)
        prot = ramsey_protocol(250.0, 50.0, tau)
        ens = EnsembleSpec(t2star_ns=74.0, nodes=9)
        res = simulate_protocol(prot, TwoLevelPhysics(), ens, ideal_pulses=False)
        r = fit(MODEL_LIBRARY["damped_ramsey"], tau, res.signal,
                {"amplitude": 0.9, "delta_mhz": 48.0, "phase": 1.8, "t2star_ns": 60.0})
        assert r["delta_mhz"] == pytest.approx(50.0, rel=0.02)
        assert r["t2star_ns"] == pytest.approx(74.0, rel=0.05)
        assert abs(r["amplitude"]) == pytest.approx(1.0, abs=0.03)
        assert abs(r["phase"] - np.pi / 2) > 0.05  # the finite-pulse offset is real

    def test_cooling_supplies_ensemble(self):
        tau = np.linspace(0, 100, 51)
        prot = ramsey_protocol(125.0, 50.0, tau, cooling_t2star_ns=74.0)
        res = simulate_protocol(prot, TwoLevelPhysics(), **IDEAL)
        envelope = np.exp(-((tau / 74.0) ** 2))
        assert np.max(np.abs(res.signal - envelope * np.cos(2e-3 * np.pi * 50.0 * tau))) < 0.01

    @pytest.mark.parametrize("make", [ramsey_protocol, hahn_echo_protocol])
    def test_cooling_t2star_beside_an_ensemble_rejected(self, make):
        # the ensemble used to win silently, giving the uncooled signal
        args = (125.0, 50.0, [0.0, 30.0, 60.0]) if make is ramsey_protocol else (125.0, [0.0, 100.0])
        ens = EnsembleSpec(t2star_ns=20.0, nodes=9)
        simulate_protocol(make(*args), TwoLevelPhysics(), ens, **IDEAL)
        with pytest.raises(UsageError, match="would ignore its cooling T2\\* \\(74 ns\\)"):
            simulate_protocol(make(*args, cooling_t2star_ns=74.0), TwoLevelPhysics(), ens, **IDEAL)

    @pytest.mark.parametrize("make", [ramsey_protocol, hahn_echo_protocol])
    def test_negative_cooling_t2star_rejected(self, make):
        args = (125.0, 50.0, [0.0, 20.0]) if make is ramsey_protocol else (125.0, [0.0, 100.0])
        make(*args, cooling_t2star_ns=0.0)  # no cooling
        with pytest.raises(UsageError, match="cooling T2\\* must be finite and >= 0"):
            make(*args, cooling_t2star_ns=-5.0)


    def test_empty_grid_gives_empty_trace(self):
        res = simulate_protocol(ramsey_protocol(125.0, 20.0, []), TwoLevelPhysics())
        assert res.signal.size == 0

    def test_non_positive_omega_rejected(self):
        for omega in (0.0, -50.0):
            with pytest.raises(UsageError):
                ramsey_protocol(omega, 20.0, [0.0, 10.0])


class TestHahnEcho:
    def test_static_ensemble_cancelled(self):
        prot = hahn_echo_protocol(125.0, np.linspace(0, 1000, 11))
        res = simulate_protocol(prot, TwoLevelPhysics(),
                                EnsembleSpec(t2star_ns=34.0, nodes=9), **IDEAL)
        assert np.all(res.signal >= 0.99)

    def test_injected_modulation_fft_peak(self):
        prot = hahn_echo_protocol(125.0, np.linspace(0, 640, 161),
                                  modulation_amp_mhz=3.0, modulation_freq_mhz=47.4)
        res = simulate_protocol(prot, TwoLevelPhysics(), **IDEAL)
        spec = fft_spectrum(prot.axis("total_delay_ns"), res.signal)
        assert spec.peaks[0][0] == pytest.approx(47.4, abs=0.5)

    def test_refocused_modulated_waits_share_one_table(self, monkeypatch):
        import fss.core

        spans = []
        real = fss.core._cfm4

        def recording(fun, t_span, *args, **kwargs):
            spans.append(t_span)
            return real(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(fss.core, "_cfm4", recording)
        delays = np.linspace(0, 400, 9)
        ens = EnsembleSpec(t2star_ns=34.0, nodes=9)

        def echo(grid):
            prot = hahn_echo_protocol(125.0, grid, modulation_amp_mhz=10.0, modulation_freq_mhz=47.4)
            return simulate_protocol(prot, TwoLevelPhysics(gamma2_mhz=0.5), ens, **IDEAL).signal

        together = echo(delays)
        # the second waits differ only in parent state and length: one
        # one-period table per node model serves all eight of them
        assert spans == [pytest.approx((0.0, 1e3 / 47.4), abs=1e-9)] * 9
        alone = np.concatenate([echo([x]) for x in delays])
        assert together == pytest.approx(alone, abs=1e-12, rel=0)

    def test_phenomenological_envelope_refit(self):
        grid = np.linspace(0, 2000, 21)
        prot = hahn_echo_protocol(125.0, grid, t2he_ns=1140.0)
        res = simulate_protocol(prot, TwoLevelPhysics(),
                                EnsembleSpec(t2star_ns=34.0, nodes=9), **IDEAL)
        r = fit(MODEL_LIBRARY["echo_envelope"], grid, res.signal,
                {"amplitude": 1.0, "t2he_ns": 900.0})
        assert r["t2he_ns"] == pytest.approx(1140.0, abs=20.0)


    def test_empty_grid_gives_empty_trace(self):
        res = simulate_protocol(hahn_echo_protocol(125.0, []), TwoLevelPhysics())
        assert res.signal.size == 0

    def test_non_positive_omega_rejected(self):
        with pytest.raises(UsageError):
            hahn_echo_protocol(0.0, [0.0, 100.0])

    def test_modulation_needs_a_phase(self):
        with pytest.raises(UsageError):
            hahn_echo_protocol(125.0, [0.0, 100.0], modulation_amp_mhz=0.5,
                               modulation_freq_mhz=2.0, modulation_phases=0)
        # without a modulation the phase count is unused
        hahn_echo_protocol(125.0, [0.0, 100.0], modulation_phases=0)


class TestSpinPumping:
    def test_zero_power_is_dark(self):
        params = FaradayParams(omega_e_ghz=30.0, omega_h_ghz=59.0, delta_ghz=0.0,
                               cyclicity=409.0, gamma1_mhz=rate_mhz_from_lifetime(0.27))
        prot = spin_pumping_protocol(0.0, 500.0, points=11)
        res = simulate_protocol(prot, params)
        assert np.max(np.abs(res.signal)) == 0.0

    def test_branch_time_matches_measured_pumping(self):
        # the exposed branch time 1/gamma_SP sits within 15% of the measured
        # 111 ns decay; the raw fitted decay is slower by the quasi-steady
        # trion occupation factor
        params = FaradayParams(omega_e_ghz=30.0, omega_h_ghz=59.0, delta_ghz=0.0,
                               cyclicity=409.0, gamma1_mhz=rate_mhz_from_lifetime(0.270))
        pa = spin_pumping_analysis(params, 6.0, 1400.0, points=121)
        assert pa.branch_time_ns == pytest.approx(111.0, rel=0.15)
        assert pa.fitted_decay_ns * pa.occupation_factor == pytest.approx(
            pa.branch_time_ns, rel=0.10
        )

    def test_saturation_of_pumping_rate(self):
        params = FaradayParams(omega_e_ghz=30.0, omega_h_ghz=59.0, delta_ghz=0.0,
                               cyclicity=409.0, gamma1_mhz=rate_mhz_from_lifetime(0.270))
        rates = {}
        for s in (0.5, 2.0, 6.0, 20.0):
            pa = spin_pumping_analysis(params, s, max(1400.0, 4000.0 / s), points=81)
            rates[s] = 1.0 / pa.fitted_decay_ns
        r_inf = rates[20.0] * (21.0 / 20.0)
        for s, rate in rates.items():
            assert rate / r_inf == pytest.approx(s / (1.0 + s), rel=0.05)

    def test_empty_grid_gives_empty_trace(self):
        res = simulate_protocol(spin_pumping_protocol(6.0, 500.0, points=0), SMALL_FOUR_LEVEL)
        assert res.signal.shape == (0,)
        assert res.axis("t_ns").shape == (0,)

    def test_a_grid_after_t0_is_the_tail_of_one_from_t0(self):
        def pumping(t_ns):
            prot = Protocol(kind="spin_pumping", params={"s": 6.0}, axes=(("t_ns", t_ns),))
            return simulate_protocol(prot, SMALL_FOUR_LEVEL).signal

        full = pumping([0.0, 5.0, 10.0, 20.0])
        assert full[0] == 0.0 and np.all(full[1:] > 0)
        assert np.array_equal(pumping([5.0, 10.0, 20.0]), full[1:])
        with pytest.raises(UsageError):
            pumping([-5.0, 10.0])

    def test_slower_pumping_at_higher_cyclicity(self):
        gamma1 = rate_mhz_from_lifetime(0.270)
        decays = []
        for c in (50.0, 100.0, 400.0, 1000.0):
            params = FaradayParams(omega_e_ghz=30.0, omega_h_ghz=59.0, delta_ghz=0.0,
                                   cyclicity=c, gamma1_mhz=gamma1)
            pa = spin_pumping_analysis(params, 6.0, 30.0 + 7.0 * c, points=81)
            decays.append(pa.fitted_decay_ns)
        assert all(b > a for a, b in zip(decays, decays[1:]))


class TestT1:
    @pytest.mark.parametrize("t1_us", [51.0, 43.0])
    def test_injected_t1_recovered(self, t1_us):
        grid = np.linspace(0, 3.2 * t1_us * 1e3, 33)
        prot = t1_protocol(grid)
        phys = TwoLevelPhysics(gamma1_mhz=rate_mhz_from_lifetime(t1_us * 1e3))
        res = simulate_protocol(prot, phys)
        r = fit(MODEL_LIBRARY["exp_decay"], grid, res.signal,
                {"amplitude": -0.5, "tau": 3e4, "offset": 0.5})
        assert r["tau"] * 1e-3 == pytest.approx(t1_us, abs=2.0)

    def test_no_relaxation_flat(self):
        prot = t1_protocol(np.linspace(0, 1e5, 11))
        res = simulate_protocol(prot, TwoLevelPhysics(gamma1_mhz=0.0))
        assert np.max(np.abs(res.signal)) <= 1e-9

    def test_empty_grid_gives_empty_trace(self):
        res = simulate_protocol(t1_protocol([]), TwoLevelPhysics(gamma1_mhz=1.0))
        assert res.signal.size == 0


class TestSimulateProtocolContract:
    def test_shot_noise_requires_seed(self):
        prot = rabi_protocol(100.0, 0.0, [0.0, 5.0])
        with pytest.raises(UsageError):
            simulate_protocol(prot, TwoLevelPhysics(), counts_per_shot=100.0)

    def test_shot_noise_rejects_a_negative_seed(self):
        prot = rabi_protocol(100.0, 0.0, [0.0, 5.0])
        with pytest.raises(UsageError, match="seed >= 0"):
            simulate_protocol(prot, TwoLevelPhysics(), counts_per_shot=100.0, seed=-1)

    def test_seeded_counts_bitwise_identical(self):
        prot = rabi_protocol(100.0, 0.0, np.linspace(0, 20, 21))
        a = simulate_protocol(prot, TwoLevelPhysics(), counts_per_shot=500.0, seed=42)
        b = simulate_protocol(prot, TwoLevelPhysics(), counts_per_shot=500.0, seed=42)
        assert np.array_equal(a.signal, b.signal)
        c = simulate_protocol(prot, TwoLevelPhysics(), counts_per_shot=500.0, seed=43)
        assert not np.array_equal(a.signal, c.signal)

    def test_correlated_rabi_jitter(self):
        prot = rabi_q_protocol([225.0], [0.02])
        jit = simulate_protocol(prot, TwoLevelPhysics(),
                                EnsembleSpec(t2star_ns=34.0, nodes=9, correlated_rabi_jitter=True))
        plain = simulate_protocol(prot, TwoLevelPhysics(), EnsembleSpec(t2star_ns=34.0, nodes=9))
        f_jit, f_plain = jit.extras["f_pi"][0, 0], plain.extras["f_pi"][0, 0]
        assert np.isfinite(f_jit) and 0.5 <= f_jit <= 1.0
        assert abs(f_jit - f_plain) > 1e-6

    def test_rabi_q_monotone_in_noise(self):
        prot = rabi_q_protocol([225.0], [0.0, 0.01, 0.02, 0.04])
        res = simulate_protocol(prot, TwoLevelPhysics())
        q_row = res.signal[0]
        assert np.all(np.diff(q_row) <= 1e-9)

    def test_segment_validation(self):
        # a negative duration is the one invalid row a protocol's shot table can hold
        for prot in (rabi_protocol(100.0, 0.0, [1.0, -1.0]), t1_protocol([-5.0]),
                     ramsey_protocol(125.0, 0.0, [-2.0]), hahn_echo_protocol(125.0, [-10.0])):
            with pytest.raises(UsageError, match="duration must be >= 0"):
                simulate_protocol(prot, TwoLevelPhysics())

    # valid arguments, and one non-finite replacement each
    VALID = {
        EnsembleSpec: dict(t2star_ns=34.0),
        ramsey_protocol: dict(omega_mhz=125.0, delta_mhz=10.0, tau_grid_ns=[0.0, 5.0]),
        hahn_echo_protocol: dict(omega_mhz=125.0, total_delay_grid_ns=[0.0, 100.0],
                                 modulation_amp_mhz=4.0, modulation_freq_mhz=20.0),
    }
    NON_FINITE = [
        (EnsembleSpec, "t2star_ns", math.nan),
        (EnsembleSpec, "di_over_i", math.inf),
        (EnsembleSpec, "stark_ratio", math.nan),
        (EnsembleSpec, "omega_mhz", -math.inf),
        (ramsey_protocol, "omega_mhz", math.nan),
        (ramsey_protocol, "delta_mhz", math.inf),
        (ramsey_protocol, "f_serr_mhz", math.inf),
        (ramsey_protocol, "tau_grid_ns", [0.0, math.nan]),
        (ramsey_protocol, "cooling_t2star_ns", math.nan),
        (hahn_echo_protocol, "omega_mhz", math.inf),
        (hahn_echo_protocol, "t2he_ns", math.nan),
        (hahn_echo_protocol, "modulation_amp_mhz", math.nan),
        (hahn_echo_protocol, "modulation_freq_mhz", math.inf),
        (hahn_echo_protocol, "total_delay_grid_ns", [0.0, math.inf]),
        (hahn_echo_protocol, "cooling_t2star_ns", math.inf),
    ]

    @pytest.mark.parametrize("make, key, value", NON_FINITE,
                             ids=[f"{make.__name__}-{key}" for make, key, _ in NON_FINITE])
    def test_non_finite_number_rejected(self, make, key, value):
        # a NaN fails no "<= 0" check: a NaN T2* used to run with no ensemble
        make(**self.VALID[make])
        with pytest.raises(UsageError, match="must be finite"):
            make(**{**self.VALID[make], key: value})


class TestRabiQuality:
    T2STAR, STARK, NODES = 34.0, -7.4, 9

    def _oracle(self, omega, di, jitter):
        """f_pi of one (omega, dI/I) point as Rabi scans of the pi time, one
        per point or, with correlated jitter and dI/I > 0, one per intensity
        node, averaged over the nodes; rabi_q_protocol's default rates."""
        t_pi = 1e3 / (2 * omega)
        physics = TwoLevelPhysics(0.0048 * omega, 4.2)
        if not (jitter and di > 0):
            ens = EnsembleSpec(self.T2STAR, self.STARK, omega, di, nodes=self.NODES)
            return simulate_protocol(rabi_protocol(omega, 0.0, [t_pi]), physics, ens).signal[0]
        eps, weights = quadrature_nodes(di, 9)
        ens = EnsembleSpec(self.T2STAR, nodes=self.NODES)
        return weighted_average(weights, [
            simulate_protocol(rabi_protocol(omega * (1 + e), self.STARK * omega * e, [t_pi]), physics, ens).signal
            for e in eps])[0]

    @pytest.mark.parametrize("jitter", [False, True])
    def test_matches_per_point_rabi_scans(self, jitter):
        # 60 and 225 MHz in one stack: _expm scales it by its largest norm
        omegas, noises = [60.0, 225.0], [0.0, 0.01, 0.04]
        prot = rabi_q_protocol(omegas, noises, stark_ratio=self.STARK, t2star_ns=self.T2STAR)
        ens = EnsembleSpec(self.T2STAR, nodes=self.NODES, correlated_rabi_jitter=jitter)
        res = simulate_protocol(prot, TwoLevelPhysics(), ens)
        oracle = [[self._oracle(w, di, jitter) for di in noises] for w in omegas]
        assert np.abs(res.extras["f_pi"] - oracle).max() <= 1e-14
        q = np.array([[models.pi_contrast_and_q(f).q for f in row] for row in oracle])
        assert res.signal == pytest.approx(q, rel=1e-12)

    def test_pi_contrast_is_the_one_point_case(self):
        pc = sequences.two_level_pi_contrast(60.0, 0.3, 4.2, sigma_mhz=5.0, nodes=9)
        oracle = simulate_protocol(rabi_protocol(60.0, 0.0, [1e3 / 120.0]), TwoLevelPhysics(0.3, 4.2),
                                   EnsembleSpec(t2star_ns=math.sqrt(2) * 1e3 / (2 * math.pi * 5.0), nodes=9))
        assert abs(pc.f_pi - oracle.signal[0]) <= 1e-14
        lossless = sequences.two_level_pi_contrast(100.0, 0.0, 0.0)
        assert lossless.f_pi == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("jitter, rows", [(False, 6), (True, 3 + 3 * 9)])
    def test_one_propagation_call_per_product(self, monkeypatch, jitter, rows):
        # a row per point, or 9 per jittered point; dI/I = 0 is never jittered
        stacks = []
        real = sequences._propagate

        def spy(gens, *args, **kwargs):
            stacks.append(len(gens))
            return real(gens, *args, **kwargs)

        monkeypatch.setattr(sequences, "_propagate", spy)
        simulate_protocol(rabi_q_protocol([60.0, 125.0, 225.0], [0.0, 0.02]), TwoLevelPhysics(),
                          EnsembleSpec(self.T2STAR, nodes=self.NODES, correlated_rabi_jitter=jitter))
        assert stacks == [rows * self.NODES]

    @pytest.mark.parametrize("omegas, noises, shape", [([], [0.0, 0.01], (0, 2)), ([60.0], [], (1, 0))])
    def test_empty_grid_keeps_its_shape(self, omegas, noises, shape):
        res = simulate_protocol(rabi_q_protocol(omegas, noises), TwoLevelPhysics())
        assert res.signal.shape == res.extras["f_pi"].shape == shape

    @pytest.mark.parametrize("omega", [0.0, -60.0, math.nan, math.inf])
    def test_non_positive_rabi_frequency_rejected(self, omega):
        # 0 used to end in a ZeroDivisionError, and -60 in an unrelated message
        with pytest.raises(UsageError, match="Rabi frequencies"):
            rabi_q_protocol([omega, 60.0], [0.0])
        with pytest.raises(UsageError, match="Rabi frequency must be finite and > 0"):
            sequences.two_level_pi_contrast(omega, 0.3, 4.2, t2star_ns=34.0)

    def test_negative_intensity_noise_rejected(self):
        with pytest.raises(UsageError, match="dI/I values >= 0"):
            rabi_q_protocol([60.0], [0.0, -0.01])

    @pytest.mark.parametrize("physics, ensemble, field", [
        (TwoLevelPhysics(5.0, 20.0, 0.2), None, "TwoLevelPhysics.gamma1_mhz"),
        (TwoLevelPhysics(gamma2_mhz=4.2), None, "TwoLevelPhysics.gamma2_mhz"),
        (TwoLevelPhysics(epsilon_init=0.1), None, "TwoLevelPhysics.epsilon_init"),
        (TwoLevelPhysics(), EnsembleSpec(t2star_ns=5.0), "EnsembleSpec.t2star_ns"),
        (TwoLevelPhysics(), EnsembleSpec(34.0, stark_ratio=3.0), "EnsembleSpec.stark_ratio"),
        (TwoLevelPhysics(), EnsembleSpec(34.0, omega_mhz=60.0), "EnsembleSpec.omega_mhz"),
        (TwoLevelPhysics(), EnsembleSpec(34.0, di_over_i=0.01), "EnsembleSpec.di_over_i"),
    ])
    def test_values_it_would_ignore_rejected(self, physics, ensemble, field):
        # each of these once returned the f_pi of the protocol's own values
        with pytest.raises(UsageError, match=field.replace(".", r"\.")):
            simulate_protocol(rabi_q_protocol([60.0], [0.01]), physics, ensemble)

    @pytest.mark.parametrize("stark_ratio", [0.0, -7.4])
    def test_ensemble_that_repeats_the_protocol_accepted(self, stark_ratio):
        prot = rabi_q_protocol([60.0], [0.01])
        ens = EnsembleSpec(34.0, stark_ratio=stark_ratio, nodes=21)
        assert np.array_equal(simulate_protocol(prot, TwoLevelPhysics(), ens).signal,
                              simulate_protocol(prot, TwoLevelPhysics()).signal)

    @pytest.mark.parametrize("key, value", [("omega_grid_mhz", [60.0, math.inf]), ("di_over_i_grid", [0.0, math.nan]),
                                            ("stark_ratio", math.nan), ("t2star_ns", math.inf)])
    def test_non_finite_value_rejected(self, key, value):
        valid = dict(omega_grid_mhz=[60.0, 225.0], di_over_i_grid=[0.0, 0.01])
        rabi_q_protocol(**valid)
        with pytest.raises(UsageError, match="must be finite"):
            rabi_q_protocol(**{**valid, key: value})


# one protocol of each kind, and physics of every class (or none)
EXAMPLE_PROTOCOLS = {
    "rabi": rabi_protocol(100.0, 0.0, [1.0]),
    "esr_scan": esr_scan_protocol(100.0, None, [2.6], 0.0, 2.6),
    "ramsey": ramsey_protocol(125.0, 10.0, [0.0, 5.0]),
    "hahn_echo": hahn_echo_protocol(125.0, [0.0, 100.0]),
    "spin_pumping": spin_pumping_protocol(1.0, 10.0, 5),
    "t1": t1_protocol([0.0, 10.0]),
    "rabi_q": rabi_q_protocol([100.0], [0.0]),
    "polarization_map": polarization_map_protocol([0.0], [0.0]),
    "cpt_spectrum": cpt_spectrum_protocol([2.6]),
}
PHYSICS = [TwoLevelPhysics(), SMALL_FOUR_LEVEL, CptParams(), None]
OUTSIDE = [(kind, physics) for kind in RUNS_ON for physics in PHYSICS
           if not isinstance(physics, RUNS_ON[kind])]


def test_every_protocol_kind_has_a_physics_entry():
    assert set(EXAMPLE_PROTOCOLS) == set(RUNS_ON)


@pytest.mark.parametrize("kind, physics", OUTSIDE,
                         ids=[f"{kind}-on-{type(physics).__name__}" for kind, physics in OUTSIDE])
def test_protocol_kind_rejects_physics_outside_its_entry(kind, physics):
    with pytest.raises(UsageError, match=f"protocol kind {kind!r} runs on"):
        simulate_protocol(EXAMPLE_PROTOCOLS[kind], physics)


def _lengthened(table, kind: str, x: float, duration_ns: float):
    """``table`` (a _shot_table) with the duration of every ``kind`` segment
    of the shots at scan value ``x`` set to ``duration_ns``."""

    def lengthened(p, values, ideal_pulses):
        depths = table(p, values, ideal_pulses)
        at = np.repeat(np.asarray(values) == x, len(depths[0][2]) // len(values))
        for k, _, cols in depths:
            if k == kind:
                cols[at, sequences._COLUMNS.index("duration_ns")] = duration_ns
        return depths

    return lengthened


class TestShotExecutor:
    def test_simulation_runs_the_shots(self, monkeypatch):
        # lengthen the wait of the tau = 10 ns shots to 20 ns: that point must
        # then read like tau = 20 ns, because the shots are what runs
        prot = ramsey_protocol(125.0, 30.0, [0.0, 10.0, 20.0])
        ens = EnsembleSpec(t2star_ns=34.0, nodes=9)
        base = simulate_protocol(prot, TwoLevelPhysics(), ens, **IDEAL).signal
        monkeypatch.setattr(sequences, "_shot_table", _lengthened(sequences._shot_table, "wait", 10.0, 20.0))
        moved = simulate_protocol(prot, TwoLevelPhysics(), ens, **IDEAL).signal
        assert abs(base[1] - base[2]) > 0.1
        assert moved[1] == pytest.approx(base[2], abs=1e-12)
        assert moved[[0, 2]] == pytest.approx(base[[0, 2]], abs=1e-12)

    @pytest.mark.parametrize("ideal", [True, False])
    def test_each_produced_state_is_guarded_once(self, monkeypatch, ideal):
        import fss.core

        guarded = []
        real = fss.core._guard

        def counting(rhos, *args, **kwargs):
            guarded.append(int(np.prod(np.shape(rhos)[:-1])))  # (..., d^2) coordinates
            return real(rhos, *args, **kwargs)

        monkeypatch.setattr(fss.core, "_guard", counting)
        monkeypatch.setattr(sequences, "_guard", counting)
        prot = ramsey_protocol(125.0, 30.0, [0.0, 10.0, 20.0, 35.0])
        simulate_protocol(prot, TwoLevelPhysics(epsilon_init=0.01),
                          EnsembleSpec(t2star_ns=34.0, nodes=9), ideal_pulses=ideal)
        # a state per node for every distinct shot prefix that ends in a
        # rotation or in a drive or wait of nonzero duration, plus the two
        # initial states the binding prepares
        prefixes = {tuple(shot[:k + 1])
                    for x in prot.axis("tau_ns") for shot in _shots(prot, ideal, x)
                    for k, seg in enumerate(shot)
                    if seg.kind == "rotation" or (seg.kind in ("drive", "wait") and seg.duration_ns > 0)}
        assert sum(guarded) == 9 * len(prefixes) + 2

    @staticmethod
    def _node_readouts(monkeypatch, prot, physics, ensemble) -> np.ndarray:
        """The executor's (nodes, points x shots) readouts of the ideal-pulse
        shots, taken where they are averaged over the nodes."""
        seen = []

        def spy(weights, traces):
            seen.append(np.array(traces))
            return weighted_average(weights, traces)

        monkeypatch.setattr(sequences, "weighted_average", spy)
        simulate_protocol(prot, physics, ensemble, ideal_pulses=True)
        (readouts,) = seen
        return readouts

    @staticmethod
    def _oracle(prot, physics, offsets) -> np.ndarray:
        """The same readouts, one node and one shot at a time: written-out
        rotations U rho U^+ and the exponential of each node's Liouvillian.
        A modulated wait adds the modulation's mean detuning over the wait,
        which is exact when the channels commute with sigma_z (no Gamma1)."""
        ((_, values),) = prot.axes
        out = []
        for d in offsets:
            row = []
            for x in values:
                for shot in _shots(prot, True, x):
                    for seg in shot:
                        if seg.kind == "initialize":  # |up>
                            rho = np.diag([physics.epsilon_init, 1.0 - physics.epsilon_init]).astype(complex)
                        elif seg.kind == "rotation":
                            axis = math.cos(seg.phase) * models.SIGMA_X + math.sin(seg.phase) * models.SIGMA_Y
                            u = math.cos(seg.angle / 2) * np.eye(2) - 1j * math.sin(seg.angle / 2) * axis
                            rho = u @ rho @ u.conj().T
                        elif seg.kind == "wait":
                            delta, tau = seg.delta_mhz + d, seg.duration_ns
                            if seg.mod_amp_mhz and tau:
                                f = mhz_to_angular(seg.mod_freq_mhz)
                                area = (mhz_to_angular(seg.mod_amp_mhz) / f
                                        * (math.sin(f * tau + seg.phase) - math.sin(seg.phase)))
                                delta += area / tau / mhz_to_angular(1.0)
                            gen = model_liouvillian(models.build_two_level(0.0, delta, physics.gamma1_mhz,
                                                                           physics.gamma2_mhz))
                            rho = (expm(gen * tau) @ rho.reshape(4)).reshape(2, 2)
                        else:  # readout of |down>
                            row.append(rho[0, 0].real)
            out.append(row)
        return np.array(out)

    def test_serrodyne_ramsey_matches_per_shot_oracle(self, monkeypatch):
        prot = ramsey_protocol(125.0, 30.0, np.linspace(0.0, 40.0, 9), f_serr_mhz=80.0)
        physics = TwoLevelPhysics(gamma1_mhz=0.3, gamma2_mhz=1.5, epsilon_init=0.02)
        ens = EnsembleSpec(t2star_ns=30.0, nodes=9)
        got = self._node_readouts(monkeypatch, prot, physics, ens)
        oracle = self._oracle(prot, physics, quadrature_nodes(gaussian_sigma(30.0), 9)[0])
        assert got.shape == oracle.shape == (9, 18)
        assert np.abs(got - oracle).max() <= 1e-12

    def test_modulated_free_echo_matches_per_shot_oracle(self, monkeypatch):
        prot = hahn_echo_protocol(125.0, np.linspace(0.0, 300.0, 7), modulation_amp_mhz=6.0,
                                  modulation_freq_mhz=17.0, modulation_phases=3, modulation_mode="free")
        physics = TwoLevelPhysics(gamma2_mhz=1.5, epsilon_init=0.02)
        ens = EnsembleSpec(t2star_ns=30.0, nodes=9)
        got = self._node_readouts(monkeypatch, prot, physics, ens)
        oracle = self._oracle(prot, physics, quadrature_nodes(gaussian_sigma(30.0), 9)[0])
        assert got.shape == oracle.shape == (9, 7 * 6)
        # the rotations and readouts are exact, as in the Ramsey case; the
        # modulated waits are CFM4 tables (see fss.core._CFM4_TOL), here
        # within 7e-11 of the exact exponential
        assert np.abs(got - oracle).max() <= 1e-9

    def test_ideal_pulses_are_rotations_in_the_shots(self):
        prot = hahn_echo_protocol(125.0, [0.0, 100.0])
        shot = _shots(prot, True, 100.0)[0]
        assert [seg.kind for seg in shot] == [
            "initialize", "rotation", "wait", "rotation", "wait", "rotation", "readout"]
        assert [seg.angle for seg in shot if seg.kind == "rotation"] == [
            math.pi / 2, math.pi, math.pi / 2]
        (rabi,) = _shots(rabi_protocol(100.0, 0.0, [1.0]), True, 1.0)
        assert [seg.kind for seg in rabi] == ["initialize", "drive", "readout"]

    def test_finite_pulse_echo_cancels_static_ensemble(self):
        prot = hahn_echo_protocol(125.0, np.linspace(0, 1000, 11))
        res = simulate_protocol(prot, TwoLevelPhysics(), EnsembleSpec(t2star_ns=34.0, nodes=9),
                                ideal_pulses=False)
        assert np.all(np.abs(res.signal) <= 1.0 + 1e-9)
        assert np.all(res.signal >= 0.99)

    def test_four_level_rabi_runs_the_shots(self, monkeypatch, quick_calibration):
        # lengthen the drive of the tau = 2 ns shot to 6 ns: that point must
        # then read like tau = 6 ns, because the shots are what runs
        prot = rabi_protocol(60.0, 0.0, [2.0, 4.0, 6.0])
        base = simulate_protocol(prot, SMALL_FOUR_LEVEL).signal
        monkeypatch.setattr(sequences, "_shot_table", _lengthened(sequences._shot_table, "drive", 2.0, 6.0))
        moved = simulate_protocol(prot, SMALL_FOUR_LEVEL).signal
        assert abs(base[0] - base[2]) > 0.01
        assert moved[0] == pytest.approx(base[2], abs=1e-12)
        assert moved[1:] == pytest.approx(base[1:], abs=1e-12)
        assert quick_calibration == [60.0, 60.0]  # once per simulation

    @pytest.mark.parametrize("handedness", ["sigma-", "sigma+"])
    def test_four_level_rabi_matches_per_node_oracle(self, quick_calibration, handedness):
        omega, delta, tau = 60.0, 5.0, np.array([0.5, 1.2, 2.0])
        ens = EnsembleSpec(t2star_ns=20.0, nodes=11)  # four-level Rabi caps it at 9
        res = simulate_protocol(rabi_protocol(omega, delta, tau), SMALL_FOUR_LEVEL, ens, handedness=handedness)

        drive, rf = models.calibrate_faraday_drive(SMALL_FOUR_LEVEL, omega, handedness)
        drive = replace(drive, delta_rf_ghz=drive.delta_rf_ghz + delta * 1e-3)
        flip = models.faraday_flip_projector(SMALL_FOUR_LEVEL)
        offsets, weights = quadrature_nodes(gaussian_sigma(20.0), 9)
        traces = []
        for off in offsets:
            # a node offset shifts the electron splitting
            shifted = replace(SMALL_FOUR_LEVEL, omega_e_ghz=SMALL_FOUR_LEVEL.omega_e_ghz + off * 1e-3)
            model = models.build_faraday_four_level(shifted, drive, handedness)
            traj = evolve(model, DensityMatrix.pure(4, 1), np.concatenate([[0.0], tau]))
            traces.append([expectation(st, flip) for st in traj.states[1:]])
        oracle = weighted_average(weights, traces)
        assert res.signal == pytest.approx(oracle, abs=1e-12, rel=0)
        assert res.extras["delta_rf_ghz"] == pytest.approx([rf], abs=0, rel=0)

    def test_faraday_pi_contrast_is_a_rabi_scan(self, quick_calibration):
        pc = sequences.faraday_pi_contrast(SMALL_FOUR_LEVEL, 300.0, t2star_ns=34.0, nodes=9)
        drive, _ = models.calibrate_faraday_drive(SMALL_FOUR_LEVEL, 300.0)
        beat = 1.0 / abs(drive.delta_rf_ghz)
        tau = np.unique(np.clip(1e3 / 600.0 + (np.arange(16) / 16.0 - 0.5) * beat, 0.0, None))
        res = simulate_protocol(rabi_protocol(300.0, 0.0, tau), SMALL_FOUR_LEVEL,
                                EnsembleSpec(t2star_ns=34.0, nodes=9))
        assert pc.f_pi == pytest.approx(np.mean(res.signal), abs=1e-12)

    def test_unbalanced_ramsey_shot_noise(self):
        prot = ramsey_protocol(125, 20, [0, 10], balanced=False)
        res = simulate_protocol(prot, TwoLevelPhysics(), ideal_pulses=True,
                                counts_per_shot=100, seed=1)
        assert res.signal.shape == (2,)
        assert np.all(res.signal >= 0)


# the sequence families, with scan values that include zero
TABLE_PROTOCOLS = {
    "rabi": rabi_protocol(100.0, 20.0, [0.0, 3.0, 7.5]),
    "esr_scan": esr_scan_protocol(110.0, None, [2.55, 2.6, 2.65], -7.4, 2.6),
    "t1": t1_protocol([0.0, 10.0, 100.0]),
    "ramsey": ramsey_protocol(125.0, 30.0, [0.0, 5.0, 12.5]),
    "ramsey-unbalanced": ramsey_protocol(125.0, 30.0, [0.0, 5.0, 12.5], balanced=False),
    "ramsey-serrodyne": ramsey_protocol(125.0, 30.0, [0.0, 5.0, 12.5], f_serr_mhz=80.0),
    "echo-refocus": hahn_echo_protocol(125.0, [0.0, 100.0, 250.0], modulation_amp_mhz=4.0,
                                       modulation_freq_mhz=20.0),
    "echo-free": hahn_echo_protocol(125.0, [0.0, 100.0, 250.0], modulation_amp_mhz=4.0, modulation_freq_mhz=20.0,
                                    modulation_phases=3, modulation_mode="free"),
}


@pytest.mark.parametrize("ideal", [False, True])
@pytest.mark.parametrize("name", TABLE_PROTOCOLS)
def test_shots_are_the_rows_the_executor_runs(monkeypatch, name, ideal):
    # the table run over the whole axis holds, point-major, the rows that
    # each point's own table holds
    prot = TABLE_PROTOCOLS[name]
    tables = []
    real = sequences._shot_table

    def spy(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(sequences, "_shot_table", spy)
    simulate_protocol(prot, TwoLevelPhysics(0.3, 1.5), ideal_pulses=ideal)
    (table,) = tables
    ((_, values),) = prot.axes
    per_point = len(table[0][2]) // values.size
    for p, x in enumerate(values):
        shots = _shots(prot, ideal, x)
        assert len(shots) == per_point
        for s, shot in enumerate(shots):
            assert shot == [(kind, target, *cols[p * per_point + s]) for kind, target, cols in table]


def test_shots_at_a_point_off_the_axis():
    # the axis may be empty: the point's own value builds its rows
    (shot,) = _shots(rabi_protocol(100.0, 0.0, []), x=1.5)
    assert [seg.duration_ns for seg in shot] == [0.0, 1.5, 0.0]


@pytest.mark.parametrize("name", ["rabi", "t1", "ramsey-serrodyne", "echo-free"])
@pytest.mark.parametrize("ideal", [False, True])
def test_repeated_and_zero_scan_values_read_as_their_points(name, ideal):
    # equal rows of a table share their states; each point still reads its own
    prot = TABLE_PROTOCOLS[name]
    ((axis, values),) = prot.axes
    physics, ens = TwoLevelPhysics(0.3, 1.5, 0.02), EnsembleSpec(t2star_ns=30.0, nodes=9)

    def run(x):
        return simulate_protocol(replace(prot, axes=((axis, x),)), physics, ens, ideal_pulses=ideal).signal

    got = run([0.0, values[1], values[1], 0.0])
    assert got[1] == got[2] and got[0] == got[3]
    assert got[:2] == pytest.approx([run([0.0])[0], run([values[1]])[0]], abs=1e-12)


def test_finite_pulse_serrodyne_ramsey_matches_per_shot_oracle(monkeypatch):
    # the pi/2 pulses are 2 ns drives at 125 MHz and delta = 30 MHz, the
    # second at the serrodyne phase pi/2 - 2 pi f_serr tau (+ pi for the
    # second shot of a pair); per node offset d the oracle writes out
    # H = 2 pi ((omega/2)(cos phase sx + sin phase sy) + ((delta + d)/2) sz)
    # and exponentiates each segment's Liouvillian
    omega, delta, f_serr, taus = 125.0, 30.0, 80.0, np.linspace(0.0, 40.0, 9)
    prot = ramsey_protocol(omega, delta, taus, f_serr_mhz=f_serr)
    physics = TwoLevelPhysics(gamma1_mhz=0.3, gamma2_mhz=1.5, epsilon_init=0.02)
    offsets = quadrature_nodes(gaussian_sigma(30.0), 9)[0]
    seen = []

    def spy(weights, traces):
        seen.append(np.array(traces))
        return weighted_average(weights, traces)

    monkeypatch.setattr(sequences, "weighted_average", spy)
    simulate_protocol(prot, physics, EnsembleSpec(t2star_ns=30.0, nodes=9), ideal_pulses=False)
    (got,) = seen

    dissipator = model_liouvillian(models.build_two_level(0.0, 0.0, physics.gamma1_mhz, physics.gamma2_mhz))
    eye = np.eye(2)

    def step(rho, omega_mhz, delta_mhz, phase, duration_ns):
        h = mhz_to_angular(1.0) * (omega_mhz / 2 * (math.cos(phase) * models.SIGMA_X
                                                    + math.sin(phase) * models.SIGMA_Y)
                                   + delta_mhz / 2 * models.SIGMA_Z)
        gen = dissipator - 1j * (np.kron(h, eye) - np.kron(eye, h.T))
        return (expm(gen * duration_ns) @ rho.reshape(4)).reshape(2, 2)

    oracle = []
    for d in offsets:
        row = []
        for tau in taus:
            for extra in (0.0, math.pi):
                rho = np.diag([physics.epsilon_init, 1.0 - physics.epsilon_init]).astype(complex)  # |up>
                rho = step(rho, omega, delta + d, 0.0, 1e3 / (4 * omega))
                rho = step(rho, 0.0, delta + d, 0.0, tau)
                rho = step(rho, omega, delta + d, math.pi / 2 - 2 * math.pi * f_serr * 1e-3 * tau + extra,
                           1e3 / (4 * omega))
                row.append(rho[0, 0].real)  # |down>
        oracle.append(row)
    assert got.shape == np.shape(oracle) == (9, 18)
    assert np.abs(got - np.array(oracle)).max() <= 1e-12


# A segment's generators over the ensemble are L(0) + offset * L_offset, with
# L_offset from the binding's offset term; each must be the generator of the
# model at that offset: the two-level segment's detuning, or the four-level
# electron splitting, shifted by the offset.
OFFSETS = settings(max_examples=10, deadline=None, derandomize=True)
SEGMENTS = [
    _row(omega_mhz=37.0, delta_mhz=-12.0, phase=0.7, duration_ns=5.0),  # a drive
    _row(delta_mhz=8.5, duration_ns=5.0),  # a wait
    _row(phase=0.3, duration_ns=5.0, mod_amp_mhz=4.0, mod_freq_mhz=2.0),  # a modulated wait
]


def _offset_generators(binding, seg, offsets_mhz):
    shift = _commutator_superop(binding.offset)
    (base,), _ = binding.generators(seg[None])
    return [base + mhz_to_angular(d) * shift for d in offsets_mhz]


@given(offsets=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4))
@OFFSETS
def test_two_level_offset_term_matches_the_models(offsets):
    binding = sequences._bind(TwoLevelPhysics(gamma1_mhz=1.5, gamma2_mhz=4.0))
    for seg in SEGMENTS:
        for d, gen in zip(offsets, _offset_generators(binding, seg, offsets)):
            omega, delta, phase = (seg + _row(delta_mhz=d))[:3].tolist()
            model = models.build_two_level(omega, delta, 1.5, 4.0, phase=phase)
            assert np.max(np.abs(gen - liouvillian(model))) <= 1e-12


def test_four_level_offset_term_matches_the_models(quick_calibration):
    binding = sequences._bind(SMALL_FOUR_LEVEL)
    offsets = [-250.0, -3.3, 0.0, 41.0, 180.0]
    for seg in (_row(omega_mhz=60.0, duration_ns=5.0), _row(omega_mhz=60.0, delta_mhz=7.5, phase=0.4, duration_ns=5.0)):
        omega, delta = seg[:2].tolist()
        drive, _ = binding.calibrated(omega)
        drive = replace(drive, delta_rf_ghz=drive.delta_rf_ghz + delta * 1e-3)
        for d, gen in zip(offsets, _offset_generators(binding, seg, offsets)):
            shifted = replace(SMALL_FOUR_LEVEL, omega_e_ghz=SMALL_FOUR_LEVEL.omega_e_ghz + d * 1e-3)
            model = models.build_faraday_four_level(shifted, drive)
            assert np.max(np.abs(gen - liouvillian(model))) <= 1e-12


def _counting(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _built_generators(monkeypatch) -> list:
    """Record the shape of each stack that models.two_level_generators builds."""
    shapes = []
    real = models.two_level_generators

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(models, "two_level_generators", recording)
    return shapes


def test_static_segment_builds_one_model_for_all_nodes(monkeypatch):
    shapes = _built_generators(monkeypatch)
    simulate_protocol(rabi_protocol(60.0, 0.0, np.linspace(0.0, 20.0, 11)), TwoLevelPhysics(0.5, 1.0),
                      EnsembleSpec(t2star_ns=20.0, nodes=9))
    assert shapes == [(1, 4, 4)]


def test_driven_wait_builds_one_model_for_all_nodes(monkeypatch):
    shapes = _built_generators(monkeypatch)
    prot = hahn_echo_protocol(125.0, [40.0, 80.0, 120.0], modulation_amp_mhz=4.0, modulation_freq_mhz=20.0)
    simulate_protocol(prot, TwoLevelPhysics(0.5, 1.0), EnsembleSpec(t2star_ns=20.0, nodes=9), **IDEAL)
    # the refocused echo has two distinct waits: a static one before the pi
    # pulse and a modulated one, driven by the modulation, after it
    assert shapes == [(1, 4, 4), (1, 4, 4)]


def test_driven_drive_builds_one_four_level_model_for_all_nodes(monkeypatch, quick_calibration):
    calls = _counting(monkeypatch, models, "build_faraday_four_level")
    simulate_protocol(rabi_protocol(60.0, 0.0, [2.0, 4.0, 6.0]), SMALL_FOUR_LEVEL,
                      EnsembleSpec(t2star_ns=20.0, nodes=9))
    # one drive segment, built once for its 9 nodes and 3 durations
    assert len(calls) == 1
    _, (drives,) = sequences._bind(SMALL_FOUR_LEVEL).generators(_row(omega_mhz=60.0)[None])
    assert drives


@pytest.mark.parametrize("ideal, calls", [(False, 5), (True, 2)])
def test_echo_makes_one_propagation_call_per_evolving_step(monkeypatch, ideal, calls):
    counted = _counting(monkeypatch, sequences, "_propagate")
    simulate_protocol(hahn_echo_protocol(125.0, np.linspace(0.0, 1000.0, 11)), TwoLevelPhysics(0.5, 1.0),
                      EnsembleSpec(t2star_ns=34.0, nodes=9), ideal_pulses=ideal)
    # finite pulses: pi/2, wait, pi, wait, pi/2; ideal pulses: the two waits
    assert len(counted) == calls
