import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fss import models, sequences
from fss.core import DensityMatrix, _commutator_superop, evolve, expectation, liouvillian
from fss.ensemble import EnsembleSpec, gaussian_sigma, quadrature_nodes, weighted_average
from fss.errors import UsageError
from fss.fitting import MODEL_LIBRARY, fft_spectrum, fit
from fss.models import FaradayParams
from fss.sequences import (
    CoolingSpec,
    PulseSegment,
    PulseSequence,
    TwoLevelPhysics,
    esr_scan_protocol,
    hahn_echo_protocol,
    rabi_protocol,
    rabi_q_protocol,
    ramsey_protocol,
    simulate_protocol,
    spin_pumping_analysis,
    spin_pumping_protocol,
    t1_protocol,
)
from fss.units import mhz_to_angular, rate_mhz_from_lifetime

IDEAL = dict(ideal_pulses=True)

# four-level model with small splittings and detuning, so that RK45 takes
# few steps for either handedness
SMALL_FOUR_LEVEL = FaradayParams(omega_e_ghz=2.6, omega_h_ghz=6.0, delta_ghz=4.0, cyclicity=409.0,
                                 gamma1_mhz=589.463, bigGamma1_mhz=0.2, bigGamma2_mhz=1.0)


@pytest.fixture
def quick_calibration(monkeypatch):
    """Replace the refined four-level drive calibration by its perturbative
    estimate (the refinement costs seconds) and record each call's Rabi
    frequency."""
    calls = []
    original = models.calibrate_faraday_drive

    def estimate(p, omega_mhz, handedness="sigma-"):
        calls.append(omega_mhz)
        return original(p, omega_mhz, handedness, refine=False)

    monkeypatch.setattr(models, "calibrate_faraday_drive", estimate)
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
        (shot,) = prot.shots(tau_ns=4.0)
        kinds = [seg.kind for seg in shot.segments]
        assert kinds == ["initialize", "drive", "readout"]
        assert shot.segments[1].duration_ns == 4.0

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
        cool = CoolingSpec(method="modified-algorithmic", resulting_t2star_ns=74.0,
                           metadata={"t_sense_ns": 55.0, "n_cycles": 30})
        tau = np.linspace(0, 100, 51)
        prot = ramsey_protocol(125.0, 50.0, tau, cooling=cool)
        res = simulate_protocol(prot, TwoLevelPhysics(), **IDEAL)
        envelope = np.exp(-((tau / 74.0) ** 2))
        assert np.max(np.abs(res.signal - envelope * np.cos(2e-3 * np.pi * 50.0 * tau))) < 0.01


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
        real = fss.core.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            spans.append(t_span)
            return real(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(fss.core, "solve_ivp", recording)
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
        with pytest.raises(UsageError):
            PulseSegment("wait", omega_mhz=10.0)
        with pytest.raises(UsageError):
            PulseSegment("drive", duration_ns=-1.0)
        with pytest.raises(UsageError):
            PulseSegment("sleep")


class TestShotExecutor:
    def test_simulation_runs_the_shots(self, monkeypatch):
        # lengthen the wait of the tau = 10 ns shots to 20 ns: that point must
        # then read like tau = 20 ns, because the shots are what runs
        prot = ramsey_protocol(125.0, 30.0, [0.0, 10.0, 20.0])
        ens = EnsembleSpec(t2star_ns=34.0, nodes=9)
        base = simulate_protocol(prot, TwoLevelPhysics(), ens, **IDEAL).signal
        original = sequences._shots_for

        def lengthened(p, point, ideal_pulses=False):
            shots = original(p, point, ideal_pulses)
            if point["tau_ns"] != 10.0:
                return shots
            return [PulseSequence(tuple(replace(seg, duration_ns=20.0) if seg.kind == "wait" else seg
                                        for seg in shot.segments)) for shot in shots]

        monkeypatch.setattr(sequences, "_shots_for", lengthened)
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
            guarded.append(int(np.prod(np.shape(rhos)[:-2])))
            return real(rhos, *args, **kwargs)

        monkeypatch.setattr(fss.core, "_guard", counting)
        monkeypatch.setattr(sequences, "_guard", counting)
        prot = ramsey_protocol(125.0, 30.0, [0.0, 10.0, 20.0, 35.0])
        simulate_protocol(prot, TwoLevelPhysics(epsilon_init=0.01),
                          EnsembleSpec(t2star_ns=34.0, nodes=9), ideal_pulses=ideal)
        # a state per node for every distinct shot prefix that ends in a
        # rotation or in a drive or wait of nonzero duration, plus the two
        # initial states the binding prepares
        prefixes = {shot.segments[:k + 1]
                    for x in prot.axis("tau_ns") for shot in prot.shots(ideal, tau_ns=x)
                    for k, seg in enumerate(shot.segments)
                    if seg.kind == "rotation" or (seg.kind in ("drive", "wait") and seg.duration_ns > 0)}
        assert sum(guarded) == 9 * len(prefixes) + 2

    def test_ideal_pulses_are_rotations_in_the_shots(self):
        prot = hahn_echo_protocol(125.0, [0.0, 100.0])
        shot = prot.shots(ideal_pulses=True, total_delay_ns=100.0)[0]
        assert [seg.kind for seg in shot.segments] == [
            "initialize", "rotation", "wait", "rotation", "wait", "rotation", "readout"]
        assert [seg.angle for seg in shot.segments if seg.kind == "rotation"] == [
            math.pi / 2, math.pi, math.pi / 2]
        (rabi,) = rabi_protocol(100.0, 0.0, [1.0]).shots(ideal_pulses=True, tau_ns=1.0)
        assert [seg.kind for seg in rabi.segments] == ["initialize", "drive", "readout"]

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
        original = sequences._shots_for

        def lengthened(p, point, ideal_pulses=False):
            shots = original(p, point, ideal_pulses)
            if point["tau_ns"] != 2.0:
                return shots
            return [PulseSequence(tuple(replace(seg, duration_ns=6.0) if seg.kind == "drive" else seg
                                        for seg in shot.segments)) for shot in shots]

        monkeypatch.setattr(sequences, "_shots_for", lengthened)
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
            traj = evolve(model, DensityMatrix.pure(4, 1), np.concatenate([[0.0], tau]),
                          rtol=1e-9, atol=1e-12)
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


# A segment's generators over the ensemble are L(0) + offset * L_offset, with
# L_offset from the binding's offset term; each must be the generator of the
# model at that offset: the two-level segment's detuning, or the four-level
# electron splitting, shifted by the offset.
OFFSETS = settings(max_examples=10, deadline=None, derandomize=True)
SEGMENTS = [
    PulseSegment("drive", 37.0, -12.0, 0.7, 5.0),
    PulseSegment("wait", 0.0, 8.5, 0.0, 5.0),
    PulseSegment("wait", phase=0.3, duration_ns=5.0, mod_amp_mhz=4.0, mod_freq_mhz=2.0),
]


def _offset_generators(binding, seg, offsets_mhz):
    shift = _commutator_superop(binding.offset)
    base = liouvillian(binding.model(seg))
    return [base + mhz_to_angular(d) * shift for d in offsets_mhz]


@given(offsets=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4))
@OFFSETS
def test_two_level_offset_term_matches_the_models(offsets):
    binding = sequences._bind(TwoLevelPhysics(gamma1_mhz=1.5, gamma2_mhz=4.0))
    for seg in SEGMENTS:
        for d, gen in zip(offsets, _offset_generators(binding, seg, offsets)):
            model = binding.model(replace(seg, delta_mhz=seg.delta_mhz + d))
            assert np.max(np.abs(gen - liouvillian(model))) <= 1e-12


def test_four_level_offset_term_matches_the_models(quick_calibration):
    binding = sequences._bind(SMALL_FOUR_LEVEL)
    offsets = [-250.0, -3.3, 0.0, 41.0, 180.0]
    for seg in (PulseSegment("drive", 60.0, 0.0, 0.0, 5.0), PulseSegment("drive", 60.0, 7.5, 0.4, 5.0)):
        drive, _ = binding.calibrated(seg.omega_mhz)
        drive = replace(drive, delta_rf_ghz=drive.delta_rf_ghz + seg.delta_mhz * 1e-3)
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


def test_static_segment_builds_one_model_for_all_nodes(monkeypatch):
    calls = _counting(monkeypatch, sequences, "build_two_level")
    simulate_protocol(rabi_protocol(60.0, 0.0, np.linspace(0.0, 20.0, 11)), TwoLevelPhysics(0.5, 1.0),
                      EnsembleSpec(t2star_ns=20.0, nodes=9))
    assert len(calls) == 1


def test_driven_wait_builds_one_model_for_all_nodes(monkeypatch):
    calls = _counting(monkeypatch, sequences, "build_two_level")
    prot = hahn_echo_protocol(125.0, [40.0, 80.0, 120.0], modulation_amp_mhz=4.0, modulation_freq_mhz=20.0)
    simulate_protocol(prot, TwoLevelPhysics(0.5, 1.0), EnsembleSpec(t2star_ns=20.0, nodes=9), **IDEAL)
    # the refocused echo has two distinct waits: a static one before the pi
    # pulse and a modulated one, driven by the modulation, after it
    assert len(calls) == 2


def test_driven_drive_builds_one_four_level_model_for_all_nodes(monkeypatch, quick_calibration):
    calls = _counting(monkeypatch, models, "build_faraday_four_level")
    simulate_protocol(rabi_protocol(60.0, 0.0, [2.0, 4.0, 6.0]), SMALL_FOUR_LEVEL,
                      EnsembleSpec(t2star_ns=20.0, nodes=9))
    # one drive segment, built once for its 9 nodes and 3 durations
    assert len(calls) == 1
    assert sequences._bind(SMALL_FOUR_LEVEL).model(PulseSegment("drive", 60.0)).time_dependent
