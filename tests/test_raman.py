import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fss.errors import DomainError, UsageError
from fss.raman import (
    GAAS_DELTA_SO_MEV,
    JonesVector,
    RamanParams,
    differential_stark,
    eta_from_cyclicity,
    eta_from_slope,
    hole_mixing_from_strain,
    hwp_matrix,
    jones_through_waveplates,
    qwp_matrix,
    raman_coupling_in_plane,
    raman_coupling_with_pi_z,
    s3_map,
    stokes,
    two_photon_rabi,
)


class TestTwoPhotonRabi:
    def test_direct_arithmetic(self):
        assert two_photon_rabi(6.0, 0.3, 600.0) == pytest.approx(1.5)

    def test_zero_arm(self):
        assert two_photon_rabi(6.0, 0.0, 600.0) == 0.0

    def test_imbalance_form_identity(self):
        # Omega_down^2 / (2 eta Delta) with eta = Omega_down/Omega_up
        od, ou, dd = 7.3, 0.41, 580.0
        eta = od / ou
        assert two_photon_rabi(od, ou, dd) == pytest.approx(
            od**2 / (2 * eta * dd) * 1e3, rel=1e-12
        )

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError):
            two_photon_rabi(1.0, 1.0, 0.0)


class TestDifferentialStark:
    def test_balanced_arms(self):
        assert differential_stark(100.0, 1.0) == 0.0

    def test_ideal_cyclicity_ratio(self):
        eta = math.sqrt(409.0)
        assert abs(differential_stark(1.0, eta)) == pytest.approx(10.08, abs=0.05)

    def test_measured_imbalance(self):
        assert abs(differential_stark(1.0, 34.0)) == pytest.approx(16.99, abs=0.01)

    def test_signs(self):
        assert differential_stark(100.0, 20.0, "sigma-") < 0
        assert differential_stark(100.0, 20.0, "sigma+") > 0

    def test_odd_under_inversion_with_handedness_flip(self):
        for eta in (1.7, 5.0, 34.0):
            a = differential_stark(80.0, eta, "sigma-")
            b = differential_stark(80.0, 1.0 / eta, "sigma+")
            assert a == pytest.approx(-b, rel=1e-12)


class TestEtaInversions:
    def test_slope_examples(self):
        assert eta_from_slope(17.2) == pytest.approx(34.4, abs=0.1)
        assert eta_from_slope(-7.4) == pytest.approx(14.9, abs=0.1)
        assert eta_from_slope(0.0) == 1.0

    def test_cyclicity_examples(self):
        assert eta_from_cyclicity(409.0) == pytest.approx(20.22, abs=0.01)
        assert eta_from_cyclicity(1.0) == 1.0
        assert eta_from_cyclicity(289.0) == pytest.approx(17.0, abs=0.01)
        assert eta_from_cyclicity(409.0, "sigma+") == pytest.approx(1 / 20.22, abs=1e-4)

    @given(st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_slope_round_trip(self, eta):
        slope = differential_stark(1.0, eta, "sigma+")
        assert eta_from_slope(slope) == pytest.approx(eta, rel=1e-10)

    def test_params_consistency_check(self):
        with pytest.raises(UsageError):
            RamanParams(delta_ghz=600.0, omega_down_ghz=6.0, omega_up_ghz=0.3, eta=5.0)
        p = RamanParams(delta_ghz=600.0, omega_down_ghz=6.0, omega_up_ghz=0.3)
        assert p.eta == pytest.approx(20.0)


class TestHoleMixing:
    def test_unstrained(self):
        hm = hole_mixing_from_strain(np.zeros((3, 3)), delta_lh_override_mev=3.0)
        assert hm.chi == 0 and hm.epsilon == 0 and hm.alpha == 1.0

    def test_gaas_limit(self):
        # R = 0, spin-orbit dominant: chi -> -sqrt(2) S* / Delta_lh
        e = np.zeros((3, 3))
        e[0, 2] = e[2, 0] = 1e-4
        e[1, 2] = e[2, 1] = 3e-5
        delta_lh = GAAS_DELTA_SO_MEV / 60.0
        hm = hole_mixing_from_strain(e, delta_lh_override_mev=delta_lh)
        assert abs(hm.r_mev) == 0.0
        approx_chi = -math.sqrt(2.0) * np.conj(hm.s_mev) / delta_lh
        assert hm.chi == pytest.approx(approx_chi, rel=0.02)

    def test_generic_tensor_against_direct_evaluation(self):
        # independent re-evaluation of the full expressions
        e = np.array([
            [1e-3, 2e-4, 1e-4],
            [2e-4, -5e-4, 0.0],
            [1e-4, 0.0, 0.0],
        ])
        b, d, dso, dlh = -2000.0, -4800.0, 341.0, 3.0
        hm = hole_mixing_from_strain(e, b, d, dso, delta_lh_override_mev=dlh)
        r = (math.sqrt(3) / 2) * b * (e[0, 0] - e[1, 1]) - 1j * d * e[0, 1]
        s = (d / math.sqrt(2)) * (e[2, 0] - 1j * e[1, 2])
        chi = (-math.sqrt(2) * dso * np.conj(s) - math.sqrt(6) * s * np.conj(r)) / (dlh * dso)
        eps = ((1.5 * dlh + dso) * np.conj(r) + math.sqrt(3) * np.conj(s) ** 2) / (dlh * dso)
        norm = math.sqrt(1 + abs(chi) ** 2 + abs(eps) ** 2)
        assert hm.chi == pytest.approx(chi / norm, rel=1e-12)
        assert hm.epsilon == pytest.approx(eps / norm, rel=1e-12)
        assert hm.alpha**2 + abs(hm.chi) ** 2 + abs(hm.epsilon) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_inverted_ordering_rejected(self):
        e = np.zeros((3, 3))
        e[0, 0] = e[1, 1] = 5e-4  # with b < 0 this inverts the splitting
        with pytest.raises(DomainError):
            hole_mixing_from_strain(e)


class TestRamanCoupling:
    def test_destructive_interference(self):
        assert raman_coupling_in_plane(0.1 + 0.05j, 2.0, 2.0, 600.0, 0.0) == 0.0

    def test_single_path_limit(self):
        chi = 0.07 - 0.02j
        val = raman_coupling_in_plane(chi, 3.0, 0.0, 600.0, 150.0)
        assert val == pytest.approx(-np.conj(chi) * 3.0 / 1200.0)

    def test_two_path_difference(self):
        chi, inten = 0.1, 2.5
        val = raman_coupling_in_plane(chi, inten, inten, 600.0, 150.0)
        assert abs(val) == pytest.approx(abs(chi) * inten * (1 / 1200 - 1 / 1500), rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            raman_coupling_in_plane(0.1, 1.0, 1.0, 0.0, 10.0)
        with pytest.raises(DomainError):
            raman_coupling_in_plane(0.1, 1.0, 1.0, -150.0, 150.0)

    def test_pi_z_reduction(self):
        chi, eps = 0.08 + 0.01j, 0.03 - 0.02j
        om, op, opi = 1.5 + 0.2j, 0.9 - 0.4j, 0.7 + 0.7j
        with_pi = raman_coupling_with_pi_z(chi, eps, 0.0, om, op, opi, 600.0, 150.0)
        in_plane = raman_coupling_in_plane(chi, abs(om) ** 2, abs(op) ** 2, 600.0, 150.0)
        assert with_pi == pytest.approx(in_plane, rel=1e-12)
        with_pi_eps0 = raman_coupling_with_pi_z(chi, 0.0, 0.8, om, op, opi, 600.0, 150.0)
        assert with_pi_eps0 == pytest.approx(in_plane, rel=1e-12)

    def test_pure_pi_z_drive(self):
        val = raman_coupling_with_pi_z(0.1, 0.05, 0.8, 0.0, 0.0, 1.0, 600.0, 150.0)
        assert val == 0.0

    def test_phase_scan_can_beat_circular_only(self):
        # elliptical input with a pi_z component can exceed the circular-only
        # coupling for a suitable relative phase
        chi, eps, eta_z = 0.08, 0.06, 0.5
        base = abs(raman_coupling_with_pi_z(chi, eps, eta_z, 1.0, 0.0, 0.0, 600.0, 150.0))
        best = max(
            abs(raman_coupling_with_pi_z(chi, eps, eta_z, 1.0, 0.0,
                                         0.6 * np.exp(1j * ph), 600.0, 150.0))
            for ph in np.linspace(0, 2 * np.pi, 32, endpoint=False)
        )
        assert best > base


class TestWaveplates:
    def test_aligned_fast_axes_keep_horizontal(self):
        out = jones_through_waveplates(JonesVector.horizontal(), 0.0, 0.0)
        assert abs(out.h) == pytest.approx(1.0)
        assert abs(out.v) == pytest.approx(0.0, abs=1e-12)

    def test_qwp_at_45_makes_circular(self):
        for angle, s3_sign in ((45.0, +1.0), (-45.0, -1.0), (-135.0, +1.0)):
            out = jones_through_waveplates(JonesVector.horizontal(), 0.0, angle)
            assert stokes(out).s3 == pytest.approx(s3_sign, abs=1e-12)

    @given(
        st.floats(min_value=-180, max_value=180),
        st.floats(min_value=-180, max_value=180),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0, max_value=2 * math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_unitarity_and_product_oracle(self, hwp, qwp, mix, phase):
        state = JonesVector(math.sqrt(1 - mix), math.sqrt(mix) * np.exp(1j * phase))
        out = jones_through_waveplates(state, hwp, qwp)
        norm = abs(out.h) ** 2 + abs(out.v) ** 2
        assert norm == pytest.approx(1.0, abs=1e-12)
        # brute-force 2x2 complex product
        oracle = qwp_matrix(qwp) @ (hwp_matrix(hwp) @ state.as_array())
        assert np.allclose(out.as_array(), oracle, atol=1e-12)

    def test_stokes_basic_states(self):
        s = stokes(JonesVector.horizontal())
        assert (s.s0, s.s1, s.s2, s.s3) == pytest.approx((1.0, 1.0, 0.0, 0.0), abs=1e-12)
        s = stokes(JonesVector.diagonal())
        assert (s.s1, s.s2, s.s3) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_pure_state_polarization_identity(self):
        s = stokes(JonesVector(0.6, 0.8j))
        assert s.s1**2 + s.s2**2 + s.s3**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("state", [JonesVector.horizontal(), JonesVector.diagonal(),
                                       JonesVector(0.8, 0.3 + 0.5j)], ids=["H", "D", "elliptical"])
    def test_s3_map_matches_per_point_stokes(self, state):
        rng = np.random.default_rng(5)
        hwp = np.sort(rng.uniform(-200, 200, 13))
        qwp = np.sort(rng.uniform(-200, 200, 11))
        m = s3_map(hwp, qwp, state)
        expected = [[stokes(jones_through_waveplates(state, h, q)).s3 for q in qwp] for h in hwp]
        assert m.shape == (13, 11)
        assert np.max(np.abs(m - expected)) <= 1e-12

    @pytest.mark.parametrize("hwp, qwp", [([], [0.0, 45.0]), ([0.0, 45.0], []), ([], []),
                                          ([22.5], [45.0])])
    def test_s3_map_degenerate_axes_keep_shape(self, hwp, qwp):
        m = s3_map(hwp, qwp)
        assert m.shape == (len(hwp), len(qwp))
        if m.size:
            assert m[0, 0] == pytest.approx(stokes(jones_through_waveplates(JonesVector.horizontal(),
                                                                            hwp[0], qwp[0])).s3, abs=1e-12)

    def test_s3_map_extrema_structure(self):
        # two |S3| = 1 islands per 180 deg period in each angle
        hwp = np.arange(0, 180, 2.5)
        qwp = np.arange(0, 180, 2.5)
        m = s3_map(hwp, qwp)
        assert m.max() == pytest.approx(1.0, abs=1e-12)
        assert m.min() == pytest.approx(-1.0, abs=1e-12)
        # with hwp fixed at 0, exactly one sigma- and one sigma+ extremum
        # per 180 deg of qwp rotation (at 45 and 135 deg)
        row = m[0]
        assert np.sum(row > 1 - 1e-9) == 1 and np.sum(row < -1 + 1e-9) == 1
        assert row[np.where(qwp == 45.0)[0][0]] == pytest.approx(1.0, abs=1e-12)
        assert row[np.where(qwp == 135.0)[0][0]] == pytest.approx(-1.0, abs=1e-12)
        # a sizeable fraction of the map is strongly circular
        assert np.mean(np.abs(m) > 0.7) > 0.2
