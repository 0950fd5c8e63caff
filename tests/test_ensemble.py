import numpy as np
import pytest

from fss.ensemble import (
    EnsembleSpec,
    combined_sigma,
    fwhm_from_t2star,
    gaussian_sigma,
    laser_sigma,
    quadrature_nodes,
    weighted_average,
)
from fss.errors import UsageError


def _average(trace, sigma_mhz: float, nodes: int = 21) -> np.ndarray:
    """Quadrature average of ``trace(offset)`` over a Gaussian detuning ensemble."""
    offsets, weights = quadrature_nodes(sigma_mhz, nodes)
    return weighted_average(weights, [trace(d) for d in offsets])


class TestGaussianSigma:
    def test_t2star_74ns(self):
        sigma = gaussian_sigma(74.0)
        assert sigma == pytest.approx(3.04, abs=0.01)
        assert fwhm_from_t2star(74.0) == pytest.approx(7.2, abs=0.05)

    def test_long_t2star_limit(self):
        assert gaussian_sigma(1e12) == pytest.approx(0.0, abs=1e-9)

    def test_quadrature_matches_closed_form(self):
        # ensemble-averaged cos(2 pi delta tau) = exp(-(tau/T2*)^2)
        t2star = 34.0
        sigma = gaussian_sigma(t2star)
        for tau in np.linspace(0.0, 3 * t2star, 16):
            avg = _average(lambda d: np.cos(2e-3 * np.pi * d * tau), sigma)
            assert avg == pytest.approx(np.exp(-((tau / t2star) ** 2)), abs=1e-6)


class TestCombinedSigma:
    def test_no_laser_noise(self):
        spec = EnsembleSpec(t2star_ns=34.0)
        assert combined_sigma(spec) == gaussian_sigma(34.0)

    def test_laser_broadening_value(self):
        spec = EnsembleSpec(t2star_ns=1e9, stark_ratio=7.4, omega_mhz=250.0, di_over_i=0.01)
        assert laser_sigma(spec) == pytest.approx(18.5)

    def test_quadrature_sum(self):
        # equal 3 MHz contributions combine to 3 sqrt(2)
        t2star = np.sqrt(2) / (2 * np.pi * 3.0) * 1e3
        spec = EnsembleSpec(t2star_ns=t2star, stark_ratio=1.0, omega_mhz=300.0, di_over_i=0.01)
        assert combined_sigma(spec) == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-9)

    def test_symmetric_in_contributions(self):
        a = EnsembleSpec(t2star_ns=gaussian_sigma_inverse(2.0), stark_ratio=1.0,
                         omega_mhz=500.0, di_over_i=0.01)
        b = EnsembleSpec(t2star_ns=gaussian_sigma_inverse(5.0), stark_ratio=1.0,
                         omega_mhz=200.0, di_over_i=0.01)
        assert combined_sigma(a) == pytest.approx(combined_sigma(b))


def gaussian_sigma_inverse(sigma_mhz: float) -> float:
    """T2* whose Overhauser spread equals sigma; 5 and 2 MHz laser terms swap roles."""
    return np.sqrt(2) / (2 * np.pi * sigma_mhz) * 1e3


class TestEnsembleAverage:
    def test_node_convergence(self):
        # 21 vs 41 nodes agree to < 1e-6 of the trace scale out to tau = 3 T2*
        t2star = 34.0
        sigma = gaussian_sigma(t2star)
        tau = np.linspace(0.0, 3 * t2star, 40)

        def sim(d):
            return np.cos(2e-3 * np.pi * d * tau)

        a = _average(sim, sigma, nodes=21)
        b = _average(sim, sigma, nodes=41)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_compensated_sum_reproducible(self):
        rng = np.random.default_rng(3)
        traces = [rng.normal(size=8) for _ in range(21)]
        weights = rng.dirichlet(np.ones(21))
        a = weighted_average(weights, traces)
        b = weighted_average(weights, traces)
        assert np.array_equal(a, b)
        exact = [float(np.sum([np.float64(w) * tr[k] for w, tr in zip(weights, traces)]))
                 for k in range(8)]
        assert np.max(np.abs(a - exact)) < 1e-12

    def test_quadrature_weights_normalized(self):
        _, w = quadrature_nodes(5.0, 21)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)


class TestQuadratureNodes:
    def test_callers_get_fresh_arrays(self):
        x, w = quadrature_nodes(1.0, 9)
        ref_x, ref_w = x.copy(), w.copy()
        x[:] = 0.0
        w[:] = 0.0
        again_x, again_w = quadrature_nodes(1.0, 9)
        assert np.array_equal(again_x, ref_x) and np.array_equal(again_w, ref_w)
        assert again_x.flags.writeable and again_w.flags.writeable


class TestSpecValidation:
    def test_even_nodes_rejected(self):
        with pytest.raises(UsageError):
            EnsembleSpec(t2star_ns=34.0, nodes=10)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(UsageError):
            EnsembleSpec(t2star_ns=34.0, nodes=7)

    def test_negative_noise_rejected(self):
        with pytest.raises(UsageError):
            EnsembleSpec(t2star_ns=34.0, di_over_i=-0.01)

    def test_nonpositive_t2star_rejected(self):
        with pytest.raises(UsageError):
            EnsembleSpec(t2star_ns=0.0)
