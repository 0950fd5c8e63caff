"""Nonlinear least-squares engine, the model-function library, and spectral analysis.

:func:`fit` is a damped least-squares engine with numeric Jacobians: a
numpy Levenberg-Marquardt with a trust region, projected onto the bounds a
model declares.  Every fit in the package goes through it, the ensemble
master-equation Rabi fit (:func:`fit_rabi_master_equation`) included.
Standard errors come from the Jacobian at the optimum, (J^T W J)^-1 scaled
by the reduced chi-square; a singular Jacobian produces a rank-deficiency
report naming the unidentifiable parameters instead of bogus error bars.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ensemble import FWHM_PER_SIGMA, gaussian_sigma
from .errors import DataError, DomainError, UsageError
from .units import GYROMAGNETIC_MHZ_PER_T

_RANK_TOL = 1e-9
# the step, cost-reduction and gradient tolerances of the least-squares engine
_LS_TOL = 1e-11


@dataclass(frozen=True)
class FitModel:
    """Named model function y = f(x; params) with declared parameter names."""

    name: str
    param_names: tuple[str, ...]
    func: Callable
    units: tuple[str, ...] = ()
    bounds: tuple | None = None  # (lower array, upper array)

    def __call__(self, x, *params):
        return self.func(np.asarray(x, dtype=float), *params)


@dataclass
class FitResult:
    model: str
    param_names: tuple[str, ...]
    params: np.ndarray
    stderr: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    status: str
    n_eval: int
    unidentifiable: tuple[str, ...] = ()
    fixed: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        if name in self.fixed:
            return self.fixed[name]
        return float(self.params[self.param_names.index(name)])

    def error(self, name: str) -> float:
        if name in self.fixed:
            return 0.0
        return float(self.stderr[self.param_names.index(name)])

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "converged": self.converged,
            "status": self.status,
            "residual_norm": self.residual_norm,
            "n_eval": self.n_eval,
            "parameters": {
                name: {"value": self[name], "stderr": self.error(name)}
                for name in (*self.param_names, *self.fixed)
            },
            "unidentifiable": list(self.unidentifiable),
        }


def fit(
    model: FitModel,
    xdata,
    ydata,
    p0,
    yerr=None,
    fixed: dict | None = None,
    max_nfev: int = 2000,
) -> FitResult:
    """Weighted nonlinear least squares; deterministic for fixed inputs.

    ``fixed`` freezes named parameters at given values.  The optimiser is
    Levenberg-Marquardt (:func:`_least_squares`), projected onto the bounds
    when the model declares them; the errors come from a finite-difference
    Jacobian at the optimum, the optimiser's own if it took one there.
    ``max_nfev`` caps the optimiser's model evaluations, and the result's
    ``n_eval`` counts every model evaluation the optimiser made, its
    finite-difference Jacobians included; no point is evaluated twice.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    if x.shape != y.shape:
        raise UsageError("x and y lengths differ")
    w = np.ones_like(y) if yerr is None else 1.0 / np.asarray(yerr, dtype=float)
    if yerr is not None and np.asarray(yerr).shape != y.shape:
        raise UsageError("yerr length differs from data")

    fixed = dict(fixed or {})
    for name in fixed:
        if name not in model.param_names:
            raise UsageError(f"cannot fix unknown parameter {name!r}")
    free_names = tuple(n for n in model.param_names if n not in fixed)
    if not free_names:
        raise UsageError("no free parameters")
    p0_map = dict(zip(model.param_names, np.asarray(p0, dtype=float))) if not isinstance(p0, dict) else dict(p0)
    p_free0 = np.array([p0_map[n] for n in free_names], dtype=float)

    def full(p_free):
        vals = dict(zip(free_names, p_free))
        vals.update(fixed)
        return [vals[n] for n in model.param_names]

    n_eval = 0

    def residuals(p_free):
        nonlocal n_eval
        n_eval += 1
        return (model(x, *full(p_free)) - y) * w

    lower, upper = np.full(p_free0.size, -np.inf), np.full(p_free0.size, np.inf)
    if model.bounds is not None:
        free_idx = [model.param_names.index(n) for n in free_names]
        lower, upper = (np.asarray(b, dtype=float)[free_idx] for b in model.bounds)
    # scale each direction by the guess magnitude: parameters here span
    # orders of magnitude (GHz splittings against sub-ns^-1 rates)
    x_scale = np.where(np.abs(p_free0) > 0, np.abs(p_free0), 1.0)
    p_opt, r, jac, converged = _least_squares(residuals, p_free0, lower, upper, x_scale, max_nfev)
    status = "converged" if converged else "max-iterations"
    n_opt = n_eval  # the error bars below are not part of the optimisation

    if jac is None:
        jac = _numeric_jacobian(residuals, p_opt, r, upper)
    stderr, cov, unident = _errors_from_jacobian(jac, r, len(free_names))
    if unident:
        status = "rank-deficient"
    return FitResult(
        model=model.name,
        param_names=free_names,
        params=np.asarray(p_opt, dtype=float),
        stderr=stderr,
        covariance=cov,
        residual_norm=float(np.sqrt(np.sum(r * r))),
        converged=converged,
        status=status,
        n_eval=n_opt,
        unidentifiable=tuple(free_names[i] for i in unident),
        fixed=fixed,
    )


def _least_squares(residuals, p0: np.ndarray, lower: np.ndarray, upper: np.ndarray, scale: np.ndarray,
                   max_nfev: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, bool]:
    """Minimise sum(residuals(p)^2) by Levenberg-Marquardt from p0 projected
    onto [lower, upper]; returns the optimum, its residuals, the
    forward-difference Jacobian there if one was taken there (else None) and
    whether it converged within ``max_nfev`` calls of ``residuals``.

    The damping is set by a trust region on the scaled parameters p / scale
    (Moré, Lecture Notes in Mathematics 630, 105, 1978), which starts, grows
    and shrinks as in MINPACK's lmdif: the step is the Gauss-Newton step
    when it fits in the region, otherwise the damped step that reaches its
    edge, both from the SVD of the forward-difference Jacobian.  Each step
    is projected onto the bounds, after a parameter that it would take past
    a bound from further than 1e-6 of its scale is sent only half of the way
    there: a width whose sign does not matter then does not land on the
    1e-12 floor of a zero model.  Parameters that the gradient holds at a
    bound stay there.  It converges when the region shrinks below _LS_TOL of
    the scaled parameters, when both the actual and the predicted cost
    reduction of a step are at most _LS_TOL of the cost, or when every free
    column of the Jacobian is within _LS_TOL of orthogonal to the residuals.
    A trial equal to the one just rejected, as after a rejection that
    shrinks the region to the length of the Gauss-Newton step, reuses its
    residuals.
    """
    n = p0.size
    p = np.clip(p0, lower, upper)
    r = residuals(p)
    if not np.isfinite(r).all():
        raise UsageError("the residuals are not finite at the initial guess")
    nfev, cost = 1, float(r @ r)
    radius = 100.0 * (np.linalg.norm(p / scale) or 1.0)
    rejected = None  # the last rejected trial, with its residuals
    at_p = None  # the forward-difference Jacobian at p
    while nfev + n + 1 <= max_nfev:
        at_p = _numeric_jacobian(residuals, p, r, upper)
        jac = at_p * scale
        nfev += n
        grad = jac.T @ r
        held = ((p <= lower) & (grad > 0)) | ((p >= upper) & (grad < 0))
        jac[:, held] = 0.0
        if np.all(np.abs(grad[~held]) <= _LS_TOL * np.linalg.norm(jac[:, ~held], axis=0) * math.sqrt(cost)):
            return p, r, at_p, True
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        ur = u.T @ r
        while nfev < max_nfev:
            damping = _damping(sv, ur, radius)
            gain = np.divide(sv, sv**2 + damping, out=np.zeros_like(sv), where=sv > 0)
            step = -(vt.T @ (gain * ur)) * scale
            gap = np.where(step < 0, p - lower, upper - p)
            past = (np.abs(step) > gap) & (gap > 1e-6 * scale)
            step[past] = np.copysign(0.5 * gap[past], step[past])
            trial = np.clip(p + step, lower, upper)
            dz = (trial - p) / scale
            if rejected is not None and np.array_equal(trial, rejected[0]):
                r_trial = rejected[1]
            else:
                r_trial = residuals(trial)
                nfev += 1
            cost_trial = float(r_trial @ r_trial)
            # MINPACK's relative reductions and region update (lmdif)
            length, fit_part = np.linalg.norm(dz), float(np.sum((jac @ dz) ** 2)) / cost
            predicted = fit_part + 2.0 * damping * length**2 / cost
            far = not cost_trial < 100.0 * cost  # a NaN cost too
            actual = -1.0 if far else 1.0 - cost_trial / cost
            ratio = actual / predicted if predicted > 0 else 0.0
            if ratio <= 0.25:
                slope = -(fit_part + damping * length**2 / cost)
                shrink = 0.5 if actual >= 0 else 0.5 * slope / (slope + 0.5 * actual)
                radius = (0.1 if far else max(shrink, 0.1)) * min(radius, 10.0 * length)
            elif damping == 0.0 or ratio >= 0.75:
                radius = 2.0 * length
            if ratio >= 1e-4:
                p, r, cost, at_p = trial, r_trial, cost_trial, None
            else:
                rejected = trial, r_trial
            if (abs(actual) <= _LS_TOL and predicted <= _LS_TOL and ratio <= 2.0
                    or radius <= _LS_TOL * np.linalg.norm(p / scale)):
                return p, r, at_p, True
            if ratio >= 1e-4:
                break
    return p, r, at_p, False


def _damping(sv: np.ndarray, ur: np.ndarray, radius: float) -> float:
    """The damping lam >= 0 whose step, of components sv ur / (sv^2 + lam),
    has at most the length ``radius``: 0 if the Gauss-Newton step fits,
    otherwise the root of 1/radius - 1/|step(lam)| by Newton's method, to
    within a tenth of the radius."""
    live = sv > 0
    sv, ur = sv[live], ur[live]
    lam = 0.0
    for _ in range(50):
        step = sv * ur / (sv**2 + lam)
        length = np.linalg.norm(step)
        if length <= 1.1 * radius and (lam == 0.0 or length >= 0.9 * radius):
            break
        slope = -np.sum(step**2 / (sv**2 + lam)) / length
        lam = max(lam - (1.0 / radius - 1.0 / length) * length**2 / slope, 0.0)
    return lam


def _numeric_jacobian(residuals, p, r0, upper, rel_step=1e-6, abs_step=1e-9) -> np.ndarray:
    """Forward differences of ``residuals`` at p, stepping backwards from
    parameters that a forward step would take past ``upper``."""
    jac = np.empty((r0.size, p.size))
    for k in range(p.size):
        h = max(rel_step * abs(p[k]), abs_step)
        if p[k] + h > upper[k]:
            h = -h
        pk = np.array(p, dtype=float)
        pk[k] += h
        jac[:, k] = (residuals(pk) - r0) / h
    return jac


def _errors_from_jacobian(jac: np.ndarray, r: np.ndarray, n_free: int):
    dof = max(r.size - n_free, 1)
    s2 = float(np.sum(r * r)) / dof
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    unident = []
    if sv.size and sv[0] > 0:
        small = sv < _RANK_TOL * sv[0]
        if np.any(small):
            for col in np.where(small)[0]:
                unident.append(int(np.argmax(np.abs(vt[col]))))
    else:
        unident = list(range(n_free))
    floor = _RANK_TOL * sv[0] if sv.size and sv[0] > 0 else 1.0
    sv_inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > floor)
    cov = (vt.T * sv_inv**2) @ vt * s2
    stderr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    for k in unident:
        stderr[k] = np.inf
    return stderr, cov, sorted(set(unident))


# --- model library ----------------------------------------------------------------

def _linear(x, slope, intercept):
    return slope * x + intercept


def _exp_decay(x, amplitude, tau, offset):
    return amplitude * np.exp(-x / tau) + offset


def _saturation(p, r_inf, p_sat):
    return r_inf * (p / p_sat) / (1.0 + p / p_sat)


def _gaussian_peak(x, amplitude, center, fwhm, offset):
    sigma = fwhm / FWHM_PER_SIGMA
    return amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2) + offset


def _damped_ramsey(tau, amplitude, delta_mhz, phase, t2star_ns):
    return amplitude * np.sin(2e-3 * np.pi * delta_mhz * tau + phase) * np.exp(-((tau / t2star_ns) ** 2))


def _echo_envelope(big_t, amplitude, t2he_ns):
    return amplitude * np.exp(-((big_t / t2he_ns) ** 2))


def _serrodyne_ramsey(tau, amplitude, freq_mhz, t2star_ns):
    return amplitude * np.sin(2e-3 * np.pi * freq_mhz * tau) * np.exp(-((tau / t2star_ns) ** 2))


def lorentzian_multi(n_peaks: int = 1) -> FitModel:
    """Sum of Lorentzians on a common offset; parameters are
    (offset, amp_i, center_i, fwhm_i) per peak."""
    if n_peaks < 1:
        raise UsageError("need at least one peak")
    names = ["offset"]
    for i in range(1, n_peaks + 1):
        names += [f"amp{i}", f"center{i}", f"fwhm{i}"]

    def func(x, *params):
        out = np.full_like(x, params[0], dtype=float)
        for i in range(n_peaks):
            amp, center, fwhm = params[1 + 3 * i: 4 + 3 * i]
            out = out + amp / (1.0 + ((x - center) / (fwhm / 2.0)) ** 2)
        return out

    return FitModel(name=f"lorentzian_multi[{n_peaks}]", param_names=tuple(names), func=func)


def _bounds(names: tuple[str, ...], positive: tuple[str, ...]) -> tuple:
    lo = np.array([1e-12 if n in positive else -np.inf for n in names])
    hi = np.full(len(names), np.inf)
    return lo, hi


_DECAY_NAMES = ("amplitude", "tau", "offset")
_RAMSEY_NAMES = ("amplitude", "delta_mhz", "phase", "t2star_ns")
_SERR_NAMES = ("amplitude", "freq_mhz", "t2star_ns")
_ECHO_NAMES = ("amplitude", "t2he_ns")
_GAUSS_NAMES = ("amplitude", "center", "fwhm", "offset")
_SAT_NAMES = ("r_inf", "p_sat")

MODEL_LIBRARY: dict[str, FitModel] = {
    "linear": FitModel("linear", ("slope", "intercept"), _linear),
    "exp_decay": FitModel("exp_decay", _DECAY_NAMES, _exp_decay,
                          bounds=_bounds(_DECAY_NAMES, ("tau",))),
    "saturation": FitModel("saturation", _SAT_NAMES, _saturation,
                           bounds=_bounds(_SAT_NAMES, ("p_sat",))),
    "gaussian_peak": FitModel("gaussian_peak", _GAUSS_NAMES, _gaussian_peak,
                              bounds=_bounds(_GAUSS_NAMES, ("fwhm",))),
    "damped_ramsey": FitModel("damped_ramsey", _RAMSEY_NAMES, _damped_ramsey,
                              bounds=_bounds(_RAMSEY_NAMES, ("t2star_ns",))),
    "echo_envelope": FitModel("echo_envelope", _ECHO_NAMES, _echo_envelope,
                              bounds=_bounds(_ECHO_NAMES, ("t2he_ns",))),
    "serrodyne_ramsey": FitModel("serrodyne_ramsey", _SERR_NAMES, _serrodyne_ramsey,
                                 bounds=_bounds(_SERR_NAMES, ("t2star_ns",))),
    "lorentzian_multi": lorentzian_multi(1),
}


def get_model(name: str) -> FitModel:
    try:
        return MODEL_LIBRARY[name]
    except KeyError:
        raise UsageError(f"unknown model {name!r}; have {sorted(MODEL_LIBRARY)}") from None


# --- master-equation Rabi fit -------------------------------------------------------

def fit_rabi_master_equation(
    tau_ns,
    counts,
    omega0_mhz: float,
    gamma2_0_mhz: float,
    t2star_ns: float,
    gamma1_mhz: float,
    delta_mhz: float = 0.0,
    nodes: int = 11,
) -> tuple[FitResult, "models.PiContrast"]:
    """Fit a measured Rabi trace with the ensemble-averaged two-level model.

    T2* and Gamma1 enter as fixed priors.  The model counts = scale * P(tau;
    Omega, Gamma2) + offset, with Omega >= 0 and Gamma2 >= 0, goes through
    :func:`fit`'s bounded least squares; scale and offset start from a linear
    solve at the guessed (Omega, Gamma2).  Each distinct (Omega, Gamma2) is
    simulated on ``tau_ns`` once per call: the scale and offset columns of
    every Jacobian, the first residual and the re-evaluated optimum reuse it.
    Returns the fit plus the pi contrast and quality factor of the noiseless
    readout model at the optimum.
    """
    from . import models
    from .ensemble import EnsembleSpec
    from .sequences import TwoLevelPhysics, rabi_protocol, simulate_protocol

    tau = np.asarray(tau_ns, dtype=float)
    y = np.asarray(counts, dtype=float)
    for name, arr in (("tau_ns", tau), ("counts", y)):
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise UsageError(f"{name} must be a finite 1-d array")
    if y.size != tau.size:
        raise UsageError(f"counts has {y.size} points, tau_ns has {tau.size}")
    if tau.size < 5:
        raise UsageError(f"tau_ns has {tau.size} points; need at least 5")
    for name, value, ok in (("omega0_mhz", omega0_mhz, omega0_mhz > 0),
                            ("gamma2_0_mhz", gamma2_0_mhz, gamma2_0_mhz >= 0),
                            ("t2star_ns", t2star_ns, t2star_ns > 0),
                            ("gamma1_mhz", gamma1_mhz, gamma1_mhz >= 0)):
        if not (math.isfinite(value) and ok):
            raise UsageError(f"{name} = {value} is out of range")
    ensemble = EnsembleSpec(t2star_ns=t2star_ns, nodes=nodes)

    def population(times, omega_mhz, gamma2_mhz) -> np.ndarray:
        physics = TwoLevelPhysics(gamma1_mhz=gamma1_mhz, gamma2_mhz=gamma2_mhz)
        return simulate_protocol(rabi_protocol(omega_mhz, delta_mhz, times), physics, ensemble).signal

    on_tau: dict[tuple[float, float], np.ndarray] = {}

    def population_on_tau(omega_mhz, gamma2_mhz) -> np.ndarray:
        key = (float(omega_mhz), float(gamma2_mhz))
        if key not in on_tau:
            on_tau[key] = population(tau, *key)
        return on_tau[key]

    # fit evaluates the model on tau alone
    model = FitModel(
        "rabi_master_equation", ("omega_mhz", "gamma2_mhz", "scale", "offset"),
        lambda t, omega, gamma2, scale, offset: scale * population_on_tau(omega, gamma2) + offset,
        bounds=(np.array([0.0, 0.0, -np.inf, -np.inf]), np.full(4, np.inf)),
    )
    s0 = population_on_tau(omega0_mhz, gamma2_0_mhz)
    (scale0, offset0), *_ = np.linalg.lstsq(np.stack([s0, np.ones_like(s0)], axis=1), y, rcond=None)
    result = fit(model, tau, y, [omega0_mhz, gamma2_0_mhz, scale0, offset0])
    # evaluate the noiseless readout model exactly at the pi time
    omega, gamma2 = result["omega_mhz"], result["gamma2_mhz"]
    f_pi = float(population([1e3 / (2 * omega)], omega, gamma2)[0])
    return result, models.pi_contrast_and_q(f_pi)


# --- spectra and tabulated frequencies ----------------------------------------------

@dataclass(frozen=True)
class FftSpectrum:
    freq_mhz: np.ndarray
    amplitude: np.ndarray
    peaks: tuple[tuple[float, float], ...]  # (frequency MHz, amplitude)


def refine_peak(xs, ys, k: int) -> float:
    """Position of the maximum near sample ``k`` of a uniform grid: the vertex
    of the parabola through samples k-1, k and k+1, or ``xs[k]`` itself at an
    edge of the grid or where those samples do not curve downward."""
    if 0 < k < len(ys) - 1:
        denom = ys[k - 1] - 2 * ys[k] + ys[k + 1]
        if denom < 0:
            return float(xs[k] + 0.5 * (xs[1] - xs[0]) * (ys[k - 1] - ys[k + 1]) / denom)
    return float(xs[k])


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` with prominence >= ``prominence``,
    by the rules of ``scipy.signal.find_peaks``: a plateau is one maximum,
    at its middle sample (rounded down), and neither end of the trace is
    one; the prominence is the height above the higher of the two minima
    reached on either side before the trace rises above the peak."""
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]][:x.size])  # runs of equal samples
    ends = np.r_[starts[1:], x.size] - 1
    v = x[starts]
    runs = 1 + np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))
    peaks = []
    for k in (starts[runs] + ends[runs]) // 2:
        higher = np.flatnonzero(x > x[k])
        j = np.searchsorted(higher, k)
        left = x[higher[j - 1] + 1 if j else 0:k + 1].min()
        right = x[k:higher[j] if j < higher.size else x.size].min()
        if x[k] - max(left, right) >= prominence:
            peaks.append(k)
    return np.array(peaks, dtype=int)


def fft_spectrum(times_ns, values, prominence: float | None = None) -> FftSpectrum:
    """Hann-windowed magnitude spectrum of a uniformly sampled trace.

    Peak frequencies are refined by quadratic interpolation around the
    discrete maxima; only peaks with prominence above the threshold (default:
    four times the median magnitude) are reported.
    """
    t = np.asarray(times_ns, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < 32:
        raise UsageError("need at least 32 samples")
    dt = np.diff(t)
    if not dt[0] > 0:
        raise UsageError(f"time grid spacing must be > 0, got {dt[0]:g} ns")
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-12):
        raise UsageError("time grid must be uniform")
    y = y - y.mean()
    window = np.hanning(y.size)
    amp = np.abs(np.fft.rfft(y * window))
    freq = np.fft.rfftfreq(y.size, d=dt[0]) * 1e3

    if prominence is None:  # four times the median; np.median would import numpy.ma
        ranked = np.sort(amp)
        prominence = 2.0 * float(ranked[(amp.size - 1) // 2] + ranked[amp.size // 2])
    peaks = [(refine_peak(freq, amp, k), float(amp[k])) for k in _find_peaks(amp, prominence)]
    peaks.sort(key=lambda p: -p[1])
    return FftSpectrum(freq_mhz=freq, amplitude=amp, peaks=tuple(peaks))


def larmor_frequencies(b_tesla: float, species: Sequence[str] = ("75As", "69Ga", "71Ga")) -> dict[str, float]:
    """Nuclear Larmor frequencies gamma_n * B in MHz per species."""
    if b_tesla <= 0:
        raise DomainError("magnetic field must be > 0")
    out = {}
    for name in species:
        if name not in GYROMAGNETIC_MHZ_PER_T:
            raise UsageError(f"unknown species {name!r}; have {sorted(GYROMAGNETIC_MHZ_PER_T)}")
        out[name] = GYROMAGNETIC_MHZ_PER_T[name] * b_tesla
    return out


def t2star_from_linewidth(fwhm_mhz: float) -> float:
    """Gaussian ESR full width at half maximum (MHz) -> T2* (ns)."""
    if fwhm_mhz <= 0:
        raise UsageError("linewidth must be > 0")
    sigma = fwhm_mhz / FWHM_PER_SIGMA
    return math.sqrt(2.0) * 1e3 / (2.0 * math.pi * sigma)


def linewidth_from_t2star(t2star_ns: float) -> float:
    """Inverse of :func:`t2star_from_linewidth`."""
    return FWHM_PER_SIGMA * gaussian_sigma(t2star_ns)


# --- data file interface --------------------------------------------------------------

def read_data_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read an (x, y[, yerr]) CSV with a mandatory one-line header.

    Lines starting with '#' are comments/metadata.  Malformed rows and rows
    with a non-finite field raise :class:`DataError` carrying the row number.
    """
    xs, ys, es = [], [], []
    header_seen = False
    n_cols = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True  # header row: names, not parsed
                n_cols = len(line.split(","))
                if n_cols not in (2, 3):
                    raise DataError(f"expected 2 or 3 columns, header has {n_cols}", row=lineno)
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != n_cols:
                raise DataError(f"expected {n_cols} fields, got {len(parts)}", row=lineno)
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise DataError(f"non-numeric field: {exc}", row=lineno) from None
            if not all(map(math.isfinite, vals)):
                raise DataError(f"non-finite field in {line!r}", row=lineno)
            xs.append(vals[0])
            ys.append(vals[1])
            if n_cols == 3:
                es.append(vals[2])
    if not header_seen:
        raise DataError("file has no header row")
    if not xs:
        raise DataError("file has no data rows")
    yerr = np.asarray(es) if es else None
    return np.asarray(xs), np.asarray(ys), yerr


def fit_result_text(result: FitResult) -> str:
    """Flat parameter/value/stderr record, one line per parameter."""
    lines = [f"model = {result.model}", f"status = {result.status}"]
    for name in result.param_names:
        lines.append(f"{name} = {result[name]:.10g} +- {result.error(name):.4g}")
    for name, value in result.fixed.items():
        lines.append(f"{name} = {value:.10g} (fixed)")
    lines.append(f"residual_norm = {result.residual_norm:.6g}")
    if result.unidentifiable:
        lines.append(f"unidentifiable = {', '.join(result.unidentifiable)}")
    return "\n".join(lines) + "\n"


def fit_result_json(result: FitResult) -> str:
    return json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n"
