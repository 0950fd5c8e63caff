"""Workload items of the fss benchmark: their seeded inputs, how each runs,
and the checks on its outputs.

Imported only after ``fss`` (see ``child.py``).  Timed calls go through module
attributes (``cli.main``, ``fss.core.evolve``), so the tracer's patches see
them.  An item is one user-level
task.  Scenario items go through the public CLI entry, ``fss.cli.main``; fit
items call the public fitting API or ``fss fit``.  Every item returns its
products as ``{product: {column: 1-d array}}``, which :func:`check_item`
compares with the seed-0 reference and with invariants.

Seed 0 uses the bundled scenarios unchanged.  Other seeds jitter the
physical parameters within the ranges in :data:`JITTER` and draw fresh
noise for the fit data, so the amount of work stays close to seed 0's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

import fss
from fss import cli, fitting, models, scenario as scn
from fss.ensemble import EnsembleSpec
from fss.sequences import TwoLevelPhysics, rabi_protocol, simulate_protocol

BENCH_DIR = Path(__file__).resolve().parent

# --- tolerances -------------------------------------------------------------
#
# The repository's oracle tests (tests/test_core.py, expm stepping) accept
# 1e-6 absolute on populations; RK45 at the package's rtol 2e-9 / atol 1e-11
# stays well inside that, so 1e-6 is not tighter than the solver's own error.
# Every other product's tolerance is that population error carried through
# the formula that produces the product.
POP_TOL = 1e-6
TOLERANCES = {
    # populations straight from the solver
    "population": POP_TOL,
    # (n0 - n1) / (n0 + n1) with n0 + n1 = 1 for ideal pulses: 2 errors of
    # 1e-6 over a denominator near 1, doubled for margin
    "contrast": 4 * POP_TOL,
    # gamma_1 (rad/ns) x (p_trion- + p_trion+); fig1e's gamma_1 is
    # 2 pi x 0.589 GHz = 3.70 rad/ns, two populations: 2 x 3.70 x 1e-6
    "emission": 7.4e-6,
    # gamma_1 x rho_ee from the steady state, gamma_1 = 1/0.25 ns = 4 ns^-1
    "fluorescence": 4 * POP_TOL,
    # Hann-weighted |FFT| of a 161-point contrast trace: each amplitude is at
    # most the sum of 161 contrast errors, 161 x 4e-6
    "fft": 161 * 4 * POP_TOL,
    # closed-form Jones/Stokes algebra, no integrator: rounding only
    "stokes": 1e-9,
}
# axis columns are written from the input grids; only formatting can move them
AXIS_RTOL = 1e-9
# invariant ranges, with one population tolerance of slack
RANGES = {
    "population": (0.0, 1.0),
    "contrast": (-1.0, 1.0),
    "quality": (0.0, math.inf),
    "emission": (0.0, math.inf),
    "fluorescence": (0.0, math.inf),
    "fft": (0.0, math.inf),
    "stokes": (-1.0, 1.0),
}
# fitted parameters against the reference: 5% of the parameter's standard
# error, far below its statistical uncertainty; the optimum moves by about
# 1e-4 standard errors when the data move by the 1e-6 population tolerance
FIT_REF_STDERR_FRAC = 0.05
FIT_REF_RTOL = 1e-6


def quality_tolerance(q: np.ndarray) -> np.ndarray:
    """Q = -1/ln(2 f_pi - 1): a 1e-6 error in f_pi moves Q by 2 Q^2 e^(1/Q) x 1e-6."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        slope = np.where(q > 0, 2.0 * q * q * np.exp(1.0 / np.where(q > 0, q, 1.0)), 0.0)
    return POP_TOL * slope + 1e-12


# --- seeded inputs ------------------------------------------------------------

# Jitter for seeds other than 0: (section, key) -> (mode, amount).  "rel"
# multiplies by 1 + u * amount, "abs" adds u * amount in the key's unit,
# u uniform in [-1, 1].
JITTER = {
    ("protocol", "omega"): ("rel", 0.03),            # Rabi frequency
    ("protocol", "omega_values"): ("rel", 0.03),
    ("protocol", "s"): ("rel", 0.03),                # pump strength
    ("physics", "omega_down"): ("rel", 0.03),        # CPT arm amplitudes
    ("physics", "omega_up"): ("rel", 0.03),
    ("protocol", "delta"): ("abs", 2.0),             # detuning, MHz
    ("physics", "delta"): ("abs", 0.01),             # optical detuning, GHz
    ("ensemble", "t2star"): ("rel", 0.05),           # T2*
    ("protocol", "t2star"): ("rel", 0.05),
    ("protocol", "cooling_t2star"): ("rel", 0.05),
    ("protocol", "di_values"): ("rel", 0.05),        # laser-noise level
}
# scan axes take the rule of the parameter they sweep
SCAN_JITTER = {"omega": ("rel", 0.03), "delta": ("abs", 2.0)}
# fit data: relative jitter of injected parameters and of the noise level
FIT_PARAM_JITTER = 0.03
FIT_NOISE_JITTER = 0.20

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def jitter_scenario(text: str, rng: np.random.Generator) -> str:
    """Scenario text with the physical parameters in JITTER perturbed."""
    section = None
    scan_param = None
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]").split()[0]
        elif section == "scan" and stripped.startswith("parameter"):
            scan_param = stripped.partition("=")[2].strip()
        key, sep, value = line.partition("=")
        rule = None
        if sep and not stripped.startswith("#"):
            if section == "scan" and key.strip() == "values":
                rule = SCAN_JITTER.get(scan_param)
            else:
                rule = JITTER.get((section, key.strip()))
        if rule is not None:
            mode, amount = rule

            def perturb(m):
                v = float(m.group(0))
                u = rng.uniform(-1.0, 1.0)
                return f"{v * (1 + u * amount) if mode == 'rel' else v + u * amount:.10g}"

            numbers, unit = value, ""
            parts = value.rsplit(None, 1)
            if len(parts) == 2 and re.search(r"[A-Za-z/]", parts[1]):
                numbers, unit = parts[0], " " + parts[1]
            line = f"{key}={_NUMBER.sub(perturb, numbers)}{unit}"
        out.append(line)
    return "\n".join(out) + "\n"


def _jitter(rng, value: float, amount: float = FIT_PARAM_JITTER) -> float:
    return float(value * (1.0 + rng.uniform(-amount, amount)))


# --- items --------------------------------------------------------------------

@dataclass
class ScenarioItem:
    """A scenario run through ``fss simulate`` or ``fss scan2d``."""

    name: str
    source: str          # bundled scenario name, or a file under BENCH_DIR
    kind: str            # tolerance kind of the signal column
    verb: str = "simulate"

    def bundled_path(self) -> Path:
        local = BENCH_DIR / self.source
        if local.is_file():
            return local
        return Path(str(resources.files("fss") / "scenarios" / f"{self.source}.scenario"))

    def prepare(self, seed: int, work: Path, rng) -> dict:
        path = self.bundled_path()
        if seed != 0:
            path = work / "inputs" / f"{self.name}.scenario"
            path.write_text(jitter_scenario(self.bundled_path().read_text(encoding="utf-8"), rng),
                            encoding="utf-8")
        return {"path": str(path)}

    def load(self, inputs: dict) -> dict:
        sc = scn.load_scenario(inputs["path"])
        return {"path": inputs["path"], "scenario": sc.name}

    def run(self, loaded: dict, out_dir: Path) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([self.verb, loaded["path"], "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"fss {self.verb} exited with code {code}")
        products = {}
        for csv in sorted(out_dir.glob(f"{loaded['scenario']}_*.csv")):
            products[csv.stem] = read_csv_columns(csv)
        if not products:
            raise RuntimeError("no CSV products written")
        return products

    def kind_of(self, product: str) -> str:
        return "fft" if product.endswith("_fft") else self.kind

    def verify(self, products: dict, loaded: dict) -> list[str]:
        return []


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    rows, header = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    return {name: data[:, k] for k, name in enumerate(header)}


@dataclass
class FitItem:
    """A parameter recovery: ``make`` draws the data, ``run`` fits it."""

    name: str
    make: callable
    fit: callable
    # truth check per parameter: (multiple of stderr or None, max relative error)
    truth_tol: dict = field(default_factory=dict)

    def prepare(self, seed: int, work: Path, rng) -> dict:
        return self.make(seed, work, rng)

    def load(self, inputs: dict) -> dict:
        return {k: (np.asarray(v, dtype=float) if isinstance(v, list) else v)
                for k, v in inputs.items()}

    def run(self, loaded: dict, out_dir: Path) -> dict:
        params, stderr = self.fit(loaded, out_dir)
        return {"params": {k: np.array([v]) for k, v in params.items()},
                "stderr": {k: np.array([v]) for k, v in stderr.items()}}

    def kind_of(self, product: str) -> str:
        return "fit"

    def verify(self, products: dict, loaded: dict) -> list[str]:
        """Recovered parameters against the injected truth."""
        errors = []
        for pname, (n_sigma, max_rel) in self.truth_tol.items():
            got = float(products["params"][pname][0])
            err = float(products["stderr"][pname][0])
            want = float(loaded["truth"][pname])
            miss = abs(got - want)
            if not (math.isfinite(got) and math.isfinite(err)):
                errors.append(f"{pname} not finite ({got}, stderr {err})")
            elif (miss > max_rel * abs(want)
                  or (n_sigma is not None and miss > max(n_sigma * err, 1e-9 * abs(want)))):
                errors.append(f"{pname}={got:.6g} misses injected {want:.6g} "
                              f"(stderr {err:.3g}, allowed {n_sigma} sigma and {max_rel:.1%})")
        return errors


@dataclass
class EvolveItem:
    """One two-tone four-level ``fss.evolve`` with an explicit drive."""

    name: str = "twotone_evolve"
    kind: str = "population"

    def prepare(self, seed: int, work: Path, rng) -> dict:
        amp, rf = 500.0, 2.4
        if seed != 0:
            amp = _jitter(rng, amp)
            rf = rf + rng.uniform(-0.01, 0.01)
        return {"omega_mhz": amp, "delta_rf_ghz": rf, "t_stop_ns": 8.0, "points": 81}

    def load(self, inputs: dict) -> dict:
        return dict(inputs)

    def run(self, loaded: dict, out_dir: Path) -> dict:
        # the parameters of the repository's two-tone expm-oracle test
        params = fss.FaradayParams(omega_e_ghz=2.6, omega_h_ghz=10.0, delta_ghz=4.0,
                                   cyclicity=25.0, gamma1_mhz=80.0,
                                   bigGamma1_mhz=0.1, bigGamma2_mhz=1.0)
        drive = fss.TwoToneDrive(omega1_mhz=loaded["omega_mhz"], omega2_mhz=loaded["omega_mhz"],
                                 delta_rf_ghz=loaded["delta_rf_ghz"])
        model = fss.build_faraday_four_level(params, drive, "sigma-")
        t = np.linspace(0.0, loaded["t_stop_ns"], loaded["points"])
        traj = fss.core.evolve(model, fss.DensityMatrix.pure(4, 1), t)
        cols = {"t_ns": t}
        for level in range(4):
            cols[f"p{level}"] = traj.population(level)
        return {"populations": cols}

    def kind_of(self, product: str) -> str:
        return self.kind

    def verify(self, products: dict, loaded: dict) -> list[str]:
        cols = products["populations"]
        total = sum(cols[f"p{k}"] for k in range(4))
        dev = float(np.max(np.abs(total - 1.0)))
        return [] if dev <= POP_TOL else [f"populations sum to 1 +- {dev:.2e}"]


# --- fit items ----------------------------------------------------------------

def _make_rabi(seed, work, rng):
    truth = {"omega_mhz": 60.0, "gamma2_mhz": 3.7, "scale": 480.0, "offset": 60.0}
    # low noise keeps the simplex path, and so the evaluation count, nearly
    # the same from seed to seed (at 4 counts it ranged from 130 to 250)
    t2star, gamma1, noise = 34.0, 0.4, 0.4
    if seed != 0:
        truth = {k: _jitter(rng, v) for k, v in truth.items()}
        t2star = _jitter(rng, t2star, 0.05)
        noise = _jitter(rng, noise, FIT_NOISE_JITTER)
    tau = np.linspace(0.0, 30.0, 25)
    res = simulate_protocol(rabi_protocol(truth["omega_mhz"], 0.0, tau),
                            TwoLevelPhysics(gamma1_mhz=gamma1, gamma2_mhz=truth["gamma2_mhz"]),
                            EnsembleSpec(t2star_ns=t2star, nodes=9))
    counts = truth["scale"] * res.signal + truth["offset"] + rng.normal(0.0, noise, tau.size)
    return {"tau": tau.tolist(), "counts": counts.tolist(), "truth": truth,
            "t2star_ns": t2star, "gamma1_mhz": gamma1,
            "omega0_mhz": truth["omega_mhz"] * 1.01, "gamma2_0_mhz": truth["gamma2_mhz"] * 0.8}


def _fit_rabi(d, out_dir):
    r, contrast = fitting.fit_rabi_master_equation(
        d["tau"], d["counts"], omega0_mhz=d["omega0_mhz"], gamma2_0_mhz=d["gamma2_0_mhz"],
        t2star_ns=d["t2star_ns"], gamma1_mhz=d["gamma1_mhz"], nodes=9)
    if not 0.5 < contrast.f_pi <= 1.0:
        raise RuntimeError(f"pi contrast {contrast.f_pi} outside (0.5, 1]")
    return ({n: r[n] for n in r.param_names}, {n: r.error(n) for n in r.param_names})


_CPT_NAMES = ("omega_e0", "omega_down", "omega_up", "gamma2")


def _cpt_model():
    def spectrum(x, omega_e0, omega_down, omega_up, gamma2):
        p = models.CptParams(omega_e0_ghz=omega_e0, omega_down=abs(omega_down),
                             omega_up=abs(omega_up), gamma2=abs(gamma2))
        return models.cpt_spectrum(p, x)

    return fitting.FitModel("cpt_steady_state", _CPT_NAMES, spectrum)


def _make_cpt(seed, work, rng):
    truth = {"omega_e0": 2.60, "omega_down": 9.3, "omega_up": 0.19, "gamma2": 0.53}
    # seeds move only the resonance, and the probe grid with it.  omega_down,
    # omega_up and gamma2 share a nearly flat valley of the noiseless cost:
    # with them jittered by 3% the stopping point of the zero-residual refit
    # was set by rounding, and 2 of 12 seeds took 150-250 evaluations
    # (20-40 s) where the rest took 8-12.  A shifted resonance on a fixed
    # grid still took 7-11.  Shifted together, the fit solves the same
    # problem up to the shift, so its work does not depend on the seed.
    shift = 0.0 if seed == 0 else rng.uniform(-0.005, 0.005)
    truth["omega_e0"] += shift
    grid = np.linspace(2.40, 2.80, 41) + shift
    spec = models.cpt_spectrum(models.CptParams(
        omega_e0_ghz=truth["omega_e0"], omega_down=truth["omega_down"],
        omega_up=truth["omega_up"], gamma2=truth["gamma2"]), grid)
    # a start a few percent from the truth: from the acceptance test's wider
    # start (+0.02 GHz, -10%, +16%, -15%) 3 of 10 jittered truths took over
    # 60 evaluations where the rest took 10-13
    p0 = {"omega_e0": truth["omega_e0"] + 0.005, "omega_down": truth["omega_down"] * 0.97,
          "omega_up": truth["omega_up"] * 1.04, "gamma2": truth["gamma2"] * 0.95}
    return {"grid": grid.tolist(), "spectrum": spec.tolist(), "truth": truth, "p0": p0}


def _fit_cpt(d, out_dir):
    r = fitting.fit(_cpt_model(), d["grid"], d["spectrum"], d["p0"])
    return ({n: abs(r[n]) for n in _CPT_NAMES}, {n: r.error(n) for n in _CPT_NAMES})


# per-model grid and injected parameters, as in the repository's fit tests
LIBRARY_CASES = {
    "linear": ((0.0, 10.0, 40), {"slope": 0.131, "intercept": 0.4}),
    "exp_decay": ((0.0, 600.0, 80), {"amplitude": 900.0, "tau": 111.0, "offset": 25.0}),
    "saturation": ((2.0, 300.0, 50), {"r_inf": 9.0, "p_sat": 48.0}),
    "gaussian_peak": ((-80.0, 80.0, 90), {"amplitude": 5.0, "center": 4.0, "fwhm": 31.0, "offset": 1.0}),
    "damped_ramsey": ((0.0, 40.0, 120), {"amplitude": 0.95, "delta_mhz": 75.0, "phase": 0.4, "t2star_ns": 34.0}),
    "echo_envelope": ((0.0, 2500.0, 60), {"amplitude": 0.97, "t2he_ns": 1140.0}),
    "serrodyne_ramsey": ((0.0, 22.0, 120), {"amplitude": 0.9, "freq_mhz": 112.0, "t2star_ns": 74.0}),
    "lorentzian_multi": ((-3.0, 3.0, 120), {"offset": 0.2, "amp1": 4.0, "center1": 0.3, "fwhm1": 0.8}),
}
# noise standard deviation as a share of the model's peak-to-peak range
LIBRARY_NOISE = 0.01


def _library_item(model_name: str) -> FitItem:
    (lo, hi, n), base = LIBRARY_CASES[model_name]

    def make(seed, work, rng):
        model = fitting.MODEL_LIBRARY[model_name]
        truth = dict(base) if seed == 0 else {k: _jitter(rng, v) for k, v in base.items()}
        noise = LIBRARY_NOISE if seed == 0 else _jitter(rng, LIBRARY_NOISE, FIT_NOISE_JITTER)
        x = np.linspace(lo, hi, n)
        clean = model(x, *[truth[p] for p in model.param_names])
        y = clean + rng.normal(0.0, noise * float(np.ptp(clean)), n)
        p0 = {k: v * 1.1 if v != 0 else 0.1 for k, v in truth.items()}
        return {"x": x.tolist(), "y": y.tolist(), "truth": truth, "p0": p0}

    def run(d, out_dir):
        model = fitting.MODEL_LIBRARY[model_name]
        r = fitting.fit(model, d["x"], d["y"], d["p0"])
        if not r.converged:
            raise RuntimeError(f"fit status {r.status}")
        return ({n: r[n] for n in model.param_names}, {n: r.error(n) for n in model.param_names})

    # 5 standard errors decide; the 50% cap only catches a wild fit whose
    # standard error is wild too (1% noise leaves some offsets 9% uncertain)
    return FitItem(f"library_{model_name}", make, run,
                   truth_tol={p: (5.0, 0.50) for p in base})


PUMPING_TAU_NS = 111.0  # injected in the bundled pumping_trace.csv (see its header)


def _make_pumping(seed, work, rng):
    bundled = resources.files("fss") / "scenarios" / "data" / "pumping_trace.csv"
    if seed == 0:
        return {"csv": str(bundled), "truth": {"tau": PUMPING_TAU_NS}}
    tau = _jitter(rng, PUMPING_TAU_NS, 0.05)
    t = np.arange(0.0, 605.0, 5.0)
    noise = _jitter(rng, 5.0, FIT_NOISE_JITTER)
    y = _jitter(rng, 1000.0) * np.exp(-t / tau) + _jitter(rng, 22.0) + rng.normal(0.0, noise, t.size)
    path = work / "inputs" / "pumping_trace.csv"
    path.write_text(f"# synthetic spin-pumping trace, tau = {tau:.6g} ns injected\nt_ns,counts\n"
                    + "".join(f"{a:.10g},{b:.10g}\n" for a, b in zip(t, y)), encoding="utf-8")
    return {"csv": str(path), "truth": {"tau": tau}}


def _fit_pumping_cli(d, out_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["fit", "exp_decay", d["csv"], "-p", "amplitude=900",
                         "-p", "tau=100", "-p", "offset=0", "--json"])
    if code != 0:
        raise RuntimeError(f"fss fit exited with code {code}")
    rec = json.loads(buf.getvalue())["parameters"]
    return ({k: v["value"] for k, v in rec.items()}, {k: v["stderr"] for k, v in rec.items()})


# --- workloads ------------------------------------------------------------------

WORKLOADS = {
    "scan-static": [
        ScenarioItem("fig3a", "fig3a", "population"),
        ScenarioItem("fig2c", "fig2c", "population"),
        ScenarioItem("fig8", "fig8", "quality"),
        ScenarioItem("fig3de", "fig3de", "quality"),
        ScenarioItem("fig1e", "fig1e", "emission"),
        ScenarioItem("fig2ef_small", "scenarios/fig2ef_small.scenario", "population", "scan2d"),
    ],
    "pulse-driven": [
        ScenarioItem("fig4b", "fig4b", "contrast"),
        ScenarioItem("fig6", "fig6", "contrast"),
        ScenarioItem("fig5cd", "fig5cd", "contrast"),
        ScenarioItem("fig4abc_small", "scenarios/fig4abc_small.scenario", "contrast"),
        EvolveItem(),
    ],
    "fit": [
        FitItem("rabi_master_equation", _make_rabi, _fit_rabi,
                truth_tol={"omega_mhz": (5.0, 0.02), "gamma2_mhz": (5.0, 0.20),
                           "scale": (5.0, 0.05)}),
        # noiseless round trip: the refit lands on the truth to 1e-3
        FitItem("cpt_round_trip", _make_cpt, _fit_cpt,
                truth_tol={n: (None, 1e-3) for n in _CPT_NAMES}),
        *[_library_item(name) for name in sorted(LIBRARY_CASES)],
        FitItem("cli_fit_exp_decay", _make_pumping, _fit_pumping_cli,
                truth_tol={"tau": (5.0, 0.05)}),
        ScenarioItem("fig2b", "fig2b", "fluorescence"),
        ScenarioItem("fig7map", "fig7map", "stokes"),
    ],
}

# the cheapest items of each workload, run by the smoke test
TINY = {
    "scan-static": ("fig3de",),
    "pulse-driven": ("twotone_evolve",),
    "fit": ("library_linear", "cli_fit_exp_decay", "fig7map"),
}


def items_for(workload: str, tiny: bool = False) -> list:
    items = WORKLOADS[workload]
    if tiny:
        items = [it for it in items if it.name in TINY[workload]]
    return items


# --- checks -----------------------------------------------------------------------

def _inner_step(products: dict, summary: str) -> float:
    main = products.get(summary[: -len("_summary")])
    if main is None:
        return math.inf
    inner = np.unique(list(main.values())[1])
    steps = np.diff(inner)
    return float(steps[steps > 0].min()) if steps.size else math.inf


def _column_kind(item, product: str, column: str) -> str:
    if item.kind_of(product) == "fit":
        return "fit"
    if column in ("signal", "amplitude", "peak_signal") or re.fullmatch(r"p\d", column):
        return item.kind_of(product)
    if column.startswith("peak_"):
        return "peak"
    return "axis"


def check_item(item, products: dict, loaded: dict, reference: dict | None) -> list[str]:
    """Failure messages for one item's products; empty when it passes."""
    errors = list(item.verify(products, loaded))
    for product, cols in products.items():
        for column, values in cols.items():
            values = np.asarray(values, dtype=float)
            kind = _column_kind(item, product, column)
            where = f"{product}.{column}"
            if not np.all(np.isfinite(values)):
                errors.append(f"{where} has non-finite values")
                continue
            if kind in RANGES:
                lo, hi = RANGES[kind]
                slack = TOLERANCES.get(kind, POP_TOL)
                if values.size and (values.min() < lo - slack or values.max() > hi + slack):
                    errors.append(f"{where} outside [{lo}, {hi}]: "
                                  f"[{values.min():.6g}, {values.max():.6g}]")
    if reference is not None:
        errors += _compare(item, products, reference)
    return errors


def _compare(item, products: dict, reference: dict) -> list[str]:
    errors = []
    if sorted(products) != sorted(reference):
        return [f"products {sorted(products)} differ from reference {sorted(reference)}"]
    for product, ref_cols in reference.items():
        cols = products[product]
        if sorted(cols) != sorted(ref_cols):
            errors.append(f"{product}: columns {sorted(cols)} differ from reference")
            continue
        for column, ref in ref_cols.items():
            ref = np.asarray(ref, dtype=float)
            got = np.asarray(cols[column], dtype=float)
            where = f"{product}.{column}"
            if got.shape != ref.shape:
                errors.append(f"{where}: shape {got.shape} differs from reference {ref.shape}")
                continue
            kind = _column_kind(item, product, column)
            if product == "stderr":
                continue
            if kind == "fit":
                err = abs(float(reference["stderr"][column][0]))
                tol = np.maximum(FIT_REF_STDERR_FRAC * err, FIT_REF_RTOL * np.abs(ref))
            elif kind == "axis":
                tol = AXIS_RTOL * np.abs(ref) + 1e-12
            elif kind == "peak":
                # a discrete maximum may move to a neighbouring sample when two
                # samples are equal within tolerance: allow one grid step
                tol = np.full(ref.shape, _inner_step(products, product) * (1 + 1e-9))
            elif kind == "quality":
                tol = quality_tolerance(ref)
            else:
                tol = np.full(ref.shape, TOLERANCES[kind])
            dev = np.abs(got - ref)
            if np.any(dev > tol):
                k = int(np.argmax(dev - tol))
                errors.append(f"{where}[{k}] = {got[k]:.10g} misses reference {ref[k]:.10g} "
                              f"by {dev[k]:.3g} (tolerance {tol[k]:.3g})")
    return errors


def to_jsonable(products: dict) -> dict:
    return {p: {c: np.asarray(v, dtype=float).tolist() for c, v in cols.items()}
            for p, cols in products.items()}
