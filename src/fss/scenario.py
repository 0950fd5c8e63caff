"""Scenario configs: a line-oriented format with [section] headers and
``key = value unit`` entries, plus the runner that turns a scenario into
simulated data products.

Unit annotations are mandatory for dimensioned keys and are validated
against the unit family each key declares, so a bare number where a
frequency or time belongs is a schema error with a line diagnostic (this is
the guard against the MHz/angular mixups centralized in the ensemble
module).  Multiple ``[protocol name]`` sections yield one data product per
section; an optional ``[scan]`` section sweeps one protocol parameter,
turning each product into a two-axis (long format) scan.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fitting, models, sequences
from .ensemble import DEFAULT_NODES, EnsembleSpec
from .errors import ConfigError, UsageError
from .models import CptParams, FaradayParams
from .sequences import (
    CoolingSpec,
    Protocol,
    ScanResult,
    TwoLevelPhysics,
    hahn_echo_protocol,
    polarization_map_protocol,
    rabi_protocol,
    rabi_q_protocol,
    ramsey_protocol,
    esr_scan_protocol,
    simulate_protocol,
    spin_pumping_protocol,
    t1_protocol,
)

# unit families: token -> factor relative to the family's canonical unit
_FREQ_MHZ = {"kHz": 1e-3, "MHz": 1.0, "GHz": 1e3}
_FREQ_GHZ = {"kHz": 1e-6, "MHz": 1e-3, "GHz": 1.0}
_TIME_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6}
_RATE_PERNS = {"1/ns": 1.0}
_ANGLE_DEG = {"deg": 1.0}
_BARE = None  # dimensionless: unit token forbidden

_PHYSICS_KEYS = {
    "two_level": {
        "kind": ("str", None),
        "gamma1": ("float", _FREQ_MHZ),
        "gamma2": ("float", _FREQ_MHZ),
        "epsilon_init": ("float", _BARE),
    },
    "faraday": {
        "kind": ("str", None),
        "omega_e": ("float", _FREQ_GHZ),
        "omega_h": ("float", _FREQ_GHZ),
        "delta": ("float", _FREQ_GHZ),
        "cyclicity": ("float", _BARE),
        "gamma1": ("float", _FREQ_MHZ),
        "big_gamma1": ("float", _FREQ_MHZ),
        "big_gamma2": ("float", _FREQ_MHZ),
        "handedness": ("str", None),
    },
    "cpt": {
        "kind": ("str", None),
        "omega_e0": ("float", _FREQ_GHZ),
        "delta": ("float", _FREQ_GHZ),
        "omega_down": ("float", _RATE_PERNS),
        "omega_up": ("float", _RATE_PERNS),
        "gamma2": ("float", _RATE_PERNS),
        "gamma1_inv": ("float", _TIME_NS),
        "trion_lifetime": ("float", _TIME_NS),
        "spin_flip_time": ("float", _TIME_NS),
    },
}

_ENSEMBLE_KEYS = {
    "t2star": ("float", _TIME_NS),
    "nodes": ("int", _BARE),
    "di_over_i": ("float", _BARE),
    "stark_ratio": ("float", _BARE),
    "omega": ("float", _FREQ_MHZ),
}

_PROTOCOL_KEYS = {
    "rabi": {
        "kind": ("str", None),
        "omega": ("float", _FREQ_MHZ),
        "delta": ("float", _FREQ_MHZ),
        "tau_start": ("float", _TIME_NS),
        "tau_stop": ("float", _TIME_NS),
        "tau_points": ("int", _BARE),
    },
    "esr_scan": {
        "kind": ("str", None),
        "omega": ("float", _FREQ_MHZ),
        "tau": ("float", _TIME_NS),
        "omega_start": ("float", _FREQ_GHZ),
        "omega_stop": ("float", _FREQ_GHZ),
        "omega_points": ("int", _BARE),
        "stark_ratio": ("float", _BARE),
        "omega_e0": ("float", _FREQ_GHZ),
    },
    "ramsey": {
        "kind": ("str", None),
        "omega": ("float", _FREQ_MHZ),
        "delta": ("float", _FREQ_MHZ),
        "tau_start": ("float", _TIME_NS),
        "tau_stop": ("float", _TIME_NS),
        "tau_points": ("int", _BARE),
        "f_serr": ("float", _FREQ_MHZ),
        "balanced": ("bool", _BARE),
        "cooling_t2star": ("float", _TIME_NS),
    },
    "hahn_echo": {
        "kind": ("str", None),
        "omega": ("float", _FREQ_MHZ),
        "t_start": ("float", _TIME_NS),
        "t_stop": ("float", _TIME_NS),
        "t_points": ("int", _BARE),
        "t2he": ("float", _TIME_NS),
        "mod_amp": ("float", _FREQ_MHZ),
        "mod_freq": ("float", _FREQ_MHZ),
        "mod_phases": ("int", _BARE),
        "mod_mode": ("str", None),
        "cooling_t2star": ("float", _TIME_NS),
    },
    "spin_pumping": {
        "kind": ("str", None),
        "s": ("float", _BARE),
        "duration": ("float", _TIME_NS),
        "points": ("int", _BARE),
    },
    "t1": {
        "kind": ("str", None),
        "delay_start": ("float", _TIME_NS),
        "delay_stop": ("float", _TIME_NS),
        "delay_points": ("int", _BARE),
    },
    "rabi_q": {
        "kind": ("str", None),
        "omega_values": ("floatlist", _FREQ_MHZ),
        "di_values": ("floatlist", _BARE),
        "gamma2": ("float", _FREQ_MHZ),
        "gamma1_per_omega": ("float", _BARE),
        "stark_ratio": ("float", _BARE),
        "t2star": ("float", _TIME_NS),
    },
    "polarization_map": {
        "kind": ("str", None),
        "hwp_start": ("float", _ANGLE_DEG),
        "hwp_stop": ("float", _ANGLE_DEG),
        "hwp_points": ("int", _BARE),
        "qwp_start": ("float", _ANGLE_DEG),
        "qwp_stop": ("float", _ANGLE_DEG),
        "qwp_points": ("int", _BARE),
    },
    "cpt_spectrum": {
        "kind": ("str", None),
        "omega_start": ("float", _FREQ_GHZ),
        "omega_stop": ("float", _FREQ_GHZ),
        "omega_points": ("int", _BARE),
    },
}

_SCAN_KEYS = {
    "parameter": ("str", None),
    "values": ("floatlist", "by-parameter"),
}

_OUTPUT_KEYS = {
    "signal": ("str", None),
    "counts_per_shot": ("float", _BARE),
    "seed": ("int", _BARE),
    "ideal_pulses": ("bool", _BARE),
    "emit_fft": ("bool", _BARE),
}

# units for scannable protocol parameters
_SCAN_PARAM_UNITS = {
    "omega": _FREQ_MHZ,
    "delta": _FREQ_MHZ,
    "stark_ratio": _BARE,
    "s": _BARE,
    "f_serr": _FREQ_MHZ,
}


@dataclass
class Scenario:
    name: str
    physics: dict
    protocols: list  # (product name, params dict)
    ensemble: dict | None = None
    scan: dict | None = None
    output: dict = field(default_factory=dict)
    source_text: str = ""

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()


def _parse_value(key, raw, kind, family, lineno):
    parts = raw.split()
    if kind == "str":
        if len(parts) != 1:
            raise ConfigError(f"key {key!r} takes a single word", lineno)
        return parts[0]
    if kind == "bool":
        if len(parts) != 1 or parts[0] not in ("true", "false"):
            raise ConfigError(f"key {key!r} must be true or false", lineno)
        return parts[0] == "true"

    if kind == "floatlist":
        if family is _BARE:
            tokens, unit = parts, None
        else:
            if len(parts) < 2 or parts[-1] not in (family or {}):
                raise ConfigError(
                    f"key {key!r} requires a unit from {sorted((family or {}))}", lineno
                )
            tokens, unit = parts[:-1], parts[-1]
        joined = " ".join(tokens).replace(",", " ").split()
        try:
            vals = [float(tok) for tok in joined]
        except ValueError:
            raise ConfigError(f"key {key!r}: non-numeric list entry", lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"key {key!r}: list entries must be finite", lineno)
        factor = 1.0 if unit is None else family[unit]
        return [v * factor for v in vals]

    # numeric scalar
    if family is _BARE:
        if len(parts) != 1:
            raise ConfigError(f"key {key!r} is dimensionless; no unit allowed", lineno)
        num, factor = parts[0], 1.0
    else:
        if len(parts) != 2:
            raise ConfigError(
                f"key {key!r} requires a value and a unit from {sorted(family)}", lineno
            )
        num, unit = parts
        if unit not in family:
            raise ConfigError(
                f"key {key!r}: unit {unit!r} not in {sorted(family)}", lineno
            )
        factor = family[unit]
    try:
        value = float(num)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse number {num!r}", lineno) from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {num!r}", lineno)
    if kind == "int":
        if value != int(value):
            raise ConfigError(f"key {key!r} must be an integer", lineno)
        if key.endswith("points") and value < 0:
            raise ConfigError(f"key {key!r} must be >= 0, got {num}", lineno)
        return int(value)
    return value * factor


def parse_scenario(text: str) -> Scenario:
    sections: list[tuple[str, str, int, dict]] = []  # (section, label, lineno, entries)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            head = line[1:-1].strip().split()
            if not head:
                raise ConfigError("empty section header", lineno)
            section = head[0]
            label = head[1] if len(head) > 1 else ""
            current = {}
            sections.append((section, label, lineno, current))
            continue
        if current is None:
            raise ConfigError("entry before any [section]", lineno)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not raw_value:
            raise ConfigError(f"key {key!r} has no value", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        current[key] = (raw_value, lineno)

    name = ""
    physics = None
    ensemble = None
    scan = None
    output: dict = {}
    protocols: list = []
    protocol_lines: list[int] = []
    lines: dict[str, int] = {}

    for section, label, lineno, entries in sections:
        if section == "scenario":
            name = entries.get("name", ("unnamed", lineno))[0]
        elif section == "physics":
            kind = entries.get("kind", (None, lineno))[0]
            if kind not in _PHYSICS_KEYS:
                raise ConfigError(f"physics kind must be one of {sorted(_PHYSICS_KEYS)}", lineno)
            physics = _check_section(entries, _PHYSICS_KEYS[kind], "physics")
            lines["physics"] = lineno
        elif section == "ensemble":
            ensemble = _check_section(entries, _ENSEMBLE_KEYS, "ensemble")
            lines["ensemble"] = lineno
        elif section == "protocol":
            kind = entries.get("kind", (None, lineno))[0]
            if kind not in _PROTOCOL_KEYS:
                raise ConfigError(f"protocol kind must be one of {sorted(_PROTOCOL_KEYS)}", lineno)
            parsed = _check_section(entries, _PROTOCOL_KEYS[kind], "protocol")
            protocols.append((label or kind, parsed))
            protocol_lines.append(lineno)
        elif section == "scan":
            param = entries.get("parameter", (None, lineno))[0]
            if param not in _SCAN_PARAM_UNITS:
                raise ConfigError(f"scan parameter must be one of {sorted(_SCAN_PARAM_UNITS)}", lineno)
            raw_vals, vl = entries["values"]
            vals = _parse_value("values", raw_vals, "floatlist", _SCAN_PARAM_UNITS[param], vl)
            scan = {"parameter": param, "values": vals}
        elif section == "output":
            output = _check_section(entries, _OUTPUT_KEYS, "output")
        else:
            raise ConfigError(f"unknown section [{section}]", lineno)

    if physics is None and any(p[1]["kind"] != "polarization_map" for p in protocols):
        raise ConfigError("missing [physics] section")
    if not protocols:
        raise ConfigError("no [protocol] section")
    if output.get("counts_per_shot", 0) > 0 and "seed" not in output:
        raise ConfigError("shot noise enabled: [output] seed is required")
    sc = Scenario(
        name=name,
        physics=physics or {"kind": "none"},
        protocols=protocols,
        ensemble=ensemble,
        scan=scan,
        output=output,
        source_text=text,
    )
    # build the physics, the ensemble and every protocol now, so that a value
    # their constructors reject fails here with its section's line instead
    # of at run time
    builds = [(functools.partial(build_physics, sc), "physics", lines.get("physics")),
              (functools.partial(build_ensemble, sc), "ensemble", lines.get("ensemble"))]
    builds += [(functools.partial(_protocols, params, scan), "protocol", lineno)
               for (_, params), lineno in zip(protocols, protocol_lines)
               if params["kind"] != "cpt_spectrum"]
    for build, section, lineno in builds:
        try:
            build()
        except UsageError as exc:
            raise ConfigError(str(exc), lineno) from None
        except KeyError as exc:
            raise ConfigError(f"missing key {exc.args[0]!r} in [{section}]", lineno) from None
    return sc


def _check_section(entries: dict, schema: dict, section: str) -> dict:
    out = {}
    for key, (raw, lineno) in entries.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        kind, family = schema[key]
        out[key] = _parse_value(key, raw, kind, family, lineno)
    return out


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


# --- runner ---------------------------------------------------------------------

def build_physics(sc: Scenario):
    p = sc.physics
    kind = p["kind"]
    if kind == "two_level":
        return TwoLevelPhysics(
            gamma1_mhz=p.get("gamma1", 0.0),
            gamma2_mhz=p.get("gamma2", 0.0),
            epsilon_init=p.get("epsilon_init", 0.0),
        )
    if kind == "faraday":
        if p.get("handedness", "sigma-") not in models.HANDEDNESS:
            raise UsageError(f"handedness must be one of {models.HANDEDNESS}")
        return FaradayParams(
            omega_e_ghz=p["omega_e"],
            omega_h_ghz=p["omega_h"],
            delta_ghz=p.get("delta", 0.0),
            cyclicity=p["cyclicity"],
            gamma1_mhz=p["gamma1"],
            bigGamma1_mhz=p.get("big_gamma1", 0.0),
            bigGamma2_mhz=p.get("big_gamma2", 0.0),
        )
    if kind == "cpt":
        return CptParams(
            omega_e0_ghz=p["omega_e0"],
            delta_ghz=p.get("delta", 0.0),
            omega_down=p["omega_down"],
            omega_up=p["omega_up"],
            gamma1_inv_ns=p.get("gamma1_inv", 45000.0),
            gamma2=p["gamma2"],
            trion_lifetime_ns=p.get("trion_lifetime", 0.25),
            spin_flip_time_ns=p.get("spin_flip_time", 100.0),
        )
    return None


def build_ensemble(sc: Scenario) -> EnsembleSpec | None:
    if sc.ensemble is None:
        return None
    e = sc.ensemble
    return EnsembleSpec(
        t2star_ns=e["t2star"],
        stark_ratio=e.get("stark_ratio", 0.0),
        omega_mhz=e.get("omega", 0.0),
        di_over_i=e.get("di_over_i", 0.0),
        nodes=e.get("nodes", DEFAULT_NODES),
    )


def _grid(p: dict, prefix: str) -> np.ndarray:
    return np.linspace(p[f"{prefix}_start"], p[f"{prefix}_stop"], p[f"{prefix}_points"])


def _cooling(p: dict) -> CoolingSpec | None:
    t2s = p.get("cooling_t2star")
    return CoolingSpec(method="raman", resulting_t2star_ns=t2s) if t2s else None


def build_protocol(kind: str, p: dict) -> Protocol:
    if kind == "rabi":
        return rabi_protocol(p["omega"], p.get("delta", 0.0), _grid(p, "tau"))
    if kind == "esr_scan":
        return esr_scan_protocol(p["omega"], p.get("tau"), _grid(p, "omega"),
                                 p["stark_ratio"], p["omega_e0"])
    if kind == "ramsey":
        return ramsey_protocol(p["omega"], p.get("delta", 0.0), _grid(p, "tau"),
                               f_serr_mhz=p.get("f_serr", 0.0),
                               balanced=p.get("balanced", True),
                               cooling=_cooling(p))
    if kind == "hahn_echo":
        return hahn_echo_protocol(p["omega"], _grid(p, "t"),
                                  t2he_ns=p.get("t2he"),
                                  modulation_amp_mhz=p.get("mod_amp", 0.0),
                                  modulation_freq_mhz=p.get("mod_freq", 0.0),
                                  modulation_phases=p.get("mod_phases", 1),
                                  modulation_mode=p.get("mod_mode", "refocus"),
                                  cooling=_cooling(p))
    if kind == "spin_pumping":
        return spin_pumping_protocol(p["s"], p["duration"], p.get("points", 161))
    if kind == "t1":
        return t1_protocol(_grid(p, "delay"))
    if kind == "rabi_q":
        return rabi_q_protocol(p["omega_values"], p["di_values"],
                               gamma2_mhz=p.get("gamma2", 4.2),
                               gamma1_per_omega=p.get("gamma1_per_omega", 0.0048),
                               stark_ratio=p.get("stark_ratio", -7.4),
                               t2star_ns=p.get("t2star", 34.0))
    if kind == "polarization_map":
        return polarization_map_protocol(_grid(p, "hwp"), _grid(p, "qwp"))
    raise UsageError(f"cannot build protocol kind {kind!r}")


def run_product(sc: Scenario, product_name: str, params: dict,
                seed: int | None = None) -> ScanResult:
    """Simulate one protocol product, applying the scenario-level scan if any."""
    kind = params["kind"]
    out = sc.output
    if seed is None:
        seed = out.get("seed")

    if kind == "cpt_spectrum":
        cpt = build_physics(sc)
        if not isinstance(cpt, CptParams):
            raise ConfigError("cpt_spectrum requires [physics] kind = cpt")
        grid = _grid(params, "omega")
        signal = models.cpt_spectrum(cpt, grid)
        return ScanResult((("omega_ghz", grid),), signal, name=product_name)

    physics = build_physics(sc)
    ensemble = build_ensemble(sc)
    kwargs = dict(
        ideal_pulses=out.get("ideal_pulses", False),
        counts_per_shot=out.get("counts_per_shot", 0.0),
        seed=seed,
    )
    if sc.physics.get("kind") == "faraday":
        kwargs["handedness"] = sc.physics.get("handedness", "sigma-")

    scanned, protocols = _protocols(params, sc.scan)
    results = [simulate_protocol(p, physics, ensemble, **kwargs) for p in protocols]
    if not scanned:
        return replace(results[0], name=product_name)
    signal = np.stack([res.signal for res in results])
    axes = ((sc.scan["parameter"], np.asarray(sc.scan["values"], dtype=float)), results[-1].axes[0])
    return ScanResult(axes, signal, name=product_name)


def _protocols(params: dict, scan: dict | None) -> tuple[bool, list[Protocol]]:
    """Whether the scenario scan applies to a product, and its protocols:
    one per scan value, or one (the Q scan and polarization map ignore it)."""
    kind = params["kind"]
    if scan is None or kind in ("rabi_q", "polarization_map"):
        return False, [build_protocol(kind, params)]
    return True, [build_protocol(kind, {**params, scan["parameter"]: v}) for v in scan["values"]]


def run_scenario(sc: Scenario, seed: int | None = None) -> list[ScanResult]:
    return [run_product(sc, pname, params, seed=seed)
            for pname, params in sc.protocols]


# --- CSV emission -----------------------------------------------------------------

def format_float(v: float) -> str:
    return f"{v:.12g}"


def result_to_csv(sc: Scenario, res: ScanResult, seed: int | None) -> str:
    lines = [
        f"# fss scenario={sc.name} product={res.name}",
        f"# meta sha256={sc.sha256}",
        f"# meta seed={'none' if seed is None else seed}",
    ]
    axis_names = [n for n, _ in res.axes]
    lines.append(",".join(axis_names + ["signal"]))
    if len(res.axes) == 1:
        vals = res.axes[0][1]
        for x, y in zip(vals, np.atleast_1d(res.signal)):
            lines.append(f"{format_float(x)},{format_float(y)}")
    elif len(res.axes) == 2:
        a0, a1 = res.axes[0][1], res.axes[1][1]
        for i, x0 in enumerate(a0):
            for j, x1 in enumerate(a1):
                lines.append(
                    f"{format_float(x0)},{format_float(x1)},{format_float(res.signal[i, j])}"
                )
    else:
        raise UsageError("CSV emission supports 1 or 2 axes")
    return "\n".join(lines) + "\n"


def summary_to_csv(sc: Scenario, res: ScanResult) -> str:
    """Per-row peak positions of a two-axis scan (for Stark-slope analysis)."""
    if len(res.axes) != 2:
        raise UsageError("summary requires exactly two axes")
    a0_name, a0 = res.axes[0]
    a1_name, a1 = res.axes[1]
    lines = [
        f"# fss scenario={sc.name} product={res.name} summary=peak-positions",
        f"{a0_name},peak_{a1_name},peak_signal",
    ]
    for i, x0 in enumerate(a0):
        row = res.signal[i]
        k = int(np.argmax(row))
        peak = fitting.refine_peak(a1, row, k)
        lines.append(f"{format_float(x0)},{format_float(peak)},{format_float(row[k])}")
    return "\n".join(lines) + "\n"


def fft_to_csv(sc: Scenario, res: ScanResult) -> str:
    if len(res.axes) != 1:
        raise UsageError("FFT emission requires a single-axis trace")
    spec = fitting.fft_spectrum(res.axes[0][1], res.signal)
    lines = [
        f"# fss scenario={sc.name} product={res.name} transform=fft",
        "# meta peaks=" + ";".join(f"{format_float(f)}" for f, _ in spec.peaks[:5]),
        "freq_mhz,amplitude",
    ]
    for f, a in zip(spec.freq_mhz, spec.amplitude):
        lines.append(f"{format_float(f)},{format_float(a)}")
    return "\n".join(lines) + "\n"
