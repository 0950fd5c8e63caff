"""Scenario configs: a line-oriented format with [section] headers and
``key = value unit`` entries, plus the runner that turns a scenario into
simulated data products.

Each section kind is declared once, in a table that gives every key's type,
unit family and the constructor argument it sets; one builder calls the
constructor with the keys a file gives, so defaults live in the
constructors.  Unit annotations are mandatory for dimensioned keys and are
validated against the key's family, so a bare number where a frequency or
time belongs is a schema error with a line diagnostic (this is the guard
against the MHz/angular mixups centralized in the ensemble module).
Parsing builds the physics, the ensemble and every product's protocols, and
the :class:`Scenario` keeps them, so a missing key or a value that a
constructor rejects is a config error naming its section's line, and so is
a product on a ``[physics]`` kind (or on none) whose class
``fss.sequences.RUNS_ON`` does not list for it, and a product given a
value that it would ignore (``fss.sequences.check_inputs``); the runner
only simulates.  Multiple ``[protocol name]`` sections yield one data product
per section; an optional ``[scan]`` section sweeps one protocol parameter
over a non-empty list of values, turning each product into a two-axis
(long format) scan.  Every scanned product must
take the scan parameter as a key; the Rabi Q scan, the polarization map and
the CPT spectrum ignore the scan."""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fitting, models
from .ensemble import EnsembleSpec
from .errors import ConfigError, UsageError
from .models import CptParams, FaradayParams
from .sequences import (
    RUNS_ON,
    Protocol,
    ScanResult,
    TwoLevelPhysics,
    check_inputs,
    cpt_spectrum_protocol,
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
_MAX_COUNT = 10**6  # of an "int" key other than the seed: points, nodes or phases

# Section tables: kind -> (constructor, {config key: (type, unit family,
# constructor argument[, default])}).  A "grid" key ``x_*`` stands for
# x_start, x_stop and x_points and sets its argument to their linspace.  A
# default appears only where the constructor has none; a key whose argument
# is None is not the constructor's.
_PHYSICS = {
    "two_level": (TwoLevelPhysics, {
        "gamma1": ("float", _FREQ_MHZ, "gamma1_mhz"),
        "gamma2": ("float", _FREQ_MHZ, "gamma2_mhz"),
        "epsilon_init": ("float", _BARE, "epsilon_init"),
    }),
    "faraday": (FaradayParams, {
        "omega_e": ("float", _FREQ_GHZ, "omega_e_ghz"),
        "omega_h": ("float", _FREQ_GHZ, "omega_h_ghz"),
        "delta": ("float", _FREQ_GHZ, "delta_ghz", 0.0),
        "cyclicity": ("float", _BARE, "cyclicity"),
        "gamma1": ("float", _FREQ_MHZ, "gamma1_mhz"),
        "big_gamma1": ("float", _FREQ_MHZ, "bigGamma1_mhz"),
        "big_gamma2": ("float", _FREQ_MHZ, "bigGamma2_mhz"),
        "handedness": ("str", None, None),  # passed to simulate_protocol
    }),
    "cpt": (CptParams, {
        "omega_e0": ("float", _FREQ_GHZ, "omega_e0_ghz"),
        "delta": ("float", _FREQ_GHZ, "delta_ghz"),
        "omega_down": ("float", _RATE_PERNS, "omega_down"),
        "omega_up": ("float", _RATE_PERNS, "omega_up"),
        "gamma2": ("float", _RATE_PERNS, "gamma2"),
        "gamma1_inv": ("float", _TIME_NS, "gamma1_inv_ns"),
        "trion_lifetime": ("float", _TIME_NS, "trion_lifetime_ns"),
        "spin_flip_time": ("float", _TIME_NS, "spin_flip_time_ns"),
    }),
}

_ENSEMBLE = (EnsembleSpec, {
    "t2star": ("float", _TIME_NS, "t2star_ns"),
    "nodes": ("int", _BARE, "nodes"),
    "di_over_i": ("float", _BARE, "di_over_i"),
    "stark_ratio": ("float", _BARE, "stark_ratio"),
    "omega": ("float", _FREQ_MHZ, "omega_mhz"),
})


_PROTOCOLS = {
    "rabi": (rabi_protocol, {
        "omega": ("float", _FREQ_MHZ, "omega_mhz"),
        "delta": ("float", _FREQ_MHZ, "delta_mhz", 0.0),
        "tau_*": ("grid", _TIME_NS, "tau_grid_ns"),
    }),
    "esr_scan": (esr_scan_protocol, {
        "omega": ("float", _FREQ_MHZ, "omega_mhz"),
        "tau": ("float", _TIME_NS, "tau_ns", None),
        "omega_*": ("grid", _FREQ_GHZ, "omega_grid_ghz"),
        "stark_ratio": ("float", _BARE, "stark_ratio"),
        "omega_e0": ("float", _FREQ_GHZ, "omega_e0_ghz"),
    }),
    "ramsey": (ramsey_protocol, {
        "omega": ("float", _FREQ_MHZ, "omega_mhz"),
        "delta": ("float", _FREQ_MHZ, "delta_mhz", 0.0),
        "tau_*": ("grid", _TIME_NS, "tau_grid_ns"),
        "f_serr": ("float", _FREQ_MHZ, "f_serr_mhz"),
        "balanced": ("bool", _BARE, "balanced"),
        "cooling_t2star": ("float", _TIME_NS, "cooling_t2star_ns"),
    }),
    "hahn_echo": (hahn_echo_protocol, {
        "omega": ("float", _FREQ_MHZ, "omega_mhz"),
        "t_*": ("grid", _TIME_NS, "total_delay_grid_ns"),
        "t2he": ("float", _TIME_NS, "t2he_ns"),
        "mod_amp": ("float", _FREQ_MHZ, "modulation_amp_mhz"),
        "mod_freq": ("float", _FREQ_MHZ, "modulation_freq_mhz"),
        "mod_phases": ("int", _BARE, "modulation_phases"),
        "mod_mode": ("str", None, "modulation_mode"),
        "cooling_t2star": ("float", _TIME_NS, "cooling_t2star_ns"),
    }),
    "spin_pumping": (spin_pumping_protocol, {
        "s": ("float", _BARE, "s"),
        "duration": ("float", _TIME_NS, "duration_ns"),
        "points": ("int", _BARE, "points"),
    }),
    "t1": (t1_protocol, {
        "delay_*": ("grid", _TIME_NS, "delay_grid_ns"),
    }),
    "rabi_q": (rabi_q_protocol, {
        "omega_values": ("floatlist", _FREQ_MHZ, "omega_grid_mhz"),
        "di_values": ("floatlist", _BARE, "di_over_i_grid"),
        "gamma2": ("float", _FREQ_MHZ, "gamma2_mhz"),
        "gamma1_per_omega": ("float", _BARE, "gamma1_per_omega"),
        "stark_ratio": ("float", _BARE, "stark_ratio"),
        "t2star": ("float", _TIME_NS, "t2star_ns"),
    }),
    "polarization_map": (polarization_map_protocol, {
        "hwp_*": ("grid", _ANGLE_DEG, "hwp_grid_deg"),
        "qwp_*": ("grid", _ANGLE_DEG, "qwp_grid_deg"),
    }),
    "cpt_spectrum": (cpt_spectrum_protocol, {
        "omega_*": ("grid", _FREQ_GHZ, "omega_grid_ghz"),
    }),
}

# products that ignore the scenario scan
_UNSCANNED = ("rabi_q", "polarization_map", "cpt_spectrum")

_SCENARIO_KEYS = {"name": ("text", None)}

_OUTPUT_KEYS = {
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
class Product:
    """One ``[protocol]`` section, built: its name, whether the scenario scan
    applies to it, and its protocols (one per scan value, or one)."""
    name: str
    scanned: bool
    protocols: list[Protocol]

    @property
    def ndim(self) -> int:
        """The number of axes of the product's result."""
        return 2 if self.scanned else len(self.protocols[0].axes)


@dataclass
class Scenario:
    name: str
    physics: object  # TwoLevelPhysics, FaradayParams, CptParams or None
    products: list[Product]
    ensemble: EnsembleSpec | None = None
    scan: dict | None = None
    output: dict = field(default_factory=dict)
    handedness: str | None = None  # of a faraday [physics], passed to simulate_protocol
    source_text: str = ""

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()


def _parse_value(key, raw, kind, family, lineno):
    if kind == "text":  # the whole value, spaces and all
        return raw
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
            if len(parts) < 2 or parts[-1] not in family:
                raise ConfigError(f"key {key!r} requires a unit from {sorted(family)}", lineno)
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
        if (key.endswith("points") or key == "seed") and value < 0:
            raise ConfigError(f"key {key!r} must be >= 0, got {num}", lineno)
        if key != "seed" and value > _MAX_COUNT:
            raise ConfigError(f"key {key!r} must be <= {_MAX_COUNT}, got {num}", lineno)
        # int() keeps integers past 2^53 exact; 1e3 and the like go through float
        return int(num) if num.lstrip("+-").isdigit() else int(value)
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
    physics = ensemble = scan = None
    output: dict = {}
    protocols: list[tuple[str, dict, int]] = []  # (product name, params, lineno)
    lines: dict[str, int] = {}

    for section, label, lineno, entries in sections:
        if section == "scenario":
            name = _parse_section(entries, _SCENARIO_KEYS, "scenario").get("name", "unnamed")
        elif section == "physics":
            physics = _parse_kind(entries, _PHYSICS, "physics", lineno)
            lines["physics"] = lineno
        elif section == "ensemble":
            ensemble = _parse_section(entries, _ENSEMBLE[1], "ensemble")
            lines["ensemble"] = lineno
        elif section == "protocol":
            params = _parse_kind(entries, _PROTOCOLS, "protocol", lineno)
            protocols.append((label or params["kind"], params, lineno))
        elif section == "scan":
            param = entries.get("parameter", (None, lineno))[0]
            if param not in _SCAN_PARAM_UNITS:
                raise ConfigError(f"scan parameter must be one of {sorted(_SCAN_PARAM_UNITS)}", lineno)
            if "values" not in entries:
                raise ConfigError("missing key 'values' in [scan]", lineno)
            scan = _parse_section(entries, {"parameter": ("str", None),
                                            "values": ("floatlist", _SCAN_PARAM_UNITS[param])}, "scan")
            if not scan["values"]:
                raise ConfigError("[scan] values must not be empty", lineno)
        elif section == "output":
            output = _parse_section(entries, _OUTPUT_KEYS, "output")
        else:
            raise ConfigError(f"unknown section [{section}]", lineno)

    if not protocols:
        raise ConfigError("no [protocol] section")
    physics_cls = _PHYSICS[physics["kind"]][0] if physics else type(None)
    for _, params, lineno in protocols:
        runs_on = RUNS_ON[params["kind"]]
        if not issubclass(physics_cls, runs_on):
            kinds = " or ".join(kind for kind, (cls, _) in _PHYSICS.items() if issubclass(cls, runs_on))
            given = repr(physics["kind"]) if physics else "none (no [physics] section)"
            raise ConfigError(f"protocol kind {params['kind']!r} runs on {kinds} physics, not {given}", lineno)
    if output.get("counts_per_shot", 0) > 0 and "seed" not in output:
        raise ConfigError("shot noise enabled: [output] seed is required")
    handedness = physics.get("handedness") if physics else None
    if handedness not in (None, *models.HANDEDNESS):
        raise ConfigError(f"handedness must be one of {models.HANDEDNESS}", lines["physics"])
    physics = None if physics is None else _build(*_PHYSICS[physics["kind"]], physics, "physics", lines["physics"])
    ensemble = None if ensemble is None else _build(*_ENSEMBLE, ensemble, "ensemble", lines["ensemble"])
    return Scenario(
        name=name,
        physics=physics,
        ensemble=ensemble,
        products=[_product(*section, scan, physics, ensemble) for section in protocols],
        scan=scan,
        output=output,
        handedness=handedness,
        source_text=text,
    )


def _parse_kind(entries: dict, table: dict, section: str, lineno: int) -> dict:
    """Parse a section whose ``kind`` picks its row of ``table``."""
    kind = entries.get("kind", (None, lineno))[0]
    if kind not in table:
        raise ConfigError(f"{section} kind must be one of {sorted(table)}", lineno)
    return _parse_section(entries, {"kind": ("str", None), **table[kind][-1]}, section)


def _parse_section(entries: dict, keys: dict, section: str) -> dict:
    schema = {}
    for key, (kind, family, *_) in keys.items():
        if kind == "grid":
            start, stop, points = _grid_keys(key)
            schema |= {start: ("float", family), stop: ("float", family), points: ("int", _BARE)}
        else:
            schema[key] = (kind, family)
    out = {}
    for key, (raw, lineno) in entries.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        out[key] = _parse_value(key, raw, *schema[key], lineno)
    return out


def _grid_keys(key: str) -> list[str]:
    """The start, stop and points keys that a grid key ``x_*`` stands for."""
    return [key.replace("*", end) for end in ("start", "stop", "points")]


def _build(make, keys: dict, values: dict, section: str, lineno: int):
    """Call a table row's constructor ``make`` with the arguments that the
    parsed section ``values`` sets.  A missing key, or a value that the
    constructor rejects, is a ConfigError naming the section's line."""
    required = {name for name, par in inspect.signature(make).parameters.items()
                if par.default is par.empty}
    kwargs = {}
    try:
        for key, (kind, _, arg, *default) in keys.items():
            if arg is None:
                continue
            names = _grid_keys(key) if kind == "grid" else [key]
            if any(n in values for n in names) or (arg in required and not default):
                given = [values[n] for n in names]
                kwargs[arg] = np.linspace(*given) if kind == "grid" else given[0]
            elif default:
                kwargs[arg] = default[0]
        return make(**kwargs)
    except UsageError as exc:
        raise ConfigError(str(exc), lineno) from None
    except KeyError as exc:
        raise ConfigError(f"missing key {exc.args[0]!r} in [{section}]", lineno) from None


def _product(name: str, params: dict, lineno: int, scan: dict | None, physics, ensemble) -> Product:
    """A ``[protocol]`` section's product.  A scanned product must take the
    scan parameter, and every protocol must read each physics, ensemble and
    protocol value that the file gives (see :func:`check_inputs`)."""
    kind = params["kind"]
    make, keys = _PROTOCOLS[kind]
    scanned = scan is not None and kind not in _UNSCANNED
    if scanned and scan["parameter"] not in keys:
        raise ConfigError(f"protocol kind {kind!r} has no key {scan['parameter']!r} to scan", lineno)
    protocols = ([_build(make, keys, {**params, scan["parameter"]: v}, "protocol", lineno) for v in scan["values"]]
                 if scanned else [_build(make, keys, params, "protocol", lineno)])
    try:
        for protocol in protocols:
            check_inputs(protocol, physics, ensemble)
    except UsageError as exc:
        raise ConfigError(str(exc), lineno) from None
    return Product(name, scanned, protocols)


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


# --- runner ---------------------------------------------------------------------

def run_product(sc: Scenario, product: Product, seed: int | None = None) -> ScanResult:
    """Simulate one product's protocols, stacked along the scenario scan if
    it applies."""
    out = sc.output
    if seed is None:
        seed = out.get("seed")
    kwargs = {key: out[key] for key in ("ideal_pulses", "counts_per_shot") if key in out}
    if sc.handedness is not None:
        kwargs["handedness"] = sc.handedness
    results = [simulate_protocol(p, sc.physics, sc.ensemble, seed=seed, **kwargs) for p in product.protocols]
    if not product.scanned:
        return replace(results[0], name=product.name)
    signal = np.stack([res.signal for res in results])
    axes = ((sc.scan["parameter"], np.asarray(sc.scan["values"], dtype=float)), results[-1].axes[0])
    return ScanResult(axes, signal, name=product.name)


def run_scenario(sc: Scenario, seed: int | None = None) -> list[ScanResult]:
    return [run_product(sc, product, seed=seed) for product in sc.products]


# --- CSV emission -----------------------------------------------------------------

def format_float(v: float) -> str:
    return f"{v:.12g}"


def result_to_csv(sc: Scenario, res: ScanResult, seed: int | None) -> str:
    lines = [
        f"# fss scenario={sc.name} product={res.name}",
        f"# meta sha256={sc.sha256}",
        f"# meta seed={'none' if seed is None else seed}",
    ]
    if len(res.axes) not in (1, 2):
        raise UsageError("CSV emission supports 1 or 2 axes")
    lines.append(",".join([n for n, _ in res.axes] + ["signal"]))
    grids = np.meshgrid(*(vals for _, vals in res.axes), indexing="ij")
    # Python floats format faster than numpy scalars, to the same text
    for row in zip(*(g.ravel().tolist() for g in grids), np.ravel(res.signal).tolist()):
        lines.append(",".join(map(format_float, row)))
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
    for x0, row in zip(a0.tolist(), res.signal):
        k = int(np.argmax(row))
        peak = fitting.refine_peak(a1, row, k)
        lines.append(f"{format_float(x0)},{format_float(peak)},{format_float(float(row[k]))}")
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
    for f, a in zip(spec.freq_mhz.tolist(), spec.amplitude.tolist()):
        lines.append(f"{format_float(f)},{format_float(a)}")
    return "\n".join(lines) + "\n"
