"""Command-line front end: scenario simulation, curve fitting, and the
closed-form calculators.

Verbs: simulate, scan2d, fit, calc, list-models, validate.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical failure,
5 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

from . import __version__, fitting, models, raman, scenario as scn
from .errors import ConfigError, DataError, FssError, NumericalFailure, SteadyStateAmbiguityError, UsageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_NOCONVERGE = 5


def _resolve_scenario_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("fss") / "scenarios" / f"{name}.scenario"
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"scenario {name!r} not found (no such file or bundled scenario)")


def bundled_scenarios() -> list[str]:
    base = resources.files("fss") / "scenarios"
    return sorted(f.name[: -len(".scenario")] for f in base.iterdir()
                  if f.name.endswith(".scenario"))


def _scenario_arg(args) -> str:
    name = args.scenario if args.scenario is not None else getattr(args, "config", None)
    if name is None:
        raise ConfigError("no scenario given (positional argument or --config)")
    return name


def _cmd_validate(args) -> int:
    sc = scn.load_scenario(_resolve_scenario_path(_scenario_arg(args)))
    print(f"ok: scenario {sc.name!r}, {len(sc.products)} product(s)")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    """``fss simulate`` and ``fss scan2d``, which first checks that every
    product has two axes."""
    sc = scn.load_scenario(_resolve_scenario_path(_scenario_arg(args)))
    if args.command == "scan2d":
        for product in sc.products:
            if product.ndim != 2:
                raise ConfigError(f"scan2d requires exactly two scan axes; "
                                  f"product {product.name!r} has {product.ndim}")
    seed = args.seed if args.seed is not None else sc.output.get("seed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    results = scn.run_scenario(sc, seed=seed)
    written = []
    for res in results:
        csv_path = out_dir / f"{sc.name}_{res.name}.csv"
        csv_path.write_text(scn.result_to_csv(sc, res, seed), encoding="utf-8")
        written.append(csv_path)
        if len(res.axes) == 2:
            s_path = out_dir / f"{sc.name}_{res.name}_summary.csv"
            s_path.write_text(scn.summary_to_csv(sc, res), encoding="utf-8")
            written.append(s_path)
        if sc.output.get("emit_fft") and len(res.axes) == 1:
            f_path = out_dir / f"{sc.name}_{res.name}_fft.csv"
            f_path.write_text(scn.fft_to_csv(sc, res), encoding="utf-8")
            written.append(f_path)
    manifest = out_dir / f"{sc.name}.manifest.txt"
    manifest.write_text(
        f"scenario = {sc.name}\nsha256 = {sc.sha256}\nversion = {__version__}\n"
        f"seed = {'none' if seed is None else seed}\n"
        f"wall_time_s = {time.time() - t_start:.3f}\n",
        encoding="utf-8",
    )
    if args.json:
        print(json.dumps({"scenario": sc.name, "files": [str(p) for p in written]}))
    else:
        for p in written:
            print(p)
    return EXIT_OK


def _parse_params(pairs, model: fitting.FitModel) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"expected name=value, got {pair!r}")
        name, _, val = pair.partition("=")
        if name not in model.param_names:
            raise UsageError(f"model {model.name} has no parameter {name!r}")
        try:
            out[name] = float(val)
        except ValueError:
            raise UsageError(f"cannot parse value for {name!r}: {val!r}") from None
    return out


def _cmd_fit(args) -> int:
    if args.model == "lorentzian_multi" and args.peaks > 1:
        model = fitting.lorentzian_multi(args.peaks)
    else:
        model = fitting.get_model(args.model)
    x, y, yerr = fitting.read_data_csv(args.data)
    p0 = _parse_params(args.param, model)
    fixed = _parse_params(args.fix, model)
    missing = [n for n in model.param_names if n not in p0 and n not in fixed]
    if missing:
        raise UsageError(f"missing initial values for: {', '.join(missing)} (use -p name=value)")
    result = fitting.fit(model, x, y, p0, yerr=yerr, fixed=fixed, max_nfev=args.max_eval)
    if args.json:
        print(fitting.fit_result_json(result), end="")
    else:
        print(fitting.fit_result_text(result), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "fit_result.txt").write_text(fitting.fit_result_text(result), encoding="utf-8")
        (out / "fit_result.json").write_text(fitting.fit_result_json(result), encoding="utf-8")
    if not result.converged:
        return EXIT_NOCONVERGE
    return EXIT_OK


def _print_values(values: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(values, sort_keys=True))
    else:
        for key, val in values.items():
            print(f"{key} = {val}")


def _cmd_calc(args) -> int:
    given = [*args.values, *(v for v in vars(args).values() if isinstance(v, float))]
    bad = [v for v in given if not math.isfinite(v)]
    if bad:
        raise UsageError(f"calc takes finite values only, got {', '.join(map(str, bad))}")
    j = args.json
    if args.formula == "cyclicity":
        c = models.cyclicity(args.values[0], args.values[1])
        _print_values({"cyclicity": c.cyclicity, "branching": c.branching}, j)
    elif args.formula == "gfactor":
        g = models.g_factor(args.values[0], args.values[1])
        _print_values({"g_factor": g}, j)
    elif args.formula == "rabi":
        w = raman.two_photon_rabi(args.values[0], args.values[1], args.values[2])
        _print_values({"two_photon_rabi_mhz": w}, j)
    elif args.formula == "stark":
        if args.eta is None and args.cyclicity is None:
            raise UsageError("stark requires --eta or --cyclicity")
        eta = args.eta if args.eta is not None else raman.eta_from_cyclicity(args.cyclicity, args.handedness)
        ratio = raman.differential_stark(1.0, eta, args.handedness)
        out = {"eta": eta, "stark_ratio": ratio}
        if args.omega is not None:
            out["stark_shift_mhz"] = raman.differential_stark(args.omega, eta, args.handedness)
        _print_values(out, j)
    elif args.formula == "eta":
        if args.slope is not None:
            _print_values({"eta": raman.eta_from_slope(args.slope)}, j)
        elif args.cyclicity is not None:
            _print_values({"eta": raman.eta_from_cyclicity(args.cyclicity, args.handedness)}, j)
        else:
            raise UsageError("eta requires --slope or --cyclicity")
    elif args.formula == "larmor":
        species = tuple(args.species) if args.species else ("75As", "69Ga", "71Ga")
        freqs = fitting.larmor_frequencies(args.values[0], species)
        _print_values({f"larmor_{k}_mhz": v for k, v in freqs.items()}, j)
    elif args.formula == "linewidth":
        if args.fwhm is not None:
            _print_values({"t2star_ns": fitting.t2star_from_linewidth(args.fwhm)}, j)
        elif args.t2star is not None:
            _print_values({"fwhm_mhz": fitting.linewidth_from_t2star(args.t2star)}, j)
        else:
            raise UsageError("linewidth requires --fwhm or --t2star")
    else:
        raise UsageError(f"unknown formula {args.formula!r}")
    return EXIT_OK


def _cmd_list_models(args) -> int:
    rows = {name: list(m.param_names) for name, m in sorted(fitting.MODEL_LIBRARY.items())}
    if args.json:
        print(json.dumps({"models": rows, "scenarios": bundled_scenarios()}, sort_keys=True))
    else:
        print("fit models:")
        for name, params in rows.items():
            print(f"  {name}({', '.join(params)})")
        print("bundled scenarios:")
        for name in bundled_scenarios():
            print(f"  {name}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by all
    later ones (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="fss",
        description="Simulation and fitting toolkit for optically driven quantum-dot spins in Faraday geometry.",
    )
    parser.add_argument("--version", action="version", version=f"fss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_sim = sub.add_parser("simulate", help="run a scenario and emit CSV data products")
    p_sim.add_argument("scenario", nargs="?", default=None,
                       help="scenario file path or bundled scenario name")
    p_sim.add_argument("--config", default=None,
                       help="scenario path (alternative to the positional)")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_scan = sub.add_parser("scan2d", help="run a two-axis scenario with a peak-position summary")
    p_scan.add_argument("scenario", nargs="?", default=None)
    p_scan.add_argument("--config", default=None,
                       help="scenario path (alternative to the positional)")
    common(p_scan)
    p_scan.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a library model to a CSV data file")
    p_fit.add_argument("model", help="model name (see list-models)")
    p_fit.add_argument("data", help="CSV file with header and x,y[,yerr] columns")
    p_fit.add_argument("-p", "--param", action="append", metavar="NAME=VALUE",
                       help="initial parameter value (repeatable)")
    p_fit.add_argument("--fix", action="append", metavar="NAME=VALUE",
                       help="freeze a parameter (repeatable)")
    p_fit.add_argument("--peaks", type=int, default=1, help="peak count for lorentzian_multi")
    p_fit.add_argument("--max-eval", type=int, default=2000,
                       help="residual-evaluation budget before reporting non-convergence")
    p_fit.add_argument("--out", default=None, help="directory for result records")
    p_fit.add_argument("--json", action="store_true")
    p_fit.set_defaults(func=_cmd_fit)

    p_calc = sub.add_parser("calc", help="closed-form calculators")
    p_calc.add_argument("formula",
                        choices=["cyclicity", "gfactor", "rabi", "stark", "eta", "larmor", "linewidth"])
    p_calc.add_argument("values", nargs="*", type=float,
                        help="positional arguments of the formula")
    p_calc.add_argument("--eta", type=float, default=None)
    p_calc.add_argument("--cyclicity", type=float, default=None)
    p_calc.add_argument("--omega", type=float, default=None, help="Rabi frequency in MHz")
    p_calc.add_argument("--slope", type=float, default=None)
    p_calc.add_argument("--fwhm", type=float, default=None, help="linewidth in MHz")
    p_calc.add_argument("--t2star", type=float, default=None, help="T2* in ns")
    p_calc.add_argument("--handedness", default="sigma-", choices=["sigma-", "sigma+"])
    p_calc.add_argument("--species", nargs="*", default=None)
    p_calc.add_argument("--json", action="store_true")
    p_calc.set_defaults(func=_cmd_calc)

    p_list = sub.add_parser("list-models", help="list fit models and bundled scenarios")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list_models)

    p_val = sub.add_parser("validate", help="schema-check a scenario file")
    p_val.add_argument("scenario", nargs="?", default=None)
    p_val.add_argument("--config", default=None,
                       help="scenario path (alternative to the positional)")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalFailure, SteadyStateAmbiguityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
