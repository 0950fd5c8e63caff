"""Golden traces of the bundled scenarios: the generator, and the check that
``tests/test_scenarios.py`` applies to every CSV a scenario run writes.

Regenerate the 24 goldens (all 13 bundled scenarios at ``--seed 0``) with

    PYTHONPATH=src python tests/make_golden.py

only on purpose, and record the reason in CHANGES.md.  It prints each file
it writes: a golden that still matches is left untouched, and one whose
data rows match but whose comment or header lines differ gets only those
lines, so a re-run never rewrites rows that are within tolerance.

Each product has one tolerance per CSV column.  Axis columns must match as
text.  Signals carry the population error of the path that produced them:
1e-9 absolute on populations and contrasts of the exact (matrix-exponential)
path, and the solver-derived bounds of ``benchmarks/workloads.py`` on the
one driven product, fig5cd's modulated echo, whose modulated waits go
through one-period propagator tables.  Derived signals carry that error
through the formula that forms them (see each entry).  Comment lines must
match as text, except fig5cd's ``# meta peaks=`` line, whose peak
frequencies are refined from the FFT amplitudes that the golden already
pins.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from fss.cli import _resolve_scenario_path, bundled_scenarios, main
from fss.scenario import load_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

POP = 1e-9  # exact-path populations and contrasts
# populations of the driven path (one-period propagator tables, products of
# CFM4 steps, see fss.core._CFM4_TOL) are good to 1e-6 with a wide margin;
# (n0 - n1) / (n0 + n1) carries two such errors, doubled for margin
DRIVEN_CONTRAST = 4e-6
# peak positions of the two-axis summaries: the parabola vertex through three
# samples moves by at most 1.6e-9 GHz (fig2ef) when each sample moves by 1e-9
PEAK = 1e-8


def absolute(eps: float):
    return lambda ref: np.full(ref.shape, eps)


def quality(eps: float):
    """Q = -1/ln(2 f_pi - 1): an error eps in f_pi moves Q by 2 Q^2 e^(1/Q) eps."""
    return lambda ref: 2 * ref ** 2 * np.exp(1 / ref) * eps


def emission(gamma1_mhz: float):
    """gamma_1 (rad/ns) x (p_trion- + p_trion+): two population errors."""
    return absolute(2 * 2 * math.pi * gamma1_mhz * 1e-3 * POP)


EXACT = absolute(POP)
TOLERANCES = {
    "fig1d_pumping.csv": (None, emission(227.364)),
    "fig1e_pumping.csv": (None, emission(589.463)),
    # gamma_1 x rho_ee of the steady state, gamma_1 = 1/0.25 ns
    "fig2b_spectrum.csv": (None, absolute(4 * POP)),
    "fig2c_sigma_minus.csv": (None, EXACT),
    "fig2c_sigma_plus.csv": (None, EXACT),
    "fig2ef_e_sigma_plus.csv": (None, None, EXACT),
    "fig2ef_e_sigma_plus_summary.csv": (None, absolute(PEAK), EXACT),
    "fig2ef_f_sigma_minus.csv": (None, None, EXACT),
    "fig2ef_f_sigma_minus_summary.csv": (None, absolute(PEAK), EXACT),
    "fig3a_detuned.csv": (None, EXACT),
    "fig3a_resonant.csv": (None, EXACT),
    "fig3de_q_map.csv": (None, None, quality(POP)),
    "fig3de_q_map_summary.csv": (None, absolute(PEAK), quality(POP)),
    "fig4abc_chevron.csv": (None, None, EXACT),
    "fig4abc_chevron_summary.csv": (None, absolute(PEAK), EXACT),
    "fig4b_fringe.csv": (None, EXACT),
    "fig5cd_echo.csv": (None, absolute(DRIVEN_CONTRAST)),
    # Hann-weighted |FFT| of the 161-point echo: at most the sum of 161
    # contrast errors
    "fig5cd_echo_fft.csv": (None, absolute(161 * DRIVEN_CONTRAST)),
    "fig6_c_ingaas.csv": (None, EXACT),
    "fig6_f_gaas.csv": (None, EXACT),
    # closed-form Stokes S3, no integrator
    "fig7map_s3_map.csv": (None, None, EXACT),
    "fig7map_s3_map_summary.csv": (None, absolute(PEAK), EXACT),
    "fig8_q_curves.csv": (None, None, quality(POP)),
    "fig8_q_curves_summary.csv": (None, absolute(PEAK), quality(POP)),
}


def run_bundled(name: str, out_dir: Path) -> dict[str, Path]:
    """Run one bundled scenario at seed 0 through the CLI; its CSVs by file name."""
    sc = load_scenario(_resolve_scenario_path(name))
    verb = "scan2d" if all(product.ndim == 2 for product in sc.products) else "simulate"
    rc = main([verb, name, "--out", str(out_dir), "--seed", "0"])
    assert rc == 0, f"{name} exited with {rc}"
    return {p.name: p for p in Path(out_dir).glob("*.csv")}


def _split(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#") and not l.startswith("# meta peaks=")]
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    return comments + rows[:1], rows[1:]


def compare(path: Path, golden_dir: Path = GOLDEN_DIR) -> None:
    """Assert that one CSV matches its golden within the stated tolerances."""
    head, rows = _split(path.read_text(encoding="utf-8"))
    ref_head, ref_rows = _split((golden_dir / path.name).read_text(encoding="utf-8"))
    assert head == ref_head, f"{path.name}: header {head} differs from golden {ref_head}"
    _compare_rows(path.name, rows, ref_rows)


def _compare_rows(name: str, rows: list[list[str]], ref_rows: list[list[str]]) -> None:
    assert len(rows) == len(ref_rows), f"{name}: {len(rows)} rows, golden {len(ref_rows)}"
    for col, tol in enumerate(TOLERANCES[name]):
        got = [r[col] for r in rows]
        ref = [r[col] for r in ref_rows]
        if tol is None:
            assert got == ref, f"{name}: column {col} differs from golden"
            continue
        got, ref = np.array(got, dtype=float), np.array(ref, dtype=float)
        bound = tol(ref)
        k = int(np.argmax(np.abs(got - ref) - bound))
        assert abs(got[k] - ref[k]) <= bound[k], (f"{name}: row {k} column {col} is {got[k]!r}, "
                                                  f"golden {ref[k]!r}, tolerance {bound[k]:.3g}")


def _data_start(lines: list[str]) -> int:
    """The index of the first data row: comment lines, then the header, come first."""
    return next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except AssertionError:
        return False
    return True


def update_golden(path: Path, golden: Path) -> bool:
    """Bring ``golden`` in line with the fresh CSV ``path``, and say whether it
    was written.  A golden that ``compare`` accepts is left as it is; one
    whose data rows pass but whose comment or header lines differ gets only
    those lines; any other is replaced."""
    text = path.read_text(encoding="utf-8")
    if golden.exists():
        if _passes(compare, path, golden.parent):
            return False
        ref = golden.read_text(encoding="utf-8")
        if _passes(_compare_rows, path.name, _split(text)[1], _split(ref)[1]):
            lines, ref_lines = text.splitlines(keepends=True), ref.splitlines(keepends=True)
            text = "".join(lines[:_data_start(lines)] + ref_lines[_data_start(ref_lines):])
    golden.write_text(text, encoding="utf-8")
    return True


def write_goldens(out: Path = GOLDEN_DIR) -> None:
    """Run every bundled scenario and update the goldens in ``out`` that
    differ (see :func:`update_golden`), printing each file written."""
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        written = {}
        with contextlib.redirect_stdout(io.StringIO()):  # the runs' own listings
            for name in bundled_scenarios():
                written.update(run_bundled(name, Path(tmp) / name))
        missing = set(TOLERANCES) ^ set(written)
        if missing:
            raise SystemExit(f"products without a tolerance or without output: {sorted(missing)}")
        for fname, path in sorted(written.items()):
            if update_golden(path, out / fname):
                print(out / fname)


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
