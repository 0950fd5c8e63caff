"""End-to-end runs of every bundled scenario (the slowest module; each
scenario must complete with exit code 0 and produce its data products, and
every product must match its golden trace within the tolerance that
``make_golden.py`` states for it)."""

import numpy as np
import pytest

from fss.cli import bundled_scenarios
from fss.fitting import MODEL_LIBRARY, fit, fft_spectrum
from make_golden import GOLDEN_DIR, compare, run_bundled, update_golden

FAST = ["fig1e", "fig2b", "fig3de", "fig4b", "fig5cd", "fig6", "fig7map", "fig8"]
SLOW = ["fig1d", "fig2c", "fig3a", "fig2ef", "fig4abc"]


def _run(name, out_dir):
    files = run_bundled(name, out_dir)
    assert files, f"{name} produced no data"
    assert set(files) == {p.name for p in GOLDEN_DIR.glob(f"{name}_*.csv")}
    for path in files.values():
        compare(path)
    return files


@pytest.mark.parametrize("name", FAST)
def test_fast_scenarios_run(name, tmp_path):
    _run(name, tmp_path)


@pytest.mark.parametrize("name", SLOW)
def test_slow_scenarios_run(name, tmp_path):
    _run(name, tmp_path)


def test_all_bundled_names_covered():
    assert set(FAST + SLOW) == set(bundled_scenarios())


class TestScenarioOutputs:
    def test_fig2b_dip_location(self, tmp_path):
        files = _run("fig2b", tmp_path)
        rows = _read(files["fig2b_spectrum.csv"])
        omega, signal = rows[:, 0], rows[:, 1]
        assert omega[np.argmin(signal)] == pytest.approx(2.60, abs=0.01)

    def test_fig5cd_fft_peak_near_larmor(self, tmp_path):
        files = _run("fig5cd", tmp_path)
        rows = _read(files["fig5cd_echo.csv"])
        # remove the slow T2HE envelope so the spectrum shows the modulation
        trend = np.polyval(np.polyfit(rows[:, 0], rows[:, 1], 2), rows[:, 0])
        spec = fft_spectrum(rows[:, 0], rows[:, 1] - trend)
        assert spec.peaks[0][0] == pytest.approx(47.4, abs=0.5)
        assert files["fig5cd_echo_fft.csv"].exists()

    def test_fig6_serrodyne_fringe(self, tmp_path):
        files = _run("fig6", tmp_path)
        rows = _read(files["fig6_f_gaas.csv"])
        r = fit(MODEL_LIBRARY["serrodyne_ramsey"], rows[:, 0], rows[:, 1],
                {"amplitude": 0.9, "freq_mhz": 108.0, "t2star_ns": 60.0})
        assert r["freq_mhz"] == pytest.approx(112.0, abs=1.0)
        assert r["t2star_ns"] == pytest.approx(74.0, rel=0.05)

    def test_fig1d_pumping_consistent_with_branch_rate(self, tmp_path):
        # InGaAs device: large electron splitting, so the weak-arm repumping
        # wing is negligible and the occupation-corrected decay recovers the
        # 203 ns branch time
        files = _run("fig1d", tmp_path)
        rows = _read(files["fig1d_pumping.csv"])
        t, y = rows[:, 0], rows[:, 1]
        mask = t > 30.0
        r = fit(MODEL_LIBRARY["exp_decay"], t[mask], y[mask],
                {"amplitude": y[mask][0], "tau": 400.0, "offset": 0.0})
        occupation = 15.0 / 32.0  # s/(2(1+s)) at s = 15
        assert r["tau"] * occupation == pytest.approx(203.0, rel=0.15)

    def test_fig1e_pumping_decays(self, tmp_path):
        # GaAs device at the small 6.5 T splitting: the off-resonant weak-arm
        # repumping leaves an emission floor, but the pumping decay dominates
        files = _run("fig1e", tmp_path)
        rows = _read(files["fig1e_pumping.csv"])
        y = rows[:, 1]
        assert y[-1] < 0.2 * y[2]


def _read(path):
    rows = [l.split(",") for l in path.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    return np.array([[float(v) for v in row] for row in rows])



def test_golden_update_rewrites_only_what_differs(tmp_path):
    ref = (GOLDEN_DIR / "fig4b_fringe.csv").read_text(encoding="utf-8")
    fresh, golden = tmp_path / "fresh" / "fig4b_fringe.csv", tmp_path / "fig4b_fringe.csv"
    fresh.parent.mkdir()
    golden.write_text(ref, encoding="utf-8")

    def update(text):
        fresh.write_text(text, encoding="utf-8")
        return update_golden(fresh, golden), golden.read_text(encoding="utf-8")

    # a row within tolerance leaves the golden untouched, also beside a new
    # comment line, which is the only line then written
    within = ref.replace("0.5,0.950850860222", "0.5,0.950850860223")
    assert update(within) == (False, ref)
    assert update(within.replace("seed=0", "seed=1")) == (True, ref.replace("seed=0", "seed=1"))
    # a row outside the tolerance replaces the golden
    outside = ref.replace("0.5,0.950850860222", "0.5,0.95")
    assert update(outside) == (True, outside)
