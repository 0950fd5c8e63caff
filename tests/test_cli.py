import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fss import scenario
from fss.cli import main
from fss.errors import ConfigError
from fss.scenario import load_scenario, parse_scenario

SMALL_SCENARIO = """\
[scenario]
name = smoke

[physics]
kind = two_level
gamma1 = 0.5 MHz
gamma2 = 2.0 MHz

[protocol trace]
kind = rabi
omega = 100 MHz
delta = 0 MHz
tau_start = 0 ns
tau_stop = 20 ns
tau_points = 21
"""

ESR_SCENARIO = """\
[scenario]
name = esr

[physics]
kind = two_level

[protocol probe]
kind = esr_scan
omega = 110 MHz
tau = 8 ns
stark_ratio = 0
omega_e0 = 2.6 GHz
omega_start = 2.5 GHz
omega_stop = 2.7 GHz
omega_points = 5
"""

PUMPING_SCENARIO = """\
[scenario]
name = pump

[physics]
kind = faraday
omega_e = 30 GHz
omega_h = 59 GHz
cyclicity = 289
gamma1 = 227.364 MHz

[protocol pumping]
kind = spin_pumping
s = 15
duration = 2500 ns
points = 0
"""

CPT_SCENARIO = """\
[scenario]
name = cpt

[physics]
kind = cpt
omega_e0 = 2.6 GHz
omega_down = 9.3 1/ns
omega_up = 0.19 1/ns
gamma2 = 0.53 1/ns

[protocol spectrum]
kind = cpt_spectrum
omega_start = 2.5 GHz
omega_stop = 2.7 GHz
omega_points = 5
"""


MAP_SCENARIO = """\
[scenario]
name = mixed

[physics]
kind = two_level

[protocol map]
kind = polarization_map
hwp_start = 0 deg
hwp_stop = 90 deg
hwp_points = 3
qwp_start = 0 deg
qwp_stop = 90 deg
qwp_points = 3

""" + SMALL_SCENARIO.split("\n\n")[-1]


def run(args):
    return main([str(a) for a in args])


def _block(text, header):
    """The section of a scenario ``text`` that opens with ``header``, up to the next blank line."""
    return text[text.index(header):].split("\n\n")[0] + "\n"


class TestValidate:
    def test_bundled_scenario_ok(self, capsys):
        assert run(["validate", "fig2b"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_unit_line_reported(self, tmp_path, capsys):
        bad = SMALL_SCENARIO.replace("omega = 100 MHz", "omega = 100")
        path = tmp_path / "bad.scenario"
        path.write_text(bad, encoding="utf-8")
        assert run(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "omega" in err

    def test_wrong_unit_family(self, tmp_path, capsys):
        bad = SMALL_SCENARIO.replace("tau_stop = 20 ns", "tau_stop = 20 MHz")
        path = tmp_path / "bad2.scenario"
        path.write_text(bad, encoding="utf-8")
        assert run(["validate", path]) == 2

    def test_unknown_scenario(self, capsys):
        assert run(["validate", "nonexistent"]) == 2

    @staticmethod
    def _rejected_at(text, key, tmp_path):
        from fss.errors import ConfigError

        line = next(n for n, row in enumerate(text.splitlines(), 1) if row.startswith(key))
        with pytest.raises(ConfigError) as err:
            parse_scenario(text)
        assert err.value.line == line
        path = tmp_path / "bad.scenario"
        path.write_text(text, encoding="utf-8")
        assert run(["validate", path]) == 2

    def test_non_finite_scalar_rejected(self, tmp_path):
        bad = SMALL_SCENARIO.replace("gamma1 = 0.5 MHz", "gamma1 = nan MHz")
        self._rejected_at(bad, "gamma1", tmp_path)

    def test_non_finite_list_entry_rejected(self, tmp_path):
        bad = ("[scenario]\nname = q\n[physics]\nkind = two_level\n[protocol q]\n"
               "kind = rabi_q\nomega_values = 60, inf MHz\ndi_values = 0, 0.01\n")
        self._rejected_at(bad, "omega_values", tmp_path)

    @pytest.mark.parametrize("omegas, noises", [("0, 60", "0, 0.01"), ("-60, 60", "0"), ("60", "0, -0.01")])
    def test_rabi_q_non_positive_omega_or_negative_noise_rejected(self, omegas, noises, tmp_path):
        # a Rabi frequency of 0 used to end in a ZeroDivisionError at run time
        text = ("[scenario]\nname = q\n[physics]\nkind = two_level\n[protocol q]\n"
                f"kind = rabi_q\nomega_values = {omegas} MHz\ndi_values = {noises}\n")
        self._rejected_at(text, "[protocol", tmp_path)
        parse_scenario(text.replace(f"omega_values = {omegas}", "omega_values = 60, 225")
                       .replace(f"di_values = {noises}", "di_values = 0, 0.01"))

    def test_negative_point_count_rejected(self, tmp_path):
        bad = SMALL_SCENARIO.replace("tau_points = 21", "tau_points = -3")
        self._rejected_at(bad, "tau_points", tmp_path)

    @pytest.mark.parametrize("count", ["1e300", "1000001"])
    @pytest.mark.parametrize("key", ["t_points", "mod_phases"])
    def test_huge_count_rejected_at_parse_time(self, key, count, tmp_path):
        # a count parses before any grid is built, so this allocates nothing
        text = (resources.files("fss") / "scenarios" / "fig5cd.scenario").read_text(encoding="utf-8")
        text = text.replace("mod_mode = refocus", "mod_mode = refocus\nmod_phases = 2")
        parse_scenario(text + f"seed = {count}\n")  # a seed is not a count
        parse_scenario(text)
        self._rejected_at(text.replace(f"{key} = ", f"{key} = {count} #"), key, tmp_path)

    @pytest.mark.parametrize("key", ["hwp_points", "qwp_points"])
    def test_empty_wave_plate_grid_rejected(self, key, tmp_path):
        text = "[scenario]\nname = m\n" + _block(MAP_SCENARIO, "[protocol map]")
        parse_scenario(text)
        self._rejected_at(text.replace(f"{key} = 3", f"{key} = 0"), "[protocol", tmp_path)

    def test_esr_zero_probe_time_rejected(self, tmp_path):
        bad = ESR_SCENARIO.replace("tau = 8 ns", "tau = 0 ns")
        parse_scenario(ESR_SCENARIO)
        self._rejected_at(bad, "[protocol", tmp_path)

    @pytest.mark.parametrize("kind,grid", [("ramsey", "tau"), ("hahn_echo", "t")])
    def test_zero_pulse_rabi_frequency_rejected(self, kind, grid, tmp_path):
        text = (f"[scenario]\nname = z\n[physics]\nkind = two_level\n[protocol p]\n"
                f"kind = {kind}\nomega = 0 MHz\n{grid}_start = 0 ns\n{grid}_stop = 80 ns\n"
                f"{grid}_points = 5\n")
        self._rejected_at(text, "[protocol", tmp_path)
        parse_scenario(text.replace("omega = 0 MHz", "omega = 125 MHz"))

    def test_scan_value_rejected_by_protocol(self, tmp_path):
        text = (SMALL_SCENARIO.replace("kind = rabi", "kind = ramsey")
                + "\n[scan]\nparameter = omega\nvalues = 100, 0 MHz\n")
        self._rejected_at(text, "[protocol", tmp_path)

    def test_scan_parameter_the_product_lacks_rejected(self, tmp_path):
        text = SMALL_SCENARIO + "\n[scan]\nparameter = f_serr\nvalues = 0, 5 MHz\n"
        self._rejected_at(text, "[protocol", tmp_path)
        parse_scenario(text.replace("kind = rabi", "kind = ramsey"))

    def test_scan_without_values_rejected(self, tmp_path):
        self._rejected_at(SMALL_SCENARIO + "\n[scan]\nparameter = omega\n", "[scan]", tmp_path)

    def test_empty_scan_rejected(self, tmp_path, capsys):
        # an empty scan used to validate, and then end a run in a ValueError
        self._rejected_at(SMALL_SCENARIO + "\n[scan]\nparameter = omega\nvalues = , MHz\n", "[scan]", tmp_path)
        assert run(["simulate", tmp_path / "bad.scenario", "--out", tmp_path / "out"]) == 2
        assert "[scan] values must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("kind = two_level\n", "kind = two_level\ngamma1 = 1 MHz\n", "TwoLevelPhysics.gamma1_mhz"),
        ("\n[protocol", "\n[ensemble]\nt2star = 20 ns\n\n[protocol", "EnsembleSpec.t2star_ns"),
    ])
    def test_rabi_q_value_it_would_ignore_rejected(self, old, new, field, tmp_path, capsys):
        # such a file used to validate, and then fail to simulate
        text = (resources.files("fss") / "scenarios" / "fig3de.scenario").read_text(encoding="utf-8")
        parse_scenario(text)
        self._rejected_at(text.replace(old, new), "[protocol", tmp_path)
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("scan", ["", "\n[scan]\nparameter = delta\nvalues = 80, 100 MHz\n"],
                             ids=["unscanned", "scanned"])
    def test_cooling_t2star_beside_an_ensemble_rejected(self, scan, tmp_path, capsys):
        # such a file used to simulate the ensemble and drop the cooling
        text = (resources.files("fss") / "scenarios" / "fig4b.scenario").read_text(encoding="utf-8") + scan
        parse_scenario(text)
        self._rejected_at(text.replace("\n[protocol", "\n[ensemble]\nt2star = 20 ns\n\n[protocol"),
                          "[protocol", tmp_path)
        assert "would ignore its cooling T2*" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [("omega_points = 5\n", ""),
                                         ("omega_points = 5", "omega_points = 0")])
    def test_cpt_probe_grid_rejected(self, old, new, tmp_path):
        parse_scenario(CPT_SCENARIO)
        self._rejected_at(CPT_SCENARIO.replace(old, new), "[protocol", tmp_path)

    @pytest.mark.parametrize("product, physics", [(PUMPING_SCENARIO, SMALL_SCENARIO),
                                                  (CPT_SCENARIO, PUMPING_SCENARIO)],
                             ids=["spin_pumping-on-two_level", "cpt_spectrum-on-faraday"])
    def test_product_on_physics_it_cannot_run_rejected(self, product, physics, tmp_path):
        parse_scenario(product)
        text = "[scenario]\nname = mixed\n" + _block(physics, "[physics]") + _block(product, "[protocol")
        self._rejected_at(text, "[protocol", tmp_path)

    def test_misspelt_scenario_key_rejected(self, tmp_path):
        self._rejected_at(SMALL_SCENARIO.replace("name = smoke", "nmae = smoke"), "nmae", tmp_path)

    def test_scenario_name_keeps_its_spaces(self, tmp_path):
        text = SMALL_SCENARIO.replace("name = smoke", "name = fig 3a  smoke")
        assert parse_scenario(text).name == "fig 3a  smoke"
        path = tmp_path / "spaced.scenario"
        path.write_text(text, encoding="utf-8")
        assert run(["validate", path]) == 0

    def test_missing_protocol_key_rejected(self, tmp_path):
        self._rejected_at(SMALL_SCENARIO.replace("omega = 100 MHz\n", ""), "[protocol", tmp_path)

    @pytest.mark.parametrize("old,new", [
        ("omega_e = 30 GHz\n", ""),
        ("cyclicity = 289", "cyclicity = 0.5"),
        ("gamma1 = 227.364 MHz", "gamma1 = 227.364 MHz\nhandedness = sideways"),
    ])
    def test_physics_rejected_by_its_constructor(self, old, new, tmp_path):
        self._rejected_at(PUMPING_SCENARIO.replace(old, new), "[physics]", tmp_path)

    def test_ensemble_rejected_by_its_constructor(self, tmp_path):
        text = SMALL_SCENARIO + "\n[ensemble]\nt2star = 34 ns\nnodes = 8\n"
        self._rejected_at(text, "[ensemble]", tmp_path)
        parse_scenario(text.replace("nodes = 8", "nodes = 9"))

    def test_output_signal_key_is_unknown(self, tmp_path):
        # [output] signal was read by nothing and is no longer a key
        self._rejected_at(SMALL_SCENARIO + "\n[output]\nsignal = emission\n", "signal", tmp_path)

    def test_product_without_physics_rejected(self, tmp_path):
        text = SMALL_SCENARIO.replace(_block(SMALL_SCENARIO, "[physics]"), "")
        self._rejected_at(text, "[protocol", tmp_path)
        with pytest.raises(ConfigError, match="no \\[physics\\] section"):
            parse_scenario(text)
        no_physics = "[scenario]\nname = map\n" + _block(MAP_SCENARIO, "[protocol")
        assert parse_scenario(no_physics).physics is None

    def test_shot_noise_requires_seed(self, tmp_path):
        bad = SMALL_SCENARIO + "\n[output]\ncounts_per_shot = 100\n"
        path = tmp_path / "noise.scenario"
        path.write_text(bad, encoding="utf-8")
        assert run(["validate", path]) == 2


class TestSimulate:
    def test_small_scenario(self, tmp_path, capsys):
        path = tmp_path / "smoke.scenario"
        path.write_text(SMALL_SCENARIO, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["simulate", path, "--out", out]) == 0
        csv = out / "smoke_trace.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# fss scenario=smoke")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "tau_ns,signal"
        assert (out / "smoke.manifest.txt").exists()

    def test_byte_identical_rerun(self, tmp_path):
        path = tmp_path / "smoke.scenario"
        path.write_text(SMALL_SCENARIO, encoding="utf-8")
        for d in ("a", "b"):
            assert run(["simulate", path, "--out", tmp_path / d]) == 0
        a = (tmp_path / "a" / "smoke_trace.csv").read_bytes()
        b = (tmp_path / "b" / "smoke_trace.csv").read_bytes()
        assert a == b

    def test_empty_scan_header_only(self, tmp_path):
        empty = SMALL_SCENARIO.replace("tau_points = 21", "tau_points = 0")
        path = tmp_path / "empty.scenario"
        path.write_text(empty, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["simulate", path, "--out", out]) == 0
        rows = [l for l in (out / "smoke_trace.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows == ["tau_ns,signal"]

    @pytest.mark.parametrize("old,new,code", [("t_stop = 640 ns", "t_stop = 1e300 ns", 4),
                                              ("mod_freq = 47.4 MHz", "mod_freq = 1e300 MHz", 4),
                                              ("t_stop = 640 ns", "t_stop = 0 ns", 2)],
                             ids=["span-of-2^52-periods", "period-of-1e-297-ns", "zero-span-fft"])
    def test_fig5cd_degenerate_time_axis_fails_cleanly(self, old, new, code, tmp_path, capsys):
        text = (resources.files("fss") / "scenarios" / "fig5cd.scenario").read_text(encoding="utf-8")
        path = tmp_path / "fig5cd.scenario"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert run(["validate", path]) == 0
        assert run(["simulate", path, "--out", tmp_path / "out"]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_spin_pumping_header_only(self, tmp_path):
        path = tmp_path / "pump.scenario"
        path.write_text(PUMPING_SCENARIO, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["validate", path]) == 0
        assert run(["simulate", path, "--out", out]) == 0
        rows = [l for l in (out / "pump_pumping.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows == ["t_ns,signal"]

    def test_seeded_shot_noise_determinism(self, tmp_path):
        noisy = SMALL_SCENARIO + "\n[output]\ncounts_per_shot = 200\nseed = 7\n"
        path = tmp_path / "noisy.scenario"
        path.write_text(noisy, encoding="utf-8")
        for d in ("a", "b"):
            assert run(["simulate", path, "--out", tmp_path / d]) == 0
        a = (tmp_path / "a" / "smoke_trace.csv").read_bytes()
        assert a == (tmp_path / "b" / "smoke_trace.csv").read_bytes()
        assert run(["simulate", path, "--out", tmp_path / "c", "--seed", "8"]) == 0
        assert a != (tmp_path / "c" / "smoke_trace.csv").read_bytes()

    def test_scan2d_rejects_single_axis(self, tmp_path, capsys):
        path = tmp_path / "smoke.scenario"
        path.write_text(SMALL_SCENARIO, encoding="utf-8")
        assert run(["scan2d", path, "--out", tmp_path / "o"]) == 2

    def test_scan2d_checks_every_product_before_simulating(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(scenario, "simulate_protocol", lambda *a, **k: calls.append(a))
        path = tmp_path / "mixed.scenario"
        path.write_text(MAP_SCENARIO, encoding="utf-8")
        assert run(["scan2d", path, "--out", tmp_path / "o"]) == 2
        assert "product 'trace' has 1" in capsys.readouterr().err
        assert calls == []

    def test_run_constructs_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "scanned.scenario"
        path.write_text(MAP_SCENARIO + "\n[ensemble]\nt2star = 34 ns\nnodes = 9\n"
                        "[scan]\nparameter = omega\nvalues = 50, 100 MHz\n", encoding="utf-8")
        sc = load_scenario(path)
        assert [(p.name, p.scanned, len(p.protocols)) for p in sc.products] == [("map", False, 1), ("trace", True, 2)]
        calls = []
        monkeypatch.setattr(scenario, "_build", lambda *a, **k: calls.append(a))
        scenario.run_scenario(sc, seed=0)
        assert calls == []

    def test_one_parsed_scenario_runs_twice_to_the_same_bytes(self, tmp_path):
        text = MAP_SCENARIO + "\n[ensemble]\nt2star = 34 ns\nnodes = 9\n[output]\ncounts_per_shot = 200\nseed = 7\n"
        sc = parse_scenario(text)
        first, second = ([scenario.result_to_csv(sc, res, 7) for res in scenario.run_scenario(sc)]
                         for _ in range(2))
        assert first == second and len(first) == 2


class TestFitCommand:
    def test_bundled_pumping_trace(self, capsys):
        from importlib import resources

        data = resources.files("fss") / "scenarios" / "data" / "pumping_trace.csv"
        rc = run(["fit", "exp_decay", str(data),
                  "-p", "amplitude=900", "-p", "tau=90", "-p", "offset=0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        tau = doc["parameters"]["tau"]["value"]
        assert tau == pytest.approx(111.0, abs=2.0)

    def test_exact_recovery(self, tmp_path, capsys):
        x = np.linspace(0, 40, 60)
        y = 0.8 * np.sin(2e-3 * np.pi * 75.0 * x + 0.3) * np.exp(-((x / 30.0) ** 2))
        path = tmp_path / "d.csv"
        path.write_text("tau,contrast\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)),
                        encoding="utf-8")
        rc = run(["fit", "damped_ramsey", path, "-p", "amplitude=0.7",
                  "-p", "delta_mhz=70", "-p", "phase=0.1", "-p", "t2star_ns=25", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["delta_mhz"]["value"] == pytest.approx(75.0, rel=1e-6)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_a_data_error(self, value, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text(f"t,counts\n0,1\n1,{value}\n2,0.5\n", encoding="utf-8")
        assert run(["fit", "exp_decay", path, "-p", "amplitude=1", "-p", "tau=1", "-p", "offset=0"]) == 3
        assert "row 3" in capsys.readouterr().err

    def test_malformed_row_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,1\nnope,2\n", encoding="utf-8")
        assert run(["fit", "exp_decay", path, "-p", "amplitude=1",
                    "-p", "tau=1", "-p", "offset=0"]) == 3
        assert "row 3" in capsys.readouterr().err

    def test_missing_initial_params(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0,1\n1,0.5\n2,0.25\n", encoding="utf-8")
        assert run(["fit", "exp_decay", path, "-p", "amplitude=1"]) == 2

    def test_calls_share_one_parser_and_no_values(self, tmp_path, capsys):
        from fss import cli

        assert cli.build_parser() is cli.build_parser()
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0,1\n1,0.5\n2,0.25\n3,0.125\n", encoding="utf-8")
        assert run(["fit", "exp_decay", path, "-p", "amplitude=1", "-p", "tau=1", "-p", "offset=0"]) == 0
        # the repeated -p values of the last call do not carry over
        assert run(["fit", "exp_decay", path, "-p", "amplitude=1"]) == 2
        assert "missing initial values for: tau, offset" in capsys.readouterr().err


class TestCalc:
    def test_cyclicity(self, capsys):
        assert run(["calc", "cyclicity", "0.270", "111", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cyclicity"] == pytest.approx(410.1, abs=1.0)
        assert doc["branching"] == pytest.approx(0.0024, abs=0.0002)

    def test_stark_ratio(self, capsys):
        assert run(["calc", "stark", "--eta", "20.22", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["stark_ratio"]) == pytest.approx(10.08, abs=0.02)

    def test_gfactor(self, capsys):
        assert run(["calc", "gfactor", "2.60", "6.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["g_factor"] == pytest.approx(0.0286, abs=0.0002)

    def test_larmor(self, capsys):
        assert run(["calc", "larmor", "6.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["larmor_75As_mhz"] == pytest.approx(47.4, abs=0.1)

    def test_linewidth(self, capsys):
        assert run(["calc", "linewidth", "--fwhm", "7", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t2star_ns"] == pytest.approx(75.7, abs=0.1)

    def test_eta_from_slope(self, capsys):
        assert run(["calc", "eta", "--slope", "17.2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["eta"] == pytest.approx(34.4, abs=0.1)

    def test_rabi(self, capsys):
        assert run(["calc", "rabi", "6", "0.3", "600", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["two_photon_rabi_mhz"] == pytest.approx(1.5)

    def test_domain_error_exit(self, capsys):
        assert run(["calc", "cyclicity", "2.0", "1.0"]) == 2

    @pytest.mark.parametrize("args", [
        ["cyclicity", "nan", "111"], ["cyclicity", "0.27", "inf"], ["gfactor", "nan", "6.5"],
        ["rabi", "6", "nan", "600"], ["larmor", "inf"], ["linewidth", "--fwhm", "nan"],
        ["linewidth", "--t2star", "inf"], ["stark", "--eta", "nan"], ["stark", "--eta", "20", "--omega", "nan"],
        ["stark", "--cyclicity", "nan"], ["eta", "--slope", "nan"],
    ])
    def test_non_finite_value_rejected(self, args, capsys):
        assert run(["calc", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


class TestListModels:
    def test_lists_models_and_scenarios(self, capsys):
        assert run(["list-models", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "exp_decay" in doc["models"]
        assert "fig3a" in doc["scenarios"]
        assert len(doc["scenarios"]) >= 12


class TestScenarioParsing:
    def test_duplicate_key_rejected(self):
        from fss.errors import ConfigError

        text = SMALL_SCENARIO + "\n[output]\nseed = 1\nseed = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_scenario(text)
        assert err.value.line is not None

    def test_unknown_key_rejected(self):
        from fss.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_scenario(SMALL_SCENARIO.replace("gamma1", "gamma9"))

    def test_unit_conversion(self, tmp_path):
        text = SMALL_SCENARIO.replace("tau_stop = 20 ns", "tau_stop = 0.02 us")
        sc = parse_scenario(text)
        assert sc.products[0].protocols[0].axes[0][1][-1] == pytest.approx(20.0)

    def test_bundled_scenarios_all_parse(self):
        from fss.cli import bundled_scenarios, _resolve_scenario_path

        names = bundled_scenarios()
        assert len(names) >= 12
        benchmark = sorted((Path(__file__).parents[1] / "benchmarks" / "scenarios").glob("*.scenario"))
        assert {"fig2ef_small", "fig4abc_small"} <= {p.stem for p in benchmark}
        for path in [_resolve_scenario_path(name) for name in names] + benchmark:
            sc = load_scenario(path)
            assert sc.products


class TestExitCodes:
    def test_non_convergence_exit_5(self, tmp_path, capsys):
        x = np.linspace(0, 40, 60)
        y = 0.8 * np.sin(2e-3 * np.pi * 75.0 * x) * np.exp(-((x / 30.0) ** 2))
        path = tmp_path / "d.csv"
        path.write_text("tau,contrast\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)),
                        encoding="utf-8")
        rc = run(["fit", "damped_ramsey", path, "-p", "amplitude=0.4",
                  "-p", "delta_mhz=40", "-p", "phase=0.5", "-p", "t2star_ns=10",
                  "--max-eval", "3"])
        assert rc == 5

    def test_config_flag_alternative(self, tmp_path):
        path = tmp_path / "smoke.scenario"
        path.write_text(SMALL_SCENARIO, encoding="utf-8")
        assert run(["validate", "--config", path]) == 0
        assert run(["simulate", "--config", path, "--out", tmp_path / "o"]) == 0
        assert run(["simulate"]) == 2
