import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from strain_oracle import save_strain_series

import gravibar
from gravibar import measurement
from gravibar.cli import ConfigError, _OutputSet, _write_csv, main, parse_config
from gravibar.detector import gamma_stimulated, mode_frequency
from gravibar.dynamics import chi_quadrature, optimal_mass
from gravibar.fock import TraceUnderflowError
from gravibar.measurement import detect_jump, run_ensemble, run_trajectory
from gravibar.waveform import SampledStrain

MONO_CONFIG = """\
[detector]
material = niobium
length = 1.0
radius = 0.5
quality = 1e10
temperature = 1e-3

[source]
type = monochromatic
h0 = 5e-22
frequency_hz = 2500

[measurement]
dt = 1e-2
t_m = 0.5
t_meas = 2.0
dim = 10
seed = 42
n_traj = 2
duration = 2.0

[output]
directory = {out}
stride = 3
"""

NO_SOURCE = MONO_CONFIG.replace(
    MONO_CONFIG[MONO_CONFIG.index("[source]") : MONO_CONFIG.index("[measurement]")], ""
)

CHIRP_CONFIG = """\
[detector]
material = beryllium
frequency_hz = 100
radius = 0.5
mass = optimal

[source]
type = chirp
h0 = 2e-22
chirp_mass_msun = 1.19
nu0_hz = 30

[output]
directory = {out}
"""


# 66 trajectories cross the chunk boundary at 64; drive (|beta|^2 = 0.23 per
# reinit period), displacement noise, thermal jumps (~1.3 Hz) and a reinit
# at 0.3 s
ENSEMBLE_CONFIG = """\
[detector]
material = niobium
length = 1.0
radius = 0.5
quality = 1e8
temperature = 1e-3

[source]
type = monochromatic
h0 = 2e-24
frequency_hz = 2500

[measurement]
dt = 1e-2
t_m = 0.5
t_meas = 0.3
dim = 6
kappa = 1e-3
thermal = on
seed = 11
n_traj = 66
duration = 0.6

[output]
directory = {out}
stride = 2
"""

# dim 2: a second thermal jump within a period leaves a zero state
UNDERFLOW_CONFIG = """\
[detector]
material = niobium
length = 1.0
radius = 0.5
quality = 1e8
temperature = 1e-3

[measurement]
dt = 1e-2
t_m = 0.5
t_meas = 1.0
dim = 2
thermal = on
seed = 2
n_traj = 6
duration = 1.0

[output]
directory = {out}
"""


# a 1.19 Msun chirp crosses a 100 Hz niobium bar inside a 5-s run: the drive
# builds |beta| ~ 40, far beyond what dim 8 holds
TRUNCATION_CONFIG = """\
[detector]
material = niobium
frequency_hz = 100
radius = 0.5

[source]
type = chirp
h0 = 2e-22
chirp_mass_msun = 1.19
nu0_hz = 30
gw_start = -51.56

[measurement]
dim = 8
n_traj = 2
duration = 5.0

[output]
directory = {out}
"""

# a resonant drive on the Fig.-3 bar builds |beta|^2 = 4.22 over the 3-s run,
# more than dim 4 holds (dim/4 = 1); a 1-s reinit period builds a ninth of it
GUARD_CONFIG = """\
[detector]
material = beryllium
frequency_hz = 100
mass = 21.73
radius = 0.0077
quality = 3e8
temperature = 1e-3

[source]
type = monochromatic
h0 = 3e-23
frequency_hz = 100
gw_start = 0.0

[measurement]
dt = 1e-3
t_m = 0.5
t_meas = 1.0
dim = 4
duration = 3.0

[output]
directory = {out}
"""


def write_config(tmp_path: Path, text: str, name: str = "run.ini") -> str:
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path)


def read_csv(path: Path) -> dict[str, float]:
    rows = path.read_text().strip().splitlines()[1:]
    return {line.split(",")[0]: float(line.split(",")[1]) for line in rows}


class TestParseConfig:
    def test_minimal_defaults_recorded(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MONO_CONFIG))
        assert cfg.detector.mode_index == 1
        assert cfg.measurement.dim == 10
        assert cfg.measurement.record_stride == 3
        assert cfg.resolved["detector"]["mode_index"] == 1
        assert cfg.resolved["measurement"]["t_meas"] == 2.0

    def test_optimal_mass_resolution(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CHIRP_CONFIG))
        assert 10.0 < cfg.detector.mass < 20.0
        assert cfg.resolved["detector"]["mass_resolution"] == "optimal"

    def test_type_mismatch_names_key(self, tmp_path):
        text = MONO_CONFIG.replace("dt = 1e-2", "dt = fast")
        with pytest.raises(ConfigError, match=r"\[measurement\] dt"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        text = MONO_CONFIG + "\n[detector]\n"  # duplicate section is an error
        text = MONO_CONFIG.replace("radius = 0.5", "radius = 0.5\ncolour = red")
        with pytest.raises(ConfigError, match="colour"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = MONO_CONFIG + "\n[telescope]\nkind = optical\n"
        with pytest.raises(ConfigError, match=r"\[telescope\]"):
            parse_config(write_config(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        text = MONO_CONFIG.replace("h0 = 5e-22\n", "")
        with pytest.raises(ConfigError, match="h0"):
            parse_config(write_config(tmp_path, text))

    def test_length_and_frequency_exclusive(self, tmp_path):
        text = MONO_CONFIG.replace(
            "length = 1.0", "length = 1.0\nfrequency_hz = 100"
        )
        with pytest.raises(ConfigError, match="exclusive"):
            parse_config(write_config(tmp_path, text))

    def test_window_keys_paired(self, tmp_path):
        text = MONO_CONFIG.replace(
            "frequency_hz = 2500", "frequency_hz = 2500\nwindow_start = 0.0"
        )
        with pytest.raises(ConfigError, match="window"):
            parse_config(write_config(tmp_path, text))

    def test_empty_or_reversed_window_rejected(self, tmp_path, capsys):
        for w0, w1 in (("1.0", "1.0"), ("1.5", "0.5")):
            text = MONO_CONFIG.replace(
                "frequency_hz = 2500",
                f"frequency_hz = 2500\nwindow_start = {w0}\nwindow_end = {w1}",
            )
            path = write_config(tmp_path, text)
            with pytest.raises(ConfigError, match="window_end.*window_start"):
                parse_config(path)
            assert main(["chi", "--config", path]) == 2
            assert "window_start" in capsys.readouterr().err

    def test_n_traj_must_be_positive(self, tmp_path):
        text = MONO_CONFIG.replace("n_traj = 2", "n_traj = 0")
        with pytest.raises(ConfigError, match="n_traj"):
            parse_config(write_config(tmp_path, text, "zero.ini"))
        assert main(["simulate", "--config", str(tmp_path / "zero.ini")]) == 2
        path = write_config(tmp_path, MONO_CONFIG)
        for n in ("0", "-1"):
            assert main(["simulate", "--config", path, "--n-traj", n]) == 2

    def test_lattice_n_values_checked(self, tmp_path, capsys):
        for raw in ("19", "19,19", "19,20", "1,19"):
            path = write_config(tmp_path, MONO_CONFIG + f"\n[lattice]\nn_values = {raw}\n")
            with pytest.raises(ConfigError, match=r"\[lattice\] n_values"):
                parse_config(path)
            assert main(["lattice-verify", "--config", path]) == 2
            assert "n_values" in capsys.readouterr().err
        path = write_config(tmp_path, MONO_CONFIG + "\n[lattice]\nn_values = 39,19\n")
        assert parse_config(path).lattice_n_values == (39, 19)

    @pytest.mark.parametrize("line, message", [
        ("n_points = 0", r"\[sensitivity\] n_points = 0 must be >= 1"),
        ("f_min_hz = -5", r"\[sensitivity\] f_min_hz = -5\.0 Hz must be > 0"),
        ("f_min_hz = nan", r"\[sensitivity\] f_min_hz = nan Hz must be finite"),
        ("f_max_hz = inf", r"\[sensitivity\] f_max_hz = inf Hz must be finite"),
        ("f_max_hz = nan", r"\[sensitivity\] f_max_hz = nan Hz must be finite"),
        ("f_max_hz = 40", r"\[sensitivity\] f_max_hz = 40\.0 Hz .* exceed f_min_hz"),
    ], ids=["n_points", "f_min_hz", "f_min_nan", "f_max_inf", "f_max_nan", "f_max_below_f_min"])
    def test_sensitivity_grid_checked(self, tmp_path, capsys, line, message):
        # rejected before np.geomspace builds the grid
        path = write_config(tmp_path, MONO_CONFIG + f"\n[sensitivity]\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        assert main(["sensitivity", "--config", path]) == 2
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, command", [
        ("t_m = 0.5", "t_m = nan", "simulate"),
        ("t_m = 0.5", "t_m = inf", "simulate"),
        ("t_meas = 2.0", "t_meas = inf", "simulate"),
        ("dim = 10", "dim = 10\nkappa = nan", "simulate"),
        ("quality = 1e10", "quality = nan", "rates"),
        ("temperature = 1e-3", "temperature = nan", "rates"),
        ("radius = 0.5", "radius = nan", "rates"),
        ("radius = 0.5", "radius = 0.5\nmass = nan", "rates"),
        ("radius = 0.5", "radius = 0.5\nmass = inf", "rates"),
    ], ids=["t_m_nan", "t_m_inf", "t_meas_inf", "kappa_nan", "quality_nan",
            "temperature_nan", "radius_nan", "mass_nan", "mass_inf"])
    def test_non_finite_value_names_its_key(self, tmp_path, capsys, old, new, command):
        # each once ran on (nan or inf readouts, nan rates) or failed with a
        # message about something else
        section = "measurement" if command == "simulate" else "detector"
        key = new.splitlines()[-1].split()[0]
        path = write_config(tmp_path, MONO_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = .*(nan|inf).* finite"):
            parse_config(path)
        assert main([command, "--config", path]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    def test_duration_shorter_than_a_step_rejected(self, tmp_path, capsys):
        text = MONO_CONFIG.replace("duration = 2.0", "duration = 4e-3")  # dt = 1e-2
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[measurement\] duration = 0\.004 s"):
            parse_config(path)
        assert main(["simulate", "--config", path]) == 2
        assert "[measurement] duration" in capsys.readouterr().err

    def test_stride_longer_than_the_run_rejected(self, tmp_path, capsys):
        # MONO_CONFIG: 200 steps of dt = 1e-2; a longer stride records nothing
        path = write_config(tmp_path, MONO_CONFIG.replace("stride = 3", "stride = 201"))
        with pytest.raises(ConfigError, match=r"\[output\] stride = 201 exceeds the run's 200"):
            parse_config(path)
        assert main(["simulate", "--config", path]) == 2
        assert "[output] stride" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        path = write_config(tmp_path, MONO_CONFIG.replace("stride = 3", "stride = 200"))
        assert parse_config(path).measurement.record_stride == 200

    def test_inline_material(self, tmp_path):
        text = MONO_CONFIG.replace("material = niobium", "density = 8570\nsound_speed = 5000")
        inline = parse_config(write_config(tmp_path, text))
        named = parse_config(write_config(tmp_path, MONO_CONFIG, "named.ini"))
        assert inline.detector.material.name == "custom"
        assert inline.detector.mass == named.detector.mass
        assert mode_frequency(inline.detector) == mode_frequency(named.detector)
        assert inline.resolved["detector"]["density"] == 8570.0

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/run.ini")


class TestRates:
    def test_niobium_spontaneous_row(self, tmp_path, capsys):
        path = write_config(tmp_path, MONO_CONFIG)
        assert main(["rates", "--config", path]) == 0
        table = read_csv(tmp_path / "out" / "rates.csv")
        assert 0.5e-33 < table["gamma_spontaneous_hz"] < 2e-33
        assert table["gamma_stimulated_hz"] > 0.0
        assert "gamma_spontaneous_hz" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["monochromatic", "chirp", "none", "file"])
    def test_stimulated_row_needs_a_source_amplitude(self, tmp_path, source):
        mono = "type = monochromatic\nh0 = 5e-22\nfrequency_hz = 2500\n"
        text = CHIRP_CONFIG if source == "chirp" else MONO_CONFIG
        if source == "none":
            text = text.replace("[source]\n" + mono, "")
        elif source == "file":
            strain = tmp_path / "strain.txt"
            ts = 1e-5 * np.arange(1001)
            h = 5e-22 * np.sin(2 * math.pi * 2500.0 * ts)
            save_strain_series(str(strain), SampledStrain(t0=0.0, dt=1e-5, h=h))
            text = text.replace(mono, f"type = file\npath = {strain}\n")
        path = write_config(tmp_path, text)
        assert main(["rates", "--config", path]) == 0
        table = read_csv(tmp_path / "out" / "rates.csv")
        h0 = {"monochromatic": 5e-22, "chirp": 2e-22}.get(source)
        if h0 is None:
            assert "gamma_stimulated_hz" not in table
        else:
            expected = gamma_stimulated(parse_config(path).detector, h0)
            assert table["gamma_stimulated_hz"] == expected

    def test_metadata_written(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
        main(["rates", "--config", path])
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["command"] == "rates"
        assert meta["resolved_config"]["version"]
        assert meta["resolved_config"]["constants"]["hbar"] == 1.054571817e-34


class TestChi:
    def test_methods_agree_on_resonance(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
        assert main(["chi", "--config", path]) == 0
        lines = (tmp_path / "out" / "chi.csv").read_text().strip().splitlines()
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert values["quadrature"] == pytest.approx(
            values["monochromatic_closed_form"], rel=0.02
        )

    def test_window_ending_on_a_sinc_zero_converges(self, tmp_path):
        # delta*T/2 = 37 pi and (omega + nu)*T = 2 pi * 18463: both rotating
        # terms vanish, so the integral cancels to roundoff
        text = MONO_CONFIG.replace(
            "frequency_hz = 2500", "frequency_hz = 2490\nwindow_start = 0\nwindow_end = 3.7"
        )
        assert main(["chi", "--config", write_config(tmp_path, text)]) == 0
        chi = read_csv(tmp_path / "out" / "chi.csv")
        nu, t = 2 * math.pi * 2490.0, 3.7
        hddot_l1 = 5e-22 * nu**2 * 2.0 * t / math.pi  # whole half-cycles of |sin|
        assert abs(chi["quadrature"] - chi["monochromatic_closed_form"]) <= 1e-11 * hddot_l1

    def test_coinciding_grids_add_no_sliver_panels(self, tmp_path):
        # on resonance the uniform and the phase grid coincide up to
        # rounding: 2 s of a 2 500 Hz wave is 2 500 two-cycle panels
        path = write_config(tmp_path, MONO_CONFIG)
        assert main(["chi", "--config", path]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["quadrature_nodes"] <= 33 * 2501

    def test_chirp_methods_present(self, tmp_path):
        text = CHIRP_CONFIG + "\n[measurement]\nduration = 60\n"
        path = write_config(tmp_path, text)
        assert main(["chi", "--config", path]) == 0
        content = (tmp_path / "out" / "chi.csv").read_text()
        for method in ("quadrature", "stationary_phase", "chirp_analytic"):
            assert method in content

    def test_chirp_window_missing_resonance_writes_quadrature_only(self, tmp_path):
        # (10, 11) s misses s* = 53.4 s at 100 Hz: stationary phase and the
        # whole-crossing closed form do not apply, the quadrature does
        text = CHIRP_CONFIG.replace("beryllium", "niobium").replace("mass = optimal\n", "")
        text = text.replace("nu0_hz = 30", "nu0_hz = 30\nwindow_start = 10\nwindow_end = 11")
        assert main(["chi", "--config", write_config(tmp_path, text)]) == 0
        chi = read_csv(tmp_path / "out" / "chi.csv")
        assert list(chi) == ["quadrature"] and chi["quadrature"] > 0.0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["chi_method_spread"] == 0.0
        omitted = meta["chi_methods_omitted"]
        assert sorted(omitted) == ["chirp_analytic", "stationary_phase"]
        for reason in omitted.values():
            assert "s* = 53.4" in reason and "(10.0, 11.0)" in reason

    @pytest.mark.parametrize("config", [MONO_CONFIG, CHIRP_CONFIG])
    def test_method_spread_in_metadata_and_reruns_identical(self, tmp_path, config):
        path = write_config(tmp_path, config)
        for out in ("a", "b"):
            assert main(["chi", "--config", path, "--out", str(tmp_path / out)]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b")) == ["chi.csv", "metadata.json"]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), f"{name} differs"
        chi = read_csv(tmp_path / "a" / "chi.csv").values()
        meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
        assert meta["chi_method_spread"] == (max(chi) - min(chi)) / max(chi)
        assert 0.0 < meta["chi_method_spread"] < 0.3
        # the quadrature's health: one 33-node pass, accepted well inside 1e-6
        assert meta["quadrature_nodes"] > 0 and meta["quadrature_nodes"] % 33 == 0
        assert 0.0 <= meta["quadrature_error_estimate"] <= 1e-6


class TestOptimalMass:
    def test_ns_merger_mass_range(self, tmp_path):
        path = write_config(tmp_path, CHIRP_CONFIG)
        assert main(["optimal-mass", "--config", path]) == 0
        table = read_csv(tmp_path / "out" / "optimal_mass.csv")
        assert 10.0 < table["optimal_mass_kg"] < 20.0
        assert table["beta_mag"] == pytest.approx(1.0, rel=1e-9)


    def test_windowless_monochromatic_uses_run_span(self, tmp_path):
        # mass = optimal, optimal-mass and chi share one window, (0, duration)
        text = MONO_CONFIG.replace("radius = 0.5", "radius = 0.5\nmass = optimal")
        path = write_config(tmp_path, text)
        assert main(["chi", "--config", path, "--out", str(tmp_path / "chi")]) == 0
        chi = read_csv(tmp_path / "chi" / "chi.csv")["monochromatic_closed_form"]
        assert main(["optimal-mass", "--config", path]) == 0
        table = read_csv(tmp_path / "out" / "optimal_mass.csv")
        cfg = parse_config(path)
        omega = mode_frequency(cfg.detector)
        expected = optimal_mass(cfg.detector.material, chi, omega)
        assert table["chi"] == chi
        assert table["optimal_mass_kg"] == pytest.approx(expected, rel=1e-12)
        assert cfg.detector.mass == pytest.approx(expected, rel=1e-12)
        assert cfg.window == (0.0, 2.0)
        source = cfg.resolved["source"]
        assert (source["window_start"], source["window_end"]) == (0.0, 2.0)

    def test_file_source_mass_honours_window(self, tmp_path):
        ts = 1e-4 * np.arange(20001)  # 2 s of a resonant 100 Hz wave
        strain = str(tmp_path / "strain.txt")
        h = 1e-21 * np.sin(2 * math.pi * 100.0 * ts)
        save_strain_series(strain, SampledStrain(t0=0.0, dt=1e-4, h=h))
        chirp = "type = chirp\nh0 = 2e-22\nchirp_mass_msun = 1.19\nnu0_hz = 30"
        masses = []
        for keys in ("", "\nwindow_start = 0.0\nwindow_end = 1.0"):
            text = CHIRP_CONFIG.replace(chirp, f"type = file\npath = {strain}{keys}")
            cfg = parse_config(write_config(tmp_path, text))
            omega = mode_frequency(cfg.detector)
            window = (0.0, 1.0) if keys else (cfg.signal.t0, cfg.signal.t_end)
            chi = chi_quadrature(cfg.signal, omega, window)
            assert cfg.detector.mass == pytest.approx(
                optimal_mass(cfg.detector.material, chi, omega), rel=1e-12
            )
            masses.append(cfg.detector.mass)
        assert masses[1] > 2.0 * masses[0]  # half the drive, ~4x the mass

    def test_no_drive_is_a_config_error(self, tmp_path, capsys):
        # h0 = 0 gives chi = 0: no finite optimal mass, named like the other
        # config errors, from the subcommand and from mass = optimal alike
        text = CHIRP_CONFIG.replace("h0 = 2e-22", "h0 = 0")
        path = write_config(tmp_path, text.replace("mass = optimal\n", ""))
        assert main(["optimal-mass", "--config", path]) == 2
        assert "[source] gives chi = 0.0" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="no finite optimal mass"):
            parse_config(write_config(tmp_path, text, "optimal.ini"))

    def test_chirp_window_missing_resonance_is_a_config_error(self, tmp_path, capsys):
        # the whole-inspiral chi applies only when the window holds the
        # resonance crossing; (10, 11) s misses s* = 53.4 s at 100 Hz
        window = "nu0_hz = 30\nwindow_start = 10\nwindow_end = 11"
        text = CHIRP_CONFIG.replace("nu0_hz = 30", window)
        path = write_config(tmp_path, text.replace("mass = optimal\n", ""))
        assert main(["optimal-mass", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "resonance crossing at s* = 53.4" in err
        assert "(10.0, 11.0)" in err
        assert not os.path.exists(tmp_path / "out" / "optimal_mass.csv")
        with pytest.raises(ConfigError, match=r"s\* = 53\.4.* lies outside"):
            parse_config(write_config(tmp_path, text, "optimal.ini"))


class TestSimulate:
    # MONO_CONFIG's drive at an h0 its dim holds: |beta|^2 = 0.64 over the run
    CONFIG = MONO_CONFIG.replace("h0 = 5e-22", "h0 = 5e-25")

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "b")]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        assert "trajectory_0.csv" in names
        assert "events_0.csv" in names
        assert "summary.csv" in names
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_seed_override_changes_readout(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
        main(
            ["simulate", "--config", path, "--out", str(tmp_path / "b"),
             "--seed", "7"]
        )
        a = (tmp_path / "a" / "trajectory_0.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory_0.csv").read_bytes()
        assert a != b

    def test_n_traj_override(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        main(
            ["simulate", "--config", path, "--out", str(tmp_path / "c"),
             "--n-traj", "3"]
        )
        names = os.listdir(tmp_path / "c")
        assert sum(1 for n in names if n.startswith("trajectory_")) == 3

    def test_flags_write_what_the_config_keys_write(self, tmp_path):
        # --seed and --n-traj are read as [measurement] seed and n_traj are
        text = self.CONFIG.replace("seed = 42", "seed = 7").replace("n_traj = 2", "n_traj = 3")
        keys = write_config(tmp_path, text, "keys.ini")
        flags = write_config(tmp_path, self.CONFIG, "flags.ini")
        assert main(["simulate", "--config", keys, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", flags, "--out", str(tmp_path / "b"),
                     "--seed", "7", "--n-traj", "3"]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        assert "trajectory_2.csv" in names and "trajectory_3.csv" not in names
        metadata = []
        for name in names:
            a, b = ((tmp_path / run / name).read_bytes() for run in "ab")
            if name == "metadata.json":
                metadata = [json.loads(a), json.loads(b)]
            else:
                assert a == b, f"{name} differs between the flags and the keys"
        paths = [meta["resolved_config"].pop("config_path") for meta in metadata]
        assert paths == [keys, flags]
        assert metadata[0] == metadata[1]

    def test_summary_columns(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        main(["simulate", "--config", path])
        header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
        assert header == "time,mean_rho00,mean_rho11,mean_rho22"

    def test_files_match_library_runs(self, tmp_path):
        path = write_config(tmp_path, ENSEMBLE_CONFIG)
        assert main(["simulate", "--config", path]) == 0
        out = tmp_path / "out"
        n = 66
        assert sorted(os.listdir(out)) == sorted(
            ["metadata.json", "summary.csv"]
            + [f"trajectory_{k}.csv" for k in range(n)]
            + [f"events_{k}.csv" for k in range(n)]
        )
        run = parse_config(path)
        args = (run.detector, run.signal, run.measurement)
        kwargs = dict(duration=run.duration, gw_start=run.gw_start, window=run.window)
        # the runs are driven: |beta| over the first reinit period
        drive, _ = measurement._drive(*args, **kwargs)
        assert abs(drive[:30].sum()) >= 0.3
        children = np.random.SeedSequence(run.measurement.seed).spawn(n)
        for k, child in enumerate(children):
            rec = run_trajectory(*args, rng=np.random.default_rng(child), **kwargs)
            table = np.loadtxt(out / f"trajectory_{k}.csv", delimiter=",", skiprows=1)
            expected = [rec.times, rec.readout, rec.rho00, rec.rho11, rec.rho22]
            np.testing.assert_array_equal(table, np.column_stack(expected))
            events = (out / f"events_{k}.csv").read_text().splitlines()[1:]
            assert events == [
                f"{t!r},{kind}" for t, kind in sorted(rec.events + detect_jump(rec))
            ]
        summary = run_ensemble(*args, n, **kwargs)
        table = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table, np.column_stack([
            summary.times, summary.mean_rho00, summary.mean_rho11, summary.mean_rho22,
        ]))
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["n_detected"] == summary.n_detected

    def test_truncated_drive_rejected_before_any_step(self, tmp_path, capsys):
        path = write_config(tmp_path, TRUNCATION_CONFIG)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "[measurement] dim" in err and "truncation dim = 8" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gw_start, beta2", [("0.0", "4.22"), ("0.2345", "3.58")])
    def test_truncation_guard_is_per_reinit_period(self, tmp_path, capsys, gw_start, beta2):
        # the guard sums the drive within each reinit period, also when the
        # drive starts off the step grid
        text = GUARD_CONFIG.replace("gw_start = 0.0", f"gw_start = {gw_start}")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path]) == 0
        assert (tmp_path / "out" / "trajectory_0.csv").exists()
        whole = write_config(tmp_path, text.replace("t_meas = 1.0", "t_meas = 3.0"), "whole.ini")
        assert main(["simulate", "--config", whole, "--out", str(tmp_path / "whole")]) == 2
        assert f"|beta|^2 = {beta2} is large for truncation dim = 4" in capsys.readouterr().err
        assert not (tmp_path / "whole").exists()

    def test_truncated_kappa_noise_rejected_before_any_step(self, tmp_path, capsys):
        # kappa = 0.5 at dt = 1e-2 kicks by mean |gamma|^2 = 2 kappa^2/dt = 50
        # a step, 50 x 200 = 1e4 over the 200-step period, beyond what dim 10
        # holds (dim/4 = 2.5); the drive alone fits
        text = self.CONFIG.replace("[measurement]", "[measurement]\nkappa = 0.5")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kappa noise" in err and "|beta|^2 = 1e+04 is large for truncation dim = 10" in err
        assert not (tmp_path / "out").exists()

    def test_kappa_heating_over_a_period_rejected(self, tmp_path, capsys):
        # kappa = 0.05 kicks by mean |gamma|^2 = 0.5 a step, which dim 10
        # holds, but the kicks heat by 0.5 x 200 = 100 over the period
        text = self.CONFIG.replace("[measurement]", "[measurement]\nkappa = 0.05")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kappa noise" in err and "|beta|^2 = 100 is large for truncation dim = 10" in err
        # a period longer than the run heats only over the run's 200 steps:
        # 5e-3 x 200 = 1 fits
        text = self.CONFIG.replace("t_meas = 2.0", "t_meas = 50.0").replace(
            "[measurement]", "[measurement]\nkappa = 5e-3"
        )
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 0

    def test_underflow_names_its_trajectory(self, tmp_path, capsys):
        path = write_config(tmp_path, UNDERFLOW_CONFIG)
        assert main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        named = re.match(r"error: trajectory (\d+): (.*)", err)
        assert named, err
        k = int(named.group(1))
        run = parse_config(path)
        child = np.random.SeedSequence(run.measurement.seed).spawn(run.n_traj)[k]
        with pytest.raises(TraceUnderflowError) as alone:
            run_trajectory(
                run.detector, None, run.measurement, duration=run.duration,
                rng=np.random.default_rng(child),
            )
        assert str(alone.value) == f"trajectory 0: {named.group(2)}"


class TestSensitivity:
    def test_curve_written(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
        assert main(["sensitivity", "--config", path]) == 0
        lines = (tmp_path / "out" / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "frequency_hz,h_c"
        assert len(lines) == 41  # default 40-point grid

    def test_reference_overlay(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
        ref = tmp_path / "ref.txt"
        ref.write_text("700 1e-21\n900 2e-21\n")
        assert main(
            ["sensitivity", "--config", path, "--reference", str(ref)]
        ) == 0
        assert (tmp_path / "out" / "reference.csv").exists()

    def test_failure_removes_partial_outputs(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
        ref = tmp_path / "ref.txt"
        ref.write_text("700\n900\n")  # one column: invalid
        assert main(
            ["sensitivity", "--config", path, "--reference", str(ref)]
        ) == 1
        assert not (tmp_path / "out" / "sensitivity.csv").exists()


class TestLatticeVerify:
    def test_config_writes_metadata(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG + "\n[lattice]\nn_values = 19,39\n")
        assert main(["lattice-verify", "--config", path]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["command"] == "lattice-verify"
        assert meta["resolved_config"]["lattice"]["n_values"] == [19, 39]

    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "lat"
        assert main(["lattice-verify", "--out", str(out)]) == 0
        text = (out / "lattice_verify.csv").read_text()
        assert "FAIL" not in text
        assert "driven_beta_error" in text
        printed = capsys.readouterr().out
        assert "pass" in printed


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 8193])
    def test_rows_written_in_chunks_keep_every_byte(self, tmp_path, n_rows):
        # rows as `events_<k>.csv` gets them: (time, kind) tuples, plus a
        # column of numbers spanning the exponent range and an integer one
        rng = np.random.default_rng(n_rows)
        kinds = ("drive_on", "drive_off", "jump_detected")
        rows = [
            (float(t), kinds[k], float(v), int(c))
            for t, k, v, c in zip(
                rng.uniform(0.0, 100.0, n_rows), rng.integers(0, 3, n_rows),
                rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
                rng.integers(-5, 5, n_rows),
            )
        ]
        _write_csv(_OutputSet(str(tmp_path)), "events.csv", "time,kind,value,count",
                   zip(*rows))
        reference = "time,kind,value,count\n" + "".join(
            f"{t!r},{kind},{v!r},{float(c)!r}\n" for t, kind, v, c in rows
        )
        assert (tmp_path / "events.csv").read_bytes() == reference.encode()

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # one-shot formatting held each column as 100 000 Python floats, ~7 MB
        rng = np.random.default_rng(3)
        columns = [rng.uniform(0.0, 100.0, 100_000), rng.standard_normal(100_000)]
        outputs = _OutputSet(str(tmp_path))
        tracemalloc.start()
        try:
            _write_csv(outputs, "big.csv", "time,a", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "big.csv").read_text().splitlines()) == 100_001
        assert peak < 2 * 2**20


def test_chi_and_simulate_never_import_numpy_ma(tmp_path):
    # the first np.unique of a process imported numpy.ma: 11-17 ms and 1.6 MB
    # of peak RSS with numpy 2.4 on a 2-vCPU Xeon
    path = write_config(tmp_path, TestSimulate.CONFIG)
    code = (
        "import sys; from gravibar.cli import main; "
        f"assert main(['chi', '--config', {path!r}]) == 0; "
        f"assert main(['simulate', '--config', {path!r}]) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(gravibar.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "False"


class TestErrors:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        text = MONO_CONFIG.replace("dt = 1e-2", "dt = fast")
        path = write_config(tmp_path, text)
        assert main(["rates", "--config", path]) == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("text, command, named", [
        (MONO_CONFIG.replace("= monochromatic", "= laser"), "rates", "[source] type = 'laser'"),
        (MONO_CONFIG[MONO_CONFIG.index("[source]") :], "rates", "[detector]"),
        (MONO_CONFIG.replace("material = niobium\n", ""), "rates", "material = <name>"),
        (MONO_CONFIG.replace("length = 1.0\n", ""), "rates", "[detector] needs length"),
        (NO_SOURCE.replace("radius = 0.5", "radius = 0.5\nmass = optimal"), "rates",
         "mass = optimal"),
        (MONO_CONFIG.replace("radius = 0.5", "radius = 0.5\nmass = heavy"), "rates",
         "[detector] mass = 'heavy'"),
        (MONO_CONFIG.replace("radius = 0.5", "radius = 0.5\nmass = abc"), "rates",
         "[detector] mass = 'abc' is not valid (expected a number in kg)"),
        (NO_SOURCE, "chi", "[source]"),
        (NO_SOURCE, "optimal-mass", "[source]"),
    ], ids=["choices", "no_detector", "no_material", "no_length", "optimal_without_source",
            "mass_not_a_number", "mass_abc", "chi_without_source",
            "optimal_mass_without_source"])
    def test_config_error_names_its_key(self, tmp_path, capsys, text, command, named):
        assert main([command, "--config", write_config(tmp_path, text)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, code, named", [
        ("rates", 1, "h0 must keep the stimulated rate a normal float, got 1e+200"),
        ("optimal-mass", 1, "chi must keep the optimal mass a normal float, got "),
        ("chi", 0, ""),
    ], ids=["rates", "optimal-mass", "chi"])
    def test_overflowing_strain(self, tmp_path, capsys, command, code, named):
        # each exited 1 with a bare "(34, 'Numerical result out of range')";
        # chi's excitation probabilities are 0 where |beta|^2 overflows
        path = write_config(tmp_path, MONO_CONFIG.replace("h0 = 5e-22", "h0 = 1e200"))
        assert main([command, "--config", path]) == code
        assert named in capsys.readouterr().err
        if command == "chi":
            rows = (tmp_path / "out" / "chi.csv").read_text().splitlines()[1:]
            assert rows and all(row.split(",")[3:] == ["0.0"] * 4 for row in rows)

    def test_unknown_material_message(self, tmp_path, capsys):
        text = MONO_CONFIG.replace("material = niobium", "material = wood")
        path = write_config(tmp_path, text)
        assert main(["rates", "--config", path]) == 2
        assert "wood" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values",
        ["density = nan\nsound_speed = 5000", "density = 8570\nsound_speed = inf"],
        ids=["density_nan", "sound_speed_inf"],
    )
    def test_non_finite_material_names_its_section(self, tmp_path, capsys, values):
        # `density <= 0` is False for nan: such a table wrote nan rates
        table = tmp_path / "materials.ini"
        table.write_text(f"[rubber]\n{values}\n")
        path = write_config(tmp_path, MONO_CONFIG.replace("= niobium", "= rubber"))
        assert main(["rates", "--config", path, "--materials", str(table)]) == 2
        assert "material [rubber]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
    @pytest.mark.parametrize("command, code", [("chi", 2), ("sensitivity", 1)])
    def test_failed_command_leaves_no_directory_it_made(
        self, tmp_path, capsys, command, code, existing
    ):
        # chi fails before writing (no [source]), sensitivity after writing
        # its curve (a one-column reference): either way the directories the
        # run made go, and one that was there before stays, emptied
        out = tmp_path / "made" / "out"
        if existing:
            out.mkdir(parents=True)
        ref = tmp_path / "ref.txt"
        ref.write_text("700\n900\n")
        args = {
            "chi": ["chi", "--config", write_config(tmp_path, NO_SOURCE, "no_source.ini")],
            "sensitivity": [
                "sensitivity", "--config", write_config(tmp_path, MONO_CONFIG),
                "--reference", str(ref),
            ],
        }[command]
        assert main(args + ["--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "made").exists() == existing
        assert out.exists() == existing
        if existing:
            assert list(out.iterdir()) == []

    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        path = write_config(tmp_path, MONO_CONFIG)
        assert main(["rates", "--config", path, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(taken)) in err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, flag):
        # SeedSequence rejected it mid-run, exit 1, without naming the key
        text = TestSimulate.CONFIG
        if not flag:
            text = text.replace("seed = 42", "seed = -1")
        args = ["simulate", "--config", write_config(tmp_path, text)]
        assert main(args + (["--seed", "-1"] if flag else [])) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
