import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gravibar.cli import ConfigError, main, parse_config
from gravibar.detector import mode_frequency
from gravibar.dynamics import chi_quadrature, optimal_mass
from gravibar.fock import TraceUnderflowError
from gravibar.measurement import detect_jump, run_ensemble, run_trajectory
from gravibar.waveform import SampledStrain, save_strain_series

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


# 66 trajectories cross the chunk boundary at 64; drive, displacement noise,
# thermal jumps (~1.3 Hz) and a reinit at 0.3 s
ENSEMBLE_CONFIG = """\
[detector]
material = niobium
length = 1.0
radius = 0.5
quality = 1e8
temperature = 1e-3

[source]
type = monochromatic
h0 = 5e-22
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
        assert cfg.mass_resolved_optimal
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

    def test_chirp_methods_present(self, tmp_path):
        text = CHIRP_CONFIG + "\n[measurement]\nduration = 60\n"
        path = write_config(tmp_path, text)
        assert main(["chi", "--config", path]) == 0
        content = (tmp_path / "out" / "chi.csv").read_text()
        for method in ("quadrature", "stationary_phase", "chirp_analytic"):
            assert method in content


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


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
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
        path = write_config(tmp_path, MONO_CONFIG)
        main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
        main(
            ["simulate", "--config", path, "--out", str(tmp_path / "b"),
             "--seed", "7"]
        )
        a = (tmp_path / "a" / "trajectory_0.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory_0.csv").read_bytes()
        assert a != b

    def test_n_traj_override(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
        main(
            ["simulate", "--config", path, "--out", str(tmp_path / "c"),
             "--n-traj", "3"]
        )
        names = os.listdir(tmp_path / "c")
        assert sum(1 for n in names if n.startswith("trajectory_")) == 3

    def test_summary_columns(self, tmp_path):
        path = write_config(tmp_path, MONO_CONFIG)
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
    def test_all_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "lat"
        assert main(["lattice-verify", "--out", str(out)]) == 0
        text = (out / "lattice_verify.csv").read_text()
        assert "FAIL" not in text
        assert "driven_beta_error" in text
        printed = capsys.readouterr().out
        assert "pass" in printed


class TestErrors:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        text = MONO_CONFIG.replace("dt = 1e-2", "dt = fast")
        path = write_config(tmp_path, text)
        assert main(["rates", "--config", path]) == 2
        assert "dt" in capsys.readouterr().err

    def test_unknown_material_message(self, tmp_path, capsys):
        text = MONO_CONFIG.replace("material = niobium", "material = wood")
        path = write_config(tmp_path, text)
        assert main(["rates", "--config", path]) == 2
        assert "wood" in capsys.readouterr().err
