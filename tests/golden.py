"""The numbers fingerprint: a fixed list of small cases and their numbers.

`cases()` runs every case and returns its numbers as plain JSON data;
`tests/test_golden.py` reruns them and compares the result with the
committed `tests/golden.json` through `mismatches`. To record the numbers of
the current code (a change that moves numbers on purpose)::

    PYTHONPATH=src python tests/golden.py --write

The cases:

- every CLI command on seven of the numpy-only smoke job's configs in
  `tests/configs` (`smoke`, `noisy`, `strong`, `reinit`, `file`,
  `inspiral`, `aliased`): the exit code, every line of every CSV file and
  every `metadata.json` key except `config_path`. `simulate` on `inspiral`
  is left out: with no [measurement] it runs 40 s at dim 30, over 2 s
  alone;
- `run_ensemble` at the set-ups of the `fig3-ensemble` (driven and
  drive-off) and `qnd-mixed` benchmark workloads, 8 trajectories and 2
  seeds each: the mean populations summed over blocks of
  `POPULATION_BLOCK` records, those of the last record, the jump and
  purity-crossing record indices;
- chi by every method on a monochromatic, a chirp and a sampled source,
  with the quadrature's nodes and error estimate, and beta;
- the closed forms and rates at one point each;
- the records of `lattice-verify`'s driven N = 199 chain.

No error message is recorded: messages may change while numbers hold.

Comparison: ints, strings, booleans and None match exactly; floats to
`RTOL` relative, and population entries (keys and CSV columns with
"rho" or "populations" in their name) also within `POPULATION_FLOOR`.
So a block sum of populations, at most `POPULATION_BLOCK`, fails on a
move of 3.2e-11 or more in one mean population of its block.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from gravibar import cli, detector, dynamics, lattice, sensitivity, waveform
from gravibar.constants import SOLAR_MASS
from gravibar.detector import MATERIALS, DetectorSpec, Material, mode_frequency
from gravibar.fock import QuantumState
from gravibar.measurement import MeasurementConfig, run_ensemble
from gravibar.waveform import ChirpSource, MonochromaticWave, SampledStrain

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
CONFIG_DIR = os.path.join(os.path.dirname(PATH), "configs")
RTOL = 1e-12
POPULATION_FLOOR = 1e-14
POPULATION_BLOCK = 32
OMEGA_100 = 2 * math.pi * 100.0

# seven of the numpy-only CI job's configs, each `configs/<name>.ini`
CONFIGS = ("smoke", "noisy", "strong", "reinit", "file", "inspiral", "aliased")
COMMANDS = ("rates", "chi", "optimal-mass", "sensitivity", "simulate", "lattice-verify")
SKIPPED = {("inspiral", "simulate")}


@contextlib.contextmanager
def _inside(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _write_strain(path: str) -> None:
    """A 100 Hz sine under a Gaussian envelope, 2 s at 10 kHz, two columns:
    the `strain.txt` that `configs/file.ini` reads, here and in CI."""
    t = 1e-4 * np.arange(20001)
    h = 1e-22 * np.sin(2 * np.pi * 100 * t) * np.exp(-(((t - 1) / 0.3) ** 2))
    np.savetxt(path, np.column_stack([t, h]))


def _output(directory: str) -> dict:
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            if name == "metadata.json":
                meta = json.load(fh)
                meta["resolved_config"].pop("config_path", None)
                files[name] = meta
            else:
                files[name] = fh.read().splitlines()
    return files


def cli_cases() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        _write_strain("strain.txt")
        for name in CONFIGS:
            config = os.path.join(CONFIG_DIR, f"{name}.ini")
            for command in COMMANDS:
                if (name, command) in SKIPPED:
                    continue
                directory = f"{name}-{command}"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, "--config", config, "--out", directory])
                files = _output(directory) if os.path.isdir(directory) else {}
                out[f"{name} {command}"] = {"exit": code, "files": files}
    return out


def _ensemble(summary) -> dict:
    times = summary.times
    pops = summary.mean_populations
    blocks = np.add.reduceat(pops, np.arange(0, len(pops), POPULATION_BLOCK), axis=0)
    crossing = summary.purity_first_crossing
    return {
        "n_records": int(times.size),
        "last_time": float(times[-1]),
        "n_detected": summary.n_detected,
        "block_populations": blocks.tolist(),
        "last_populations": pops[-1].tolist(),
        "jump_records": [np.searchsorted(times, jumps).tolist() for jumps in summary.jump_times],
        "purity_records": None if crossing is None else [
            -1 if math.isnan(t) else int(np.searchsorted(times, t)) for t in crossing.tolist()
        ],
        "events": [[t, kind] for t, kind in summary.events],
    }


def _fig3_inputs(h0: float, seed: int):
    """The `fig3-ensemble` workload's bar, chirp, window, entry and config."""
    spec = DetectorSpec.from_frequency(
        MATERIALS["beryllium"], OMEGA_100, mass=21.73, quality=1e10, temperature=1e-3,
    )
    chirp = ChirpSource.from_solar_masses(1.19, h0=h0, nu0=2 * math.pi * 30.0)
    s_star = waveform.resonance_time(chirp.nu0, chirp.k, OMEGA_100)
    window = (s_star - 2.0, s_star + 2.0)
    cfg = MeasurementConfig(dt=1e-3, t_m=2.0, t_meas=40.0, dim=30, seed=seed, record_stride=3)
    return spec, chirp, window, 2.0 - window[0], cfg


def ensemble_cases(n_traj: int = 8, seeds=(1, 2)) -> dict:
    out = {}
    for seed in seeds:
        spec, chirp, window, _, _ = _fig3_inputs(2e-22, seed)
        beta = dynamics.displacement_beta(spec, chirp, window).magnitude
        spec, chirp, window, gw_start, cfg = _fig3_inputs(2e-22 * math.sqrt(0.05) / beta, seed)
        out[f"fig3-driven {seed}"] = _ensemble(run_ensemble(
            spec, chirp, cfg, n_traj, seed, duration=10.0, gw_start=gw_start, window=window))
        out[f"fig3-quiet {seed}"] = _ensemble(run_ensemble(
            spec, None, cfg, n_traj, seed + 100, duration=4.0))

        qnd = MeasurementConfig(dt=2e-3, t_m=2.0, t_meas=1e4, dim=10, seed=seed, record_stride=1)
        rng = np.random.default_rng(seed)
        starts = [QuantumState.from_diagonal(rng.dirichlet(np.ones(qnd.dim)))
                  for _ in range(n_traj)]
        bar = DetectorSpec.from_frequency(MATERIALS["niobium"], OMEGA_100, radius=0.5)
        out[f"qnd-mixed {seed}"] = _ensemble(run_ensemble(
            bar, None, qnd, n_traj, seed, duration=10 * qnd.t_m, initial_states=starts,
            purity_threshold=0.99))
    return out


def _chi(result) -> dict:
    return {"value": result.value, "method": result.method,
            "window": None if result.window is None else list(result.window),
            "nodes": result.nodes, "error_estimate": result.error_estimate}


def chi_cases() -> dict:
    bar = DetectorSpec.from_frequency(MATERIALS["beryllium"], OMEGA_100, radius=0.5)
    omega = mode_frequency(bar)
    wave = MonochromaticWave(h0=3e-23, nu=omega * 1.001, phi0=0.3)
    chirp = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0)
    two_thirds = ChirpSource.from_solar_masses(
        1.19, h0=2e-22, nu0=2 * math.pi * 30.0, amplitude_model="nu_two_thirds",
        amplitude_ref=omega)
    t = 1e-4 * np.arange(20001)
    sampled = SampledStrain(t0=0.0, dt=1e-4,
                            h=1e-22 * np.sin(omega * t) * np.exp(-(((t - 1) / 0.3) ** 2)))
    out = {}
    window = (0.0, 0.5)
    out["monochromatic"] = [
        _chi(dynamics.chi_quadrature(wave, omega, window)),
        _chi(dynamics.chi_monochromatic(wave.h0, wave.nu, omega, window[1])),
    ]
    for name, source in (("chirp", chirp), ("chirp nu_two_thirds", two_thirds)):
        window = dynamics.default_window(source, omega)
        out[name] = [
            _chi(dynamics.chi_quadrature(source, omega, window)),
            _chi(dynamics.chi_stationary_phase(source, omega, window)),
            _chi(dynamics.chi_chirp_analytic(source.h0, source.k, omega)),
        ]
    out["sampled"] = [_chi(dynamics.chi_quadrature(sampled, omega, (sampled.t0, sampled.t_end)))]
    for name, source, window in (("monochromatic", wave, (0.0, 0.5)), ("chirp", chirp, None),
                                 ("sampled", sampled, None)):
        beta = dynamics.displacement_beta(bar, source, window).value
        out[f"beta {name}"] = [beta.real, beta.imag]
    return out


def closed_form_cases() -> dict:
    niobium = MATERIALS["niobium"]
    bar = DetectorSpec.from_frequency(niobium, OMEGA_100, radius=0.5, quality=3e8)
    omega = mode_frequency(bar)
    k = waveform.chirp_rate_k(1.19 * SOLAR_MASS)
    nu0 = 2 * math.pi * 30.0
    chain = lattice.ChainSpec.from_detector(bar, 39)
    amplitude = lattice.mode_coherent_amplitude(chain, 1, 1e-20, 3e-18)
    return {
        "thermal_occupation": detector.thermal_occupation(1e-3, omega),
        "thermal_occupation hot": detector.thermal_occupation(300.0, omega),
        "gamma_spontaneous": detector.gamma_spontaneous(bar),
        "gamma_stimulated": detector.gamma_stimulated(bar, 2e-22),
        "gamma_thermal": detector.gamma_thermal(bar),
        "from_frequency length": DetectorSpec.from_frequency(niobium, OMEGA_100, mass=100.0).length,
        "graviton_number": sensitivity.graviton_number(1e-21, omega),
        "golden_rule_stimulated": sensitivity.golden_rule_stimulated(bar, 1e5),
        "characteristic_strain": sensitivity.characteristic_strain(bar),
        "min_strain_monochromatic": sensitivity.min_strain_monochromatic(bar, 1e4),
        "classical_timedelay": sensitivity.classical_timedelay(bar, 1e-21, omega),
        "sensitivity_curve": sensitivity.sensitivity_curve(bar, np.geomspace(50.0, 2000.0, 9)).tolist(),
        "chirp_rate_k": k,
        "coalescence_time": waveform.coalescence_time(nu0, k),
        "resonance_time": waveform.resonance_time(nu0, k, omega),
        "resonance_crossing_time": waveform.resonance_crossing_time(k, omega),
        "chirp_window": list(waveform.chirp_window(ChirpSource(1.19 * SOLAR_MASS, 2e-22, nu0), omega)),
        "beta_prefactor": dynamics.beta_prefactor(bar),
        "excitation_probability": [dynamics.excitation_probability(0.7 + 0.2j, n) for n in range(4)],
        "optimal_mass": dynamics.optimal_mass(niobium, 3e-18, omega),
        "optimal_mass_chirp": dynamics.optimal_mass_chirp(niobium, 2e-22, 1.19 * SOLAR_MASS, omega),
        "threshold_probability": dynamics.threshold_probability(bar, 1e-21, 0.999 * omega, 2.0),
        "mode_coherent_amplitude": [amplitude.real, amplitude.imag],
    }


def lattice_cases() -> dict:
    """The driven N = 199 chain of `lattice.continuum_checks`."""
    spec = DetectorSpec.from_frequency(
        Material("reference", density=1000.0, sound_speed=10.0), 2 * math.pi, radius=0.1)
    chain = lattice.ChainSpec.from_detector(spec, 199)
    omega = mode_frequency(spec)
    t_end = 40 * 2 * math.pi / omega
    traj = lattice.evolve_chain(chain, MonochromaticWave(h0=1e-3, nu=omega), (0.0, t_end),
                                record_stride=100)
    return {"n_records": int(traj.times.size), "last_time": float(traj.times[-1]),
            "chi": traj.chi[1].tolist(), "chi_dot": traj.chi_dot[1].tolist()}


GROUPS = {
    "cli": cli_cases,
    "ensembles": ensemble_cases,
    "chi": chi_cases,
    "closed_forms": closed_form_cases,
    "lattice": lattice_cases,
}


def cases() -> dict:
    return {name: make() for name, make in GROUPS.items()}


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _number(cell: str):
    """A CSV cell as an int or a float if it reads as one, else None."""
    for convert in (int, float):
        try:
            return convert(cell)
        except ValueError:
            pass
    return None


def _population(key: str) -> bool:
    return "rho" in key or "populations" in key


def mismatches(expected, actual, where: str = "", floor: float = 0.0) -> list[str]:
    """Every place where `actual` differs from `expected`, as 'path: detail'."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        out = []
        for key in expected:
            below = floor or (POPULATION_FLOOR if _population(key) else 0.0)
            out += mismatches(expected[key], actual[key], f"{where}/{key}", below)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        if expected and all(isinstance(line, str) for line in expected + actual):
            return _csv_mismatches(expected, actual, where)
        out = []
        for k, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{where}[{k}]", floor)
        return out
    if isinstance(expected, float) and isinstance(actual, float):
        if expected == actual or math.isnan(expected) and math.isnan(actual):
            return []
        if abs(expected - actual) <= RTOL * max(abs(expected), abs(actual)) + floor:
            return []
        return [f"{where}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {expected!r} != {actual!r}"]
    return []


def _csv_mismatches(expected: list[str], actual: list[str], where: str) -> list[str]:
    """A CSV file line by line: the header exactly, then each cell as a
    number (ints exactly, floats as above) or as text."""
    if expected[0] != actual[0]:
        return [f"{where}: header {expected[0]!r} != {actual[0]!r}"]
    columns = expected[0].split(",")
    out = []
    for row, (e_line, a_line) in enumerate(zip(expected[1:], actual[1:]), start=1):
        e_cells, a_cells = e_line.split(","), a_line.split(",")
        if len(e_cells) != len(a_cells):
            out.append(f"{where} row {row}: {e_line!r} != {a_line!r}")
            continue
        for column, e, a in zip(columns, e_cells, a_cells):
            e_num, a_num = _number(e), _number(a)
            here = f"{where} row {row} {column}"
            if e_num is None or a_num is None:
                if e != a:
                    out.append(f"{here}: {e!r} != {a!r}")
            else:
                floor = POPULATION_FLOOR if _population(column) else 0.0
                out += mismatches(e_num, a_num, here, floor)
    return out


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        return 2
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(cases(), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
