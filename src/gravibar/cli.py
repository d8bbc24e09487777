"""Command-line front end: config parsing, subcommands, serialized outputs.

Subcommands::

    gravibar rates --config run.ini [--out DIR]
    gravibar chi --config run.ini [--out DIR]
    gravibar optimal-mass --config run.ini [--out DIR]
    gravibar simulate --config run.ini [--out DIR] [--seed N] [--n-traj N]
    gravibar sensitivity --config run.ini [--out DIR] [--reference PATH]
    gravibar lattice-verify [--config run.ini] [--out DIR]

The config file is INI-style with [detector], [source], [measurement],
[output] and optional [sensitivity]/[lattice] sections; '#' starts a
comment. Every run with a config writes a metadata.json with the fully
resolved configuration, constants and seeds, sufficient to reproduce the
outputs byte for byte; `lattice-verify` without `--config` writes none.
All CSV floats use shortest round-trip formatting.

`simulate` runs its trajectories through `measurement.run_ensemble`'s chunk
stream and reduction, writing each trajectory's CSV from its chunk. The
drive (`measurement._drive`) is computed once, and the truncation guard
sums its increments over each reinit period before any step runs.

The integration window of a source (signal time) is resolved once, when
the config is parsed, and recorded as [source] window_start/window_end:
given keys win; otherwise `dynamics.default_window` applies, which is the
resonance-crossing window for a chirp, the file's support for a sampled
strain, and (0, duration - gw_start) for a monochromatic wave. Every
subcommand, `mass = optimal` included, uses that one window; an empty or
reversed window is a config error.

For a chirp, `optimal-mass` and `mass = optimal` use the slow-chirp
closed form chi = h0 sqrt(2/k) omega^(1/6) of the whole resonance
crossing (`dynamics.chi_chirp_analytic`), not a quadrature over the
window. The window decides only whether that chi applies: when the
crossing s* lies outside it, they stop with a config error that names s*.
In that case `chi` writes the quadrature over the window alone and names the
stationary-phase and whole-crossing methods it left out, with the reason,
in metadata.json.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .constants import CONSTANTS, SOLAR_MASS
from .detector import (
    DetectorSpec,
    Material,
    fock_lifetime,
    gamma_spontaneous,
    gamma_stimulated,
    gamma_thermal,
    get_material,
    load_materials,
    mode_frequency,
    thermal_occupation,
)
from .dynamics import (
    beta_prefactor,
    chi_chirp_analytic,
    chi_monochromatic,
    chi_quadrature,
    chi_stationary_phase,
    crossing_in_window,
    default_window,
    excitation_probability,
    optimal_mass,
)
from .fock import check_truncation
from .lattice import continuum_checks
from .measurement import MeasurementConfig, _drive, _ensemble_chunks, _summarize
from .sensitivity import characteristic_strain, sensitivity_curve
from .waveform import (
    ChirpDomainError,
    ChirpSource,
    MonochromaticWave,
    StrainSignal,
    load_strain_series,
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration files."""


# Each section's keys, with the unit a number is read in (None: no unit).
_KEYS = {
    "detector": {
        "material": None, "density": "kg/m^3", "sound_speed": "m/s", "length": "m",
        "frequency_hz": "Hz", "radius": "m", "mass": "kg", "mode_index": None,
        "quality": "1", "temperature": "K",
    },
    "source": {
        "type": None, "h0": "strain", "frequency_hz": "Hz",
        "chirp_mass_msun": "solar masses", "nu0_hz": "Hz", "amplitude_model": None,
        "path": None, "gw_start": "s", "window_start": "s", "window_end": "s",
    },
    "measurement": {
        "dt": "s", "t_m": "s", "t_meas": "s", "dim": None, "kappa": "1", "thermal": None,
        "seed": None, "n_traj": None, "duration": "s",
    },
    "output": {"directory": None, "stride": None},
    "sensitivity": {"f_min_hz": "Hz", "f_max_hz": "Hz", "n_points": None},
    "lattice": {"n_values": None},
}


# Chain sizes N of `lattice-verify` when no [lattice] n_values is given.
LATTICE_N_VALUES = (19, 39, 79, 159)
_CSV_ROWS = 4096  # rows formatted at once by `_write_csv`


class _Section:
    """Validated view of one config section tracking resolved values; an
    override other than None replaces its key's value once that is read."""

    def __init__(self, name: str, proxy, resolved: dict, overrides: dict):
        self.name = name
        self.proxy = proxy
        self.resolved = resolved.setdefault(name, {})
        self.overrides = {key: v for key, v in overrides.items() if v is not None}

    def has(self, key: str) -> bool:
        return self.proxy is not None and key in self.proxy

    def raw(self, key: str):
        return self.proxy[key].split("#", 1)[0].strip() if self.has(key) else None

    def record(self, key: str, value):
        self.resolved[key] = value
        return value

    def value(self, key: str, convert=float, default=None, required=False, choices=None):
        """The key's text through `convert`, `default` if absent or empty; recorded.
        A float must be finite."""
        raw = self.raw(key)
        value = default
        if raw is None or raw == "":
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        elif choices is not None and raw not in choices:
            raise ConfigError(
                f"[{self.name}] {key} = {raw!r} must be one of {sorted(choices)}"
            )
        else:
            unit = _KEYS[self.name][key]
            try:
                value = convert(raw)
            except ValueError:
                hint = f" (expected a number in {unit})" if unit else " (expected a number)"
                raise ConfigError(f"[{self.name}] {key} = {raw!r} is not valid{hint}") from None
            if isinstance(value, float) and not math.isfinite(value):
                shown = f"{value!r} {unit}" if unit not in (None, "1") else repr(value)
                raise ConfigError(f"[{self.name}] {key} = {shown} must be finite")
        return self.record(key, self.overrides.get(key, value))


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    detector: DetectorSpec
    signal: StrainSignal | None
    measurement: MeasurementConfig
    duration: float
    gw_start: float
    window: tuple[float, float] | None
    n_traj: int
    out_dir: str
    sensitivity_grid: np.ndarray
    lattice_n_values: tuple[int, ...]
    resolved: dict


def _build_signal(sec: _Section, omega: float):
    kind = sec.value("type", str, required=True, choices={"monochromatic", "chirp", "file"})
    if kind == "file":
        return load_strain_series(sec.value("path", str, required=True))
    h0 = sec.value("h0", required=True)
    if kind == "monochromatic":
        freq = sec.value("frequency_hz", required=True)
        return MonochromaticWave(h0=h0, nu=2.0 * math.pi * freq)
    mc = sec.value("chirp_mass_msun", required=True)
    nu0 = sec.value("nu0_hz", required=True)
    model = sec.value(
        "amplitude_model", str, default="constant", choices={"constant", "nu_two_thirds"}
    )
    return ChirpSource(
        chirp_mass=mc * SOLAR_MASS, h0=h0, nu0=2.0 * math.pi * nu0, amplitude_model=model,
        amplitude_ref=omega if model == "nu_two_thirds" else None,
    )


def _closed_forms(signal, omega, window):
    """The closed-form chi of the source that apply to its window, and
    {method: reason} for those that do not: stationary phase and the
    whole-crossing chirp form need the crossing s* inside the window."""
    if isinstance(signal, MonochromaticWave):
        return [chi_monochromatic(signal.h0, signal.nu, omega, window[1] - window[0])], {}
    if isinstance(signal, ChirpSource):
        try:
            crossing_in_window(signal, omega, window)
        except ChirpDomainError as exc:
            return [], {method: str(exc) for method in ("stationary_phase", "chirp_analytic")}
        return [chi_stationary_phase(signal, omega, window),
                chi_chirp_analytic(signal.h0, signal.k, omega)], {}
    return [], {}


def _optimal_detector(spec: DetectorSpec, signal, window):
    """The detector at the source's optimal mass, and the source's chi: the
    last closed form that applies, or the quadrature for a sampled strain.
    ConfigError unless chi > 0, or for a chirp whose resonance crossing
    lies outside the window."""
    omega = mode_frequency(spec)
    closed, omitted = _closed_forms(signal, omega, window)
    if omitted:
        reason = next(iter(omitted.values()))
        raise ConfigError(f"[source] {reason}: no optimal mass for this window")
    chi = closed[-1].value if closed else chi_quadrature(signal, omega, window).value
    if not chi > 0.0:
        raise ConfigError(f"[source] gives chi = {chi!r}: no finite optimal mass")
    mass = optimal_mass(spec.material, chi, omega)
    return dataclasses.replace(spec, mass=mass, geometry_mass_check=False), chi


def parse_config(
    path: str, materials_path: str | None = None, *, seed=None, n_traj=None
) -> RunConfig:
    """Parse and validate an INI run configuration.

    Unknown keys, missing required keys and type mismatches raise
    ConfigError naming the key and section. All applied defaults are
    recorded and end up in the run metadata. `seed` and `n_traj` other
    than None override [measurement]'s (`simulate --seed/--n-traj`), and
    are recorded and checked as the config's own values are.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")

    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(parser[name]) - _KEYS[name].keys()
        if unknown:
            raise ConfigError(
                f"unknown key(s) {sorted(unknown)} in section [{name}]"
            )

    resolved: dict = {"config_path": os.path.abspath(path)}
    extra_materials = load_materials(materials_path) if materials_path else None

    def section(name: str, **overrides) -> _Section:
        proxy = parser[name] if parser.has_section(name) else None
        return _Section(name, proxy, resolved, overrides)

    det = section("detector")
    if not parser.has_section("detector"):
        raise ConfigError("missing required section [detector]")

    if det.has("material"):
        material = get_material(det.value("material", str), extra_materials)
    elif det.has("density") and det.has("sound_speed"):
        material = Material(
            "custom",
            density=det.value("density", required=True),
            sound_speed=det.value("sound_speed", required=True),
        )
    else:
        raise ConfigError(
            "[detector] needs either material = <name> or inline "
            "density/sound_speed"
        )
    det.record("material_density", material.density)
    det.record("material_sound_speed", material.sound_speed)

    mode_index = det.value("mode_index", int, default=1)
    quality = det.value("quality", default=1e10)
    temperature = det.value("temperature", default=1e-3)
    radius = det.value("radius", required=True)

    if det.has("length") and det.has("frequency_hz"):
        raise ConfigError("[detector] length and frequency_hz are exclusive")
    if det.has("length"):
        length = det.value("length", required=True)
    elif det.has("frequency_hz"):
        freq = det.value("frequency_hz", required=True)
        length = det.record(
            "length", mode_index * math.pi * material.sound_speed / (2.0 * math.pi * freq)
        )
    else:
        raise ConfigError("[detector] needs length or frequency_hz")

    # mass = optimal builds the geometric bar first: its mode sets omega
    mass = det.value("mass", lambda raw: raw if raw == "optimal" else float(raw))
    spec = DetectorSpec(
        material=material, length=length, radius=radius,
        mass=None if mass == "optimal" else mass, mode_index=mode_index,
        quality=quality, temperature=temperature, geometry_mass_check=False,
    )
    omega = mode_frequency(spec)

    meas = section("measurement", seed=seed, n_traj=n_traj)
    t_meas = meas.value("t_meas", default=40.0)
    duration = meas.value("duration", default=t_meas)

    src = section("source")
    signal = None
    gw_start = 0.0
    window = None
    if parser.has_section("source"):
        signal = _build_signal(src, omega)
        gw_start = src.value("gw_start", default=0.0)
        w0 = src.value("window_start")
        w1 = src.value("window_end")
        if (w0 is None) != (w1 is None):
            raise ConfigError(
                "[source] window_start and window_end must be given together"
            )
        if w0 is None:
            w0, w1 = default_window(signal, omega, duration - gw_start)
            src.record("window_start", w0)
            src.record("window_end", w1)
        if not w1 > w0:
            raise ConfigError(
                f"[source] window_end = {w1!r} s must exceed "
                f"window_start = {w0!r} s"
            )
        window = (w0, w1)

    if mass == "optimal":
        if signal is None:
            raise ConfigError("[detector] mass = optimal requires a [source]")
        spec, _ = _optimal_detector(spec, signal, window)
        det.record("mass_resolution", "optimal")
    det.record("mass", spec.mass)

    out = section("output")
    thermal = meas.value("thermal", str, default="off", choices={"on", "off"})
    thermal_rate = gamma_thermal(spec) if thermal == "on" else 0.0
    meas.record("thermal_rate", thermal_rate)
    cfg = MeasurementConfig(
        dt=meas.value("dt", default=1e-3),
        t_m=meas.value("t_m", default=2.0),
        t_meas=t_meas,
        dim=meas.value("dim", int, default=30),
        kappa=meas.value("kappa", default=0.0),
        thermal_rate=thermal_rate,
        seed=meas.value("seed", int, default=0),
        record_stride=out.value("stride", int, default=3),
    )
    n_steps = int(round(duration / cfg.dt))
    if n_steps < 1:
        raise ConfigError(
            f"[measurement] duration = {duration!r} s must cover at least one step "
            f"of dt = {cfg.dt!r} s"
        )
    if cfg.record_stride > n_steps:
        raise ConfigError(
            f"[output] stride = {cfg.record_stride} exceeds the run's {n_steps} steps "
            "(duration / dt): nothing would be recorded"
        )
    n_traj = meas.value("n_traj", int, default=1)
    if n_traj < 1:
        raise ConfigError(f"[measurement] n_traj = {n_traj} must be >= 1")
    out_dir = out.value("directory", str, default="out")

    sens = section("sensitivity")
    f_min = sens.value("f_min_hz", default=50.0)
    f_max = sens.value("f_max_hz", default=2000.0)
    n_pts = sens.value("n_points", int, default=40)
    if n_pts < 1:
        raise ConfigError(f"[sensitivity] n_points = {n_pts} must be >= 1")
    if not f_min > 0.0:
        raise ConfigError(f"[sensitivity] f_min_hz = {f_min!r} Hz must be > 0")
    if not f_min < f_max:
        raise ConfigError(f"[sensitivity] f_max_hz = {f_max!r} Hz must exceed f_min_hz")
    grid = np.geomspace(f_min, f_max, n_pts)

    lat = section("lattice")
    n_values = lat.value(
        "n_values", lambda raw: tuple(int(v) for v in raw.split(",")),
        default=LATTICE_N_VALUES,
    )
    if any(n < 3 or n % 2 == 0 for n in n_values) or len(set(n_values)) < 2:
        raise ConfigError(
            f"[lattice] n_values = {lat.raw('n_values')!r} needs two or more distinct odd N >= 3"
        )

    resolved["constants"] = dataclasses.asdict(CONSTANTS)
    resolved["version"] = __version__
    return RunConfig(
        detector=spec,
        signal=signal,
        measurement=cfg,
        duration=duration,
        gw_start=gw_start,
        window=window,
        n_traj=n_traj,
        out_dir=out_dir,
        sensitivity_grid=grid,
        lattice_n_values=n_values,
        resolved=resolved,
    )


class _OutputSet:
    """Tracks the files a run writes, and the directories it makes for them,
    so failures can clean up."""

    def __init__(self, directory: str):
        self.directory = directory
        self.paths: list[str] = []
        self.made: list[str] = []  # deepest first
        path = os.path.abspath(directory)
        while not os.path.lexists(path):
            self.made.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self.discard_all()
            raise ConfigError(
                f"cannot make output directory {directory!r}: {exc.strerror}"
            ) from None

    def open(self, name: str):
        path = os.path.join(self.directory, name)
        self.paths.append(path)
        return open(path, "w", encoding="utf-8", newline="\n")

    def discard_all(self) -> None:
        for remove, paths in ((os.remove, self.paths), (os.rmdir, self.made)):
            for path in paths:
                try:
                    remove(path)
                except OSError:
                    pass


def _write_csv(outputs: _OutputSet, name: str, header: str, columns) -> None:
    """Write `header`, then the columns side by side: text as it is, numbers
    in shortest round-trip form. Rows are formatted and written `_CSV_ROWS`
    at a time, so no column is ever held whole as Python floats or strings."""
    columns = [np.asarray(col) for col in columns]
    n_rows = min(map(len, columns), default=0)
    with outputs.open(name) as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, _CSV_ROWS):
            block = [col[lo:lo + _CSV_ROWS] for col in columns]
            cells = [
                col.tolist() if col.dtype.kind == "U"
                else map(repr, col.astype(float).tolist())
                for col in block
            ]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _write_metadata(outputs: _OutputSet, run: RunConfig, command: str, **extra):
    payload = {
        "command": command,
        "resolved_config": run.resolved,
        "seed": run.measurement.seed,
        **extra,
    }
    with outputs.open("metadata.json") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_rates(run: RunConfig, outputs: _OutputSet) -> int:
    spec = run.detector
    omega = mode_frequency(spec)
    nbar = thermal_occupation(spec.temperature, omega)
    rows = [
        ("mode_frequency_hz", omega / (2 * math.pi)),
        ("gamma_spontaneous_hz", gamma_spontaneous(spec)),
        ("gamma_thermal_hz", gamma_thermal(spec)),
        ("thermal_occupation", nbar),
        ("fock_lifetime_s", fock_lifetime(spec)),
        ("characteristic_strain", characteristic_strain(spec)),
    ]
    h0 = getattr(run.signal, "h0", None)
    if h0 is not None:
        rows.insert(2, ("gamma_stimulated_hz", gamma_stimulated(spec, h0)))
    _write_csv(outputs, "rates.csv", "quantity,value", zip(*rows))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6g}")
    _write_metadata(outputs, run, "rates")
    return 0


def _chi_methods(run: RunConfig, omega: float):
    """chi of the source by the quadrature and each closed form that applies
    to its window, and {method: reason} for those that do not."""
    if run.signal is None:
        raise ConfigError("chi requires a [source] section")
    quadrature = chi_quadrature(run.signal, omega, run.window)
    closed, omitted = _closed_forms(run.signal, omega, run.window)
    return [quadrature, *closed], omitted


def cmd_chi(run: RunConfig, outputs: _OutputSet) -> int:
    spec = run.detector
    omega = mode_frequency(spec)
    pref = beta_prefactor(spec)
    rows = []
    results, omitted = _chi_methods(run, omega)
    for res in results:
        beta = pref * res.value
        probs = [excitation_probability(beta, n) for n in range(4)]
        rows.append((res.method, res.value, beta, *probs))
        print(f"{res.method:<28} chi = {res.value:.6g}  |beta| = {beta:.6g}")
    for method, reason in omitted.items():
        print(f"{method:<28} omitted: {reason}")
    _write_csv(outputs, "chi.csv", "method,chi,beta_mag,p0,p1,p2,p3", zip(*rows))
    hi, lo = max(row[1] for row in rows), min(row[1] for row in rows)
    extra = {"chi_methods_omitted": omitted} if omitted else {}
    quadrature = results[0]
    _write_metadata(
        outputs, run, "chi", chi_method_spread=(hi - lo) / hi if hi > 0.0 else 0.0,
        quadrature_nodes=quadrature.nodes,
        quadrature_error_estimate=quadrature.error_estimate, **extra
    )
    return 0


def cmd_optimal_mass(run: RunConfig, outputs: _OutputSet) -> int:
    if run.signal is None:
        raise ConfigError("optimal-mass requires a [source] section")
    tuned, chi = _optimal_detector(run.detector, run.signal, run.window)
    beta = beta_prefactor(tuned) * chi
    _write_csv(
        outputs, "optimal_mass.csv", "quantity,value",
        [("optimal_mass_kg", "chi", "beta_mag"), (tuned.mass, chi, beta)],
    )
    print(f"optimal mass = {tuned.mass:.6g} kg  (|beta| = {beta:.6g})")
    _write_metadata(outputs, run, "optimal-mass")
    return 0


def cmd_simulate(run: RunConfig, outputs: _OutputSet) -> int:
    cfg = run.measurement
    drive, events = _drive(
        run.detector, run.signal, cfg, run.duration, run.gw_start, run.window
    )
    # the largest |beta| the drive builds in a reinit period
    period = int(round(cfg.t_meas / cfg.dt))
    parts = np.split(drive, np.arange(period, drive.size, period))
    beta = max(np.abs(np.cumsum(part)).max() for part in parts)
    if problem := check_truncation(beta, cfg.dim):
        raise ConfigError(f"[measurement] dim is too small for the drive: {problem}")
    # the kappa kicks add mean |gamma|^2 = 2 gamma_sigma^2 a step, which the
    # number measurement does not undo: their sum over the longest period
    kicks = min(period, drive.size)
    if problem := check_truncation(math.sqrt(2.0 * kicks) * cfg.gamma_sigma, cfg.dim):
        raise ConfigError(f"[measurement] dim is too small for the kappa noise: {problem}")

    times = None  # every chunk records at the same times: formatted once, for every file

    def written_chunks():
        nonlocal times
        for lo, batch in _ensemble_chunks(
            cfg, drive, events, run.n_traj, cfg.seed, series=True
        ):
            if times is None:
                times = np.array(list(map(repr, batch.times.tolist())))
            for j in range(batch.readouts.shape[1]):
                rec = batch.record(j)
                _write_csv(
                    outputs, f"trajectory_{lo + j}.csv", "time,r,rho00,rho11,rho22",
                    [times, rec.readout, rec.rho00, rec.rho11, rec.rho22],
                )
            yield lo, batch

    summary = _summarize(written_chunks(), run.n_traj)
    _write_csv(
        outputs, "summary.csv", "time,mean_rho00,mean_rho11,mean_rho22",
        [times, summary.mean_rho00, summary.mean_rho11, summary.mean_rho22],
    )
    for k, jumps in enumerate(summary.jump_times):
        events = summary.events + [(t, "jump_detected") for t in jumps]
        _write_csv(outputs, f"events_{k}.csv", "time,kind", zip(*sorted(events)))
    print(f"{run.n_traj} trajectories, {summary.n_detected} detected jump(s) "
          f"(fraction {summary.detection_fraction:.3g})")
    _write_metadata(
        outputs, run, "simulate", n_traj=run.n_traj, n_detected=summary.n_detected,
        detection_fraction=summary.detection_fraction,
    )
    return 0


def cmd_sensitivity(run: RunConfig, outputs: _OutputSet, reference: str | None) -> int:
    curve = sensitivity_curve(run.detector, run.sensitivity_grid)
    _write_csv(outputs, "sensitivity.csv", "frequency_hz,h_c", curve.T)
    if reference is not None:
        table = np.loadtxt(reference, ndmin=2)
        if table.shape[1] < 2:
            raise ValueError(
                f"reference table {reference} needs two columns "
                "(frequency_hz, h_c)"
            )
        _write_csv(outputs, "reference.csv", "frequency_hz,h_c", table[:, :2].T)
    print(
        f"sensitivity curve with {len(curve)} points for "
        f"{run.detector.material.name}"
    )
    _write_metadata(outputs, run, "sensitivity")
    return 0


def cmd_lattice_verify(run: RunConfig | None, outputs: _OutputSet) -> int:
    n_values = run.lattice_n_values if run is not None else LATTICE_N_VALUES
    rows = [
        (name, measured, bound, "pass" if ok else "FAIL")
        for name, measured, bound, ok in continuum_checks(n_values)
    ]
    _write_csv(outputs, "lattice_verify.csv", "check,measured,bound,status", zip(*rows))
    for name, measured, bound, status in rows:
        print(f"{status:>4}  {name:<24} measured = {measured:.3e}  "
              f"bound = {bound:.3e}")
    if run is not None:
        _write_metadata(outputs, run, "lattice-verify")
    return 0 if all(status == "pass" for *_, status in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravibar",
        description="Bar-resonator single-graviton detection toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument(
            "--config", required=config_required,
            help="INI run configuration",
        )
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--materials", help="extra material table (INI)", default=None
        )

    common(sub.add_parser("rates", help="intrinsic detector rates"))
    common(sub.add_parser("chi", help="drive content by every applicable method"))
    common(sub.add_parser("optimal-mass", help="mass maximizing P(single quantum)"))
    sim = sub.add_parser("simulate", help="stochastic measurement trajectories")
    common(sim)
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--n-traj", type=int, help="override trajectory count")
    sens = sub.add_parser("sensitivity", help="characteristic strain curve")
    common(sens)
    sens.add_argument(
        "--reference", default=None,
        help="two-column reference table to re-emit alongside the curve",
    )
    lat = sub.add_parser("lattice-verify", help="chain-vs-continuum checks")
    common(lat, config_required=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = None
        if args.config is not None:
            run = parse_config(
                args.config, args.materials,
                seed=getattr(args, "seed", None), n_traj=getattr(args, "n_traj", None),
            )
        out_dir = args.out or (run.out_dir if run is not None else "out")
        outputs = _OutputSet(out_dir)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "rates":
            return cmd_rates(run, outputs)
        if args.command == "chi":
            return cmd_chi(run, outputs)
        if args.command == "optimal-mass":
            return cmd_optimal_mass(run, outputs)
        if args.command == "simulate":
            return cmd_simulate(run, outputs)
        if args.command == "sensitivity":
            return cmd_sensitivity(run, outputs, args.reference)
        if args.command == "lattice-verify":
            return cmd_lattice_verify(run, outputs)
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        outputs.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
