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
comment. Every run writes a metadata.json with the fully resolved
configuration, constants and seeds, sufficient to reproduce the outputs
byte for byte. All CSV floats use shortest round-trip formatting.

`simulate` runs its trajectories through `measurement.run_ensemble`'s chunk
stream and reduction, writing each trajectory's CSV from its chunk.

The integration window of a source (signal time) is resolved once, when
the config is parsed, and recorded as [source] window_start/window_end:
given keys win; otherwise `dynamics.default_window` applies, which is the
resonance-crossing window for a chirp, the file's support for a sampled
strain, and (0, duration - gw_start) for a monochromatic wave. Every
subcommand, `mass = optimal` included, uses that one window; an empty or
reversed window is a config error.
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
    default_window,
    excitation_probability,
    optimal_mass,
)
from .lattice import continuum_checks
from .measurement import MeasurementConfig, _ensemble_chunks, _summarize
from .sensitivity import characteristic_strain, sensitivity_curve
from .waveform import (
    ChirpSource,
    MonochromaticWave,
    StrainSignal,
    load_strain_series,
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration files."""


_SECTION_KEYS = {
    "detector": {
        "material", "density", "sound_speed", "length", "frequency_hz",
        "radius", "mass", "mode_index", "quality", "temperature",
    },
    "source": {
        "type", "h0", "frequency_hz", "chirp_mass_msun", "nu0_hz",
        "amplitude_model", "path", "gw_start", "window_start", "window_end",
    },
    "measurement": {
        "dt", "t_m", "t_meas", "dim", "kappa", "kappa_scaling", "thermal",
        "seed", "n_traj", "duration",
    },
    "output": {"directory", "stride"},
    "sensitivity": {"f_min_hz", "f_max_hz", "n_points"},
    "lattice": {"n_values"},
}

_UNITS = {
    "density": "kg/m^3", "sound_speed": "m/s", "length": "m",
    "frequency_hz": "Hz", "radius": "m", "mass": "kg", "quality": "1",
    "temperature": "K", "h0": "strain", "chirp_mass_msun": "solar masses",
    "nu0_hz": "Hz", "gw_start": "s", "window_start": "s", "window_end": "s",
    "dt": "s", "t_m": "s", "t_meas": "s", "kappa": "1", "duration": "s",
    "f_min_hz": "Hz", "f_max_hz": "Hz",
}


def _type_error(section: str, key: str, raw: str) -> ConfigError:
    unit = _UNITS.get(key)
    hint = f" (expected a number in {unit})" if unit else " (expected a number)"
    return ConfigError(f"[{section}] {key} = {raw!r} is not valid{hint}")


class _Section:
    """Validated view of one config section tracking resolved values."""

    def __init__(self, name: str, proxy, resolved: dict):
        self.name = name
        self.proxy = proxy
        self.resolved = resolved.setdefault(name, {})

    def has(self, key: str) -> bool:
        return self.proxy is not None and key in self.proxy

    def raw(self, key: str, default=None):
        if not self.has(key):
            return default
        return self.proxy[key].split("#", 1)[0].strip()

    def record(self, key: str, value):
        self.resolved[key] = value
        return value

    def floatv(self, key: str, default=None, required=False):
        raw = self.raw(key)
        if raw is None or raw == "":
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return self.record(key, default)
        try:
            return self.record(key, float(raw))
        except ValueError:
            raise _type_error(self.name, key, raw) from None

    def intv(self, key: str, default=None, required=False):
        raw = self.raw(key)
        if raw is None or raw == "":
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return self.record(key, default)
        try:
            return self.record(key, int(raw))
        except ValueError:
            raise _type_error(self.name, key, raw) from None

    def strv(self, key: str, default=None, required=False, choices=None):
        raw = self.raw(key)
        if raw is None or raw == "":
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return self.record(key, default)
        if choices is not None and raw not in choices:
            raise ConfigError(
                f"[{self.name}] {key} = {raw!r} must be one of {sorted(choices)}"
            )
        return self.record(key, raw)


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
    source_h0: float | None
    mass_resolved_optimal: bool
    sensitivity_grid: np.ndarray
    lattice_n_values: tuple[int, ...]
    resolved: dict


def _build_signal(sec: _Section, omega_hint: float | None):
    kind = sec.strv(
        "type", required=True, choices={"monochromatic", "chirp", "file"}
    )
    if kind == "monochromatic":
        h0 = sec.floatv("h0", required=True)
        freq = sec.floatv("frequency_hz", required=True)
        return MonochromaticWave(h0=h0, nu=2.0 * math.pi * freq)
    if kind == "chirp":
        h0 = sec.floatv("h0", required=True)
        mc = sec.floatv("chirp_mass_msun", required=True)
        nu0 = sec.floatv("nu0_hz", required=True)
        model = sec.strv(
            "amplitude_model", default="constant",
            choices={"constant", "nu_two_thirds"},
        )
        ref = omega_hint if model == "nu_two_thirds" else None
        return ChirpSource(
            chirp_mass=mc * SOLAR_MASS,
            h0=h0,
            nu0=2.0 * math.pi * nu0,
            amplitude_model=model,
            amplitude_ref=ref,
        )
    path = sec.strv("path", required=True)
    return load_strain_series(path)


def _signal_chi(signal, window, omega) -> float:
    """chi of a configured source at omega, for optimal-mass resolution."""
    if isinstance(signal, ChirpSource):
        return chi_chirp_analytic(signal.h0, signal.k, omega).value
    if isinstance(signal, MonochromaticWave):
        return chi_monochromatic(
            signal.h0, signal.nu, omega, window[1] - window[0]
        ).value
    return chi_quadrature(signal, omega, window).value


def parse_config(path: str, materials_path: str | None = None) -> RunConfig:
    """Parse and validate an INI run configuration.

    Unknown keys, missing required keys and type mismatches raise
    ConfigError naming the key and section. All applied defaults are
    recorded and end up in the run metadata.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")

    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(parser[name]) - _SECTION_KEYS[name]
        if unknown:
            raise ConfigError(
                f"unknown key(s) {sorted(unknown)} in section [{name}]"
            )

    resolved: dict = {"config_path": os.path.abspath(path)}
    extra_materials = load_materials(materials_path) if materials_path else None

    def section(name: str) -> _Section:
        proxy = parser[name] if parser.has_section(name) else None
        return _Section(name, proxy, resolved)

    det = section("detector")
    if not parser.has_section("detector"):
        raise ConfigError("missing required section [detector]")

    if det.has("material"):
        material = get_material(det.strv("material"), extra_materials)
    elif det.has("density") and det.has("sound_speed"):
        material = Material(
            "custom",
            density=det.floatv("density", required=True),
            sound_speed=det.floatv("sound_speed", required=True),
        )
    else:
        raise ConfigError(
            "[detector] needs either material = <name> or inline "
            "density/sound_speed"
        )
    det.record("material_density", material.density)
    det.record("material_sound_speed", material.sound_speed)

    mode_index = det.intv("mode_index", default=1)
    quality = det.floatv("quality", default=1e10)
    temperature = det.floatv("temperature", default=1e-3)
    radius = det.floatv("radius", required=True)

    if det.has("length") and det.has("frequency_hz"):
        raise ConfigError("[detector] length and frequency_hz are exclusive")
    if det.has("length"):
        length = det.floatv("length", required=True)
    elif det.has("frequency_hz"):
        freq = det.floatv("frequency_hz", required=True)
        length = mode_index * math.pi * material.sound_speed / (
            2.0 * math.pi * freq
        )
        det.record("length", length)
    else:
        raise ConfigError("[detector] needs length or frequency_hz")

    omega = mode_index * math.pi * material.sound_speed / length

    meas = section("measurement")
    t_meas = meas.floatv("t_meas", default=40.0)
    duration = meas.floatv("duration", default=t_meas)

    src = section("source")
    signal = None
    source_h0 = None
    gw_start = 0.0
    window = None
    if parser.has_section("source"):
        signal = _build_signal(src, omega)
        source_h0 = getattr(signal, "h0", None)
        gw_start = src.floatv("gw_start", default=0.0)
        w0 = src.floatv("window_start", default=None)
        w1 = src.floatv("window_end", default=None)
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

    mass_raw = det.raw("mass")
    mass_resolved_optimal = mass_raw == "optimal"
    mass = None  # from the geometry
    if mass_resolved_optimal:
        if signal is None:
            raise ConfigError("[detector] mass = optimal requires a [source]")
        mass = optimal_mass(material, _signal_chi(signal, window, omega), omega)
        det.record("mass_resolution", "optimal")
    elif mass_raw:
        try:
            mass = float(mass_raw)
        except ValueError:
            raise ConfigError(
                f"[detector] mass = {mass_raw!r} must be a number in kg "
                "or 'optimal'"
            ) from None
    spec = DetectorSpec(
        material=material, length=length, radius=radius, mass=mass,
        mode_index=mode_index, quality=quality, temperature=temperature,
        geometry_mass_check=False,
    )
    det.record("mass", spec.mass)

    out = section("output")
    thermal = meas.strv("thermal", default="off", choices={"on", "off"})
    thermal_rate = gamma_thermal(spec) if thermal == "on" else 0.0
    meas.record("thermal_rate", thermal_rate)
    cfg = MeasurementConfig(
        dt=meas.floatv("dt", default=1e-3),
        t_m=meas.floatv("t_m", default=2.0),
        t_meas=t_meas,
        dim=meas.intv("dim", default=30),
        kappa=meas.floatv("kappa", default=0.0),
        kappa_scaling=meas.strv(
            "kappa_scaling", default="literal", choices={"literal", "diffusive"}
        ),
        thermal_rate=thermal_rate,
        seed=meas.intv("seed", default=0),
        record_stride=out.intv("stride", default=3),
    )
    n_traj = meas.intv("n_traj", default=1)
    if n_traj < 1:
        raise ConfigError(f"[measurement] n_traj = {n_traj} must be >= 1")
    out_dir = out.strv("directory", default="out")

    sens = section("sensitivity")
    f_min = sens.floatv("f_min_hz", default=50.0)
    f_max = sens.floatv("f_max_hz", default=2000.0)
    n_pts = sens.intv("n_points", default=40)
    if f_max <= f_min:
        raise ConfigError("[sensitivity] f_max_hz must exceed f_min_hz")
    grid = np.geomspace(f_min, f_max, n_pts)

    lat = section("lattice")
    raw_ns = lat.strv("n_values", default="19,39,79,159")
    try:
        n_values = tuple(int(v) for v in raw_ns.split(","))
    except ValueError:
        raise _type_error("lattice", "n_values", raw_ns) from None
    if any(n < 3 or n % 2 == 0 for n in n_values) or len(set(n_values)) < 2:
        raise ConfigError(
            f"[lattice] n_values = {raw_ns!r} needs two or more distinct odd N >= 3"
        )
    lat.record("n_values", list(n_values))

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
        source_h0=source_h0,
        mass_resolved_optimal=mass_resolved_optimal,
        sensitivity_grid=grid,
        lattice_n_values=n_values,
        resolved=resolved,
    )


class _OutputSet:
    """Tracks files written by a run so failures can clean up."""

    def __init__(self, directory: str):
        self.directory = directory
        self.paths: list[str] = []
        os.makedirs(directory, exist_ok=True)

    def open(self, name: str):
        path = os.path.join(self.directory, name)
        self.paths.append(path)
        return open(path, "w", encoding="utf-8", newline="\n")

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                os.remove(path)
            except OSError:
                pass


def _write_csv(outputs: _OutputSet, name: str, header: str, rows) -> None:
    """Write `header`, then one line per row of strings and numbers."""
    with outputs.open(name) as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (v if isinstance(v, str) else repr(float(v)) for v in row)
            fh.write(",".join(cells) + "\n")


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
    if run.source_h0 is not None:
        rows.insert(2, ("gamma_stimulated_hz", gamma_stimulated(spec, run.source_h0)))
    _write_csv(outputs, "rates.csv", "quantity,value", rows)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6g}")
    _write_metadata(outputs, run, "rates")
    return 0


def _chi_methods(run: RunConfig, omega: float):
    signal = run.signal
    if signal is None:
        raise ConfigError("chi requires a [source] section")
    window = run.window
    results = [chi_quadrature(signal, omega, window)]
    if isinstance(signal, MonochromaticWave):
        results.append(
            chi_monochromatic(signal.h0, signal.nu, omega, window[1] - window[0])
        )
    if isinstance(signal, ChirpSource):
        results.append(chi_stationary_phase(signal, omega, window))
        results.append(chi_chirp_analytic(signal.h0, signal.k, omega))
    return results


def cmd_chi(run: RunConfig, outputs: _OutputSet) -> int:
    spec = run.detector
    omega = mode_frequency(spec)
    pref = beta_prefactor(spec, omega)
    rows = []
    for res in _chi_methods(run, omega):
        beta = pref * res.value
        probs = [excitation_probability(beta, n) for n in range(4)]
        rows.append((res.method, res.value, beta, *probs))
        print(f"{res.method:<28} chi = {res.value:.6g}  |beta| = {beta:.6g}")
    _write_csv(outputs, "chi.csv", "method,chi,beta_mag,p0,p1,p2,p3", rows)
    _write_metadata(outputs, run, "chi")
    return 0


def cmd_optimal_mass(run: RunConfig, outputs: _OutputSet) -> int:
    spec = run.detector
    omega = mode_frequency(spec)
    if run.signal is None:
        raise ConfigError("optimal-mass requires a [source] section")
    chi = _signal_chi(run.signal, run.window, omega)
    mass = optimal_mass(spec.material, chi, omega)
    tuned = dataclasses.replace(spec, mass=mass, geometry_mass_check=False)
    beta = beta_prefactor(tuned, omega) * chi
    _write_csv(
        outputs, "optimal_mass.csv", "quantity,value",
        [("optimal_mass_kg", mass), ("chi", chi), ("beta_mag", beta)],
    )
    print(f"optimal mass = {mass:.6g} kg  (|beta| = {beta:.6g})")
    _write_metadata(outputs, run, "optimal-mass")
    return 0


def cmd_simulate(run: RunConfig, outputs: _OutputSet) -> int:
    def written_chunks():
        for lo, batch in _ensemble_chunks(
            run.detector, run.signal, run.measurement, run.n_traj,
            run.measurement.seed, run.duration, run.gw_start, run.window,
        ):
            for j in range(batch.readouts.shape[1]):
                rec = batch.record(j)
                _write_csv(
                    outputs, f"trajectory_{lo + j}.csv", "time,r,rho00,rho11,rho22",
                    zip(rec.times, rec.readout, rec.rho00, rec.rho11, rec.rho22),
                )
            yield lo, batch

    summary = _summarize(written_chunks(), run.n_traj)
    _write_csv(
        outputs, "summary.csv", "time,mean_rho00,mean_rho11,mean_rho22",
        zip(summary.times, summary.mean_rho00, summary.mean_rho11, summary.mean_rho22),
    )
    for k, jumps in enumerate(summary.jump_times):
        events = summary.events + [(t, "jump_detected") for t in jumps]
        _write_csv(outputs, f"events_{k}.csv", "time,kind", sorted(events))
    print(f"{run.n_traj} trajectories, {summary.n_detected} detected jump(s) "
          f"(fraction {summary.detection_fraction:.3g})")
    _write_metadata(
        outputs, run, "simulate", n_traj=run.n_traj, n_detected=summary.n_detected,
        detection_fraction=summary.detection_fraction,
    )
    return 0


def cmd_sensitivity(run: RunConfig, outputs: _OutputSet, reference: str | None) -> int:
    points = sensitivity_curve(run.detector, run.sensitivity_grid)
    _write_csv(
        outputs, "sensitivity.csv", "frequency_hz,h_c",
        [(p.frequency, p.h_c) for p in points],
    )
    if reference is not None:
        table = np.loadtxt(reference, ndmin=2)
        if table.shape[1] < 2:
            raise ConfigError(
                f"reference table {reference} needs two columns "
                "(frequency_hz, h_c)"
            )
        _write_csv(outputs, "reference.csv", "frequency_hz,h_c", table[:, :2])
    print(
        f"sensitivity curve with {len(points)} points for "
        f"{run.detector.material.name}"
    )
    _write_metadata(outputs, run, "sensitivity")
    return 0


def cmd_lattice_verify(run: RunConfig | None, outputs: _OutputSet) -> int:
    n_values = run.lattice_n_values if run is not None else (19, 39, 79, 159)
    rows = [
        (name, measured, bound, "pass" if ok else "FAIL")
        for name, measured, bound, ok in continuum_checks(n_values)
    ]
    _write_csv(outputs, "lattice_verify.csv", "check,measured,bound,status", rows)
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
            run = parse_config(args.config, args.materials)
            if getattr(args, "seed", None) is not None:
                run.measurement = dataclasses.replace(
                    run.measurement, seed=args.seed
                )
                run.resolved["measurement"]["seed"] = args.seed
            if getattr(args, "n_traj", None) is not None:
                if args.n_traj < 1:
                    raise ConfigError(f"--n-traj {args.n_traj} must be >= 1")
                run.n_traj = args.n_traj
                run.resolved["measurement"]["n_traj"] = args.n_traj
        elif args.command != "lattice-verify":
            raise ConfigError("--config is required")
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
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
