"""The benchmark workloads: inputs made from a seed, one pass, output checks.

A workload is built once (the set-up) and then run pass after pass. A pass
is a fixed list of operations, each one ensemble or one CLI command; every
pass does the same work on the same inputs. After each pass the outputs are
checked, and every check is an operation of its own.

Each workload also lists corruptions of its outputs, each aimed at one
check; the self-test feeds them to the checks and requires the aimed-at
check to fail, so that no check passes vacuously.

Why these workloads:

- fig3-ensemble: the batched density-matrix kernel on pure, dim-30 states,
  with the chirp drive on for 40 % of the steps, plus a drive-off
  control of the same shape.
- qnd-mixed: the same kernel on small, mixed states with a record every
  step and no drive, so `DisplacementCache` does no work.
- cli-simulate: `gravibar simulate`, which runs one trajectory at a time,
  with the drive on every step, displacement noise and thermal jumps in
  per-trajectory loops, and CSV output.
- analytic: `gravibar chi`, `lattice-verify` and `sensitivity`, where
  quadrature and the chain integrator do the work and the measurement
  engine does none.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import shutil

import numpy as np

# Layer functions are called through their modules, so that the traced run
# sees the calls once the tracer has wrapped the module attributes.
from gravibar import cli, dynamics, lattice, measurement, waveform
from gravibar.detector import MATERIALS, DetectorSpec, Material, mode_frequency
from gravibar.fock import QuantumState
from gravibar.measurement import MeasurementConfig
from gravibar.waveform import ChirpSource

OMEGA_100 = 2 * math.pi * 100.0


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _cli(argv: list[str]) -> int:
    """Run one CLI command in-process, keeping its printout off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_rows(path: str) -> np.ndarray:
    """Numeric rows of a CSV file with one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _dir_usage(paths: list[str]) -> tuple[int, int]:
    files = size = 0
    for path in paths:
        for entry in os.scandir(path):
            if entry.is_file():
                files += 1
                size += entry.stat().st_size
    return files, size


def _copy_dir(src: str, dst: str) -> str:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path: str, edit) -> None:
    """Rewrite a CSV after `edit(rows)` changes its list of data rows."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")


class Workload:
    """Defaults for what a workload does not have: health counts, CLI
    output, a drive."""

    active_step_frac = 0.0

    def health(self, res) -> dict[str, float]:
        return {}

    def written(self) -> tuple[int, int]:
        """Files and bytes the CLI wrote in one pass."""
        return 0, 0


# -- fig3-ensemble ---------------------------------------------------------

def check_detection(summary, p: float, n_traj: int):
    """Detection fraction within 3 binomial sigma of |beta|^2."""
    sigma = math.sqrt(p * (1.0 - p) / n_traj)
    got = summary.detection_fraction
    return abs(got - p) <= 3.0 * sigma, f"fraction {got:.4f}, p {p:.4f}, 3 sigma {3 * sigma:.4f}"


def check_occupation(summary, p: float, n_traj: int):
    """Mean occupation at the end within 3 sigma of |beta|^2.

    sigma = sqrt(|beta|^2 / n) is the Poisson bound; the number-basis
    measurement leaves the ensemble-mean occupation unchanged after the
    drive, so this holds long before trajectories purify.
    """
    pops = summary.mean_populations[-1]
    mean_n = float(pops @ np.arange(pops.size))
    sigma = math.sqrt(p / n_traj)
    return abs(mean_n - p) <= 3.0 * sigma, f"<n> {mean_n:.4f}, p {p:.4f}, 3 sigma {3 * sigma:.4f}"


def check_quiet(summary):
    """Without drive or noise the ground state stays exactly stationary."""
    dev = float(np.abs(summary.mean_rho00 - 1.0).max())
    return dev < 1e-10, f"max |mean_rho00 - 1| = {dev:.3e}"


class Fig3Ensemble(Workload):
    """Criterion 8's Fig.-3 set-up, at 16 trajectories of 10 s.

    21.73 kg beryllium bar at 100 Hz, NS-merger chirp scaled so that
    |beta|^2 = 0.05, 4 s crossing window entering at run time 2 s, dim 30,
    ground-state starts and the default chunk of 64. The drive-off control
    has the same config and trajectory count, over 4 s.
    """

    name = "fig3-ensemble"
    n_traj = 16
    duration = 10.0
    quiet_duration = 4.0
    target_p = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed_driven, self.seed_quiet = _seeds(seed, 2)
        spec, chirp, window, gw_start, cfg = self._inputs(2e-22, seed)
        beta_full = dynamics.displacement_beta(spec, chirp, window)
        h0 = 2e-22 * math.sqrt(self.target_p) / beta_full.magnitude
        self.spec, self.chirp, self.window, self.gw_start, self.cfg = self._inputs(h0, seed)
        self.p = dynamics.displacement_beta(self.spec, self.chirp, self.window).magnitude ** 2
        self.traj_steps = self.n_traj * int(round(
            (self.duration + self.quiet_duration) / self.cfg.dt))
        self.active_step_frac = (self.window[1] - self.window[0]) / self.duration

    @staticmethod
    def _inputs(h0: float, seed: int):
        spec = DetectorSpec.from_frequency(
            MATERIALS["beryllium"], OMEGA_100, mass=21.73,
            quality=1e10, temperature=1e-3,
        )
        chirp = ChirpSource.from_solar_masses(1.19, h0=h0, nu0=2 * math.pi * 30.0)
        s_star = waveform.resonance_time(chirp.nu0, chirp.k, OMEGA_100)
        window = (s_star - 2.0, s_star + 2.0)
        gw_start = 2.0 - window[0]
        cfg = MeasurementConfig(
            dt=1e-3, t_m=2.0, t_meas=40.0, dim=30, seed=seed, record_stride=3
        )
        return spec, chirp, window, gw_start, cfg

    def operations(self):
        def driven():
            return measurement.run_ensemble(
                self.spec, self.chirp, self.cfg, self.n_traj, self.seed_driven,
                duration=self.duration, gw_start=self.gw_start, window=self.window,
            )

        def quiet():
            return measurement.run_ensemble(
                self.spec, None, self.cfg, self.n_traj, self.seed_quiet,
                duration=self.quiet_duration,
            )

        return [("driven_ensemble", driven), ("quiet_ensemble", quiet)]

    def checks(self, res):
        return [
            ("detection_fraction", lambda: check_detection(res["driven_ensemble"], self.p, self.n_traj)),
            ("mean_occupation", lambda: check_occupation(res["driven_ensemble"], self.p, self.n_traj)),
            ("quiet_ground_state", lambda: check_quiet(res["quiet_ensemble"])),
        ]

    def corruptions(self, res):
        driven, quiet = res["driven_ensemble"], res["quiet_ensemble"]
        yield "detection_fraction", ({
            **res, "driven_ensemble": dataclasses.replace(driven, detection_fraction=1.0)},)
        pops = driven.mean_populations.copy()
        pops[-1, :2] += (-0.5, 0.5)
        yield "mean_occupation", ({
            **res, "driven_ensemble": dataclasses.replace(driven, mean_populations=pops)},)
        yield "quiet_ground_state", ({
            **res, "quiet_ensemble": dataclasses.replace(
                quiet, mean_rho00=quiet.mean_rho00 - 1e-8)},)

    def health(self, res):
        return {"measurement.detection_frac": res["driven_ensemble"].detection_fraction}


# -- qnd-mixed -------------------------------------------------------------

def check_martingale(summary, p0: np.ndarray, n_traj: int):
    """Mean populations at the horizon equal the initial ones to 3 sigma."""
    final = summary.mean_populations[-1]
    sigma = np.sqrt(p0 * (1.0 - p0) / n_traj)
    ratio = float(np.max(np.abs(final - p0) / sigma))
    return bool(np.all(np.isfinite(final))) and ratio <= 3.0, f"max drift {ratio:.2f} sigma"


class QndMixed(Workload):
    """Criterion 9's measurement-only ensemble, at one chunk over 10 t_m.

    Niobium bar at 100 Hz, dim 10, dt 2 ms, t_m 2 s, record every step,
    64 mixed starts with Dirichlet-distributed diagonals, no drive or noise.
    """

    name = "qnd-mixed"
    n_traj = 64
    horizon_tm = 10.0

    def __init__(self, seed: int, workdir: str):
        seed_states, self.seed_run = _seeds(seed, 2)
        self.spec = DetectorSpec.from_frequency(MATERIALS["niobium"], OMEGA_100, radius=0.5)
        self.cfg = MeasurementConfig(
            dt=2e-3, t_m=2.0, t_meas=1e4, dim=10, seed=seed, record_stride=1
        )
        rng = np.random.default_rng(seed_states)
        self.initials = [
            QuantumState.from_diagonal(rng.dirichlet(np.ones(self.cfg.dim)))
            for _ in range(self.n_traj)
        ]
        self.p0 = np.mean([s.populations() for s in self.initials], axis=0)
        self.duration = self.horizon_tm * self.cfg.t_m
        self.traj_steps = self.n_traj * int(round(self.duration / self.cfg.dt))

    def operations(self):
        def ensemble():
            return measurement.run_ensemble(
                self.spec, None, self.cfg, self.n_traj, self.seed_run,
                duration=self.duration, initial_states=self.initials,
                purity_threshold=0.99,
            )

        return [("qnd_ensemble", ensemble)]

    def checks(self, res):
        return [("population_martingale",
                 lambda: check_martingale(res["qnd_ensemble"], self.p0, self.n_traj))]

    def corruptions(self, res):
        summary = res["qnd_ensemble"]
        pops = summary.mean_populations.copy()
        pops[-1, 0] += 10.0 * math.sqrt(self.p0[0] * (1.0 - self.p0[0]) / self.n_traj)
        yield "population_martingale", ({
            "qnd_ensemble": dataclasses.replace(summary, mean_populations=pops)},)

    def health(self, res):
        crossing = res["qnd_ensemble"].purity_first_crossing
        return {"measurement.purified_frac": float(np.isfinite(crossing).mean())}


# -- cli-simulate ----------------------------------------------------------

SIMULATE_INI = """\
# Fig.-3 bar with a resonant monochromatic drive (|beta| ~ 0.5 per 2.5 s),
# displacement noise and thermal jumps (~0.4 Hz at Q = 3e8, T = 1 mK).
[detector]
material = beryllium
frequency_hz = 100
mass = 21.73
radius = 0.0077
quality = 3e8
temperature = 1e-3

[source]
type = monochromatic
h0 = 9e-24
frequency_hz = 100

[measurement]
dt = 1e-3
t_m = 0.5
t_meas = 2.5
dim = 12
kappa = 3e-4
thermal = on
seed = {seed}
n_traj = {n_traj}
duration = 3.0

[output]
stride = 3
"""


def check_simulate(out_dir: str, code: int, n_traj: int, n_rec: int):
    """Checks of one `gravibar simulate` output directory, by name."""
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    expected = sorted(
        ["metadata.json", "summary.csv"]
        + [f"trajectory_{k}.csv" for k in range(n_traj)]
        + [f"events_{k}.csv" for k in range(n_traj)]
    )
    tables = {}

    def table(name):
        if name not in tables:
            tables[name] = _read_rows(os.path.join(out_dir, name))
        return tables[name]

    def rows():
        counts = [table(f"trajectory_{k}.csv").shape for k in range(n_traj)]
        counts.append(table("summary.csv").shape)
        bad = [c for c in counts if c[0] != n_rec]
        return not bad, f"{len(bad)} file(s) without {n_rec} rows"

    def populations():
        worst_range = worst_sum = 0.0
        for k in range(n_traj):
            pops = table(f"trajectory_{k}.csv")[:, 2:5]
            worst_range = max(worst_range, float(np.max(pops - 1.0)), float(np.max(-pops)))
            worst_sum = max(worst_sum, float(np.max(pops.sum(axis=1) - 1.0)))
        ok = worst_range <= 0.0 and worst_sum <= 1e-9
        return ok, f"range excess {worst_range:.3e}, sum excess {worst_sum:.3e}"

    def summary_mean():
        mean = np.mean([table(f"trajectory_{k}.csv")[:, 2:5] for k in range(n_traj)], axis=0)
        summ = table("summary.csv")
        dev = float(np.max(np.abs(summ[:, 1:4] - mean)))
        same_t = np.array_equal(summ[:, 0], table("trajectory_0.csv")[:, 0])
        return same_t and dev <= 1e-12, f"max |summary - mean| = {dev:.3e}"

    return [
        ("exit_code", lambda: (code == 0, f"exit code {code}")),
        ("file_set", lambda: (names == expected, f"{len(names)} files")),
        ("row_counts", rows),
        ("populations", populations),
        ("summary_mean", summary_mean),
    ]


class CliSimulate(Workload):
    """`gravibar simulate` at dim 12: 4 trajectories of 3000 steps each."""

    name = "cli-simulate"
    n_traj = 4

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.config = os.path.join(workdir, "simulate.ini")
        self.out_dir = os.path.join(workdir, "simulate_out")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(SIMULATE_INI.format(seed=seed, n_traj=self.n_traj))
        n_steps = 3000
        self.n_rec = n_steps // 3
        self.traj_steps = self.n_traj * n_steps
        self.active_step_frac = 1.0

    def operations(self):
        return [("simulate", lambda: _cli(["simulate", "--config", self.config,
                                             "--out", self.out_dir]))]

    def checks(self, res, out_dir=None):
        return check_simulate(out_dir or self.out_dir, res["simulate"], self.n_traj, self.n_rec)

    def corruptions(self, res):
        root = os.path.join(self.workdir, "selftest")
        cases = {
            "exit_code": None,
            "file_set": lambda d: os.remove(os.path.join(d, "events_1.csv")),
            "row_counts": lambda d: _edit_csv(os.path.join(d, "trajectory_0.csv"),
                                              lambda rows: rows.pop()),
            "populations": lambda d: _edit_csv(os.path.join(d, "trajectory_1.csv"),
                                               lambda rows: rows[5].__setitem__(3, "1.5")),
            "summary_mean": lambda d: _edit_csv(
                os.path.join(d, "summary.csv"),
                lambda rows: rows[7].__setitem__(2, repr(float(rows[7][2]) + 1e-9))),
        }
        for target, corrupt in cases.items():
            if corrupt is None:
                yield target, ({**res, "simulate": 1}, self.out_dir)
                continue
            out = _copy_dir(self.out_dir, os.path.join(root, target))
            corrupt(out)
            yield target, (res, out)

    def written(self):
        return _dir_usage([self.out_dir])


# -- analytic --------------------------------------------------------------

CHI_INI = """\
# NS-merger chirp over the whole inspiral, 0 to 0.999 t_c.
[detector]
material = beryllium
frequency_hz = {freq!r}
radius = 0.5

[source]
type = chirp
h0 = 2e-22
chirp_mass_msun = 1.19
nu0_hz = 30
window_start = 0
window_end = {window_end!r}
"""

SENSITIVITY_INI = """\
[detector]
material = beryllium
frequency_hz = 100
radius = 0.5

[sensitivity]
f_min_hz = {f_min!r}
f_max_hz = 5000
n_points = {n_points}
"""


def check_chi_agreement(path: str):
    """Quadrature chi within 10 % of the stationary-phase estimate."""
    with open(path, encoding="utf-8") as fh:
        chi = {row["method"]: float(row["chi"]) for row in csv.DictReader(fh)}
    quad, sp = chi["quadrature"], chi["stationary_phase"]
    rel = abs(quad - sp) / sp
    return rel <= 0.10, f"|quad - sp| / sp = {rel:.4f}"


def check_rows(path: str, n_rows: int):
    with open(path, encoding="utf-8") as fh:
        got = sum(1 for _ in fh) - 1
    return got == n_rows, f"{got} rows, expected {n_rows}"


class Analytic(Workload):
    """`gravibar chi` at three detector frequencies, `lattice-verify` and a
    dense `gravibar sensitivity` grid."""

    name = "analytic"
    n_chi = 3
    n_points = 20000

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        rng = np.random.default_rng(_seeds(seed, 1)[0])
        freqs = np.sort(rng.uniform(60.0, 250.0, self.n_chi))
        t_c = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0).coalescence
        self.chi = []
        for i, freq in enumerate(freqs):
            config = os.path.join(workdir, f"chi_{i}.ini")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(CHI_INI.format(freq=float(freq), window_end=0.999 * t_c))
            self.chi.append((f"chi_{i}", config, os.path.join(workdir, f"chi_{i}_out")))
        self.sens_config = os.path.join(workdir, "sensitivity.ini")
        with open(self.sens_config, "w", encoding="utf-8") as fh:
            fh.write(SENSITIVITY_INI.format(f_min=float(rng.uniform(10.0, 11.0)),
                                            n_points=self.n_points))
        self.sens_out = os.path.join(workdir, "sensitivity_out")
        self.lattice_out = os.path.join(workdir, "lattice_out")
        # The only trajectory here is the atom chain that lattice-verify
        # integrates: 40 periods of the N = 199 reference chain.
        reference = DetectorSpec.from_frequency(
            Material("reference", density=1000.0, sound_speed=10.0), 2 * math.pi, radius=0.1)
        chain = lattice.ChainSpec.from_detector(reference, 199)
        t_end = 40 * 2 * math.pi / mode_frequency(reference)
        self.traj_steps = math.ceil(t_end / lattice.max_stable_timestep(chain))

    def operations(self):
        ops = [(name, lambda c=config, o=out: _cli(["chi", "--config", c, "--out", o]))
               for name, config, out in self.chi]
        ops.append(("lattice_verify", lambda: _cli(["lattice-verify", "--out", self.lattice_out])))
        ops.append(("sensitivity", lambda: _cli(["sensitivity", "--config", self.sens_config,
                                                 "--out", self.sens_out])))
        return ops

    def checks(self, res, dirs=None):
        dirs = dirs or {}
        out = []
        for name, _, chi_out in self.chi:
            d = dirs.get(name, chi_out)
            out.append((f"{name}_exit", lambda n=name: (res[n] == 0, f"exit code {res[n]}")))
            out.append((f"{name}_agreement",
                        lambda d=d: check_chi_agreement(os.path.join(d, "chi.csv"))))
        out.append(("lattice_verify_exit",
                    lambda: (res["lattice_verify"] == 0, f"exit code {res['lattice_verify']}")))
        out.append(("sensitivity_exit",
                    lambda: (res["sensitivity"] == 0, f"exit code {res['sensitivity']}")))
        d = dirs.get("sensitivity", self.sens_out)
        out.append(("sensitivity_rows",
                    lambda: check_rows(os.path.join(d, "sensitivity.csv"), self.n_points)))
        return out

    def corruptions(self, res):
        root = os.path.join(self.workdir, "selftest")
        for name, _, chi_out in self.chi:
            d = _copy_dir(chi_out, os.path.join(root, name))
            _edit_csv(os.path.join(d, "chi.csv"),
                      lambda rows: [r.__setitem__(1, repr(1.5 * float(r[1])))
                                    for r in rows if r[0] == "quadrature"])
            yield f"{name}_agreement", (res, {name: d})
            yield f"{name}_exit", ({**res, name: 1}, {})
        yield "lattice_verify_exit", ({**res, "lattice_verify": 1}, {})
        yield "sensitivity_exit", ({**res, "sensitivity": 1}, {})
        d = _copy_dir(self.sens_out, os.path.join(root, "sensitivity"))
        _edit_csv(os.path.join(d, "sensitivity.csv"), lambda rows: rows.pop())
        yield "sensitivity_rows", (res, {"sensitivity": d})

    def written(self):
        return _dir_usage([out for _, _, out in self.chi] + [self.sens_out, self.lattice_out])


WORKLOADS = {w.name: w for w in (Fig3Ensemble, QndMixed, CliSimulate, Analytic)}
