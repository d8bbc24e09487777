"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a PASS/FAIL line (visible with pytest -s; captured output
is shown on failure). The heavy statistical criteria (8, 9) run in a few
minutes; the whole module stays within the stated runtime budgets.
"""

import math
import os
import time
from contextlib import contextmanager

import diagonal_oracle
import numpy as np
import pytest
from fock_oracle import coherent_state

from gravibar.cli import main as cli_main
from gravibar.constants import SOLAR_MASS
from gravibar.detector import (
    DetectorSpec,
    MATERIALS,
    Material,
    gamma_spontaneous,
    gamma_stimulated,
    mode_frequency,
)
from gravibar.dynamics import (
    chi_chirp_analytic,
    chi_monochromatic,
    chi_quadrature,
    chi_stationary_phase,
    displacement_beta,
    excitation_probability,
    optimal_mass_chirp,
)
from gravibar.fock import QuantumState
from gravibar.lattice import continuum_checks
from gravibar.measurement import MeasurementConfig, run_ensemble, step
from gravibar.sensitivity import (
    classical_timedelay,
    golden_rule_stimulated,
    graviton_number,
)
from gravibar.waveform import (
    ChirpSource,
    MonochromaticWave,
    chirp_window,
    resonance_time,
)

OMEGA_100 = 2 * math.pi * 100.0
QND_PURITY = 0.99


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2}: FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:>2}: PASS  {desc}")


def test_criterion_1_spontaneous_rate():
    with criterion(1, "niobium spontaneous rate within factor 2 of 1e-33 Hz"):
        spec = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)
        rate = gamma_spontaneous(spec)
        assert 0.5e-33 <= rate <= 2.0e-33


def test_criterion_2_stimulated_rate():
    with criterion(2, "1800 kg aluminum bar at h0=5e-22 gives 1 Hz +-30%"):
        spec = DetectorSpec(
            MATERIALS["aluminum"], length=3.0, radius=0.3, mass=1800.0,
            geometry_mass_check=False,
        )
        rate = gamma_stimulated(spec, 5e-22)
        assert abs(rate - 1.0) <= 0.3


def test_criterion_3_graviton_count():
    with criterion(3, "graviton count at h0=1e-21, f=150 Hz is 4e36 +-10%"):
        count = graviton_number(1e-21, 2 * math.pi * 150.0)
        assert abs(count - 4e36) <= 0.1 * 4e36


def test_criterion_4_optimal_mass():
    with criterion(4, "beryllium optimal mass for the NS-merger chirp in [10, 20] kg"):
        mass = optimal_mass_chirp(
            MATERIALS["beryllium"], 2e-22, 1.19 * SOLAR_MASS, OMEGA_100
        )
        assert 10.0 <= mass <= 20.0


def test_criterion_5_rate_identity():
    with criterion(5, "graviton-count route equals the classical stimulated rate (1e-9, 100 specs)"):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            material = Material(
                "random",
                density=float(rng.uniform(100.0, 2e4)),
                sound_speed=float(rng.uniform(200.0, 2e4)),
            )
            spec = DetectorSpec(
                material=material,
                length=float(rng.uniform(0.05, 30.0)),
                radius=float(rng.uniform(0.01, 2.0)),
                mode_index=int(rng.choice([1, 3, 5, 7])),
            )
            h0 = float(rng.uniform(1e-24, 1e-19))
            omega = mode_frequency(spec)
            via_count = golden_rule_stimulated(spec, graviton_number(h0, omega))
            direct = gamma_stimulated(spec, h0)
            assert abs(via_count - direct) <= 1e-9 * direct


def test_criterion_6_poisson_optimum():
    with criterion(6, "P(n=1 | beta=1) = 1/e to 1e-12; coherent rho11 = 1/e +-1e-6 at dim 30"):
        assert abs(excitation_probability(1.0, 1) - 1.0 / math.e) <= 1e-12
        pops = coherent_state(1.0, 30).populations()
        assert abs(pops[1] - 1.0 / math.e) <= 1e-6


def test_criterion_7_chi_method_agreement():
    with criterion(7, "chi methods agree: quad/SP 10%, quad/analytic 15%, SP/analytic 25%; mono sinc 2%"):
        chirp = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0)
        window = chirp_window(chirp, OMEGA_100)
        quad = chi_quadrature(chirp, OMEGA_100, window).value
        sp = chi_stationary_phase(chirp, OMEGA_100).value
        analytic = chi_chirp_analytic(chirp.h0, chirp.k, OMEGA_100).value
        assert abs(quad - sp) <= 0.10 * quad
        assert abs(quad - analytic) <= 0.15 * quad
        assert abs(sp - analytic) <= 0.25 * sp

        nu = 1.0
        t = 503.7 * 2 * math.pi / nu  # nu*t > 500 cycles-equivalent
        wave = MonochromaticWave(h0=1.0, nu=nu)
        quad_mono = chi_quadrature(wave, nu, (0.0, t)).value
        closed = chi_monochromatic(1.0, nu, nu, t).value
        assert abs(quad_mono - closed) <= 0.02 * closed


def _fig3_setup(h0: float):
    """Fig.-3 style run: 21.73 kg bar at 100 Hz, NS-merger chirp, 4 s of
    wave entering at run time 2 s, one reinitialization at 40 s."""
    spec = DetectorSpec.from_frequency(
        MATERIALS["beryllium"], OMEGA_100, mass=21.73,
        quality=1e10, temperature=1e-3,
    )
    chirp = ChirpSource.from_solar_masses(1.19, h0=h0, nu0=2 * math.pi * 30.0)
    s_star = resonance_time(chirp.nu0, chirp.k, OMEGA_100)
    window = (s_star - 2.0, s_star + 2.0)
    gw_start = 2.0 - window[0]
    cfg = MeasurementConfig(
        dt=1e-3, t_m=2.0, t_meas=40.0, dim=30, seed=20817, record_stride=3
    )
    return spec, chirp, window, gw_start, cfg


def test_criterion_8_measurement_engine_statistics():
    with criterion(8, "500 Fig.-3 style trajectories in <10 min; jump fraction = |beta|^2 +-3 sigma; QND floor"):
        # drive scaled so |beta|^2 is a Bernoulli probability well below 1
        spec, chirp_full, window, gw_start, cfg = _fig3_setup(2e-22)
        beta_full = displacement_beta(spec, chirp_full, window)
        target_p = 0.05
        h0 = 2e-22 * math.sqrt(target_p) / beta_full.magnitude
        spec, chirp, window, gw_start, cfg = _fig3_setup(h0)
        p = displacement_beta(spec, chirp, window).magnitude ** 2
        assert abs(p - target_p) < 1e-6

        n_traj = 500
        t0 = time.time()
        summary = run_ensemble(
            spec, chirp, cfg, n_traj=n_traj, duration=42.0,
            gw_start=gw_start, window=window,
        )
        elapsed = time.time() - t0
        assert elapsed < 600.0, f"500 trajectories took {elapsed:.0f} s"

        band = 3.0 * math.sqrt(p * (1.0 - p) / n_traj)
        assert abs(summary.detection_fraction - p) <= band, (
            f"fraction {summary.detection_fraction:.4f} vs p {p:.4f} "
            f"(band {band:.4f})"
        )

        # the literal 2e-22 drive produces an O(1) displacement and visibly
        # excited trajectories
        spec_f, chirp_f, window_f, gw_start_f, cfg_f = _fig3_setup(2e-22)
        small = run_ensemble(
            spec_f, chirp_f, cfg_f, n_traj=10, duration=12.0,
            gw_start=gw_start_f, window=window_f,
        )
        post = small.times > 6.0
        assert small.mean_rho11[post].max() > 0.05

        # zero drive, zero noise: the ground state is exactly stationary
        quiet = run_ensemble(spec, None, cfg, n_traj=100, duration=10.0)
        assert np.abs(quiet.mean_rho00 - 1.0).max() < 1e-10

        # per-step normalized trace stays at 1 to rounding
        state = QuantumState.ground(cfg.dim)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(500):
            state, _ = step(state, cfg, 1e-3 + 1e-3j, rng)
            worst = max(worst, abs(state.trace() - 1.0))
        assert worst < 1e-9


def _random_diagonal_states(n: int, dim: int, seed: int) -> list[QuantumState]:
    """Random mixed diagonal states, uniform on the probability simplex
    (populations of dephased Haar-random pure states)."""
    rng = np.random.default_rng(seed)
    return [
        QuantumState.from_diagonal(rng.dirichlet(np.ones(dim)))
        for _ in range(n)
    ]


def _qnd_ensemble():
    spec = DetectorSpec.from_frequency(
        MATERIALS["niobium"], OMEGA_100, radius=0.5
    )
    # record every step so purity first-passages are not missed
    cfg = MeasurementConfig(
        dt=2e-3, t_m=2.0, t_meas=1e4, dim=10, seed=4242, record_stride=1
    )
    n_traj = 1000
    initials = _random_diagonal_states(n_traj, cfg.dim, seed=777)
    summary = run_ensemble(
        spec, None, cfg, n_traj=n_traj, duration=20.0 * cfg.t_m,
        initial_states=initials, purity_threshold=QND_PURITY,
    )
    starts = np.array([s.populations() for s in initials])
    return summary, cfg, starts


@pytest.fixture(scope="module")
def qnd_ensemble():
    return _qnd_ensemble()


def test_criterion_9_qnd_martingale(qnd_ensemble):
    with criterion(9, "measurement-only ensemble conserves mean populations (3 sigma CLT)"):
        summary, _, starts = qnd_ensemble
        p0, n_traj = starts.mean(axis=0), len(starts)
        final = summary.mean_populations[-1]
        # post-purification populations are near-Bernoulli, so the CLT
        # scale of each mean is sqrt(p(1-p)/n)
        sigma = np.sqrt(p0 * (1.0 - p0) / n_traj)
        assert np.all(np.abs(final - p0) <= 3.0 * sigma), (
            f"max drift ratio {np.max(np.abs(final - p0) / sigma):.2f} sigma"
        )


def test_criterion_9_purification_time(qnd_ensemble):
    """The fraction of trajectories whose largest population reaches 0.99
    by 20*t_m matches the exact diagonal oracle.

    Diagonal starts stay diagonal under number-basis measurement, and their
    populations follow Bayes' rule on the integrated readout, so
    `diagonal_oracle.simulate` runs the same ensemble exactly: same starts,
    dt, t_m, threshold and horizon, 4 oracle runs per start, readouts drawn
    from the exact POVM rather than the engine's mean-field <n> + sigma*xi.
    With the `MeasurementConfig.t_m` convention the log-likelihood ratio
    between adjacent levels grows as t/(2*t_m); the oracle purifies ~0.92
    of the runs by 20*t_m and 95% only at ~22*t_m. The engine must agree
    two-sidedly within 3 combined binomial sigma (~0.03), which an engine
    whose information rate is off by 1.25x (~0.97) or 0.8x (~0.83) fails.
    """
    with criterion(9, "measurement-only purified fraction at 20*t_m matches the exact diagonal oracle (3 sigma)"):
        summary, cfg, starts = qnd_ensemble
        n_steps = int(round(summary.times[-1] / cfg.dt))
        _, first = diagonal_oracle.simulate(
            np.tile(starts, (4, 1)), cfg.dt, cfg.t_m, n_steps, QND_PURITY,
            np.random.default_rng(1),
        )
        engine = np.isfinite(summary.purity_first_crossing)
        oracle = np.isfinite(first)
        pooled = (engine.sum() + oracle.sum()) / (engine.size + oracle.size)
        sigma = math.sqrt(
            pooled * (1.0 - pooled) * (1.0 / engine.size + 1.0 / oracle.size)
        )
        gap = engine.mean() - oracle.mean()
        assert abs(gap) <= 3.0 * sigma, (
            f"purified fraction {engine.mean():.3f} (engine) vs "
            f"{oracle.mean():.3f} (oracle): gap {gap / sigma:+.2f} sigma"
        )


def test_criterion_10_lattice_oracle():
    with criterion(10, "chain dispersion/coupling/mass converge (order >= 1/N); driven beta within 5%"):
        # bounds are the criterion's own; the rows' pass flags are not used
        measured = {
            name: value for name, value, _, _ in continuum_checks((19, 39, 79, 159))
        }
        assert measured["effective_mass_error"] < 1e-10
        assert measured["completeness_residual"] < 1e-10
        assert measured["dispersion_order"] >= 1.0
        assert measured["coupling_order"] >= 1.0
        assert measured["driven_beta_error"] <= 0.05


def test_criterion_11_classical_timedelay():
    with criterion(11, "classical energy-delay timescale within factor 3 of 1e-26 s"):
        spec = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)
        tau = classical_timedelay(spec, 2e-22, OMEGA_100)
        assert 1e-26 / 3.0 <= tau <= 3.0 * 1e-26


# a resonant drive the dim holds: |beta|^2 = 0.64 over the run
SIM_CONFIG = """\
[detector]
material = niobium
length = 1.0
radius = 0.5

[source]
type = monochromatic
h0 = 5e-25
frequency_hz = 2500

[measurement]
dt = 1e-2
t_m = 0.5
t_meas = 2.0
dim = 8
seed = 99
n_traj = 2
duration = 2.0

[output]
stride = 3
"""


def test_criterion_12_simulate_determinism(tmp_path):
    with criterion(12, "simulate with a fixed seed is byte-identical across reruns"):
        config = tmp_path / "run.ini"
        config.write_text(SIM_CONFIG)
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["simulate", "--config", str(config), "--out", dir_a]) == 0
        assert cli_main(["simulate", "--config", str(config), "--out", dir_b]) == 0
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            with open(os.path.join(dir_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(dir_b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, f"{name} differs between identical runs"
