import dataclasses
import math

import numpy as np
import pytest
from diagonal_oracle import born_level, posterior, simulate, stretch_records
from fock_oracle import (
    apply_normalized,
    coherent_state,
    creation,
    displacement_operator,
    expect_number,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from jump_oracle import jump_starts
from measurement_oracle import measurement_operator, sample_readout
from numpy.polynomial.hermite import hermgauss
from quadrature_oracle import simpson_integral

from gravibar import dynamics, measurement
from gravibar.detector import MATERIALS, DetectorSpec, Material, mode_frequency
from gravibar.dynamics import beta_prefactor, displacement_beta
from gravibar.fock import (
    DisplacementCache,
    QuantumState,
    StateInvariantError,
    TraceUnderflowError,
)
from gravibar.measurement import (
    JUMP_HOLD,
    JUMP_THRESHOLD,
    MeasurementConfig,
    TrajectoryRecord,
    detect_jump,
    run_ensemble,
    run_trajectory,
    step,
)
from gravibar.waveform import ChirpSource, MonochromaticWave, SampledStrain, resonance_time


class ZeroNoise:
    """Stand-in generator that returns zeros (readout noise switched off)."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


def toy_detector(omega: float = 2 * math.pi) -> DetectorSpec:
    material = Material("toy", density=1000.0, sound_speed=10.0)
    return DetectorSpec.from_frequency(material, omega, radius=0.1)


def ensemble_chunks(
    spec, signal, cfg, n_traj, base_seed, duration, gw_start=0.0, window=None, **kwargs
):
    """`measurement._ensemble_chunks` of a run, driven by its `_drive`."""
    drive, events = measurement._drive(spec, signal, cfg, duration, gw_start, window)
    return measurement._ensemble_chunks(cfg, drive, events, n_traj, base_seed, **kwargs)


def set_chunk(monkeypatch, size, cfg, duration, starts=None, series=False):
    """Cap `_CHUNK_BYTES` so that `_ensemble_chunks` runs `size` trajectories
    of a run of `duration` a chunk: `size` times `_trajectory_bytes`."""
    rank = 1 if starts is None else starts.shape[2]
    n_rec = int(round(duration / cfg.dt)) // cfg.record_stride
    per_traj = measurement._trajectory_bytes(cfg, rank, n_rec, series)
    monkeypatch.setattr(measurement, "_CHUNK_BYTES", size * per_traj)


def resonant_drive_for_beta(
    spec: DetectorSpec, target_beta: float, duration: float
) -> MonochromaticWave:
    """Monochromatic wave sized so the accumulated |beta| is ~target."""
    omega = mode_frequency(spec)
    chi_per_h0 = omega**2 * duration / 2.0
    h0 = target_beta / (beta_prefactor(spec) * chi_per_h0)
    return MonochromaticWave(h0=h0, nu=omega)


class TestConfig:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("dt", math.nan, "dt must be finite"),
            ("t_m", math.nan, "t_m must be finite"),
            ("t_m", math.inf, "t_m must be finite"),
            ("t_meas", math.inf, "t_meas must be finite"),
            ("kappa", math.nan, "kappa must be finite"),
            ("thermal_rate", math.nan, "thermal_rate must be finite"),
            ("thermal_rate", math.inf, "thermal_rate must be finite"),
            ("dt", -1e-3, "dt must be > 0"),
            ("t_meas", 1e-3, "t_meas must exceed dt"),
            ("kappa", -1.0, "kappa must be >= 0"),
            ("thermal_rate", -1.0, "thermal_rate must be >= 0"),
            ("seed", -1, "seed must be >= 0"),
        ],
    )
    def test_values_checked(self, name, value, message):
        # nan passed every `<= 0` check: kappa = nan ran without noise,
        # thermal_rate = nan without jumps, t_m = nan wrote nan readouts
        with pytest.raises(ValueError, match=message):
            MeasurementConfig(**{name: value})

    @pytest.mark.parametrize("name", ["dim", "record_stride", "seed"])
    def test_counts_must_be_integers(self, name):
        # record_stride = 1.5 sized a run's records by n_steps // 1.5 but
        # wrote only every third step, leaving np.empty values in the rest
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MeasurementConfig(**{name: 2.5})
        assert getattr(MeasurementConfig(**{name: np.int64(3)}), name) == 3


class TestMeasurementOperator:
    def test_diagonal_and_peaked(self):
        m = measurement_operator(2.3, 1e-3, 2.0, 8)
        np.testing.assert_allclose(m, np.diag(m.diagonal()), atol=0.0)
        entries = m.diagonal().real
        assert np.all(entries > 0.0)
        assert int(np.argmax(entries)) == 2  # n closest to r = 2.3
        # monotone decay away from the peak
        assert np.all(np.diff(entries[2:]) < 0.0)
        assert np.all(np.diff(entries[:3]) > 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 30),
        dt=st.floats(1e-5, 1e-1),
        t_m=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_povm_completeness(self, dim, dt, t_m, seed):
        # Gauss-Hermite quadrature of M^dag M over r, with the nodes centred
        # on each level n in turn: every diagonal entry of the integrated
        # POVM equals 1
        x, w = hermgauss(41)
        sigma = math.sqrt(2.0 * t_m / dt)
        for n in range(dim):
            rs = n + sigma * x
            vals = np.array(
                [
                    (measurement_operator(float(r), dt, t_m, dim) ** 2)[n, n].real
                    for r in rs
                ]
            )
            # undo the substitution weight exp(-x^2)
            integral = float(np.sum(w * vals * np.exp(x**2))) * sigma
            assert integral == pytest.approx(1.0, abs=1e-10)

        # the readout density tr(M rho M^dag) is the Born-rule mixture of
        # Gaussians of variance t_m/dt centred on the levels
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
        p = rho.diagonal().real
        var = t_m / dt
        ns = np.arange(dim)
        for r in rng.uniform(-2.0, dim + 1.0, 5):
            m = measurement_operator(float(r), dt, t_m, dim)
            density = np.trace(m @ rho @ m.conj().T).real
            born = p @ np.exp(-((r - ns) ** 2) / (2.0 * var)) / math.sqrt(
                2.0 * math.pi * var
            )
            assert density == pytest.approx(born, rel=1e-12, abs=1e-300)

    def test_weak_limit_leaves_state_unchanged(self):
        dim = 6
        state = QuantumState.from_diagonal([0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
        m = measurement_operator(1.7, 1e-12, 1.0, dim)
        new = m @ state.rho @ m.conj().T
        new /= new.diagonal().real.sum()
        np.testing.assert_allclose(new, state.rho, atol=1e-9)

    def test_rejects_non_finite_readout(self):
        with pytest.raises(ValueError):
            measurement_operator(float("nan"), 1e-3, 2.0, 4)


class TestSampleReadout:
    def test_noise_free_fock_state(self):
        state = QuantumState.from_diagonal([0.0, 1.0, 0.0])
        assert sample_readout(state, 1e-3, 2.0, ZeroNoise()) == pytest.approx(1.0)

    def test_ensemble_mean(self):
        rng = np.random.default_rng(123)
        state = coherent_state(1.0, 20)
        dt, t_m = 1e-3, 2.0
        draws = np.array(
            [sample_readout(state, dt, t_m, rng) for _ in range(10_000)]
        )
        sigma = math.sqrt(t_m / dt)
        assert draws.mean() == pytest.approx(
            expect_number(state), abs=3.0 * sigma / 100.0
        )

    def test_ensemble_variance(self):
        rng = np.random.default_rng(321)
        state = QuantumState.from_diagonal([0.0, 1.0, 0.0])
        dt, t_m = 1e-3, 2.0
        draws = np.array(
            [sample_readout(state, dt, t_m, rng) for _ in range(10_000)]
        )
        assert draws.var() == pytest.approx(t_m / dt, rel=0.05)


class TestStep:
    def cfg(self, **kw):
        base = dict(dt=1e-3, t_m=2.0, t_meas=10.0, dim=12, seed=5)
        base.update(kw)
        return MeasurementConfig(**base)

    def test_ground_state_fixed_point(self):
        cfg = self.cfg()
        state = QuantumState.ground(cfg.dim)
        new, r = step(state, cfg, 0.0, ZeroNoise())
        assert r == pytest.approx(0.0)
        np.testing.assert_allclose(new.rho, state.rho, atol=1e-14)

    def test_dimension_mismatch_named(self):
        cfg = self.cfg(dim=4)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="state dim 5 != config dim 4"):
            step(QuantumState.ground(5), cfg, 0.0, rng)

    def test_invariants_after_step(self):
        cfg = self.cfg()
        rng = np.random.default_rng(9)
        state = coherent_state(1.0, cfg.dim)
        for _ in range(50):
            state, _ = step(state, cfg, 0.01 + 0.005j, rng)
        state.validate()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 16),
        rank=st.integers(1, 16),
        dt=st.floats(1e-4, 1e-2),
        t_m=st.floats(0.1, 10.0),
        dbeta=st.complex_numbers(max_magnitude=0.5),
        kappa=st.floats(0.0, 1e-3),
        thermal_rate=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariants_hold_across_configurations(
        self, dim, rank, dt, t_m, dbeta, kappa, thermal_rate, seed
    ):
        cfg = MeasurementConfig(
            dt=dt, t_m=t_m, t_meas=1.0, dim=dim, kappa=kappa,
            thermal_rate=thermal_rate,
        )
        rng = np.random.default_rng(seed)
        # pure start for rank 1, mixed otherwise
        rank = min(rank, dim)
        a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = a @ a.conj().T
        state = QuantumState(dim, rho / np.trace(rho).real)
        for _ in range(20):
            try:
                state, r = step(state, cfg, dbeta, rng)
            except TraceUnderflowError:
                # only a thermal jump out of the top Fock level is impossible
                assert state.populations()[-1] > 1.0 - 1e-9
                break
            assert np.isfinite(r)
            state.validate()

    def test_matches_reference_operators(self):
        # the factored update equals successive K rho K^dag / tr(...) with
        # the reference operators M(r), D(dbeta + gamma) and b^dag
        cfg = self.cfg(dim=8, kappa=5e-3, thermal_rate=1.0)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        state = QuantumState(8, a @ a.conj().T / np.sum(np.abs(a) ** 2))
        dbeta = 0.03 - 0.02j
        gamma = cfg.gamma_sigma * complex(1.5, -0.7)
        for u, jumped in ((0.0, True), (0.99, False)):

            class Fixed:
                def standard_normal(self, size=None):
                    return 0.4 if size is None else np.array([1.5, -0.7])

                def random(self, size=None):
                    return u

            new, r = step(state, cfg, dbeta, Fixed())
            assert r == pytest.approx(
                expect_number(state) + cfg.readout_sigma * 0.4, rel=1e-12
            )
            ref = apply_normalized(
                state, measurement_operator(r, cfg.dt, cfg.t_m, cfg.dim)
            )
            for k in [displacement_operator(dbeta + gamma, 8)] + [creation(8)] * jumped:
                ref = apply_normalized(ref, k)
            np.testing.assert_allclose(new.rho, ref.rho, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(16, 30),
        rank=st.integers(1, 3),
        xi=st.floats(-3.0, 3.0),
        dbeta=st.complex_numbers(max_magnitude=0.05),
        gamma=st.complex_numbers(max_magnitude=0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_displacement_matches_drive_then_noise(
        self, dim, rank, xi, dbeta, gamma, seed
    ):
        # step() applies the drive and the noise kick as one D(dbeta + gamma);
        # untruncated that is D(gamma) D(dbeta) up to a global phase. On
        # states that leave the upper half of the levels empty the truncation
        # does not bite: three sweeps of 30 draws per even dim gave at most
        # 2.2e-13 at dim 16 and 8.9e-15 at dim 18. Below dim 16 the two forms
        # part, by up to 8e-11 at dim 12 and 8e-7 at dim 6.
        cfg = self.cfg(dim=dim, kappa=1e-3)
        parts = np.array([gamma.real, gamma.imag]) / cfg.gamma_sigma
        rng = np.random.default_rng(seed)
        shape = (dim // 2, rank)
        a = np.zeros((dim, rank), dtype=complex)
        a[: dim // 2] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        state = QuantumState(dim, a @ a.conj().T / np.sum(np.abs(a) ** 2))

        class Fixed:
            def standard_normal(self, size=None):
                return xi if size is None else parts

        new, r = step(state, cfg, dbeta, Fixed())
        ref = apply_normalized(state, measurement_operator(r, cfg.dt, cfg.t_m, dim))
        for z in (dbeta, complex(*(cfg.gamma_sigma * parts))):
            ref = apply_normalized(ref, displacement_operator(z, dim))
        np.testing.assert_allclose(new.rho, ref.rho, rtol=0, atol=1e-12)

    def test_nearly_pure_factors_renormalize_to_at_most_one(self):
        # populations divided by their own sum cannot exceed 1; the factor
        # divided by sqrt(norm) and squared again exceeds it on a few rows
        rng = np.random.default_rng(1)
        n, dim = 20000, 6
        shape = (n, dim, 1)
        amps = 10.0 ** rng.uniform(-12, -3, (n, 1, 1)) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        amps[:, 2, 0] += 1.0
        pops = measurement._populations(amps)
        pops /= pops.sum(axis=1)[:, None]
        cache = DisplacementCache(dim)
        xi = rng.uniform(-20.0, 20.0, n)
        for jumped in (None, np.ones(n, dtype=bool)):
            _, new, _ = measurement._update(amps, pops, xi, -0.01, cache, None, jumped)
            assert new.max() <= 1.0

    def test_kappa_noise_scalings(self):
        literal = self.cfg(kappa=1e-4)
        assert literal.gamma_sigma == pytest.approx(1e-4 / math.sqrt(1e-3))

    def test_kappa_noise_applies_displacement(self):
        # with known normals the noise displacement is D(gamma) exactly
        class FixedNoise:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, size=None):
                if size is None:
                    self.calls += 1
                    return 0.0  # readout noise
                return np.array([2.0, -1.0])  # gamma quadratures

        cfg = self.cfg(kappa=5e-2)
        state = QuantumState.ground(cfg.dim)
        new, _ = step(state, cfg, 0.0, FixedNoise())
        gamma = cfg.gamma_sigma * complex(2.0, -1.0)
        d = DisplacementCache(cfg.dim).matrix(gamma)
        expected = d @ state.rho @ d.conj().T
        expected /= expected.diagonal().real.sum()
        np.testing.assert_allclose(new.rho, expected, atol=1e-12)

    def test_thermal_jump_raises_occupation(self):
        cfg = self.cfg(thermal_rate=1.0)

        class AlwaysJump(ZeroNoise):
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        state = QuantumState.ground(cfg.dim)
        new, _ = step(state, cfg, 0.0, AlwaysJump())
        assert new.populations()[1] == pytest.approx(1.0, abs=1e-12)


class TestRunTrajectory:
    def test_zero_signal_zero_noise_stays_in_ground(self):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=1.0, t_meas=5.0, dim=8, seed=1)
        rec = run_trajectory(spec, None, cfg, duration=5.0)
        np.testing.assert_allclose(rec.rho00, 1.0, atol=1e-10)
        np.testing.assert_allclose(rec.rho11, 0.0, atol=1e-12)

    def test_seeded_runs_are_identical(self):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=4.0, dim=10, seed=77)
        wave = resonant_drive_for_beta(spec, 0.8, 2.0)
        kw = dict(duration=4.0, gw_start=1.0, window=(0.0, 2.0))
        a = run_trajectory(spec, wave, cfg, **kw)
        b = run_trajectory(spec, wave, cfg, **kw)
        assert np.array_equal(a.readout, b.readout)
        assert np.array_equal(a.rho11, b.rho11)
        assert a.events == b.events

    def test_reinit_and_window_events(self):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        wave = resonant_drive_for_beta(spec, 0.5, 1.0)
        rec = run_trajectory(
            spec, wave, cfg, duration=6.0, gw_start=2.5, window=(0.0, 1.0)
        )
        kinds = [kind for _, kind in rec.events]
        assert kinds.count("reinit") == 2  # at 2 s and 4 s
        assert "gw_window_start" in kinds
        assert "gw_window_end" in kinds
        start = [t for t, kind in rec.events if kind == "gw_window_start"][0]
        assert start == pytest.approx(2.5)

    def test_window_events_clipped_to_the_run(self):
        # a window that opens before the run and closes after it
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        wave = resonant_drive_for_beta(spec, 0.5, 2.0)
        rec = run_trajectory(
            spec, wave, cfg, duration=1.0, gw_start=-0.5, window=(0.0, 2.0)
        )
        assert rec.events == [(0.0, "gw_window_start"), (1.0, "gw_window_end")]

    def test_reversed_window_rejected(self):
        # it once clipped every step to the window's end and ran undriven
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        wave = resonant_drive_for_beta(spec, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"window \(0\.9, 0\.2\) is reversed"):
            run_trajectory(spec, wave, cfg, duration=1.0, window=(0.9, 0.2))

    @pytest.mark.parametrize("edge, window", [
        ("start", (math.nan, 0.5)), ("end", (0.0, math.nan)),
    ], ids=["start", "end"])
    def test_nan_window_edge_named(self, edge, window):
        # a nan end was reported as a reversed window
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        wave = resonant_drive_for_beta(spec, 0.5, 1.0)
        with pytest.raises(ValueError, match=rf"^window {edge} must not be nan, got nan$"):
            run_trajectory(spec, wave, cfg, duration=1.0, window=window)

    def test_infinite_window_clipped_to_the_run(self):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        wave = resonant_drive_for_beta(spec, 0.5, 1.0)
        drive, events = measurement._drive(spec, wave, cfg, 1.0, 0.0, (-math.inf, math.inf))
        assert events == [(0.0, "gw_window_start"), (1.0, "gw_window_end")]
        default, _ = measurement._drive(spec, wave, cfg, 1.0, 0.0, None)
        np.testing.assert_allclose(drive, default, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("arg, value", [
        ("duration", math.nan), ("duration", math.inf), ("duration", -math.inf),
        ("gw_start", math.nan), ("gw_start", math.inf),
    ])
    def test_non_finite_duration_or_gw_start_rejected(self, arg, value):
        # NaN and inf failed inside int() or as a "reversed" window
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        wave = resonant_drive_for_beta(spec, 0.5, 1.0)
        kwargs = {"duration": 1.0, arg: value}
        match = rf"^{arg} must be finite, got {value}$"
        with pytest.raises(ValueError, match=match):
            run_trajectory(spec, wave, cfg, **kwargs)
        with pytest.raises(ValueError, match=match):
            run_ensemble(spec, None, cfg, 2, **kwargs)

    def test_stride_longer_than_the_run_rejected(self):
        # 5 steps, a record every 10th: no record, a detection fraction of 0
        # and NaN purity crossings were returned without a word
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_meas=0.05, dim=4, record_stride=10)
        match = r"^record_stride = 10 exceeds the run's 5 steps$"
        with pytest.raises(ValueError, match=match):
            run_trajectory(spec, None, cfg, duration=0.05)
        with pytest.raises(ValueError, match=match):
            run_ensemble(spec, None, cfg, 2, duration=0.05, purity_threshold=0.9)
        # a stride of exactly the run records its last step
        rec = run_trajectory(spec, None, dataclasses.replace(cfg, record_stride=5), duration=0.05)
        np.testing.assert_allclose(rec.times, [0.05])

    def test_records_follow_stride(self):
        spec = toy_detector()
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.5, t_meas=4.0, dim=8, seed=3, record_stride=5
        )
        rec = run_trajectory(spec, None, cfg, duration=1.0)
        assert rec.times[0] == pytest.approx(0.05)
        assert np.allclose(np.diff(rec.times), 0.05)

    def test_measurement_free_drive_matches_coherent_state(self):
        # independent oracle: adaptive-quadrature beta and the closed-form
        # coherent state; the engine integrates the same drive stepwise
        spec = toy_detector()
        duration = 2.0
        wave = resonant_drive_for_beta(spec, 1.2, duration)
        cfg = MeasurementConfig(
            dt=1e-3, t_m=1e9, t_meas=10.0, dim=25, seed=11, record_stride=1
        )
        rec = run_trajectory(
            spec, wave, cfg, duration=duration, gw_start=0.0,
            window=(0.0, duration),
        )
        beta = displacement_beta(spec, wave, (0.0, duration))
        target = coherent_state(beta.magnitude, cfg.dim).populations()
        assert rec.rho00[-1] == pytest.approx(target[0], abs=1e-4)
        assert rec.rho11[-1] == pytest.approx(target[1], abs=1e-4)
        assert rec.rho22[-1] == pytest.approx(target[2], abs=1e-4)

    def test_step_iteration_matches_engine(self):
        # replay the engine's pre-drawn noise through the public step() on
        # a drive over the whole run, with and without noise, and on a run
        # that crosses all three stretch kinds: ground steps up to the
        # window, factor steps in it, population steps up to the reinit at
        # 0.6 s (against the oracle posterior of their readouts), ground
        # steps after it
        spec = toy_detector()
        wave = resonant_drive_for_beta(spec, 0.7, 1.0)
        cases = [
            (dict(), 0.0, (0.0, 1.0)),
            (dict(kappa=2e-3, thermal_rate=3.0), 0.0, (0.0, 1.0)),
            (dict(t_meas=0.6), 0.1, (0.0, 0.3)),
        ]
        base = MeasurementConfig(
            dt=1e-2, t_m=0.5, t_meas=5.0, dim=10, seed=42, record_stride=1
        )
        for extra, gw_start, window in cases:
            cfg = dataclasses.replace(base, **extra)
            rec = run_trajectory(
                spec, wave, cfg, duration=1.0, gw_start=gw_start, window=window
            )
            replay = replay_with_step(spec, wave, cfg, 1.0, gw_start, window, engine=rec)
            np.testing.assert_allclose(replay.rho11, rec.rho11, atol=1e-12)
            assert rec.events == replay.events
        # the noisy case has thermal jumps, and the last one a reinit
        rng = np.random.default_rng(42)
        rng.standard_normal(100), rng.standard_normal((100, 2))
        assert np.any(rng.random(100) < 3.0 * 1e-2)
        assert (0.6, "reinit") in rec.events

    def test_factor_stretch_matches_reference_operators(self):
        # an oracle that shares no code with the engine's update: the
        # factor stretch applies each step's displacement through the real
        # eigenbasis of DisplacementCache, the dense replay applies every
        # operator whole, through drive, noise, thermal jumps and a reinit
        spec = toy_detector()
        wave = resonant_drive_for_beta(spec, 0.7, 1.0)
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.5, t_meas=0.5, dim=12, seed=6, record_stride=1,
            kappa=2e-3, thermal_rate=3.0,
        )
        rec = run_trajectory(
            spec, wave, cfg, duration=1.0, gw_start=0.0, window=(0.0, 1.0)
        )
        expected = replay_with_operators(spec, wave, cfg, 1.0, 0.0, (0.0, 1.0))
        np.testing.assert_allclose(
            np.column_stack([rec.readout, rec.rho00, rec.rho11, rec.rho22]),
            expected, rtol=0, atol=1e-10,
        )
        # 100 factor steps (kappa displaces every step), a reinit at 0.5 s
        # and a thermal jump on each side of it
        assert (0.5, "reinit") in rec.events
        _, thermal = np.random.default_rng(cfg.seed).spawn(2)
        jumps = np.flatnonzero(thermal.random(100) < 3.0 * 1e-2)
        assert jumps.min() < 50 <= jumps.max()

    def test_mixed_start_factor_stretch_matches_reference_operators(self):
        # a full-rank start: until the reinit at 0.5 s the factor stretch
        # displaces, measures and jumps a (1, 12, 12) stack
        spec = toy_detector()
        wave = resonant_drive_for_beta(spec, 0.7, 1.0)
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.5, t_meas=0.5, dim=12, seed=3, record_stride=1,
            kappa=2e-3, thermal_rate=3.0,
        )
        initial = QuantumState.from_diagonal(
            np.random.default_rng(8).dirichlet(np.ones(cfg.dim))
        )
        assert np.linalg.matrix_rank(initial.rho) == cfg.dim
        rec = run_trajectory(
            spec, wave, cfg, duration=1.0, gw_start=0.0, window=(0.0, 1.0),
            initial_state=initial,
        )
        expected = replay_with_operators(
            spec, wave, cfg, 1.0, 0.0, (0.0, 1.0), initial
        )
        np.testing.assert_allclose(
            np.column_stack([rec.readout, rec.rho00, rec.rho11, rec.rho22]),
            expected, rtol=0, atol=1e-10,
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        placement=st.sampled_from(["before", "straddle", "after", "first", "last"]),
        reinit=st.integers(20, 90),
        width=st.integers(2, 15),
        t_m=st.floats(0.05, 2.0),
        start=st.sampled_from(["ground", "diagonal", "coherent"]),
        kappa=st.booleans(),
        thermal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stretches_match_step_replay(
        self, placement, reinit, width, t_m, start, kappa, thermal, seed
    ):
        # the engine's ground and factor stretches against a plain step()
        # replay and its population stretches against the oracle posterior
        # of their readouts, for drive windows before, across and after a
        # reinit and touching the first and last step of the run
        spec = toy_detector()
        wave = resonant_drive_for_beta(spec, 0.7, 1.0)
        n_steps = 120
        lo, hi = {
            "before": (reinit - width - 3, reinit - 3),
            "straddle": (reinit - width // 2 - 1, reinit + width // 2 + 1),
            "after": (reinit + 2, reinit + 2 + width),
            "first": (0, width),
            "last": (n_steps - width, n_steps),
        }[placement]
        cfg = MeasurementConfig(
            dt=1e-2, t_m=t_m, t_meas=reinit * 1e-2, dim=12, seed=seed,
            record_stride=1, kappa=2e-3 * kappa, thermal_rate=2.0 * thermal,
        )
        gw_start = 0.25
        window = (max(lo, 0) * cfg.dt - gw_start, hi * cfg.dt - gw_start)
        initial = {
            "ground": None,
            "diagonal": QuantumState.from_diagonal(
                np.random.default_rng(seed).dirichlet(np.ones(cfg.dim))
            ),
            "coherent": coherent_state(0.6, cfg.dim),
        }[start]
        duration = n_steps * cfg.dt
        rec = run_trajectory(
            spec, wave, cfg, duration=duration, gw_start=gw_start,
            window=window, initial_state=initial,
        )
        replay = replay_with_step(
            spec, wave, cfg, duration, gw_start, window, initial, engine=rec
        )
        for name in ("readout", "rho00", "rho11", "rho22"):
            np.testing.assert_allclose(
                getattr(rec, name), getattr(replay, name), rtol=0, atol=1e-12
            )
        assert rec.events == replay.events
        assert detect_jump(rec) == [
            (t, "jump_detected")
            for t in jump_starts(rec.times, replay.rho11, JUMP_THRESHOLD, JUMP_HOLD)
        ]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        placement=st.sampled_from(["none", "before", "straddle", "after", "first", "last"]),
        reinit=st.integers(4, 30),
        width=st.integers(1, 10),
        ground_start=st.booleans(),
        kappa=st.booleans(),
        thermal=st.booleans(),
    )
    def test_each_step_takes_its_stretch(
        self, placement, reinit, width, ground_start, kappa, thermal
    ):
        # the calls show which stretch a step took: before its record,
        # `_update` (factor), `_Stretch.advance` (population) or neither
        # (ground); `_BatchResult.add` takes each piece's block of records
        spec = toy_detector()
        n_steps = 60
        lo, hi = {
            "none": (0, 0),
            "before": (reinit - width - 1, reinit - 1),
            "straddle": (reinit - width // 2 - 1, reinit + width // 2 + 1),
            "after": (reinit + 1, reinit + 1 + width),
            "first": (0, width),
            "last": (n_steps - width, n_steps),
        }[placement]
        lo, hi = max(lo, 0), min(hi, n_steps)
        wave = None if hi <= lo else resonant_drive_for_beta(spec, 0.3, 1.0)
        cfg = MeasurementConfig(
            dt=1e-2, t_m=1.0, t_meas=reinit * 1e-2, dim=4, seed=reinit,
            record_stride=1, kappa=1e-3 * kappa, thermal_rate=2.0 * thermal,
        )
        gw_start = 0.25
        window = (lo * cfg.dt - gw_start, hi * cfg.dt - gw_start)
        initial = None if ground_start else QuantumState.from_diagonal(
            np.random.default_rng(reinit).dirichlet(np.ones(cfg.dim))
        )
        # steps lo + 1 .. hi overlap the window; noise displaces every step
        displacing = [kappa or thermal or lo < i <= hi for i in range(1, n_steps + 1)]
        expected = []
        for start in range(0, n_steps, reinit):
            period = displacing[start : start + reinit]
            hits = [j for j, flag in enumerate(period) if flag]
            first, last = (hits[0], hits[-1]) if hits else (len(period), -1)
            if start == 0 and not ground_start:
                first = 0
            expected += ["ground"] * first + ["factor"] * (last + 1 - first)
            expected += ["population"] * (len(period) - max(first, last + 1))

        log = []

        def logged(kind, fn, count=lambda args, out: 1):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.extend([kind] * count(args, out))
                return out
            return wrapper

        Batch = measurement._BatchResult
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measurement, "_update", logged("factor", measurement._update))
            mp.setattr(measurement._Stretch, "advance", logged(
                "population", measurement._Stretch.advance, lambda args, out: len(out[0])))
            mp.setattr(Batch, "add", logged(None, Batch.add, lambda args, out: len(args[1])))
            run_trajectory(
                spec, wave, cfg, duration=n_steps * cfg.dt, gw_start=gw_start,
                window=window, initial_state=initial,
            )
        kinds, pending = [], []
        for entry in log:
            if entry is None:
                kinds.append(pending.pop(0) if pending else "ground")
            else:
                pending.append(entry)
        assert kinds == expected and not pending
        # the schedule lists the same kinds, stretch by stretch, none empty
        drive, _ = measurement._drive(spec, wave, cfg, n_steps * cfg.dt, gw_start, window)
        schedule = measurement._schedule(cfg, drive, not ground_start)
        assert all(lo < hi for _, lo, hi in schedule)
        assert [kind for kind, lo, hi in schedule for _ in range(lo, hi)] == expected


def step_drive(spec, wave, cfg, i, gw_start, window):
    """The drive increment of step i in closed form: -i prefactor times the
    integral of hddot(s) e^{i omega s} over the step's part inside `window`,
    for a monochromatic wave."""
    lo = max((i - 1) * cfg.dt - gw_start, window[0])
    hi = min(i * cfg.dt - gw_start, window[1])
    if hi <= lo:
        return 0.0
    width, mid = hi - lo, 0.5 * (lo + hi)

    def segment(k):  # integral of e^{iks} over [lo, hi]
        return width * np.exp(1j * k * mid) * np.sinc(k * width / (2.0 * np.pi))

    # hddot = -nu^2 h0 sin(nu s + phi0), the sine as two exponentials; the
    # near-resonant term is the one at k = omega - nu
    omega, nu = mode_frequency(spec), wave.nu
    integral = -(nu**2) * wave.h0 / 2j * (
        np.exp(1j * wave.phi0) * segment(omega + nu)
        - np.exp(-1j * wave.phi0) * segment(omega - nu)
    )
    return -1j * beta_prefactor(spec) * integral


def replay_with_operators(spec, wave, cfg, duration, gw_start, window, initial=None):
    """Replay `run_trajectory`'s noise from `initial` (the ground state if
    None) through the dense reference operators alone:
    rho -> K rho K^dag / tr(...) with M(r), D(dbeta + gamma) and b^dag in
    turn, a reinit every t_meas. Returns the readouts and rho00..rho22, one
    row per step.
    """
    n_steps = int(round(duration / cfg.dt))
    steps_per_reinit = int(round(cfg.t_meas / cfg.dt))
    rng = np.random.default_rng(cfg.seed)
    kappa, thermal = rng.spawn(2)
    xis = rng.standard_normal(n_steps)
    gammas = cfg.gamma_sigma * kappa.standard_normal((n_steps, 2))
    uniforms = thermal.random(n_steps)
    state = initial if initial is not None else QuantumState.ground(cfg.dim)
    rows = []
    for i in range(1, n_steps + 1):
        r = expect_number(state) + cfg.readout_sigma * xis[i - 1]
        state = apply_normalized(
            state, measurement_operator(r, cfg.dt, cfg.t_m, cfg.dim)
        )
        dbeta = step_drive(spec, wave, cfg, i, gw_start, window)
        z = dbeta + complex(*gammas[i - 1])
        if z != 0.0:
            state = apply_normalized(state, displacement_operator(z, cfg.dim))
        if uniforms[i - 1] < cfg.thermal_rate * cfg.dt:
            state = apply_normalized(state, creation(cfg.dim))
        if i % steps_per_reinit == 0 and i < n_steps:
            state = QuantumState.ground(cfg.dim)
        rows.append([r, *state.populations()[:3]])
    return np.array(rows)


def replay_with_step(spec, wave, cfg, duration, gw_start, window, initial=None, engine=None):
    """Replay `run_trajectory`'s noise through the public step(), and each
    population stretch through `diagonal_oracle.posterior` of the readouts
    of the record `engine` (record_stride 1).

    Draws the noise the way the engine does: the readout normals from the
    default generator of `cfg.seed`, the noise normals, the thermal
    uniforms and the Born uniforms from children 0, 1 and 2 of its
    spawn(3). Drives with closed-form increments restricted to `window`,
    and reinitializes every t_meas. A population stretch runs from a
    period's last displacing step to its end, from the replayed state at
    its first step: its readouts must be one level n* plus the readout
    noise, n* drawn from that state's populations by the Born rule.
    Returns the record and its events.
    """
    n_steps = int(round(duration / cfg.dt))
    steps_per_reinit = int(round(cfg.t_meas / cfg.dt))
    rng = np.random.default_rng(cfg.seed)
    kappa, thermal, born = rng.spawn(3)
    normals = rng.standard_normal(n_steps)
    xis = cfg.readout_sigma * normals
    readout = iter(normals)
    gamma = iter(kappa.standard_normal((n_steps, 2)) if cfg.kappa else ())
    uniforms = iter(thermal.random(n_steps) if cfg.thermal_rate else ())

    class Replay:
        def standard_normal(self, size=None):
            return next(readout) if size is None else next(gamma)

        def random(self, size=None):
            return next(uniforms)

    drives = [step_drive(spec, wave, cfg, i, gw_start, window) for i in range(1, n_steps + 1)]
    displacing = [bool(cfg.kappa or cfg.thermal_rate or z) for z in drives]
    last = {}  # each period's last displacing step
    for i, flag in enumerate(displacing, start=1):
        if flag:
            last[(i - 1) // steps_per_reinit] = i

    replay = Replay()
    state = initial if initial is not None else QuantumState.ground(cfg.dim)
    carried = initial is not None  # as the engine carries a state
    events = [
        (max(gw_start + window[0], 0.0), "gw_window_start"),
        (min(gw_start + window[1], duration), "gw_window_end"),
    ]
    rows, stretch = [], None
    for i in range(1, n_steps + 1):
        carried |= displacing[i - 1]
        if carried and i > last.get((i - 1) // steps_per_reinit, 0):
            if stretch is None:  # p0, n*, S and j of the stretch
                p0 = state.populations()
                level = min(int((np.cumsum(p0) < born.random()).sum()), cfg.dim - 1)
                stretch = [p0, level, 0.0, 0]
            p0, level, total, j = stretch
            r = engine.readout[i - 1]
            assert r == level + xis[i - 1], f"step {i}: readout off level {level}"
            stretch[2:] = total + r, j + 1
            pops = posterior(p0, np.array(stretch[2] * cfg.dt), stretch[3] * cfg.dt, cfg.t_m)
            state = QuantumState.from_diagonal(pops)
            next(readout)
        else:
            state, r = step(state, cfg, drives[i - 1], replay)
        if i % steps_per_reinit == 0 and i < n_steps:
            state = QuantumState.ground(cfg.dim)
            carried, stretch = False, None
            events.append((i * cfg.dt, "reinit"))
        if i % cfg.record_stride == 0:
            rows.append([i * cfg.dt, r, *state.populations()[:3]])
    times, readouts, rho00, rho11, rho22 = np.array(rows).T
    return TrajectoryRecord(
        times, readouts, rho00, rho11, rho22, sorted(events, key=lambda ev: ev[0])
    )


class TestDrive:
    """`measurement._drive` integrates each step exactly, at any dt."""

    BAR = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)  # 2 500 Hz
    FIG3 = DetectorSpec.from_frequency(MATERIALS["beryllium"], 2 * math.pi * 100, mass=21.73)
    CHIRP = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0)

    @pytest.mark.parametrize("spec, omega_dt", [
        (BAR, 50 * math.pi),  # dt = 10 ms: every step's midpoint on a zero of the wave
        (toy_detector(), 0.63),
    ], ids=["omega_dt=50pi", "omega_dt=0.63"])
    def test_matches_closed_form_step_by_step(self, spec, omega_dt):
        dt = omega_dt / mode_frequency(spec)
        wave = MonochromaticWave(h0=1e-21, nu=mode_frequency(spec), phi0=0.4)
        cfg = MeasurementConfig(dt=dt, t_m=0.5, t_meas=10.0, dim=4)
        gw_start, window = 0.37 * dt, (0.61 * dt, 37.3 * dt)  # edges off the grid
        drive, _ = measurement._drive(spec, wave, cfg, 40 * dt, gw_start, window)
        expected = [step_drive(spec, wave, cfg, i, gw_start, window) for i in range(1, 41)]
        np.testing.assert_allclose(
            drive, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )
        assert np.count_nonzero(drive) == 38  # steps 1-38 meet the window

    def test_chirp_matches_simpson_step_by_step(self, monkeypatch):
        # 200 steps of 1 ms across the resonance crossing; the window's edges
        # fall inside steps, and so do edges of the panels the steps are cut from
        spec, chirp = self.FIG3, self.CHIRP
        omega = mode_frequency(spec)
        cfg = MeasurementConfig(dt=1e-3, t_m=0.5, t_meas=10.0, dim=4)
        s_star = resonance_time(chirp.nu0, chirp.k, omega)
        gw_start = 0.1 - s_star  # the crossing at run time 0.1 s
        window = (s_star - 0.0603, s_star + 0.0514)
        grids = []
        panel_sum = dynamics._panel_sum

        def recording(signal, omega, edges, cuts):
            grids.append(edges)
            return panel_sum(signal, omega, edges, cuts)

        monkeypatch.setattr(dynamics, "_panel_sum", recording)
        drive, _ = measurement._drive(spec, chirp, cfg, 0.2, gw_start, window)
        ends = np.clip(np.arange(201) * cfg.dt - gw_start, *window)
        expected = np.array([
            -1j * beta_prefactor(spec) * simpson_integral(chirp, omega, (a, b), tol=1e-11)
            for a, b in zip(ends[:-1], ends[1:])
        ])
        np.testing.assert_allclose(
            drive, expected, rtol=0, atol=1e-9 * np.abs(expected).max()
        )
        starts = np.arange(200) * cfg.dt - gw_start
        for edge in window:
            assert np.any((starts < edge) & (edge < starts + cfg.dt))
        edges = grids[-1]  # the accepted grid
        assert np.setdiff1d(edges, ends).size >= 10  # panel edges inside steps

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        source=st.sampled_from(["monochromatic", "chirp at resonance", "chirp at its start"]),
        omega_dt=st.floats(0.1, 40.0),
        n_steps=st.integers(1, 300),
        detune=st.floats(0.8, 1.25),
        start=st.floats(-0.6, 0.6),
        lo=st.floats(-0.3, 0.95),
        width=st.floats(0.02, 1.3),
    )
    def test_increments_sum_to_displacement_beta(
        self, source, omega_dt, n_steps, detune, start, lo, width
    ):
        # window edges off the step grid, runs that start before or after
        # the signal clock's zero (negative and positive gw_start) and, for
        # the chirp, runs across the resonance or across its start at s = 0
        chirp = source != "monochromatic"
        spec = self.FIG3 if chirp else toy_detector()
        omega = mode_frequency(spec)
        cfg = MeasurementConfig(dt=omega_dt / omega, t_m=0.5, t_meas=1e3, dim=4)
        duration = n_steps * cfg.dt
        if chirp:
            signal = self.CHIRP
            anchor = resonance_time(signal.nu0, signal.k, omega) if "resonance" in source else 0.0
        else:
            signal, anchor = MonochromaticWave(h0=1e-21, nu=detune * omega, phi0=0.3), 0.0
        gw_start = -(anchor + start * duration)
        window = (-gw_start + lo * duration, -gw_start + (lo + width) * duration)
        if chirp:  # clear of coalescence, where hddot has no finite quadrature
            window = (window[0], min(window[1], signal.coalescence - 1.0))
        if window[1] < window[0]:  # the cap fell before the start
            with pytest.raises(ValueError, match="reversed"):
                measurement._drive(spec, signal, cfg, duration, gw_start, window)
            return
        drive, events = measurement._drive(spec, signal, cfg, duration, gw_start, window)
        inside = (max(window[0], -gw_start), min(window[1], duration - gw_start))
        if inside[1] <= inside[0]:
            assert not drive.any() and events == []
            return
        beta = displacement_beta(spec, signal, inside).value
        assert abs(drive.sum() - beta) <= 1e-9 * abs(beta)

    def test_sampled_strain_steps_sum_to_its_trapezoid(self):
        # each step takes its share of the trapezoid over the stored samples
        # in the window, cut where the steps end (off the sample grid)
        spec = toy_detector()
        omega = mode_frequency(spec)
        strain = SampledStrain(0.0, 1e-3, 1e-21 * np.sin(omega * np.arange(3000) * 1e-3))
        cfg = MeasurementConfig(dt=0.0137, t_m=0.5, t_meas=10.0, dim=4)
        window = (0.3004, 2.0503)
        drive, _ = measurement._drive(spec, strain, cfg, 2.5, 0.21, window)
        ts = strain.times
        keep = (ts >= window[0]) & (ts <= window[1])
        beta = -1j * beta_prefactor(spec) * np.trapezoid(
            strain.hddot_samples[keep] * np.exp(1j * omega * ts[keep]), ts[keep]
        )
        assert abs(drive.sum() - beta) <= 1e-12 * abs(beta)
        steps = np.flatnonzero(drive)
        assert (steps[0], steps[-1]) == (37, 164)  # the steps that meet the window

    def test_window_beyond_the_node_budget_still_driven(self):
        # the step cuts do not count against the quadrature's node budget:
        # more steps than 2^23 / 33 panels
        spec = toy_detector()
        n_steps = 2**23 // 33 + 1000
        cfg = MeasurementConfig(dt=1e-4, t_m=0.5, t_meas=1e3, dim=4)
        duration = n_steps * cfg.dt
        wave = resonant_drive_for_beta(spec, 0.5, duration)
        drive, _ = measurement._drive(spec, wave, cfg, duration, 0.0, None)
        beta = displacement_beta(spec, wave, (0.0, duration)).value
        assert abs(drive.sum() - beta) <= 1e-9 * abs(beta)
        assert np.count_nonzero(drive) == n_steps


class TestDiagonalOracle:
    """Tie `diagonal_oracle` to the reference measurement operators."""

    dt, t_m, dim = 1e-2, 0.5, 6

    def reference_update(self, p, r):
        m = measurement_operator(r, self.dt, self.t_m, self.dim)
        return apply_normalized(QuantumState.from_diagonal(p), m).populations()

    def test_one_step_posterior_matches_measurement_operator(self):
        p = np.random.default_rng(3).dirichlet(np.ones(self.dim))
        for r in (-4.0, 0.0, 1.3, 2.5, 7.9, 20.0):
            np.testing.assert_allclose(
                posterior(p, np.array(r * self.dt), self.dt, self.t_m),
                self.reference_update(p, r),
                rtol=1e-10, atol=1e-15,
            )

    def test_integrated_readout_matches_stepwise_updates(self):
        rng = np.random.default_rng(4)
        p0 = rng.dirichlet(np.ones(self.dim))
        rs = 2.0 + math.sqrt(self.t_m / self.dt) * rng.standard_normal(60)
        p = p0
        for r in rs:
            p = self.reference_update(p, float(r))
        np.testing.assert_allclose(
            posterior(p0, np.array(rs.sum() * self.dt), rs.size * self.dt, self.t_m),
            p,
            rtol=1e-9, atol=1e-15,
        )

    def test_engine_matches_posterior_of_its_record(self):
        # a diagonal start without drive or noise runs as one population
        # stretch, whose populations are exactly the Bayes posterior of the
        # recorded readouts: p_n(k dt) from S = sum(r) dt over k steps
        p0 = np.random.default_rng(7).dirichlet(np.ones(3))
        cfg = MeasurementConfig(
            dt=self.dt, t_m=self.t_m, t_meas=10.0, dim=3, seed=8, record_stride=1
        )
        rec = run_trajectory(
            toy_detector(), None, cfg, duration=4.0 * self.t_m,
            initial_state=QuantumState.from_diagonal(p0),
        )
        k = np.arange(1, rec.times.size + 1)
        expected = posterior(
            p0, np.cumsum(rec.readout) * cfg.dt, (k * cfg.dt)[:, None], cfg.t_m
        )
        np.testing.assert_allclose(
            np.column_stack([rec.rho00, rec.rho11, rec.rho22]), expected,
            rtol=1e-9, atol=0.0,
        )

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 9),
        concentration=st.floats(1.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_born_draw_follows_populations(self, dim, concentration, seed):
        # a population stretch's readouts sit at a level drawn from its
        # populations: over an ensemble of one diagonal start, the share of
        # first readouts at level k is p_k to 3 sigma. The readout noise,
        # sqrt(t_m/dt) = 1e-3, leaves the level to rounding
        p = np.random.default_rng(seed).dirichlet(np.full(dim, concentration))
        cfg = MeasurementConfig(dt=1e-2, t_m=1e-8, t_meas=1.0, dim=dim, record_stride=1)
        n_traj = 1500
        starts = measurement._start_factors([QuantumState.from_diagonal(p)], dim)
        (_, batch), = ensemble_chunks(
            toy_detector(), None, cfg, n_traj, seed, cfg.dt,
            starts=np.repeat(starts, n_traj, axis=0), series=True,
        )
        levels = np.rint(batch.readouts[0]).astype(int)
        np.testing.assert_allclose(batch.readouts[0], levels, rtol=0, atol=1e-2)
        share = np.bincount(levels, minlength=dim) / n_traj
        sigma = np.sqrt(p * (1.0 - p) / n_traj)
        assert np.all(np.abs(share - p) <= 3.0 * sigma), (
            f"max deviation {np.max(np.abs(share - p) / sigma):.2f} sigma"
        )

    def test_mean_posterior_is_martingale(self):
        n_traj, n_steps = 4000, 200  # 4 t_m: most runs near a number state
        p0 = np.random.default_rng(5).dirichlet(np.ones(self.dim))
        p0s = np.tile(p0, (n_traj, 1))
        s, _ = simulate(
            p0s, self.dt, self.t_m, n_steps, 0.99, np.random.default_rng(6)
        )
        mean = posterior(p0s, s, n_steps * self.dt, self.t_m).mean(axis=0)
        sigma = np.sqrt(p0 * (1.0 - p0) / n_traj)
        assert np.all(np.abs(mean - p0) <= 3.0 * sigma), (
            f"max drift ratio {np.max(np.abs(mean - p0) / sigma):.2f} sigma"
        )


class TestStretch:
    """`_Stretch.advance` against `diagonal_oracle.stretch_records`, which
    takes each trajectory alone, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 30),
        n=st.integers(1, 64),
        stride=st.integers(1, 4),
        offsets=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        lengths=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
        coef=st.sampled_from([-2.5e-4, -5e-4, -5e-3, -5.0, -500.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_advance_matches_each_trajectory_alone(
        self, dim, n, stride, offsets, lengths, zero_share, coef, seed
    ):
        # two successive blocks carry S and j; a share of the populations
        # is exactly 0, never all of a trajectory's
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(dim), size=n)
        dead = rng.random((n, dim)) < zero_share
        dead[np.arange(n), rng.integers(dim, size=n)] = False
        p[dead] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        us = rng.random(n)
        stretch = measurement._Stretch(p, us, coef)
        levels = [born_level(p[t], us[t]) for t in range(n)]
        np.testing.assert_array_equal(stretch.level, levels)
        carried = [(0.0, 0)] * n
        for offset, m in zip(offsets, lengths):
            xis = math.sqrt(-0.5 / coef) * rng.standard_normal((m, n))
            rs, pops = stretch.advance(xis, offset % stride, stride)
            assert pops.shape == (dim, len(rs), n) and pops.flags.c_contiguous
            for t in range(n):
                ref_rs, ref_pops, *carried[t] = stretch_records(
                    p[t], levels[t], *carried[t], xis[:, t], offset % stride, stride, coef
                )
                np.testing.assert_array_equal(rs[:, t], ref_rs)
                np.testing.assert_array_equal(pops[:, :, t].T, ref_pops)
            np.testing.assert_array_equal(stretch.total, [total for total, _ in carried])


class TestDetectJump:
    @staticmethod
    def whole_series_starts(times, series, threshold, hold, cuts=()):
        """Jump times of each column of `series`, from `_run_starts` fed the
        blocks between `cuts` (the whole series in one without), its run
        carried from block to block."""
        run = np.zeros(series.shape[1], dtype=np.intp)
        starts = [[] for _ in range(series.shape[1])]
        for lo, hi in zip([0, *cuts], [*cuts, len(series)]):
            rows, cols, run = measurement._run_starts(series[lo:hi] >= threshold, run, hold)
            for row, col in zip(rows, cols):
                starts[col].append(lo + row + 1 - hold)
        return [times[idx].tolist() for idx in starts]

    @staticmethod
    def random_cuts(rng, n_rec, n_blocks):
        """n_blocks - 1 random cuts, plus a repeated one, so that one block
        is empty, inside the series where it has two records or more."""
        empty = rng.integers(1, n_rec) if n_rec > 1 else 0
        return np.sort([*np.unique(rng.integers(0, n_rec + 1, n_blocks - 1)), empty, empty])

    def record_from(self, rho11):
        rho11 = np.asarray(rho11, dtype=float)
        times = 0.1 * np.arange(1, rho11.size + 1)
        zeros = np.zeros_like(rho11)
        return TrajectoryRecord(
            times=times, readout=zeros, rho00=1.0 - rho11, rho11=rho11,
            rho22=zeros,
        )

    def test_no_event_on_flat_zero(self):
        assert detect_jump(self.record_from(np.zeros(50))) == []

    def test_single_event_on_step_function(self):
        series = np.concatenate([np.zeros(10), 0.95 * np.ones(20)])
        events = detect_jump(self.record_from(series))
        assert len(events) == 1
        time, kind = events[0]
        assert kind == "jump_detected"
        assert time == pytest.approx(0.1 * 11)  # first point of the excursion

    def test_short_excursion_filtered(self):
        series = np.concatenate([np.zeros(5), [0.95, 0.95], np.zeros(5)])
        assert detect_jump(self.record_from(series)) == []

    def test_two_separate_excursions(self):
        series = np.concatenate(
            [np.zeros(3), 0.95 * np.ones(4), np.zeros(3), 0.97 * np.ones(5)]
        )
        events = detect_jump(self.record_from(series))
        assert len(events) == 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_rec=st.integers(1, 60),
        n=st.integers(1, 5),
        threshold=st.floats(0.05, 0.95),
        hold=st.integers(1, 6),
        stay=st.floats(0.3, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_record_by_record_oracle(
        self, n_rec, n, threshold, hold, stay, seed
    ):
        # runs above the threshold of random lengths, values exactly at the
        # threshold among them, and runs touching the first record (column
        # 0) and the last (last column); `detect_jump` applies the one rule
        # of the ensembles to column 0
        rng = np.random.default_rng(seed)
        above = np.empty((n_rec, n), dtype=bool)
        above[0] = rng.random(n) < 0.5
        for k in range(1, n_rec):
            above[k] = above[k - 1] ^ (rng.random(n) > stay)
        above[0, 0] = above[-1, -1] = True
        series = np.where(
            above, rng.uniform(threshold, 1.0, (n_rec, n)),
            rng.uniform(0.0, threshold, (n_rec, n)),
        )
        series[above & (rng.random((n_rec, n)) < 0.2)] = threshold
        times = np.cumsum(rng.uniform(0.01, 0.1, n_rec))
        expected = [jump_starts(times, col, threshold, hold) for col in series.T]
        assert self.whole_series_starts(times, series, threshold, hold) == expected
        rec = TrajectoryRecord(times, series[:, 0], series[:, 0], series[:, 0],
                               series[:, 0])
        assert detect_jump(rec) == [
            (t, "jump_detected")
            for t in jump_starts(times, series[:, 0], JUMP_THRESHOLD, JUMP_HOLD)
        ]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_rec=st.integers(1, 300),
        n=st.integers(1, 5),
        hold=st.integers(1, 8),
        stay=st.floats(0.5, 0.97),
        n_blocks=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_by_block_matches_whole_series(
        self, n_rec, n, hold, stay, n_blocks, seed
    ):
        # excursions cross the block edges at random cuts; each series'
        # open excursion carries over, so the starts are the whole series'
        threshold = 0.9
        rng = np.random.default_rng(seed)
        above = np.empty((n_rec, n), dtype=bool)
        above[0] = rng.random(n) < 0.5
        for k in range(1, n_rec):
            above[k] = above[k - 1] ^ (rng.random(n) > stay)
        series = np.where(
            above, rng.uniform(threshold, 1.0, (n_rec, n)),
            rng.uniform(0.0, threshold, (n_rec, n)),
        )
        series[above & (rng.random((n_rec, n)) < 0.1)] = threshold
        times = np.cumsum(rng.uniform(0.01, 0.1, n_rec))
        cuts = self.random_cuts(rng, n_rec, n_blocks)
        blocked = self.whole_series_starts(times, series, threshold, hold, cuts)
        expected = [jump_starts(times, col, threshold, hold) for col in series.T]
        assert blocked == expected
        assert self.whole_series_starts(times, series, threshold, hold) == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_rec=st.integers(1, 200),
        n=st.integers(1, 40),
        hold=st.integers(1, 6),
        busy=st.floats(0.0, 1.0),
        n_blocks=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_flags_over_blocks_and_columns(
        self, n_rec, n, hold, busy, n_blocks, seed
    ):
        # a share `busy` of the series cross the threshold, in a few bursts
        # each, so most blocks hold flags in some columns only, and an
        # excursion open at a cut may find no flag in the next block
        threshold = 0.5
        rng = np.random.default_rng(seed)
        series = rng.uniform(0.0, threshold, (n_rec, n))
        for col in np.flatnonzero(rng.random(n) < busy):
            for _ in range(rng.integers(1, 4)):
                lo = rng.integers(0, n_rec)
                hi = min(n_rec, lo + rng.integers(1, 2 * hold + 2))
                series[lo:hi, col] = rng.uniform(threshold, 1.0, hi - lo)
        series[rng.random((n_rec, n)) < 0.02] = threshold
        times = np.arange(n_rec, dtype=float)
        cuts = self.random_cuts(rng, n_rec, n_blocks)
        blocked = self.whole_series_starts(times, series, threshold, hold, cuts)
        assert blocked == [
            jump_starts(times, col, threshold, hold) for col in series.T
        ]


class TestRunEnsemble:
    def test_single_trajectory_matches_run_trajectory(self):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=3.0, dim=8, seed=13)
        wave = resonant_drive_for_beta(spec, 0.6, 1.5)
        summary = run_ensemble(
            spec, wave, cfg, n_traj=1, base_seed=99,
            duration=3.0, window=(0.0, 1.5),
        )
        child = np.random.SeedSequence(99).spawn(1)[0]
        rec = run_trajectory(
            spec, wave, cfg, duration=3.0, window=(0.0, 1.5),
            rng=np.random.default_rng(child),
        )
        np.testing.assert_array_equal(summary.mean_rho11, rec.rho11)

    def test_chunking_does_not_change_results(self, monkeypatch):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=13)
        def summary(size):
            set_chunk(monkeypatch, size, cfg, 2.0)
            return measurement._summarize(ensemble_chunks(spec, None, cfg, 7, 5, 2.0), 7)

        a, b = summary(2), summary(7)
        np.testing.assert_array_equal(a.mean_rho00, b.mean_rho00)
        assert a.n_detected == b.n_detected

        # ground starts without a drive only take ground steps; a trajectory
        # that carries factors or populations is the same bits in any chunk
        def series(signal, cfg, size, starts=None):
            set_chunk(monkeypatch, size, cfg, 3.0, starts, series=True)
            chunks = ensemble_chunks(
                spec, signal, cfg, 7, 5, 3.0, 0.5, (0.0, 1.0), starts=starts, series=True,
            )
            return np.concatenate([
                np.concatenate([b.readouts[:, None], b.pops], axis=1)
                for _, b in chunks
            ], axis=2)

        noisy = dataclasses.replace(cfg, kappa=0.05, thermal_rate=0.5)
        drive = resonant_drive_for_beta(spec, 0.6, 1.0)
        rng = np.random.default_rng(8)
        diagonal = measurement._start_factors(
            [QuantumState.from_diagonal(rng.dirichlet(np.ones(8))) for _ in range(7)], 8
        )
        for signal, run_cfg, starts in ((drive, noisy, None), (None, cfg, diagonal)):
            whole = series(signal, run_cfg, 7, starts)
            assert whole.shape == (100, 4, 7)
            for size in (1, 3):
                np.testing.assert_array_equal(series(signal, run_cfg, size, starts), whole)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(3, 12),
        beta=st.floats(0.0, 1.5),
        kappa=st.sampled_from([0.0, 1e-3, 1e-2]),
        thermal_rate=st.sampled_from([0.0, 3.0]),
        rank=st.integers(0, 3),
        t_m=st.floats(0.02, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recorded_populations_never_exceed_one(
        self, dim, beta, kappa, thermal_rate, rank, t_m, seed
    ):
        # records are carried populations p / sum(p), so none exceeds 1 even
        # by roundoff: the benchmark's populations check has no slack
        spec = toy_detector()
        cfg = MeasurementConfig(
            dt=1e-2, t_m=t_m, t_meas=1.0, dim=dim, kappa=kappa,
            thermal_rate=thermal_rate, record_stride=1,
        )
        rng = np.random.default_rng(seed)
        starts = None
        if rank:  # mixed starts of this rank, ground otherwise
            a = rng.standard_normal((3, dim, rank)) + 1j * rng.standard_normal((3, dim, rank))
            rhos = a @ a.conj().swapaxes(1, 2)
            starts = measurement._start_factors(
                [QuantumState(dim, r / np.trace(r).real) for r in rhos], dim
            )
        wave = resonant_drive_for_beta(spec, beta, 0.5) if beta else None
        try:
            (_, batch), = ensemble_chunks(
                spec, wave, cfg, 3, seed, 1.5, 0.2, (0.0, 0.5), starts=starts, series=True
            )
        except TraceUnderflowError:
            return  # thermal jumps out of the top level
        assert 0.0 <= batch.pops.min() and batch.pops.max() <= 1.0
        assert batch.pops.sum(axis=1).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("n_rec", [1, 63, 64, 65, 128, 130])
    def test_purity_crossing_is_first_record_over_threshold(self, n_rec, monkeypatch):
        # records are reduced in blocks; a crossing is still the first
        # recorded time the largest population reaches the threshold
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.05, t_meas=10.0, dim=3, seed=3, record_stride=2
        )
        starts = [QuantumState.from_diagonal([0.4, 0.35, 0.25])] * 4
        factors = measurement._start_factors(starts, 3)
        set_chunk(monkeypatch, 1, cfg, n_rec * 2e-2, factors)
        chunks = ensemble_chunks(
            toy_detector(), None, cfg, 4, cfg.seed, n_rec * 2e-2,
            starts=factors, purity_threshold=0.95,
        )
        summary = measurement._summarize(chunks, 4)
        assert summary.times.size == n_rec
        for k, crossing in enumerate(summary.purity_first_crossing):
            child = np.random.SeedSequence(cfg.seed).spawn(4)[k]
            rec = run_trajectory(
                toy_detector(), None, cfg, duration=n_rec * 2e-2,
                rng=np.random.default_rng(child), initial_state=starts[k],
            )
            # rho00..rho22 are the whole diagonal at dim 3
            top = np.max([rec.rho00, rec.rho11, rec.rho22], axis=0)
            hit = np.flatnonzero(top >= 0.95)
            expected = rec.times[hit[0]] if hit.size else np.nan
            np.testing.assert_equal(crossing, expected)

    @pytest.mark.parametrize("threshold", [math.nan, 1.5, 0.0, -1.0])
    def test_purity_threshold_outside_unit_interval_rejected(self, threshold):
        # NaN and 1.5 gave all-NaN crossings, 0 and -1 a crossing at the
        # first record
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=1.0, dim=4)
        with pytest.raises(ValueError, match=r"purity_threshold must be in \(0, 1\]"):
            run_ensemble(toy_detector(), None, cfg, 2, purity_threshold=threshold)
        summary = run_ensemble(
            toy_detector(), None, cfg, 2, purity_threshold=1.0,
            initial_states=[QuantumState.ground(4)] * 2,
        )
        # a ground state is pure from the first record on
        np.testing.assert_array_equal(summary.purity_first_crossing, summary.times[[0, 0]])

    def test_underflow_names_ensemble_trajectory(self, monkeypatch):
        # a jump every step: trajectory 10 starts in the top level, so its
        # first thermal jump leaves nothing
        cfg = MeasurementConfig(
            dt=1e-2, t_m=1e6, t_meas=1.0, dim=8, thermal_rate=1.0 / 1e-2
        )
        initials = [QuantumState.ground(8) for _ in range(12)]
        initials[10] = QuantumState.from_diagonal(np.eye(8)[7])
        starts = measurement._start_factors(initials, 8)
        for size in (4, 64):
            set_chunk(monkeypatch, size, cfg, 2e-2, starts)
            chunks = ensemble_chunks(toy_detector(), None, cfg, 12, cfg.seed, 2e-2, starts=starts)
            with pytest.raises(TraceUnderflowError, match=r"trajectory 10\b"):
                measurement._summarize(chunks, 12)

    def test_invalid_initial_states_rejected(self):
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=1.0, dim=4)
        non_hermitian = np.eye(4, dtype=complex) / 4.0
        non_hermitian[0, 1] = 0.1
        bad = {
            "eigenvalue": np.diag([1.5, -0.5, 0.0, 0.0]),
            "trace": np.diag([1.0, 1.0, 0.0, 0.0]),
            "Hermiticity": non_hermitian,
        }
        for match, rho in bad.items():
            state = QuantumState(4, rho)
            with pytest.raises(StateInvariantError, match=match):
                run_trajectory(toy_detector(), None, cfg, initial_state=state)
            with pytest.raises(StateInvariantError, match=match):
                run_ensemble(
                    toy_detector(), None, cfg, n_traj=3,
                    initial_states=[QuantumState.ground(4), QuantumState.ground(4), state],
                )

    def test_invalid_start_rejected_before_any_step(self, monkeypatch):
        # every start is checked before the first chunk runs, and the error
        # names the ensemble trajectory
        calls = []

        def never(*args, **kwargs):
            calls.append(1)
            raise AssertionError("a stretch began before the starts were checked")

        # undriven, noiseless starts run as a population stretch, which
        # begins with a `_Stretch`
        monkeypatch.setattr(measurement, "_Stretch", never)
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=1.0, dim=4)
        starts = [QuantumState.ground(4) for _ in range(200)]
        starts[150] = QuantumState(4, np.diag([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(
            StateInvariantError, match=r"trajectory 150: negative eigenvalue"
        ):
            run_ensemble(toy_detector(), None, cfg, n_traj=200, initial_states=starts)
        assert calls == []

    def test_qnd_martingale_small(self):
        # measurement only: ensemble-mean populations are conserved
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=1.0, t_meas=50.0, dim=2, seed=0)
        n = 400
        summary = run_ensemble(spec, None, cfg, n_traj=n, duration=10.0)
        # all trajectories start in the ground state: mean rho00 stays 1
        np.testing.assert_allclose(summary.mean_rho00, 1.0, atol=1e-10)

    def test_detection_fraction_poisson(self):
        # Bernoulli-ensemble oracle: jump fraction tracks P(n=1) ~ |beta|^2
        spec = toy_detector()
        duration = 30.0
        drive_len = 2.0
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.5, t_meas=60.0, dim=12, seed=21, record_stride=2
        )
        target = 0.45  # |beta|: P1 = 0.2 * exp(-0.2) ~ 0.165
        wave = resonant_drive_for_beta(spec, target, drive_len)
        n = 300
        summary = run_ensemble(
            spec, wave, cfg, n_traj=n, duration=duration,
            gw_start=1.0, window=(0.0, drive_len),
        )
        beta = displacement_beta(spec, wave, (0.0, drive_len))
        p1 = math.exp(-beta.magnitude**2) * beta.magnitude**2
        band = 3.0 * math.sqrt(p1 * (1 - p1) / n)
        assert abs(summary.detection_fraction - p1) < band + 0.02

    def test_thermal_jump_rate(self):
        # weak measurement + thermal jumps: mean occupation grows as rate*t
        spec = toy_detector()
        rate = 0.2
        duration = 4.0
        cfg = MeasurementConfig(
            dt=1e-2, t_m=1e6, t_meas=10.0, dim=10, seed=8, thermal_rate=rate
        )
        n = 300
        summary = run_ensemble(spec, None, cfg, n_traj=n, duration=duration)
        mean_n = (
            summary.mean_rho11[-1]
            + 2 * summary.mean_rho22[-1]
            # higher levels are negligible at rate*t = 0.8
        )
        expected = rate * duration
        # E[N] = rate*t exactly; the truncated estimate keeps n <= 2
        from scipy.stats import poisson

        mu = rate * duration
        visible = sum(k * poisson.pmf(k, mu) for k in (1, 2))
        assert mean_n == pytest.approx(visible, abs=3.0 * math.sqrt(mu / n) + 0.05)

    def test_default_chunk_matches_chunks_of_64(self, monkeypatch):
        # the whole ensemble in one chunk gives the same detections, jump
        # times and purity crossings as chunks of 64; sums differ by roundoff
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.3, t_meas=3.0, dim=6, seed=17)
        rng = np.random.default_rng(3)
        starts = [
            QuantumState.from_diagonal(rng.dirichlet(np.ones(6) * 0.3)) for _ in range(150)
        ]
        kwargs = dict(
            duration=4.0, gw_start=0.5, window=(0.0, 1.0), initial_states=starts,
            purity_threshold=0.95,
        )
        wave = resonant_drive_for_beta(spec, 0.8, 1.0)
        one = run_ensemble(spec, wave, cfg, n_traj=150, **kwargs)
        factors = measurement._start_factors(starts, 6)
        set_chunk(monkeypatch, 64, cfg, 4.0, factors)
        split = measurement._summarize(
            ensemble_chunks(
                spec, wave, cfg, 150, cfg.seed, 4.0, 0.5, (0.0, 1.0),
                starts=factors, purity_threshold=0.95,
            ),
            150,
        )
        assert one.n_detected == split.n_detected > 0
        assert one.jump_times == split.jump_times
        np.testing.assert_array_equal(one.purity_first_crossing, split.purity_first_crossing)
        assert np.isfinite(one.purity_first_crossing).any()
        for name in ("mean_rho00", "mean_rho11", "mean_rho22", "mean_populations"):
            np.testing.assert_allclose(getattr(one, name), getattr(split, name), rtol=0, atol=1e-13)

    def test_criterion_ensembles_fit_one_default_chunk(self):
        # criterion 8 (500 x 42 s, dim 30) and criterion 9 (1000 x 40 s,
        # dim 10, rank-10 starts, a record every step) run as one chunk
        fig3 = MeasurementConfig(dt=1e-3, t_m=2.0, t_meas=40.0, dim=30)
        qnd = MeasurementConfig(dt=2e-3, t_m=2.0, t_meas=1e4, dim=10, record_stride=1)
        for cfg, n_traj, rank, n_rec in ((fig3, 500, 1, 14_000), (qnd, 1000, 10, 20_000)):
            per_traj = measurement._trajectory_bytes(cfg, rank, n_rec, series=False)
            assert measurement._CHUNK_BYTES // per_traj >= n_traj


class TestNoiseBlocks:
    """Noise drawn a block of steps at a time, each source from its own
    stream (the readout normals from each trajectory's generator, the kappa
    and thermal noise from its two spawned children), as if drawn all at
    once."""

    CFG = MeasurementConfig(
        dt=1e-2, t_m=0.5, t_meas=1.0, dim=8, kappa=0.05, thermal_rate=2.0,
        record_stride=1,
    )

    def series(self):
        spec = toy_detector()
        (_, batch), = ensemble_chunks(
            spec, resonant_drive_for_beta(spec, 0.6, 1.0), self.CFG, 3, 5, 1.5, 0.2,
            (0.0, 1.0), series=True,
        )
        return np.concatenate([batch.readouts[:, None], batch.pops], axis=1)

    @pytest.mark.parametrize("block, floor", [(1, 1), (7, 3), (64, 16)])
    def test_block_size_does_not_change_records(self, monkeypatch, block, floor):
        whole = self.series()  # 150 steps in one block
        monkeypatch.setattr(measurement, "_NOISE_BLOCK", block)
        monkeypatch.setattr(measurement, "_NOISE_FLOOR", floor)
        np.testing.assert_array_equal(self.series(), whole)

    @pytest.mark.parametrize("block, floor, floats", [(7, 3, 1 << 15), (64, 16, 1), (1, 1, 100)])
    def test_blocks_do_not_change_population_records(self, monkeypatch, block, floor, floats):
        # a population stretch carries its summed readout from noise block
        # to noise block and from one block of posteriors to the next: 150
        # steps of diagonal starts, a record every other step, across a
        # reinit at step 100 and into a second stretch after a drive
        cfg = dataclasses.replace(self.CFG, kappa=0.0, thermal_rate=0.0, record_stride=2)
        spec = toy_detector()
        rng = np.random.default_rng(2)
        starts = measurement._start_factors(
            [QuantumState.from_diagonal(rng.dirichlet(np.ones(8))) for _ in range(3)], 8
        )

        def series():
            (_, batch), = ensemble_chunks(
                spec, resonant_drive_for_beta(spec, 0.6, 0.1), cfg, 3, 5, 1.5, 1.05,
                (0.0, 0.1), starts=starts, series=True,
            )
            return np.concatenate([batch.readouts[:, None], batch.pops], axis=1)

        whole = series()  # one noise block, one block of posteriors a stretch
        monkeypatch.setattr(measurement, "_NOISE_BLOCK", block)
        monkeypatch.setattr(measurement, "_NOISE_FLOOR", floor)
        monkeypatch.setattr(measurement, "_POSTERIOR_FLOATS", floats)
        np.testing.assert_array_equal(series(), whole)

    @pytest.mark.parametrize("block, floor", [(1 << 16, 256), (64, 16), (7, 3), (1, 1)])
    @pytest.mark.parametrize("kappa, thermal_rate", [(0.0, 0.0), (0.05, 0.0), (0.0, 2.0), (0.05, 2.0)])
    def test_each_source_keeps_its_own_stream(
        self, monkeypatch, block, floor, kappa, thermal_rate
    ):
        # whichever other source is on and however the steps fall into
        # blocks: the readout normals come from each generator, the kappa
        # pairs from child 0 and the thermal uniforms from child 1 of its
        # spawn(3), each as one draw, and the Born uniforms from child 2
        monkeypatch.setattr(measurement, "_NOISE_BLOCK", block)
        monkeypatch.setattr(measurement, "_NOISE_FLOOR", floor)
        cfg = dataclasses.replace(self.CFG, kappa=kappa, thermal_rate=thermal_rate)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(3)]
        _, *streams = zip(*measurement._noise_blocks(rngs, cfg, 150))
        xi, gammas, jumps = (None if s[0] is None else np.concatenate(s) for s in streams)

        # fresh seed sequences: spawning advances a sequence's child count
        refs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(3)]
        children = [g.spawn(2) for g in refs]
        np.testing.assert_array_equal(
            xi, np.stack([cfg.readout_sigma * g.standard_normal(150) for g in refs], axis=1)
        )
        if kappa:
            expected = [
                (cfg.gamma_sigma * g.standard_normal(300)).view(complex) for g, _ in children
            ]
            np.testing.assert_array_equal(gammas, np.stack(expected, axis=1))
        else:
            assert gammas is None
        if thermal_rate:
            expected = [g.random(150) < cfg.thermal_rate * cfg.dt for _, g in children]
            np.testing.assert_array_equal(jumps, np.stack(expected, axis=1))
            assert jumps.any()
        else:
            assert jumps is None
        if kappa or thermal_rate:
            return
        # only quiet runs have population stretches: here diagonal starts
        # up to the reinit at step 100, one Born uniform each, then ground
        # steps
        p = np.random.default_rng(6).dirichlet(np.ones(cfg.dim), size=3)
        starts = measurement._start_factors([QuantumState.from_diagonal(q) for q in p], cfg.dim)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(3)]
        batch = measurement._run_batch(
            cfg, rngs, np.zeros(150, dtype=complex), [], starts, series=True
        )
        refs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(3)]
        us = np.array([g.spawn(3)[2].random() for g in refs])
        levels = (np.cumsum(p, axis=1) < us[:, None]).sum(axis=1)
        np.testing.assert_array_equal(batch.readouts[:100], levels + xi[:100])
        np.testing.assert_array_equal(batch.readouts[100:], xi[100:])

    @pytest.mark.parametrize("block", [16, 1 << 16])  # 10 blocks, one block
    @pytest.mark.parametrize("kappa, thermal_rate", [(0.0, 0.0), (0.05, 0.0), (0.0, 2.0), (0.05, 2.0)])
    def test_run_trajectory_leaves_rng_as_one_draw_would(
        self, monkeypatch, block, kappa, thermal_rate
    ):
        # the kappa and thermal noise come from spawned children, so the
        # generator itself draws the run's 150 readout normals and no more
        monkeypatch.setattr(measurement, "_NOISE_BLOCK", block)
        monkeypatch.setattr(measurement, "_NOISE_FLOOR", 16)
        cfg = dataclasses.replace(self.CFG, kappa=kappa, thermal_rate=thermal_rate)
        rng = np.random.default_rng(11)
        run_trajectory(toy_detector(), None, cfg, duration=1.5, rng=rng)
        ref = np.random.default_rng(11)
        ref.standard_normal(150)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestTraceFloor:
    """Each noise block is tested once for a trace underflow; only a block
    that fails the test, and the steps with a thermal jump, check their
    traces step by step."""

    SPEC = toy_detector()
    # populations 1/2 at n = 0 and n = 29 under coef = -500: every outcome
    # weighs one of the two levels by e^{-500 * 29^2 / 4} = 0
    STRONG = MeasurementConfig(dt=1e-2, t_m=1e-5, t_meas=1.0, dim=30)
    SPLIT = QuantumState.from_diagonal(np.eye(30)[0] / 2 + np.eye(30)[29] / 2)

    @staticmethod
    def outcome(run):
        """The fields of a run's result, or its error, as one comparable list."""
        try:
            result = run()
        except TraceUnderflowError as exc:
            return [str(exc)]
        return [getattr(result, f.name) for f in dataclasses.fields(result)]

    @pytest.mark.parametrize("mixed", [False, True], ids=["ground", "mixed"])
    @pytest.mark.parametrize(
        "kappa, thermal_rate", [(0.0, 0.0), (0.05, 0.0), (0.0, 2.0), (0.05, 2.0)],
        ids=["none", "kappa", "thermal", "both"],
    )
    @pytest.mark.parametrize("driven", [False, True], ids=["undriven", "driven"])
    def test_numbers_held_when_every_step_checks(
        self, monkeypatch, mixed, kappa, thermal_rate, driven
    ):
        # 150 steps in blocks of 16, the window (run time 0.4-1.4 s) across
        # the reinit at 1 s
        monkeypatch.setattr(measurement, "_NOISE_BLOCK", 16)
        monkeypatch.setattr(measurement, "_NOISE_FLOOR", 16)
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.5, t_meas=1.0, dim=6, kappa=kappa,
            thermal_rate=thermal_rate, record_stride=1,
        )
        rng = np.random.default_rng(4)
        starts = [
            QuantumState.from_diagonal(rng.dirichlet(np.ones(6))) if mixed
            else QuantumState.ground(6) for _ in range(3)
        ]
        wave = resonant_drive_for_beta(self.SPEC, 0.6, 1.0) if driven else None
        kwargs = dict(duration=1.5, gw_start=0.4, window=(0.0, 1.0))
        runs = [
            lambda: run_ensemble(
                self.SPEC, wave, cfg, 3, 7, initial_states=starts,
                purity_threshold=0.6, **kwargs,
            ),
            lambda: run_trajectory(
                self.SPEC, wave, cfg, rng=np.random.default_rng(7),
                initial_state=starts[0], **kwargs,
            ),
        ]
        held, tests = measurement._trace_floor_holds, []

        def counted(*args):
            tests.append(held(*args))
            return tests[-1]

        monkeypatch.setattr(measurement, "_trace_floor_holds", counted)
        hoisted = [self.outcome(run) for run in runs]
        assert tests and all(tests)  # every block skipped its per-step checks
        monkeypatch.setattr(measurement, "_trace_floor_holds", lambda *a: False)
        for a, b in zip(hoisted, [self.outcome(run) for run in runs]):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_underflow_still_raised_without_thermal_jumps(self):
        # driven starts take factor steps (`_update`), none with a thermal jump
        wave = resonant_drive_for_beta(self.SPEC, 0.6, 0.5)
        message = "trajectory {}: update trace 0.000e+00 underflowed at t = 0.01 s"
        with pytest.raises(TraceUnderflowError) as exc:
            run_trajectory(
                self.SPEC, wave, self.STRONG, duration=0.5, initial_state=self.SPLIT
            )
        assert str(exc.value) == message.format(0)
        starts = [QuantumState.ground(30), QuantumState.ground(30), self.SPLIT]
        with pytest.raises(TraceUnderflowError) as exc:
            run_ensemble(
                self.SPEC, wave, self.STRONG, 3, duration=0.5, initial_states=starts,
                purity_threshold=0.99,
            )
        assert str(exc.value) == message.format(2)

    def test_strong_population_stretch_stays_finite(self):
        # undriven, the split start is a population stretch: its readouts
        # sit at a level drawn by the Born rule and its posterior is taken
        # in log space, so nothing underflows. The first record decides the
        # level for good: rho00 is 0 or 1
        rec = run_trajectory(
            self.SPEC, None, self.STRONG, duration=0.5, initial_state=self.SPLIT
        )
        assert rec.rho00[0] in (0.0, 1.0)
        np.testing.assert_array_equal(rec.rho00, rec.rho00[0])
        starts = [QuantumState.ground(30), self.SPLIT, self.SPLIT]
        summary = run_ensemble(
            self.SPEC, None, self.STRONG, 3, duration=0.5, initial_states=starts,
            purity_threshold=0.99,
        )
        pops = summary.mean_populations
        assert np.isfinite(pops).all()
        np.testing.assert_allclose(pops.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(summary.purity_first_crossing, summary.times[[0, 0, 0]])

    def test_block_test_fails_on_large_or_non_finite_inputs(self):
        coef, xis, d = -5e-3, np.full((4, 3), 10.0), np.zeros(4, dtype=complex)
        assert measurement._trace_floor_holds(xis, d, None, coef, 10)
        assert measurement._trace_floor_holds(xis, d, np.ones((4, 3), dtype=complex), coef, 10)
        # coef (|xi| + dim)^2 down to log(2e-300) = -690.1
        assert not measurement._trace_floor_holds(xis + 362.0, d, None, coef, 10)
        for bad in (np.nan, np.inf):
            assert not measurement._trace_floor_holds(np.where(xis > 0, bad, 0), d, None, coef, 10)
            assert not measurement._trace_floor_holds(xis, d + bad, None, coef, 10)
            gammas = np.full((4, 3), complex(bad, 0.0))
            assert not measurement._trace_floor_holds(xis, d, gammas, coef, 10)
        # |z| dim past the largest float: D(z)'s phases |z| Lambda overflow
        assert not measurement._trace_floor_holds(xis, d + 1e308, None, coef, 10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 40),
        xi=st.floats(-50.0, 50.0),
        coef=st.floats(-50.0, -1e-4),
        z=st.complex_numbers(max_magnitude=3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_bound(self, dim, xi, coef, z, seed):
        # sum_n p_n e^{coef (r - n)^2} >= e^{coef (|xi| + dim)^2} / 2 for
        # normalized p and r = <n> + xi, and D(z) keeps a factor's norm
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(dim))
        cache = DisplacementCache(dim)
        exponents = coef * (p @ cache.levels + xi - cache.levels) ** 2
        log_bound = math.log(0.5) + coef * (abs(xi) + dim) ** 2
        with np.errstate(divide="ignore"):  # in log space, where e^x underflows
            assert np.logaddexp.reduce(np.log(p) + exponents) >= log_bound
        # as the engine computes it, where the bound is above 0
        bound = math.exp(log_bound)
        w = np.exp(0.5 * exponents)
        amps = (np.sqrt(p) * np.exp(2j * np.pi * rng.random(dim)))[None, :, None]
        weighed = w[None, :, None] * amps
        q, rot = cache.phases(z)
        rotated = cache.rotate(w * q.conj(), rot, amps) * q[:, None]
        for factor in (weighed, rotated):
            assert measurement._populations(factor).sum() >= bound
