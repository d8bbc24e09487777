import dataclasses
import math

import numpy as np
import pytest
from diagonal_oracle import posterior, simulate
from hypothesis import given, settings
from hypothesis import strategies as st
from jump_oracle import jump_starts
from numpy.polynomial.hermite import hermgauss

from gravibar import measurement
from gravibar.detector import DetectorSpec, Material, mode_frequency
from gravibar.dynamics import beta_prefactor, displacement_beta
from gravibar.fock import (
    DisplacementCache,
    QuantumState,
    StateInvariantError,
    TraceUnderflowError,
    apply_normalized,
    coherent_state,
    creation,
    displacement_operator,
)
from gravibar.measurement import (
    MeasurementConfig,
    TrajectoryRecord,
    detect_jump,
    measurement_operator,
    run_ensemble,
    run_trajectory,
    sample_readout,
    step,
)
from gravibar.waveform import MonochromaticWave, strain_sample


class ZeroNoise:
    """Stand-in generator that returns zeros (readout noise switched off)."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


def toy_detector(omega: float = 2 * math.pi) -> DetectorSpec:
    material = Material("toy", density=1000.0, sound_speed=10.0)
    return DetectorSpec.from_frequency(material, omega, radius=0.1)


def resonant_drive_for_beta(
    spec: DetectorSpec, target_beta: float, duration: float
) -> MonochromaticWave:
    """Monochromatic wave sized so the accumulated |beta| is ~target."""
    omega = mode_frequency(spec)
    chi_per_h0 = omega**2 * duration / 2.0
    h0 = target_beta / (beta_prefactor(spec) * chi_per_h0)
    return MonochromaticWave(h0=h0, nu=omega)


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
            state.expect_number(), abs=3.0 * sigma / 100.0
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
        cache = DisplacementCache(dim)
        for _ in range(20):
            try:
                state, r = step(state, cfg, dbeta, rng, cache=cache)
            except TraceUnderflowError:
                # only a thermal jump out of the top Fock level is impossible
                assert state.populations()[-1] > 1.0 - 1e-9
                break
            assert np.isfinite(r)
            state.validate()

    def test_matches_reference_operators(self):
        # the factored update equals successive K rho K^dag / tr(...) with
        # the reference operators M(r), D(dbeta), D(gamma) and b^dag
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
                state.expect_number() + cfg.readout_sigma * 0.4, rel=1e-12
            )
            ref = apply_normalized(
                state, measurement_operator(r, cfg.dt, cfg.t_m, cfg.dim)
            )
            ops = [displacement_operator(dbeta, 8), displacement_operator(gamma, 8)]
            for k in ops + [creation(8)] * jumped:
                ref = apply_normalized(ref, k)
            np.testing.assert_allclose(new.rho, ref.rho, rtol=0, atol=1e-12)

    def test_kappa_noise_scalings(self):
        literal = self.cfg(kappa=1e-4)
        assert literal.gamma_sigma == pytest.approx(1e-4 / math.sqrt(1e-3))
        diffusive = self.cfg(kappa=1e-4, kappa_scaling="diffusive")
        assert diffusive.gamma_sigma == pytest.approx(1e-4 * math.sqrt(1e-3))

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
        # 0.6 s, ground steps after it
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
            replay = replay_with_step(spec, wave, cfg, 1.0, gw_start, window)
            np.testing.assert_allclose(replay.rho11, rec.rho11, atol=1e-12)
            assert rec.events == replay.events
        # the noisy case has thermal jumps, and the last one a reinit
        rng = np.random.default_rng(42)
        rng.standard_normal(100), rng.standard_normal((100, 2))
        assert np.any(rng.random(100) < 3.0 * 1e-2)
        assert (0.6, "reinit") in rec.events

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
        # the engine's ground, factor and population stretches against a
        # plain step() replay, for drive windows before, across and after a
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
            spec, wave, cfg, duration, gw_start, window, initial
        )
        for name in ("readout", "rho00", "rho11", "rho22"):
            np.testing.assert_allclose(
                getattr(rec, name), getattr(replay, name), rtol=0, atol=1e-12
            )
        assert rec.events == replay.events
        assert detect_jump(rec, threshold=0.5, hold=2) == [
            (t, "jump_detected")
            for t in jump_starts(rec.times, replay.rho11, 0.5, 2)
        ]


def replay_with_step(spec, wave, cfg, duration, gw_start, window, initial=None):
    """Replay `run_trajectory`'s noise through the public step().

    Draws the noise from the default generator of `cfg.seed` the way the
    engine does (readout normals, then noise normals, then thermal
    uniforms), drives with midpoint increments restricted to `window`, and
    reinitializes every t_meas. Returns the record and its events.
    """
    omega = mode_frequency(spec)
    pref = beta_prefactor(spec, omega)
    n_steps = int(round(duration / cfg.dt))
    steps_per_reinit = int(round(cfg.t_meas / cfg.dt))
    rng = np.random.default_rng(cfg.seed)
    readout = iter(rng.standard_normal(n_steps))
    gamma = iter(rng.standard_normal((n_steps, 2)) if cfg.kappa else ())
    uniforms = iter(rng.random(n_steps) if cfg.thermal_rate else ())

    class Replay:
        def standard_normal(self, size=None):
            return next(readout) if size is None else next(gamma)

        def random(self, size=None):
            return next(uniforms)

    replay = Replay()
    state = initial if initial is not None else QuantumState.ground(cfg.dim)
    events = [
        (gw_start + window[0], "gw_window_start"),
        (min(gw_start + window[1], duration), "gw_window_end"),
    ]
    rows = []
    for i in range(1, n_steps + 1):
        s_mid = (i - 0.5) * cfg.dt - gw_start
        dbeta = 0.0
        if window[0] <= s_mid <= window[1]:
            hddot = strain_sample(wave, s_mid).hddot
            dbeta = -1j * pref * hddot * np.exp(1j * omega * s_mid) * cfg.dt
        state, r = step(state, cfg, dbeta, replay)
        if i % steps_per_reinit == 0 and i < n_steps:
            state = QuantumState.ground(cfg.dim)
            events.append((i * cfg.dt, "reinit"))
        if i % cfg.record_stride == 0:
            rows.append([i * cfg.dt, r, *state.populations()[:3]])
    times, readouts, rho00, rho11, rho22 = np.array(rows).T
    return TrajectoryRecord(
        times, readouts, rho00, rho11, rho22, sorted(events, key=lambda ev: ev[0])
    )


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


class TestDetectJump:
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
        events = detect_jump(self.record_from(series), threshold=0.9, hold=3)
        assert len(events) == 1
        time, kind = events[0]
        assert kind == "jump_detected"
        assert time == pytest.approx(0.1 * 11)  # first point of the excursion

    def test_short_excursion_filtered(self):
        series = np.concatenate([np.zeros(5), [0.95, 0.95], np.zeros(5)])
        assert detect_jump(self.record_from(series), hold=3) == []

    def test_two_separate_excursions(self):
        series = np.concatenate(
            [np.zeros(3), 0.95 * np.ones(4), np.zeros(3), 0.97 * np.ones(5)]
        )
        events = detect_jump(self.record_from(series), hold=3)
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
        # 0) and the last (last column)
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
        assert measurement._jump_starts(times, series, threshold, hold) == expected
        rec = TrajectoryRecord(times, series[:, 0], series[:, 0], series[:, 0],
                               series[:, 0])
        assert detect_jump(rec, threshold, hold) == [
            (t, "jump_detected") for t in expected[0]
        ]

    def test_parameter_validation(self):
        rec = self.record_from(np.zeros(5))
        with pytest.raises(ValueError):
            detect_jump(rec, threshold=1.5)
        with pytest.raises(ValueError):
            detect_jump(rec, hold=0)
        # the ensemble reduction shares the check
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=1.0, dim=4)
        for bad in (dict(threshold=1.5), dict(threshold=0.0), dict(hold=0)):
            with pytest.raises(ValueError):
                run_ensemble(toy_detector(), None, cfg, n_traj=1, **bad)


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

    def test_chunking_does_not_change_results(self):
        spec = toy_detector()
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=13)
        a = run_ensemble(spec, None, cfg, n_traj=7, base_seed=5, chunk_size=2)
        b = run_ensemble(spec, None, cfg, n_traj=7, base_seed=5, chunk_size=7)
        np.testing.assert_array_equal(a.mean_rho00, b.mean_rho00)
        assert a.n_detected == b.n_detected

        # ground starts without a drive only take ground steps; a trajectory
        # that carries factors or populations is the same bits in any chunk
        def series(signal, cfg, chunk_size, starts=None):
            chunks = measurement._ensemble_chunks(
                spec, signal, cfg, 7, 5, 3.0, 0.5, (0.0, 1.0), chunk_size, starts
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
            for chunk_size in (1, 3):
                np.testing.assert_array_equal(
                    series(signal, run_cfg, chunk_size, starts), whole
                )

    @pytest.mark.parametrize("n_rec", [1, 63, 64, 65, 128, 130])
    def test_purity_crossing_is_first_record_over_threshold(self, n_rec):
        # records are reduced in blocks; a crossing is still the first
        # recorded time the largest population reaches the threshold
        cfg = MeasurementConfig(
            dt=1e-2, t_m=0.05, t_meas=10.0, dim=3, seed=3, record_stride=2
        )
        starts = [QuantumState.from_diagonal([0.4, 0.35, 0.25])] * 4
        summary = run_ensemble(
            toy_detector(), None, cfg, n_traj=4, duration=n_rec * 2e-2,
            initial_states=starts, purity_threshold=0.95, chunk_size=1,
        )
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

    def test_chunk_size_validation(self):
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=1.0, dim=4)
        for chunk_size in (0, -1):
            with pytest.raises(ValueError, match="chunk_size"):
                run_ensemble(toy_detector(), None, cfg, n_traj=2, chunk_size=chunk_size)

    def test_underflow_names_ensemble_trajectory(self):
        # a jump every step: trajectory 10 starts in the top level, so its
        # first thermal jump leaves nothing
        cfg = MeasurementConfig(
            dt=1e-2, t_m=1e6, t_meas=1.0, dim=8, thermal_rate=1.0 / 1e-2
        )
        initials = [QuantumState.ground(8) for _ in range(12)]
        initials[10] = QuantumState.from_diagonal(np.eye(8)[7])
        for chunk_size in (4, 64):
            with pytest.raises(TraceUnderflowError, match=r"trajectory 10\b"):
                run_ensemble(
                    toy_detector(), None, cfg, n_traj=12, duration=2e-2,
                    chunk_size=chunk_size, initial_states=initials,
                )

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
            raise AssertionError("_measure called before the starts were checked")

        # every stretch that carries a state measures through _measure
        monkeypatch.setattr(measurement, "_measure", never)
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
