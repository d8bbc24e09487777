import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from strain_oracle import sample, save_strain_series, second_derivative

from gravibar.constants import G, C_LIGHT, SOLAR_MASS
from gravibar.waveform import (
    ChirpDomainError,
    ChirpSource,
    MonochromaticWave,
    SampledStrain,
    StrainFormatError,
    chirp_frequency,
    chirp_phase,
    chirp_rate_k,
    chirp_window,
    coalescence_time,
    load_strain_series,
    resonance_crossing_time,
    resonance_time,
    strain_samples,
)

OMEGA = 2 * math.pi * 100.0


class TestChirpRate:
    def test_ns_merger_value(self):
        mc = 1.19 * SOLAR_MASS
        # direct evaluation of the two factors quoted for this chirp mass
        base = G * mc / (2 * C_LIGHT**3)
        assert base == pytest.approx(2.93e-6, rel=1e-2)
        k = chirp_rate_k(mc)
        assert k == pytest.approx(9.6 * base ** (5.0 / 3.0), rel=1e-12)
        assert k == pytest.approx(5.7645e-9, rel=1e-4)

    def test_power_law(self):
        k1 = chirp_rate_k(1.0 * SOLAR_MASS)
        k2 = chirp_rate_k(2.0 * SOLAR_MASS)
        assert k2 == pytest.approx(2 ** (5.0 / 3.0) * k1, rel=1e-12)

    def test_small_mass_limit(self):
        assert chirp_rate_k(1e-6) < 1e-60
        with pytest.raises(ValueError):
            chirp_rate_k(0.0)

    def test_nan_rejected(self):
        # NaN once passed the `<= 0` guard and gave k = nan
        with pytest.raises(ValueError, match="chirp_mass must be finite, got nan"):
            chirp_rate_k(math.nan)


class TestChirpFrequency:
    def test_initial_condition(self):
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        nu0 = 2 * math.pi * 30.0
        assert chirp_frequency(nu0, k, 0.0) == pytest.approx(nu0, rel=1e-14)

    def test_derivative_matches_power_law(self):
        # finite-difference oracle for dnu/dt at t = 0
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        nu0 = 2 * math.pi * 30.0
        eps = 1e-4
        fd = (chirp_frequency(nu0, k, eps) - chirp_frequency(nu0, k, -eps)) / (
            2 * eps
        )
        assert fd == pytest.approx(k * nu0 ** (11.0 / 3.0), rel=1e-6)

    def test_domain_error_at_coalescence(self):
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        nu0 = 2 * math.pi * 30.0
        t_c = coalescence_time(nu0, k)
        with pytest.raises(ChirpDomainError):
            chirp_frequency(nu0, k, t_c)
        with pytest.raises(ChirpDomainError):
            chirp_frequency(nu0, k, 2 * t_c)
        # diverges approaching the pole
        assert chirp_frequency(nu0, k, t_c * (1 - 1e-12)) > 1e3 * nu0

    @pytest.mark.parametrize("beyond", [1.0, 2.0])
    def test_both_clocks_raise_at_coalescence_on_a_grid(self, beyond):
        # the frequency's power form and the phase's log form each checked
        # their own rounding of 1 - t/t_c and returned values at t = t_c in
        # 720 and 673 of these 1 600 cases
        for mc in np.linspace(0.5, 3.0, 40):
            k = chirp_rate_k(mc * SOLAR_MASS)
            for f0 in np.linspace(10.0, 200.0, 40):
                nu0 = 2 * math.pi * f0
                t = coalescence_time(nu0, k) * beyond
                for clock in (chirp_frequency, chirp_phase):
                    with pytest.raises(ChirpDomainError, match="at/after coalescence"):
                        clock(nu0, k, t)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mc = float(rng.uniform(0.5, 30.0)) * SOLAR_MASS
            nu0 = float(rng.uniform(2 * math.pi * 5, 2 * math.pi * 200))
            k = chirp_rate_k(mc)
            t_c = coalescence_time(nu0, k)
            ts = np.linspace(0.0, 0.999 * t_c, 300)
            nus = chirp_frequency(nu0, k, ts)
            assert np.all(np.diff(nus) > 0.0)
            assert np.all(nus >= nu0 * (1.0 - 1e-12))


class TestChirpPhase:
    def test_zero_at_start(self):
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        assert chirp_phase(2 * math.pi * 30.0, k, 0.0) == 0.0

    def test_constant_frequency_limit(self):
        nu0 = 2 * math.pi * 30.0
        assert chirp_phase(nu0, 0.0, 2.5) == pytest.approx(nu0 * 2.5, rel=1e-15)
        # vanishing but finite k approaches the same limit smoothly
        assert chirp_phase(nu0, 1e-30, 2.5) == pytest.approx(nu0 * 2.5, rel=1e-12)

    def test_matches_quadrature_of_frequency(self):
        # adaptive quadrature oracle for the phase integral
        rng = np.random.default_rng(11)
        for _ in range(5):
            mc = float(rng.uniform(0.8, 5.0)) * SOLAR_MASS
            nu0 = float(rng.uniform(2 * math.pi * 10, 2 * math.pi * 60))
            k = chirp_rate_k(mc)
            t = 0.5 * coalescence_time(nu0, k)
            oracle, err = quad(
                lambda s: chirp_frequency(nu0, k, s), 0.0, t,
                limit=200, epsrel=1e-12,
            )
            assert chirp_phase(nu0, k, t) == pytest.approx(oracle, rel=1e-8)

    def test_derivative_is_frequency(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mc = float(rng.uniform(0.8, 10.0)) * SOLAR_MASS
            nu0 = float(rng.uniform(2 * math.pi * 10, 2 * math.pi * 100))
            k = chirp_rate_k(mc)
            t = float(rng.uniform(0.1, 0.9)) * coalescence_time(nu0, k)
            dt = 1e-7 * t
            fd = (chirp_phase(nu0, k, t + dt) - chirp_phase(nu0, k, t - dt)) / (
                2 * dt
            )
            assert fd == pytest.approx(chirp_frequency(nu0, k, t), rel=1e-6)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        chirp_mass_msun=st.floats(0.5, 30.0),
        nu0_hz=st.floats(5.0, 200.0),
        frac=st.floats(0.0, 0.999),
    )
    def test_phase_derivative_is_frequency_up_to_coalescence(
        self, chirp_mass_msun, nu0_hz, frac
    ):
        # central difference with a step that shrinks with the time left to
        # coalescence, where nu(t) ~ (t_c - t)^(-3/8) steepens
        nu0 = 2 * math.pi * nu0_hz
        k = chirp_rate_k(chirp_mass_msun * SOLAR_MASS)
        t_c = coalescence_time(nu0, k)
        t = frac * t_c
        h = 1e-4 * (t_c - t)
        t_hi, t_lo = t + h, t - h
        fd = (chirp_phase(nu0, k, t_hi) - chirp_phase(nu0, k, t_lo)) / (t_hi - t_lo)
        assert fd == pytest.approx(chirp_frequency(nu0, k, t), rel=1e-6)


class TestResonanceCrossing:
    def test_ns_merger_timescale(self):
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        tau = resonance_crossing_time(k, OMEGA)
        # of order seconds; the simulated wave window of 4 s spans ~14 tau
        assert 0.02 < tau < 5.0
        assert tau == pytest.approx(0.2762, rel=1e-3)

    def test_power_law(self):
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        assert resonance_crossing_time(k, 2 * OMEGA) == pytest.approx(
            2.0 ** (-11.0 / 6.0) * resonance_crossing_time(k, OMEGA), rel=1e-12
        )

    def test_bandwidth_fixed_point(self):
        # plugging tau back through the bandwidth relation 2*dw = 8/tau and
        # the residence time tau = 2*dw/(k w^(11/3)) must reproduce tau
        k = chirp_rate_k(1.19 * SOLAR_MASS)
        tau = resonance_crossing_time(k, OMEGA)
        two_dw = 8.0 / tau
        tau_back = two_dw / (k * OMEGA ** (11.0 / 3.0))
        assert tau_back == pytest.approx(tau, rel=1e-12)

    def test_resonance_time_against_root_finder(self):
        chirp = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0)
        k = chirp.k
        s_star = resonance_time(chirp.nu0, k, OMEGA)
        bracket = (0.0, 0.999999 * chirp.coalescence)
        oracle = brentq(
            lambda s: chirp_frequency(chirp.nu0, k, s) - OMEGA, *bracket,
            xtol=1e-13, rtol=1e-14,
        )
        assert s_star == pytest.approx(oracle, rel=1e-9)

    def test_below_initial_frequency(self):
        chirp = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0)
        with pytest.raises(ChirpDomainError):
            resonance_time(chirp.nu0, chirp.k, 2 * math.pi * 10.0)


class TestStrainSample:
    def test_monochromatic_peak(self):
        wave = MonochromaticWave(h0=1.0, nu=1.0)
        h, hddot = sample(wave, math.pi / 2)
        assert h == pytest.approx(1.0, rel=1e-15)
        assert hddot == pytest.approx(-1.0, rel=1e-15)

    def test_monochromatic_second_derivative_oracle(self):
        wave = MonochromaticWave(h0=1.3, nu=2 * math.pi * 3.0)
        period = 2 * math.pi / wave.nu
        for t in (0.13, 0.311, 2.71):
            fd = second_derivative(wave, t, period / 200)
            assert sample(wave, t)[1] == pytest.approx(fd, rel=1e-5)

    def test_sampled_sine_second_difference(self):
        nu = 2 * math.pi * 5.0
        dt = 1e-4 * (2 * math.pi / nu)
        ts = dt * np.arange(20000)
        series = SampledStrain(t0=0.0, dt=dt, h=np.sin(nu * ts))
        t_probe = ts[2500]  # quarter period: h at its peak
        h, hddot = sample(series, t_probe)
        assert hddot == pytest.approx(-(nu**2) * h, rel=1e-4)

    def test_sampled_out_of_support(self):
        series = SampledStrain(t0=0.0, dt=1e-3, h=np.array([0.0, 1e-22, 0.0]))
        assert sample(series, 5.0) == (0.0, 0.0)

    def test_chirp_uses_local_frequency(self, ns_merger_chirp):
        # design choice: hddot = -nu(t)^2 h(t); the exact second derivative
        # differs by the slow envelope terms of relative size ~k nu^(5/3)
        chirp = ns_merger_chirp
        t = resonance_time(chirp.nu0, chirp.k, OMEGA)
        h, hddot = sample(chirp, t)
        nu = chirp_frequency(chirp.nu0, chirp.k, t)
        assert hddot == pytest.approx(-(nu**2) * h, rel=1e-12)
        fd = second_derivative(chirp, t, 2 * math.pi / nu / 400)
        assert hddot == pytest.approx(fd, rel=2e-3, abs=abs(h) * nu**2 * 1e-3)

    def test_chirp_out_of_support(self, ns_merger_chirp):
        assert sample(ns_merger_chirp, -1.0) == (0.0, 0.0)
        assert sample(ns_merger_chirp, ns_merger_chirp.coalescence + 1.0) == (0.0, 0.0)

    def test_vectorized_matches_scalar(self):
        # oracle: h = A(t) sin(phi(t)) and hddot = -nu(t)^2 h at one time,
        # from the public chirp_frequency, chirp_phase and amplitude; a
        # phase of |phi| rad carries a roundoff of about |phi| eps
        for model in ("constant", "nu_two_thirds"):
            chirp = ChirpSource.from_solar_masses(
                1.19, h0=2e-22, nu0=2 * math.pi * 30.0, amplitude_model=model,
                amplitude_ref=OMEGA,
            )
            t_c = chirp.coalescence
            ts = np.concatenate(
                [np.linspace(-1.0, 0.999 * t_c, 57), [t_c, t_c + 1.0]]
            )
            h, hddot = strain_samples(chirp, ts)
            for i, t in enumerate(ts.tolist()):
                if not 0.0 <= t < t_c:
                    assert h[i] == 0.0 and hddot[i] == 0.0
                    continue
                amp = chirp.amplitude(t)
                phi = chirp_phase(chirp.nu0, chirp.k, t)
                nu2 = chirp_frequency(chirp.nu0, chirp.k, t) ** 2
                h_t = amp * math.sin(phi)
                tol = 1e-14 * max(1.0, abs(phi)) * amp
                assert abs(h[i] - h_t) <= tol, (model, t)
                assert abs(hddot[i] + nu2 * h_t) <= nu2 * tol, (model, t)

    def test_amplitude_models(self):
        base = dict(chirp_mass=1.19 * SOLAR_MASS, h0=2e-22, nu0=2 * math.pi * 30.0)
        const = ChirpSource(**base)
        scaled = ChirpSource(
            **base, amplitude_model="nu_two_thirds", amplitude_ref=OMEGA
        )
        t_res = resonance_time(const.nu0, const.k, OMEGA)
        # at the reference frequency both models give the stated amplitude
        assert scaled.amplitude(t_res) == pytest.approx(2e-22, rel=1e-9)
        # earlier in the sweep the scaled model is weaker
        assert scaled.amplitude(0.0) == pytest.approx(
            2e-22 * (const.nu0 / OMEGA) ** (2.0 / 3.0), rel=1e-12
        )
        assert const.amplitude(0.0) == 2e-22


class TestChirpWindow:
    def test_centered_on_resonance(self, ns_merger_chirp):
        t0, t1 = chirp_window(ns_merger_chirp, OMEGA)
        s_star = resonance_time(ns_merger_chirp.nu0, ns_merger_chirp.k, OMEGA)
        tau = resonance_crossing_time(ns_merger_chirp.k, OMEGA)
        assert t0 == pytest.approx(s_star - 5 * tau, rel=1e-9)
        assert t1 == pytest.approx(s_star + 5 * tau, rel=1e-9)

    def test_clipped_before_coalescence(self, ns_merger_chirp):
        # a resonance close to coalescence clips the upper edge
        omega_hi = chirp_frequency(
            ns_merger_chirp.nu0,
            ns_merger_chirp.k,
            0.9999 * ns_merger_chirp.coalescence,
        )
        t0, t1 = chirp_window(ns_merger_chirp, 0.5 * omega_hi)
        assert t1 < ns_merger_chirp.coalescence


class TestNonFiniteFields:
    # each once built a signal that gave nan or inf strain: a nan h0 sent the
    # quadrature through 8.4 M nodes to a convergence error, a nan sample gave
    # chi = nan, a nan chirp mass gave k = nan
    CHIRP = dict(chirp_mass=1.19 * SOLAR_MASS, h0=2e-22, nu0=2 * math.pi * 30.0)

    @pytest.mark.parametrize("field", ["h0", "nu", "phi0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_monochromatic(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            MonochromaticWave(**{"h0": 1e-22, "nu": OMEGA, "phi0": 0.0, field: bad})

    @pytest.mark.parametrize("field", ["chirp_mass", "h0", "nu0", "amplitude_ref"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_chirp(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            ChirpSource(**{**self.CHIRP, field: bad}, amplitude_model="nu_two_thirds")

    @pytest.mark.parametrize("field", ["t0", "dt"])
    def test_sampled_clock(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got nan"):
            SampledStrain(**{"t0": 0.0, "dt": 1e-3, field: math.nan}, h=np.zeros(4))

    @pytest.mark.parametrize("field, bad, rule", [
        ("chirp_mass", -1.0, "> 0"), ("h0", -1e-22, ">= 0"), ("nu0", 0.0, "> 0"),
        ("amplitude_ref", 0.0, "> 0"), ("amplitude_ref", -1.0, "> 0"),
    ])
    def test_chirp_signs(self, field, bad, rule):
        # amplitude_ref = 0 gave an infinite envelope, and < 0 a nan one
        with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {bad}$"):
            ChirpSource(**{**self.CHIRP, field: bad}, amplitude_model="nu_two_thirds")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sampled_values_name_the_sample(self, bad):
        h = np.zeros(5)
        h[3] = bad
        with pytest.raises(ValueError, match=rf"^h must be finite, got {bad} at sample 3"):
            SampledStrain(t0=0.0, dt=1e-3, h=h)


class TestStrainFiles:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "strain.txt"
        path.write_text("# comment\n0.000 0.0\n0.001 1e-22\n0.002 0.0\n")
        series = load_strain_series(str(path))
        assert series.h.size == 3
        assert series.dt == pytest.approx(1e-3, rel=1e-12)
        assert series.h[1] == 1e-22

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(StrainFormatError, match="at least 3"):
            load_strain_series(str(path))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0\n0.001 oops\n0.002 0.0\n")
        with pytest.raises(StrainFormatError, match=r"bad\.txt:2"):
            load_strain_series(str(path))

    @pytest.mark.parametrize("column", [0, 1], ids=["time", "strain"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, bad, column):
        # float() accepts these; a nan strain would reach chi as nan, a nan
        # time would fail later as a reversed window
        rows = [[f"{1e-3 * i!r}", "0.0"] for i in range(5)]
        rows[3][column] = bad
        path = tmp_path / "bad.txt"
        path.write_text("".join(" ".join(row) + "\n" for row in rows))
        with pytest.raises(StrainFormatError, match=r"bad\.txt:4: non-finite"):
            load_strain_series(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0 0.0\n")
        with pytest.raises(StrainFormatError, match="two columns"):
            load_strain_series(str(path))

    def test_non_uniform_spacing(self, tmp_path):
        path = tmp_path / "jitter.txt"
        path.write_text("0.0 0.0\n0.001 1.0\n0.0025 0.0\n0.0035 0.0\n")
        with pytest.raises(StrainFormatError, match="uniform"):
            load_strain_series(str(path))

    def test_round_trip_bit_exact(self, tmp_path, ns_merger_chirp):
        ts = 40.0 + 1e-3 * np.arange(4000)
        h, _ = strain_samples(ns_merger_chirp, ts)
        series = SampledStrain(t0=40.0, dt=1e-3, h=h)
        path = tmp_path / "chirp.txt"
        save_strain_series(str(path), series)
        back = load_strain_series(str(path))
        assert back.t0 == series.t0
        assert np.array_equal(back.h, series.h)
        assert back.dt == pytest.approx(series.dt, rel=1e-12)
