import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrature_oracle
from gravibar import dynamics
from gravibar.constants import HBAR, SOLAR_MASS
from gravibar.detector import DetectorSpec, MATERIALS, mode_frequency
from gravibar.dynamics import (
    ChiResult,
    QuadratureConvergenceError,
    beta_prefactor,
    chi_chirp_analytic,
    chi_monochromatic,
    chi_quadrature,
    chi_stationary_phase,
    displacement_beta,
    excitation_probability,
    optimal_mass,
    optimal_mass_chirp,
    oscillatory_integral,
    threshold_probability,
)
from gravibar.lattice import ChainConfigError, ChainSpec, evolve_chain
from gravibar.measurement import MeasurementConfig, run_trajectory
from gravibar.waveform import (
    ChirpDomainError,
    ChirpSource,
    MonochromaticWave,
    SampledStrain,
    chirp_frequency,
    chirp_window,
    resonance_crossing_time,
    strain_samples,
)
from quadrature_oracle import simpson_integral

OMEGA = 2 * math.pi * 100.0


class TestChiQuadrature:
    def test_zero_signal(self):
        wave = MonochromaticWave(h0=0.0, nu=1.0)
        assert chi_quadrature(wave, 1.0, (0.0, 10.0)).value == 0.0

    def test_resonant_monochromatic_matches_closed_form(self):
        # closed-form oracle: chi -> h0 nu^2 t/2 on resonance as t grows
        nu = 1.0
        t = 130.0 * 2 * math.pi / nu  # nu*t > 100 cycles-equivalent
        wave = MonochromaticWave(h0=1.0, nu=nu)
        quad = chi_quadrature(wave, nu, (0.0, t)).value
        assert quad == pytest.approx(nu**2 * t / 2.0, rel=1e-4)

    def test_conjugate_symmetry(self, ns_merger_chirp):
        window = chirp_window(ns_merger_chirp, OMEGA)
        plus = abs(oscillatory_integral(ns_merger_chirp, OMEGA, window))
        minus = abs(oscillatory_integral(ns_merger_chirp, -OMEGA, window))
        assert plus == pytest.approx(minus, rel=1e-9)

    def test_convergence_error_carries_estimate(self, ns_merger_chirp, monkeypatch):
        window = chirp_window(ns_merger_chirp, OMEGA)
        monkeypatch.setattr(dynamics, "_MAX_NODES", 64)
        with pytest.raises(QuadratureConvergenceError) as info:
            oscillatory_integral(ns_merger_chirp, OMEGA, window)
        assert abs(info.value.last_estimate) > 0.0

    def test_empty_window(self):
        wave = MonochromaticWave(h0=1.0, nu=1.0)
        assert chi_quadrature(wave, 1.0, (5.0, 5.0)).value == 0.0

    @pytest.mark.parametrize("window", [(0.25, 0.75), (0.5, 1.5), (5.0, 6.0)])
    def test_sampled_window_with_fewer_than_two_samples(self, window):
        # samples at 0, 1, 2, 3: the trapezoid rule needs two inside the window
        strain = SampledStrain(t0=0.0, dt=1.0, h=[0.0, 1.0, -1.0, 0.5])
        res = chi_quadrature(strain, 1.0, window)
        assert (res.value, res.nodes) == (0.0, 0)

    def test_refinement_evaluates_each_node_once(self, ns_merger_chirp, monkeypatch):
        # the Simpson oracle's nested doubling: the calls together cover the
        # final grid exactly once, and the value is plain composite Simpson
        # on that grid
        seen = []

        def counting(signal, ts):
            seen.append(np.array(ts))
            return strain_samples(signal, ts)

        monkeypatch.setattr(quadrature_oracle, "strain_samples", counting)
        window = chirp_window(ns_merger_chirp, OMEGA)
        value = simpson_integral(ns_merger_chirp, OMEGA, window)
        n = 2 * seen[-1].size  # the last call evaluates the n/2 new midpoints
        assert len(seen) >= 3
        assert sum(ts.size for ts in seen) == n + 1
        grid = np.linspace(*window, n + 1)
        np.testing.assert_allclose(
            np.sort(np.concatenate(seen)), grid, rtol=1e-15, atol=0.0
        )

        _, hddot = strain_samples(ns_merger_chirp, grid)
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        full = (window[1] - window[0]) / n / 3.0 * np.dot(
            weights, hddot * np.exp(1j * OMEGA * grid)
        )
        assert abs(value - full) <= 1e-12 * abs(full)

    @pytest.mark.parametrize(
        "case", ["coalescence", "coalescence_nu_two_thirds", "long_monochromatic"]
    )
    def test_node_cap_bounds_time_and_memory(self, ns_merger_chirp, monkeypatch, case):
        # windows whose integrand cannot be resolved within the budget: 1e8
        # cycles of a 100 Hz wave must stop at the cap, and a window reaching
        # past coalescence, where hddot diverges, fails before any node (it
        # once spent the whole cap)
        error, cap = ChirpDomainError, 0
        if case == "long_monochromatic":
            signal, window = MonochromaticWave(h0=1e-21, nu=OMEGA), (0.0, 1e6)
            error, cap = QuadratureConvergenceError, 2**23
        else:
            model = "constant" if case == "coalescence" else "nu_two_thirds"
            signal = ChirpSource(ns_merger_chirp.chirp_mass, h0=2e-22,
                                 nu0=ns_merger_chirp.nu0, amplitude_model=model,
                                 amplitude_ref=OMEGA)
            t_c = signal.coalescence
            window = (0.9 * t_c, 1.2 * t_c)
        evaluated = []

        def counting(signal, ts):
            evaluated.append(ts.size)
            return strain_samples(signal, ts)

        monkeypatch.setattr(dynamics, "strain_samples", counting)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(error):
                oscillatory_integral(signal, OMEGA, window)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(evaluated) <= cap
        assert elapsed < 2.0
        assert peak < 200 * 2**20

    def test_first_grid_over_cap_is_never_built(self, ns_merger_chirp, monkeypatch):
        evaluated = []

        def counting(signal, ts):
            evaluated.append(ts.size)
            return strain_samples(signal, ts)

        window = chirp_window(ns_merger_chirp, OMEGA)
        first_grid = chi_quadrature(ns_merger_chirp, OMEGA, window).nodes
        one_panel = dynamics._panel_sum(ns_merger_chirp, OMEGA, np.array(window))[0]
        whole = oscillatory_integral(ns_merger_chirp, OMEGA, window)
        monkeypatch.setattr(dynamics, "strain_samples", counting)
        # a budget below one 33-node panel: no estimate at all
        monkeypatch.setattr(dynamics, "_MAX_NODES", 32)
        with pytest.raises(QuadratureConvergenceError) as info:
            oscillatory_integral(ns_merger_chirp, OMEGA, window)
        assert math.isnan(info.value.last_estimate.real)
        assert evaluated == []
        # budgets below the first grid carry the one-panel estimate
        for budget in (33, 2000, first_grid - 1):
            evaluated.clear()
            monkeypatch.setattr(dynamics, "_MAX_NODES", budget)
            with pytest.raises(QuadratureConvergenceError) as info:
                oscillatory_integral(ns_merger_chirp, OMEGA, window)
            assert info.value.last_estimate == one_panel
            assert sum(evaluated) <= budget
        # a budget of exactly the first grid converges on it
        evaluated.clear()
        monkeypatch.setattr(dynamics, "_MAX_NODES", first_grid)
        value = oscillatory_integral(ns_merger_chirp, OMEGA, window)
        assert sum(evaluated) == first_grid
        assert value == whole

    def test_inner_cuts_cost_no_strain_evaluations(self, ns_merger_chirp, monkeypatch):
        # a thousand segments are taken from the window's own grid: the
        # budget of the window alone covers every evaluation
        evaluated = []

        def counting(signal, ts):
            evaluated.append(ts.size)
            return strain_samples(signal, ts)

        window = chirp_window(ns_merger_chirp, OMEGA)
        first_grid = chi_quadrature(ns_merger_chirp, OMEGA, window).nodes
        whole = oscillatory_integral(ns_merger_chirp, OMEGA, window)
        monkeypatch.setattr(dynamics, "strain_samples", counting)
        monkeypatch.setattr(dynamics, "_MAX_NODES", first_grid)
        cuts = np.linspace(*window, 1001)
        segments, spent, _ = dynamics._quadrature(ns_merger_chirp, OMEGA, cuts)
        assert sum(evaluated) == spent == first_grid
        assert abs(segments.sum() - whole) <= 1e-13 * abs(whole)

    def test_chi_result_reports_nodes_and_error_estimate(self, ns_merger_chirp):
        window = chirp_window(ns_merger_chirp, OMEGA)
        res = chi_quadrature(ns_merger_chirp, OMEGA, window)
        assert res.nodes > 0 and res.nodes % 33 == 0
        assert 0.0 <= res.error_estimate <= 1e-6
        beta_chi = displacement_beta(
            DetectorSpec.from_frequency(MATERIALS["beryllium"], OMEGA, radius=0.5),
            ns_merger_chirp, window,
        ).chi
        assert beta_chi == res


class TestKronrodRule:
    """The 33-point Gauss-Kronrod rule built at import (Laurie's algorithm)."""

    def test_integrates_legendre_polynomials_to_degree_49(self):
        vander = np.polynomial.legendre.legvander(dynamics._KR_NODES, 49)
        exact = np.zeros(50)
        exact[0] = 2.0
        np.testing.assert_allclose(dynamics._KR_WEIGHTS @ vander, exact, rtol=0.0, atol=1e-14)

    def test_weights_positive(self):
        assert dynamics._KR_WEIGHTS.size == 33
        assert np.all(dynamics._KR_WEIGHTS > 0.0)

    def test_embeds_gauss_legendre_16(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(dynamics._KR_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(dynamics._RULES[1::2, 1], weights)
        np.testing.assert_array_equal(dynamics._RULES[::2, 1], 0.0)
        np.testing.assert_array_equal(dynamics._RULES[:, 0], dynamics._KR_WEIGHTS)

    def test_running_integral_of_the_interpolant(self):
        # values of P_k at the nodes, k <= 32, give integral_{-1}^x P_k exactly
        # up to roundoff; at x = 1 the rule is the Kronrod rule
        legendre = np.polynomial.legendre
        x = np.linspace(-1.0, 1.0, 41)
        values = legendre.legvander(dynamics._KR_NODES, 32)
        p = legendre.legvander(x, 33)
        terms = np.cos(np.multiply.outer(np.arccos(x), dynamics._DEGREES))
        got = terms @ dynamics._RUNNING @ values
        k = np.arange(1, 33)
        exact = np.column_stack([x + 1.0, (p[:, k + 1] - p[:, k - 1]) / (2 * k + 1)])
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(dynamics._RUNNING.sum(axis=0), dynamics._KR_WEIGHTS,
                                   rtol=0.0, atol=1e-14)

    def test_fifteen_point_rule_matches_quadpack(self):
        # QUADPACK's tabulated 15-point rule (dqk15), nonnegative nodes
        nodes = [0.0, 0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
                 0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
                 0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
                 0.991455371120812639206854697526329]
        weights = [0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
                   0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
                   0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
                   0.063092092629978553290700663189204, 0.022935322010529224963732008058970]
        x, w = dynamics._kronrod_rule(7)
        np.testing.assert_allclose(x[7:], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w[7:], weights, rtol=0.0, atol=1e-15)


class TestPanelQuadratureOracle:
    """The panel Gauss-Legendre rule against the nested Simpson oracle.

    Differences are measured against the integral of |hddot| over the
    window, which near-cancelling integrals (sinc zeros) do not shrink.
    """

    @staticmethod
    def abs_hddot_integral(signal, window):
        ts = np.linspace(*window, 200_001)
        _, hddot = strain_samples(signal, ts)
        return float(np.trapezoid(np.abs(hddot), ts))

    def assert_agrees(self, signal, omega, window):
        panel = oscillatory_integral(signal, omega, window)
        oracle = simpson_integral(signal, omega, window)
        scale = self.abs_hddot_integral(signal, window)
        assert scale > 0.0
        assert abs(panel - oracle) <= 1e-6 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        chirp_mass=st.floats(1.5, 10.0),
        nu0_hz=st.floats(25.0, 60.0),
        model=st.sampled_from(["constant", "nu_two_thirds"]),
        band=st.sampled_from(["below", "in", "above"]),
        where=st.floats(0.0, 1.0),
        sign=st.sampled_from([1.0, -1.0]),
        start=st.floats(0.0, 1.0),
        end=st.floats(0.0, 1.0),
    )
    def test_chirp(self, chirp_mass, nu0_hz, model, band, where, sign, start, end):
        nu0 = 2 * math.pi * nu0_hz
        probe = ChirpSource.from_solar_masses(chirp_mass, h0=2e-22, nu0=nu0)
        t_c = probe.coalescence
        nu_max = chirp_frequency(nu0, probe.k, 0.999 * t_c)
        if band == "in":
            omega = nu0 * (nu_max / nu0) ** (0.1 + 0.6 * where)
            t0, t1 = chirp_window(probe, omega)
            window = (start * t0, t1 + end * (0.999 * t_c - t1))
        else:
            omega = nu0 * (0.3 + 0.6 * where) if band == "below" else nu_max * (1.2 + 2 * where)
            window = (0.45 * start * t_c, (0.5 + 0.499 * end) * t_c)
        chirp = ChirpSource.from_solar_masses(
            chirp_mass, h0=2e-22, nu0=nu0, amplitude_model=model, amplitude_ref=omega
        )
        self.assert_agrees(chirp, sign * omega, window)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        nu_hz=st.floats(5.0, 200.0),
        detuning=st.sampled_from([0.0, 0.01, -0.03, 0.7, -0.6]),
        sign=st.sampled_from([1.0, -1.0]),
        phi0=st.floats(0.0, 2 * math.pi),
        offset_cycles=st.floats(0.0, 10.0),
        cycles=st.one_of(st.floats(0.05, 2.0), st.floats(2.0, 300.0)),
    )
    def test_monochromatic(self, nu_hz, detuning, sign, phi0, offset_cycles, cycles):
        nu = 2 * math.pi * nu_hz
        wave = MonochromaticWave(h0=1e-21, nu=nu, phi0=phi0)
        period = 2 * math.pi / nu
        window = (offset_cycles * period, (offset_cycles + cycles) * period)
        self.assert_agrees(wave, sign * nu * (1.0 + detuning), window)

    def test_whole_inspiral_uses_fewer_samples(self, ns_merger_chirp, monkeypatch):
        # the 142 Hz whole-inspiral chi of the analytic benchmark workload
        counts = {}

        def counting(key):
            def wrapped(signal, ts):
                counts[key] = counts.get(key, 0) + np.size(ts)
                return strain_samples(signal, ts)
            return wrapped

        grids = []
        panel_sum = dynamics._panel_sum

        def recording(signal, omega, edges, *cuts):
            grids.append(edges.size - 1)
            return panel_sum(signal, omega, edges, *cuts)

        monkeypatch.setattr(dynamics, "strain_samples", counting("panel"))
        monkeypatch.setattr(dynamics, "_panel_sum", recording)
        monkeypatch.setattr(quadrature_oracle, "strain_samples", counting("oracle"))
        omega = 2 * math.pi * 142.0
        window = (0.0, 0.999 * ns_merger_chirp.coalescence)
        panel = oscillatory_integral(ns_merger_chirp, omega, window)
        oracle = simpson_integral(ns_merger_chirp, omega, window)
        assert abs(panel - oracle) <= 1e-6 * abs(oracle)
        assert counts["oracle"] >= 5 * counts["panel"]
        # one pass over the first grid, each panel's 33 nodes evaluated once
        assert len(grids) == 1
        assert counts["panel"] == 33 * grids[0]


class TestChiMonochromatic:
    def test_on_resonance(self):
        res = chi_monochromatic(1e-21, OMEGA, OMEGA, 10.0)
        assert res.value == pytest.approx(1e-21 * OMEGA**2 * 5.0, rel=1e-12)
        assert res.method == "monochromatic_closed_form"

    def test_first_zero_of_envelope(self):
        delta = 0.01
        t = 2 * math.pi / delta
        res = chi_monochromatic(1.0, OMEGA - delta, OMEGA, t)
        assert res.value == pytest.approx(0.0, abs=1e-12 * OMEGA**2 * t)

    def test_against_quadrature(self):
        # nu*t > 500 cycles, slight detuning delta/nu < 1e-3
        nu = 1.0
        delta = 5e-4
        t = 501.3 * 2 * math.pi / nu
        wave = MonochromaticWave(h0=1.0, nu=nu)
        quad = chi_quadrature(wave, nu + delta, (0.0, t)).value
        closed = chi_monochromatic(1.0, nu, nu + delta, t).value
        assert quad == pytest.approx(closed, rel=0.02)

    def test_warns_far_from_resonance(self):
        with pytest.warns(UserWarning, match="rotating-wave"):
            chi_monochromatic(1.0, 1.0, 3.0, 10.0)


class TestChiChirpAnalytic:
    def test_equals_resonance_window_form(self, ns_merger_chirp):
        k = ns_merger_chirp.k
        tau = resonance_crossing_time(k, OMEGA)
        res = chi_chirp_analytic(2e-22, k, OMEGA)
        assert res.value == pytest.approx(2e-22 * OMEGA**2 * tau / 2.0, rel=1e-12)

    def test_frequency_power_law(self, ns_merger_chirp):
        k = ns_merger_chirp.k
        c1 = chi_chirp_analytic(1.0, k, OMEGA).value
        c2 = chi_chirp_analytic(1.0, k, 2 * OMEGA).value
        assert c2 == pytest.approx(2.0 ** (1.0 / 6.0) * c1, rel=1e-12)

    def test_against_quadrature_slow_chirp(self, ns_merger_chirp):
        window = chirp_window(ns_merger_chirp, OMEGA)
        quad = chi_quadrature(ns_merger_chirp, OMEGA, window).value
        analytic = chi_chirp_analytic(
            ns_merger_chirp.h0, ns_merger_chirp.k, OMEGA
        ).value
        assert quad == pytest.approx(analytic, rel=0.15)

    def test_warns_for_fast_sweep(self):
        k = 10.0  # absurdly fast chirp
        with pytest.warns(UserWarning, match="slow-chirp"):
            chi_chirp_analytic(1.0, k, 1.0)


class TestChiStationaryPhase:
    def test_against_quadrature(self, ns_merger_chirp):
        window = chirp_window(ns_merger_chirp, OMEGA)
        quad = chi_quadrature(ns_merger_chirp, OMEGA, window).value
        sp = chi_stationary_phase(ns_merger_chirp, OMEGA).value
        assert quad == pytest.approx(sp, rel=0.10)

    def test_against_analytic(self, ns_merger_chirp):
        sp = chi_stationary_phase(ns_merger_chirp, OMEGA).value
        analytic = chi_chirp_analytic(
            ns_merger_chirp.h0, ns_merger_chirp.k, OMEGA
        ).value
        assert sp == pytest.approx(analytic, rel=0.25)

    def test_resonance_below_start_is_domain_error(self, ns_merger_chirp):
        with pytest.raises(ChirpDomainError):
            chi_stationary_phase(ns_merger_chirp, 2 * math.pi * 10.0)

    def test_crossing_outside_window(self, ns_merger_chirp):
        with pytest.raises(ChirpDomainError, match="outside"):
            chi_stationary_phase(ns_merger_chirp, OMEGA, window=(0.0, 1.0))


class TestDisplacementBeta:
    def test_zero_signal(self, beryllium_100hz):
        wave = MonochromaticWave(h0=0.0, nu=OMEGA)
        beta = displacement_beta(beryllium_100hz, wave, (0.0, 1.0))
        assert beta.magnitude == 0.0

    def test_chi_relation_exact(self, beryllium_100hz, ns_merger_chirp):
        beta = displacement_beta(beryllium_100hz, ns_merger_chirp)
        pref = beta_prefactor(beryllium_100hz)
        assert beta.magnitude == pytest.approx(pref * beta.chi.value, rel=1e-12)

    def test_unit_beta_at_optimal_mass(self, ns_merger_chirp):
        material = MATERIALS["beryllium"]
        chi = chi_chirp_analytic(ns_merger_chirp.h0, ns_merger_chirp.k, OMEGA)
        m_opt = optimal_mass(material, chi, OMEGA)
        spec = DetectorSpec.from_frequency(material, OMEGA, mass=m_opt)
        pref = beta_prefactor(spec)
        assert pref * chi.value == pytest.approx(1.0, rel=1e-9)

    def test_fig3_scale_detector_order_one(self, ns_merger_chirp):
        spec = DetectorSpec.from_frequency(
            MATERIALS["beryllium"], OMEGA, mass=21.73
        )
        beta = displacement_beta(spec, ns_merger_chirp)
        assert 0.3 < beta.magnitude < 3.0


class TestReversedWindow:
    MONO = MonochromaticWave(h0=1e-22, nu=OMEGA)
    SAMPLED = SampledStrain(t0=0.0, dt=1e-3, h=np.sin(OMEGA * 1e-3 * np.arange(2000)))

    # each once gave chi = beta = 0 from zero nodes
    @pytest.mark.parametrize("signal", [MONO, SAMPLED], ids=["monochromatic", "sampled"])
    def test_rejected(self, beryllium_100hz, signal):
        with pytest.raises(ValueError, match=r"^window \(1\.0, 0\.5\) is reversed"):
            chi_quadrature(signal, OMEGA, (1.0, 0.5))
        with pytest.raises(ValueError, match=r"^window \(1\.0, 0\.5\) is reversed"):
            displacement_beta(beryllium_100hz, signal, (1.0, 0.5))
        assert chi_quadrature(signal, OMEGA, (0.5, 0.5)).value == 0.0  # empty: no drive

    @pytest.mark.parametrize("signal, window, message", [
        (MONO, (0.0, math.nan), "window end must be finite, got nan"),
        (MONO, (math.nan, 1.0), "window start must be finite, got nan"),
        (MONO, (0.0, math.inf), "window end must be finite, got inf"),
        (MONO, (-math.inf, 1.0), "window start must be finite, got -inf"),
        (SAMPLED, (0.0, math.nan), "window end must not be nan, got nan"),
    ], ids=["mono-end-nan", "mono-start-nan", "mono-end-inf", "mono-start-inf",
            "sampled-end-nan"])
    def test_bad_edge_named(self, beryllium_100hz, signal, window, message):
        # a nan edge was reported as cuts that decrease, and an infinite edge
        # of a monochromatic wave raised OverflowError: nothing clips that
        # wave's window, while a chirp's or a sampled series' support does
        with pytest.raises(ValueError, match=f"^{message}$"):
            chi_quadrature(signal, OMEGA, window)
        with pytest.raises(ValueError, match=f"^{message}$"):
            displacement_beta(beryllium_100hz, signal, window)

    def test_clipped_infinite_edges_kept(self):
        # the chirp's support and a sampled series' own span clip an
        # infinite edge, as before
        chirp = ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 95.0)
        t1 = chirp_window(chirp, OMEGA)[1]
        assert (chi_quadrature(chirp, OMEGA, (-math.inf, t1)).value
                == chi_quadrature(chirp, OMEGA, (0.0, t1)).value > 0.0)
        strain = self.SAMPLED
        assert (chi_quadrature(strain, OMEGA, (-math.inf, math.inf)).value
                == chi_quadrature(strain, OMEGA, (strain.t0, strain.t_end)).value > 0.0)

    def test_chi_result_must_be_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="chi must be finite"):
                ChiResult(bad, "quadrature")


REVERSED = r"window \(1\.0, 0\.5\) is reversed: its end precedes its start"
# window, then the outcome where an infinite edge is clipped (a chirp's
# support, a sampled series, a run) and where it must be finite (a
# monochromatic wave, a chain): a message, "empty" (no drive) or None (driven)
WINDOWS = {
    "nan-start": ((math.nan, 1.0), "window start must not be nan, got nan",
                  "window start must be finite, got nan"),
    "nan-end": ((0.0, math.nan), "window end must not be nan, got nan",
                "window end must be finite, got nan"),
    "inf-start": ((-math.inf, 1.0), None, "window start must be finite, got -inf"),
    "inf-end": ((0.0, math.inf), None, "window end must be finite, got inf"),
    "inf-inf": ((math.inf, math.inf), "empty", "window start must be finite, got inf"),
    "minus-inf-inf": ((-math.inf, -math.inf), "empty", "window start must be finite, got -inf"),
    "reversed": ((1.0, 0.5), REVERSED, REVERSED),
    "empty": ((0.5, 0.5), "empty", "empty"),
}
SIGNALS = {
    "chirp": ChirpSource.from_solar_masses(1.19, h0=2e-22, nu0=2 * math.pi * 30.0),
    "monochromatic": TestReversedWindow.MONO,
    "sampled": TestReversedWindow.SAMPLED,
}
QUADRATURES = ("oscillatory_integral", "chi_quadrature", "displacement_beta")
WINDOW_CALLERS = [
    (caller, kind, name)
    for caller, kind in [*((f, k) for f in QUADRATURES for k in SIGNALS),
                         ("run_trajectory", "chirp"), ("evolve_chain", "monochromatic")]
    for name in WINDOWS
]
# a chirp's quadrature up to its coalescence, where hddot diverges, fails at
# once (it once spent the whole node budget and named no cause)
COALESCENCE = (r"window reaches the coalescence t_c = "
               rf"{SIGNALS['chirp'].coalescence:.6g} s, where hddot diverges")


def _drive_over(caller, signal, window, spec):
    """How much `caller` drove over `window`, and the strain nodes it took
    (None where it does not count them)."""
    if caller == "oscillatory_integral":
        return abs(oscillatory_integral(signal, OMEGA, window)), None
    if caller == "chi_quadrature":
        chi = chi_quadrature(signal, OMEGA, window)
        return chi.value, chi.nodes
    if caller == "displacement_beta":
        beta = displacement_beta(spec, signal, window)
        return beta.magnitude, beta.chi.nodes
    if caller == "run_trajectory":  # a run without drive has no window events
        cfg = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=2.0, dim=8, seed=3)
        return len(run_trajectory(spec, signal, cfg, duration=1.0, window=window).events), None
    chain = ChainSpec(n_param=19, atom_mass=0.5, spacing=0.025, debye_frequency=400.0)
    return np.abs(evolve_chain(chain, signal, window).chi[1]).max(), None


@pytest.mark.parametrize("caller, kind, name", WINDOW_CALLERS)
def test_one_window_rule(beryllium_100hz, caller, kind, name):
    # each layer once judged windows in its own words; (inf, inf) on a chirp
    # raised "integration cuts must not decrease" and leaked a RuntimeWarning
    window, clipped, finite = WINDOWS[name]
    outcome = finite if caller == "evolve_chain" or kind == "monochromatic" else clipped
    error = ChainConfigError if caller == "evolve_chain" else ValueError
    if caller in QUADRATURES and kind == "chirp" and name == "inf-end":
        outcome, error = COALESCENCE, ChirpDomainError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if outcome not in (None, "empty"):
            with pytest.raises(error, match=f"^{outcome}$") as raised:
                _drive_over(caller, SIGNALS[kind], window, beryllium_100hz)
            assert raised.type is error
            return
        drive, nodes = _drive_over(caller, SIGNALS[kind], window, beryllium_100hz)
    if outcome == "empty":
        assert drive == 0
        assert nodes == (0 if caller in QUADRATURES[1:] else None)
    else:
        assert drive > 0


@pytest.mark.parametrize("window, message", [
    ((math.nan, 55.0), "window start must not be nan, got nan"),
    ((10.0, math.nan), "window end must not be nan, got nan"),
    ((55.0, 10.0), r"window \(55\.0, 10\.0\) is reversed: its end precedes its start"),
], ids=["nan-start", "nan-end", "reversed"])
def test_crossing_follows_window_rule(window, message):
    # each once raised "resonance crossing at s* = 53.4464 s lies outside the
    # window", naming neither the nan edge nor the reversal
    with pytest.raises(ValueError, match=f"^{message}$") as raised:
        chi_stationary_phase(SIGNALS["chirp"], OMEGA, window)
    assert raised.type is ValueError


class TestExcitationProbability:
    def test_poisson_maximum(self):
        assert excitation_probability(1.0, 1) == pytest.approx(
            1.0 / math.e, abs=1e-12
        )

    def test_vacuum(self):
        assert excitation_probability(0.0, 0) == 1.0
        assert excitation_probability(0.0, 3) == 0.0

    @pytest.mark.parametrize("beta", [0.3, 1.0, 1.7 + 0.9j, 3.0])
    def test_normalization(self, beta):
        total = sum(excitation_probability(beta, n) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mode_at_one_for_unit_beta(self):
        probs = [excitation_probability(1.0, n) for n in range(1, 20)]
        assert int(np.argmax(probs)) == 0  # n = 1 dominates n >= 1

    def test_phase_invariance(self):
        assert excitation_probability(1j, 1) == pytest.approx(
            excitation_probability(1.0, 1), rel=1e-15
        )

    def test_negative_n(self):
        with pytest.raises(ValueError):
            excitation_probability(1.0, -1)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_overflowing_square_gives_zero(self, kind):
        # |beta|^2 = 1e400 raised OverflowError (a RuntimeWarning as an
        # np.float64): every P_n is 0 to double precision
        assert [excitation_probability(kind(1e200), n) for n in (0, 1, 5)] == [0.0] * 3


class TestOptimalMass:
    def test_ns_merger_beryllium(self, ns_merger_chirp):
        mass = optimal_mass_chirp(
            MATERIALS["beryllium"], 2e-22, 1.19 * SOLAR_MASS, OMEGA
        )
        assert 10.0 < mass < 20.0
        # closed form of the same estimate
        from gravibar.constants import G, C_LIGHT

        closed = (
            24 * math.pi**2 / 5.0 * HBAR / ((2e-22) ** 2 * 1.26e4**2)
            * (G * 1.19 * SOLAR_MASS / (2 * C_LIGHT**3)) ** (5.0 / 3.0)
            * OMEGA ** (8.0 / 3.0)
        )
        assert mass == pytest.approx(closed, rel=1e-9)

    def test_frequency_power_law(self, ns_merger_chirp):
        material = MATERIALS["beryllium"]
        m1 = optimal_mass_chirp(material, 2e-22, 1.19 * SOLAR_MASS, OMEGA)
        m2 = optimal_mass_chirp(material, 2e-22, 1.19 * SOLAR_MASS, 2 * OMEGA)
        assert m2 == pytest.approx(2.0 ** (8.0 / 3.0) * m1, rel=1e-12)

    def test_strain_scaling(self):
        material = MATERIALS["beryllium"]
        m1 = optimal_mass_chirp(material, 1e-22, 1.19 * SOLAR_MASS, OMEGA)
        m2 = optimal_mass_chirp(material, 2e-22, 1.19 * SOLAR_MASS, OMEGA)
        assert m2 == pytest.approx(m1 / 4.0, rel=1e-12)

    def test_zero_chi_rejected(self):
        with pytest.raises(ValueError, match="chi"):
            optimal_mass(MATERIALS["beryllium"], 0.0, OMEGA)

    # NaN once passed both `<= 0` guards and gave a NaN mass
    def test_nan_chi_rejected(self):
        with pytest.raises(ValueError, match="chi must be finite, got nan"):
            optimal_mass(MATERIALS["beryllium"], math.nan, OMEGA)

    def test_nan_omega_rejected(self):
        with pytest.raises(ValueError, match="omega must be finite, got nan"):
            optimal_mass(MATERIALS["beryllium"], 1e-17, math.nan)

    def test_exact_where_chi_squared_is_subnormal(self):
        # chi^2 below the smallest normal float once lost 1.1e-5 of the mass
        # at chi = 3e-160; M scales as chi^-2 exactly
        material = MATERIALS["niobium"]
        low, high = optimal_mass(material, 3e-160, OMEGA), optimal_mass(material, 3e-150, OMEGA)
        assert low == pytest.approx(high * 1e20, rel=1e-14)

    def test_accepts_chi_result(self):
        chi = ChiResult(1e-17, "quadrature", (0.0, 1.0))
        a = optimal_mass(MATERIALS["beryllium"], chi, OMEGA)
        b = optimal_mass(MATERIALS["beryllium"], 1e-17, OMEGA)
        assert a == b


class TestThresholdProbability:
    def test_matches_small_beta_monochromatic(self):
        # first-order cross-check: P equals |beta|^2 from the closed form
        spec = DetectorSpec.from_frequency(MATERIALS["beryllium"], OMEGA, mass=15.0)
        h0, t = 1e-25, 5.0
        p = threshold_probability(spec, h0, OMEGA, t)
        chi = chi_monochromatic(h0, OMEGA, OMEGA, t).value
        beta_mag = beta_prefactor(spec) * chi
        assert beta_mag**2 < 1e-3  # small-displacement regime
        assert p == pytest.approx(beta_mag**2, rel=1e-9)

    def test_vanishes_at_zero_time(self, beryllium_100hz):
        assert threshold_probability(beryllium_100hz, 1e-22, OMEGA, 0.0) == 0.0

    def test_thresholding_in_frequency(self, beryllium_100hz):
        t = 50.0
        on = threshold_probability(beryllium_100hz, 1e-22, OMEGA, t)
        below = threshold_probability(beryllium_100hz, 1e-22, 0.2 * OMEGA, t)
        assert below < 1e-3 * on


class TestMethodHierarchy:
    def test_all_methods_on_ns_chirp(self, ns_merger_chirp):
        window = chirp_window(ns_merger_chirp, OMEGA)
        quad = chi_quadrature(ns_merger_chirp, OMEGA, window).value
        sp = chi_stationary_phase(ns_merger_chirp, OMEGA).value
        an = chi_chirp_analytic(ns_merger_chirp.h0, ns_merger_chirp.k, OMEGA).value
        assert quad == pytest.approx(sp, rel=0.10)
        assert quad == pytest.approx(an, rel=0.15)
        assert sp == pytest.approx(an, rel=0.25)
