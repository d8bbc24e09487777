import math
import tracemalloc

import numpy as np
import pytest
from chain_oracle import (
    evolve_atoms,
    evolve_modes,
    free_ends_stencil,
    kinetic_cross_term,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gravibar import lattice
from gravibar.detector import DetectorSpec, Material, mode_frequency
from gravibar.dynamics import displacement_beta
from gravibar.lattice import (
    ChainConfigError,
    ChainSpec,
    completeness_residual,
    continuum_checks,
    continuum_coupling,
    coupling_coefficient,
    effective_mode_mass,
    evolve_chain,
    max_stable_timestep,
    mode_coherent_amplitude,
    mode_profile,
    normal_mode_frequencies,
)
from gravibar.waveform import ChirpSource, MonochromaticWave


def toy_chain(n_param: int = 39) -> ChainSpec:
    return ChainSpec(
        n_param=n_param, atom_mass=0.5, spacing=0.025, debye_frequency=400.0
    )


def toy_detector_for_chain() -> DetectorSpec:
    material = Material("toy", density=1000.0, sound_speed=10.0)
    return DetectorSpec.from_frequency(material, 2 * math.pi, radius=0.1)


class TestChainSpec:
    def test_invariants(self):
        with pytest.raises(ChainConfigError):
            ChainSpec(n_param=4, atom_mass=1.0, spacing=1.0, debye_frequency=1.0)
        with pytest.raises(ChainConfigError):
            ChainSpec(n_param=1, atom_mass=1.0, spacing=1.0, debye_frequency=1.0)
        # 3.5 built a 4.5-atom chain with 5 mode frequencies
        for n_param in (3.5, 5.0):
            with pytest.raises(ChainConfigError, match="n_param must be an odd integer"):
                ChainSpec(n_param=n_param, atom_mass=1.0, spacing=1.0, debye_frequency=1.0)
        assert ChainSpec(np.int64(5), atom_mass=1.0, spacing=1.0, debye_frequency=1.0).n_atoms == 6
        # nan passed the `<= 0` check
        fields = dict(atom_mass=1.0, spacing=1.0, debye_frequency=1.0)
        for name in fields:
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(ChainConfigError, match=f"^{name} must be .*, got {bad}$"):
                    ChainSpec(n_param=5, **{**fields, name: bad})

    def test_derived_quantities(self):
        chain = toy_chain(5)
        assert chain.n_atoms == 6
        assert chain.total_mass == pytest.approx(3.0)
        assert chain.length == pytest.approx(0.15)
        assert chain.sound_speed == pytest.approx(10.0)
        np.testing.assert_array_equal(chain.atom_indices, [-5, -3, -1, 1, 3, 5])

    def test_from_detector_matches_continuum(self):
        spec = toy_detector_for_chain()
        chain = ChainSpec.from_detector(spec, 199)
        assert chain.total_mass == pytest.approx(spec.mass, rel=1e-12)
        assert chain.length == pytest.approx(spec.length, rel=1e-12)
        assert chain.sound_speed == pytest.approx(
            spec.material.sound_speed, rel=1e-12
        )


class TestDispersion:
    def test_zero_mode(self):
        assert normal_mode_frequencies(toy_chain())[0] == 0.0

    def test_quarter_band_value(self):
        # N = 5, l = 3: omega^2 = 2 omega_D^2 (1 - cos(pi/2)) = 2 omega_D^2
        chain = toy_chain(5)
        omega3 = normal_mode_frequencies(chain)[3]
        assert omega3 == pytest.approx(
            math.sqrt(2.0) * chain.debye_frequency, rel=1e-12
        )

    def test_ascending(self):
        freqs = normal_mode_frequencies(toy_chain(19))
        assert np.all(np.diff(freqs) > 0.0)

    def test_continuum_limit_bound(self):
        # |omega_1 - pi v_s/L| / omega_1 <= 5/N^2 (Taylor remainder bound)
        for n_param in (19, 39, 79, 159):
            chain = toy_chain(n_param)
            omega1 = normal_mode_frequencies(chain)[1]
            continuum = math.pi * chain.sound_speed / chain.length
            rel = abs(omega1 - continuum) / omega1
            assert rel <= 5.0 / n_param**2

    def test_convergence_order(self):
        errors, ns = [], (19, 39, 79, 159)
        for n_param in ns:
            chain = toy_chain(n_param)
            omega1 = normal_mode_frequencies(chain)[1]
            continuum = math.pi * chain.sound_speed / chain.length
            errors.append(abs(omega1 - continuum) / omega1)
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert slope <= -1.0  # at least first order; actually ~second


class TestCoupling:
    def test_matches_continuum_two_percent(self):
        chain = toy_chain(99)
        c1 = coupling_coefficient(chain, 1)
        target = chain.total_mass * chain.length / math.pi**2
        assert c1 == pytest.approx(target, rel=0.02)

    def test_sign_alternation(self):
        chain = toy_chain(99)
        assert coupling_coefficient(chain, 1) > 0.0
        assert coupling_coefficient(chain, 3) < 0.0
        assert continuum_coupling(chain, 3) < 0.0

    def test_even_mode_rejected(self):
        with pytest.raises(ChainConfigError, match="even"):
            coupling_coefficient(toy_chain(), 2)

    def test_convergence_order(self):
        errors, ns = [], (19, 39, 79, 159)
        for n_param in ns:
            chain = toy_chain(n_param)
            c1 = coupling_coefficient(chain, 1)
            target = continuum_coupling(chain, 1)
            errors.append(abs(c1 - target) / abs(target))
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert slope <= -1.0


class TestEffectiveMass:
    def test_half_total_mass(self):
        chain = toy_chain(199)
        measured = effective_mode_mass(chain, l=1)
        assert measured == pytest.approx(chain.total_mass / 2.0, rel=1e-10)

    def test_all_low_modes(self):
        chain = toy_chain(39)
        for l in (1, 2, 3, 5, 8):
            assert effective_mode_mass(chain, l=l) == pytest.approx(
                chain.total_mass / 2.0, rel=1e-10
            )

    def test_orthogonality_cross_terms(self):
        chain = toy_chain(199)
        for l1, l2 in ((1, 3), (1, 5), (3, 5), (2, 4), (1, 2)):
            assert abs(kinetic_cross_term(chain, l1, l2)) < 1e-10

    def test_scales_with_total_mass(self):
        light = toy_chain(39)
        heavy = ChainSpec(
            n_param=39, atom_mass=1.0, spacing=0.025, debye_frequency=400.0
        )
        assert effective_mode_mass(heavy) == pytest.approx(
            2.0 * effective_mode_mass(light), rel=1e-12
        )

    def test_completeness_relations(self):
        assert completeness_residual(toy_chain(199)) < 1e-10


class TestEvolveChain:
    def test_mode_profiles_are_stencil_eigenvectors(self):
        # the identity the modal integrator rests on: the free-ends stencil
        # maps s_l to 2 (1 - cos(l pi/(N+1))) s_l, for every l
        for n_param in (3, 5, 19, 61, 199):
            chain = toy_chain(n_param)
            for l in range(n_param + 1):
                prof = mode_profile(chain, l)
                lam = 2.0 * (1.0 - math.cos(l * math.pi / chain.n_atoms))
                np.testing.assert_allclose(
                    free_ends_stencil(prof), lam * prof, rtol=0.0, atol=1e-12
                )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        half_n=st.integers(1, 30),
        extra_modes=st.lists(st.integers(1, 61), max_size=4),
        stride=st.integers(1, 40),
        offset=st.floats(0.0, 0.4),
        span=st.floats(0.02, 0.25),
        detune=st.floats(0.5, 3.0),
        chirp_mass=st.one_of(st.none(), st.floats(1.0, 30.0)),
    )
    def test_matches_atom_stepping(
        self, half_n, extra_modes, stride, offset, span, detune, chirp_mass
    ):
        # oracle: velocity-Verlet on every atom, projected onto the modes
        chain = toy_chain(2 * half_n + 1)
        omega1 = float(normal_mode_frequencies(chain)[1])
        modes = tuple(sorted({1, *(1 + (l - 1) % chain.n_param for l in extra_modes)}))
        if chirp_mass is None:
            signal = MonochromaticWave(h0=1e-3, nu=detune * omega1, phi0=0.3)
        else:
            signal = ChirpSource.from_solar_masses(
                chirp_mass, h0=1e-3, nu0=detune * omega1
            )
            t_c = signal.coalescence
            offset, span = min(offset, 0.5 * t_c), min(span, 0.45 * t_c)
        window = (offset, offset + span)
        got = evolve_chain(chain, signal, window, modes=modes, record_stride=stride)
        ref = evolve_atoms(chain, signal, window, modes=modes, record_stride=stride)
        np.testing.assert_array_equal(got.times, ref.times)
        # even modes have no drive coupling: both sides hold roundoff, so
        # errors are measured against the chain's largest mode amplitude
        for field in ("chi", "chi_dot"):
            g, r = getattr(got, field), getattr(ref, field)
            assert set(g) == set(modes)
            scale = max(np.abs(r[l]).max() for l in modes)
            assert scale > 0.0
            for l in modes:
                assert np.abs(g[l] - r[l]).max() <= 1e-9 * scale, (field, l)

    @pytest.mark.parametrize(
        "case", ["lattice-verify", "even-mode", "stride-1", "partial-segment"]
    )
    def test_matches_modal_loop(self, case):
        # oracle: the same modal velocity-Verlet recursion stepped one step
        # at a time, on runs long enough for a closed form's phase error to
        # show; each field is compared against its own largest value
        spec = toy_detector_for_chain()
        chain = ChainSpec.from_detector(spec, 199)
        omega = mode_frequency(spec)
        period = 2 * math.pi / omega
        wave = MonochromaticWave(h0=1e-3, nu=omega)
        chirp = ChirpSource.from_solar_masses(3.0, h0=1e-3, nu0=0.7 * omega)
        runs = {
            # the run of `continuum_checks`: 203 719 steps, a record every 100
            "lattice-verify": (wave, (0.0, 40 * period), (1,), 100),
            # an even mode's coupling is the roundoff of summing symmetric
            # positions, which the comparison against its own maximum
            # scales out
            "even-mode": (chirp, (0.0, 10 * period), (1, 2), 10),
            "stride-1": (wave, (0.2, 4 * period), (1, 2, 3), 1),
            "partial-segment": (chirp, (0.1, 8 * period), (1, 3, 4), 37),
        }
        signal, window, modes, stride = runs[case]
        n_steps = math.ceil((window[1] - window[0]) / max_stable_timestep(chain))
        if case == "partial-segment":
            assert n_steps % stride != 0
        got = evolve_chain(chain, signal, window, modes=modes, record_stride=stride)
        ref = evolve_modes(chain, signal, window, modes=modes, record_stride=stride)
        np.testing.assert_array_equal(got.times, ref.times)
        assert got.times.size == n_steps // stride + 1
        for field in ("chi", "chi_dot"):
            g, r = getattr(got, field), getattr(ref, field)
            assert set(g) == set(modes)
            for l in modes:
                scale = np.abs(r[l]).max()
                assert np.abs(g[l] - r[l]).max() <= 1e-12 * scale, (field, l)

    def test_quiescent_without_drive(self):
        chain = toy_chain(19)
        silent = MonochromaticWave(h0=0.0, nu=1.0)
        traj = evolve_chain(chain, silent, (0.0, 1.0), modes=(1, 3))
        assert np.abs(traj.chi[1]).max() == 0.0
        assert np.abs(traj.chi[3]).max() == 0.0

    def test_timestep_guard(self):
        chain = toy_chain(19)
        wave = MonochromaticWave(h0=1.0, nu=1.0)
        with pytest.raises(ChainConfigError, match="stability"):
            evolve_chain(chain, wave, (0.0, 1.0), dt=10.0 / chain.debye_frequency)

    def test_record_stride_guard(self):
        chain = toy_chain(19)
        wave = MonochromaticWave(h0=1.0, nu=1.0)
        for stride in (0, -3):
            with pytest.raises(ChainConfigError, match="record_stride"):
                evolve_chain(chain, wave, (0.0, 1.0), record_stride=stride)

    @pytest.mark.parametrize("kwargs", [
        dict(dt=math.nan), dict(dt=0.0), dict(dt=-0.01), dict(window=(1.0, 0.0)),
        dict(window=(0.0, math.nan)), dict(window=(0.0, math.inf)), dict(record_stride=1.5),
    ], ids=["dt-nan", "dt-zero", "dt-negative", "window-reversed", "window-nan",
            "window-inf", "stride-fractional"])
    def test_bad_argument_named(self, kwargs):
        # these failed inside int(), np.empty or range(), or divided by zero
        chain = toy_chain(19)
        wave = MonochromaticWave(h0=1.0, nu=1.0)
        (argument,) = kwargs
        with pytest.raises(ChainConfigError, match=f"^{argument}"):
            evolve_chain(chain, wave, **{"window": (0.0, 1.0), **kwargs})

    def test_resonant_secular_growth(self):
        # envelope oracle: on resonance |alpha(t)| grows linearly following
        # the closed-form drive content h0 omega^2 t / 2
        chain = toy_chain(99)
        omega1 = float(normal_mode_frequencies(chain)[1])
        wave = MonochromaticWave(h0=1e-3, nu=omega1)
        cycles = 50
        t_end = cycles * 2 * math.pi / omega1
        traj = evolve_chain(chain, wave, (0.0, t_end), record_stride=20)
        alphas = np.array(
            [
                abs(mode_coherent_amplitude(chain, 1, c, cd))
                for c, cd in zip(traj.chi[1], traj.chi_dot[1])
            ]
        )
        c1 = coupling_coefficient(chain, 1)
        from gravibar.constants import HBAR

        m_eff = chain.total_mass / 2.0
        scale = c1 / math.sqrt(2.0 * m_eff * HBAR * omega1)
        # skip the first quarter where the envelope is still forming
        keep = traj.times > 0.25 * t_end
        predicted = scale * wave.h0 * omega1**2 * traj.times[keep] / 2.0
        np.testing.assert_allclose(alphas[keep], predicted, rtol=0.03)

    def test_off_resonant_sinc_suppression(self):
        chain = toy_chain(99)
        omega1 = float(normal_mode_frequencies(chain)[1])
        t_end = 50 * 2 * math.pi / omega1
        delta = 10.0 / t_end
        wave = MonochromaticWave(h0=1e-3, nu=omega1 + delta)
        traj = evolve_chain(chain, wave, (0.0, t_end), record_stride=50)
        alpha_end = abs(
            mode_coherent_amplitude(
                chain, 1, traj.chi[1][-1], traj.chi_dot[1][-1]
            )
        )
        c1 = coupling_coefficient(chain, 1)
        from gravibar.constants import HBAR

        m_eff = chain.total_mass / 2.0
        scale = c1 / math.sqrt(2.0 * m_eff * HBAR * omega1)
        envelope = abs(math.sin(delta * t_end / 2.0) / (delta * t_end / 2.0))
        predicted = scale * wave.h0 * omega1**2 * t_end / 2.0 * envelope
        assert alpha_end == pytest.approx(predicted, rel=0.10)

    def test_beta_equivalence_with_continuum(self):
        # matched chain and continuum bar agree on the coherent amplitude
        spec = toy_detector_for_chain()
        chain = ChainSpec.from_detector(spec, 199)
        omega = mode_frequency(spec)
        t_end = 40 * 2 * math.pi / omega
        wave = MonochromaticWave(h0=1e-3, nu=omega)
        traj = evolve_chain(chain, wave, (0.0, t_end), record_stride=100)
        alpha_end = abs(
            mode_coherent_amplitude(
                chain, 1, traj.chi[1][-1], traj.chi_dot[1][-1]
            )
        )
        beta = displacement_beta(spec, wave, (0.0, t_end))
        assert alpha_end == pytest.approx(beta.magnitude, rel=0.05)


class TestStreamedChain:
    """`evolve_chain` takes the strain and the segment sums a block of record
    segments at a time; the block size must not move a bit."""

    @pytest.mark.parametrize("case", ["stride-1", "stride-7", "stride-1000"])
    @pytest.mark.parametrize("block_nodes", [1, 10**12], ids=["smallest", "one-block"])
    def test_block_size_keeps_every_bit(self, case, block_nodes, monkeypatch):
        chain = toy_chain(39)
        omega1 = float(normal_mode_frequencies(chain)[1])
        wave = MonochromaticWave(h0=1e-3, nu=1.1 * omega1, phi0=0.3)
        chirp = ChirpSource.from_solar_masses(3.0, h0=1e-3, nu0=0.7 * omega1)
        runs = {
            "stride-1": (wave, (0.1, 3.7), (1, 2, 3), 1),
            "stride-7": (chirp, (-0.3, 2.9), (1, 2, 4), 7),
            # 139 segments: three default blocks of at most 64
            "stride-1000": (chirp, (0.05, 27.5), (1, 5), 1000),
        }
        signal, window, modes, stride = runs[case]
        n_steps = math.ceil((window[1] - window[0]) / max_stable_timestep(chain))
        # a partial last segment, and more segments than the smallest block
        assert (stride == 1 or n_steps % stride != 0) and n_steps // stride > 64
        default = evolve_chain(chain, signal, window, modes=modes, record_stride=stride)
        monkeypatch.setattr(lattice, "_BLOCK_NODES", block_nodes)
        got = evolve_chain(chain, signal, window, modes=modes, record_stride=stride)
        assert got.times.size == n_steps // stride + 1
        assert got.times.tobytes() == default.times.tobytes()
        for field in ("chi", "chi_dot"):
            g, d = getattr(got, field), getattr(default, field)
            assert list(g) == list(d) == list(modes)
            for l in modes:
                np.testing.assert_array_equal(g[l], d[l])
                assert g[l].tobytes() == d[l].tobytes(), (field, l)

    def test_window_shorter_than_a_segment(self):
        chain = toy_chain(19)
        wave = MonochromaticWave(h0=1e-3, nu=3.0)
        window = (0.25, 0.25 + 5.5 * max_stable_timestep(chain))
        traj = evolve_chain(chain, wave, window, modes=(1, 2), record_stride=10)
        np.testing.assert_array_equal(traj.times, [0.25])
        for l in (1, 2):
            np.testing.assert_array_equal(traj.chi[l], [0.0])
            np.testing.assert_array_equal(traj.chi_dot[l], [0.0])
        with pytest.raises(TypeError, match="not a strain signal"):
            evolve_chain(chain, "wave", window, record_stride=10)

    def test_long_window_memory_is_bounded(self):
        # the lattice-verify chain over 2 M steps: arrays of one entry per
        # step peaked at 47.7 MiB, the blocks stay under one
        spec = toy_detector_for_chain()
        chain = ChainSpec.from_detector(spec, 199)
        wave = MonochromaticWave(h0=1e-3, nu=mode_frequency(spec))
        window = (0.0, 2_000_000 * max_stable_timestep(chain))
        tracemalloc.start()
        try:
            traj = evolve_chain(chain, wave, window, record_stride=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == 20_001
        assert peak < 8 * 2**20


class TestContinuumChecks:
    def test_needs_two_distinct_n(self):
        # a convergence order is a fit in log N: one point cannot give it
        for n_values in ((19,), (19, 19)):
            with pytest.raises(ValueError, match="two or more distinct N"):
                continuum_checks(n_values)
