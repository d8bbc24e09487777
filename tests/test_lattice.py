import math

import numpy as np
import pytest

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
    kinetic_cross_term,
    max_stable_timestep,
    mode_coherent_amplitude,
    normal_mode_frequencies,
)
from gravibar.waveform import MonochromaticWave


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
        with pytest.raises(ChainConfigError):
            ChainSpec(n_param=5, atom_mass=-1.0, spacing=1.0, debye_frequency=1.0)

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
        measured = effective_mode_mass(chain, l=1, probe=0.371)
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


class TestContinuumChecks:
    def test_needs_two_distinct_n(self):
        # a convergence order is a fit in log N: one point cannot give it
        for n_values in ((19,), (19, 19)):
            with pytest.raises(ValueError, match="two or more distinct N"):
                continuum_checks(n_values)
