import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravibar.constants import HBAR, K_B, SOLAR_MASS, require
from gravibar.detector import (
    DetectorSpec,
    DetectorSpecError,
    MATERIALS,
    Material,
    gamma_spontaneous,
    gamma_stimulated,
    mode_frequency,
    thermal_occupation,
)
from gravibar.dynamics import (
    chi_chirp_analytic,
    default_window,
    excitation_probability,
    optimal_mass,
    threshold_probability,
)
from gravibar.lattice import ChainConfigError, ChainSpec, evolve_chain, mode_coherent_amplitude
from gravibar.measurement import MeasurementConfig, run_ensemble
from gravibar.sensitivity import (
    characteristic_strain,
    classical_timedelay,
    golden_rule_stimulated,
    graviton_number,
    min_strain_monochromatic,
    sensitivity_curve,
)
from gravibar.waveform import (
    MonochromaticWave,
    SampledStrain,
    chirp_rate_k,
    coalescence_time,
    resonance_crossing_time,
    resonance_time,
)
from sensitivity_oracle import (
    monochromatic_rate,
    sensitivity_rows,
    stimulated_rate_wavepacket,
    thermal_rate_classical,
)

OMEGA_100 = 2 * math.pi * 100.0
BAR = DetectorSpec.from_frequency(MATERIALS["niobium"], OMEGA_100, radius=0.5)


CHAIN = ChainSpec.from_detector(BAR, 19)
K = chirp_rate_k(1.19 * SOLAR_MASS)
NU0 = 2 * math.pi * 30.0
QUIET = MeasurementConfig(dt=1e-2, t_m=0.5, t_meas=1.0, dim=4)

# id: (call, bad value, error class, message naming the argument)
ARGUMENT_FAULTS = {
    "thermal_occupation-T": (lambda x: thermal_occupation(x, OMEGA_100), math.nan,
                             ValueError, "temperature must be finite, got nan"),
    "thermal_occupation-omega": (lambda x: thermal_occupation(1e-3, x), math.nan,
                                 ValueError, "omega must be finite, got nan"),
    "gamma_stimulated": (lambda x: gamma_stimulated(BAR, x), math.nan,
                         ValueError, "h0 must be finite, got nan"),
    "resonance_crossing_time-k": (lambda x: resonance_crossing_time(x, OMEGA_100), math.nan,
                                  ValueError, "k must be finite, got nan"),
    "resonance_crossing_time-omega": (lambda x: resonance_crossing_time(1e-9, x), math.nan,
                                      ValueError, "omega must be finite, got nan"),
    "graviton_number-h0": (lambda x: graviton_number(x, OMEGA_100), math.nan,
                           ValueError, "h0 must be finite, got nan"),
    "graviton_number-nu": (lambda x: graviton_number(1e-21, x), math.nan,
                           ValueError, "nu must be finite, got nan"),
    "golden_rule_stimulated": (lambda x: golden_rule_stimulated(BAR, x), math.nan,
                               ValueError, "n_gravitons must be finite, got nan"),
    "min_strain_monochromatic": (lambda x: min_strain_monochromatic(BAR, x), math.nan,
                                 ValueError, "n_cycles must be >= 1, got nan"),
    "from_frequency": (lambda x: DetectorSpec.from_frequency(MATERIALS["niobium"], x, radius=0.5),
                       math.nan, DetectorSpecError, "frequency must be finite, got nan"),
    "thermal_occupation-T-inf": (lambda x: thermal_occupation(x, 600.0), math.inf,
                                 ValueError, "temperature must be finite, got inf"),
    "classical_timedelay-zero": (lambda x: classical_timedelay(BAR, x, OMEGA_100), 0.0,
                                 ValueError, r"h0 must be > 0, got 0\.0"),
    "classical_timedelay-nan": (lambda x: classical_timedelay(BAR, x, OMEGA_100), math.nan,
                                ValueError, "h0 must be finite, got nan"),
    "sensitivity_curve-inf": (lambda x: sensitivity_curve(BAR, [10.0, x]), math.inf,
                              DetectorSpecError, "frequency must be finite, got inf at sample 1"),
    "gamma_stimulated-inf": (lambda x: gamma_stimulated(BAR, x), math.inf,
                             ValueError, "h0 must be finite, got inf"),
    "optimal_mass-inf": (lambda x: optimal_mass(MATERIALS["niobium"], 1.0, x), math.inf,
                         ValueError, "omega must be finite, got inf"),
    "threshold_probability": (lambda x: threshold_probability(BAR, x, OMEGA_100, 1.0), math.nan,
                              ValueError, "h0 must be finite, got nan"),
    "excitation_probability-beta": (lambda x: excitation_probability(x, 1), math.nan,
                                    ValueError, "beta must be finite, got nan"),
    "coalescence_time": (lambda x: coalescence_time(x, K), math.nan,
                         ValueError, "nu0 must be finite, got nan"),
    "resonance_time": (lambda x: resonance_time(NU0, K, x), math.nan,
                       ValueError, "omega must be finite, got nan"),
    "mode_coherent_amplitude": (lambda x: mode_coherent_amplitude(CHAIN, 1, x, 0.0), math.nan,
                                ChainConfigError, "chi must be finite, got nan"),
    "default_window": (lambda x: default_window(MonochromaticWave(1e-22, OMEGA_100), OMEGA_100, x),
                       math.nan, ValueError, "span must be finite, got nan"),
    "excitation_probability-n": (lambda x: excitation_probability(1.0, x), 1.5,
                                 ValueError, r"n must be an integer, got 1\.5"),
    "run_ensemble-bool": (lambda x: run_ensemble(BAR, None, QUIET, x, duration=0.1), True,
                          ValueError, "n_traj must be an integer, got True"),
    "run_ensemble-float": (lambda x: run_ensemble(BAR, None, QUIET, x, duration=0.1), 2.5,
                           ValueError, r"n_traj must be an integer, got 2\.5"),
    "chi_chirp_analytic-k": (lambda x: chi_chirp_analytic(2e-22, x, OMEGA_100), math.nan,
                             ValueError, "k must be finite, got nan"),
    "chi_chirp_analytic-omega": (lambda x: chi_chirp_analytic(2e-22, K, x), math.nan,
                                 ValueError, "omega must be finite, got nan"),
    "chi_chirp_analytic-h0": (lambda x: chi_chirp_analytic(x, K, OMEGA_100), math.nan,
                              ValueError, "h0 must be finite, got nan"),
    "from_frequency-mass": (lambda x: DetectorSpec.from_frequency(MATERIALS["niobium"], OMEGA_100,
                                                                  mass=x),
                            -1.0, DetectorSpecError, r"mass must be > 0, got -1\.0"),
    "mode_coherent_amplitude-l": (lambda x: mode_coherent_amplitude(CHAIN, x, 1e-20, 0.0), 0,
                                  ChainConfigError, "l must be >= 1, got 0"),
    "min_strain_monochromatic-inf": (lambda x: min_strain_monochromatic(BAR, x), math.inf,
                                     ValueError, "n_cycles must be finite, got inf"),
    "mode_coherent_amplitude-l-high": (lambda x: mode_coherent_amplitude(CHAIN, x, 1.0, 0.0), 99,
                                       ChainConfigError, r"mode l must be in \[1, 19\], got 99"),
    "graviton_number-underflow": (lambda x: graviton_number(x, OMEGA_100), 1e-200, ValueError,
                                  "h0 must keep the graviton number a normal float, got 1e-200"),
    "classical_timedelay-overflow": (lambda x: classical_timedelay(BAR, x, OMEGA_100), 1e-200,
                                     ValueError,
                                     "h0 must keep the time delay a normal float, got 1e-200"),
    "evolve_chain-mode-zero": (lambda x: evolve_chain(CHAIN, MonochromaticWave(1e-22, OMEGA_100),
                                                      (0.0, 1e-3), modes=(x, 1)),
                               0, ChainConfigError, r"mode l must be in \[1, 19\], got 0"),
    # a fractional mode passed the range check and raised a bare IndexError
    "evolve_chain-mode-fractional": (lambda x: evolve_chain(
        CHAIN, MonochromaticWave(1e-22, OMEGA_100), (0.0, 1e-3), modes=(x,)),
        1.5, ChainConfigError, r"mode l must be in \[1, 19\], got 1\.5"),
}
# a strain or chi whose square (or the result) overflows or underflows once
# raised a bare OverflowError or ZeroDivisionError as a Python float and
# leaked a RuntimeWarning as an np.float64; each is named, either way
OVERFLOWS = [
    ("gamma_stimulated", lambda x: gamma_stimulated(BAR, x), 1e200,
     "h0 must keep the stimulated rate a normal float"),
    ("threshold_probability", lambda x: threshold_probability(BAR, x, OMEGA_100, 1.0), 1e200,
     "h0 must keep the excitation probability a normal float"),
    ("optimal_mass-high", lambda x: optimal_mass(MATERIALS["niobium"], x, OMEGA_100), 1e200,
     "chi must keep the optimal mass a normal float"),
    ("optimal_mass-low", lambda x: optimal_mass(MATERIALS["niobium"], x, OMEGA_100), 1e-200,
     "chi must keep the optimal mass a normal float"),
    ("optimal_mass-omega", lambda x: optimal_mass(MATERIALS["niobium"], 1e-17, x), 1e120,
     "omega must keep the optimal mass a normal float"),
    ("graviton_number-overflow", lambda x: graviton_number(x, OMEGA_100), 1e200,
     "h0 must keep the graviton number a normal float"),
    ("classical_timedelay-underflow", lambda x: classical_timedelay(BAR, x, OMEGA_100), 1e-200,
     "h0 must keep the time delay a normal float"),
]
ARGUMENT_FAULTS.update({
    f"{name}-{kind.__name__}": (call, kind(value), ValueError, re.escape(f"{message}, got {value}"))
    for kind in (float, np.float64) for name, call, value, message in OVERFLOWS
})

@pytest.mark.parametrize("call, value, error, message", ARGUMENT_FAULTS.values(),
                         ids=ARGUMENT_FAULTS.keys())
def test_nan_argument_rejected(call, value, error, message):
    # each once returned nan, inf or 0, accepted a non-integer count, raised a
    # bare ZeroDivisionError, IndexError or TypeError, leaked a RuntimeWarning,
    # or named no argument or the wrong one (from_frequency blamed the bar's
    # length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{message}$") as raised:
            call(value)
    assert raised.type is error


def test_require_rules():
    # numpy numbers pass like Python ones, None and a finite complex pass
    require({"x": np.float64(2.0), "n": np.int64(3), "z": None, "beta": 1 + 2j},
            positive=("x",), finite=("z", "beta"), integer={"n": 3})
    for record, rules, message in [
        ({"n": True}, {"integer": {"n": 0}}, "n must be an integer, got True"),
        ({"n": 3.0}, {"integer": {"n": 0}}, r"n must be an integer, got 3\.0"),
        ({"n": 2}, {"integer": {"n": 3}}, "n must be >= 3, got 2"),
        ({"x": -0.5}, {"nonnegative": ("x",)}, r"x must be >= 0, got -0\.5"),
        ({"x": -math.inf}, {"nonnegative": ("x",)}, "x must be finite, got -inf"),
        ({"beta": complex(math.nan, 0.0)}, {"finite": ("beta",)}, r"beta must be finite, got \(nan\+0j\)"),
        ({"a": np.array([[1.0, 2.0], [0.0, 3.0]])}, {"positive": ("a",)},
         r"a must be > 0, got 0\.0 at sample 2"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            require(record, **rules)
    # an empty array breaks no rule: the record's own size check names it
    with pytest.raises(ValueError, match="^need at least 3 strain samples$"):
        SampledStrain(t0=0.0, dt=1e-3, h=[])


class TestGravitonNumber:
    def test_reference_count(self):
        n = graviton_number(1e-21, 2 * math.pi * 150.0)
        assert n == pytest.approx(4e36, rel=0.10)

    def test_strain_squared(self):
        assert graviton_number(2e-21, OMEGA_100) == pytest.approx(
            4.0 * graviton_number(1e-21, OMEGA_100), rel=1e-12
        )

    def test_inverse_frequency_squared(self):
        assert graviton_number(1e-21, 2 * OMEGA_100) == pytest.approx(
            graviton_number(1e-21, OMEGA_100) / 4.0, rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            graviton_number(0.0, OMEGA_100)

    def test_tiny_strain_scales_as_its_square(self):
        # h0^2 = 1e-320 is subnormal: the count read 1.1e-5 low and the delay
        # 1.1e-5 high, and at 1e-170 the delay raised ZeroDivisionError
        scale = (1e-160 / 1e-21) ** 2
        assert graviton_number(1e-160, OMEGA_100) == pytest.approx(
            graviton_number(1e-21, OMEGA_100) * scale, rel=1e-12
        )
        assert classical_timedelay(BAR, 1e-160, OMEGA_100) == pytest.approx(
            classical_timedelay(BAR, 1e-21, OMEGA_100) / scale, rel=1e-12
        )


class TestGoldenRule:
    def test_zero_quanta(self):
        spec = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)
        assert golden_rule_stimulated(spec, 0.0) == 0.0

    def test_single_quantum_equals_spontaneous(self):
        spec = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)
        assert golden_rule_stimulated(spec, 1.0) == pytest.approx(
            gamma_spontaneous(spec), rel=1e-12
        )

    def test_aluminum_bar_near_one_hz(self):
        spec = DetectorSpec(
            MATERIALS["aluminum"], length=3.0, radius=0.3, mass=1800.0,
            geometry_mass_check=False,
        )
        omega = mode_frequency(spec)
        rate = golden_rule_stimulated(spec, graviton_number(5e-22, omega))
        assert rate == pytest.approx(1.0, rel=0.3)

    def test_identity_with_classical_rate(self):
        # the graviton-count route reproduces the classical stimulated rate
        rng = np.random.default_rng(2024)
        for _ in range(100):
            mat = Material(
                "x",
                density=float(rng.uniform(100, 2e4)),
                sound_speed=float(rng.uniform(200, 2e4)),
            )
            spec = DetectorSpec(
                material=mat,
                length=float(rng.uniform(0.05, 30.0)),
                radius=float(rng.uniform(0.01, 2.0)),
                mode_index=int(rng.choice([1, 3, 5])),
                quality=float(rng.uniform(1e6, 1e12)),
                temperature=float(rng.uniform(1e-4, 1.0)),
            )
            h0 = float(rng.uniform(1e-24, 1e-19))
            omega = mode_frequency(spec)
            via_quanta = golden_rule_stimulated(spec, graviton_number(h0, omega))
            direct = gamma_stimulated(spec, h0)
            assert via_quanta == pytest.approx(direct, rel=1e-9)


class TestCharacteristicStrain:
    def test_reference_value(self):
        spec = DetectorSpec(
            MATERIALS["aluminum"], length=3.0, radius=0.3, mass=1100.0,
            geometry_mass_check=False, quality=1e10, temperature=1e-3,
        )
        expected = 2 * math.pi * math.sqrt(
            math.pi * K_B * 1e-3 / (1100.0 * 5.1e3**2 * 1e10)
        )
        h_c = characteristic_strain(spec)
        assert h_c == pytest.approx(expected, rel=1e-12)
        assert h_c == pytest.approx(7.7e-23, rel=0.02)

    def test_temperature_quality_scaling(self):
        base = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5,
                            quality=1e9, temperature=1e-3)
        hot = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5,
                           quality=1e9, temperature=4e-3)
        assert characteristic_strain(hot) == pytest.approx(
            2.0 * characteristic_strain(base), rel=1e-12
        )

    def test_mass_scaling(self):
        light = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)
        heavy = DetectorSpec(
            MATERIALS["niobium"], length=1.0, radius=0.5,
            mass=4.0 * light.mass, geometry_mass_check=False,
        )
        assert characteristic_strain(heavy) == pytest.approx(
            characteristic_strain(light) / 2.0, rel=1e-12
        )


class TestMinStrainMonochromatic:
    def spec(self):
        return DetectorSpec(
            MATERIALS["niobium"], length=1.0, radius=0.5,
            quality=1e10, temperature=1e-3,
        )

    def test_characteristic_strain_identity(self):
        spec = self.spec()
        for n_c in (1.0, 10.0, 1e4):
            h0 = min_strain_monochromatic(spec, n_c)
            assert characteristic_strain(spec) == pytest.approx(
                2 * math.pi * h0 * math.sqrt(n_c), rel=1e-12
            )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        material=st.sampled_from(sorted(MATERIALS)),
        length=st.floats(0.1, 10.0),
        radius=st.floats(0.01, 2.0),
        quality=st.floats(1e5, 1e12),
        temperature=st.floats(1e-4, 300.0),
        n_c=st.floats(1.0, 1e8),
    )
    def test_characteristic_strain_identity_property(
        self, material, length, radius, quality, temperature, n_c
    ):
        # the wavepacket strain floor h_c and the monochromatic floor h0
        # over N_c cycles obey h_c = 2 pi h0 sqrt(N_c)
        spec = DetectorSpec(
            MATERIALS[material], length=length, radius=radius,
            quality=quality, temperature=temperature,
        )
        h0 = min_strain_monochromatic(spec, n_c)
        assert characteristic_strain(spec) == pytest.approx(
            2 * math.pi * h0 * math.sqrt(n_c), rel=1e-12
        )

    def test_cycle_scaling(self):
        spec = self.spec()
        assert min_strain_monochromatic(spec, 4.0) == pytest.approx(
            min_strain_monochromatic(spec, 1.0) / 2.0, rel=1e-12
        )

    def test_rate_balance(self):
        # the minimum strain balances the monochromatic excitation rate
        # against the thermal rate in its classical-occupation form
        spec = self.spec()
        n_c = 250.0
        h0 = min_strain_monochromatic(spec, n_c)
        assert monochromatic_rate(spec, h0, n_c) == pytest.approx(
            thermal_rate_classical(spec), rel=1e-9
        )

    def test_wavepacket_balance_at_characteristic_strain(self):
        spec = self.spec()
        h_c = characteristic_strain(spec)
        assert stimulated_rate_wavepacket(spec, h_c) == pytest.approx(
            thermal_rate_classical(spec), rel=1e-9
        )

    def test_requires_at_least_one_cycle(self):
        with pytest.raises(ValueError):
            min_strain_monochromatic(self.spec(), 0.5)


class TestClassicalTimedelay:
    def spec(self):
        return DetectorSpec(MATERIALS["niobium"], length=1.0, radius=0.5)

    def test_reference_timescale(self):
        tau = classical_timedelay(self.spec(), 2e-22, OMEGA_100)
        assert 1e-26 / 3.0 < tau < 3.0 * 1e-26

    def test_strain_scaling(self):
        spec = self.spec()
        assert classical_timedelay(spec, 2e-22, OMEGA_100) == pytest.approx(
            classical_timedelay(spec, 1e-22, OMEGA_100) / 4.0, rel=1e-12
        )

    def test_radius_scaling(self):
        big = DetectorSpec(MATERIALS["niobium"], length=1.0, radius=1.0)
        assert classical_timedelay(big, 2e-22, OMEGA_100) == pytest.approx(
            classical_timedelay(self.spec(), 2e-22, OMEGA_100) / 4.0, rel=1e-12
        )


class TestSensitivityCurve:
    def template(self, **kw):
        base = dict(material=MATERIALS["niobium"], length=1.0, radius=0.5,
                    quality=1e10, temperature=1e-3)
        base.update(kw)
        return DetectorSpec(**base)

    def test_single_point_equals_characteristic_strain(self):
        template = self.template()
        f = mode_frequency(template) / (2 * math.pi)
        curve = sensitivity_curve(template, [f])
        assert curve.shape == (1, 2)
        assert curve[0, 1] == pytest.approx(
            characteristic_strain(template), rel=1e-9
        )

    def test_quality_over_temperature_scaling(self):
        # doubling Q/T lowers the whole curve by sqrt(2)
        freqs = np.linspace(50.0, 500.0, 7)
        base = sensitivity_curve(self.template(), freqs)
        better = sensitivity_curve(self.template(quality=2e10), freqs)
        for a, b in zip(base[:, 1], better[:, 1]):
            assert b == pytest.approx(a / math.sqrt(2.0), rel=1e-12)

    def test_monotone_in_implied_mass(self):
        # at fixed material and radius, higher frequency means a shorter,
        # lighter bar and hence a worse (larger) strain floor
        freqs = np.linspace(50.0, 2000.0, 9)
        values = sensitivity_curve(self.template(), freqs)[:, 1].tolist()
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            sensitivity_curve(self.template(), [100.0, 50.0])
        with pytest.raises(DetectorSpecError, match="frequency must be > 0"):
            sensitivity_curve(self.template(), [0.0, 50.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        density=st.floats(100.0, 2e4),
        sound_speed=st.floats(100.0, 2e4),
        radius=st.floats(0.01, 2.0),
        mode_index=st.integers(0, 6).map(lambda j: 2 * j + 1),
        quality=st.floats(1e3, 1e12),
        temperature=st.floats(1e-4, 300.0),
        f_min=st.floats(0.1, 1e3),
        steps=st.lists(st.floats(1e-3, 1e3), min_size=0, max_size=40),
    )
    def test_matches_per_detector_oracle(
        self, density, sound_speed, radius, mode_index, quality, temperature,
        f_min, steps,
    ):
        template = DetectorSpec(
            Material("m", density=density, sound_speed=sound_speed),
            length=1.0, radius=radius, mode_index=mode_index,
            quality=quality, temperature=temperature,
        )
        freqs = f_min + np.cumsum([0.0, *steps])
        curve = sensitivity_curve(template, freqs)
        expected = sensitivity_rows(template, freqs)
        assert curve[:, 0].tolist() == expected[:, 0].tolist()
        np.testing.assert_allclose(curve[:, 1], expected[:, 1], rtol=1e-13, atol=0.0)
