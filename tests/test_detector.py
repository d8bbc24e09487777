import math

import numpy as np
import pytest

from gravibar.constants import C_LIGHT, G, HBAR, K_B
from gravibar.detector import (
    DetectorSpec,
    DetectorSpecError,
    MATERIALS,
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

NIOBIUM = MATERIALS["niobium"]


def niobium_bar(**kwargs) -> DetectorSpec:
    defaults = dict(material=NIOBIUM, length=1.0, radius=0.5)
    defaults.update(kwargs)
    return DetectorSpec(**defaults)


def gamma_spontaneous_geometric(spec: DetectorSpec) -> float:
    """Oracle: the geometric form 8*pi*G*rho*v_s^4*R^2/(L*c^5) of the rate."""
    rho, v_s = spec.material.density, spec.material.sound_speed
    return 8.0 * math.pi * G * rho * v_s**4 * spec.radius**2 / (spec.length * C_LIGHT**5)


class TestMaterial:
    def test_invariants(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DetectorSpecError, match=f"^density must be .*, got {bad}$"):
                Material("bad", density=bad, sound_speed=5e3)
        with pytest.raises(DetectorSpecError, match="^sound_speed must be > 0, got 0.0$"):
            Material("bad", density=8570.0, sound_speed=0.0)

    def test_builtin_niobium(self):
        assert NIOBIUM.density == 8570.0
        assert NIOBIUM.sound_speed == 5.0e3

    def test_lookup_unknown(self):
        with pytest.raises(DetectorSpecError, match="unknown material"):
            get_material("unobtainium")


class TestDetectorSpec:
    def test_even_mode_rejected(self):
        with pytest.raises(DetectorSpecError, match="odd"):
            niobium_bar(mode_index=2)

    @pytest.mark.parametrize("mode_index", [1.5, 3.0])
    def test_non_integral_mode_rejected(self, mode_index):
        # 1.5 % 2 == 0 is False: mode_index = 1.5 once gave a mode the bar lacks
        with pytest.raises(DetectorSpecError, match="odd positive integer"):
            niobium_bar(mode_index=mode_index)
        assert niobium_bar(mode_index=np.int64(3)).mode_index == 3

    @pytest.mark.parametrize("field", ["length", "radius", "mass", "quality", "temperature"])
    def test_positive_fields(self, field):
        for bad, rule in ((-1.0, "> 0"), (math.nan, "finite"), (math.inf, "finite")):
            with pytest.raises(DetectorSpecError, match=f"^{field} must be {rule}, got {bad}$"):
                niobium_bar(**{field: bad})

    @pytest.mark.parametrize("length, radius, message", [
        (1e300, 1e10, "mass must be finite, got inf"),
        (1e-300, 1e-300, "mass must be > 0, got 0.0"),
        (1.0, 1e200, "mass must be finite, got inf"),
    ], ids=["product-overflows", "product-underflows", "radius-squared-overflows"])
    def test_derived_mass_checked(self, length, radius, message):
        # accepted with mass inf and 0.0, and a bare OverflowError from R**2
        with pytest.raises(DetectorSpecError, match=f"^{message}$"):
            niobium_bar(length=length, radius=radius)

    def test_stated_mass_against_overflowing_geometry(self):
        # a bare OverflowError from R**2 before
        with pytest.raises(DetectorSpecError, match="geometric mass inf kg"):
            niobium_bar(radius=1e200, mass=10.0)
        assert niobium_bar(radius=1e200, mass=10.0, geometry_mass_check=False).mass == 10.0

    def test_mass_defaults_to_geometry(self):
        spec = niobium_bar()
        assert spec.mass == pytest.approx(8570.0 * math.pi * 0.25, rel=1e-12)

    def test_inconsistent_mass_rejected(self):
        geometric = niobium_bar().geometric_mass()
        with pytest.raises(DetectorSpecError, match="geometric mass"):
            niobium_bar(mass=2.0 * geometric)
        # within 20% passes
        spec = niobium_bar(mass=1.1 * geometric)
        assert spec.mass == pytest.approx(1.1 * geometric)

    def test_mass_without_geometry_check(self):
        spec = niobium_bar(mass=1800.0, geometry_mass_check=False)
        assert spec.mass == 1800.0

    def test_from_frequency_round_trip(self):
        omega = 2 * math.pi * 100.0
        spec = DetectorSpec.from_frequency(NIOBIUM, omega, radius=0.5)
        assert mode_frequency(spec) == pytest.approx(omega, rel=1e-12)


class TestModeFrequency:
    def test_fundamental_value(self):
        # direct evaluation of l*pi*v_s/L for v_s = 5 km/s, L = 1 m
        omega = mode_frequency(niobium_bar())
        assert omega == pytest.approx(15707.963267948966, rel=1e-12)
        assert omega / (2 * math.pi) == pytest.approx(2500.0, rel=1e-12)

    def test_linear_in_mode_index(self):
        assert mode_frequency(niobium_bar(mode_index=3)) == pytest.approx(
            3 * mode_frequency(niobium_bar()), rel=1e-12
        )

    def test_inverse_in_length(self):
        assert mode_frequency(niobium_bar(length=2.0)) == pytest.approx(
            0.5 * mode_frequency(niobium_bar()), rel=1e-12
        )


class TestGammaSpontaneous:
    def test_order_of_magnitude(self):
        # quoted scale for the 1 m x 0.5 m niobium bar
        rate = gamma_spontaneous(niobium_bar())
        assert 0.5e-33 < rate < 2e-33

    def test_two_forms_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
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
            )
            a = gamma_spontaneous(spec)
            b = gamma_spontaneous_geometric(spec)
            assert a == pytest.approx(b, rel=1e-12)

    def test_linear_in_mass(self):
        spec = niobium_bar(mass=niobium_bar().geometric_mass())
        half = niobium_bar(
            mass=0.5 * spec.mass, geometry_mass_check=False
        )
        assert gamma_spontaneous(half) == pytest.approx(
            0.5 * gamma_spontaneous(spec), rel=1e-12
        )

    def test_radius_squared_scaling(self):
        # the mass follows the geometry, so the rate scales as R^2
        base = gamma_spontaneous(niobium_bar())
        doubled = gamma_spontaneous(niobium_bar(radius=1.0))
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)


class TestGammaStimulated:
    def test_aluminum_bar_near_one_hz(self):
        spec = DetectorSpec(
            material=MATERIALS["aluminum"],
            length=3.0,
            radius=0.3,
            mass=1800.0,
            geometry_mass_check=False,
        )
        rate = gamma_stimulated(spec, 5e-22)
        assert rate == pytest.approx(1.0, rel=0.3)

    def test_zero_strain(self):
        assert gamma_stimulated(niobium_bar(), 0.0) == 0.0

    def test_quadratic_in_strain(self):
        spec = niobium_bar()
        assert gamma_stimulated(spec, 2e-22) == pytest.approx(
            4.0 * gamma_stimulated(spec, 1e-22), rel=1e-12
        )

    def test_forms_agree(self):
        spec = niobium_bar(mode_index=3)
        omega = mode_frequency(spec)
        h0 = 1e-21
        explicit = (
            spec.mass * spec.length**2 * omega**2 * h0**2
            / (4 * spec.mode_index**4 * math.pi**5 * HBAR)
        )
        assert gamma_stimulated(spec, h0) == pytest.approx(explicit, rel=1e-12)

    def test_negative_strain_rejected(self):
        with pytest.raises(ValueError):
            gamma_stimulated(niobium_bar(), -1e-22)


class TestThermalOccupation:
    def test_millikelvin_value(self):
        omega = 2 * math.pi * 100.0
        x = HBAR * omega / (K_B * 1e-3)
        direct = 1.0 / (math.exp(x) - 1.0)
        nbar = thermal_occupation(1e-3, omega)
        # naive exp(x)-1 oracle carries ~eps/x relative error at x ~ 5e-6
        assert nbar == pytest.approx(direct, rel=1e-9)
        assert nbar == pytest.approx(2.08e5, rel=2e-2)

    def test_ground_state_limit(self):
        # hbar*omega/k_B T ~ 2400: occupation is astronomically suppressed
        assert thermal_occupation(1e-3, 2 * math.pi * 5e10) < 1e-300

    def test_overflow_safe(self):
        assert thermal_occupation(1e-9, 2 * math.pi * 1e15) == 0.0

    def test_classical_limit(self):
        omega = 2 * math.pi * 100.0
        t_hot = 150.0 * HBAR * omega / K_B
        nbar = thermal_occupation(t_hot, omega)
        assert nbar == pytest.approx(K_B * t_hot / (HBAR * omega), rel=1e-2)


class TestGammaThermal:
    def test_reference_value(self):
        # v_s = 5000 m/s over 25 m puts the fundamental at 100 Hz
        spec = niobium_bar(length=25.0, quality=1e10, temperature=1e-3)
        omega = 2 * math.pi * 100.0
        expected = omega * thermal_occupation(1e-3, omega) / 1e10
        rate = gamma_thermal(spec)
        assert rate == pytest.approx(expected, rel=1e-12)
        assert rate == pytest.approx(1.3e-2, rel=5e-2)

    def test_vanishes_at_infinite_quality(self):
        spec = niobium_bar(quality=1e300)
        assert gamma_thermal(spec) == pytest.approx(0.0, abs=1e-250)

    def test_monotone_in_temperature_and_quality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = float(rng.uniform(1e-4, 1.0))
            q = float(rng.uniform(1e6, 1e12))
            base = gamma_thermal(niobium_bar(temperature=t, quality=q))
            hotter = gamma_thermal(niobium_bar(temperature=2 * t, quality=q))
            better = gamma_thermal(niobium_bar(temperature=t, quality=2 * q))
            assert hotter > base
            assert better < base


class TestFockLifetime:
    def test_reference_value(self):
        spec = niobium_bar(quality=1e10, temperature=1e-3)
        # hbar Q/(k_B T) for these values
        assert fock_lifetime(spec) == pytest.approx(76.38, rel=1e-3)

    def test_scalings(self):
        base = fock_lifetime(niobium_bar())
        assert fock_lifetime(niobium_bar(quality=2e10)) == pytest.approx(
            2 * base, rel=1e-12
        )
        assert fock_lifetime(niobium_bar(temperature=2e-3)) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_warns_outside_classical_regime(self):
        spec = niobium_bar(temperature=1e-9)
        with pytest.warns(UserWarning, match="k_B"):
            fock_lifetime(spec)


class TestMaterialFile:
    def test_load_and_merge(self, tmp_path):
        path = tmp_path / "materials.ini"
        path.write_text("[titanium]\ndensity = 4500\nsound_speed = 6070\n")
        table = load_materials(str(path))
        assert table["titanium"].sound_speed == 6070.0
        assert get_material("titanium", table).density == 4500.0
        # builtins still resolve
        assert get_material("niobium", table) is NIOBIUM

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "materials.ini"
        path.write_text("[x]\ndensity = 1\nsound_speed = 1\ncolor = blue\n")
        with pytest.raises(DetectorSpecError, match="color"):
            load_materials(str(path))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_materials("/nonexistent/materials.ini")
