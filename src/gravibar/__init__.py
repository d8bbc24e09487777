"""Single-graviton detection with ground-state-cooled bar resonators.

Library for modeling stimulated and spontaneous graviton exchange with
massive acoustic resonators: emission/absorption rates, exact semiclassical
excitation dynamics under gravitational-wave drives, optimal detector
parameters, sensitivity curves, and stochastic quantum trajectories under
continuous weak energy measurement.
"""

from .constants import CONSTANTS, PhysicalConstants, SOLAR_MASS
from .detector import (
    DetectorSpec,
    Material,
    MATERIALS,
    fock_lifetime,
    gamma_spontaneous,
    gamma_stimulated,
    gamma_thermal,
    mode_frequency,
    thermal_occupation,
)
from .waveform import (
    ChirpSource,
    MonochromaticWave,
    SampledStrain,
    chirp_frequency,
    chirp_phase,
    chirp_rate_k,
    chirp_window,
    load_strain_series,
    resonance_crossing_time,
)
from .dynamics import (
    BetaAmplitude,
    ChiResult,
    chi_chirp_analytic,
    chi_monochromatic,
    chi_quadrature,
    chi_stationary_phase,
    displacement_beta,
    excitation_probability,
    optimal_mass,
    optimal_mass_chirp,
    threshold_probability,
)
from .fock import QuantumState
from .measurement import (
    MeasurementConfig,
    TrajectoryRecord,
    detect_jump,
    run_ensemble,
    run_trajectory,
    step,
)
from .sensitivity import (
    characteristic_strain,
    classical_timedelay,
    golden_rule_stimulated,
    graviton_number,
    min_strain_monochromatic,
    sensitivity_curve,
)
from .lattice import (
    ChainSpec,
    coupling_coefficient,
    effective_mode_mass,
    evolve_chain,
    normal_mode_frequencies,
)

__version__ = "0.1.0"
