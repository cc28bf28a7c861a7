"""zenosim: repeated finite-duration, finite-accuracy quantum measurements.

Builds the superoperator of a single measurement (exact detector-coordinate
quadrature, unperturbed closed form, or second-order perturbation theory),
composes measurement sequences to reproduce Zeno slowdown and the
equal-occupation fixed point, and evaluates measurement-modified spectral
lines and Zeno / anti-Zeno decay rates for decaying systems.
"""

from .decay import (
    DecaySystem,
    LineShape,
    ReservoirSpectrum,
    build_decay_system,
    decay_rate,
    effective_channel,
    emitted_spectrum,
    fwhm,
    golden_rule,
    line_mass,
    line_shape,
    measured_decay_channel,
    population_decay_rate,
    zeno_limit_rate,
)
from .dynamics import (
    JumpTable,
    RateMatrix,
    inhibition_time,
    jump_probability_general,
    jump_probability_strong,
    jump_probability_timeindep,
    jump_table,
    measured_exponential,
    rabi_unmeasured,
    rate_matrix,
    two_level_inhibition_time,
)
from .model import (
    DetectorModel,
    MeasurementStrength,
    SystemSpec,
    TwoLevelPreset,
    correlation,
    custom_detector,
    gaussian_detector,
    required_duration,
    strength,
)
from .qmat import apply_super, check_density_matrix, herm_eig, unitary_exp
from .superop import (
    MeasurementChannel,
    QuadratureRule,
    build_exact,
    build_second_order,
    build_unperturbed,
    default_rule,
    dump_channel,
    load_channel,
    repeat,
)

__version__ = "0.1.0"

__all__ = [
    "DecaySystem", "LineShape", "ReservoirSpectrum", "build_decay_system",
    "decay_rate", "effective_channel", "emitted_spectrum", "fwhm", "golden_rule",
    "line_mass", "line_shape", "measured_decay_channel",
    "population_decay_rate", "zeno_limit_rate",
    "JumpTable", "RateMatrix", "inhibition_time", "jump_probability_general",
    "jump_probability_strong", "jump_probability_timeindep", "jump_table",
    "measured_exponential", "rabi_unmeasured", "rate_matrix",
    "two_level_inhibition_time",
    "DetectorModel", "MeasurementStrength", "SystemSpec", "TwoLevelPreset",
    "correlation", "custom_detector", "gaussian_detector", "required_duration",
    "strength",
    "apply_super", "check_density_matrix", "herm_eig", "unitary_exp",
    "MeasurementChannel", "QuadratureRule", "build_exact", "build_second_order",
    "build_unperturbed", "default_rule", "dump_channel", "load_channel", "repeat",
]
