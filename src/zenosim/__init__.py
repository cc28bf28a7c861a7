"""zenosim: repeated finite-duration, finite-accuracy quantum measurements.

Builds the superoperator of a single measurement (exact detector-coordinate
quadrature, unperturbed closed form, or second-order perturbation theory),
composes measurement sequences to reproduce Zeno slowdown and the
equal-occupation fixed point, and evaluates measurement-modified spectral
lines and Zeno / anti-Zeno decay rates for decaying systems.
"""

from .decay import (
    ReservoirSpectrum,
    decay_rate,
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
    jump_table,
    rabi_unmeasured,
    rate_matrix,
)
from .model import (
    DetectorModel,
    SystemSpec,
    TwoLevelPreset,
    correlation,
    gaussian_detector,
)
from .qmat import apply_super, check_density_matrix
from .superop import (
    MeasurementChannel,
    build_exact,
    build_second_order,
    build_unperturbed,
    dump_channel,
    load_channel,
    repeat,
)

__version__ = "0.1.0"

__all__ = [
    "ReservoirSpectrum", "decay_rate", "emitted_spectrum", "fwhm", "golden_rule",
    "line_mass", "line_shape", "measured_decay_channel",
    "population_decay_rate", "zeno_limit_rate",
    "JumpTable", "RateMatrix", "inhibition_time", "jump_probability_general",
    "jump_table", "rabi_unmeasured", "rate_matrix",
    "DetectorModel", "SystemSpec", "TwoLevelPreset", "correlation", "gaussian_detector",
    "apply_super", "check_density_matrix",
    "MeasurementChannel", "build_exact", "build_second_order", "build_unperturbed",
    "dump_channel", "load_channel", "repeat",
]
