"""Exception types shared across the package."""


class ZenoSimError(Exception):
    """Base class for all zenosim errors."""


class NonHermitianInput(ZenoSimError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class DimensionMismatch(ZenoSimError):
    """Operands have incompatible dimensions."""


class InvalidDensityMatrix(ZenoSimError):
    """Density-matrix invariants (hermiticity, trace, positivity) violated."""


class ZeroStrength(ZenoSimError):
    """Operation requires a nonzero measurement strength."""


class NumericalConvergenceError(ZenoSimError):
    """Base class for failures of adaptive numerical schemes.

    ladder lists the (level, change) steps a refinement ladder climbed
    (`qmat._refine`); it is empty for a failure no ladder reached."""

    def __init__(self, message, ladder=()):
        super().__init__(message)
        self.ladder = list(ladder)


class QuadratureNotConverged(NumericalConvergenceError):
    """An adaptive quadrature failed to reach the requested tolerance."""


class PropagationStepTooCoarse(NumericalConvergenceError):
    """Sub-step refinement of a time-dependent propagator did not stabilize."""


class StepCountTooSmall(ZenoSimError):
    """Fewer integration steps requested than the scheme supports."""


class TraceDrift(NumericalConvergenceError):
    """Trace of a propagated density matrix drifted beyond tolerance."""


class ZeroFrequency(ZenoSimError):
    """Strong-measurement formula is singular for a degenerate transition."""


class NoTransitions(ZenoSimError):
    """The perturbation couples no pair of levels."""


class GridTooNarrow(ZenoSimError):
    """An evaluation grid misses a non-negligible part of the line mass."""


class ParseError(ZenoSimError):
    """Configuration text is not well formed."""


class ValidationError(ZenoSimError):
    """Configuration is well formed but violates the schema.

    Collects every violation found so a user can fix them in one pass.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NotInZenoRegime(UserWarning):
    """Warning: parameters are outside the validity window of a limit formula."""
