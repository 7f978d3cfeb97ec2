"""Exception types shared across the simulator and estimation pipeline."""


class HybridSpecError(Exception):
    """Base class for all package-specific errors."""


class PerturbationOutOfRange(HybridSpecError):
    """Detuning too large for the first-order eigenvalue expansion."""


class PoleAtRealAxis(HybridSpecError):
    """Lossless response evaluated exactly on an eigenfrequency."""


class PeaksNotResolved(HybridSpecError):
    """Fewer resonance peaks found than the analysis requires."""


class DivergentResponse(HybridSpecError):
    """Ensemble response denominator vanished."""


class NonUniqueSteadyState(HybridSpecError):
    """Liouvillian kernel is not one-dimensional."""


class SolverFailure(HybridSpecError):
    """A model could not be evaluated: its steady-state solve failed, or
    its arithmetic overflowed."""


class NoInteriorPeak(HybridSpecError):
    """Fit window does not contain an interior maximum."""


class NotConverged(HybridSpecError):
    """Iterative fit did not meet its convergence contract."""


class NonPositiveGamma(HybridSpecError):
    """Decay-rate fit collapsed to a non-positive value."""


class PipelineStageError(HybridSpecError):
    """A parameter-estimation stage failed; carries the stage tag."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
