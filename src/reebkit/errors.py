"""Exception types shared across the toolkit."""


class ReebkitError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(ReebkitError):
    """A user-supplied field or map returned NaN or infinity."""


class StepUnderflow(ReebkitError):
    """Adaptive step size shrank below the machine threshold."""


class OffManifold(ReebkitError):
    """A point does not lie on the model manifold within tolerance."""


class WrongModel(ReebkitError):
    """Operation invoked on a model family it does not support."""


class UnsupportedModel(ReebkitError):
    """Requested computation is not implemented for this base model."""


class NotClosed(ReebkitError):
    """Periods requested with a failed closedness check result."""


class NonExact(ReebkitError):
    """Primitive requested for a slice with a nonvanishing period."""

    def __init__(self, period: float):
        super().__init__(f"pullback 1-form has nonvanishing period {period:.9g}")
        self.period = period


class MissingPrimitive(ReebkitError):
    """Action requested without a primitive for the slice."""


class NewtonFailuresExceeded(ReebkitError):
    """More than half of the refinement seeds failed to converge."""


class SearchTooLong(ReebkitError):
    """A shooting search would monitor more flow steps than the bound."""


class ReparamDegenerate(ReebkitError):
    """Rescaled Reeb field blows up on a chord (1 + dh(R) <= 0)."""


class UnknownEntry(ReebkitError):
    """Catalog name is not registered."""


class ParamOutOfRange(ReebkitError):
    """Catalog parameter outside its documented range."""


class UnsupportedProjection(ReebkitError):
    """Vector-graphics export not available in this dimension."""


class ManifestError(ReebkitError):
    """Manifest failed to parse or validate."""
