"""Exception types shared across the package."""


class FaframeError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(FaframeError, ValueError):
    """An array argument has a shape the operation cannot accept."""


class NonScalarLoss(FaframeError, ValueError):
    """backward() was called on a value that is not a scalar."""


class ReleasedGraph(FaframeError, RuntimeError):
    """backward() met a node whose graph an earlier backward already released."""


class NonFiniteLoss(FaframeError, FloatingPointError):
    """A training loss evaluated to NaN or infinity; the step was aborted."""


class NonFiniteInput(FaframeError, ValueError):
    """Positions, a cell or audit targets hold NaN, infinity, or values that are not numbers."""


class CutoffExceedsImageRange(FaframeError, ValueError):
    """A cutoff that needed periodic images beyond offset +/-1.

    The radius graph now reaches every image its cutoff needs and no longer
    raises this; it stays importable because the benchmark harness imports it.
    """


class EmptyBatch(FaframeError, ValueError):
    """A forward or training pass was given no systems."""


class UnknownElement(FaframeError, ValueError):
    """An atomic number or symbol outside the supported 118 elements."""


class NoForcesRequested(FaframeError, ValueError):
    """Forces were requested of a model without a force head."""


class DegenerateAngle(FaframeError, ValueError):
    """A benchmark rotation angle coincides with the structure's own symmetry."""


class CheckpointError(FaframeError, ValueError):
    """A checkpoint file is not a valid parameter manifest, or does not fit the model."""


class XYZParseError(FaframeError, ValueError):
    """Malformed extended-XYZ content; the message carries a line number."""
