"""Exception types shared across the package."""


class ViewbenchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAngle(ViewbenchError):
    """Angle input is not a finite real number."""


class InvalidBinning(ViewbenchError):
    """Bin count below 2, or otherwise unusable."""


class AmbiguousDecode(ViewbenchError):
    """Embedding has no meaningful direction (projection numerically zero)."""


class InvalidParameter(ViewbenchError):
    """Scalar parameter outside its valid range (e.g. delta <= 0, sigma <= 0)."""


class LayoutError(ViewbenchError):
    """Tensor dimensions do not match the declared output layout."""


class ClassOutOfRange(ViewbenchError):
    """Class id outside {1..n_classes}."""


class BackgroundInRegression(ViewbenchError):
    """A background target was passed to a pose regression loss."""


class BackgroundInPoseLoss(ViewbenchError):
    """A background target was passed to a pose-only classification loss."""


class ConfigError(ViewbenchError):
    """Inconsistent network/training configuration."""


class InvalidConfig(ConfigError):
    """Structurally invalid configuration value (e.g. zero-width layer)."""


class EmptyClassError(ViewbenchError):
    """Batch composition requires samples that the dataset does not contain."""


class DivergenceError(ViewbenchError):
    """Training produced a non-finite loss or parameters.  Carries the
    iteration and the last finite probe loss, where they are known."""

    def __init__(
        self, message: str, iteration: int | None = None, probe_loss: float | None = None
    ):
        super().__init__(message)
        self.iteration = iteration
        self.probe_loss = probe_loss


class GenerationError(ViewbenchError):
    """Scene geometry could not be sampled within the retry budget."""


class FormatError(ViewbenchError):
    """A record file or serialized artifact could not be parsed."""
