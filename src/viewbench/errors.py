"""Exception types shared across the package, and the one check that a
config's or spec's integer fields hold integers."""

from typing import Sequence

import numpy as np


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


def check_integers(owner, names: Sequence[str], error: type[ViewbenchError]) -> None:
    """Raise ``error`` for a bool or a non-integer (an integral float too)
    in the named fields of ``owner``; a tuple field is checked item by
    item.  NumPy integers pass."""
    for name in names:
        value = getattr(owner, name)
        many = isinstance(value, tuple)
        for v in value if many else (value,):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                kind = "integers" if many else "an integer"
                raise error(f"{name} must be {kind}, got {value!r}")
