"""Exception types shared across the package."""

__all__ = [
    "AlphaMismatchError",
    "ConfigError",
    "DegenerateWeightsError",
    "DimensionMismatchError",
    "DivisionByZeroScaleError",
    "InvalidSpecError",
    "MismatchedReferenceError",
    "MomentOrderTooHighError",
    "OutOfRangeError",
    "QuadratureFailureError",
    "StableInferError",
    "ZeroScaleError",
]


class StableInferError(Exception):
    """Base class for all errors raised by stableinfer."""


class OutOfRangeError(StableInferError, ValueError):
    """A distribution parameter violates its admissible range."""

    def __init__(self, parameter: str, message: str):
        self.parameter = parameter
        super().__init__(f"{parameter}: {message}")


class ZeroScaleError(StableInferError, ValueError):
    """An affine map with a = 0 would collapse the distribution."""


class AlphaMismatchError(StableInferError, ValueError):
    """Convolution arithmetic requires both laws to share the stability index."""


class QuadratureFailureError(StableInferError, ArithmeticError):
    """A numerical integration did not reach the requested tolerance."""


class InvalidSpecError(StableInferError, ValueError):
    """A random-field specification is internally inconsistent."""


class DimensionMismatchError(StableInferError, ValueError):
    """Array shapes do not line up (coefficients vs basis, batch vs data)."""


class DivisionByZeroScaleError(StableInferError, ZeroDivisionError):
    """A shift sequence is nonzero where the scale sequence vanishes."""


class MomentOrderTooHighError(StableInferError, ValueError):
    """Requested moment order p >= alpha: the absolute moment is infinite."""


class MismatchedReferenceError(StableInferError, ValueError):
    """Two weighted measures do not share the same reference sample."""


class DegenerateWeightsError(StableInferError, ArithmeticError):
    """Importance weights collapsed onto too few samples (tiny ESS)."""


class ConfigError(StableInferError, ValueError):
    """An experiment configuration failed to parse or cross-validate."""
