"""Exception types shared across the package."""


class NtxBoundError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVectorError(NtxBoundError):
    """A vector with zero Euclidean norm has no direction; cosine similarity is undefined."""


class DimensionMismatchError(NtxBoundError):
    """Operands have incompatible dimensions."""


class InvalidTemperatureError(NtxBoundError):
    """Temperature must be a real in [TAU_MIN, TAU_MAX] = [1e-12, 1e4] (see ``ntxbound.sim``)."""


class EmptyInputError(NtxBoundError):
    """An operation that needs at least one value received none."""


class UnsupportedModeError(NtxBoundError):
    """The requested anchor mode is not valid for this operation."""


class InvalidGridError(NtxBoundError):
    """Monte Carlo verification grid is empty or out of range."""


class InvalidDatasetParamsError(NtxBoundError):
    """Synthetic dataset parameters are out of range."""


class NonFiniteLossError(NtxBoundError):
    """Training produced a non-finite or degenerate loss (divergence signal).

    Carries the step index at which divergence was detected and the trace of
    the steps of its run before that step.
    """

    def __init__(self, step: int, reason: str, trace):
        super().__init__(f"non-finite loss at step {step}: {reason}")
        self.step = step
        self.reason = reason
        self.trace = trace


class ConfigError(NtxBoundError):
    """A configuration document or CLI flag is malformed (usage error, exit code 2)."""
