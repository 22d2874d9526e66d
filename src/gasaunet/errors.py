"""Exception types shared across the package."""


class GasaUNetError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(GasaUNetError):
    """Operands have incompatible shapes."""


class KernelTooLarge(GasaUNetError):
    """Convolution kernel does not fit inside the (padded) input."""


class InvalidProbability(GasaUNetError):
    """Probability argument outside [0, 1)."""


class NotScalar(GasaUNetError):
    """backward() called on a non-scalar tensor."""


class InvalidConfig(GasaUNetError):
    """Model or run configuration fails validation."""


class InvalidSpacing(GasaUNetError):
    """Voxel spacing must be strictly positive."""


class EmptyForeground(GasaUNetError):
    """Too few foreground voxels to compute intensity statistics."""


class InvalidSpec(GasaUNetError):
    """Phantom specification cannot be realized."""


class InvalidEpoch(GasaUNetError):
    """Epoch index outside [0, epoch_max]."""


class FormatError(GasaUNetError):
    """On-disk volume or dataset manifest is malformed (bad magic, truncated
    payload, bad header or field)."""


class VersionMismatch(GasaUNetError):
    """Checkpoint magic or version is not supported."""


class NonFiniteLoss(GasaUNetError):
    """The training loss or a parameter's gradient became NaN or infinite."""


class TrainingWorkerError(GasaUNetError):
    """The process that computes part of each training batch failed or died."""
