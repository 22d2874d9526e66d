"""Exception types shared across the package, and the integer test that config validation shares."""

import numpy as np


def is_integer(n) -> bool:
    """An int or NumPy integer, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


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
    """An on-disk file (a volume, a dataset manifest, a cached ablation cell)
    is malformed: bad magic, truncated payload, bad header or field, not JSON."""


class VersionMismatch(GasaUNetError):
    """Checkpoint magic or version is not supported."""


class NonFiniteLoss(GasaUNetError):
    """The training loss or a parameter's gradient became NaN or infinite."""


class WorkerError(GasaUNetError):
    """The worker process that shares training steps and mirror TTA
    (gasaunet.worker) failed or died."""
