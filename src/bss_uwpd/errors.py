"""Exception types raised across the toolkit."""


class BssError(ValueError):
    """Base class for all toolkit errors."""


class WavFormatError(BssError):
    """WAV file is malformed or not mono 16-bit PCM."""


class UnsupportedRateError(BssError):
    """Sample rate cannot be handled (not 8 kHz or an integer multiple)."""


class DimensionError(BssError):
    """Sequence lengths or array shapes do not match the operation."""


class ParameterError(BssError):
    """An option or parameter is out of its valid range."""


class DegenerateInputError(BssError):
    """Input carries no usable statistics: zero variance, silent frames,
    collinear channels or references, or a tree with no node scoring finite
    on both channels."""
