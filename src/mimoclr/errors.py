"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes (see cli.py).
"""


class MimoclrError(Exception):
    """Base class for all package errors."""


class ConfigError(MimoclrError):
    """Invalid or inconsistent configuration."""


class ContractError(MimoclrError):
    """An operation was called with arguments violating its contract
    (shape mismatch, out-of-range label, non-positive temperature, ...)."""


class GenerationError(MimoclrError):
    """Channel generation produced geometry the tap grid cannot represent."""


class DegenerateDataError(MimoclrError):
    """Statistics requested on constant data (max == min or std == 0)."""


class DataError(MimoclrError):
    """Dataset file problems: checksum mismatch, missing labels, bad layout."""


class TrainingDivergenceError(MimoclrError):
    """A non-finite gradient, parameter or validation loss was encountered
    during training."""
