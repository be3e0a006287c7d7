"""Exception types shared across the package."""


class AngmfError(Exception):
    """Base class for every error raised by this package; ``exit_code`` is the CLI's exit status for it."""

    exit_code = 2


class DegenerateVector(AngmfError):
    """A vector that cannot serve as a direction (zero norm or drifted off the sphere)."""


class DomainError(AngmfError):
    """A value lies outside its domain; ``index`` is the first bad element's flat position, if known."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EmptyInput(AngmfError):
    """A reduction (a metric, a fit, a training run) was requested over zero entries."""


class ShapeError(AngmfError):
    """Array arguments have incompatible shapes."""


class NumericalError(AngmfError):
    """A numerical routine diverged."""

    exit_code = 4


class DegenerateResultant(NumericalError):
    """Sample directions cancel out, so the mean direction is undefined."""


class NormalizationError(NumericalError):
    """A direction head produced a vector too short to normalize."""


class FormatError(AngmfError):
    """A binary or CSV payload is malformed.

    ``offset`` is the byte position at which parsing failed.
    """

    exit_code = 3

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
