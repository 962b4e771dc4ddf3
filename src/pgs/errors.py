"""Exception hierarchy shared by every module of the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class BadParameters(ToolkitError):
    """Construction parameters violate a family's preconditions."""


class ResourceLimit(ToolkitError):
    """A closure or enumeration grew past the configured order bound."""


class ExponentTooSmall(ToolkitError):
    """Coefficient modulus cannot represent the quotient exponent."""


class InternalInconsistency(ToolkitError):
    """An invariant the implementation guarantees failed to hold."""


class NotNormal(ToolkitError):
    """Quotient requested by a subgroup that is not normal."""


class NotCentral(ToolkitError):
    """Element required to be central is not."""


class WrongOrder(ToolkitError):
    """Element does not have the required order."""


class PthPowerViolation(ToolkitError):
    """Diagonal central element is unexpectedly a p-th power."""


class PreconditionFailed(ToolkitError):
    """A verifier's stated precondition does not hold for the input.

    Some verifiers attach a diagnostic ``report`` describing what the
    unguarded computation yields anyway.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotInGroup(ToolkitError):
    """Element does not belong to the group or chain it was passed to."""


class ParseError(ToolkitError):
    """Malformed group description or generator word."""
