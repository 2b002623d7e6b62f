"""Exception types shared across the package."""


class GmraError(Exception):
    """Base class for all library errors."""


class ConsistencyViolated(GmraError):
    """A multiplicity function fails the consistency inequality.

    Carries the exact violation set when available.
    """

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class ContextMismatch(GmraError):
    """Operands carry incompatible (multiplicity, endomorphism) contexts."""


class NotUnitary(GmraError):
    """A candidate multiplier fails the pointwise block-unitarity check."""


class CompletionFailed(GmraError):
    """Orthonormal completion degenerated; the partial report is attached."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FilterInvalid(GmraError):
    """A matrix fails the filter conditions; the report is attached."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotPureIsometry(GmraError):
    """The low-pass operator is not (provably) a pure isometry.

    Carries the purity verdict, including an eigenvector witness when one
    was found.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class DepthExceeded(GmraError):
    """A ledger vector has content at the top level and no room to shift."""


class UnsupportedRepresentation(GmraError):
    """Operation requires exact piecewise entries (not grid samples)."""


class UnknownName(GmraError, KeyError):
    """No catalog entry under the requested name."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class NotApplicable(GmraError):
    """The requested obstruction test does not apply to these inputs."""


class ProblemFileError(GmraError):
    """A problem file failed schema validation; ``path`` locates the field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
