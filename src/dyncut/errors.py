"""Exception types shared across the package."""


class DynCutError(Exception):
    """Base class for every error raised by this package."""


class VertexExists(DynCutError):
    pass


class VertexMissing(DynCutError):
    pass


class VertexNotIsolated(DynCutError):
    pass


class EdgeExists(DynCutError):
    pass


class EdgeMissing(DynCutError):
    pass


class InvalidDelta(DynCutError, ValueError):
    """A weight or weight change that is not a positive integer, or too large."""


class OverlappingGroups(DynCutError):
    pass


class SameVertex(DynCutError):
    pass


class EmptyGraph(DynCutError):
    pass


class InternalInvariantViolation(DynCutError):
    """The update reached a state the algorithm's correctness argument rules out."""


class VertexSetMismatch(DynCutError):
    pass


class InvalidMix(DynCutError):
    pass


class InvalidGenParams(DynCutError, ValueError):
    """A negative stream size or a weight bound below 1."""


class StreamSyntaxError(DynCutError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StreamValidationError(DynCutError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class VerificationFailed(DynCutError):
    def __init__(self, step: int, report):
        super().__init__(f"cut tree invalid after step {step}: {report}")
        self.step = step
        self.report = report
