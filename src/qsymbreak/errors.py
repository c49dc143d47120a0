"""Shared exception types for the qsymbreak package."""


class QsymbreakError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QsymbreakError, ValueError):
    """An input value violates a structural precondition."""


class CapExceededError(QsymbreakError):
    """A configurable size cap would be exceeded by the requested computation."""


class MissingAssignmentError(QsymbreakError, LookupError):
    """A formula was evaluated under an assignment that does not cover it."""

    def __init__(self, var: int):
        super().__init__(f"variable {var} is not assigned")
        self.var = var


class QdimacsParseError(ValidationError):
    """Malformed QDIMACS or DNF input text."""

    def __init__(self, message: str, line: int, column: int = 0):
        loc = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column
