"""Exception types shared across the engine."""


class ComputationError(Exception):
    """Base class for failures raised by the algebra engine itself."""


class BudgetExceededError(ComputationError):
    """Raised when a Groebner computation exceeds its reduction-step budget."""


class CapExceededError(ComputationError):
    """Raised when a construction would exceed the configured dimension cap."""


class NotMPrimaryError(ComputationError):
    """Raised when the power-of-the-maximal-ideal model does not stabilize by
    its truncation limit: the ideal needs a higher power of the maximal
    ideal, or is not primary to it."""


class ParseError(ValueError):
    """Syntax error in an expression or presentation file, with position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
