"""Exception types shared across the package."""


class LevicalcError(Exception):
    """Base class for all levicalc errors."""


class DivisionByZero(LevicalcError, ZeroDivisionError):
    """Inverse or division applied to the zero element."""


class NotFinite(LevicalcError, ArithmeticError):
    """An operation that requires a finite (limited) number got an infinite one."""


class NegativeLeading(LevicalcError, ArithmeticError):
    """n-th root of a number whose leading coefficient is not positive."""


class DomainError(LevicalcError, ValueError):
    """Function evaluated outside its real domain (log of nonpositive, etc.)."""


class OrderTooHigh(LevicalcError, ValueError):
    """Requested derivative order exceeds the configured truncation depth."""


class NoBracket(LevicalcError, RuntimeError):
    """The mean-value solver found no sign change on its scan grid."""


class ParseError(LevicalcError, ValueError):
    """Syntax error with a 1-based source position, read as ``line:col: message``."""

    def __init__(self, message, line=1, col=1):
        super().__init__(message, line, col)  # pickle rebuilds the error from its args
        self.message = message
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class BindingError(LevicalcError, ValueError):
    """A variable is unbound, or bound more than once, where that is illegal."""


class EvaluationError(LevicalcError, RuntimeError):
    """A term raised a field error while a formula was being checked."""
