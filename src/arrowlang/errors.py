"""Exception hierarchy shared by all arrowlang modules."""


class ArrowError(Exception):
    """Base class for every error raised by this package."""


# -- subdistributions ---------------------------------------------------

class EmptySupport(ArrowError):
    """A distribution was requested over an empty set of outcomes."""


class InvalidSubdistribution(ArrowError):
    """Weights out of (0, 1], non-rational weights, or total mass > 1."""


class PredicateTypeError(ArrowError):
    """A predicate could not be evaluated on some support element."""


class DomainError(ArrowError):
    """A channel was applied outside its declared domain."""


class NonNumericOutcome(ArrowError):
    """Expected value requested over non-integer outcomes."""


class WeightTooLong(ArrowError):
    """An exact weight has more digits than Python converts to text."""


# -- terms and typing ---------------------------------------------------

class UnboundVariable(ArrowError):
    pass


class TypeMismatch(ArrowError):
    pass


class NonFreshOutput(ArrowError):
    """A sampling statement rebinds a name already in scope."""


class UnknownGenerator(ArrowError):
    pass


class NotApplicable(ArrowError):
    """An axiom rewrite does not apply at the requested position."""


# -- combinators --------------------------------------------------------

class ArityMismatch(ArrowError):
    pass


# -- evaluation ---------------------------------------------------------

class CarrierMismatch(ArrowError):
    """An input value lies outside the carrier of its declared type."""


class ZeroMassState(ArrowError):
    """Normalising evaluation hit a state of mass zero."""

    def __init__(self, line: int, message: str | None = None):
        self.line = line
        super().__init__(message or f"state mass is zero at line {line}")


# -- concrete syntax ----------------------------------------------------

class ParseError(ArrowError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ElaborationError(ArrowError):
    """``line``: the source line of the statement or declaration it names, or
    None; the text starts ``line N: `` when it is set."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
