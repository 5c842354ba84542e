"""Exception hierarchy shared by all millrank modules."""


class MillrankError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyClassError(MillrankError):
    """A ranking class contains no coalitions."""


class EmptyCoalitionError(MillrankError):
    """The empty set was used where a nonempty coalition is required."""


class DuplicateCoalitionError(MillrankError):
    """A coalition appears in more than one class (or twice in one)."""


class MissingCoalitionError(MillrankError):
    """Some nonempty subset of the universe was not placed in any class."""


class OutOfUniverseError(MillrankError):
    """A coalition or individual does not belong to the given universe."""


class UniverseMismatchError(MillrankError):
    """Two rankings that must share a universe do not."""


class InvalidMoveError(MillrankError):
    """A slide move does not satisfy its structural preconditions."""


class UnknownRuleError(MillrankError):
    """No selection rule is registered under the requested identifier."""


class UnknownAxiomError(MillrankError):
    """No axiom checker is registered under the requested identifier."""


class UniverseTooLargeError(MillrankError):
    """A run was requested beyond the size its bound supports."""


class RankingSyntaxError(MillrankError):
    """A ranking document could not be parsed.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
