"""Exception types shared across the package.

Every error raised on a bad input derives from QuartetError, so callers
(including the command line front end) can catch one base class and map it
to an input-error exit.
"""


class QuartetError(Exception):
    """Base class for all domain errors."""


class DuplicateLeafError(QuartetError):
    """A leaf label occurs more than once where distinct labels are required."""


class UnknownLeafError(QuartetError):
    """A label or leaf index does not belong to the leaf set in play."""


class TrivialSplitError(QuartetError):
    """A split with a side of size < 2 was offered where trees need interior edges."""


class IncompatibleSplitsError(QuartetError):
    """Two splits cannot coexist in one tree.

    Carries the offending pair as .pair when raised by tree construction.
    """

    def __init__(self, message: str, pair: tuple = ()):  # pair of Split
        super().__init__(message)
        self.pair = pair


class NonBijectiveError(QuartetError):
    """A relabelling map is not injective on the labels it must cover."""


class LabelCollisionError(QuartetError):
    """A new label collides with one already present."""


class NoSuchSplitError(QuartetError):
    """The named split is not an interior edge of the tree."""


class TooManyLeavesError(QuartetError):
    """Leaf count exceeds a hard cap (64 for the model, smaller for enumeration)."""


class TooFewLeavesError(QuartetError):
    """Leaf count below the minimum the operation supports."""


class AmbientMismatchError(QuartetError):
    """The ambient leaf set does not match the support of the quartet set."""


class WitnessCheckError(QuartetError):
    """An internally constructed witness failed its validity check (a bug).

    .level is the leaf count of the witness chain level that failed.
    """

    def __init__(self, message: str, level: int):
        super().__init__(f"{message} at level {level}")
        self.level = level


class ParseError(QuartetError):
    """Malformed textual input.

    .position is a character offset (tree text), .line a 1-based line number
    (quartet files); whichever applies is set.
    """

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        loc = ""
        if position is not None:
            loc = f" at position {position}"
        if line is not None:
            loc = f" on line {line}"
        super().__init__(message + loc)
        self.position = position
        self.line = line


class InteriorLabelError(ParseError):
    """Tree text labels an interior vertex, which the model does not allow."""
