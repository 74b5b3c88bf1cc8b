"""Error types shared across the package."""


class CritalgError(Exception):
    """Base class for all package errors."""


class TriangularityViolation(CritalgError):
    """A directed cycle was found where an acyclic quiver is required."""


class NotIntervalMonotone(CritalgError):
    """A hom support with hom(x,z) = 1 but a zero hom on the way from x to z."""


class NotAHasseDiagram(CritalgError):
    """The quiver has a bypass (an arrow parallel to a longer path)."""


class MalformedRelation(CritalgError):
    """A zero pair without a realizing path of length at least two."""


class EmptySelection(CritalgError):
    """A vertex selection that must be nonempty (or proper) is not."""


class NotAnIncidenceAlgebra(CritalgError):
    """An operation restricted to pure incidence algebras got zero relations."""


class NotAThirdSyzygyPair(CritalgError):
    """(i, j) is not a (pd 3, third-term summand) pair."""


class InvalidTemplate(CritalgError):
    """Unknown template kind or out-of-range parameter."""


class ClassificationGap(CritalgError):
    """A critical algebra that matches no catalogue template (worth reporting)."""


class TimeBudgetExceeded(CritalgError):
    """A subset scan ran past its explicit time budget."""


class InternalError(CritalgError):
    """A computation violated an internal invariant (a bug, not bad input)."""


class SpecError(CritalgError):
    """A located diagnostic from the description-file parser or builder.

    ``code`` is a stable machine-readable identifier; ``line``/``col`` are
    1-based positions in the input text.
    """

    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {code}: {message}")
        self.code = code
        self.message = message
        self.line = line
        self.col = col
