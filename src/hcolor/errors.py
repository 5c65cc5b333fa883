"""Exception hierarchy shared across the package."""


class HcolorError(Exception):
    """Base class for all library errors."""


class NotBalanced(HcolorError):
    """The digraph admits no level function."""


class BudgetExceeded(HcolorError):
    """A size or node budget was hit before the operation finished."""


class HeightMismatch(HcolorError):
    """Input paths do not share a common height."""


class NotMinimal(HcolorError):
    """An oriented path fails the minimality conditions."""


class SearchExhausted(HcolorError):
    """A bounded search ran out of room.

    For common-path construction this signals an undersized length cap,
    not genuine absence: a common onto path always exists.
    """


class InvalidSpec(HcolorError):
    """A special-tree template violates one of its invariants."""


class MixedLevels(HcolorError):
    """A vertex set straddles the top and bottom levels."""


class InvalidPin(HcolorError):
    """A pin references a vertex outside the target range."""


class InconsistentPins(HcolorError):
    """Two identity pins force different values on one tuple class."""


class NotWNU(HcolorError):
    """The operation table is not a weak near-unanimity operation."""


class NoneFound(HcolorError):
    """A theorem-backed search came up empty; a precondition must have failed."""


class PreconditionViolated(HcolorError):
    """An explicit operation precondition does not hold."""


class ArityBudgetExceeded(HcolorError):
    """Composed operation arity outgrew the configured position budget."""


class ConstructionStuck(HcolorError):
    """A certificate construction failed verification.

    Diagnoses a wrong absorption-freeness assertion on the input set.
    """


class DistanceNotUniform(HcolorError):
    """Elements of the set sit at different template distances from the root."""


class InvalidParams(HcolorError):
    """Generator or search parameters are out of range."""


class InvalidFormat(HcolorError):
    """A text file does not conform to its declared format."""


class VerificationFailed(HcolorError):
    """An independent re-check rejected a result the search produced."""
