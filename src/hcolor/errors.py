"""Exception hierarchy shared across the package, and the budget record."""

from time import perf_counter


class HcolorError(Exception):
    """Base class for all library errors."""


class NotBalanced(HcolorError):
    """The digraph admits no level function."""


class BudgetExceeded(HcolorError):
    """A size, node or wall budget was hit before the operation finished."""


class Budget:
    """The budgets of one run, a field per `--budget-*` flag: search nodes
    per solver call, indicator tuples (and a found table's re-check edge
    tuples), power-set tuples, and seconds from the making of the record
    to its deadline (None: no limit).  Solver calls test the deadline every
    1024 nodes, polymorphism searches before each component they build or
    solve."""

    __slots__ = ("nodes", "indicator", "power", "wall", "deadline")

    def __init__(self, nodes: int | None = None, indicator: int = 4_000_000,
                 power: int = 5_000_000, wall: float | None = None):
        self.nodes, self.indicator, self.power, self.wall = nodes, indicator, power, wall
        self.deadline = None if wall is None else perf_counter() + wall

    def check_deadline(self) -> None:
        if self.deadline is not None and perf_counter() >= self.deadline:
            raise BudgetExceeded(f"wall budget of {self.wall} s exhausted")

    def __eq__(self, other) -> bool:
        return isinstance(other, Budget) and all(
            getattr(self, f) == getattr(other, f) for f in ("nodes", "indicator", "power", "wall"))


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
