"""Exception types raised by the placement engine.

Every error that callers are expected to catch has its own class so tests and
CLI handlers can match on type instead of message text.
"""


class GridPlaceError(Exception):
    """Base class for all engine errors."""


class IoFailure(GridPlaceError):
    """Filesystem-level read/write failure."""


class MissingFile(GridPlaceError, FileNotFoundError):
    """A referenced input file does not exist."""


class MalformedLine(GridPlaceError):
    """A text input line did not parse.

    Carries the 1-based line number and a short reason.
    """

    def __init__(self, path, lineno, reason):
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{self.path}:{lineno}: {reason}")


class DanglingPinReference(GridPlaceError):
    """A pin names a node that was never declared."""


class InvalidDimension(GridPlaceError):
    """Nonpositive canvas size or grid dimensions."""


class OutOfRange(GridPlaceError):
    """A cell index or parameter fell outside its legal range."""


class MissingLocation(GridPlaceError):
    """A node that must be placed has no location in the given placement."""


class PointOutsideCanvas(GridPlaceError):
    """A requested placement point is not inside the canvas."""


class DegenerateNet(GridPlaceError):
    """A net cannot be used where at least two pins are required."""


class EmptyNetlist(GridPlaceError):
    """The netlist has no nodes."""


class EmptyCellSet(GridPlaceError):
    """A cost reduction was asked for zero grid cells or zero values."""


class Unplaceable(GridPlaceError):
    """A macro could not be placed anywhere by an initializer.

    Carries the macro id.
    """

    def __init__(self, macro_id, detail=""):
        self.macro_id = macro_id
        msg = f"no legal cell for macro {macro_id!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InitFailed(GridPlaceError):
    """Annealer could not build a feasible starting state."""


class UnwritableName(GridPlaceError):
    """A node or net name that a file format cannot hold."""


class IncompletePlacement(GridPlaceError):
    """A placement to be written does not cover every movable node."""


class InvalidSetting(GridPlaceError, ValueError):
    """An annealing setting that cannot be used: action weights, the worker
    count or the seed list."""


class LengthMismatch(GridPlaceError, ValueError):
    """Paired sequences have different lengths."""


class DegenerateInput(GridPlaceError, ValueError):
    """Statistic undefined for this input (e.g. all-tied ranking)."""
