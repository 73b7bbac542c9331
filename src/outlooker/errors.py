"""Exception types shared across the library."""


class ShapeError(ValueError):
    """An operand's dimensions do not satisfy an operation's contract."""


class GeometryError(ValueError):
    """A sliding-window geometry is invalid (kernel, stride or extent)."""


class ContractError(RuntimeError):
    """An API was used outside its stated contract."""


class DivergenceError(RuntimeError):
    """A training run produced a non-finite loss."""
