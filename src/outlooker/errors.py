"""Exception types shared across the library, and the one check of a count."""

import numpy as np


class ShapeError(ValueError):
    """An operand's dimensions do not satisfy an operation's contract."""


class GeometryError(ValueError):
    """A sliding-window geometry is invalid (kernel, stride or extent)."""


class ContractError(RuntimeError):
    """An API was used outside its stated contract."""


class DivergenceError(RuntimeError):
    """A training run produced a non-finite loss."""


def check_count(value, name: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``value`` is a positive int; a bool is never a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{name} must be a positive int, got {value!r}")
