"""Exception taxonomy shared across the package."""


class ConduelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ConduelError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class StructuralError(ConduelError, ValueError):
    """Input data violates a structural precondition (shape, rank, graph)."""


class NumericalError(ConduelError, RuntimeError):
    """An iterative numerical procedure failed to converge or lost stability."""


class DataFormatError(ConduelError, ValueError):
    """A file could not be parsed or failed an integrity check."""


class ConfigError(ConduelError, ValueError):
    """A run configuration is invalid or contains unknown keys."""


class CellError(NumericalError):
    """A numerical failure in one cell of a stacked computation; ``cell`` is
    its index in the stack."""

    def __init__(self, cell: int, message: str):
        super().__init__(message)
        self.cell = cell
