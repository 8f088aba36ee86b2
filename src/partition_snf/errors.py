"""Exception types shared across the package."""


class PartitionSnfError(Exception):
    """Base class for every error raised by this library."""


class ParseError(PartitionSnfError, ValueError):
    """Partition text contains a token that is not an integer."""


class NonPositive(PartitionSnfError, ValueError):
    """Partition parts must be positive integers."""


class NotDecreasing(PartitionSnfError, ValueError):
    """Partition parts must be weakly decreasing."""


class CellOutOfRange(PartitionSnfError, ValueError):
    """Cell lies outside the extended diagram."""


class IndexOutOfRange(PartitionSnfError, IndexError):
    """Row-relation index outside the valid 0..rank range."""


class NameCollision(PartitionSnfError, ValueError):
    """Variable naming is not injective over the variables present."""


class InternalGeometryError(PartitionSnfError, RuntimeError):
    """Square geometry violated; indicates a bug in the diagram layer."""


class InvalidRectangle(PartitionSnfError, ValueError):
    """Rectangle sides are not positive, its corner is off the border
    strip, or it is taller than wide where a reduction needs it wide."""


class DimensionMismatch(PartitionSnfError, ValueError):
    """Matrix dimensions are incompatible."""


class NotSquare(PartitionSnfError, ValueError):
    """Determinant requires a square matrix."""


class TooLarge(PartitionSnfError, ValueError):
    """A monomial's total degree exceeds 65535, the library's one size limit."""


class VerificationFailed(PartitionSnfError, RuntimeError):
    """An exact transform identity failed to hold.

    Carries the residual matrix (computed minus expected) when one is
    available.
    """

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual
