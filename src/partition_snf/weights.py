"""Weight polynomials on the extended diagram and the matrices built from them.

The weight of a cell is a generating function: sum, over every partition
contained in the sub-diagram hanging southeast of the cell, of the product
of the variables on the complementary cells.  Cells of the border strip
(and any position beyond it) carry the empty sub-diagram, so their weight
is 1.  Variables are always indexed by absolute diagram coordinates, even
deep inside a sub-diagram.

Weights depend on the sub-diagram only through its shape, so they are
memoized per shape in (1,1)-anchored form and translated into place; the
same shapes recur across cells and across whole reduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InternalGeometryError, InvalidRectangle
from .partitions import Cell, Partition, _rank, subdiagram_shape
from .polynomials import (
    Monomial,
    Polynomial,
    pack_matrices,
    packed_product,
    polynomial_from_json,
    polynomial_to_json,
)

__all__ = [
    "PolyMatrix",
    "weight_polynomial",
    "weight_at",
    "leading_monomial",
    "square_matrix",
    "rect_weight_matrix",
    "clear_weight_cache",
]

_SHAPE_CACHE: dict[tuple[int, ...], Polynomial] = {}


def clear_weight_cache() -> None:
    _SHAPE_CACHE.clear()


def weight_at(lam, row: int, col: int) -> Polynomial:
    """Weight of any positive position of ``lam``, a partition or its parts.

    Total extension of :func:`weight_polynomial`: any position outside the
    diagram has an empty sub-diagram and weight 1, whether or not it lies
    on the border strip.  The reduction engines need this at positions one
    past the strip.
    """
    shape = subdiagram_shape(lam, row, col)
    if not shape:
        return Polynomial.one()
    anchored = _SHAPE_CACHE.get(shape)
    if anchored is None:
        anchored = _SHAPE_CACHE[shape] = Polynomial.skew_sum(shape)
    return anchored.translate(row - 1, col - 1)


def weight_polynomial(lam: Partition, cell) -> Polynomial:
    """Weight of a cell of the extended diagram; 1 on the border strip."""
    cell = Cell(*cell)
    lam._shape_at(cell)  # raises CellOutOfRange outside the extended diagram
    return weight_at(lam, cell.row, cell.col)


def leading_monomial(lam: Partition, cell) -> Polynomial:
    """Product of all variables southeast of ``cell``; the unique top-degree
    term of the cell's weight.  Equals 1 on the border strip."""
    cell = Cell(*cell)
    shape = lam._shape_at(cell)  # raises CellOutOfRange outside the extended diagram
    return Polynomial.from_monomial(
        Monomial.skew(shape).translate(cell.row - 1, cell.col - 1)
    )


@dataclass(frozen=True)
class PolyMatrix:
    """Dense rectangular matrix of polynomials.

    ``origin`` records which extended-diagram cell the (0,0) entry sits on
    for weight grids; transform matrices keep the default (1,1).
    """

    entries: tuple[tuple[Polynomial, ...], ...]
    origin: Cell = Cell(1, 1)

    def __post_init__(self):
        rows = tuple(
            tuple(
                e if isinstance(e, Polynomial) else Polynomial.constant(e)
                for e in row
            )
            for row in self.entries
        )
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionMismatch("ragged rows in matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "origin", Cell(*self.origin))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # One packed chain: only the entries of the product are decoded.
        layout, packed = pack_matrices(self.entries, other.entries)
        return PolyMatrix(
            tuple(tuple(map(layout.decode, row)) for row in packed_product(*packed))
        )

    def to_json(self) -> dict:
        return self._json(polynomial_to_json)

    def _json(self, leaf) -> dict:
        """The JSON fields, with ``leaf`` applied to each entry."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "origin": [self.origin.row, self.origin.col],
            "entries": [[leaf(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyMatrix":
        entries = tuple(
            tuple(polynomial_from_json(e) for e in row) for row in data["entries"]
        )
        m = cls(entries, origin=Cell(*data["origin"]))
        if m.rows != data["rows"] or m.cols != data["cols"]:
            raise DimensionMismatch("declared matrix shape does not match entries")
        return m


def _weight_grid(lam: Partition, origin: Cell, d: int, e: int) -> PolyMatrix:
    """The d x e weights from ``origin``; the caller checks they are extended cells."""
    return PolyMatrix(
        tuple(
            tuple(weight_at(lam, origin.row + u, origin.col + v) for v in range(e))
            for u in range(d)
        ),
        origin=origin,
    )


def square_matrix(lam: Partition, cell) -> PolyMatrix:
    """The unique weight square anchored at ``cell``.

    Its side is one more than the rank of the sub-diagram at ``cell`` and
    its bottom-right corner lands on the border strip; both facts are
    geometry of the extension, so a violation is reported as
    :class:`InternalGeometryError` rather than bad input.
    """
    cell = Cell(*cell)
    side = _rank(lam._shape_at(cell)) + 1
    corner = Cell(cell.row + side - 1, cell.col + side - 1)
    if not lam.extended.on_border(corner):
        raise InternalGeometryError(
            f"square corner {corner} for anchor {cell} of {lam!r} is not on the border"
        )
    return _weight_grid(lam, cell, side, side)


def _check_rectangle(lam: Partition, d: int, e: int, wide: bool = False) -> None:
    """Raise :class:`InvalidRectangle` unless the d x e rectangle anchored
    at (1,1) has positive sides, is no taller than wide when ``wide`` is
    set, and has its corner on the border strip, which forces the whole
    rectangle inside the extended diagram."""
    if d < 1 or e < 1:
        raise InvalidRectangle(f"rectangle sides must be positive, got {d}x{e}")
    if wide and d > e:
        raise InvalidRectangle(
            f"{d}x{e} is taller than wide; conjugate the partition and use {e}x{d}"
        )
    if not lam.extended.on_border((d, e)):
        raise InvalidRectangle(
            f"corner ({d},{e}) is not on the border strip of {lam!r}"
        )


def rect_weight_matrix(lam: Partition, d: int, e: int) -> PolyMatrix:
    """Weight matrix of the d x e rectangle anchored at (1,1), whose corner
    must sit on the border strip."""
    _check_rectangle(lam, d, e)
    return _weight_grid(lam, Cell(1, 1), d, e)
