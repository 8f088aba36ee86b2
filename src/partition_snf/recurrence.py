"""Row coefficients and the alternating relation among weight rows.

Row ``i + 1`` of the origin weight square enters an alternating sum with a
coefficient built from two pieces tied to diagonal index ``i``:

* a choice polynomial, summing over sub-arrays of a small cell grid that
  are justified into its upper-right corner with weakly decreasing row
  lengths, and
* a fixed monomial over the cells lying to the right of that grid.

The alternating sum of coefficient-times-weight collapses to the full
product of variables in column 1 and to zero in every later column of the
square.  That collapse is what drives the first normal-form reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange
from .partitions import Cell, Partition
from .polynomials import Monomial, Polynomial
from .weights import weight_at

__all__ = [
    "choice_grid",
    "choice_poly",
    "fixed_cells",
    "row_coefficient",
    "RowCoefficients",
    "row_coefficients",
    "alternating_row_sum",
]


def choice_grid(lam: Partition, i: int) -> tuple[tuple[Cell, ...], ...]:
    """The cell grid for index ``i``: row ``a`` holds
    (a, a+1) .. (a, lam_i - i + a), so there are ``i`` rows of
    ``lam_i - i`` cells; empty when ``lam_i == i``."""
    if not 1 <= i <= lam.rank:
        raise IndexOutOfRange(f"grid index {i} outside 1..{lam.rank}")
    width = lam.parts[i - 1] - i
    return tuple(
        tuple(Cell(a, a + k) for k in range(1, width + 1)) for a in range(1, i + 1)
    )


def choice_poly(lam: Partition, i: int) -> Polynomial:
    """Sum over upper-right-justified sub-arrays of the grid.

    A sub-array takes the last ``c_a`` cells of row ``a`` with
    ``c_1 >= c_2 >= ... >= c_i >= 0``; each contributes the product of its
    cells.  The number of terms is binomial(lam_i, i).
    """
    if i == 0:
        return Polynomial.one()
    grid = choice_grid(lam, i)
    width = lam.parts[i - 1] - i
    terms: dict[Monomial, int] = {}

    def descend(row_idx: int, cap: int, chosen: list[Cell]) -> None:
        if row_idx == len(grid):
            terms[Monomial.from_cells(chosen)] = 1
            return
        row = grid[row_idx]
        for take in range(cap + 1):
            descend(row_idx + 1, take, chosen + list(row[len(row) - take :]))

    descend(0, width, [])
    return Polynomial(terms)


def fixed_cells(lam: Partition, i: int) -> frozenset[Cell]:
    """Cells of the diagram in rows 1..i strictly right of the grid:
    all (a, b) with lam_i - i + a < b <= lam_a.  Empty for i in {0, 1}."""
    if not 0 <= i <= lam.rank:
        raise IndexOutOfRange(f"index {i} outside 0..{lam.rank}")
    if i == 0:
        return frozenset()
    threshold = lam.parts[i - 1] - i
    cells = set()
    for a in range(1, i + 1):
        for b in range(threshold + a + 1, lam.parts[a - 1] + 1):
            cells.add(Cell(a, b))
    return frozenset(cells)


def row_coefficient(lam: Partition, i: int) -> Polynomial:
    """Choice polynomial times the fixed-cell monomial; 1 at index 0."""
    if not 0 <= i <= lam.rank:
        raise IndexOutOfRange(f"index {i} outside 0..{lam.rank}")
    if i == 0:
        return Polynomial.one()
    fixed = Monomial.from_cells(fixed_cells(lam, i))
    return choice_poly(lam, i) * Polynomial.from_monomial(fixed)


@dataclass(frozen=True)
class RowCoefficients:
    """The full family of row coefficients of a partition, indices 0..rank."""

    partition: Partition
    coefficients: tuple[Polynomial, ...]
    fixed_sets: tuple[frozenset[Cell], ...]


def row_coefficients(lam: Partition) -> RowCoefficients:
    indices = range(lam.rank + 1)
    return RowCoefficients(
        partition=lam,
        coefficients=tuple(row_coefficient(lam, i) for i in indices),
        fixed_sets=tuple(fixed_cells(lam, i) for i in indices),
    )


def alternating_row_sum(lam: Partition, j: int) -> Polynomial:
    """Signed sum of coefficient i times the weight at (i + 1, j).

    Returns the residual polynomial so failures show what was left over;
    the expected value is the full variable product for j = 1 and zero for
    2 <= j <= rank + 1.
    """
    if not 1 <= j <= lam.rank + 1:
        raise IndexOutOfRange(f"column {j} outside 1..{lam.rank + 1}")
    total = Polynomial.zero()
    for i in range(lam.rank + 1):
        term = row_coefficient(lam, i) * weight_at(lam, i + 1, j)
        total = total + (term if i % 2 == 0 else -term)
    return total
