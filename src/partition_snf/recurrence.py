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
    if not 1 <= i <= lam.rank:
        raise IndexOutOfRange(f"grid index {i} outside 1..{lam.rank}")
    width = lam.parts[i - 1] - i
    # Grid row a ends at column a + width; its last c cells are the skew
    # row between columns a + width - c and a + width.
    ends = tuple(a + width for a in range(1, i + 1))
    terms: dict[Monomial, int] = {}

    def descend(row_idx: int, cap: int, starts: tuple[int, ...]) -> None:
        if row_idx == i:
            terms[Monomial.skew(ends, starts)] = 1
            return
        for take in range(cap + 1):
            descend(row_idx + 1, take, starts + (ends[row_idx] - take,))

    descend(0, width, ())
    return Polynomial(terms)


def fixed_cells(lam: Partition, i: int) -> frozenset[Cell]:
    """Cells of the diagram in rows 1..i strictly right of the grid:
    all (a, b) with lam_i - i + a < b <= lam_a.  Empty for i in {0, 1}."""
    if not 0 <= i <= lam.rank:
        raise IndexOutOfRange(f"index {i} outside 0..{lam.rank}")
    if i == 0:
        return frozenset()
    return frozenset(_fixed_monomial(lam, i).cells())


def _fixed_monomial(lam: Partition, i: int) -> Monomial:
    """Product of the variables on :func:`fixed_cells` for ``1 <= i``."""
    threshold = lam.parts[i - 1] - i
    return Monomial.skew(lam.parts[:i], [threshold + a for a in range(1, i + 1)])


def row_coefficient(lam: Partition, i: int) -> Polynomial:
    """Choice polynomial times the fixed-cell monomial; 1 at index 0."""
    if not 0 <= i <= lam.rank:
        raise IndexOutOfRange(f"index {i} outside 0..{lam.rank}")
    if i == 0:
        return Polynomial.one()
    fixed = Polynomial.from_monomial(_fixed_monomial(lam, i))
    return choice_poly(lam, i) * fixed


@dataclass(frozen=True)
class RowCoefficients:
    """The full family of row coefficients of a partition, indices 0..rank."""

    partition: Partition
    coefficients: tuple[Polynomial, ...]

    @property
    def fixed_sets(self) -> tuple[frozenset[Cell], ...]:
        """The fixed-cell set of every index, derived when read."""
        lam = self.partition
        return tuple(fixed_cells(lam, i) for i in range(lam.rank + 1))


def row_coefficients(lam: Partition) -> RowCoefficients:
    return RowCoefficients(
        partition=lam,
        coefficients=tuple(row_coefficient(lam, i) for i in range(lam.rank + 1)),
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
