"""Row coefficients and the alternating relation among weight rows.

Row ``i + 1`` of the origin weight square enters an alternating sum with a
coefficient tied to diagonal index ``i``.  The paper builds it from two
pieces:

* a choice polynomial, summing over sub-arrays of a small cell grid that
  are justified into its upper-right corner with weakly decreasing row
  lengths; grid row ``a`` holds cells (a, a+1) .. (a, lam_i - i + a), and
* a fixed monomial over the cells lying to the right of that grid, all
  (a, b) with lam_i - i + a < b <= lam_a.

The fixed cells continue every chosen run of grid row ``a`` to the end of
diagram row ``a``, so each term of their product is one skew monomial
``lam_1..lam_i / starts``.  :func:`row_coefficient` enumerates the
justified sub-arrays once and builds those skew monomials, with no
product; the choice polynomial on its own is built only by the tests,
cell by cell, as the oracle for this shortcut.

The alternating sum of coefficient-times-weight collapses to the full
product of variables in column 1 and to zero in every later column of the
square.  That collapse is what drives the first normal-form reduction.
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .partitions import Partition
from .polynomials import Monomial, Polynomial
from .weights import weight_at

__all__ = [
    "row_coefficient",
    "row_coefficients",
    "alternating_row_sum",
]


def row_coefficient(lam: Partition, i: int) -> Polynomial:
    """Choice polynomial times the fixed-cell monomial; 1 at index 0.

    With ``width = lam_i - i``, this is the sum of
    ``Monomial.skew(lam_1..lam_i, starts)`` over the sub-arrays
    ``width >= c_1 >= ... >= c_i >= 0``, where row ``a`` starts after
    column ``a + width - c_a``.  The full sub-array, every ``c_a == width``,
    is built first: it is the term of top degree, so a degree past the
    limit raises ``TooLarge`` before anything else is enumerated.
    """
    if not 0 <= i <= lam.rank:
        raise IndexOutOfRange(f"index {i} outside 0..{lam.rank}")
    if i == 0:
        return Polynomial.one()
    outer, width = lam.parts[:i], lam.parts[i - 1] - i
    terms: dict[Monomial, int] = {}

    def descend(a: int, cap: int, starts: tuple[int, ...]) -> None:
        if a > i:
            terms[Monomial.skew(outer, starts)] = 1
            return
        for c in range(cap, -1, -1):
            descend(a + 1, c, starts + (a + width - c,))

    descend(1, width, ())
    return Polynomial(terms)


def row_coefficients(lam: Partition) -> tuple[Polynomial, ...]:
    """The row coefficients of every index 0..rank."""
    return tuple(row_coefficient(lam, i) for i in range(lam.rank + 1))


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
