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
``lam_1..lam_i / starts``: one run of cells per row.  The one enumeration
of the coefficients, :func:`_walk`, walks the justified sub-arrays once
and packs each term straight into a key of a packed layout, as the sum of
its rows' precomputed run keys; with the runs laid along columns it packs
the conjugate's coefficients with variables transposed, as the column
transform needs them.  In Z[q] the walk is not needed: every term of
coefficient ``i`` becomes a power of q, and the coefficient is a shifted
Gaussian binomial, which :func:`_q_coefficient_keys` packs from the
subpartition-counting program.  :func:`_coefficient_keys`, the weight
sets' coefficient function, picks the walk or the closed form by the
layout.  The reductions and the self-test read these packed
coefficients from their weight set; the public
:func:`row_coefficient`, :func:`row_coefficients` and
:func:`alternating_row_sum` are decodes of the same packed path.  The
choice polynomial on its own is built only by the tests, cell by cell,
as the oracle for the walk.

The alternating sum of coefficient-times-weight collapses to the full
product of variables in column 1 and to zero in every later column of the
square.  That collapse is what drives the first normal-form reduction.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import getitem

from .errors import IndexOutOfRange
from .partitions import Partition
from .polynomials import (
    PackedLayout,
    Polynomial,
    _check_degree,
    _q_weight,
    _Q,
    _QLayout,
    fold,
)
from .weights import weight_at

__all__ = [
    "row_coefficient",
    "row_coefficients",
    "alternating_row_sum",
]


def _walk(
    layout: PackedLayout,
    parts: tuple[int, ...],
    i: int,
    sign: int = 1,
    transposed: bool = False,
) -> dict[int, int]:
    """Row coefficient ``i`` of the partition ``parts``, packed in
    ``layout`` with ``sign`` on every term; with its variables
    transposed when ``transposed`` is set.

    With ``width = lam_i - i``, its terms are the sub-arrays
    ``width >= c_1 >= ... >= c_i >= 0``, where row ``a`` runs from
    column ``a + width - c_a + 1`` to ``lam_a``; every term is a distinct
    monomial, so ``layout`` must tell monomials apart.  The degree of
    the full sub-array, every ``c_a == width``, is the top one; past the
    limit it raises ``TooLarge`` before any run is built.
    """
    if i == 0:
        return {0: sign}
    outer, width = parts[:i], parts[i - 1] - i
    _check_degree(sum(outer) - i * (i + 1) // 2)
    run = layout.run
    # runs[a - 1][c]: row a's run when its grid row takes c cells.
    runs = [
        [run(a, a + width - c, length, transposed) for c in range(width + 1)]
        for a, length in enumerate(outer, start=1)
    ]
    # A descending range gives weakly decreasing counts.
    return dict.fromkeys(
        (
            sum(map(getitem, runs, counts))
            for counts in combinations_with_replacement(range(width, -1, -1), i)
        ),
        sign,
    )


def _oriented(shape: tuple[int, ...], conjugate: bool) -> Partition:
    """The partition whose coefficients a weight set asks for."""
    lam = Partition(shape)
    return lam.conjugate() if conjugate else lam


def _coefficient_keys(
    layout: PackedLayout, shape: tuple[int, ...], conjugate: bool = False
) -> list[dict[int, int]]:
    """The signed row coefficients of every index 0..rank of ``shape``,
    or of its conjugate with variables transposed, packed in ``layout``:
    by the walk, or in a :class:`~partition_snf.polynomials._QLayout`,
    whose keys do not tell the walk's terms apart, by the closed form."""
    if isinstance(layout, _QLayout):
        return _q_coefficient_keys(shape, conjugate)
    lam = _oriented(shape, conjugate)
    return [
        _walk(layout, lam.parts, i, (-1) ** i, conjugate) for i in range(lam.rank + 1)
    ]


def _q_coefficient_keys(
    shape: tuple[int, ...], conjugate: bool = False
) -> list[dict[int, int]]:
    """:func:`_coefficient_keys` in a :class:`~partition_snf.polynomials._QLayout`,
    where transposing changes nothing: coefficient ``i`` is
    ``q^low * [lam_i choose i]_q``, the Gaussian binomial counting the
    sub-arrays by their cells, with ``low = lam_1 + ... + lam_i -
    i(i + 1)/2 - i(lam_i - i)`` the degree of the empty sub-array.  The
    binomial is the q-weight of the ``i x (lam_i - i)`` box, so nothing
    is enumerated."""
    lam = _oriented(shape, conjugate)
    keys = [{0: 1}]
    for i in range(1, lam.rank + 1):
        width = lam.parts[i - 1] - i
        low = (sum(lam.parts[:i]) - i * (i + 1) // 2 - i * width) * _Q
        sign = (-1) ** i
        keys.append({k + low: sign * c for k, c in _q_weight((width,) * i).items()})
    return keys


def _layout(lam: Partition) -> PackedLayout:
    """The layout of ``lam``'s multivariate packed path: wide enough for
    every cell of ``lam``."""
    return PackedLayout(lam.parts[0] if lam else 1)


def row_coefficient(lam: Partition, i: int) -> Polynomial:
    """Choice polynomial times the fixed-cell monomial; 1 at index 0.

    The decode of the packed walk: the sum of the skew monomials
    ``lam_1..lam_i / starts`` over the justified sub-arrays.  A top
    degree past the limit raises ``TooLarge`` before anything is
    enumerated.
    """
    if not 0 <= i <= lam.rank:
        raise IndexOutOfRange(f"index {i} outside 0..{lam.rank}")
    layout = _layout(lam)
    return layout.decode(_walk(layout, lam.parts, i))


def row_coefficients(lam: Partition) -> tuple[Polynomial, ...]:
    """The row coefficients of every index 0..rank."""
    layout = _layout(lam)
    return tuple(
        layout.decode(_walk(layout, lam.parts, i)) for i in range(lam.rank + 1)
    )


def alternating_row_sum(lam: Partition, j: int) -> Polynomial:
    """Signed sum of coefficient i times the weight at (i + 1, j).

    Returns the residual polynomial so failures show what was left over;
    the expected value is the full variable product for j = 1 and zero for
    2 <= j <= rank + 1.  The sum is one packed fold of the signed
    coefficients against the column's weights, decoded.
    """
    if not 1 <= j <= lam.rank + 1:
        raise IndexOutOfRange(f"column {j} outside 1..{lam.rank + 1}")
    layout = _layout(lam)
    coefficients = _coefficient_keys(layout, lam.parts)
    column = [layout.encode(weight_at(lam, i + 1, j)) for i in range(lam.rank + 1)]
    return layout.decode(fold({}, zip(coefficients, column)))
