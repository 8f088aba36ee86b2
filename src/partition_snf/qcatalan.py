"""Staircase specialization: every variable collapses to one symbol q.

The origin weight of the staircase (n-1, n-2, ..., 1) becomes a q-analog
of the Catalan numbers; the matrices of those q-polynomials have normal
forms with pure powers of q on the diagonal, with exponents given by
binomial coefficients stepping down by two.

A q-polynomial is an ordinary :class:`Polynomial` on the single cell
(1,1), q^k being x[1,1]^k.  Nothing here enumerates a multivariate
weight.  A shape's weight in q comes from the subpartition-counting
dynamic program, and the staircase square is reduced and certified in
Z[q] itself, through the reductions' own pipeline: their packed weight
set, given the Z[q] layout, takes from it the counted weights and the
closed-form row coefficients.  It is the one size check, and the
inductive replay and the one certify tail run on it unchanged.
Sending every variable to q is a ring map and every step is ring
arithmetic, so the transforms are the images of the multivariate ones,
and the certificate ``P @ W @ Q = diag(q^e)`` is checked in Z[q].  Only
the diagonal is decoded.  A staircase past the degree limit, C(n, 2) >
65535, is refused before its parts are built.  Only output is
q-specific: :func:`q_coefficients` gives the dense ascending coefficient
list and :func:`render_q` the text form in q; both refuse a term in any
variable but x[1,1].
"""

from __future__ import annotations

from math import comb

from .partitions import Cell, Partition
from .polynomials import Polynomial, _check_degree, _q_weight, _QLayout
from .snf import _certify_inductive, _PackedWeights
from .snf import snf_inductive  # noqa: F401  (the benchmark tracer patches it here)

__all__ = [
    "staircase",
    "q_catalan",
    "q_catalan_table",
    "expected_snf_exponents",
    "staircase_snf_diagonal",
    "q_coefficients",
    "render_q",
]


def staircase(n: int) -> Partition:
    """The partition (n-1, n-2, ..., 1); empty for n <= 1."""
    if n < 0:
        raise ValueError("staircase index must be nonnegative")
    return Partition(tuple(range(n - 1, 0, -1)))


def q_catalan(n: int) -> Polynomial:
    """Origin weight of the n-th staircase with all variables set to q,
    as a polynomial in x[1,1].

    Evaluating at q = 1 counts the subpartitions of the staircase, which
    is the n-th Catalan number.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    _check_degree(comb(n, 2))
    return _QLayout().decode(_q_weight(staircase(n).parts))


def q_catalan_table(n_max: int) -> tuple[Polynomial, ...]:
    """The q-analogs for indices 0..n_max; entries 0 and 1 are both 1."""
    if n_max < 0:
        raise ValueError("table bound must be nonnegative")
    # The largest staircase is refused before the smaller ones are counted.
    _check_degree(comb(n_max, 2))
    return tuple(q_catalan(n) for n in range(n_max + 1))


def expected_snf_exponents(n: int) -> tuple[int, ...]:
    """Diagonal q-exponents of the n-th staircase matrix, top to bottom:
    choose(n, 2), choose(n-2, 2), ..., ending in 0."""
    if n < 1:
        raise ValueError("matrix index must be at least 1")
    return tuple(comb(n - 2 * k, 2) for k in range(n // 2 + 1))


def staircase_snf_diagonal(n: int) -> tuple[Polynomial, ...]:
    """Diagonal of the n-th staircase square's inductive reduction in Z[q],
    certified there; only the diagonal is decoded."""
    if n < 1:
        raise ValueError("matrix index must be at least 1")
    _check_degree(comb(n, 2))
    weights = _PackedWeights(staircase(n).parts, _QLayout())
    side = weights.rank + 1
    _, _, diagonal = _certify_inductive(weights, side, side)
    return tuple(map(weights.layout.decode, diagonal))


def q_coefficients(poly: Polynomial) -> list[int]:
    """Coefficients of a polynomial in x[1,1] alone, constant term first,
    ending in a nonzero one; ``[]`` for 0.  A term in any other variable
    raises ``ValueError``."""
    coeffs = [0] * (poly.degree + 1) if poly else []
    for mono, coeff in poly.items():
        # One field for a power of x[1,1], none for 1.
        if mono.pairs not in ((), ((Cell(1, 1), mono.degree),)):
            raise ValueError(f"{mono!r} is not a power of x[1,1]")
        coeffs[mono.degree] = coeff
    return coeffs


def render_q(poly: Polynomial) -> str:
    """A polynomial in x[1,1] alone written in q, ascending, e.g.
    ``1+2q+q^2+q^3``, ``q^2``, ``-q`` or ``0``; like
    :func:`q_coefficients`, it raises ``ValueError`` on any other
    variable."""
    pieces = []
    for k, coeff in enumerate(q_coefficients(poly)):
        if not coeff:
            continue
        var = "" if k == 0 else "q" if k == 1 else f"q^{k}"
        if var and coeff in (1, -1):
            pieces.append(var if coeff == 1 else "-" + var)
        else:
            pieces.append(f"{coeff}{var}")
    return "+".join(pieces).replace("+-", "-") or "0"
