"""Two constructive normal-form reductions with explicit unitriangular
transforms, exact verification, and a cofactor determinant oracle.

Both reductions certify themselves: the returned transforms are multiplied
back against the weight matrix and compared entry by entry with the
expected zero-padded diagonal of leading monomials before anything is
returned.  A mismatch raises :class:`VerificationFailed` carrying the
residual; it signals an implementation bug, never bad input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    InvalidRectangle,
    NotSquare,
    TooLarge,
    VerificationFailed,
)
from .partitions import Cell, Partition, subdiagram_shape
from .polynomials import Polynomial, polynomial_to_json
from .recurrence import row_coefficients
from .weights import (
    PolyMatrix,
    leading_monomial,
    rect_weight_matrix,
    square_matrix,
    weight_at,
)

__all__ = [
    "SnfResult",
    "snf_recurrence",
    "snf_inductive",
    "verify_snf",
    "determinant",
]

_DET_SIDE_LIMIT = 8


@dataclass(frozen=True)
class SnfResult:
    """Certified reduction: P and Q are unitriangular and D = P @ W @ Q.

    D is zero off a right-justified diagonal of monomials; ``diagonal``
    holds those entries top to bottom.
    """

    P: PolyMatrix
    Q: PolyMatrix
    D: PolyMatrix
    diagonal: tuple[Polynomial, ...]
    algorithm: str

    def to_json(self) -> dict:
        return {
            "diagonal": [polynomial_to_json(p) for p in self.diagonal],
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
            "verified": True,
            "algorithm": self.algorithm,
        }


def _identity_grid(n: int) -> list[list[Polynomial]]:
    one = Polynomial.one()
    zero = Polynomial.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _expected_product(
    diagonal: tuple[Polynomial, ...], rows: int, cols: int
) -> PolyMatrix:
    zero = Polynomial.zero()
    pad = cols - rows
    entries = [
        [diagonal[i] if j == pad + i else zero for j in range(cols)]
        for i in range(rows)
    ]
    return PolyMatrix(tuple(tuple(row) for row in entries))


def _certify(
    P: PolyMatrix,
    W: PolyMatrix,
    Q: PolyMatrix,
    diagonal: tuple[Polynomial, ...],
    algorithm: str,
) -> PolyMatrix:
    """Check ``P @ W @ Q`` against the expected diagonal form and the
    transforms for unitriangularity; return the product.

    Every failure raises :class:`VerificationFailed` carrying the residual
    (computed minus expected), structural failures included.
    """
    computed = (P @ W) @ Q
    residual = computed - _expected_product(diagonal, W.rows, W.cols)
    if not P.is_upper_unitriangular():
        problem = "row transform is not upper unitriangular"
    elif not Q.is_lower_unitriangular():
        problem = "column transform is not lower unitriangular"
    elif not residual.is_zero():
        problem = "product differs from the expected diagonal form"
    else:
        return computed
    raise VerificationFailed(f"{algorithm}: {problem}", residual=residual)


def snf_recurrence(lam: Partition) -> SnfResult:
    """Diagonalize the origin weight square by stacked row relations.

    Level ``k`` clears row and column ``k`` of the remaining block using
    the signed row coefficients of the sub-diagram anchored at
    (k+1, k+1), for rows, and of its conjugate transposed back, for
    columns.  The cleared block that remains is again a weight square one
    step further down the diagonal, so the transforms are simply stacked:
    row ``k`` of P and column ``k`` of Q hold the signed coefficients
    translated to absolute coordinates.
    """
    n = lam.rank + 1
    W = square_matrix(lam, Cell(1, 1))
    P = [[Polynomial.zero()] * n for _ in range(n)]
    Q = [[Polynomial.zero()] * n for _ in range(n)]
    for k in range(n):
        shape = Partition(subdiagram_shape(lam, k + 1, k + 1))
        for i, coeff in enumerate(row_coefficients(shape).coefficients):
            signed = coeff if i % 2 == 0 else -coeff
            P[k][k + i] = signed.translate(k, k)
        conj = shape.conjugate()
        for i, coeff in enumerate(row_coefficients(conj).coefficients):
            signed = coeff if i % 2 == 0 else -coeff
            Q[k + i][k] = signed.transpose_variables().translate(k, k)
    Pm = PolyMatrix(tuple(tuple(row) for row in P))
    Qm = PolyMatrix(tuple(tuple(row) for row in Q))
    diagonal = tuple(leading_monomial(lam, Cell(k, k)) for k in range(1, n + 1))
    D = _certify(Pm, W, Qm, diagonal, "recurrence")
    return SnfResult(P=Pm, Q=Qm, D=D, diagonal=diagonal, algorithm="recurrence")


def _rectangle_fits(lam: Partition, d: int, e: int) -> bool:
    # Extended row lengths are weakly decreasing, so the corner row decides.
    lengths = lam.extended_row_lengths
    return d <= len(lengths) and lengths[d - 1] >= e


def _reduce_rectangle(lam: Partition, d: int, e: int):
    """Build the transforms for the d x e rectangle by peeling one cell at
    a time off the partition, updating the smaller problem's transforms.

    Returns (U, V) as mutable grids; the caller wraps and certifies.
    """
    one = Polynomial.one()
    if d == 1:
        # A single row ends in a border cell with weight 1, so subtracting
        # weight-many copies of the last column clears all the others.
        V = _identity_grid(e)
        for j in range(e - 1):
            V[e - 1][j] = -weight_at(lam, 1, j + 1)
        return [[one]], V

    for corner in sorted(lam.removable_corners(), key=lambda c: c.row, reverse=True):
        smaller = lam.remove_corner(corner)
        if not _rectangle_fits(smaller, d, e):
            continue
        U, V = _reduce_rectangle(smaller, d, e)
        a, b = corner
        z = Polynomial.variable(corner)
        if a < d:
            if b < e:
                raise VerificationFailed(
                    f"removable corner {corner} inside the {d}x{e} rectangle"
                )
            # The removed cell multiplies the top a rows of the smaller
            # problem's normal form.  Scale the strictly-right block of U,
            # then fold in the row subtractions that strip the cross terms
            # (weights taken in the smaller partition; column b+1 may lie
            # just past its extension, where the weight is 1).
            for i in range(a):
                row = U[i]
                for j in range(a, d):
                    if row[j]:
                        row[j] = z * row[j]
            updates = [-weight_at(smaller, i + 1, b + 1) for i in range(a)]
            for r in range(d):
                row = U[r]
                acc = row[a]
                for i in range(a):
                    if row[i] and updates[i]:
                        acc = acc + row[i] * updates[i]
                row[a] = acc
        else:
            if b >= e:
                raise VerificationFailed(
                    f"removable corner {corner} inside the {d}x{e} rectangle"
                )
            # Mirror image on columns: scale the strictly-below block of V
            # and fold the column subtractions into row b of V.
            for j in range(b):
                for i in range(b, e):
                    if V[i][j]:
                        V[i][j] = z * V[i][j]
            updates = [-weight_at(smaller, a + 1, j + 1) for j in range(b)]
            target = V[b]
            for c in range(e):
                acc = target[c]
                for j in range(b):
                    if V[j][c] and updates[j]:
                        acc = acc + updates[j] * V[j][c]
                target[c] = acc
        return U, V

    # No single cell can be removed while keeping the rectangle inside the
    # extension; that happens exactly when the partition is a rectangle
    # filling the frame.  Reduce the corner-free rectangle one size down,
    # then border the transforms and subtract the all-ones last row/column.
    if not (lam and lam.is_rectangle()):
        raise VerificationFailed(f"reduction is stuck on {lam!r} with a {d}x{e} rectangle")
    d2, e2 = len(lam), lam.parts[0]
    if (d, e) != (d2 + 1, e2 + 1):
        raise VerificationFailed(
            f"rectangle {d}x{e} does not frame the {d2}x{e2} partition"
        )
    smaller = lam.remove_corner(Cell(d2, e2))
    U, V = _reduce_rectangle(smaller, d2, e2)
    zero = Polynomial.zero()
    nU = _identity_grid(d)
    for r in range(d2):
        row_sum = zero
        for k in range(d2):
            nU[r][k] = U[r][k]
            if U[r][k]:
                row_sum = row_sum + U[r][k]
        nU[r][d2] = -row_sum
    nV = _identity_grid(e)
    for r in range(e2):
        for c in range(e2):
            nV[r][c] = V[r][c]
    for c in range(e2):
        col_sum = zero
        for j in range(e2):
            if V[j][c]:
                col_sum = col_sum + V[j][c]
        nV[e2][c] = -col_sum
    return nU, nV


def snf_inductive(lam: Partition, d: int, e: int) -> SnfResult:
    """Reduce the d x e weight rectangle (corner on the border, d <= e).

    The diagonal entry in row k is the leading monomial at
    (k, k + e - d); columns left of the diagonal vanish.  Tall rectangles
    are not representable in this layout; conjugate the partition and swap
    the sides instead.
    """
    if d < 1 or e < 1:
        raise InvalidRectangle(f"rectangle sides must be positive, got {d}x{e}")
    if d > e:
        raise InvalidRectangle(
            f"{d}x{e} is taller than wide; conjugate the partition and use {e}x{d}"
        )
    if Cell(d, e) not in lam.extended.border:
        raise InvalidRectangle(
            f"corner ({d},{e}) is not on the border strip of {lam!r}"
        )
    U, V = _reduce_rectangle(lam, d, e)
    Pm = PolyMatrix(tuple(tuple(row) for row in U))
    Qm = PolyMatrix(tuple(tuple(row) for row in V))
    W = rect_weight_matrix(lam, d, e)
    diagonal = tuple(
        leading_monomial(lam, Cell(k, k + e - d)) for k in range(1, d + 1)
    )
    D = _certify(Pm, W, Qm, diagonal, "inductive")
    return SnfResult(P=Pm, Q=Qm, D=D, diagonal=diagonal, algorithm="inductive")


def verify_snf(W: PolyMatrix, result: SnfResult):
    """Check a reduction against its weight matrix.

    Results of :func:`snf_recurrence` and :func:`snf_inductive` are
    already certified; this entry point is for transforms from elsewhere.
    Returns ``(True, None)`` on success, otherwise ``(False, residual)``
    where the residual is the computed product minus the expected
    diagonal form.
    """
    P, Q = result.P, result.Q
    if P.rows != P.cols or Q.rows != Q.cols:
        raise DimensionMismatch("transforms must be square")
    if P.rows != W.rows or Q.rows != W.cols or len(result.diagonal) != W.rows:
        raise DimensionMismatch(
            f"transforms {P.rows}x{P.cols} / {Q.rows}x{Q.cols} do not fit a "
            f"{W.rows}x{W.cols} matrix"
        )
    try:
        _certify(P, W, Q, result.diagonal, result.algorithm)
    except VerificationFailed as exc:
        return False, exc.residual
    return True, None


def determinant(W: PolyMatrix) -> Polynomial:
    """Exact determinant by cofactor expansion with column-mask memoization.

    Intended as an independent oracle at desk scale; sides above
    8 are rejected.
    """
    if W.rows != W.cols:
        raise NotSquare(f"determinant of a {W.rows}x{W.cols} matrix")
    n = W.rows
    if n > _DET_SIDE_LIMIT:
        raise TooLarge(f"cofactor expansion limited to side {_DET_SIDE_LIMIT}, got {n}")
    memo: dict[int, Polynomial] = {}

    def expand(r: int, mask: int) -> Polynomial:
        if r == n:
            return Polynomial.one()
        known = memo.get(mask)
        if known is not None:
            return known
        acc = Polynomial.zero()
        pos = 0
        row = W.entries[r]
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            entry = row[j]
            if entry:
                term = entry * expand(r + 1, mask & ~bit)
                acc = acc + term if pos % 2 == 0 else acc - term
            pos += 1
        memo[mask] = acc
        return acc

    return expand(0, (1 << n) - 1)
