"""Two constructive normal-form reductions with explicit unitriangular
transforms, exact verification, and a cofactor determinant oracle.

Both reductions certify themselves: the returned transforms are multiplied
back against the weight matrix and compared entry by entry with the
expected zero-padded diagonal of leading monomials before anything is
returned.  A mismatch raises :class:`VerificationFailed` carrying the
residual; it signals an implementation bug, never bad input.

On the origin square the two reductions return the same transforms,
entry for entry.  ``det W`` is a product of monomials, so ``W`` is
invertible over the fraction field, and ``W = U D L`` with ``U`` upper
and ``L`` lower unitriangular and ``D`` diagonal is unique (LDU
uniqueness, in reverse order); so ``P = U^-1`` and ``Q = L^-1`` are
forced.  The self-test compares both whole transforms.  A ``d x e``
rectangle with ``d < e`` has a zero block on the left, so its ``Q`` is
not unique.

The inductive replay runs on packed polynomials in one
:class:`~partition_snf.polynomials.PackedLayout` per reduction, wide
enough for every cell of the partition: scaling by a peeled cell adds
one key to each term, and each weight shape is packed once and shifted
into place.  The transforms are decoded into polynomials once, at the
end.
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
from .polynomials import (
    PackedLayout,
    Polynomial,
    matrix_product,
    polynomial_to_json,
)
from .recurrence import row_coefficients
from .weights import (
    PolyMatrix,
    leading_monomial,
    rect_weight_matrix,
    relative_weight,
    square_matrix,
)
from .weights import weight_at  # noqa: F401  (the benchmark tracer patches it here)

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

    The product is one packed chain, compared with the expected form entry
    by entry.  Every failure raises :class:`VerificationFailed` carrying
    the residual (computed minus expected), structural failures included.
    """
    computed = PolyMatrix(matrix_product(P.entries, W.entries, Q.entries))
    zero = Polynomial.zero()
    pad = W.cols - W.rows
    if not P.is_upper_unitriangular():
        problem = "row transform is not upper unitriangular"
    elif not Q.is_lower_unitriangular():
        problem = "column transform is not lower unitriangular"
    elif any(
        entry != (diagonal[i] if j == pad + i else zero)
        for i, row in enumerate(computed.entries)
        for j, entry in enumerate(row)
    ):
        problem = "product differs from the expected diagonal form"
    else:
        return computed
    residual = computed - _expected_product(diagonal, W.rows, W.cols)
    raise VerificationFailed(f"{algorithm}: {problem}", residual=residual)


def _signed_row_transform(lam: Partition) -> list[list[Polynomial]]:
    """Row ``k`` holds the signed row coefficients of the sub-diagram
    anchored at (k+1, k+1), translated to absolute coordinates."""
    n = lam.rank + 1
    grid = [[Polynomial.zero()] * n for _ in range(n)]
    for k in range(n):
        shape = Partition(subdiagram_shape(lam, k + 1, k + 1))
        for i, coeff in enumerate(row_coefficients(shape).coefficients):
            signed = coeff if i % 2 == 0 else -coeff
            grid[k][k + i] = signed.translate(k, k)
    return grid


def snf_recurrence(lam: Partition) -> SnfResult:
    """Diagonalize the origin weight square by stacked row relations.

    Level ``k`` clears row and column ``k`` of the remaining block using
    the signed row coefficients of the sub-diagram anchored at
    (k+1, k+1).  The cleared block that remains is again a weight square
    one step further down the diagonal, so the transforms are simply
    stacked.  Column work is row work on the conjugate: Q is the row
    transform of the conjugate partition with variables transposed, then
    transposed.
    """
    n = lam.rank + 1
    W = square_matrix(lam, Cell(1, 1))
    Pm = PolyMatrix(tuple(map(tuple, _signed_row_transform(lam))))
    Qm = PolyMatrix(
        tuple(
            tuple(p.transpose_variables() for p in column)
            for column in zip(*_signed_row_transform(lam.conjugate()))
        )
    )
    diagonal = tuple(leading_monomial(lam, Cell(k, k)) for k in range(1, n + 1))
    D = _certify(Pm, W, Qm, diagonal, "recurrence")
    return SnfResult(P=Pm, Q=Qm, D=D, diagonal=diagonal, algorithm="recurrence")


def _rectangle_fits(lam: Partition, d: int, e: int) -> bool:
    # Extended row lengths are weakly decreasing, so the corner row decides.
    lengths = lam.extended_row_lengths
    return d <= len(lengths) and lengths[d - 1] >= e


def _identity_grid(n: int, one: dict[int, int]) -> list[list[dict[int, int]]]:
    return [[one if i == j else {} for j in range(n)] for i in range(n)]


def _peel_step(
    layout: PackedLayout,
    grid: list[list[dict[int, int]]],
    a: int,
    z: int,
    updates: list[dict[int, int]],
) -> None:
    """Undo one peeled cell on the row transform, or on the transposed
    column transform: the cell, whose key is ``z``, multiplies the first
    ``a`` diagonal entries, so scale those rows right of column ``a``,
    then fold in ``updates`` (minus the smaller partition's weights beside
    the cell)."""
    for row in grid[:a]:
        for j in range(a, len(row)):
            row[j] = layout.times(row[j], z)
    for row in grid:
        row[a] = layout.fold(row[a], zip(row, updates))


def _border(
    layout: PackedLayout,
    grid: list[list[dict[int, int]]],
    one: dict[int, int],
    minus_one: dict[int, int],
) -> list[list[dict[int, int]]]:
    """Grow a transform by one, putting each row's negated sum in the new
    column: that subtracts the all-ones line bordering adds to W."""
    n = len(grid)
    out = _identity_grid(n + 1, one)
    for r, row in enumerate(grid):
        out[r][:n] = row
        out[r][n] = layout.fold({}, ((entry, minus_one) for entry in row))
    return out


def _peel_plan(lam: Partition, d: int, e: int):
    """Plan the peeling of the d x e rectangle down to a single row.

    Returns ``(plan, base, e)``: the ``(smaller, corner)`` steps in
    peeling order, with ``corner=None`` for a bordering step, then the
    partition and the rectangle width the plan ends at.
    """
    plan = []
    while d > 1:
        for corner in sorted(lam.removable_corners(), key=lambda c: c.row, reverse=True):
            smaller = lam.remove_corner(corner)
            if _rectangle_fits(smaller, d, e):
                # The cell must lie right of the rectangle in one of its
                # rows, or below it in one of its columns.
                if (corner.row < d) == (corner.col < e):
                    raise VerificationFailed(
                        f"removable corner {corner} is not beside the {d}x{e} rectangle"
                    )
                break
        else:
            # No single cell can be removed while keeping the rectangle
            # inside the extension; that happens exactly when the partition
            # is a rectangle filling the frame.  Shrink both, then border.
            if not (lam and lam.is_rectangle()):
                raise VerificationFailed(
                    f"reduction is stuck on {lam!r} with a {d}x{e} rectangle"
                )
            if (d, e) != (len(lam) + 1, lam.parts[0] + 1):
                raise VerificationFailed(
                    f"rectangle {d}x{e} does not frame the "
                    f"{len(lam)}x{lam.parts[0]} partition"
                )
            d, e, corner = d - 1, e - 1, None
            smaller = lam.remove_corner(Cell(d, e))
        plan.append((smaller, corner))
        lam = smaller
    return plan, lam, e


def _reduce_rectangle(lam: Partition, d: int, e: int):
    """Build the transforms for the d x e rectangle by peeling one cell at
    a time off the partition: plan the peeling down to a single row, then
    replay the plan bottom-up, updating the smaller problem's transforms.

    The column transform is kept transposed, so a cell peeled below the
    rectangle takes the same step as one peeled beside it, with rows and
    columns swapped.  The replay runs on packed polynomials in one
    layout fixed by ``lam``, whose cells hold every variable it can meet;
    each weight shape is packed once and moved into place by a shift.
    Returns (U, VT) as grids of polynomials, decoded once at the end; the
    caller wraps and certifies.
    """
    layout = PackedLayout(lam.parts[0] if lam else 1, len(lam))
    plan, lam, e = _peel_plan(lam, d, e)
    one = layout.encode(Polynomial.one())
    minus_one = layout.encode(-Polynomial.one())
    # Minus the (1,1)-anchored weight of each shape met, packed once.
    minus_weights: dict[tuple[int, ...], dict[int, int]] = {}

    def minus_weight(smaller: Partition, row: int, col: int) -> dict[int, int]:
        # Weights are read in the smaller partition; the cell next to the
        # peeled one may lie just past its extension, where the weight is 1.
        shape = subdiagram_shape(smaller, row, col)
        if not shape:
            return minus_one
        terms = minus_weights.get(shape)
        if terms is None:
            terms = minus_weights[shape] = layout.encode(-relative_weight(shape))
        return layout.translate(terms, row - 1, col - 1)

    # A single row ends in a border cell with weight 1, so subtracting
    # weight-many copies of the last column clears all the others.
    U = _identity_grid(1, one)
    VT = _identity_grid(e, one)
    for j in range(e - 1):
        VT[j][e - 1] = minus_weight(lam, 1, j + 1)
    for smaller, corner in reversed(plan):
        if corner is None:
            U = _border(layout, U, one, minus_one)
            VT = _border(layout, VT, one, minus_one)
            continue
        a, b = corner
        z = layout.variable(corner)
        if a < len(U):
            updates = [minus_weight(smaller, i + 1, b + 1) for i in range(a)]
            _peel_step(layout, U, a, z, updates)
        else:
            updates = [minus_weight(smaller, a + 1, j + 1) for j in range(b)]
            _peel_step(layout, VT, b, z, updates)
    return (
        [[layout.decode(terms) for terms in row] for row in U],
        [[layout.decode(terms) for terms in row] for row in VT],
    )


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
    U, VT = _reduce_rectangle(lam, d, e)
    Pm = PolyMatrix(tuple(map(tuple, U)))
    Qm = PolyMatrix(tuple(zip(*VT)))
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
