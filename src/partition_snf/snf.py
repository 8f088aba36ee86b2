"""Two constructive normal-form reductions with explicit unitriangular
transforms, and their exact verification.

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

:func:`snf_both` runs both reductions of the origin square on one set of
packed weights.  Equal packed transforms are certified once, and the two
results share them; transforms that differ are certified pair by pair,
so a wrong one fails under its own name.

Every reduction runs one pipeline on packed polynomials, in either key
format.  :class:`_PackedWeights` is the one size check: it refuses a
partition past the degree limit before any work, then packs each weight
shape once per reduction, or once per partition in the self-test, and
shifts it into place.  The replay's updates and the certification's
``W`` both read these packed shapes; scaling by a peeled cell adds one
key to each term, and the key arithmetic is the layout-free ``times``
and ``fold`` of the polynomials module.  Beside the weights, the
weight set packs a shape's signed row coefficients.  Its layout picks
both functions, and so the ring: in a multivariate layout the shape
memo's weights and the walk of :mod:`~partition_snf.recurrence`, in the
Z[q] layout the counted q-weights and the closed form.  The
recurrence's stacked transforms read the coefficients from the weight
set's memo, the column transform's packed with variables transposed.
One tail, :func:`_certified`, builds each
leading monomial of the expected diagonal as one key, from one run key
per row, multiplies ``P @ W @ Q`` in the same layout, with nothing
re-encoded, compares it with the packed expected form and returns the
packed diagonal; the product is decoded only to build the residual of
a failing check.  :func:`_decoded_result` is the one decode, once per
result.  The self-test's border rectangles stop after the tail and
decode nothing.

The multivariate reductions pack in a
:class:`~partition_snf.polynomials.PackedLayout` wide enough for every
cell of the partition.  The staircase reductions of
:mod:`~partition_snf.qcatalan` hand :class:`_PackedWeights` the q key
format instead, so the same reductions and tail run in Z[q].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch, VerificationFailed
from .partitions import Cell, Partition, subdiagram_shape
from .polynomials import (
    PACKED_MINUS_ONE,
    PACKED_ONE,
    PackedLayout,
    Polynomial,
    _check_degree,
    _q_weight,
    _QLayout,
    fold,
    pack_matrices,
    packed_product,
    polynomial_to_json,
    times,
)
from .recurrence import _coefficient_keys, _layout, _q_coefficient_keys
from .recurrence import row_coefficients  # noqa: F401  (the benchmark tracer patches it here)
from .weights import PolyMatrix, _check_rectangle, weight_at

__all__ = [
    "SnfResult",
    "snf_recurrence",
    "snf_inductive",
    "snf_both",
    "verify_snf",
]


@dataclass(frozen=True)
class SnfResult:
    """Certified reduction: P and Q are unitriangular and D = P @ W @ Q.

    D is zero off a right-justified diagonal of monomials; ``diagonal``
    holds those entries top to bottom.
    """

    P: PolyMatrix
    Q: PolyMatrix
    diagonal: tuple[Polynomial, ...]
    algorithm: str

    def agrees_with(self, other: "SnfResult") -> bool:
        """Whether ``other`` has the same diagonal and, entry for entry,
        the same ``P`` and ``Q``: the verdict the CLI and the self-test
        give on the two reductions of one origin square."""
        return (
            self.diagonal == other.diagonal and self.P == other.P and self.Q == other.Q
        )

    def to_json(self) -> dict:
        return {
            "diagonal": [polynomial_to_json(p) for p in self.diagonal],
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
            "verified": True,
            "algorithm": self.algorithm,
        }


def _is_upper_unitriangular(grid) -> bool:
    n = len(grid)
    return all(
        len(row) == n and row[i] == PACKED_ONE and not any(row[:i])
        for i, row in enumerate(grid)
    )


def _certify(
    layout: PackedLayout,
    P: list[list[dict[int, int]]],
    W: list[list[dict[int, int]]],
    QT: list[list[dict[int, int]]],
    diagonal: list[dict[int, int]],
    algorithm: str,
) -> None:
    """Check ``P @ W @ Q`` against the expected diagonal form and the
    transforms for unitriangularity.

    The factors and the diagonal entries are packed in ``layout``, which
    must fit every factor, the diagonal and so the product; ``Q`` is
    given transposed, its columns as rows.  The product is one packed
    chain, compared with the packed expected form; only when a check
    fails is the residual, computed minus expected, folded in packed
    form and decoded.  Every failure raises :class:`VerificationFailed`
    carrying it, structural failures included.
    """
    rows, cols = len(W), len(W[0])
    computed = packed_product(P, W, list(zip(*QT)))
    pad = cols - rows
    expected = [
        [diagonal[i] if j == pad + i else {} for j in range(cols)]
        for i in range(rows)
    ]
    if not _is_upper_unitriangular(P):
        problem = "row transform is not upper unitriangular"
    elif not _is_upper_unitriangular(QT):
        problem = "column transform is not lower unitriangular"
    elif computed != expected:
        problem = "product differs from the expected diagonal form"
    else:
        return
    residual = [
        [layout.decode(fold(c, ((e, PACKED_MINUS_ONE),))) for c, e in zip(*pair)]
        for pair in zip(computed, expected)
    ]
    raise VerificationFailed(f"{algorithm}: {problem}", residual=PolyMatrix(residual))


def _leading_keys(layout: PackedLayout, lam: Partition, d: int, e: int) -> list[int]:
    """Keys of the leading monomials on the diagonal of ``lam``'s d x e
    rectangle, at (k, k + e - d) for k = 1..d: each the product of the
    variables southeast of its cell, one run key per row of its
    sub-diagram.  In Z[q] the key is q^|shape|."""
    keys = []
    for k in range(1, d + 1):
        col = k + e - d
        shape = subdiagram_shape(lam, k, col)
        keys.append(
            sum(layout.run(k + r, col - 1, col - 1 + p) for r, p in enumerate(shape))
        )
    return keys


def _certified(weights: _PackedWeights, lam, d, e, P, QT, algorithm):
    """The tail of every reduction of ``lam``'s d x e rectangle: certify
    the packed transforms ``P`` and ``QT`` (``Q`` transposed) against the
    packed weights and the leading monomials, all in the layout of
    ``weights`` and so in its ring.  Returns the packed diagonal."""
    layout = weights.layout
    diagonal = [{key: 1} for key in _leading_keys(layout, lam, d, e)]
    _certify(layout, P, weights.grid(d, e), QT, diagonal, algorithm)
    return diagonal


def _decoded_result(layout: PackedLayout, P, QT, diagonal, algorithm) -> SnfResult:
    """The result of certified packed transforms and diagonal, decoded:
    the one decode of every reduction."""
    P, QT = (tuple(tuple(map(layout.decode, row)) for row in grid) for grid in (P, QT))
    return SnfResult(
        P=PolyMatrix(P),
        Q=PolyMatrix(tuple(zip(*QT))),
        diagonal=tuple(map(layout.decode, diagonal)),
        algorithm=algorithm,
    )


class _PackedWeights:
    """Weights of the positions of ``lam`` and of its smaller partitions,
    their negations, and the row coefficients of their shapes, packed in
    one layout.

    ``W(1,1)`` holds the leading monomial of degree ``|lam|``, so a
    partition past the degree limit raises ``TooLarge`` here, before any
    reduction work.  A nonempty shape's weight anchored at (1,1) is
    packed once per shape, and negated once in packed form.  A weight is
    then moved into place by the layout's translation.  Past the
    extension the shape is empty and the weight is 1.  The weights
    placed in ``lam``'s own rectangles are kept, so every rectangle and
    check of ``lam`` reads them from one grid.

    A shape's signed row coefficients, anchored at (1,1), or its
    conjugate's with variables transposed, are packed once per shape and
    orientation.

    The layout picks how both are packed: in a
    :class:`~partition_snf.polynomials._QLayout` the weight is counted
    and the coefficients are the closed form; otherwise the weight is
    the shape memo's, read as the weight at the shape's own origin,
    where ``weight_at`` translates nothing, and the coefficients are
    walked.
    """

    def __init__(self, lam: Partition, layout: PackedLayout):
        _check_degree(lam.size)
        self.layout = layout
        self._lam = lam
        if isinstance(layout, _QLayout):
            self._anchored_weight = _q_weight
            self._coefficient_keys = _q_coefficient_keys
        else:
            self._anchored_weight = lambda shape: layout.encode(
                weight_at(Partition(shape), 1, 1)
            )
            self._coefficient_keys = lambda shape, conjugate: _coefficient_keys(
                layout, shape, conjugate
            )
        # shape -> (weight, minus the weight), both (1,1)-anchored
        self._anchored = {(): (PACKED_ONE, PACKED_MINUS_ONE)}
        # (shape, conjugate) -> signed row coefficients
        self._coefficients: dict[tuple, list[dict[int, int]]] = {}
        # lam's placed weights, row by row, as far as they were read
        self._grid: list[list[dict[int, int]]] = []

    def placed(self, lam: Partition, row: int, col: int, sign=1) -> dict[int, int]:
        """The weight of ``lam`` at (row, col), times ``sign``, moved
        into place."""
        shape = subdiagram_shape(lam, row, col)
        pair = self._anchored.get(shape)
        if pair is None:
            plus = self._anchored_weight(shape)
            pair = self._anchored[shape] = (plus, {k: -c for k, c in plus.items()})
        terms = pair[0] if sign > 0 else pair[1]
        return self.layout.translate(terms, row - 1, col - 1) if shape else terms

    def minus(self, lam: Partition, row: int, col: int) -> dict[int, int]:
        return self.placed(lam, row, col, -1)

    def grid(self, d: int, e: int) -> list[list[dict[int, int]]]:
        """The weights of the d x e rectangle of ``lam`` anchored at
        (1,1), as new lists of the kept entries."""
        kept = self._grid
        kept.extend([] for _ in range(d - len(kept)))
        for r, row in enumerate(kept[:d], start=1):
            row.extend(
                self.placed(self._lam, r, c) for c in range(len(row) + 1, e + 1)
            )
        return [row[:e] for row in kept[:d]]

    def coefficients(
        self, shape: tuple[int, ...], conjugate: bool = False
    ) -> list[dict[int, int]]:
        """The signed row coefficients of ``shape`` anchored at (1,1), or
        of its conjugate with variables transposed, memoized."""
        key = (shape, conjugate)
        found = self._coefficients.get(key)
        if found is None:
            found = self._coefficients[key] = self._coefficient_keys(shape, conjugate)
        return found


def _weights(lam: Partition) -> _PackedWeights:
    """The weights of ``lam``'s positions, read from the shape memo and
    packed in a layout wide enough for every cell of ``lam``: every
    weight, every transform entry and every product of them lies inside
    it."""
    return _PackedWeights(lam, _layout(lam))


def _stacked_transforms(weights: _PackedWeights, lam: Partition):
    """The recurrence's transforms of ``lam``'s origin square, packed in
    the layout of ``weights``: row ``k`` of P holds the signed row
    coefficients of the sub-diagram anchored at (k+1, k+1), moved there;
    Q transposed is the row transform of the conjugate partition with
    variables transposed, whose coefficients the weight set packs
    transposed."""
    n = lam.rank + 1
    translate = weights.layout.translate
    P, QT = ([[{}] * n for _ in range(n)] for _ in range(2))
    for k in range(n):
        shape = subdiagram_shape(lam, k + 1, k + 1)
        for grid, conjugate in ((P, False), (QT, True)):
            for i, coeff in enumerate(weights.coefficients(shape, conjugate)):
                grid[k][k + i] = translate(coeff, k, k) if k else coeff
    return P, QT


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
    weights = _weights(lam)
    P, QT = _stacked_transforms(weights, lam)
    diagonal = _certified(weights, lam, n, n, P, QT, "recurrence")
    return _decoded_result(weights.layout, P, QT, diagonal, "recurrence")


def _identity_grid(n: int) -> list[list[dict[int, int]]]:
    return [[PACKED_ONE if i == j else {} for j in range(n)] for i in range(n)]


def _peel_step(
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
            row[j] = times(row[j], z)
    for row in grid:
        row[a] = fold(row[a], zip(row, updates))


def _border(grid: list[list[dict[int, int]]]) -> list[list[dict[int, int]]]:
    """Grow a transform by one, putting each row's negated sum in the new
    column: that subtracts the all-ones line bordering adds to W."""
    n = len(grid)
    out = _identity_grid(n + 1)
    for r, row in enumerate(grid):
        out[r][:n] = row
        out[r][n] = fold({}, ((entry, PACKED_MINUS_ONE) for entry in row))
    return out


def _peel_plan(lam: Partition, d: int, e: int):
    """Plan the peeling of the d x e rectangle down to a single row.

    Returns ``(plan, base, e)``: the ``(smaller, corner)`` steps in
    peeling order, with ``corner=None`` for a bordering step, then the
    partition and the rectangle width the plan ends at.
    """
    plan = []
    while d > 1:
        for corner in reversed(lam.removable_corners()):
            smaller = lam.remove_corner(corner)
            if (d, e) in smaller.extended:
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


def _reduce_rectangle(weights: _PackedWeights, lam: Partition, d: int, e: int):
    """Build the transforms for the d x e rectangle by peeling one cell at
    a time off the partition: plan the peeling down to a single row, then
    replay the plan bottom-up, updating the smaller problem's transforms.

    The column transform is kept transposed, so a cell peeled below the
    rectangle takes the same step as one peeled beside it, with rows and
    columns swapped.  The replay runs on packed polynomials in the
    layout of ``weights``, which must hold every cell of ``lam``.
    Returns U and VT as packed grids, for the caller to certify in the
    same layout.
    """
    layout = weights.layout
    plan, lam, e = _peel_plan(lam, d, e)
    # Weights are read in the smaller partition; the cell next to the
    # peeled one may lie just past its extension, where the weight is 1.
    minus_weight = weights.minus

    # A single row ends in a border cell with weight 1, so subtracting
    # weight-many copies of the last column clears all the others.
    U = _identity_grid(1)
    VT = _identity_grid(e)
    for j in range(e - 1):
        VT[j][e - 1] = minus_weight(lam, 1, j + 1)
    for smaller, corner in reversed(plan):
        if corner is None:
            U = _border(U)
            VT = _border(VT)
            continue
        a, b = corner
        z = layout.variable(corner)
        if a < len(U):
            updates = [minus_weight(smaller, i + 1, b + 1) for i in range(a)]
            _peel_step(U, a, z, updates)
        else:
            updates = [minus_weight(smaller, a + 1, j + 1) for j in range(b)]
            _peel_step(VT, b, z, updates)
    return U, VT


def snf_inductive(lam: Partition, d: int, e: int) -> SnfResult:
    """Reduce the d x e weight rectangle (corner on the border, d <= e).

    The diagonal entry in row k is the leading monomial at
    (k, k + e - d); columns left of the diagonal vanish.  Tall rectangles
    are not representable in this layout; conjugate the partition and swap
    the sides instead.
    """
    _check_rectangle(lam, d, e, wide=True)
    weights = _weights(lam)
    U, VT, diagonal = _certify_inductive(weights, lam, d, e)
    return _decoded_result(weights.layout, U, VT, diagonal, "inductive")


def _certify_inductive(weights: _PackedWeights, lam: Partition, d: int, e: int):
    """Reduce ``lam``'s d x e rectangle by peeling and certify the result,
    all on ``weights``, which may be shared with other rectangles of
    ``lam`` and may be in either key format.  Returns the packed ``U``,
    ``VT`` and diagonal, undecoded.

    The rectangle is the caller's to check: :func:`snf_inductive` checks
    it before building the weights, the self-test takes it from the
    border strip, and the staircase reductions reduce the origin
    square."""
    U, VT = _reduce_rectangle(weights, lam, d, e)
    return U, VT, _certified(weights, lam, d, e, U, VT, "inductive")


def snf_both(lam: Partition) -> tuple[SnfResult, SnfResult]:
    """Reduce the origin square by both algorithms: the results of
    :func:`snf_recurrence` and of :func:`snf_inductive` on the square.

    Both reductions run in one layout and one set of packed weights.
    Their transforms are unique, so they agree unless one of them is
    wrong; when the packed grids are equal they are certified once, as
    the recurrence's, and the two results share ``P``, ``Q`` and the
    diagonal.  Otherwise each pair is certified on its own, recurrence
    first, and a wrong pair raises :class:`VerificationFailed` under its
    own name; two certified pairs that still differ are returned as they
    are, for the caller to compare.
    """
    return _both(_weights(lam), lam)


def _both(weights: _PackedWeights, lam: Partition) -> tuple[SnfResult, SnfResult]:
    """:func:`snf_both` on ``weights``, which may be shared with the
    other rectangles of ``lam``."""
    n = lam.rank + 1
    layout = weights.layout
    P, QT = _stacked_transforms(weights, lam)
    U, VT = _reduce_rectangle(weights, lam, n, n)
    diagonal = _certified(weights, lam, n, n, P, QT, "recurrence")
    by_rows = _decoded_result(layout, P, QT, diagonal, "recurrence")
    if U == P and VT == QT:
        return by_rows, replace(by_rows, algorithm="inductive")
    # The diagonal depends on the rectangle alone.
    _certified(weights, lam, n, n, U, VT, "inductive")
    return by_rows, _decoded_result(layout, U, VT, diagonal, "inductive")


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
    # The diagonal is packed with the factors, so the layout fits it too.
    layout, packed = pack_matrices(
        P.entries, W.entries, tuple(zip(*Q.entries)), (result.diagonal,)
    )
    try:
        _certify(layout, *packed[:3], packed[3][0], result.algorithm)
    except VerificationFailed as exc:
        return False, exc.residual
    return True, None
