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
format, on one weight set, :class:`_PackedWeights`.  It is the one size
check, refusing a partition past the degree limit before any work, and
the one holder of the partition below the public functions: it keeps
the part tuple and the rank, and every private step takes the weight
set alone, so none can pair it with another partition.  It packs each
weight shape and each shape's signed row coefficients once, in its
layout, which is its ring; scaling by a peeled cell adds one key to
each term, by the layout-free ``times`` and ``fold`` of the
polynomials module.  The peeling is planned and replayed on part
tuples, with ``(row, col)`` corners, and nothing below the public
functions builds a ``Partition``.  One tail, :func:`_certified`, builds each
leading monomial of the expected diagonal as one key, from one run key
per row, multiplies ``P @ W @ Q`` in the same layout, with nothing
re-encoded, compares it with the packed expected form and returns the
packed diagonal; the product is decoded only to build the residual of
a failing check.  :func:`_decoded_result` is the one decode, once per
result.  The self-test's border rectangles stop after the tail and
decode nothing.

The peeling removes one cell per step, as the paper's induction on
``|lam|`` does, so the self-test, which walks partitions by size, can
start each replay from the certified transforms of a state one cell
smaller.  A weight set carries two maps for it, which only the
self-test fills: ``starts``, read by :func:`_peel_plan` and
:func:`_reduce_rectangle`, and ``new_starts``, where :func:`_certified`
keeps each pair of the set's own transforms that it passes.  Every
reduction is still certified in full, and the public reductions start
from the single row.

The multivariate reductions pack in the partition's layout of
:mod:`~partition_snf.recurrence`, wide enough for every cell of the
partition.  The staircase reductions of :mod:`~partition_snf.qcatalan`
hand :class:`_PackedWeights` the Z[q] layout instead, so the same
reductions and tail run in Z[q].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch, VerificationFailed
from .partitions import Cell, Partition, _conjugate, _extends_to, _rank
from .partitions import _removable_corners, _without_corner, subdiagram_shape
from .polynomials import (
    PACKED_MINUS_ONE,
    PACKED_ONE,
    PackedLayout,
    Polynomial,
    _check_degree,
    fold,
    pack_matrices,
    packed_product,
    polynomial_to_json,
    times,
)
from .recurrence import _PartitionLayout
from .recurrence import row_coefficients  # noqa: F401  (the benchmark tracer patches it here)
from .weights import PolyMatrix, _check_rectangle
from .weights import weight_at  # noqa: F401  (the benchmark tracer patches it here)

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
        return self._json(polynomial_to_json)

    def _json(self, leaf) -> dict:
        """The JSON fields, with ``leaf`` applied to each polynomial."""
        return {
            "diagonal": [leaf(p) for p in self.diagonal],
            "P": self.P._json(leaf),
            "Q": self.Q._json(leaf),
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


def _leading_keys(weights: _PackedWeights, d: int, e: int) -> list[int]:
    """Keys of the leading monomials on the diagonal of the d x e
    rectangle of ``weights``, at (k, k + e - d) for k = 1..d: each the
    product of the variables southeast of its cell, one run key per row
    of its sub-diagram.  In Z[q] the key is q^|shape|."""
    run = weights.layout.run
    keys = []
    for k in range(1, d + 1):
        col = k + e - d
        shape = subdiagram_shape(weights.parts, k, col)
        keys.append(sum(run(k + r, col - 1, col - 1 + p) for r, p in enumerate(shape)))
    return keys


def _certified(weights: _PackedWeights, d, e, P, QT, algorithm):
    """The tail of every reduction of the d x e rectangle of ``weights``:
    certify the packed transforms ``P`` and ``QT`` (``Q`` transposed)
    against the packed weights and the leading monomials, all in the
    layout of ``weights`` and so in its ring.  Returns the packed diagonal.

    Each pair that passes is kept in ``weights.new_starts``, if set, for
    replays to start from.  On a square it is the only correct pair (LDU
    uniqueness), so a replay from it is the replay from the single row."""
    layout = weights.layout
    diagonal = [{key: 1} for key in _leading_keys(weights, d, e)]
    _certify(layout, P, weights.grid(d, e), QT, diagonal, algorithm)
    # No replay reads a single row: a plan ends at one on its own
    # partition, or after a bordering step, which shortens the first part.
    if weights.new_starts is not None and d > 1:
        weights.new_starts[weights.parts, d, e] = P, QT
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
    """Weights of the positions of the partition ``parts``, ``lam``, and
    of its smaller partitions, their negations, and the row coefficients
    of their shapes, packed in one layout.  It is the engine's one copy
    of ``lam``, whose rectangles are called the weight set's.

    ``W(1,1)`` holds the leading monomial of degree ``|lam|``, so a
    partition past the degree limit raises ``TooLarge`` here, before any
    reduction work.  A nonempty shape's weight anchored at (1,1) is
    packed once per shape, and negated in packed form on the shape's
    first negated read, if any.  A weight is then moved into place by
    the layout's translation.  Past the extension the shape is empty and
    the weight is 1.  The weights placed in ``lam``'s own rectangles are
    kept by position, so every rectangle and check of ``lam`` reads them
    from one grid.

    A shape's signed row coefficients, anchored at (1,1), or its
    conjugate's with variables transposed, are packed once per shape and
    orientation.

    The layout is the ring: its ``weight`` and ``coefficients`` pack
    both, and nothing here asks which ring it is.
    """

    def __init__(self, parts: tuple[int, ...], layout: PackedLayout):
        _check_degree(sum(parts))
        self.layout = layout
        self.parts = parts
        self.rank = _rank(parts)
        # shape -> its (1,1)-anchored weight, and minus that weight
        self._anchored = {(): PACKED_ONE}
        self._negated = {(): PACKED_MINUS_ONE}
        # (shape, conjugate) -> signed row coefficients
        self._coefficients: dict[tuple, list[dict[int, int]]] = {}
        # (row, col) -> lam's placed weight there, once it was read
        self._kept: dict[tuple[int, int], dict[int, int]] = {}
        # (parts, d, e) -> certified packed (U, VT) that a replay may
        # start from, all at this layout's stride; and where this set's
        # own certified transforms are kept for such replays, or None.
        # Only the self-test fills them.
        self.starts: dict = {}
        self.new_starts: dict | None = None

    def placed(self, parts: tuple, row: int, col: int, sign=1) -> dict[int, int]:
        """The weight of the partition ``parts`` at (row, col), times
        ``sign``, moved into place."""
        shape = subdiagram_shape(parts, row, col)
        terms = (self._anchored if sign > 0 else self._negated).get(shape)
        if terms is None:
            terms = self._anchored.get(shape)
            if terms is None:
                terms = self._anchored[shape] = self.layout.weight(shape)
            if sign < 0:
                terms = self._negated[shape] = {k: -c for k, c in terms.items()}
        return self.layout.translate(terms, row - 1, col - 1) if shape else terms

    def at(self, row: int, col: int) -> dict[int, int]:
        """The weight of ``lam`` at (row, col), placed once and kept."""
        kept = self._kept.get((row, col))
        if kept is None:
            kept = self._kept[row, col] = self.placed(self.parts, row, col)
        return kept

    def grid(self, d: int, e: int) -> list[list[dict[int, int]]]:
        """The weights of the d x e rectangle of ``lam`` anchored at
        (1,1), as new lists of the kept entries."""
        return [[self.at(r, c) for c in range(1, e + 1)] for r in range(1, d + 1)]

    def coefficients(
        self, shape: tuple[int, ...], conjugate: bool = False
    ) -> list[dict[int, int]]:
        """The signed row coefficients of ``shape`` anchored at (1,1), or
        of its conjugate with variables transposed, memoized."""
        key = (shape, conjugate)
        found = self._coefficients.get(key)
        if found is None:
            parts = _conjugate(shape) if conjugate else shape
            found = self._coefficients[key] = self.layout.coefficients(parts, conjugate)
        return found


def _weights(parts: tuple[int, ...]) -> _PackedWeights:
    """The weights of the partition ``parts``, read from the shape memo
    and packed in a layout wide enough for every cell of it: every
    weight, every transform entry and every product of them lies inside
    it."""
    return _PackedWeights(parts, _PartitionLayout(parts))


def _stacked_transforms(weights: _PackedWeights):
    """The recurrence's transforms of the origin square of ``weights``,
    packed in its layout: row ``k`` of P holds the signed row
    coefficients of the sub-diagram anchored at (k+1, k+1), moved there;
    Q transposed is the row transform of the conjugate partition with
    variables transposed, whose coefficients the weight set packs
    transposed."""
    n = weights.rank + 1
    translate = weights.layout.translate
    P, QT = ([[{}] * n for _ in range(n)] for _ in range(2))
    for k in range(n):
        shape = subdiagram_shape(weights.parts, k + 1, k + 1)
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
    weights = _weights(lam.parts)
    n = weights.rank + 1
    P, QT = _stacked_transforms(weights)
    diagonal = _certified(weights, n, n, P, QT, "recurrence")
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


def _peel_plan(parts: tuple[int, ...], d: int, e: int, known=()):
    """Plan the peeling of the d x e rectangle of the partition ``parts``
    down to a single row, or to the first state ``(parts, d, e)`` found
    in ``known``, on part tuples alone.

    Returns ``(plan, parts, d, e)``: the ``(smaller, corner)`` steps in
    peeling order, ``smaller`` a part tuple and ``corner`` a ``(row,
    col)`` pair, or ``None`` for a bordering step, then the state the
    plan ends at.
    """
    plan = []
    while d > 1 and (parts, d, e) not in known:
        for r, c in reversed(_removable_corners(parts)):
            smaller = _without_corner(parts, r)
            if _extends_to(smaller, d, e):
                # The cell must lie right of the rectangle in one of its
                # rows, or below it in one of its columns.
                if (r < d) == (c < e):
                    raise VerificationFailed(
                        f"removable corner {Cell(r, c)} is not beside the "
                        f"{d}x{e} rectangle"
                    )
                corner = (r, c)
                break
        else:
            # No single cell can be removed while keeping the rectangle
            # inside the extension; that happens exactly when the partition
            # is a rectangle filling the frame.  Shrink both, then border.
            if not (parts and parts[0] == parts[-1]):
                raise VerificationFailed(
                    f"reduction is stuck on {Partition(parts)!r} with a "
                    f"{d}x{e} rectangle"
                )
            if (d, e) != (len(parts) + 1, parts[0] + 1):
                raise VerificationFailed(
                    f"rectangle {d}x{e} does not frame the "
                    f"{len(parts)}x{parts[0]} partition"
                )
            d, e, corner = d - 1, e - 1, None
            smaller = _without_corner(parts, d)
        plan.append((smaller, corner))
        parts = smaller
    return plan, parts, d, e


def _reduce_rectangle(weights: _PackedWeights, d: int, e: int):
    """Build the transforms for the d x e rectangle of ``weights`` by
    peeling one cell at a time off its partition: plan the peeling down to
    a single row, or to a state in ``weights.starts``, then replay the
    plan bottom-up, updating the smaller problem's transforms.  Both run
    on part tuples.

    A replay from a state in ``weights.starts`` starts from row copies
    of its certified transforms, as each step writes rows in place.
    Those were replayed from the same plan in the same stride, so the
    result is the one a replay from the single row gives.

    The column transform is kept transposed, so a cell peeled below the
    rectangle takes the same step as one peeled beside it, with rows and
    columns swapped.  The replay runs on packed polynomials in the
    layout of ``weights``, which must hold every cell of the partition.
    Returns U and VT as packed grids, for the caller to certify in the
    same layout.
    """
    layout = weights.layout
    plan, parts, d, e = _peel_plan(weights.parts, d, e, weights.starts)
    # Weights are read in the smaller partition; the cell next to the
    # peeled one may lie just past its extension, where the weight is 1.
    placed = weights.placed

    start = weights.starts.get((parts, d, e))
    if start is not None:
        U, VT = ([row[:] for row in grid] for grid in start)
    else:
        # A single row ends in a border cell with weight 1, so subtracting
        # weight-many copies of the last column clears all the others.
        U = _identity_grid(1)
        VT = _identity_grid(e)
        for j in range(e - 1):
            VT[j][e - 1] = placed(parts, 1, j + 1, -1)
    for smaller, corner in reversed(plan):
        if corner is None:
            U = _border(U)
            VT = _border(VT)
            continue
        a, b = corner
        z = layout.run(a, b - 1, b)
        if a < len(U):
            updates = [placed(smaller, i + 1, b + 1, -1) for i in range(a)]
            _peel_step(U, a, z, updates)
        else:
            updates = [placed(smaller, a + 1, j + 1, -1) for j in range(b)]
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
    weights = _weights(lam.parts)
    U, VT, diagonal = _certify_inductive(weights, d, e)
    return _decoded_result(weights.layout, U, VT, diagonal, "inductive")


def _certify_inductive(weights: _PackedWeights, d: int, e: int):
    """Reduce the d x e rectangle of ``weights`` by peeling and certify
    the result, all on ``weights``, which may be shared with other
    rectangles and may be in either key format.  Returns the packed
    ``U``, ``VT`` and diagonal, undecoded, kept by :func:`_certified`.

    The rectangle is the caller's to check: :func:`snf_inductive` checks
    it before building the weights, the self-test takes it from the
    border strip, and the staircase reductions reduce the origin
    square."""
    U, VT = _reduce_rectangle(weights, d, e)
    return U, VT, _certified(weights, d, e, U, VT, "inductive")


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
    return _both(_weights(lam.parts))


def _both(weights: _PackedWeights) -> tuple[SnfResult, SnfResult]:
    """:func:`snf_both` on ``weights``, which may be shared with the
    other rectangles of its partition."""
    n = weights.rank + 1
    P, QT = _stacked_transforms(weights)
    U, VT = _reduce_rectangle(weights, n, n)
    if U == P and VT == QT:
        # Keep the replay's grids, whose rows share entries with its start.
        P, QT = U, VT
    diagonal = _certified(weights, n, n, P, QT, "recurrence")
    by_rows = _decoded_result(weights.layout, P, QT, diagonal, "recurrence")
    if P is U:
        return by_rows, replace(by_rows, algorithm="inductive")
    # The diagonal depends on the rectangle alone.
    _certified(weights, n, n, U, VT, "inductive")
    return by_rows, _decoded_result(weights.layout, U, VT, diagonal, "inductive")


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
