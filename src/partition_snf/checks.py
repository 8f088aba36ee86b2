"""Exhaustive property suites over all partitions up to a given size,
and the oracles they check: the alternating row relation, folded on
packed entries, and the determinant, by fraction-free elimination from
the bottom-right corner on packed entries.

These power the ``selftest`` command and the acceptance tests: every
identity the library is built on is replayed on every partition of size
at most ``max_size``, with failures collected rather than raised so a run
reports everything that broke.  Every check reads the partition's one
packed weight set: the row relations fold its packed row coefficients
against the columns of its origin square, the determinant eliminates on
that square and is compared with one key, the sum of the leading
monomials' keys, and the origin square and every border rectangle reduce
and certify on it.  The border results are certified in packed form and
never decoded, and no check does ``Polynomial`` arithmetic.  A run
keeps the certified transforms of each rectangle below its largest size,
so that a replay on a partition one cell larger starts from them; they
are dropped once the walk has passed every partition that reads them.
The public
:func:`alternating_row_sum` folds the same packed coefficients against
one column of a partition's weight set, and decodes the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import IndexOutOfRange, NotSquare, VerificationFailed
from .partitions import Cell, Partition, all_partitions
from .polynomials import (
    PACKED_ONE,
    PackedLayout,
    Polynomial,
    _kernels,
    _top,
    pack_matrices,
    packed_product,
    quotient,
    render,
)
from .snf import _both, _certify_inductive, _leading_keys, _PackedWeights, _weights
from .snf import snf_inductive  # noqa: F401  (the benchmark tracer patches it here)
from .snf import snf_recurrence  # noqa: F401  (the benchmark tracer patches it here)
from .snf import verify_snf  # noqa: F401  (the benchmark tracer patches it here)
from .weights import PolyMatrix, leading_monomial

__all__ = ["SelfTestReport", "run_selftest", "alternating_row_sum", "determinant"]

CHECK_NAMES = (
    "row-relations",
    "snf-agreement",
    "diagonal-monomials",
    "determinant-product",
    "border-rectangles",
)


@dataclass
class SelfTestReport:
    max_size: int
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.failures


def _row_sum(weights: _PackedWeights, j: int) -> dict[int, int]:
    """The packed residual of the row relation in column ``j`` of the
    origin square of ``weights``: the row of its signed row coefficients
    times the column's kept weights, which places only that column."""
    n = weights.rank + 1
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"column {j} outside 1..{n}")
    column = [[weights.at(i, j)] for i in range(1, n + 1)]
    return packed_product([weights.coefficients(weights.parts)], column)[0][0]


def alternating_row_sum(lam: Partition, j: int) -> Polynomial:
    """Signed sum of coefficient i times the weight at (i + 1, j).

    Returns the residual polynomial so failures show what was left over;
    the expected value is the full variable product for j = 1 and zero for
    2 <= j <= rank + 1.  The sum is one packed fold on ``lam``'s weight
    set, which refuses ``|lam|`` past the limit first, decoded.
    """
    weights = _weights(lam.parts)
    return weights.layout.decode(_row_sum(weights, j))


def _eliminate(layout: PackedLayout, M: list[list[dict[int, int]]]) -> dict[int, int]:
    """The packed determinant of the square ``M``, packed in ``layout``,
    by fraction-free elimination from the bottom-right corner; ``M`` and
    its rows are left as they are."""
    M = list(M)
    previous = PACKED_ONE
    for k in range(len(M) - 1, 0, -1):
        pivot = M[k][k]
        if len(pivot) != 1:
            raise VerificationFailed(
                f"determinant pivot ({k + 1},{k + 1}) is not one term: "
                f"{render(layout.decode(pivot))}"
            )
        minus = [{key: -c for key, c in entry.items()} for entry in M[k][:k]]
        # One degree check per round: it multiplies entries of the rows
        # above the pivot by entries of the pivot's row.  Past that bound
        # the round runs the public fold, which checks each pair.
        _, mul = _kernels(_top(chain.from_iterable(M[:k])) + _top(M[k]))
        # Rows are replaced, never changed.
        for i, row in enumerate(M[:k]):
            M[i] = [
                quotient(mul({}, ((pivot, a), (row[k], b))), previous)
                for a, b in zip(row, minus)
            ]
        previous = pivot
    return M[0][0]


def determinant(W: PolyMatrix) -> Polynomial:
    """Exact determinant by fraction-free elimination from the bottom-right
    corner on packed entries (Bareiss, Math. Comp. 22 (1968)).

    Each pivot is the minor of a trailing principal block, a monomial for
    a weight square by the paper's theorem, so every exact division is by
    one term.  A pivot that is not one term, or a division that is not
    exact, raises :class:`VerificationFailed`.
    """
    if W.rows != W.cols:
        raise NotSquare(f"determinant of a {W.rows}x{W.cols} matrix")
    layout, (M,) = pack_matrices(W.entries)
    return layout.decode(_eliminate(layout, M))


def run_selftest(max_size: int) -> SelfTestReport:
    """Replay the core identities over all partitions of size <= max_size.

    Checks, per partition: the alternating row relation in every column;
    agreement of the two reduction algorithms' transforms, entry for
    entry, on the origin square (they are unique there); the diagonal
    being the expected leading monomials; the determinant oracle against
    the diagonal product; and a certified reduction for every border
    rectangle that is at least as wide as tall.

    A peel step removes one cell and keeps the rectangle on the border
    strip, so the first state of a replay that keeps the first part is a
    rectangle of a partition one size smaller, already certified in this
    run.  The run keeps the certified packed ``(U, VT)`` of each origin
    square and wide border rectangle by ``(parts, d, e)``, in blocks by
    size and first part, and a partition's replays start from the block
    one size smaller with its first part: the same layout stride, so the
    keys are read as they are.  Transforms that fail certification are
    never kept, nor are those of the largest size or of single rows,
    which nothing reads.
    Partitions come by size, then by first part descending, so a block
    is dropped as soon as the walk has passed the partitions that read
    it, and at most two sizes' blocks are held.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    report = SelfTestReport(max_size=max_size, counts={name: 0 for name in CHECK_NAMES})

    def record(name: str, ok: bool, detail: str) -> None:
        report.counts[name] += 1
        if not ok:
            report.failures.append(f"{name}: {detail}")

    # (size, first part) -> {(parts, d, e): certified packed (U, VT)}
    starts: dict[tuple[int, int], dict] = {}
    for lam in all_partitions(max_size):
        size, first = sum(lam.parts), lam.parts[0] if lam.parts else 0
        # Keep the blocks that lam or a later partition reads.
        starts = {
            (s, f): kept
            for (s, f), kept in starts.items()
            if s == size or (s == size - 1 and f <= first)
        }
        # One packed weight set serves every check of lam, and is dropped
        # with it.
        weights = _weights(lam.parts)
        weights.starts = starts.get((size - 1, first), {})
        if size < max_size:
            weights.new_starts = starts.setdefault((size, first), {})
        n = weights.rank + 1
        square = weights.grid(n, n)
        diagonal = _leading_keys(weights, n, n)

        for j in range(1, n + 1):
            record(
                "row-relations",
                _row_sum(weights, j) == ({diagonal[0]: 1} if j == 1 else {}),
                f"partition {lam.parts} column {j}",
            )

        try:
            by_rows, by_peeling = _both(weights)
        except VerificationFailed as exc:
            # Only the diagonal check needs the certified diagonal.
            record("snf-agreement", False, f"partition {lam.parts}: {exc}")
        else:
            record(
                "snf-agreement",
                by_rows.agrees_with(by_peeling),
                f"partition {lam.parts}",
            )
            expected = tuple(leading_monomial(lam, Cell(k, k)) for k in range(1, n + 1))
            record(
                "diagonal-monomials",
                by_rows.diagonal == expected,
                f"partition {lam.parts}",
            )

        try:
            ok, detail = _eliminate(weights.layout, square) == {sum(diagonal): 1}, ""
        except VerificationFailed as exc:
            ok, detail = False, f": {exc}"
        record("determinant-product", ok, f"partition {lam.parts}{detail}")

        for corner in sorted(lam.extended.border):
            d, e = corner
            if d > e:
                continue
            # The reduction is certified in packed form or raises, and is
            # never decoded; the origin square was reduced above.
            detail = ""
            if d != n or e != n:
                try:
                    _certify_inductive(weights, d, e)
                except VerificationFailed as exc:
                    detail = f": {exc}"
            record(
                "border-rectangles",
                not detail,
                f"partition {lam.parts} rectangle {d}x{e}{detail}",
            )

    return report
