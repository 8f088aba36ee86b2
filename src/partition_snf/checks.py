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
never decoded, and no check does ``Polynomial`` arithmetic.  The public
:func:`alternating_row_sum` folds the same packed coefficients against
one column of a partition's weight set, and decodes the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IndexOutOfRange, NotSquare, VerificationFailed
from .partitions import Cell, Partition, all_partitions
from .polynomials import (
    PACKED_ONE,
    PackedLayout,
    Polynomial,
    fold,
    pack_matrices,
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


def _row_sum(weights: _PackedWeights, lam: Partition, j: int) -> dict[int, int]:
    """The packed residual of the row relation in column ``j`` of
    ``lam``'s origin square: its signed row coefficients folded against
    the column's weights, each placed on its own."""
    if not 1 <= j <= lam.rank + 1:
        raise IndexOutOfRange(f"column {j} outside 1..{lam.rank + 1}")
    column = (weights.placed(lam, i, j) for i in range(1, lam.rank + 2))
    return fold({}, zip(weights.coefficients(lam.parts), column))


def alternating_row_sum(lam: Partition, j: int) -> Polynomial:
    """Signed sum of coefficient i times the weight at (i + 1, j).

    Returns the residual polynomial so failures show what was left over;
    the expected value is the full variable product for j = 1 and zero for
    2 <= j <= rank + 1.  The sum is one packed fold on ``lam``'s weight
    set, which refuses ``|lam|`` past the limit first, decoded.
    """
    weights = _weights(lam)
    return weights.layout.decode(_row_sum(weights, lam, j))


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
        # Rows are replaced, never changed.
        for i, row in enumerate(M[:k]):
            M[i] = [
                quotient(fold({}, ((pivot, a), (row[k], b))), previous)
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
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    report = SelfTestReport(max_size=max_size, counts={name: 0 for name in CHECK_NAMES})

    def record(name: str, ok: bool, detail: str) -> None:
        report.counts[name] += 1
        if not ok:
            report.failures.append(f"{name}: {detail}")

    for lam in all_partitions(max_size):
        n = lam.rank + 1
        # One packed weight set serves every check of lam, and is dropped
        # with it.
        weights = _weights(lam)
        layout = weights.layout
        square = weights.grid(n, n)
        diagonal = _leading_keys(layout, lam, n, n)

        coefficients = weights.coefficients(lam.parts)
        for j in range(n):
            residual = fold({}, zip(coefficients, (row[j] for row in square)))
            record(
                "row-relations",
                residual == ({diagonal[0]: 1} if j == 0 else {}),
                f"partition {lam.parts} column {j + 1}",
            )

        try:
            by_rows, by_peeling = _both(weights, lam)
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
            ok, detail = _eliminate(layout, square) == {sum(diagonal): 1}, ""
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
                    _certify_inductive(weights, lam, d, e)
                except VerificationFailed as exc:
                    detail = f": {exc}"
            record(
                "border-rectangles",
                not detail,
                f"partition {lam.parts} rectangle {d}x{e}{detail}",
            )

    return report
