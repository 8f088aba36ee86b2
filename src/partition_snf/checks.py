"""Exhaustive property suites over all partitions up to a given size,
and the cofactor determinant oracle they check the diagonal against.

These power the ``selftest`` command and the acceptance tests: every
identity the library is built on is replayed on every partition of size
at most ``max_size``, with failures collected rather than raised so a run
reports everything that broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotSquare, TooLarge, VerificationFailed
from .partitions import Cell, all_partitions
from .polynomials import Polynomial
from .recurrence import alternating_row_sum
from .snf import snf_both, snf_inductive
from .snf import snf_recurrence  # noqa: F401  (the benchmark tracer patches it here)
from .snf import verify_snf  # noqa: F401  (the benchmark tracer patches it here)
from .weights import PolyMatrix, leading_monomial, square_matrix

__all__ = ["SelfTestReport", "run_selftest", "determinant"]

CHECK_NAMES = (
    "row-relations",
    "snf-agreement",
    "diagonal-monomials",
    "determinant-product",
    "border-rectangles",
)
# The determinant-product check runs on squares up to side 6; the
# cofactor oracle itself refuses sides past 8.
_DETERMINANT_CHECK_SIDE = 6
_DET_SIDE_LIMIT = 8


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


def run_selftest(max_size: int) -> SelfTestReport:
    """Replay the core identities over all partitions of size <= max_size.

    Checks, per partition: the alternating row relation in every column;
    agreement of the two reduction algorithms' transforms, entry for
    entry, on the origin square (they are unique there); the
    diagonal being the expected leading monomials; the determinant oracle
    against the diagonal product (sides up to 6 only); and a certified
    reduction for every border rectangle that is at least as wide as tall.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    report = SelfTestReport(max_size=max_size, counts={name: 0 for name in CHECK_NAMES})

    def record(name: str, ok: bool, detail: str) -> None:
        report.counts[name] += 1
        if not ok:
            report.failures.append(f"{name}: {detail}")

    for lam in all_partitions(max_size):
        rho = lam.rank

        for j in range(1, rho + 2):
            residual = alternating_row_sum(lam, j)
            expected = (
                leading_monomial(lam, Cell(1, 1)) if j == 1 else Polynomial.zero()
            )
            record(
                "row-relations",
                residual == expected,
                f"partition {lam.parts} column {j}",
            )

        try:
            by_rows, by_peeling = snf_both(lam)
        except VerificationFailed as exc:
            record("snf-agreement", False, f"partition {lam.parts}: {exc}")
            continue
        record(
            "snf-agreement", by_rows.agrees_with(by_peeling), f"partition {lam.parts}"
        )

        expected_diag = tuple(
            leading_monomial(lam, Cell(k, k)) for k in range(1, rho + 2)
        )
        record(
            "diagonal-monomials",
            by_rows.diagonal == expected_diag,
            f"partition {lam.parts}",
        )

        if rho + 1 <= _DETERMINANT_CHECK_SIDE:
            W = square_matrix(lam, Cell(1, 1))
            product = Polynomial.one()
            for entry in expected_diag:
                product = product * entry
            record(
                "determinant-product",
                determinant(W) == product,
                f"partition {lam.parts}",
            )

        for corner in sorted(lam.extended.border):
            d, e = corner
            if d > e:
                continue
            # snf_inductive certifies its result or raises; the origin
            # square was already reduced and certified above.
            detail = ""
            if d != rho + 1 or e != rho + 1:
                try:
                    snf_inductive(lam, d, e)
                except VerificationFailed as exc:
                    detail = f": {exc}"
            record(
                "border-rectangles",
                not detail,
                f"partition {lam.parts} rectangle {d}x{e}{detail}",
            )

    return report
