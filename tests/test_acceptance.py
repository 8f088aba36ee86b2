"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
report.  Every comparison is exact; each criterion also enforces its
runtime budget.
"""

import time
from contextlib import contextmanager
from math import comb

from partition_snf import (
    Cell,
    Monomial,
    Partition,
    Polynomial,
    all_partitions,
    alternating_row_sum,
    boundary_walk_count,
    determinant,
    expected_snf_exponents,
    q_catalan,
    row_coefficient,
    run_selftest,
    snf_inductive,
    snf_recurrence,
    square_matrix,
    staircase_snf_diagonal,
    weight_polynomial,
)
from partition_snf.cli import main

from helpers import (
    catalan_numbers,
    choice_poly,
    evaluate_at_ones,
    from_cells,
    is_lower_unitriangular,
    is_upper_unitriangular,
    poly,
    q_poly,
    q_power,
    subpartitions,
)


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{criterion} exceeded {seconds}s ({elapsed:.1f}s)"
    print(f"PASS {criterion} ({elapsed:.2f}s)")


def test_criterion_1_letter_grid(capsys):
    with budget("criterion 1: letter-named weight grid of (3,2) via CLI", 1.0):
        code = main(["weights", "3,2", "--naming", "letters"])
        out = capsys.readouterr().out
        cells = {}
        for line in out.splitlines():
            if line.startswith("("):
                cell, text = line.split(" ", 1)
                r, c = cell.strip("()").split(",")
                cells[(int(r), int(c))] = text
        assert code == 0
        assert cells == {
            (1, 1): "abcde+bcde+bce+cde+ce+de+c+e+1",
            (1, 2): "bce+ce+c+e+1",
            (1, 3): "c+1",
            (1, 4): "1",
            (2, 1): "de+e+1",
            (2, 2): "e+1",
            (2, 3): "1",
            (2, 4): "1",
            (3, 1): "1",
            (3, 2): "1",
            (3, 3): "1",
        }


def test_criterion_2_determinant():
    lam = Partition((3, 2))
    with budget("criterion 2: origin square determinant", 1.0):
        expected = Polynomial.from_monomial(
            Monomial(
                {
                    Cell(1, 1): 1,
                    Cell(1, 2): 1,
                    Cell(1, 3): 1,
                    Cell(2, 1): 1,
                    Cell(2, 2): 2,
                }
            )
        )
        assert determinant(square_matrix(lam, Cell(1, 1))) == expected


def test_criterion_3_both_algorithms_on_3_2():
    lam = Partition((3, 2))
    with budget("criterion 3: both reductions give (abcde, e, 1)", 1.0):
        expected = (poly(lam, "abcde"), poly(lam, "e"), Polynomial.one())
        by_rows = snf_recurrence(lam)
        by_peeling = snf_inductive(lam, 3, 3)
        for result in (by_rows, by_peeling):
            assert result.diagonal == expected
            assert is_upper_unitriangular(result.P)
            assert is_lower_unitriangular(result.Q)


def test_criterion_4_row_relation_instances():
    with budget("criterion 4: alternating row relations on both examples", 1.0):
        lam = Partition((3, 2))
        assert alternating_row_sum(lam, 1) == poly(lam, "abcde")
        assert alternating_row_sum(lam, 2) == 0
        assert alternating_row_sum(lam, 3) == 0
        big = Partition((5, 4, 1))
        assert alternating_row_sum(big, 1) == poly(big, "abcdefghij")
        assert alternating_row_sum(big, 2) == 0
        assert alternating_row_sum(big, 3) == 0


def test_criterion_5_choice_polynomials():
    with budget("criterion 5: choice polynomial anchors and counts", 120.0):
        def m(*cells):
            return Polynomial.from_monomial(from_cells(cells))

        six_terms = (
            Polynomial.one()
            + m(Cell(1, 3))
            + m(Cell(1, 2), Cell(1, 3))
            + m(Cell(1, 3), Cell(2, 4))
            + m(Cell(1, 2), Cell(1, 3), Cell(2, 4))
            + m(Cell(1, 2), Cell(1, 3), Cell(2, 3), Cell(2, 4))
        )
        for lam in (Partition((4, 4)), Partition((5, 4, 1)), Partition((6, 4, 2))):
            assert choice_poly(lam, 2) == six_terms
            # The fixed cells for index 2 are (1,4) .. (1,lam_1).
            fixed = m(*(Cell(1, b) for b in range(4, lam.parts[0] + 1)))
            assert row_coefficient(lam, 2) == six_terms * fixed
        for lam in all_partitions(12):
            for i in range(1, lam.rank + 1):
                assert len(choice_poly(lam, i)) == comb(lam.parts[i - 1], i)


def test_criterion_6_term_count_anchor():
    with budget("criterion 6: 34-term origin weight of (5,4,1)", 1.0):
        p = weight_polynomial(Partition((5, 4, 1)), Cell(1, 1))
        assert len(p) == 34
        for mono, coeff in p.items():
            assert coeff == 1
            assert all(e == 1 for _, e in mono.pairs)


def test_criterion_7_property_suite():
    with budget("criterion 7: exhaustive identity suite to size 12", 600.0):
        report = run_selftest(12)
        assert report.ok, report.failures[:10]
        assert report.counts["row-relations"] > 0
        assert report.counts["border-rectangles"] > 0


def test_criterion_8_q_catalan():
    with budget("criterion 8: q-analog values and staircase normal forms", 120.0):
        assert q_catalan(3) == q_poly((1, 2, 1, 1))
        for n in range(1, 9):
            diag = staircase_snf_diagonal(n)
            exponents = expected_snf_exponents(n)
            assert len(diag) == len(exponents)
            for entry, k in zip(diag, exponents):
                assert entry == q_power(k)
        oracle = catalan_numbers(10)
        for n in range(11):
            assert evaluate_at_ones(q_catalan(n)) == oracle[n]


def test_criterion_9_subpartition_count_oracles():
    with budget("criterion 9: enumeration vs boundary-walk counts to size 14", 120.0):
        for lam in all_partitions(14):
            assert sum(1 for _ in subpartitions(lam)) == boundary_walk_count(lam)
