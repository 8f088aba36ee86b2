from math import comb

import pytest

import partition_snf.recurrence as recurrence_module
import partition_snf.snf as snf_module
from partition_snf import (
    Cell,
    IndexOutOfRange,
    Partition,
    Polynomial,
    TooLarge,
    all_partitions,
    alternating_row_sum,
    leading_monomial,
    row_coefficient,
    row_coefficients,
    weight_at,
)

from helpers import choice_poly, from_cells, poly

LAM = Partition((3, 2))
BIG = Partition((5, 4, 1))


def cells_poly(*cells) -> Polynomial:
    return Polynomial.from_monomial(from_cells(cells))


def grid_cells(lam: Partition, i: int) -> set[Cell]:
    """The cells of the grid for index ``i``: those of the top-degree term
    of the choice polynomial, the sub-array that takes every grid cell."""
    top = max((mono for mono, _ in choice_poly(lam, i).items()), key=lambda m: m.degree)
    return {cell for cell, _ in top.pairs}


def fixed_monomial(lam: Partition, i: int) -> Polynomial:
    """The product over the fixed cells for index ``i``, written from the
    paper's inequality: all (a, b) with lam_i - i + a < b <= lam_a."""
    return cells_poly(
        *(
            Cell(a, b)
            for a in range(1, i + 1)
            for b in range(lam.part(i) - i + a + 1, lam.part(a) + 1)
        )
    )


class TestChoiceGrid:
    def test_two_row_grid(self):
        # Any partition with second part 4 produces the same grid.
        assert grid_cells(Partition((4, 4)), 2) == {
            Cell(1, 2), Cell(1, 3),
            Cell(2, 3), Cell(2, 4),
        }

    def test_no_columns_on_square_diagonal(self):
        # An empty grid has only the empty sub-array.
        assert choice_poly(LAM, 2) == 1

    def test_single_row(self):
        assert grid_cells(LAM, 1) == {Cell(1, 2), Cell(1, 3)}

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            choice_poly(LAM, -1)
        with pytest.raises(IndexOutOfRange):
            choice_poly(LAM, 3)


class TestChoicePoly:
    def test_displayed_six_terms(self):
        # lam_2 = 4: six sub-arrays, one per weakly decreasing length pair.
        def m(*cells):
            return Polynomial.from_monomial(from_cells(cells))

        expected = (
            Polynomial.one()
            + m(Cell(1, 3))
            + m(Cell(1, 2), Cell(1, 3))
            + m(Cell(1, 3), Cell(2, 4))
            + m(Cell(1, 2), Cell(1, 3), Cell(2, 4))
            + m(Cell(1, 2), Cell(1, 3), Cell(2, 3), Cell(2, 4))
        )
        for lam in (Partition((4, 4)), BIG):
            assert choice_poly(lam, 2) == expected

    def test_index_zero(self):
        assert choice_poly(LAM, 0) == 1

    def test_single_row_3_2(self):
        assert choice_poly(LAM, 1) == poly(LAM, "1+c+bc")

    def test_term_counts_exhaustive(self):
        for lam in all_partitions(12):
            for i in range(1, lam.rank + 1):
                assert len(choice_poly(lam, i)) == comb(lam.parts[i - 1], i)


class TestFixedCells:
    """The coefficient is the choice polynomial times the fixed cells."""

    def test_3_2(self):
        fixed = cells_poly(Cell(1, 2), Cell(1, 3))
        assert fixed_monomial(LAM, 2) == fixed
        assert row_coefficient(LAM, 2) == choice_poly(LAM, 2) * fixed

    def test_index_one_always_empty(self):
        for lam in all_partitions(8):
            if lam.rank >= 1:
                assert fixed_monomial(lam, 1) == 1
                assert row_coefficient(lam, 1) == choice_poly(lam, 1)

    def test_5_4_1(self):
        # The grid for index 2 already covers (2,4); only the tail of row 1
        # lies strictly to its right.
        fixed = cells_poly(Cell(1, 4), Cell(1, 5))
        assert fixed_monomial(BIG, 2) == fixed
        assert row_coefficient(BIG, 2) == choice_poly(BIG, 2) * fixed

    def test_square_partition_takes_strict_upper_triangle(self):
        for lam in (Partition((2, 2)), Partition((3, 3, 3))):
            rho = lam.rank
            assert choice_poly(lam, rho) == 1
            expected = cells_poly(
                *(
                    Cell(a, b)
                    for a in range(1, rho + 1)
                    for b in range(a + 1, lam.part(a) + 1)
                )
            )
            assert fixed_monomial(lam, rho) == expected
            assert row_coefficient(lam, rho) == expected

    def test_choice_times_fixed_exhaustive(self):
        for lam in all_partitions(10):
            for i in range(lam.rank + 1):
                assert row_coefficient(lam, i) == (
                    choice_poly(lam, i) * fixed_monomial(lam, i)
                ), (lam, i)


class TestRowCoefficient:
    def test_3_2_family(self):
        assert row_coefficient(LAM, 0) == 1
        assert row_coefficient(LAM, 1) == poly(LAM, "1+c+bc")
        assert row_coefficient(LAM, 2) == poly(LAM, "bc")

    def test_5_4_1_family(self):
        assert row_coefficient(BIG, 1) == poly(BIG, "1+e+de+cde+bcde")
        assert row_coefficient(BIG, 2) == poly(BIG, "de") * poly(
            BIG, "1+c+bc+ci+bci+bchi"
        )

    def test_family_bundle(self):
        fam = row_coefficients(BIG)
        assert isinstance(fam, tuple)
        assert len(fam) == BIG.rank + 1
        assert fam[0] == 1
        for i in range(BIG.rank + 1):
            assert fam[i] == row_coefficient(BIG, i)

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            row_coefficient(LAM, 3)
        with pytest.raises(IndexOutOfRange):
            row_coefficient(LAM, -1)


class TestPackedWalk:
    """The packed walk is the one enumeration of the row coefficients;
    the reductions and the self-test read it from their weight set."""

    def test_decodes_to_the_cell_by_cell_oracle(self):
        for lam in all_partitions(12):
            weights = snf_module._weights(lam)
            decode = weights.layout.decode
            mu = lam.conjugate()
            rows = weights.coefficients(lam.parts)
            # The conjugate's coefficients, packed with variables transposed.
            columns = weights.coefficients(lam.parts, True)
            assert len(rows) == len(columns) == lam.rank + 1
            for i, (row, column) in enumerate(zip(rows, columns)):
                sign = (-1) ** i
                assert decode(row) == sign * choice_poly(lam, i) * fixed_monomial(lam, i), (lam, i)
                oracle = choice_poly(mu, i) * fixed_monomial(mu, i)
                assert decode(column) == sign * oracle.transpose_variables(), (lam, i)

    def test_weight_set_walks_each_shape_once(self, monkeypatch):
        walk = recurrence_module._walk
        calls = []

        def counted(layout, parts, i, sign=1, transposed=False):
            calls.append((parts, i, transposed))
            return walk(layout, parts, i, sign, transposed)

        monkeypatch.setattr(recurrence_module, "_walk", counted)
        weights = snf_module._weights(BIG)
        for _ in range(2):
            assert weights.coefficients(BIG.parts) is weights.coefficients(BIG.parts)
            weights.coefficients(BIG.parts, True)
        assert len(calls) == len(set(calls)) == 2 * (BIG.rank + 1)

    def test_refused_past_the_limit_before_enumerating(self, monkeypatch):
        # C(70000, 2) sub-arrays would never finish; the top degree
        # 69999 + 69998 is checked first.
        def uncalled(*args):
            raise AssertionError("the sub-arrays were enumerated")

        monkeypatch.setattr(recurrence_module, "combinations_with_replacement", uncalled)
        for parts, i in (((70000,), 1), ((70000, 70000), 2), ((40000, 30000), 2)):
            with pytest.raises(TooLarge, match="exceeds the limit 65535"):
                row_coefficient(Partition(parts), i)
        with pytest.raises(TooLarge):
            row_coefficients(Partition((70000,)))
        # Index 1 alone is under the limit, with 40,000 terms: the top
        # degree of index 2, or |lam| for the weight set, is checked first.
        with pytest.raises(TooLarge, match="exceeds the limit 65535"):
            row_coefficients(Partition((40000, 30000)))
        with pytest.raises(TooLarge, match="degree 70000 exceeds the limit 65535"):
            alternating_row_sum(Partition((40000, 30000)), 1)
        assert row_coefficient(Partition((70000,)), 0) == 1
        with pytest.raises(AssertionError):
            row_coefficient(LAM, 1)

    def test_index_outside_the_rank(self):
        for lam, i in ((Partition(), 1), (LAM, 3), (BIG, -1), (Partition((70000,)), 2)):
            with pytest.raises(IndexOutOfRange):
                row_coefficient(lam, i)


class TestAlternatingRowSum:
    def test_3_2(self):
        assert alternating_row_sum(LAM, 1) == poly(LAM, "abcde")
        assert alternating_row_sum(LAM, 2) == 0
        assert alternating_row_sum(LAM, 3) == 0

    def test_5_4_1(self):
        assert alternating_row_sum(BIG, 1) == poly(BIG, "abcdefghij")
        assert alternating_row_sum(BIG, 2) == 0
        assert alternating_row_sum(BIG, 3) == 0

    def test_empty_partition(self):
        assert alternating_row_sum(Partition(), 1) == 1

    def test_column_validation(self):
        with pytest.raises(IndexOutOfRange):
            alternating_row_sum(LAM, 4)
        with pytest.raises(IndexOutOfRange):
            alternating_row_sum(LAM, 0)

    def test_exhaustive_small(self):
        for lam in all_partitions(9):
            top = leading_monomial(lam, Cell(1, 1))
            for j in range(1, lam.rank + 2):
                expected = top if j == 1 else Polynomial.zero()
                assert alternating_row_sum(lam, j) == expected, (lam, j)


class TestStructuralInvariants:
    def test_coefficient_rows_below_weight_rows(self):
        # Coefficient i only uses variables in rows 1..i while the weight
        # at (i+1, j) lives in rows >= i+1, so their product is multilinear.
        for lam in all_partitions(9):
            for j in range(1, lam.rank + 2):
                for i in range(lam.rank + 1):
                    coeff = row_coefficient(lam, i)
                    for mono in dict(coeff.items()):
                        assert all(cell.row <= i for cell, _ in mono.pairs)
                    weight = weight_at(lam, i + 1, j)
                    for mono in dict(weight.items()):
                        assert all(cell.row >= i + 1 for cell, _ in mono.pairs)
                    product = coeff * weight
                    for mono, c in product.items():
                        assert c == 1
                        assert all(e == 1 for _, e in mono.pairs)
