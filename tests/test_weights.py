import pytest

from partition_snf import (
    Cell,
    CellOutOfRange,
    DimensionMismatch,
    InvalidRectangle,
    Partition,
    PolyMatrix,
    Polynomial,
    all_partitions,
    leading_monomial,
    letter_naming,
    render,
    rect_weight_matrix,
    square_matrix,
    weight_at,
    weight_polynomial,
)

from helpers import (
    difference,
    direct_weight,
    evaluate_at_ones,
    extended_cells,
    identity,
    poly,
    subpartitions,
)

LAM = Partition((3, 2))
BIG = Partition((5, 4, 1))

LETTER_GRID_3_2 = {
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


class TestWeightPolynomial:
    def test_full_grid_3_2(self):
        naming = letter_naming(LAM.cells())
        for (r, c), expected in LETTER_GRID_3_2.items():
            assert render(weight_polynomial(LAM, Cell(r, c)), naming) == expected

    def test_border_is_one(self):
        for cell in LAM.extended.border:
            assert weight_polynomial(LAM, cell) == 1

    def test_out_of_range(self):
        with pytest.raises(CellOutOfRange):
            weight_polynomial(LAM, Cell(4, 4))

    def test_term_count_5_4_1(self):
        p = weight_polynomial(BIG, Cell(1, 1))
        assert len(p) == 34
        assert evaluate_at_ones(p) == 34

    def test_unit_coefficients_and_multilinear(self):
        for lam in (LAM, BIG, Partition((2, 2, 2))):
            for cell in lam.cells():
                p = weight_polynomial(lam, cell)
                for mono, coeff in p.items():
                    assert coeff == 1
                    assert all(e == 1 for _, e in mono.pairs)

    def test_at_ones_counts_subpartitions(self):
        for lam in (LAM, BIG):
            for cell in sorted(extended_cells(lam.extended)):
                expected = sum(1 for _ in subpartitions(Partition(lam._shape_at(cell))))
                assert evaluate_at_ones(weight_polynomial(lam, cell)) == expected

    def test_cached_matches_direct(self):
        for lam in (LAM, BIG, Partition((4, 3, 3, 1))):
            for cell in sorted(extended_cells(lam.extended)):
                assert weight_polynomial(lam, cell) == direct_weight(lam, cell)

    def test_long_column_enumerates_iteratively(self):
        column = Partition((1,) * 1200)
        weight = weight_at(column, 1, 1)
        assert len(weight) == 1201
        assert evaluate_at_ones(weight) == 1201
        assert weight.degree == 1200

    def test_weight_at_extends_past_diagram(self):
        assert weight_at(LAM, 1, 5) == 1
        assert weight_at(LAM, 9, 1) == 1
        assert weight_at(LAM, 2, 2) == poly(LAM, "e+1")


class TestLeadingMonomial:
    def test_examples(self):
        naming = letter_naming(LAM.cells())
        assert render(leading_monomial(LAM, Cell(1, 1)), naming) == "abcde"
        assert render(leading_monomial(LAM, Cell(2, 1)), naming) == "de"
        assert render(leading_monomial(LAM, Cell(1, 2)), naming) == "bce"
        assert leading_monomial(LAM, Cell(3, 1)) == 1

    def test_unique_top_degree_term(self):
        for lam in (LAM, BIG):
            for cell in lam.cells():
                p = weight_polynomial(lam, cell)
                lead = leading_monomial(lam, cell)
                ((mono, coeff),) = lead.items()
                assert coeff == 1
                assert dict(p.items())[mono] == 1
                top = [m for m, _ in p.items() if m.degree == p.degree]
                assert top == [mono]
                assert mono.degree == sum(lam._shape_at(cell))


class TestSquareMatrix:
    def test_origin_square_3_2(self):
        M = square_matrix(LAM, Cell(1, 1))
        assert (M.rows, M.cols) == (3, 3)
        assert M.origin == Cell(1, 1)
        naming = letter_naming(LAM.cells())
        rendered = [[render(e, naming) for e in row] for row in M.entries]
        assert rendered == [
            ["abcde+bcde+bce+cde+ce+de+c+e+1", "bce+ce+c+e+1", "c+1"],
            ["de+e+1", "e+1", "1"],
            ["1", "1", "1"],
        ]

    def test_empty_partition(self):
        M = square_matrix(Partition(), Cell(1, 1))
        assert (M.rows, M.cols) == (1, 1)
        assert M.entries[0][0] == 1

    def test_interior_anchor(self):
        M = square_matrix(LAM, Cell(2, 2))
        assert (M.rows, M.cols) == (2, 2)
        assert M.entries == (
            (poly(LAM, "e+1"), Polynomial.one()),
            (Polynomial.one(), Polynomial.one()),
        )

    def test_side_matches_rank_everywhere(self):
        for lam in all_partitions(8):
            for cell in sorted(extended_cells(lam.extended)):
                M = square_matrix(lam, cell)
                assert M.rows == Partition(lam._shape_at(cell)).rank + 1

    def test_out_of_range(self):
        with pytest.raises(CellOutOfRange):
            square_matrix(LAM, Cell(1, 5))


class TestRectMatrix:
    def test_durfee_frame_equals_square(self):
        assert rect_weight_matrix(LAM, 3, 3).entries == square_matrix(LAM, Cell(1, 1)).entries

    def test_single_row(self):
        W = rect_weight_matrix(LAM, 1, 4)
        naming = letter_naming(LAM.cells())
        assert [render(e, naming) for e in W.entries[0]] == [
            "abcde+bcde+bce+cde+ce+de+c+e+1",
            "bce+ce+c+e+1",
            "c+1",
            "1",
        ]

    def test_two_by_three(self):
        W = rect_weight_matrix(LAM, 2, 3)
        square = square_matrix(LAM, Cell(1, 1))
        assert W.entries == tuple(row[:3] for row in square.entries[:2])

    def test_corner_must_be_on_border(self):
        with pytest.raises(InvalidRectangle):
            rect_weight_matrix(LAM, 2, 2)
        with pytest.raises(InvalidRectangle):
            rect_weight_matrix(LAM, 0, 3)


class TestPolyMatrix:
    def test_identity_product(self):
        W = square_matrix(LAM, Cell(1, 1))
        I = identity(3)
        assert (I @ W).entries == W.entries
        assert (W @ I).entries == W.entries

    def test_matmul_shape_check(self):
        with pytest.raises(DimensionMismatch):
            identity(2) @ identity(3)

    def test_subtraction_and_zero(self):
        W = square_matrix(LAM, Cell(1, 1))
        assert not any(map(any, difference(W, W).entries))
        assert any(map(any, difference(W, identity(3)).entries))

    def test_json_round_trip(self):
        W = square_matrix(LAM, Cell(2, 2))
        again = PolyMatrix.from_json(W.to_json())
        assert again == W

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            PolyMatrix(((1, 2), (3,)))

    def test_int_coercion(self):
        M = PolyMatrix(((1, 0), (0, 1)))
        assert M.entries[0][0] == Polynomial.one()

    def test_entries_track_origin_cells(self):
        M = square_matrix(LAM, Cell(2, 2))
        assert M.origin == Cell(2, 2)
        assert M.entries[0][0] == weight_polynomial(LAM, Cell(2, 2))
        assert M.entries[1][1] == weight_polynomial(LAM, Cell(3, 3))
