import pytest

from partition_snf import (
    Cell,
    Partition,
    q_catalan_table,
    determinant,
    expected_snf_exponents,
    q_catalan,
    render_q,
    square_matrix,
    staircase,
    staircase_snf_diagonal,
)

from helpers import (
    catalan_numbers,
    evaluate_at_ones,
    q_poly,
    q_power,
    staircase_matrix,
)


class TestStaircase:
    def test_shapes(self):
        assert staircase(0) == Partition()
        assert staircase(1) == Partition()
        assert staircase(3) == Partition((2, 1))
        assert staircase(5) == Partition((4, 3, 2, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            staircase(-1)


class TestQCatalan:
    def test_anchor_value(self):
        assert q_catalan(3) == q_poly((1, 2, 1, 1))
        assert render_q(q_catalan(3)) == "1+2q+q^2+q^3"

    def test_trivial_values(self):
        assert q_catalan(0) == q_poly((1,))
        assert q_catalan(1) == q_poly((1,))
        assert q_catalan(2) == q_poly((1, 1))

    def test_table_starts_with_two_ones(self):
        table = q_catalan_table(5)
        assert len(table) == 6
        assert table[0] == q_poly((1,))
        assert table[1] == q_poly((1,))
        oracle = catalan_numbers(5)
        for n, entry in enumerate(table):
            assert evaluate_at_ones(entry) == oracle[n]

    def test_convolution_oracle_values(self):
        assert catalan_numbers(6) == [1, 1, 2, 5, 14, 42, 132]

    def test_evaluation_at_one_matches_catalan(self):
        oracle = catalan_numbers(10)
        for n in range(11):
            assert evaluate_at_ones(q_catalan(n)) == oracle[n]


class TestStaircaseMatrix:
    def test_n3_entries(self):
        M = staircase_matrix(3)
        assert (M.rows, M.cols) == (2, 2)
        grid = [
            [q_catalan(3), q_catalan(2)],
            [q_catalan(2), q_catalan(1)],
        ]
        for i in range(2):
            for j in range(2):
                assert M.entries[i][j] == grid[i][j]

    def test_n1(self):
        M = staircase_matrix(1)
        assert (M.rows, M.cols) == (1, 1)
        assert M.entries[0][0] == 1

    def test_n4_shape_and_corner(self):
        M = staircase_matrix(4)
        assert (M.rows, M.cols) == (3, 3)
        assert M.entries[0][0] == q_catalan(4)

    def test_matches_substituted_weight_square(self):
        for n in range(1, 7):
            lam = staircase(n)
            M = staircase_matrix(n)
            S = square_matrix(lam, Cell(1, 1))
            assert (M.rows, M.cols) == (S.rows, S.cols)
            for i in range(S.rows):
                for j in range(S.cols):
                    assert M.entries[i][j] == S.entries[i][j].substitute_uniform()

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            staircase_matrix(0)


class TestExpectedExponents:
    def test_examples(self):
        assert expected_snf_exponents(3) == (3, 0)
        assert expected_snf_exponents(4) == (6, 1, 0)
        assert expected_snf_exponents(1) == (0,)
        assert expected_snf_exponents(2) == (1, 0)
        assert expected_snf_exponents(7) == (21, 10, 3, 0)
        assert expected_snf_exponents(8) == (28, 15, 6, 1, 0)

    def test_sum_matches_determinant_degree(self):
        for n in range(1, 7):
            det = determinant(staircase_matrix(n))
            assert det == q_power(sum(expected_snf_exponents(n)))


class TestStaircaseNormalForm:
    def test_diagonals_are_pure_powers(self):
        for n in range(1, 7):
            diag = staircase_snf_diagonal(n)
            exponents = expected_snf_exponents(n)
            assert len(diag) == len(exponents)
            for entry, k in zip(diag, exponents):
                assert entry == q_power(k)
