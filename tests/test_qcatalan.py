import pytest

import partition_snf.polynomials as polynomials_module
import partition_snf.qcatalan as qcatalan_module
import partition_snf.snf as snf_module
from partition_snf import (
    Cell,
    Partition,
    TooLarge,
    VerificationFailed,
    all_partitions,
    q_catalan_table,
    determinant,
    expected_snf_exponents,
    q_catalan,
    render_q,
    snf_inductive,
    square_matrix,
    staircase,
    staircase_snf_diagonal,
    weight_at,
    weight_polynomial,
)
from partition_snf.polynomials import PackedLayout, _q_weight, _QLayout
from partition_snf.recurrence import _coefficient_keys, _q_coefficient_keys
from partition_snf.snf import _identity_grid

from helpers import (
    catalan_numbers,
    evaluate_at_ones,
    q_poly,
    q_power,
    staircase_matrix,
    substitute_uniform,
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
                    assert M.entries[i][j] == substitute_uniform(S.entries[i][j])

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


def collapsed(matrix):
    return tuple(tuple(map(substitute_uniform, row)) for row in matrix.entries)


class TestReductionInZq:
    """The q-weights and the reduction in Z[q] are the images of the
    multivariate ones with every variable sent to q."""

    def test_q_weight_is_the_collapsed_weight(self):
        layout = _QLayout()
        for lam in all_partitions(10):
            got = layout.decode(_q_weight(lam.parts))
            assert got == substitute_uniform(weight_at(lam, 1, 1)), lam

    def test_staircases_match_multivariate_then_collapse(self):
        for n in range(11):
            lam = staircase(n)
            assert q_catalan(n) == substitute_uniform(weight_polynomial(lam, Cell(1, 1)))
            if n:
                side = lam.rank + 1
                multivariate = snf_inductive(lam, side, side).diagonal
                assert staircase_snf_diagonal(n) == tuple(map(substitute_uniform, multivariate))

    def test_transforms_are_the_images_of_the_inductive_ones(self):
        for lam in all_partitions(9):
            side = lam.rank + 1
            multivariate = snf_inductive(lam, side, side)
            weights = snf_module._PackedWeights(lam, _QLayout())
            in_q = snf_module._decoded_result(
                weights.layout,
                *snf_module._certify_inductive(weights, lam, side, side),
                "inductive",
            )
            assert in_q.P.entries == collapsed(multivariate.P), lam
            assert in_q.Q.entries == collapsed(multivariate.Q), lam
            assert in_q.diagonal == tuple(map(substitute_uniform, multivariate.diagonal))

    def test_q_coefficients_are_the_collapsed_walk(self):
        q = _QLayout()
        for lam in all_partitions(12):
            layout = PackedLayout(lam.parts[0] if lam else 1)
            for conjugate in (False, True):
                walked = _coefficient_keys(layout, lam.parts, conjugate)
                closed = _q_coefficient_keys(lam.parts, conjugate)
                assert [q.decode(c) for c in closed] == [
                    substitute_uniform(layout.decode(c)) for c in walked
                ], (lam, conjugate)

    def test_both_reductions_agree_in_z_q(self):
        # The recurrence reads the closed-form coefficients, the peeling
        # replay the q-weights; both are certified in Z[q] and agree.
        for n in range(1, 21):
            lam = staircase(n)
            weights = snf_module._PackedWeights(lam, _QLayout())
            by_rows, by_peeling = snf_module._both(weights, lam)
            assert by_rows.agrees_with(by_peeling), n
            assert by_rows.P is by_peeling.P, n
            assert by_rows.diagonal == tuple(map(q_power, expected_snf_exponents(n))), n

    @pytest.mark.parametrize("field", ["P", "Q"])
    def test_a_tampered_transform_fails_certification(self, monkeypatch, field):
        reduce = snf_module._reduce_rectangle

        def tampered(weights, lam, d, e):
            U, VT = reduce(weights, lam, d, e)
            if field == "P":
                return _identity_grid(len(U)), VT
            return U, _identity_grid(len(VT))

        monkeypatch.setattr(snf_module, "_reduce_rectangle", tampered)
        with pytest.raises(VerificationFailed, match="^inductive: product differs"):
            staircase_snf_diagonal(5)

    @pytest.mark.parametrize("call", [q_catalan, q_catalan_table, staircase_snf_diagonal])
    @pytest.mark.parametrize("n", [363, 10**20])
    def test_refused_before_the_staircase_is_built(self, monkeypatch, call, n):
        # C(363, 2) = 65,703 is past the limit; the tuple of a staircase
        # that large, or the smaller staircases of a table, are never built.
        def uncalled(n):
            raise AssertionError("the staircase was built")

        monkeypatch.setattr(qcatalan_module, "staircase", uncalled)
        with pytest.raises(TooLarge, match="exceeds the limit 65535"):
            call(n)

    def test_q_weight_refuses_a_degree_past_the_limit_before_counting(self, monkeypatch):
        def uncalled(parts):
            raise AssertionError("the counting program ran")

        monkeypatch.setattr(polynomials_module, "_complement_areas", uncalled)
        with pytest.raises(TooLarge, match="65536 exceeds the limit 65535"):
            _q_weight((65536,))
        with pytest.raises(TooLarge):
            _q_weight((40000, 30000))
        with pytest.raises(AssertionError):
            _q_weight((2, 1))
