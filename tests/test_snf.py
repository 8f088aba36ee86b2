import dataclasses
import hashlib
import inspect
import json
import random
import sys
import types
from math import prod

import pytest

import partition_snf
import partition_snf.checks as checks_module
import partition_snf.snf as snf_module
from partition_snf import (
    Cell,
    DimensionMismatch,
    InvalidRectangle,
    Monomial,
    NotSquare,
    Partition,
    PolyMatrix,
    Polynomial,
    SnfResult,
    TooLarge,
    VerificationFailed,
    all_partitions,
    determinant,
    leading_monomial,
    rect_weight_matrix,
    run_selftest,
    snf_both,
    snf_inductive,
    snf_recurrence,
    square_matrix,
    verify_snf,
)
from partition_snf.polynomials import (
    PACKED_MINUS_ONE,
    PACKED_ONE,
    PackedLayout,
    _QLayout,
)

from helpers import (
    accept_every_certification,
    box_partitions,
    cofactor_determinant,
    difference,
    from_cells,
    identity,
    is_lower_unitriangular,
    is_upper_unitriangular,
    naive_matrix_product,
    poly,
    ref_reduce_rectangle,
    staircase_matrix,
    tamper_inductive,
)

LAM = Partition((3, 2))


def mono(*cells):
    return Polynomial.from_monomial(from_cells(cells))


class TestPackedConstants:
    def test_equal_the_encoded_constants(self):
        for width in (1, 7, 300):
            layout = PackedLayout(width)
            assert layout.encode(Polynomial.one()) == PACKED_ONE
            assert layout.encode(-Polynomial.one()) == PACKED_MINUS_ONE

    def test_unchanged_by_reductions(self):
        # The reductions share the two dicts across their grids.
        for lam in (LAM, Partition((2, 2)), Partition((263,))):
            n = lam.rank + 1
            snf_recurrence(lam)
            snf_inductive(lam, n, n)
            assert PACKED_ONE == {0: 1}
            assert PACKED_MINUS_ONE == {0: -1}


class TestRecurrenceAlgorithm:
    def test_3_2(self):
        result = snf_recurrence(LAM)
        assert result.diagonal == (poly(LAM, "abcde"), poly(LAM, "e"), Polynomial.one())
        assert is_upper_unitriangular(result.P)
        assert is_lower_unitriangular(result.Q)
        assert result.algorithm == "recurrence"
        ok, residual = verify_snf(square_matrix(LAM, Cell(1, 1)), result)
        assert ok and residual is None

    def test_empty_partition(self):
        result = snf_recurrence(Partition())
        assert result.diagonal == (Polynomial.one(),)
        assert result.P.entries == ((Polynomial.one(),),)
        assert result.Q.entries == ((Polynomial.one(),),)

    def test_square_2_2(self):
        result = snf_recurrence(Partition((2, 2)))
        assert result.diagonal == (
            mono(Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(2, 2)),
            mono(Cell(2, 2)),
            Polynomial.one(),
        )

    def test_single_cell(self):
        result = snf_recurrence(Partition((1,)))
        assert result.diagonal == (mono(Cell(1, 1)), Polynomial.one())

    def test_product_is_diagonal(self):
        for lam in (LAM, Partition((4, 2, 1)), Partition((3, 3, 3))):
            result = snf_recurrence(lam)
            D = (result.P @ square_matrix(lam, Cell(1, 1)) @ result.Q).entries
            n = lam.rank + 1
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert D[i][j].is_zero


class TestInductiveAlgorithm:
    def test_durfee_square_matches(self):
        result = snf_inductive(LAM, 3, 3)
        assert result.diagonal == snf_recurrence(LAM).diagonal
        assert result.algorithm == "inductive"

    def test_empty_partition(self):
        result = snf_inductive(Partition(), 1, 1)
        assert result.diagonal == (Polynomial.one(),)

    def test_rectangle_case_2_2(self):
        # Frame the full 2x2 partition: the reduction must pass through the
        # corner-free branch.
        result = snf_inductive(Partition((2, 2)), 3, 3)
        assert result.diagonal == (
            mono(Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(2, 2)),
            mono(Cell(2, 2)),
            Polynomial.one(),
        )

    def test_wide_rectangle_3_2(self):
        result = snf_inductive(LAM, 2, 3)
        assert result.diagonal == (poly(LAM, "bce"), Polynomial.one())

    def test_single_row_rectangle(self):
        result = snf_inductive(LAM, 1, 4)
        assert result.diagonal == (Polynomial.one(),)
        assert is_lower_unitriangular(result.Q)

    def test_tall_rejected(self):
        with pytest.raises(InvalidRectangle):
            snf_inductive(LAM, 3, 2)

    def test_corner_off_border_rejected(self):
        with pytest.raises(InvalidRectangle):
            snf_inductive(LAM, 2, 2)
        with pytest.raises(InvalidRectangle):
            snf_inductive(LAM, 0, 1)

    def test_every_border_rectangle_verifies(self):
        for lam in all_partitions(8):
            for corner in sorted(lam.extended.border):
                d, e = corner
                if d > e:
                    continue
                result = snf_inductive(lam, d, e)
                ok, residual = verify_snf(rect_weight_matrix(lam, d, e), result)
                assert ok, (lam, corner, residual)

    def test_update_reads_weights_past_the_extension(self):
        # Reducing the 3x3 frame of (4,2) must peel the top-row corner
        # (removing the bottom one shrinks the frame's third row), so the
        # cross-term weights sit one column past the smaller partition's
        # extension, where the empty sub-diagram contributes 1.
        lam = Partition((4, 2))
        result = snf_inductive(lam, 3, 3)
        ok, residual = verify_snf(rect_weight_matrix(lam, 3, 3), result)
        assert ok, residual


    def test_transforms_pinned_byte_for_byte(self):
        # The serialized P, Q and diagonal of every recurrence result and
        # every border rectangle up to size 8, non-square ones included,
        # as produced before the peeling was planned and replayed.
        digest = hashlib.sha256()
        rectangles = 0
        for lam in all_partitions(8):
            r = snf_recurrence(lam)
            digest.update(json.dumps(r.to_json(), sort_keys=True).encode())
            for d, e in sorted(lam.extended.border):
                if d <= e:
                    r = snf_inductive(lam, d, e)
                    digest.update(json.dumps(r.to_json(), sort_keys=True).encode())
                    rectangles += 1
        assert rectangles == 284
        assert digest.hexdigest() == (
            "9695d4e396391832304e5fd2254912e40b077424ebaea5ea2fcd0c6cdc62cbb8"
        )

    def test_long_peels_need_no_stack_depth(self):
        # Peeling 250 cells one at a time must not use one frame per cell.
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(len(inspect.stack()) + 100)
            for lam in (Partition((250,)), Partition((1,) * 250)):
                result = snf_inductive(lam, 2, 2)
                assert result.diagonal == (
                    leading_monomial(lam, Cell(1, 1)),
                    leading_monomial(lam, Cell(2, 2)),
                )
        finally:
            sys.setrecursionlimit(limit)


def wide_border_rectangles(lam: Partition) -> list[tuple[int, int]]:
    return [(d, e) for d, e in sorted(lam.extended.border) if d <= e]


def decoded(layout, grid):
    """A packed grid decoded into a grid of polynomials."""
    return [[layout.decode(entry) for entry in row] for row in grid]


def decoded_replay(lam: Partition, d: int, e: int):
    """(U, VT) of the packed replay, decoded into polynomial grids."""
    weights = snf_module._weights(lam)
    grids = snf_module._reduce_rectangle(weights, lam, d, e)
    return tuple(decoded(weights.layout, grid) for grid in grids)


class TestPackedReplay:
    """The packed replay gives exactly the transforms of the replay on
    ``Polynomial`` grids."""

    def test_matches_polynomial_replay_up_to_size_9(self):
        for lam in all_partitions(9):
            for d, e in wide_border_rectangles(lam):
                got = decoded_replay(lam, d, e)
                assert got == ref_reduce_rectangle(lam, d, e), (lam, d, e)

    @pytest.mark.parametrize(
        "parts, every",
        # Every 15th rectangle of the long row, from 1x151 to 2x151: the
        # wide ones replay on 151x151 column transforms.
        [((150,), 15), ((1,) * 150, 1), ((40, 1, 1), 1), ((3,) * 12, 1)],
    )
    def test_matches_polynomial_replay_on_long_shapes(self, parts, every):
        lam = Partition(parts)
        for d, e in wide_border_rectangles(lam)[::every]:
            got = decoded_replay(lam, d, e)
            assert got == ref_reduce_rectangle(lam, d, e), (d, e)


def decoded_weight_grid(lam: Partition, d: int, e: int):
    weights = snf_module._weights(lam)
    return tuple(map(tuple, decoded(weights.layout, weights.grid(d, e))))


class TestPackedWeightGrid:
    """The packed weight grid the reductions certify against is the weight
    matrix, entry for entry."""

    def test_matches_weight_matrices_up_to_size_9(self):
        for lam in all_partitions(9):
            for d, e in wide_border_rectangles(lam):
                assert decoded_weight_grid(lam, d, e) == rect_weight_matrix(lam, d, e).entries
            side = lam.rank + 1
            square = square_matrix(lam, Cell(1, 1)).entries
            assert decoded_weight_grid(lam, side, side) == square, lam

    @pytest.mark.parametrize("parts, every", [((150,), 15), ((1,) * 150, 1), ((40, 1, 1), 1)])
    def test_matches_weight_matrices_on_long_shapes(self, parts, every):
        lam = Partition(parts)
        for d, e in wide_border_rectangles(lam)[::every]:
            assert decoded_weight_grid(lam, d, e) == rect_weight_matrix(lam, d, e).entries
        side = lam.rank + 1
        assert decoded_weight_grid(lam, side, side) == square_matrix(lam, Cell(1, 1)).entries


class TestCrossAlgorithm:
    def test_transforms_agree_exhaustively(self):
        # The origin square's P and Q are unique (LDU uniqueness), so the
        # two algorithms must agree entry for entry, not only on D.
        for lam in all_partitions(10):
            side = lam.rank + 1
            by_rows = snf_recurrence(lam)
            by_peeling = snf_inductive(lam, side, side)
            assert by_rows.P == by_peeling.P, lam
            assert by_rows.Q == by_peeling.Q, lam

    def test_diagonals_agree_exhaustively(self):
        for lam in all_partitions(9):
            side = lam.rank + 1
            assert (
                snf_recurrence(lam).diagonal == snf_inductive(lam, side, side).diagonal
            ), lam

    def test_diagonals_agree_on_random_larger_partitions(self):
        rng = random.Random(2468)
        for _ in range(50):
            remaining = rng.randint(1, 20)
            cap = remaining
            parts = []
            while remaining:
                p = rng.randint(1, min(cap, remaining))
                parts.append(p)
                cap = p
                remaining -= p
            lam = Partition(tuple(parts))
            side = lam.rank + 1
            assert (
                snf_recurrence(lam).diagonal == snf_inductive(lam, side, side).diagonal
            ), lam

    def test_diagonal_entries_are_leading_monomials(self):
        for lam in all_partitions(8):
            result = snf_recurrence(lam)
            for k, entry in enumerate(result.diagonal, start=1):
                assert entry == leading_monomial(lam, Cell(k, k))


class TestVerify:
    def test_identity_transforms_leave_off_diagonal_residual(self):
        W = square_matrix(LAM, Cell(1, 1))
        naive = dataclasses.replace(
            snf_recurrence(LAM),
            P=identity(3),
            Q=identity(3),
            diagonal=tuple(W.entries[i][i] for i in range(3)),
        )
        ok, residual = verify_snf(W, naive)
        assert not ok
        for i in range(3):
            assert residual.entries[i][i].is_zero
        assert residual.entries[0][1] == W.entries[0][1]

    def test_tampered_diagonal_detected(self):
        W = square_matrix(LAM, Cell(1, 1))
        good = snf_recurrence(LAM)
        bad = dataclasses.replace(
            good, diagonal=(good.diagonal[0], poly(LAM, "d"), good.diagonal[2])
        )
        ok, residual = verify_snf(W, bad)
        assert not ok
        assert residual is not None

    def test_lower_entry_in_row_transform_gives_residual(self):
        W = square_matrix(LAM, Cell(1, 1))
        good = snf_recurrence(LAM)
        rows = [list(row) for row in good.P.entries]
        rows[1][0] = Polynomial.one()
        ok, residual = verify_snf(W, dataclasses.replace(good, P=PolyMatrix.from_rows(rows)))
        assert not ok
        assert isinstance(residual, PolyMatrix)
        assert not residual.is_zero()

    def test_layout_is_sized_over_the_diagonal(self):
        # x[1,9] is wider than every entry of P, W and Q, so a layout sized
        # over those alone could not encode it.
        W = square_matrix(LAM, Cell(1, 1))
        good = snf_recurrence(LAM)
        wide = Polynomial.variable((1, 9))
        bad = dataclasses.replace(good, diagonal=(good.diagonal[0], wide, good.diagonal[2]))
        ok, residual = verify_snf(W, bad)
        assert not ok
        assert residual.entries[1][1] == Polynomial.variable((2, 2)) - wide

    def test_dimension_mismatch(self):
        W = square_matrix(LAM, Cell(1, 1))
        result = snf_recurrence(Partition((1,)))
        with pytest.raises(DimensionMismatch):
            verify_snf(W, result)

    def test_transform_determinants_are_one(self):
        for lam in (LAM, Partition((2, 2)), Partition((4, 3, 1))):
            result = snf_recurrence(lam)
            assert determinant(result.P) == 1
            assert determinant(result.Q) == 1


def packed_factors(lam: Partition, P, W, Q):
    """``lam``'s layout and the packed P, W and Q transposed, as the
    reductions hand them to ``_certify``."""
    layout = snf_module._weights(lam).layout

    def packed(rows):
        return [[layout.encode(p) for p in row] for row in rows]

    return layout, packed(P.entries), packed(W.entries), packed(zip(*Q.entries))


class TestCertify:
    def test_structural_failure_carries_residual(self):
        # The product matches, so only the transform shape is wrong; the
        # residual is still attached, as an all-zero matrix.
        layout = snf_module._weights(Partition()).layout
        minus_one = [[layout.encode(-Polynomial.one())]]
        one = [[layout.encode(Polynomial.one())]]
        with pytest.raises(VerificationFailed, match="not upper unitriangular") as info:
            snf_module._certify(layout, minus_one, one, minus_one, one[0], "test")
        assert isinstance(info.value.residual, PolyMatrix)
        assert info.value.residual.is_zero()

    def test_product_failure_carries_residual(self):
        W = square_matrix(LAM, Cell(1, 1))
        good = snf_recurrence(LAM)
        layout, *factors = packed_factors(LAM, good.P, W, good.Q)
        diagonal = (good.diagonal[0], poly(LAM, "d"), good.diagonal[2])
        with pytest.raises(VerificationFailed, match="differs") as info:
            snf_module._certify(layout, *factors, list(map(layout.encode, diagonal)), "test")
        assert info.value.residual.entries[1][1] == poly(LAM, "e-d")

    @pytest.mark.parametrize("d, e", [(3, 3), (2, 3)])
    @pytest.mark.parametrize("factor, i, j", [(0, 0, 1), (1, 1, 0), (2, 0, 1)])
    def test_tampered_factor_gives_exact_residual(self, d, e, factor, i, j):
        # One entry of P, W or Q transposed gains a term off the diagonal
        # of its transform; the residual is the product of the decoded
        # factors minus the expected form.
        good = snf_inductive(LAM, d, e)
        layout, *factors = packed_factors(LAM, good.P, rect_weight_matrix(LAM, d, e), good.Q)
        tampered = layout.decode(factors[factor][i][j]) + Polynomial.variable((2, 2))
        factors[factor][i][j] = layout.encode(tampered)
        with pytest.raises(VerificationFailed, match="differs") as info:
            snf_module._certify(layout, *factors, list(map(layout.encode, good.diagonal)), "test")
        P, W, QT = (decoded(layout, grid) for grid in factors)
        product = naive_matrix_product(naive_matrix_product(P, W), tuple(zip(*QT)))
        expected = PolyMatrix.from_rows(
            [good.diagonal[i] if j == e - d + i else 0 for j in range(e)]
            for i in range(d)
        )
        assert info.value.residual == difference(PolyMatrix(product), expected)

    def test_selftest_reports_failed_certification(self, monkeypatch):
        monkeypatch.setattr(
            snf_module, "_leading_keys", lambda layout, lam, d, e: [0] * d
        )
        report = run_selftest(3)
        assert not report.ok
        assert any(f.startswith("snf-agreement: ") for f in report.failures)


class TestAgreement:
    @pytest.mark.parametrize("field", ["P", "Q"])
    def test_selftest_compares_whole_transforms(self, monkeypatch, field):
        # Equal diagonals are not enough: an inductive transform replaced
        # by the identity fails its own certification, and once past
        # certification it must be reported as disagreement.
        tamper_inductive(monkeypatch, field)
        report = run_selftest(3)
        assert any(
            f.startswith("snf-agreement: ") and ": inductive: " in f
            for f in report.failures
        )
        assert not any(f.startswith("diagonal-monomials") for f in report.failures)
        accept_every_certification(monkeypatch)
        report = run_selftest(3)
        assert any(f.startswith("snf-agreement: ") for f in report.failures)
        assert not any(f.startswith("diagonal-monomials") for f in report.failures)


class TestBoth:
    def test_equals_the_separate_reductions(self):
        for lam in all_partitions(9):
            side = lam.rank + 1
            separate = (snf_recurrence(lam), snf_inductive(lam, side, side))
            for got, want in zip(snf_both(lam), separate):
                for field in dataclasses.fields(SnfResult):
                    assert getattr(got, field.name) == getattr(want, field.name), lam
                assert json.dumps(got.to_json()) == json.dumps(want.to_json()), lam

    def test_agreeing_transforms_are_certified_once(self, monkeypatch):
        certify, packed_weights = snf_module._certify, snf_module._PackedWeights
        calls = []

        def spy(*args):
            calls.append(args[-1])
            certify(*args)

        class CountedWeights(packed_weights):
            def __init__(self, *args):
                calls.append("weights")
                super().__init__(*args)

        monkeypatch.setattr(snf_module, "_certify", spy)
        monkeypatch.setattr(snf_module, "_PackedWeights", CountedWeights)
        for lam in (Partition(), LAM, Partition((4, 3, 1)), Partition((263,))):
            calls.clear()
            by_rows, by_peeling = snf_both(lam)
            assert calls == ["weights", "recurrence"], lam
            assert (by_rows.algorithm, by_peeling.algorithm) == ("recurrence", "inductive")
            assert by_peeling.P is by_rows.P and by_peeling.Q is by_rows.Q

    def test_differing_transforms_are_certified_apart(self, monkeypatch):
        certify = snf_module._certify
        calls = []

        def spy(*args):
            calls.append(args[-1])
            certify(*args)

        monkeypatch.setattr(snf_module, "_certify", spy)
        tamper_inductive(monkeypatch, "P")
        with pytest.raises(VerificationFailed, match="^inductive: "):
            snf_both(LAM)
        assert calls == ["recurrence", "inductive"]


class TestDegreeLimit:
    @pytest.mark.parametrize("parts", [(65536,), (40000, 30000)])
    def test_refused_before_any_reduction_work(self, monkeypatch, parts):
        # The packed weight set refuses |lam| past the limit, so neither
        # the peeling plan nor the row coefficients are ever started.
        def uncalled(*args):
            raise AssertionError("reduction work ran")

        monkeypatch.setattr(snf_module, "_peel_plan", uncalled)
        monkeypatch.setattr(snf_module, "row_coefficients", uncalled)
        monkeypatch.setattr(snf_module, "_coefficient_keys", uncalled)
        lam = Partition(parts)
        side = lam.rank + 1
        for reduce in (
            lambda: snf_recurrence(lam),
            lambda: snf_inductive(lam, side, side),
            lambda: snf_both(lam),
            lambda: snf_module._PackedWeights(lam, _QLayout()),
        ):
            with pytest.raises(TooLarge, match=f"degree {sum(parts)} exceeds the limit"):
                reduce()


class TestSelftest:
    def test_failing_border_rectangle_is_recorded(self, monkeypatch):
        # Only the border rectangles are tampered with, through the name
        # snf looks up, so a self-test that reduced or certified them by
        # another route would pass them silently.
        reduce = snf_module._reduce_rectangle

        def tampered(weights, lam, d, e):
            U, VT = reduce(weights, lam, d, e)
            return U, VT if d == e else snf_module._identity_grid(len(VT))

        monkeypatch.setattr(snf_module, "_reduce_rectangle", tampered)
        report = run_selftest(4)
        failures = [f for f in report.failures if f.startswith("border-rectangles: ")]
        assert len(failures) == 22 == len(report.failures)
        assert (
            "border-rectangles: partition (1,) rectangle 1x2: inductive: "
            "product differs from the expected diagonal form"
        ) in failures

    def test_failed_origin_square_skips_only_the_diagonal_check(self, monkeypatch):
        clean = run_selftest(6).counts
        tamper_inductive(monkeypatch, "P")
        report = run_selftest(6)
        partitions = len(list(all_partitions(6)))
        assert report.counts["determinant-product"] == partitions == 30
        assert report.counts["border-rectangles"] == clean["border-rectangles"]
        assert report.counts["diagonal-monomials"] < partitions
        assert not any(f.startswith("determinant-product") for f in report.failures)

    def test_one_packed_weight_set_per_partition(self, monkeypatch):
        packed_weights = snf_module._PackedWeights
        asked = []

        class CountedWeights(packed_weights):
            def __init__(self, lam, layout):
                super().__init__(lam, layout)
                shapes = []
                asked.append(shapes)
                anchored = self._anchored_weight

                def counted(shape):
                    shapes.append(shape)
                    return anchored(shape)

                self._anchored_weight = counted

        monkeypatch.setattr(snf_module, "_PackedWeights", CountedWeights)
        assert run_selftest(8).ok
        assert len(asked) == len(list(all_partitions(8))) == 67
        assert all(len(shapes) == len(set(shapes)) for shapes in asked)


class TestSelftestReadsPackedCoefficients:
    def test_tampered_coefficient_fails_row_relations_and_agreement(self, monkeypatch):
        # Coefficient 1 of every row transform gains the term x[1,1],
        # which no coefficient 1 has: the row relations and the
        # recurrence's certification both read it.
        clean = run_selftest(6).counts
        walk = snf_module._coefficient_keys

        def tampered(layout, shape, conjugate=False):
            keys = walk(layout, shape, conjugate)
            if len(keys) > 1 and not conjugate:
                keys[1] = {**keys[1], layout.run(1, 0, 1): -1}
            return keys

        monkeypatch.setattr(snf_module, "_coefficient_keys", tampered)
        report = run_selftest(6)
        ranked = [lam for lam in all_partitions(6) if lam.rank]
        relations = [f for f in report.failures if f.startswith("row-relations: ")]
        assert len(relations) == sum(lam.rank + 1 for lam in ranked)
        agreement = [f for f in report.failures if f.startswith("snf-agreement: ")]
        assert len(agreement) == len(ranked) == 29
        assert all(": recurrence: product differs" in f for f in agreement)
        # Only the empty partition, of rank 0, reaches the diagonal check.
        assert report.counts == {**clean, "diagonal-monomials": 1}

    def test_one_grid_per_partition(self):
        lam = Partition((4, 3, 1))
        weights = snf_module._weights(lam)
        square = weights.grid(3, 3)
        wide = weights.grid(2, 5)
        assert all(a is b for a, b in zip(square[0], wide[0]))
        assert all(a is b for a, b in zip(square[1], wide[1]))
        square[0][0] = {}
        assert weights.grid(1, 1) == [[weights.grid(3, 3)[0][0]]] != [[{}]]


class TestDeterminant:
    def test_packed_elimination_equals_cofactor_expansion(self):
        for lam in all_partitions(10):
            weights = snf_module._weights(lam)
            side = lam.rank + 1
            got = checks_module._eliminate(weights.layout, weights.grid(side, side))
            W = square_matrix(lam, Cell(1, 1))
            assert weights.layout.decode(got) == cofactor_determinant(W), lam

    def test_trivial(self):
        assert determinant(PolyMatrix.from_rows([[1]])) == 1

    def test_origin_square_3_2(self):
        W = square_matrix(LAM, Cell(1, 1))
        e = Cell(2, 2)
        expected = Polynomial.from_monomial(
            Monomial(
                {Cell(1, 1): 1, Cell(1, 2): 1, Cell(1, 3): 1, Cell(2, 1): 1, e: 2}
            )
        )
        assert determinant(W) == expected

    def test_staircase_2x2_substituted(self):
        # det [[1+2q+q^2+q^3, 1+q], [1+q, 1]] = q^3 on the embedding cell.
        M = staircase_matrix(3)
        assert determinant(M) == Polynomial.from_monomial(Monomial({Cell(1, 1): 3}))

    def test_equals_diagonal_product(self):
        for lam in all_partitions(7):
            W = square_matrix(lam, Cell(1, 1))
            product = Polynomial.one()
            for k in range(1, lam.rank + 2):
                product = product * leading_monomial(lam, Cell(k, k))
            assert determinant(W) == product

    def test_equals_cofactor_expansion_on_origin_squares(self):
        for lam in [*all_partitions(12), *box_partitions(5)]:
            W = square_matrix(lam, Cell(1, 1))
            assert determinant(W) == cofactor_determinant(W), lam

    def test_side_7_square_is_the_diagonal_product(self):
        lam = Partition((6,) * 6)
        W = square_matrix(lam, Cell(1, 1))
        assert W.rows == 7
        diagonal = [leading_monomial(lam, Cell(k, k)) for k in range(1, 8)]
        assert determinant(W) == prod(diagonal, start=Polynomial.one())

    def test_not_square(self):
        with pytest.raises(NotSquare):
            determinant(rect_weight_matrix(LAM, 2, 3))

    def test_no_side_cap(self):
        assert determinant(identity(9)) == 1

    def test_antisymmetry_small(self):
        x = Polynomial.variable(Cell(1, 1))
        y = Polynomial.variable(Cell(2, 2))
        M = PolyMatrix.from_rows([[0, x], [y, 0]])
        assert cofactor_determinant(M) == -(x * y)

    def test_zero_pivot_fails(self):
        x = Polynomial.variable(Cell(1, 1))
        y = Polynomial.variable(Cell(2, 2))
        M = PolyMatrix.from_rows([[0, x], [y, 0]])
        with pytest.raises(VerificationFailed, match=r"\(2,2\) is not one term: 0"):
            determinant(M)

    def test_selftest_records_a_zero_pivot(self, monkeypatch):
        eliminate = checks_module._eliminate

        def zeroed(layout, M):
            rows = [list(row) for row in M]
            rows[-1][-1] = {}
            return eliminate(layout, rows)

        monkeypatch.setattr(checks_module, "_eliminate", zeroed)
        report = run_selftest(3)
        assert report.counts["determinant-product"] == 7
        assert (
            "determinant-product: partition (2, 1): "
            "determinant pivot (2,2) is not one term: 0"
        ) in report.failures
        assert all(f.startswith("determinant-product: ") for f in report.failures)


def test_public_surface_is_pinned():
    # Adding or removing a public name must be a deliberate change here.
    package = sorted(
        name
        for name, value in vars(partition_snf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert package == [
        "Cell", "CellOutOfRange", "DimensionMismatch", "EmptyPartition",
        "ExtendedDiagram", "IndexOutOfRange", "InternalGeometryError",
        "InvalidRectangle", "Monomial", "NameCollision", "NonPositive",
        "NotDecreasing", "NotSquare", "ParseError", "Partition",
        "PartitionSnfError", "PolyMatrix", "Polynomial", "SelfTestReport",
        "SnfResult", "TooLarge", "VerificationFailed", "all_partitions",
        "alternating_row_sum", "boundary_walk_count", "clear_weight_cache",
        "determinant", "expected_snf_exponents", "leading_monomial",
        "letter_naming", "parse_partition", "partitions_of",
        "polynomial_from_json", "polynomial_to_json", "q_catalan",
        "q_catalan_table", "q_coefficients", "rect_weight_matrix", "render",
        "render_q", "row_coefficient", "row_coefficients", "run_selftest",
        "snf_both", "snf_inductive", "snf_recurrence", "square_matrix",
        "staircase", "staircase_snf_diagonal", "subdiagram_shape",
        "verify_snf", "weight_at", "weight_polynomial",
    ]

    def public(cls):
        names = {name for name in dir(cls) if not name.startswith("_")}
        if dataclasses.is_dataclass(cls):
            names |= {f.name for f in dataclasses.fields(cls)}
        return sorted(names)

    assert public(Monomial) == [
        "degree", "is_one", "pairs", "skew", "translate", "transpose", "variable",
    ]
    assert public(Polynomial) == [
        "constant", "degree", "from_monomial", "is_zero", "items", "one",
        "skew_sum", "translate", "transpose_variables", "variable", "zero",
    ]
    assert public(PolyMatrix) == [
        "cols", "entries", "from_json", "from_rows", "is_zero", "origin",
        "rows", "to_json", "transpose",
    ]
    assert public(SnfResult) == [
        "P", "Q", "agrees_with", "algorithm", "diagonal", "to_json",
    ]
