import dataclasses
import gc
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import types
from math import prod
from pathlib import Path

import pytest

import partition_snf
import partition_snf.checks as checks_module
import partition_snf.cli as cli_module
import partition_snf.recurrence as recurrence_module
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
    alternating_row_sum,
    clear_weight_cache,
    determinant,
    leading_monomial,
    rect_weight_matrix,
    run_selftest,
    snf_both,
    snf_inductive,
    snf_recurrence,
    square_matrix,
    subdiagram_shape,
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
    variable,
    wide_border_rectangles,
    x_power,
    z_image_certified,
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


class TestTuplePeeling:
    """The peeling is planned and replayed on part tuples: a reduction,
    even the first on a fresh weight set, builds no partition, the
    selftest builds only those it walks, and none leaves a reference
    cycle behind."""

    def test_first_step_takes_the_top_row_corner(self):
        # Removing the bottom corner (2,2) of (4,2) would shrink the
        # frame's third row, so the plan peels (1,4) first.
        plan, _, _, _ = snf_module._peel_plan((4, 2), 3, 3)
        assert plan[0] == ((3, 2), (1, 4))

    @staticmethod
    def partitions_built(monkeypatch) -> list:
        """From now on, the parts of every partition built."""
        built = []
        post_init = Partition.__post_init__

        def counted(lam):
            built.append(lam.parts)
            post_init(lam)

        monkeypatch.setattr(Partition, "__post_init__", counted)
        return built

    @pytest.mark.parametrize("parts, d, e", [((4, 2), 3, 3), ((1,) * 250, 2, 2)])
    def test_reduction_builds_no_partition(self, monkeypatch, parts, d, e):
        built = self.partitions_built(monkeypatch)
        weights = snf_module._weights(parts)
        snf_module._reduce_rectangle(weights, d, e)
        assert built == []

    def test_reduction_in_z_q_builds_no_partition(self, monkeypatch):
        built = self.partitions_built(monkeypatch)
        weights = snf_module._PackedWeights((6, 5, 4, 3, 2, 1), _QLayout())
        snf_module._reduce_rectangle(weights, 4, 4)
        assert built == []

    def test_selftest_builds_only_the_partitions_it_walks(self, monkeypatch):
        walked = [lam.parts for lam in all_partitions(12)]
        built = self.partitions_built(monkeypatch)
        assert run_selftest(12).ok
        assert built == walked and len(walked) == 272

    def test_reductions_leave_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            snf_inductive(Partition((1,) * 300), 2, 2)
            assert gc.collect() < 10
            assert run_selftest(8).ok
            assert gc.collect() < 10
        finally:
            gc.enable()


def decoded(layout, grid):
    """A packed grid decoded into a grid of polynomials."""
    return [[layout.decode(entry) for entry in row] for row in grid]


def decoded_replay(lam: Partition, d: int, e: int):
    """(U, VT) of the packed replay, decoded into polynomial grids."""
    weights = snf_module._weights(lam.parts)
    grids = snf_module._reduce_rectangle(weights, d, e)
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
    weights = snf_module._weights(lam.parts)
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
        ok, residual = verify_snf(W, dataclasses.replace(good, P=PolyMatrix(rows)))
        assert not ok
        assert isinstance(residual, PolyMatrix)
        assert any(map(any, residual.entries))

    def test_layout_is_sized_over_the_diagonal(self):
        # x[1,9] is wider than every entry of P, W and Q, so a layout sized
        # over those alone could not encode it.
        W = square_matrix(LAM, Cell(1, 1))
        good = snf_recurrence(LAM)
        wide = variable((1, 9))
        bad = dataclasses.replace(good, diagonal=(good.diagonal[0], wide, good.diagonal[2]))
        ok, residual = verify_snf(W, bad)
        assert not ok
        assert residual.entries[1][1] == variable((2, 2)) - wide

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
    layout = snf_module._weights(lam.parts).layout

    def packed(rows):
        return [[layout.encode(p) for p in row] for row in rows]

    return layout, packed(P.entries), packed(W.entries), packed(zip(*Q.entries))


class TestCertify:
    def test_structural_failure_carries_residual(self):
        # The product matches, so only the transform shape is wrong; the
        # residual is still attached, as an all-zero matrix.
        layout = snf_module._weights(()).layout
        minus_one = [[layout.encode(-Polynomial.one())]]
        one = [[layout.encode(Polynomial.one())]]
        with pytest.raises(VerificationFailed, match="not upper unitriangular") as info:
            snf_module._certify(layout, minus_one, one, minus_one, one[0], "test")
        assert isinstance(info.value.residual, PolyMatrix)
        assert not any(map(any, info.value.residual.entries))

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
        tampered = layout.decode(factors[factor][i][j]) + variable((2, 2))
        factors[factor][i][j] = layout.encode(tampered)
        with pytest.raises(VerificationFailed, match="differs") as info:
            snf_module._certify(layout, *factors, list(map(layout.encode, good.diagonal)), "test")
        P, W, QT = (decoded(layout, grid) for grid in factors)
        product = naive_matrix_product(naive_matrix_product(P, W), tuple(zip(*QT)))
        expected = PolyMatrix(
            tuple(
                tuple(good.diagonal[i] if j == e - d + i else 0 for j in range(e))
                for i in range(d)
            )
        )
        assert info.value.residual == difference(PolyMatrix(product), expected)

    def test_selftest_reports_failed_certification(self, monkeypatch):
        monkeypatch.setattr(
            snf_module, "_leading_keys", lambda weights, d, e: [0] * d
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
        monkeypatch.setattr(recurrence_module, "_walk", uncalled)
        lam = Partition(parts)
        side = lam.rank + 1
        for reduce in (
            lambda: snf_recurrence(lam),
            lambda: snf_inductive(lam, side, side),
            lambda: snf_both(lam),
            lambda: snf_module._PackedWeights(lam.parts, _QLayout()),
        ):
            with pytest.raises(TooLarge, match=f"degree {sum(parts)} exceeds the limit"):
                reduce()


class TestDegreeCheckPerStep:
    """A peel step and an elimination round check the degree limit once,
    and raise exactly where a check on every pair of entries raises: a
    pair one degree higher raises, the same pair one degree lower gives
    the product, and a high degree facing only zeros raises nothing."""

    layout = PackedLayout(1)

    def packed(self, rows):
        encode = self.layout.encode
        return [[encode(Polynomial.zero() + p) for p in row] for row in rows]

    def decoded(self, grid):
        return [[self.layout.decode(entry) for entry in row] for row in grid]

    def peel(self, rows, update):
        # The cell is x, peeled beside the first row: the step scales
        # row 1 right of column 1 by x, then adds column 1 times update.
        grid = self.packed(rows)
        (updates,) = self.packed([[update]])
        snf_module._peel_step(grid, 1, self.layout.run(1, 0, 1), updates)
        return self.decoded(grid)

    def test_peel_step_scaling(self):
        x = x_power(1)
        with pytest.raises(TooLarge):
            self.peel([[1, x_power(65535)], [x_power(2), 1]], x)
        got = self.peel([[1, x_power(65534)], [x_power(2), 1]], x)
        assert got == [[1, x_power(65535) + x], [x_power(2), 1 + x_power(3)]]

    def test_peel_step_update(self):
        x = x_power(1)
        with pytest.raises(TooLarge):
            self.peel([[1, 1], [x_power(2), 1]], x_power(65534))
        got = self.peel([[1, 1], [x_power(2), 1]], x_power(65533))
        assert got == [[1, x + x_power(65533)], [x_power(2), 1 + x_power(65535)]]

    def test_peel_step_high_degree_facing_zeros(self):
        # The step's bound is past the limit, but x^65535 is only a base.
        x3 = x_power(3)
        got = self.peel([[1, x_power(2)], [0, x_power(65535)]], x3)
        assert got == [[1, 2 * x3], [0, x_power(65535)]]

    def eliminate(self, rows):
        packed = checks_module._eliminate(self.layout, self.packed(rows))
        return self.layout.decode(packed)

    def test_elimination_pivot_product(self):
        # det [[a, b], [c, p]] = p a - b c, eliminating from the pivot p.
        with pytest.raises(TooLarge):
            self.eliminate([[x_power(25536), 0], [1, x_power(40000)]])
        got = self.eliminate([[x_power(25535), 0], [1, x_power(40000)]])
        assert got == x_power(65535)

    def test_elimination_pivot_row_product(self):
        x = x_power(1)
        with pytest.raises(TooLarge):
            self.eliminate([[x, x_power(65535)], [x, x]])
        got = self.eliminate([[x, x_power(65534)], [x, x]])
        assert got == x_power(2) - x_power(65535)

    def test_elimination_high_degree_facing_zeros(self):
        x = x_power(1)
        assert self.eliminate([[x, x_power(65535)], [0, x]]) == x_power(2)


class TestSelftest:
    def test_failing_border_rectangle_is_recorded(self, monkeypatch):
        # Only the border rectangles are tampered with, through the name
        # snf looks up, so a self-test that reduced or certified them by
        # another route would pass them silently.
        reduce = snf_module._reduce_rectangle

        def tampered(weights, d, e):
            U, VT = reduce(weights, d, e)
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

        anchored = recurrence_module._PartitionLayout.weight

        class CountedWeights(packed_weights):
            def __init__(self, parts, layout):
                super().__init__(parts, layout)
                asked.append([])

        def counted(layout, shape):
            # The partitions run one after another, so the newest weight
            # set is the one asking.
            asked[-1].append(shape)
            return anchored(layout, shape)

        monkeypatch.setattr(snf_module, "_PackedWeights", CountedWeights)
        monkeypatch.setattr(recurrence_module._PartitionLayout, "weight", counted)
        assert run_selftest(8).ok
        assert len(asked) == len(list(all_partitions(8))) == 67
        assert all(len(shapes) == len(set(shapes)) for shapes in asked)


class TestPeelStarts:
    """The self-test starts each rectangle's replay from the certified
    transforms of a state one cell smaller, and keeps only those."""

    @staticmethod
    def replay_steps(monkeypatch) -> list:
        """From now on, the number of steps of every peel plan made."""
        steps = []
        plan = snf_module._peel_plan

        def counted(*args):
            found = plan(*args)
            steps.append(len(found[0]))
            return found

        monkeypatch.setattr(snf_module, "_peel_plan", counted)
        return steps

    def test_a_started_replay_is_the_replay_from_the_single_row(self, monkeypatch):
        reduce = snf_module._reduce_rectangle
        replayed = []

        def recorded(weights, d, e):
            _, *state = snf_module._peel_plan(weights.parts, d, e, weights.starts)
            U, VT = reduce(weights, d, e)
            started = tuple(state) in weights.starts
            replayed.append((weights.parts, d, e, started, [U, VT]))
            return U, VT

        monkeypatch.setattr(snf_module, "_reduce_rectangle", recorded)
        partitions = list(all_partitions(10))
        assert run_selftest(10).ok
        # Every origin square and wide border rectangle, once.
        assert len(replayed) == sum(len(wide_border_rectangles(lam)) for lam in partitions)
        assert sum(started for *_, started, _ in replayed) > len(replayed) // 2
        for parts, d, e, _, grids in replayed:
            fresh = snf_module._weights(parts)
            assert grids == list(reduce(fresh, d, e)), (parts, d, e)

    def test_selftest_replays_each_state_about_once(self, monkeypatch):
        steps = self.replay_steps(monkeypatch)
        certified = []
        certify = snf_module._certify

        def counted(*args):
            certified.append(args[-1])
            certify(*args)

        monkeypatch.setattr(snf_module, "_certify", counted)
        assert run_selftest(12).total == 3053
        # 1,211 wide border rectangles and 272 origin squares, each still
        # certified; a replay from the single row took 9,608 steps.
        assert len(steps) == len(certified) == 1483
        assert sum(steps) <= 2000

    def test_selftest_keeps_only_starts_it_reads(self, monkeypatch):
        # A plan ends at a single row on its own partition or after a
        # bordering step, which shortens the first part, so no replay
        # reads a 1 x e entry, and none is kept.
        packed_weights, plan = snf_module._PackedWeights, snf_module._peel_plan
        made, read = [], set()

        class Recorded(packed_weights):
            def __init__(self, parts, layout):
                super().__init__(parts, layout)
                made.append(self)

        def reading(parts, d, e, known=()):
            found = plan(parts, d, e, known)
            if tuple(found[1:]) in known:
                read.add(tuple(found[1:]))
            return found

        monkeypatch.setattr(snf_module, "_PackedWeights", Recorded)
        monkeypatch.setattr(snf_module, "_peel_plan", reading)
        assert run_selftest(12).total == 3053
        kept = set().union(*(w.new_starts for w in made if w.new_starts is not None))
        assert kept == read
        assert len(kept) == 812

    def test_only_certified_pairs_are_kept(self, monkeypatch):
        # Each pair is checked as it is kept, so keeping one before its
        # certification has passed fails too.
        certify, packed_weights = snf_module._certify, snf_module._PackedWeights
        passed, kept, made = {}, [], []

        def recorded(layout, P, W, QT, diagonal, algorithm):
            certify(layout, P, W, QT, diagonal, algorithm)
            passed[id(P), id(QT)] = P, QT

        class Checked:
            def __init__(self, block):
                self.block = block

            def __setitem__(self, state, pair):
                assert (id(pair[0]), id(pair[1])) in passed, state
                kept.append(state)
                self.block[state] = pair

        class Watched(packed_weights):
            def __init__(self, parts, layout):
                super().__init__(parts, layout)
                made.append(self)

            @property
            def new_starts(self):
                return self._new_starts

            @new_starts.setter
            def new_starts(self, block):
                self._new_starts = None if block is None else Checked(block)

        monkeypatch.setattr(snf_module, "_certify", recorded)
        monkeypatch.setattr(snf_module, "_PackedWeights", Watched)
        assert run_selftest(10).ok
        assert kept
        made.clear()
        lam = Partition((5, 3, 3, 1))
        snf_inductive(lam, 2, 6)
        snf_recurrence(lam)
        snf_both(lam)
        assert len(made) == 3
        assert all(w.new_starts is None for w in made)

    def test_failed_transforms_start_no_replay(self, monkeypatch):
        # In a clean run, replays of partitions of size 4 start from the
        # 2x3 rectangle of (2, 1).
        reduce = snf_module._reduce_rectangle
        state = ((2, 1), 2, 3)
        started = []

        def seen(weights, d, e):
            _, *end = snf_module._peel_plan(weights.parts, d, e, weights.starts)
            if tuple(end) == state and state in weights.starts:
                started.append(weights.parts)
            return reduce(weights, d, e)

        monkeypatch.setattr(snf_module, "_reduce_rectangle", seen)
        assert run_selftest(6).ok
        assert any(sum(parts) == 4 for parts in started)

        def tampered(weights, d, e):
            U, VT = reduce(weights, d, e)
            if (weights.parts, d, e) == state:
                VT = snf_module._identity_grid(len(VT))
            return U, VT

        monkeypatch.setattr(snf_module, "_reduce_rectangle", tampered)
        report = run_selftest(6)
        assert report.failures == [
            "border-rectangles: partition (2, 1) rectangle 2x3: inductive: "
            "product differs from the expected diagonal form"
        ]

    def test_repeated_runs_hold_no_more_memory(self):
        # The kept transforms are dropped with the run, and the shape memo
        # is emptied before each run.  A fresh interpreter, because
        # tracemalloc does not count objects that were freed before it
        # started and are reused, and earlier tests leave many.
        code = (
            "import gc, tracemalloc\n"
            "from partition_snf import clear_weight_cache, run_selftest\n"
            "tracemalloc.start()\n"
            "for _ in range(3):\n"
            "    clear_weight_cache()\n"
            "    assert run_selftest(10).ok\n"
            "    gc.collect()\n"
            "    print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(partition_snf.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        first, _, third = map(int, child.stdout.split())
        # About 640 kB is traced after each run, 3 kB more after the
        # third than after the first.
        assert abs(third - first) <= 8 * 1024, (first, third)


class TestZImage:
    def test_integer_matrices_reduce_to_the_identity(self):
        # Every variable sent to 1, by a layout the library does not
        # define: the weight set takes both shape functions from it.
        partitions = list(all_partitions(9))
        assert len(partitions) == 97
        assert sum(map(z_image_certified, partitions)) == 442


class TestNegatedOnRead:
    """The weight set negates a shape's weight on its first negated read,
    and never when no negated weight is read."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        packed_weights = snf_module._PackedWeights
        made = []

        class Recorded(packed_weights):
            def __init__(self, parts, layout):
                super().__init__(parts, layout)
                self.read = {()}
                made.append(self)

            def placed(self, parts, row, col, sign=1):
                if sign < 0:
                    self.read.add(subdiagram_shape(parts, row, col))
                return super().placed(parts, row, col, sign)

        monkeypatch.setattr(snf_module, "_PackedWeights", Recorded)
        return made

    def test_row_sums_and_the_recurrence_command_negate_nothing(self, recorded, capsys):
        lam = Partition((5, 4, 4, 1))
        for j in range(1, lam.rank + 2):
            assert alternating_row_sum(lam, j) == (
                leading_monomial(lam, Cell(1, 1)) if j == 1 else 0
            )
        argv = ["recurrence", "10,9,8,7,6,5,4,3,2,1", "--j", "all"]
        assert cli_module.main(argv) == 0
        capsys.readouterr()
        assert len(recorded) == lam.rank + 2
        assert all(w._negated == {(): PACKED_MINUS_ONE} for w in recorded)

    def test_selftest_negates_only_what_it_reads_negated(self, recorded):
        assert run_selftest(8).ok
        assert len(recorded) == 67
        assert all(set(w._negated) == w.read for w in recorded)
        assert any(len(w.read) > 1 for w in recorded)


class TestSelftestReadsPackedCoefficients:
    def test_tampered_coefficient_fails_row_relations_and_agreement(self, monkeypatch):
        # Coefficient 1 of every row transform gains the term x[1,1],
        # which no coefficient 1 has: the row relations and the
        # recurrence's certification both read it.
        clean = run_selftest(6).counts
        walk = recurrence_module._PartitionLayout.coefficients

        def tampered(layout, parts, transposed=False):
            keys = walk(layout, parts, transposed)
            if len(keys) > 1 and not transposed:
                keys[1] = {**keys[1], layout.run(1, 0, 1): -1}
            return keys

        monkeypatch.setattr(recurrence_module._PartitionLayout, "coefficients", tampered)
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
        weights = snf_module._weights(lam.parts)
        square = weights.grid(3, 3)
        wide = weights.grid(2, 5)
        assert all(a is b for a, b in zip(square[0], wide[0]))
        assert all(a is b for a, b in zip(square[1], wide[1]))
        square[0][0] = {}
        assert weights.grid(1, 1) == [[weights.grid(3, 3)[0][0]]] != [[{}]]

    def test_a_row_sum_places_only_its_column(self):
        weights = snf_module._weights((4, 3, 1))
        checks_module._row_sum(weights, 3)
        assert sorted(weights._kept) == [(1, 3), (2, 3), (3, 3)]
        assert weights.grid(3, 3)[1][2] is weights.at(2, 3)


class TestDeterminant:
    def test_packed_elimination_equals_cofactor_expansion(self):
        for lam in all_partitions(10):
            weights = snf_module._weights(lam.parts)
            side = lam.rank + 1
            got = checks_module._eliminate(weights.layout, weights.grid(side, side))
            W = square_matrix(lam, Cell(1, 1))
            assert weights.layout.decode(got) == cofactor_determinant(W), lam

    def test_trivial(self):
        assert determinant(PolyMatrix(((1,),))) == 1

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
        x = variable(Cell(1, 1))
        y = variable(Cell(2, 2))
        M = PolyMatrix(((0, x), (y, 0)))
        assert cofactor_determinant(M) == -(x * y)

    def test_zero_pivot_fails(self):
        x = variable(Cell(1, 1))
        y = variable(Cell(2, 2))
        M = PolyMatrix(((0, x), (y, 0)))
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
        "Cell", "CellOutOfRange", "DimensionMismatch", "ExtendedDiagram", "IndexOutOfRange", "InternalGeometryError",
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
        "degree", "pairs", "skew", "translate",
    ]
    assert public(Polynomial) == [
        "constant", "degree", "from_monomial", "is_zero", "items", "one",
        "skew_sum", "translate", "zero",
    ]
    assert public(PolyMatrix) == [
        "cols", "entries", "from_json", "origin", "rows", "to_json",
    ]
    assert public(SnfResult) == [
        "P", "Q", "agrees_with", "algorithm", "diagonal", "to_json",
    ]
