import pytest
from hypothesis import given, settings

from partition_snf import (
    Cell,
    CellOutOfRange,
    NonPositive,
    NotDecreasing,
    ParseError,
    Partition,
    TooLarge,
    all_partitions,
    boundary_walk_count,
    parse_partition,
    partitions_of,
)
from partition_snf.partitions import _removable_corners, _without_corner

from helpers import extended_cells, partitions_strategy, subpartitions


class TestParse:
    def test_basic(self):
        assert parse_partition("3,2") == Partition((3, 2))

    def test_whitespace(self):
        assert parse_partition(" 5, 4 , 1 ") == Partition((5, 4, 1))

    def test_empty_string_is_empty_partition(self):
        assert parse_partition("") == Partition()
        assert parse_partition("   ") == Partition()

    def test_rejects_non_integers(self):
        with pytest.raises(ParseError):
            parse_partition("a,1")
        with pytest.raises(ParseError):
            parse_partition("3,,2")

    def test_rejects_increasing(self):
        with pytest.raises(NotDecreasing):
            parse_partition("2,3")

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            parse_partition("0")
        with pytest.raises(NonPositive):
            parse_partition("3,-1")


    @pytest.mark.parametrize("text", ["1_0", "\u0663,2", "3,\uff12", "1e3", "0x3", "3.0"])
    def test_accepts_only_ascii_decimal_parts(self, text):
        # int() alone reads underscores and other scripts' digits.
        with pytest.raises(ParseError):
            parse_partition(text)

    def test_sign_and_leading_zeros(self):
        assert parse_partition("+3, 02") == Partition((3, 2))
        assert parse_partition("0" * 5000 + "1") == Partition((1,))

    def test_part_past_the_digit_limit_is_too_large(self):
        with pytest.raises(TooLarge, match="exceeds the limit") as caught:
            parse_partition("9" * 5000)
        assert len(str(caught.value)) < 80

    @pytest.mark.parametrize("parts", [(2.5, 1), ("3", "2"), (3.0,), (None,)])
    def test_parts_must_be_integers(self, parts):
        with pytest.raises(TypeError):
            Partition(parts)


class TestRank:
    def test_examples(self):
        assert Partition((3, 2)).rank == 2
        assert Partition().rank == 0
        assert Partition((5, 4, 1)).rank == 2

    def test_square(self):
        assert Partition((3, 3, 3)).rank == 3

    def test_single_row(self):
        assert Partition((7,)).rank == 1


class TestExtendedDiagram:
    def test_rows_3_2(self):
        assert Partition((3, 2)).extended.row_lengths == (4, 4, 3)

    def test_border_3_2(self):
        border = Partition((3, 2)).extended.border
        assert border == frozenset(
            {Cell(1, 4), Cell(2, 3), Cell(2, 4), Cell(3, 1), Cell(3, 2), Cell(3, 3)}
        )

    def test_empty_partition_extends_to_single_cell(self):
        ext = Partition().extended
        assert extended_cells(ext) == frozenset({Cell(1, 1)})
        assert ext.border == frozenset({Cell(1, 1)})

    def test_rows_5_4_1(self):
        # Row 4 must reach column 2: the strip passes below the single cell
        # of row 3 before turning down to (4,1), and the square anchored at
        # (3,1) needs its corner (4,2) inside the extension.
        assert Partition((5, 4, 1)).extended.row_lengths == (6, 6, 5, 2)

    def test_border_5_4_1(self):
        border = Partition((5, 4, 1)).extended.border
        assert border == frozenset(
            {
                Cell(1, 6),
                Cell(2, 5),
                Cell(2, 6),
                Cell(3, 2),
                Cell(3, 3),
                Cell(3, 4),
                Cell(3, 5),
                Cell(4, 1),
                Cell(4, 2),
            }
        )

    def test_membership(self):
        ext = Partition((3, 2)).extended
        assert Cell(1, 1) in ext
        assert Cell(3, 3) in ext
        assert Cell(3, 4) not in ext
        assert Cell(4, 1) not in ext

    def test_border_is_a_connected_strip(self):
        # The strip starts one past the first row, ends one below the first
        # column, and walks between them through edge-adjacent cells.
        for lam in all_partitions(9):
            border = lam.extended.border
            start = Cell(1, sum(lam.parts[:1]) + 1)
            end = Cell(len(lam.parts) + 1, 1)
            assert start in border and end in border
            seen = {start}
            frontier = [start]
            while frontier:
                cell = frontier.pop()
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    step = Cell(cell.row + dr, cell.col + dc)
                    if step in border and step not in seen:
                        seen.add(step)
                        frontier.append(step)
            assert seen == border

    def test_square_geometry_exhaustive(self):
        # Every extended cell carries a unique square: side is one more
        # than the rank of its sub-diagram, the whole square stays inside
        # the extension and its far corner lands on the border strip.
        for lam in all_partitions(8):
            ext = lam.extended
            for cell in sorted(extended_cells(ext)):
                side = Partition(lam._shape_at(cell)).rank + 1
                for du in range(side):
                    for dv in range(side):
                        assert Cell(cell.row + du, cell.col + dv) in ext
                corner = Cell(cell.row + side - 1, cell.col + side - 1)
                assert corner in ext.border


class TestSubdiagram:
    def test_drop_first_column(self):
        assert Partition((3, 2))._shape_at(Cell(1, 2)) == (2, 1)

    def test_border_cell_gives_empty(self):
        assert Partition((3, 2))._shape_at(Cell(2, 3)) == ()

    def test_interior_5_4_1(self):
        assert Partition((5, 4, 1))._shape_at(Cell(2, 2)) == (3,)

    def test_origin_is_identity(self):
        lam = Partition((4, 2, 1))
        assert lam._shape_at(Cell(1, 1)) == lam.parts

    def test_out_of_range(self):
        with pytest.raises(CellOutOfRange):
            Partition((3, 2))._shape_at(Cell(5, 5))

    def test_empty_iff_border(self):
        for lam in all_partitions(7):
            ext = lam.extended
            for cell in extended_cells(ext):
                empty = not lam._shape_at(cell)
                assert empty == (cell in ext.border)
                assert empty == ext.on_border(cell)


class TestConjugate:
    def test_examples(self):
        assert Partition((3, 2)).conjugate() == Partition((2, 2, 1))
        assert Partition().conjugate() == Partition()
        assert Partition((5, 4, 1)).conjugate() == Partition((3, 2, 2, 2, 1))

    @given(partitions_strategy())
    def test_involution(self, lam):
        assert lam.conjugate().conjugate() == lam

    @given(partitions_strategy())
    def test_rank_invariant(self, lam):
        assert lam.rank == lam.conjugate().rank

    @given(partitions_strategy())
    def test_size_invariant(self, lam):
        assert sum(lam.parts) == sum(lam.conjugate().parts)


class TestSubpartitions:
    def test_3_2_full_set(self):
        got = [p.parts for p in subpartitions(Partition((3, 2)))]
        assert got == [
            (),
            (1,),
            (1, 1),
            (2,),
            (2, 1),
            (2, 2),
            (3,),
            (3, 1),
            (3, 2),
        ]

    def test_empty(self):
        assert list(subpartitions(Partition())) == [Partition()]

    def test_count_5_4_1(self):
        assert sum(1 for _ in subpartitions(Partition((5, 4, 1)))) == 34

    @given(partitions_strategy(max_part=5, max_len=4))
    @settings(max_examples=60)
    def test_walk_count_agrees(self, lam):
        assert sum(1 for _ in subpartitions(lam)) == boundary_walk_count(lam)

    def test_walk_count_exhaustive(self):
        for lam in all_partitions(10):
            assert sum(1 for _ in subpartitions(lam)) == boundary_walk_count(lam)

    def test_all_contained(self):
        lam = Partition((4, 2, 1))
        for mu in subpartitions(lam):
            padded = lam.parts + (0,) * len(mu)
            assert all(m <= p for m, p in zip(mu.parts, padded))


class TestCorners:
    def test_examples(self):
        assert _removable_corners((3, 2)) == [Cell(1, 3), Cell(2, 2)]
        assert _removable_corners((2, 2)) == [Cell(2, 2)]
        assert _removable_corners((5, 4, 1)) == [
            Cell(1, 5),
            Cell(2, 4),
            Cell(3, 1),
        ]

    def test_remove_corner(self):
        assert Partition((3, 2)).remove_corner(Cell(2, 2)) == Partition((3, 1))
        assert Partition((1,)).remove_corner(Cell(1, 1)) == Partition()

    def test_remove_non_corner_rejected(self):
        with pytest.raises(ValueError):
            Partition((3, 2)).remove_corner(Cell(1, 2))
        # The end of a row that the row below matches, and cells outside.
        for parts, cell in (((2, 2), Cell(1, 2)), ((3, 2), Cell(1, 4)), ((3, 2), Cell(3, 1))):
            with pytest.raises(ValueError):
                Partition(parts).remove_corner(cell)

    @given(partitions_strategy())
    def test_removal_shrinks_by_one(self, lam):
        for r, _ in _removable_corners(lam.parts):
            smaller = Partition(_without_corner(lam.parts, r))
            assert sum(smaller.parts) == sum(lam.parts) - 1


class TestEnumeration:
    def test_partition_counts(self):
        # p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for n, count in enumerate(expected):
            assert sum(1 for _ in partitions_of(n)) == count

    def test_all_partitions_total(self):
        assert sum(1 for _ in all_partitions(8)) == sum(
            [1, 1, 2, 3, 5, 7, 11, 15, 22]
        )
