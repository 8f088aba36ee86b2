"""Integer partitions, their Young diagrams, and border-strip extensions.

Cells are 1-indexed ``(row, col)`` pairs; row ``r`` of a partition
``(p1, ..., pk)`` holds the cells ``(r, 1) .. (r, pr)``.  The extended
diagram adjoins one contiguous strip of cells that hugs the outside of the
diagram from the end of the first row around to the end of the first
column.  Weight polynomials are identically 1 on that strip, which is what
makes it the natural index set for the matrices built downstream.

The extended diagram is held as its row lengths alone: membership in the
extension and in the strip are arithmetic on them and on the partition's
parts, and the strip's cell set is built only when ``border`` is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import add, index
from typing import Iterator, NamedTuple, Sequence

from .errors import CellOutOfRange, NonPositive, NotDecreasing, ParseError, TooLarge

__all__ = [
    "Cell",
    "Partition",
    "ExtendedDiagram",
    "parse_partition",
    "subdiagram_shape",
    "boundary_walk_count",
    "partitions_of",
    "all_partitions",
]


class Cell(NamedTuple):
    """1-indexed (row, col) position in a diagram."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


@dataclass(frozen=True)
class ExtendedDiagram:
    """A diagram together with its adjoined border strip, held as the row
    lengths of the extension.

    Row ``r`` of the extension is contiguous, running from column 1 to
    ``row_lengths[r-1]``; its cells past ``parts[r-1]`` lie on the strip.
    It holds the parts, not the partition, so the two make no cycle.
    """

    parts: tuple[int, ...]
    row_lengths: tuple[int, ...]

    def __contains__(self, cell) -> bool:
        r, c = cell
        return r >= 1 and c >= 1 and _extends_to(self.parts, r, c)

    def on_border(self, cell) -> bool:
        """Whether ``cell`` lies on the border strip."""
        return cell in self and cell[1] > (self.parts + (0,))[cell[0] - 1]

    @property
    def border(self) -> frozenset[Cell]:
        """The cells of the border strip, built on each read."""
        parts = self.parts + (0,)
        return frozenset(
            Cell(r, c)
            for r, length in enumerate(self.row_lengths, start=1)
            for c in range(parts[r - 1] + 1, length + 1)
        )


def _extends_to(parts: tuple[int, ...], row: int, col: int) -> bool:
    """Whether ``(row, col)``, both >= 1, lies in the extended diagram of
    the partition ``parts``: :attr:`Partition.extended` on bare parts."""
    if row == 1:
        return col <= (parts[0] if parts else 0) + 1
    return row - 1 <= len(parts) and col <= parts[row - 2] + 1


def _rank(parts: tuple[int, ...]) -> int:
    """:attr:`Partition.rank` on bare parts: the first ``i`` with ``parts[i] <= i``."""
    return next((i for i, p in enumerate(parts) if p <= i), len(parts))


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """:meth:`Partition.conjugate` on bare parts: column ``c + 1`` counts parts > c."""
    return tuple(sum(p > c for p in parts) for c in range(parts[0] if parts else 0))


def _removable_corners(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """The ``(row, col)`` cells of the partition ``parts`` whose removal
    leaves a partition, top row first."""
    below = parts[1:] + (0,)
    return [(r, p) for r, (p, b) in enumerate(zip(parts, below), start=1) if p > b]


def _without_corner(parts: tuple[int, ...], row: int) -> tuple[int, ...]:
    """``parts`` with the removable corner of row ``row`` taken off."""
    c = parts[row - 1]
    return parts[: row - 1] + (c - 1,) * (c > 1) + parts[row:]


@dataclass(frozen=True)
class Partition:
    """Immutable weakly decreasing sequence of positive parts.

    The empty tuple is the empty partition.  All derived data (the rank,
    the extended diagram) is computed from ``parts``, never stored
    separately.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(map(index, self.parts))
        object.__setattr__(self, "parts", parts)
        for p in parts:
            if p <= 0:
                raise NonPositive(f"parts must be positive, got {p}")
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise NotDecreasing(f"parts must be weakly decreasing, got {parts}")

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @cached_property
    def rank(self) -> int:
        """Side of the largest square of cells anchored at the origin."""
        return _rank(self.parts)

    def __contains__(self, cell) -> bool:
        r, c = cell
        return 1 <= r <= len(self.parts) and 1 <= c <= self.parts[r - 1]

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for r, p in enumerate(self.parts, start=1):
            for c in range(1, p + 1):
                yield Cell(r, c)

    # -- derived diagrams ------------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the diagram (column lengths become rows)."""
        return Partition(_conjugate(self.parts))

    @cached_property
    def extended(self) -> ExtendedDiagram:
        """The diagram with its border strip adjoined.

        Row 1 gains the single cell past the end of the first row; every
        further row ``r`` extends to one past the length of row ``r - 1``,
        so the strip stays contiguous down to the cell below the end of
        column 1.  The empty partition extends to the single cell (1, 1).
        """
        first = self.parts[0] if self.parts else 0
        return ExtendedDiagram(self.parts, tuple(p + 1 for p in (first,) + self.parts))

    def _shape_at(self, cell: Cell) -> tuple[int, ...]:
        """The parts of the cells weakly southeast of ``cell``: empty
        exactly when ``cell`` lies on the border strip.  Raises
        :class:`CellOutOfRange` for cells outside the extended diagram."""
        if cell not in self.extended:
            raise CellOutOfRange(f"{cell} is outside the extended diagram of {self!r}")
        return subdiagram_shape(self.parts, cell.row, cell.col)

    def remove_corner(self, cell) -> "Partition":
        """``self`` without the removable corner ``cell``.  The engine peels
        with :func:`_without_corner`; the benchmark tracer patches this."""
        cell = Cell(*cell)
        if cell not in _removable_corners(self.parts):
            raise ValueError(f"{cell} is not a removable corner of {self!r}")
        return Partition(_without_corner(self.parts, cell.row))


def subdiagram_shape(p, row: int, col: int) -> tuple[int, ...]:
    """Shape of the cells of ``p``, a partition or its tuple of parts,
    weakly southeast of ``(row, col)``.

    Total in both coordinates (no containment requirement); the result is
    empty whenever ``(row, col)`` is not a cell of ``p``.
    """
    if row < 1 or col < 1:
        raise CellOutOfRange(f"cell coordinates must be >= 1, got ({row},{col})")
    shape = []
    for part in islice(p, row - 1, None):
        if part < col:
            break
        shape.append(part - col + 1)
    return tuple(shape)


# An optional sign and ASCII digits, leading zeros apart; ``int`` alone
# would also take underscores and other scripts' digits.
_PART = re.compile(r"([+-]?)0*([0-9]+)")


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        match = _PART.fullmatch(token)
        if match is None:
            # A long token is cut short, so the error stays one short line.
            shown = repr(token)
            if len(shown) > 22:
                shown = f"{shown[:21]}... ({len(token)} characters)"
            raise ParseError(f"not an integer part: {shown}")
        sign, digits = match.groups()
        try:
            parts.append(int(sign + digits))
        except ValueError:  # past int's digit limit
            raise TooLarge(
                f"a part of {len(digits)} digits exceeds the limit on monomial degree"
            ) from None
    return Partition(tuple(parts))


def _plus_shifted(acc: list[int], poly: list[int], shift: int) -> list[int]:
    """``acc + q^shift * poly`` on ascending coefficient lists, as a new list."""
    end = shift + len(poly)
    out = acc + [0] * (end - len(acc))
    out[shift:end] = map(add, out[shift:end], poly)
    return out


def _complement_areas(parts: Sequence[int]) -> list[int]:
    """Entry ``k`` counts the partitions inside ``parts`` that leave ``k``
    of its cells uncovered: the ascending coefficients of
    ``sum(q^(|mu| - |nu|) for nu inside mu)``, ending in the 1 of the
    empty ``nu``.

    A dynamic program over the rows, bottom first, that never enumerates
    the partitions: ``ways[x]`` holds the rows below with the last one's
    part at most ``x``, and a row of ``limit`` cells whose part is ``v``
    leaves ``limit - v`` of them uncovered.
    """
    width = parts[0] if parts else 0
    ways = [[1]] * (width + 1)
    for limit in reversed(parts):
        acc: list[int] = []
        row = []
        for v in range(limit + 1):
            acc = _plus_shifted(acc, ways[v], limit - v)
            row.append(acc)
        ways = row + [acc] * (width - limit)
    return ways[width]


def boundary_walk_count(p: Partition) -> int:
    """Number of subpartitions: :func:`_complement_areas` at q = 1.

    The count is a dynamic program over the rows and never enumerates
    the partitions themselves, so it serves as an independent cross-check
    for the enumerator, and through it for the q-weights the staircase
    reductions read.
    """
    return sum(_complement_areas(p.parts))


def _parts_of(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The partitions of ``remaining`` with parts at most ``cap``, as part
    tuples in reverse lexicographic order; a closure would be a cycle."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _parts_of(remaining - first, first):
            yield (first,) + rest


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in reverse lexicographic order."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    for shape in _parts_of(n, n):
        yield Partition(shape)


def all_partitions(max_size: int) -> Iterator[Partition]:
    """All partitions of every size from 0 through ``max_size``."""
    for n in range(max_size + 1):
        yield from partitions_of(n)
