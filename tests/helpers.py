"""Shared test utilities.

Expected polynomials are written as letter strings ("abcde+bcde+c+e+1")
with the same row-major letter assignment the CLI uses, so fixtures read
exactly like the grids they pin down.
"""

from itertools import combinations_with_replacement
from math import comb
from typing import Iterable, Iterator

from hypothesis import strategies as st

import partition_snf.checks as checks_module
import partition_snf.snf as snf_module
from partition_snf import (
    Cell,
    IndexOutOfRange,
    Monomial,
    NotSquare,
    Partition,
    PolyMatrix,
    Polynomial,
    boundary_walk_count,
    letter_naming,
    q_catalan,
    subdiagram_shape,
    weight_at,
)
from partition_snf.partitions import _rank
from partition_snf.polynomials import PackedLayout
from partition_snf.snf import _peel_plan


def from_cells(cells: Iterable) -> Monomial:
    """The product of one variable on each of ``cells``."""
    return Monomial((Cell(*cell), 1) for cell in cells)


def variable(cell) -> Polynomial:
    """The variable on ``cell``, as a polynomial."""
    return Polynomial.from_monomial(from_cells((cell,)))


def transpose_variables(p: Polynomial) -> Polynomial:
    """``p`` with each variable of cell (r, c) replaced by that of (c, r)."""
    return Polynomial(
        {Monomial([(Cell(c, r), e) for (r, c), e in m.pairs]): k for m, k in p.items()}
    )


def evaluate_at_ones(p: Polynomial) -> int:
    """Value with every variable set to 1, i.e. the coefficient sum."""
    return sum(coeff for _, coeff in p.items())


def identity(n: int) -> PolyMatrix:
    """The n x n identity matrix."""
    return PolyMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def letter_cells(lam: Partition) -> dict[str, Cell]:
    return {name: cell for cell, name in letter_naming(lam.cells()).items()}


def poly(lam: Partition, text: str) -> Polynomial:
    """Build a polynomial from a letter string.

    Terms are separated by + or -, each an optional integer coefficient
    followed by letters naming the cells of ``lam`` row-major; '1' alone is
    the constant term.  Exponents are not supported; repeat a letter
    instead.
    """
    cells = letter_cells(lam)
    text = text.replace(" ", "").replace("-", "+-")
    terms: dict[Monomial, int] = {}
    for token in text.split("+"):
        if not token:
            continue
        sign = 1
        if token.startswith("-"):
            sign = -1
            token = token[1:]
        digits = ""
        while token and token[0].isdigit():
            digits += token[0]
            token = token[1:]
        coeff = sign * (int(digits) if digits else 1)
        mono = from_cells(cells[ch] for ch in token)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(terms)


def q_poly(coeffs) -> Polynomial:
    """The q-polynomial with ascending ``coeffs``, on the one cell (1,1)."""
    return Polynomial(
        {Monomial({Cell(1, 1): k}): c for k, c in enumerate(coeffs)}
    )


def q_power(k: int) -> Polynomial:
    """q^k on the one cell (1,1)."""
    return q_poly((0,) * k + (1,))


def x_power(e: int) -> Polynomial:
    """The monomial x[1,1]^e, built directly, without q_power's
    coefficient tuple, so that degrees near the limit stay cheap."""
    return Polynomial.from_monomial(Monomial({Cell(1, 1): e}))


def substitute_uniform(p: Polynomial) -> Polynomial:
    """``p`` with every variable sent to x[1,1]: each term's total degree
    becomes the exponent of x[1,1], and terms of equal degree add up.
    The multivariate-then-collapse oracle for the library's work in Z[q]."""
    coeffs: dict[int, int] = {}
    for mono, coeff in p.items():
        coeffs[mono.degree] = coeffs.get(mono.degree, 0) + coeff
    return Polynomial({Monomial({Cell(1, 1): k}): c for k, c in coeffs.items()})


def staircase_matrix(n: int) -> PolyMatrix:
    """The square q-polynomial matrix of the n-th staircase: entry (i, j),
    1-indexed, is ``q_catalan(n + 2 - i - j)`` and the side is n // 2 + 1.
    The oracle for the origin weight square with every variable set to q."""
    if n < 1:
        raise ValueError("matrix index must be at least 1")
    side = range(1, n // 2 + 2)
    return PolyMatrix(tuple(tuple(q_catalan(n + 2 - i - j) for j in side) for i in side))


def catalan_numbers(n_max: int) -> list[int]:
    """Catalan numbers 0..n_max by the convolution recurrence (oracle)."""
    values = [1]
    for n in range(1, n_max + 1):
        values.append(sum(values[k] * values[n - 1 - k] for k in range(n)))
    return values


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """Every partition fitting inside ``lam``, each exactly once.

    Deterministic order: lexicographic on the part tuples, so the empty
    partition comes first and ``lam`` last.  A recursive oracle for the
    iterative walk of ``Polynomial.skew_sum``.
    """
    n = len(lam.parts)

    def grow(row: int, cap: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if row > n:
            return
        for v in range(1, min(cap, lam.parts[row - 1]) + 1):
            for rest in grow(row + 1, v):
                yield (v,) + rest

    for shape in sorted(grow(1, lam.parts[0] if lam.parts else 0)):
        yield Partition(shape)


def direct_weight(lam: Partition, cell) -> Polynomial:
    """Uncached reference weight: enumerate the subpartitions of the
    sub-diagram at ``cell`` and build absolute monomials directly, with no
    shape memo and no translation."""
    row, col = cell
    shape = subdiagram_shape(lam, row, col)
    terms: dict[Monomial, int] = {}
    for mu in subpartitions(Partition(shape)):
        inner = mu.parts + (0,) * (len(shape) - len(mu))
        cells = []
        for r, length in enumerate(shape, start=1):
            for c in range(inner[r - 1] + 1, length + 1):
                cells.append(Cell(row + r - 1, col + c - 1))
        terms[from_cells(cells)] = 1
    return Polynomial(terms)


def choice_poly(lam: Partition, i: int) -> Polynomial:
    """The paper's choice polynomial for index ``i``, cell by cell: its grid
    row ``a`` holds cells (a, a+1) .. (a, a + w), with ``w = lam_i - i``,
    and a sub-array takes the last ``c_a`` of them, ``w >= c_1 >= ... >=
    c_i >= 0``.  Each sub-array contributes the product of its cells.  The
    oracle for ``row_coefficient``, which builds skew monomials instead."""
    if i == 0:
        return Polynomial.one()
    if not 1 <= i <= lam.rank:
        raise IndexOutOfRange(f"grid index {i} outside 1..{lam.rank}")
    w = lam.parts[i - 1] - i
    terms: dict[Monomial, int] = {}
    # Choosing from a descending range gives weakly decreasing counts.
    for counts in combinations_with_replacement(range(w, -1, -1), i):
        cells = [
            Cell(a, b)
            for a, c in enumerate(counts, start=1)
            for b in range(a + w - c + 1, a + w + 1)
        ]
        terms[from_cells(cells)] = 1
    return Polynomial(terms)


def partitions_strategy(max_part: int = 6, max_len: int = 5):
    return st.lists(
        st.integers(min_value=1, max_value=max_part), max_size=max_len
    ).map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))


# -- pair-tuple monomial reference ------------------------------------------
#
# A monomial as a sorted tuple of ((row, col), exponent) pairs, multiplied
# by a merge of the two sorted tuples: the representation the packed
# ``Monomial`` replaced, kept here as an oracle for it.


def ref_monomial(pairs) -> tuple:
    merged: dict[tuple[int, int], int] = {}
    for (r, c), e in pairs:
        if e:
            merged[(r, c)] = merged.get((r, c), 0) + e
    return tuple(sorted(merged.items()))


def ref_mul(a: tuple, b: tuple) -> tuple:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ca, ea), (cb, eb) = a[i], b[j]
        if ca == cb:
            out.append((ca, ea + eb))
            i += 1
            j += 1
        elif ca < cb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def ref_translate(a: tuple, dr: int, dc: int) -> tuple:
    out = tuple(((r + dr, c + dc), e) for (r, c), e in a)
    if any(r < 1 or c < 1 for (r, c), _ in out):
        raise ValueError("translation moved a cell out of range")
    return out


def ref_degree(a: tuple) -> int:
    return sum(e for _, e in a)


def ref_expanded(a: tuple) -> tuple:
    return tuple(cell for cell, e in a for _ in range(e))


def ref_term_key(a: tuple):
    return (-ref_degree(a), ref_expanded(a))


def extended_cells(ext) -> frozenset[Cell]:
    """Every cell of an extended diagram, listed from its row lengths."""
    return frozenset(
        Cell(r, c)
        for r, length in enumerate(ext.row_lengths, start=1)
        for c in range(1, length + 1)
    )


def skew_cells(outer: Partition, inner: Partition) -> list[Cell]:
    """Cells of ``outer`` that are not cells of ``inner``, row-major."""
    return [cell for cell in outer.cells() if cell not in inner]


def is_upper_unitriangular(m: PolyMatrix) -> bool:
    """Square, ones on the diagonal and zeros below it: the reference
    for the packed check that certification runs."""
    return m.rows == m.cols and all(
        row[i] == Polynomial.one() and not any(row[:i])
        for i, row in enumerate(m.entries)
    )


def is_lower_unitriangular(m: PolyMatrix) -> bool:
    return is_upper_unitriangular(PolyMatrix(tuple(zip(*m.entries))))


def ref_render(p: Polynomial, naming=None) -> str:
    """Reference text form: terms in ``ref_term_key`` order, each cell
    named by ``naming`` or as ``x[r,c]``, exponents above 1 as ``^e``, and
    a coefficient of +-1 written as a bare sign."""
    if not p:
        return "0"

    def name(cell) -> str:
        return f"x[{cell[0]},{cell[1]}]" if naming is None else naming[cell]

    out = ""
    for pairs, coeff in sorted(
        ((mono.pairs, coeff) for mono, coeff in p.items()),
        key=lambda term: ref_term_key(term[0]),
    ):
        body = "".join(name(cell) + (f"^{e}" if e > 1 else "") for cell, e in pairs)
        if not body:
            piece = str(coeff)
        elif coeff in (1, -1):
            piece = ("-" if coeff < 0 else "") + body
        else:
            piece = f"{coeff}{body}"
        out += piece if not out or piece.startswith("-") else "+" + piece
    return out


def difference(left: PolyMatrix, right: PolyMatrix) -> PolyMatrix:
    """``left - right`` entry by entry, for two matrices of one shape: the
    reference for the residual that certification folds in packed form."""
    assert (left.rows, left.cols) == (right.rows, right.cols)
    return PolyMatrix(
        tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(left.entries, right.entries)
        )
    )


def cofactor_determinant(W: PolyMatrix) -> Polynomial:
    """Exact determinant by cofactor expansion with column-mask memoization,
    on ``Polynomial`` entries: the oracle for the packed elimination of
    ``determinant``, and the determinant of matrices whose trailing
    principal minors are not monomials.  Cost grows like 2**side."""
    if W.rows != W.cols:
        raise NotSquare(f"determinant of a {W.rows}x{W.cols} matrix")
    n = W.rows
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


def box_partitions(side: int) -> Iterator[Partition]:
    """Every partition inside the ``side x side`` box, C(2 side, side) of them."""
    for parts in combinations_with_replacement(range(side, -1, -1), side):
        yield Partition(tuple(p for p in parts if p))


def naive_matrix_product(left, right) -> tuple:
    """Rows of ``left @ right`` as plain sums of ``Polynomial`` products:
    the reference for the packed matrix-product kernel."""
    return tuple(
        tuple(
            sum((a * b for a, b in zip(row, col)), Polynomial.zero())
            for col in zip(*right)
        )
        for row in left
    )


def ref_chain_raises(factors) -> bool:
    """Whether the chain product of ``factors``, polynomial matrices given
    as rows, raises :class:`TooLarge` under a degree check on every pair:
    at some level, an entry of a row of the product so far and the entry
    of a column of the next factor it meets are both nonzero, and their
    top degrees sum past 65535."""
    rows = factors[0]
    for right in factors[1:]:
        if any(
            a and b and a.degree + b.degree > 65535
            for row in rows
            for col in zip(*right)
            for a, b in zip(row, col)
        ):
            return True
        rows = naive_matrix_product(rows, right)
    return False


# -- polynomial peeling replay -------------------------------------------
#
# The replay of the inductive reduction's peel plan on ``Polynomial``
# grids, as it ran before the packed replay: kept here as an oracle for it.


def _ref_identity_grid(n: int) -> list[list[Polynomial]]:
    one, zero = Polynomial.one(), Polynomial.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _ref_peel_step(grid, a: int, z: Polynomial, updates) -> None:
    for row in grid[:a]:
        for j in range(a, len(row)):
            if row[j]:
                row[j] = z * row[j]
    for row in grid:
        acc = row[a]
        for i in range(a):
            if row[i] and updates[i]:
                acc = acc + row[i] * updates[i]
        row[a] = acc


def _ref_border(grid):
    n = len(grid)
    out = _ref_identity_grid(n + 1)
    for r, row in enumerate(grid):
        total = Polynomial.zero()
        for k, entry in enumerate(row):
            out[r][k] = entry
            if entry:
                total = total + entry
        out[r][n] = -total
    return out


def ref_reduce_rectangle(lam: Partition, d: int, e: int):
    """(U, VT) of the d x e rectangle: the reduction's own peel plan,
    replayed on its part tuples with ``Polynomial`` arithmetic and
    ``weight_at``."""
    plan, parts, _, e = _peel_plan(lam.parts, d, e)
    U = [[Polynomial.one()]]
    VT = _ref_identity_grid(e)
    for j in range(e - 1):
        VT[j][e - 1] = -weight_at(parts, 1, j + 1)
    for smaller, corner in reversed(plan):
        if corner is None:
            U, VT = _ref_border(U), _ref_border(VT)
            continue
        a, b = corner
        z = variable(corner)
        if a < len(U):
            updates = [-weight_at(smaller, i + 1, b + 1) for i in range(a)]
            _ref_peel_step(U, a, z, updates)
        else:
            updates = [-weight_at(smaller, a + 1, j + 1) for j in range(b)]
            _ref_peel_step(VT, b, z, updates)
    return U, VT


def tamper_inductive(monkeypatch, field: str) -> None:
    """Make every inductive reduction return the identity in place of its
    row transform (``field="P"``) or of its column transform (``"Q"``),
    before certification sees it."""
    reduce = snf_module._reduce_rectangle

    def tampered(weights, d, e):
        U, VT = reduce(weights, d, e)
        if field == "P":
            U = snf_module._identity_grid(len(U))
        else:
            VT = snf_module._identity_grid(len(VT))
        return U, VT

    monkeypatch.setattr(snf_module, "_reduce_rectangle", tampered)


def accept_every_certification(monkeypatch) -> None:
    """Let every certification pass, so tampered transforms reach the
    callers' agreement checks."""
    monkeypatch.setattr(snf_module, "_certify", lambda *args: None)


# -- the image in Z ------------------------------------------------------------
#
# A ring is one layout class: its key format plus its two shape functions.
# This one lives only here, and the library's reductions run in it
# unchanged.


class ZLayout(PackedLayout):
    """The packed path with every variable sent to 1: the ring Z, where
    the origin weight squares are the Carlitz-Roselle-Scoville integer
    matrices of determinant 1.  Every key is 0, so a variable and a run
    of cells are 0 and translation is the identity.  A shape's weight is
    its number of subpartitions, and coefficient ``i`` of ``lam`` is
    ``(-1)^i C(lam_i, i)``, the number of sub-arrays the walk takes."""

    __slots__ = ()

    def __init__(self):
        super().__init__(1)

    def run(self, line, start, stop, transposed=False) -> int:
        return 0

    def translate(self, terms, dr, dc):
        return terms

    def weight(self, shape) -> dict[int, int]:
        return {0: boundary_walk_count(Partition(shape))}

    def coefficients(self, parts: tuple, transposed=False) -> list[dict[int, int]]:
        lengths = (0,) + parts  # lengths[i] is lam_i, and C(0, 0) = 1
        return [{0: (-1) ** i * comb(lengths[i], i)} for i in range(_rank(parts) + 1)]


def wide_border_rectangles(lam: Partition) -> list[tuple[int, int]]:
    """The border rectangles of ``lam`` at least as wide as tall."""
    return [(d, e) for d, e in sorted(lam.extended.border) if d <= e]


def z_image_certified(lam: Partition) -> int:
    """Check ``lam`` in :class:`ZLayout` on one packed weight set: both
    reductions of the origin square agree, its normal form is the
    identity, its determinant is 1, and every border rectangle at least
    as wide as tall certifies.  Returns the number of those rectangles."""
    n = lam.rank + 1
    weights = snf_module._PackedWeights(lam.parts, ZLayout())
    by_rows, by_peeling = snf_module._both(weights)
    assert by_rows.agrees_with(by_peeling), lam
    assert by_rows.diagonal == (Polynomial.one(),) * n, lam
    assert checks_module._eliminate(weights.layout, weights.grid(n, n)) == {0: 1}, lam
    wide = wide_border_rectangles(lam)
    for d, e in wide:
        snf_module._certify_inductive(weights, d, e)
    return len(wide)
