"""Shared test utilities.

Expected polynomials are written as letter strings ("abcde+bcde+c+e+1")
with the same row-major letter assignment the CLI uses, so fixtures read
exactly like the grids they pin down.
"""

from hypothesis import strategies as st

from partition_snf import (
    Cell,
    Monomial,
    Partition,
    Polynomial,
    letter_naming,
    subdiagram_shape,
)


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
        mono = Monomial.from_cells(cells[ch] for ch in token)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(terms)


def direct_weight(lam: Partition, cell) -> Polynomial:
    """Uncached reference weight: enumerate the subpartitions of the
    sub-diagram at ``cell`` and build absolute monomials directly, with no
    shape memo and no translation."""
    row, col = cell
    shape = subdiagram_shape(lam, row, col)
    terms: dict[Monomial, int] = {}
    for mu in Partition(shape).subpartitions():
        cells = []
        for r, length in enumerate(shape, start=1):
            for c in range(mu.part(r) + 1, length + 1):
                cells.append(Cell(row + r - 1, col + c - 1))
        terms[Monomial.from_cells(cells)] = 1
    return Polynomial(terms)


def partitions_strategy(max_part: int = 6, max_len: int = 5):
    return st.lists(
        st.integers(min_value=1, max_value=max_part), max_size=max_len
    ).map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))
