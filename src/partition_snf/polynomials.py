"""Exact sparse polynomial arithmetic with variables indexed by diagram cells.

Coefficients are arbitrary-precision integers.  A monomial maps cells to
positive exponents, the empty monomial being 1; a polynomial maps monomials
to nonzero coefficients, the empty map being 0.  Both are immutable and
kept in canonical form, so equality is plain structural equality.

A monomial is stored packed, one Python int per diagram row: the exponent
of column ``c`` is the 16-bit field at bit ``16 * (c - 1)`` of its row's
int, and trailing zero rows are dropped.  Multiplication then adds the row
ints pairwise, and a translation prepends zero rows and shifts each row by
whole fields.  No exponent exceeds the total degree, so capping the degree
at 65535 keeps every field from carrying into the next; a larger degree
raises :class:`TooLarge`.  The layout is private to this module: one
reader, ``_fields``, decodes a row's fields for ordering, output and
transposition, and cells are built only where they are handed out.

The heavy loops run on a second, flatter packing.  A
:class:`PackedLayout` is only the key format: it encodes each whole
monomial as a single int, the total degree in the lowest 16-bit field
and then each row at a fixed stride, and decodes keys back, handing back
the monomials it encoded.  A polynomial becomes a ``{key: coeff}`` dict
and a monomial product one integer addition at any stride, so the key
arithmetic takes no layout: :func:`times` scales by one monomial,
:func:`quotient` divides exactly by one term, :func:`fold` is the one
multiply-accumulate, and :func:`packed_product` folds each row of a
chain against each column.  :func:`pack_matrices` encodes polynomial
matrices in a layout as wide as their widest row.
The reductions pack their weight shapes, replay their peeling and
certify ``P @ W @ Q`` in one layout fixed by the partition.
:meth:`Polynomial.skew_sum` builds a weight, the sum of the skew
monomials over every sub-partition of a shape, by walking the
sub-partitions iteratively straight into packed rows.

There is no separate univariate type: a polynomial in one symbol q is a
polynomial on the single cell (1,1), q^k being the monomial x[1,1]^k.
The packed path reaches Z[q] through a second key format, ``_QLayout``,
whose keys are those ``PackedLayout(1)`` gives the powers of x[1,1].
Encoding in it sends every variable to q.  It carries the Z[q] shape
functions: a shape's weight, packed by ``_q_weight`` straight from the
subpartition-counting dynamic program, and its row coefficients in
closed form.  So the staircase reductions run on the same kernels in
Z[q] without enumerating a multivariate weight.

The canonical term order used for rendering and serialization is graded
lex: degree descending, then the row-major exponent vector, larger first.
With row-major letter names this reproduces forms like
``abcde+bcde+bce+cde+ce+de+c+e+1`` verbatim.  Output prints the fields
decoded for the sort, so each monomial is decoded once per output.
"""

from __future__ import annotations

from operator import add
from struct import unpack
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NameCollision, TooLarge, VerificationFailed
from .partitions import Cell, _complement_areas, _rank

__all__ = [
    "Monomial",
    "Polynomial",
    "render",
    "letter_naming",
    "polynomial_to_json",
    "polynomial_from_json",
]

_FIELD = 16
_MASK = (1 << _FIELD) - 1
# Every exponent is at most the total degree, so this cap keeps each
# exponent inside its field.
_MAX_DEGREE = _MASK


def _degree_error(degree: int) -> TooLarge:
    return TooLarge(f"monomial degree {degree} exceeds the limit {_MAX_DEGREE}")


def _shift_error(dr: int, dc: int) -> ValueError:
    return ValueError(f"translation by ({dr}, {dc}) must be nonnegative")


_new = object.__new__


# Monomials hash as ``(degree, rows)``.  Python hashes ints modulo
# 2**61 - 1, and 2**(16 * 61) is 1 modulo it, so a row's hash alone maps
# column c + 61 onto column c, and runs of one row that end at the same
# column and differ in length by 61 cells hash alike.  Their degrees
# differ, which tells them apart.
def _packed(rows: tuple[int, ...], degree: int) -> "Monomial":
    m = _new(Monomial)
    m._rows = rows
    m._degree = degree
    m._hash = hash((degree, rows))
    return m


def _run(length: int) -> int:
    """Packed row with exponent 1 in the first ``length`` fields."""
    return ((1 << (_FIELD * length)) - 1) // _MASK


def _fields(row: int) -> tuple[int, ...]:
    """A row's exponents up to its last nonzero one, read from its bytes."""
    width = (row.bit_length() + _FIELD - 1) // _FIELD
    return unpack(f"<{width}H", row.to_bytes(2 * width, "little"))


def _nonzero(rows: Iterable[tuple[int, ...]]) -> Iterator[list[int]]:
    """``[row, col, exponent]`` of each nonzero field of decoded ``rows``."""
    for r, fields in enumerate(rows, start=1):
        for c, exp in enumerate(fields, start=1):
            if exp:
                yield [r, c, exp]


class Monomial:
    """Product of cell variables with positive integer exponents."""

    __slots__ = ("_rows", "_degree", "_hash")

    def __init__(self, pairs: Iterable[tuple[Cell, int]] | Mapping[Cell, int] = ()):
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        rows: list[int] = []
        degree = 0
        for cell, exp in items:
            exp = int(exp)
            if exp == 0:
                continue
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for {cell}")
            cell = Cell(int(cell[0]), int(cell[1]))
            if cell.row < 1 or cell.col < 1:
                raise ValueError(f"cell coordinates must be >= 1, got {cell}")
            degree += exp
            if degree > _MAX_DEGREE:
                raise _degree_error(degree)
            if len(rows) < cell.row:
                rows.extend([0] * (cell.row - len(rows)))
            rows[cell.row - 1] += exp << (_FIELD * (cell.col - 1))
        self._rows = tuple(rows)
        self._degree = degree
        self._hash = hash((degree, self._rows))

    @classmethod
    def skew(cls, outer: Sequence[int], inner: Sequence[int] = ()) -> "Monomial":
        """One variable on each cell of the skew diagram ``outer/inner``,
        both anchored at (1,1): row ``r`` covers columns
        ``inner[r-1] + 1 .. outer[r-1]``, ``inner`` padded with zeros."""
        rows = []
        degree = 0
        for r, length in enumerate(outer):
            start = inner[r] if r < len(inner) else 0
            if start > length:
                raise ValueError(
                    f"row {r + 1} of {tuple(inner)} exceeds {tuple(outer)}"
                )
            degree += length - start
            if degree > _MAX_DEGREE:
                raise _degree_error(degree)
            rows.append(_run(length - start) << (_FIELD * start))
        while rows and not rows[-1]:
            rows.pop()
        return _packed(tuple(rows), degree)

    @property
    def pairs(self) -> tuple[tuple[Cell, int], ...]:
        """``(cell, exponent)`` pairs in row-major cell order."""
        return tuple(
            (Cell(r, c), exp) for r, c, exp in _nonzero(map(_fields, self._rows))
        )

    @property
    def degree(self) -> int:
        return self._degree

    def __mul__(self, other) -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        a, b = self._rows, other._rows
        if not a:
            return other
        if not b:
            return self
        degree = self._degree + other._degree
        if degree > _MAX_DEGREE:
            raise _degree_error(degree)
        if len(a) < len(b):
            a, b = b, a
        return _packed(tuple(map(add, a, b)) + a[len(b):], degree)

    def translate(self, dr: int, dc: int) -> "Monomial":
        """Every cell moved down ``dr`` rows and right ``dc`` columns, both >= 0."""
        if dr < 0 or dc < 0:
            raise _shift_error(dr, dc)
        rows = self._rows
        if not rows:
            return self
        if dc:
            rows = tuple(x << (_FIELD * dc) for x in rows)
        return _packed((0,) * dr + rows, self._degree)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._rows:
            return "Monomial(1)"
        body = "*".join(
            _coordinate_name(c) + (f"^{e}" if e > 1 else "") for c, e in self.pairs
        )
        return f"Monomial({body})"


def _term_key(mono: Monomial):
    """``(degree, field tuple per row)``, graded lex when sorted descending:
    rows and monomials end in nonzero fields, so tuples compare like vectors."""
    return (mono._degree, tuple(map(_fields, mono._rows)))


def _sorted_terms(poly: "Polynomial") -> list:
    """``(key, coeff)`` for each term of ``poly``, in canonical order."""
    return sorted([(_term_key(m), c) for m, c in poly._terms.items()], reverse=True)


class Polynomial:
    """Immutable sparse polynomial over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(mono, Monomial):
                    raise TypeError(f"term keys must be Monomial, got {type(mono)!r}")
                coeff = int(coeff)
                if coeff:
                    clean[mono] = coeff
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({Monomial(): int(value)})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: int = 1) -> "Polynomial":
        return cls({mono: coeff})

    @classmethod
    def skew_sum(cls, outer: Sequence[int]) -> "Polynomial":
        """Sum of ``Monomial.skew(outer, mu)`` over every partition ``mu``
        inside ``outer``, each with coefficient 1; ``outer`` has positive
        parts.

        The sub-partitions are walked iteratively, last row fastest, and
        each term is built straight from packed row runs; the cost is
        linear in terms times rows.
        """
        outer = tuple(outer)
        if any(p < 1 for p in outer):
            raise ValueError(f"parts of {outer} must be positive")
        degree = sum(outer)
        if degree > _MAX_DEGREE:
            raise _degree_error(degree)
        n = len(outer)
        runs = [_run(s) for s in range(max(outer, default=0) + 1)]
        full = [runs[p] for p in outer]
        # rows[r] is row r of the current term: the run of outer[r] fields
        # with the first mu[r] of them cleared.  mu[:k] is nonzero and
        # mu[k:] zero, so rows from k on are full and none after k can grow.
        mu = [0] * n
        rows = list(full)
        k = 0
        terms: dict[Monomial, int] = {}
        while True:
            if k < n:
                key = tuple(rows)
            else:
                last = n
                while last and not rows[last - 1]:
                    last -= 1
                key = tuple(rows[:last])
            terms[_packed(key, degree)] = 1
            # Advance to the next mu: raise the last row that may grow and
            # empty every row below it.
            r = min(k, n - 1)
            while r >= 0 and mu[r] >= (
                outer[r] if r == 0 else min(outer[r], mu[r - 1])
            ):
                r -= 1
            if r < 0:
                break
            s = mu[r] = mu[r] + 1
            rows[r] = full[r] - runs[s]
            degree -= 1
            for t in range(r + 1, k):
                degree += mu[t]
                mu[t] = 0
                rows[t] = full[t]
            k = r + 1
        return _polynomial(terms)

    @classmethod
    def _promote(cls, value):
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return cls.constant(value)
        return None

    # -- inspection -------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in no particular order."""
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Maximal total degree, 0 for the zero polynomial."""
        return max((m.degree for m in self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = Polynomial._promote(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return _polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = Polynomial._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = Polynomial._promote(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return _polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict[Monomial, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 * m2
                c = terms.get(m, 0) + c1 * c2
                if c:
                    terms[m] = c
                else:
                    terms.pop(m, None)
        return _polynomial(terms)

    __rmul__ = __mul__

    # -- ring maps -----------------------------------------------------------

    def translate(self, dr: int, dc: int) -> "Polynomial":
        if dr < 0 or dc < 0:
            raise _shift_error(dr, dc)
        if not (dr or dc):
            return self
        return _polynomial({m.translate(dr, dc): c for m, c in self._terms.items()})

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int.
        if not self.degree:
            return hash(sum(self._terms.values()))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({render(self)})"


def _polynomial(terms: dict[Monomial, int]) -> Polynomial:
    """A polynomial on ``terms``, which hold no zero coefficient."""
    poly = Polynomial.__new__(Polynomial)
    poly._terms = terms
    return poly


_ZERO = Polynomial()
_ONE = Polynomial({Monomial(): 1})


_degree_field = _MASK.__and__


def _top(terms: dict[int, int]) -> int:
    """Top total degree of a packed polynomial, 0 for zero."""
    return max(map(_degree_field, terms), default=0)


def _check_degree(degree: int) -> None:
    # A packed product passes its factors' summed top degrees, as
    # Monomial.__mul__ checks them, so it fails exactly where the unpacked
    # one would have; a reduction's weights pass the partition's size.
    if degree > _MAX_DEGREE:
        raise _degree_error(degree)


def times(terms: dict[int, int], key: int) -> dict[int, int]:
    """Packed ``terms`` multiplied by the monomial with key ``key``."""
    _check_degree(_top(terms) + (key & _MASK))
    return {k + key: c for k, c in terms.items()}


def quotient(terms: dict[int, int], divisor: dict[int, int]) -> dict[int, int]:
    """Packed ``terms`` divided exactly by the one-term packed ``divisor``,
    at any stride.  Raises :class:`VerificationFailed` when a coefficient
    leaves a remainder or a key subtraction borrows across a field: the
    key goes negative or its fields stop summing to its degree."""
    ((key, coeff),) = divisor.items()
    out = {}
    for k, c in terms.items():
        k -= key
        if c % coeff or k < 0 or sum(_fields(k >> _FIELD)) != k & _MASK:
            raise VerificationFailed("division by a term is not exact")
        out[k] = c // coeff
    return out


def fold(base: dict[int, int], products) -> dict[int, int]:
    """``base`` plus the sum of ``a * b`` over the ``(a, b)`` pairs of
    packed polynomials in ``products``: the one multiply-accumulate of the
    packed path.  A term product is one key addition, and terms that
    cancel are removed.  ``base`` is never changed; it is returned itself
    when every pair has a zero side."""
    acc = None
    for a, b in products:
        if a and b:
            _check_degree(_top(a) + _top(b))
            if acc is None:
                acc = dict(base)
                get = acc.get
            for ka, ca in a.items():
                for kb, cb in b.items():
                    key = ka + kb
                    c = get(key, 0) + ca * cb
                    if c:
                        acc[key] = c
                    else:
                        del acc[key]
    return base if acc is None else acc


# The packed 1 and -1 of every layout: the empty monomial's key is 0 at
# any stride.  Sharing them is safe, as no packed operation changes its
# inputs: fold copies its base, and times and translate build new dicts.
PACKED_ONE = {0: 1}
PACKED_MINUS_ONE = {0: -1}


class PackedLayout:
    """The key format of the packed path: one int key per monomial, for
    monomials at most ``width`` columns wide, and polynomials as
    ``{key: coeff}`` dicts with no zero coefficient (``{}`` is 0).

    A key holds the total degree in its lowest 16-bit field, then row
    ``r`` of the monomial at bit ``16 + (r - 1) * stride``, where
    ``stride`` is ``width`` fields.  Only encoding, decoding, translation
    and run keys depend on the stride.  Multiplying two
    monomials adds their keys at any stride, so :func:`times`,
    :func:`fold` and :func:`packed_product` take no layout.  No field carries while the
    total degree stays at most 65535, and those functions raise
    :class:`TooLarge` before a product could pass it.  Every monomial
    encoded is remembered, so decoding hands back the monomials encoded
    and rebuilds only keys the layout has not seen.
    """

    __slots__ = ("stride", "_monomials")

    def __init__(self, width: int):
        self.stride = _FIELD * max(1, width)
        self._monomials: dict[int, Monomial] = {}

    def encode(self, poly: Polynomial) -> dict[int, int]:
        # The rows' bytes at a fixed step, read as one int: linear in the
        # row count, where a sum of shifted rows would be quadratic.
        step = self.stride // 8
        terms = poly._terms
        keys = [
            int.from_bytes(
                b"".join([row.to_bytes(step, "little") for row in mono._rows]),
                "little",
            )
            << _FIELD
            | mono._degree
            for mono in terms
        ]
        self._monomials.update(zip(keys, terms))
        return dict(zip(keys, terms.values()))

    def run(self, line: int, start: int, stop: int, transposed: bool = False) -> int:
        """The key of the product of the variables on columns ``start + 1
        .. stop`` of row ``line``, or, when ``transposed``, on rows
        ``start + 1 .. stop`` of column ``line``.  Keys of runs in distinct
        rows add up to the key of their product; the caller keeps its
        degree within the limit."""
        along, across = (self.stride, _FIELD) if transposed else (_FIELD, self.stride)
        body = ((1 << along * stop) - (1 << along * start)) // ((1 << along) - 1)
        return body << (_FIELD + (line - 1) * across) | (stop - start)

    def decode(self, terms: dict[int, int]) -> Polynomial:
        if not terms:
            return _ZERO
        known = self._monomials.get
        return _polynomial({known(k) or self._monomial(k): c for k, c in terms.items()})

    def _monomial(self, key: int) -> Monomial:
        # Cut the rows out of the key's bytes: linear in its width.
        body = key >> _FIELD
        data = body.to_bytes((body.bit_length() + 7) // 8, "little")
        step = self.stride // 8
        rows = tuple(
            int.from_bytes(data[i : i + step], "little")
            for i in range(0, len(data), step)
        )
        mono = self._monomials[key] = _packed(rows, key & _MASK)
        return mono

    def translate(self, terms: dict[int, int], dr: int, dc: int) -> dict[int, int]:
        """Every cell moved down ``dr`` rows and right ``dc`` columns, both
        at least 0, by one shift of each key; the moved rows must still
        fit the layout's width."""
        if dr < 0 or dc < 0:
            raise _shift_error(dr, dc)
        shift = dr * self.stride + dc * _FIELD
        out = {}
        for key, coeff in terms.items():
            degree = key & _MASK
            out[(key ^ degree) << shift | degree] = coeff
        return out


# The key of q in a _QLayout; q^k is k times it while k fits its field.
_Q = 1 | 1 << _FIELD


def _q_weight(shape: Sequence[int]) -> dict[int, int]:
    """The weight of ``shape`` anchored at (1,1) with every variable sent
    to q, ``sum(q^(|shape| - |nu|) for nu inside shape)``, packed in a
    :class:`_QLayout` from the counting program, not from its terms.

    A shape past the degree limit raises :class:`TooLarge` before the
    program runs: its top power would carry out of the q field."""
    _check_degree(sum(shape))
    # No coefficient is 0: removing corners one by one passes every size.
    return {k * _Q: c for k, c in enumerate(_complement_areas(shape))}


class _QLayout(PackedLayout):
    """The key format of the packed path in Z[q]: ``PackedLayout(1)``'s
    keys of the powers of x[1,1], read as powers of q, with every
    variable sent to q.

    Encoding adds up the coefficients of each total degree, which is the
    ring map sending every variable to q; so a reduction replayed and
    certified in this layout is the image in Z[q] of the multivariate
    one.  Every cell is q wherever it lies, so translation is the
    identity, a run of k cells is q^k, and decoding is
    ``PackedLayout(1)``'s.  Its shape functions count a shape's weight
    and give its row coefficients in closed form.
    """

    __slots__ = ()

    weight = staticmethod(_q_weight)

    def __init__(self):
        super().__init__(1)

    def coefficients(self, parts: tuple, transposed=False) -> list[dict[int, int]]:
        """The signed row coefficients of every index 0..rank of ``parts``,
        where transposing changes nothing: coefficient ``i`` is ``q^low *
        [lam_i choose i]_q``, the q-weight of the ``i x (lam_i - i)`` box
        counting the walk's sub-arrays by their cells, with ``low = lam_1 +
        ... + lam_i - i(i + 1)/2 - i(lam_i - i)`` the empty one's degree."""
        keys = [{0: 1}]
        for i in range(1, _rank(parts) + 1):
            width = parts[i - 1] - i
            low = (sum(parts[:i]) - i * (i + 1) // 2 - i * width) * _Q
            sign = (-1) ** i
            keys.append({k + low: sign * c for k, c in _q_weight((width,) * i).items()})
        return keys

    def encode(self, poly: Polynomial) -> dict[int, int]:
        terms: dict[int, int] = {}
        for mono, coeff in poly._terms.items():
            key = mono._degree * _Q
            terms[key] = terms.get(key, 0) + coeff
        return {k: c for k, c in terms.items() if c}

    def run(self, line: int, start: int, stop: int, transposed: bool = False) -> int:
        return (stop - start) * _Q

    def translate(self, terms: dict[int, int], dr: int, dc: int) -> dict[int, int]:
        # The same dict: no packed operation changes its inputs.
        return terms


def packed_product(
    *factors: Sequence[Sequence[dict[int, int]]],
) -> list[list[dict[int, int]]]:
    """Rows of the chain product ``factors[0] @ factors[1] @ ...`` of
    packed matrices in one layout, each factor given as rows; the caller
    checks that adjacent dimensions agree and that the layout is as wide
    as the widest row anywhere in the chain.

    A product never widens a row, so the intermediate products stay
    packed.  Each entry is one :func:`fold` of a row against a column.
    """
    rows = factors[0]
    for right in factors[1:]:
        cols = list(zip(*right))
        rows = [[fold({}, zip(row, col)) for col in cols] for row in rows]
    return rows


def pack_matrices(
    *matrices: Sequence[Sequence[Polynomial]],
) -> tuple[PackedLayout, list[list[list[dict[int, int]]]]]:
    """A layout as wide as the widest row of any term of ``matrices``, each
    given as rows of polynomials, and the matrices packed in it; every
    distinct entry is encoded once."""
    distinct = {id(poly): poly for matrix in matrices for row in matrix for poly in row}
    widest = max(
        (r for poly in distinct.values() for mono in poly._terms for r in mono._rows),
        default=0,
    )
    layout = PackedLayout(-(-widest.bit_length() // _FIELD))
    encoded = {ident: layout.encode(poly) for ident, poly in distinct.items()}
    return layout, [
        [[encoded[id(poly)] for poly in row] for row in matrix] for matrix in matrices
    ]


def _coordinate_name(cell) -> str:
    return f"x[{cell[0]},{cell[1]}]"


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def letter_naming(cells: Iterable[Cell]) -> dict[Cell, str]:
    """Single letters a, b, c, ... assigned to cells in the order given.

    Raises :class:`NameCollision` when more than 26 distinct cells need
    names, rather than inventing ambiguous multi-letter labels.
    """
    naming: dict[Cell, str] = {}
    for cell in cells:
        cell = Cell(*cell)
        if cell in naming:
            continue
        if len(naming) == len(_LETTERS):
            raise NameCollision("more than 26 variables; letter naming is ambiguous")
        naming[cell] = _LETTERS[len(naming)]
    return naming


def render(poly: Polynomial, naming: Mapping[Cell, str] | None = None) -> str:
    """Canonical text form of a polynomial.

    Terms appear in graded lex order; a coefficient of +-1 is rendered as
    a bare sign, exponents above 1 as ``name^e``.  Each cell is named, by
    ``naming`` or as ``x[r,c]``, when a term first meets it; ``naming``
    must be injective over those cells.
    """
    if poly.is_zero:
        return "0"
    name_of = _coordinate_name if naming is None else naming.__getitem__
    names: dict[Cell, str] = {}
    pieces = []
    for (_, rows), coeff in _sorted_terms(poly):
        body = "".join(
            (names.get((r, c)) or names.setdefault(Cell(r, c), name_of(Cell(r, c))))
            + (f"^{exp}" if exp > 1 else "")
            for r, c, exp in _nonzero(rows)
        )
        if body and coeff in (1, -1):
            pieces.append(body if coeff == 1 else "-" + body)
        else:
            pieces.append(f"{coeff}{body}")
    if len(set(names.values())) != len(names):
        raise NameCollision(f"naming is not injective over {sorted(names)}")
    return "+".join(pieces).replace("+-", "-")


def polynomial_to_json(poly: Polynomial) -> list:
    """Canonically ordered term list; coefficients as decimal strings."""
    return [
        {"coeff": str(coeff), "monomial": list(_nonzero(rows))}
        for (_, rows), coeff in _sorted_terms(poly)
    ]


def _polynomial_json(poly: Polynomial, level: int) -> str:
    """``json.dumps(polynomial_to_json(poly), indent=2)`` as it reads
    nested ``level`` lists or dicts deep, built from the sorted terms with
    one template per term and per ``[row, col, exp]`` triple."""
    if not poly._terms:
        return "[]"
    n0, n1, n2, n3, n4 = ("\n" + "  " * (level + k) for k in range(5))
    triple = f"[{n4}%d,{n4}%d,{n4}%d{n3}]"
    term = f'{{{n2}"coeff": "%s",{n2}"monomial": %s{n1}}}'
    sep = "," + n3
    terms = []
    for (_, rows), coeff in _sorted_terms(poly):
        body = sep.join([triple % tuple(t) for t in _nonzero(rows)])
        terms.append(term % (coeff, f"[{n3}{body}{n2}]" if body else "[]"))
    return f"[{n1}" + f",{n1}".join(terms) + f"{n0}]"


def polynomial_from_json(data: list) -> Polynomial:
    terms: dict[Monomial, int] = {}
    for item in data:
        mono = Monomial(tuple((Cell(r, c), e) for r, c, e in item["monomial"]))
        terms[mono] = terms.get(mono, 0) + int(item["coeff"])
    return Polynomial(terms)
