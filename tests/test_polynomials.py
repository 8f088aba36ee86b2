import json
import random
from operator import lshift

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_snf import (
    Cell,
    Monomial,
    NameCollision,
    Partition,
    PartitionSnfError,
    PolyMatrix,
    Polynomial,
    TooLarge,
    VerificationFailed,
    all_partitions,
    letter_naming,
    polynomial_from_json,
    polynomial_to_json,
    q_coefficients,
    render,
    render_q,
)
from partition_snf.polynomials import (
    PackedLayout,
    _polynomial_json,
    _QLayout,
    _term_key,
    fold,
    pack_matrices,
    packed_product,
    quotient,
    times,
)

from helpers import (
    evaluate_at_ones,
    from_cells,
    naive_matrix_product,
    poly,
    q_poly,
    q_power,
    ref_degree,
    ref_monomial,
    ref_mul,
    ref_render,
    ref_term_key,
    ref_translate,
    skew_cells,
    subpartitions,
    substitute_uniform,
    variable,
)

LAM = Partition((3, 2))

GRID_CELLS = [Cell(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]


def random_poly(rng, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(
            {
                cell: rng.randint(1, max_exp)
                for cell in rng.sample(GRID_CELLS, rng.randint(0, 3))
            }
        )
        terms[mono] = rng.randint(-9, 9)
    return Polynomial(terms)


class TestMonomial:
    def test_empty_is_one(self):
        assert Polynomial.from_monomial(Monomial()) == Polynomial.one()
        assert Monomial().degree == 0

    def test_merge_and_order(self):
        m = Monomial([(Cell(2, 1), 1), (Cell(1, 2), 2), (Cell(2, 1), 1)])
        assert m.pairs == ((Cell(1, 2), 2), (Cell(2, 1), 2))
        assert m.degree == 4

    def test_mul(self):
        a = from_cells([Cell(1, 1)])
        b = from_cells([Cell(1, 1)]) * from_cells([Cell(2, 2)])
        assert (a * b).pairs == ((Cell(1, 1), 2), (Cell(2, 2), 1))

    def test_translate(self):
        m = from_cells([Cell(1, 2), Cell(2, 1)])
        assert m.translate(1, 1).pairs == ((Cell(2, 3), 1), (Cell(3, 2), 1))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Monomial([(Cell(1, 1), -1)])

    def test_suffix_runs_hash_apart(self):
        # A row's int hash maps column c + 61 onto column c; the degree in
        # the hash keeps the suffix runs of one long row apart.
        runs = [Monomial.skew((263,), (s,)) for s in range(264)]
        assert len({hash(m) for m in runs}) == 264


# Rows up to 20 and columns up to 300 make rows span many 16-bit fields;
# exponents up to 40 exercise multi-bit fields.
CELLS = st.tuples(st.integers(1, 20), st.integers(1, 300))
PAIRS = st.lists(st.tuples(CELLS, st.integers(1, 40)), max_size=8)


class TestPackedAgainstPairReference:
    """The packed monomial agrees with the sorted pair-tuple merge."""

    @given(PAIRS, PAIRS)
    @settings(max_examples=200)
    def test_mul(self, a, b):
        ra, rb = ref_monomial(a), ref_monomial(b)
        prod = Monomial(a) * Monomial(b)
        expected = ref_mul(ra, rb)
        assert prod.pairs == expected
        assert prod.degree == ref_degree(expected)
        assert prod == Monomial(expected)
        assert hash(prod) == hash(Monomial(expected))

    @given(PAIRS, st.integers(0, 20), st.integers(0, 300))
    @settings(max_examples=300)
    def test_translate(self, a, dr, dc):
        ref = ref_monomial(a)
        m = Monomial(a)
        expected = ref_translate(ref, dr, dc)
        moved = m.translate(dr, dc)
        assert moved.pairs == expected
        assert moved.degree == m.degree
        assert moved == Monomial(expected)
        assert hash(moved) == hash(Monomial(expected))

    @given(PAIRS, st.integers(-20, 20), st.integers(-300, 300))
    def test_any_negative_shift_raises(self, a, dr, dc):
        # Translation moves cells right and down only, even when every
        # cell would stay in range, and even for 1 and 0.
        assume(dr < 0 or dc < 0)
        with pytest.raises(ValueError):
            Monomial(a).translate(dr, dc)
        with pytest.raises(ValueError):
            Polynomial.from_monomial(Monomial(a), 3).translate(dr, dc)
        with pytest.raises(ValueError):
            Polynomial.zero().translate(dr, dc)

    @given(PAIRS)
    def test_negative_shift_out_of_range_raises(self, a):
        m = Monomial(a)
        if m == Monomial():
            return
        (r, c), _ = m.pairs[0]
        with pytest.raises(ValueError):
            m.translate(-r, 0)
        low = min(col for (_, col), _ in m.pairs)
        with pytest.raises(ValueError):
            m.translate(0, -low)

    @given(PAIRS)
    # A row of 4000 columns, with gaps, next to a short second row: decoding
    # must stay linear in the row's width.
    @example([((1, c), c % 5) for c in range(1, 4001)] + [((2, 3), 7)])
    # A 1200-row column next to one wide row: many one-field rows and one
    # row 500 fields wide.
    @example(
        [((r, 1), 1) for r in range(1, 1201)] + [((9, c), c % 4) for c in range(2, 501)]
    )
    def test_degree_and_pairs(self, a):
        ref = ref_monomial(a)
        m = Monomial(a)
        assert m.pairs == ref
        assert m.degree == ref_degree(ref)

    @given(PAIRS, PAIRS)
    def test_hash_and_equality(self, a, b):
        ma, mb = Monomial(a), Monomial(b)
        assert (ma == mb) == (ref_monomial(a) == ref_monomial(b))
        if ma == mb:
            assert hash(ma) == hash(mb)
        # Insertion order and splitting an exponent do not matter.
        split = [(cell, 1) for cell, e in reversed(a) for _ in range(e)]
        assert Monomial(split) == ma
        assert hash(Monomial(split)) == hash(ma)

    @given(st.lists(PAIRS, max_size=8))
    def test_term_key_order(self, many):
        monos = [Monomial(a) for a in many]
        got = [m.pairs for m in sorted(monos, key=_term_key, reverse=True)]
        want = sorted((ref_monomial(a) for a in many), key=ref_term_key)
        assert got == want

    @given(st.lists(PAIRS, max_size=8))
    # Monomials whose fields read alike when their rows are run together:
    # x[1,1]x[2,2] against x[1,1]x[1,3], and x[1,1]x[2,1] against x[1,1]x[1,2].
    @example([[((1, 1), 1), ((2, 2), 1)], [((1, 1), 1), ((1, 3), 1)]])
    @example([[((1, 1), 1), ((2, 1), 1)], [((1, 1), 1), ((1, 2), 1)]])
    def test_term_key_is_graded_lex(self, many):
        # Graded lex on dense exponent vectors over the whole 20 x 300
        # grid, row-major: degree first, then the larger vector first.
        def dense(a):
            vector = [0] * (20 * 300)
            for (r, c), e in ref_monomial(a):
                vector[(r - 1) * 300 + c - 1] = e
            return (sum(vector), vector)

        monos = [Monomial(a) for a in many]
        got = [m.pairs for m in sorted(monos, key=_term_key, reverse=True)]
        assert got == [ref_monomial(a) for a in sorted(many, key=dense, reverse=True)]


# Up to 6 rows of up to 400 columns: wide, multi-row monomials.
WIDE = st.lists(
    st.tuples(st.tuples(st.integers(1, 6), st.integers(1, 400)), st.integers(1, 40)),
    min_size=1,
    max_size=30,
)


class TestJsonAgainstPairReference:
    @given(st.lists(st.tuples(WIDE, st.integers(-5, 5)), max_size=8))
    def test_terms_in_reference_order(self, terms):
        p = Polynomial.zero()
        for a, coeff in terms:
            p = p + Polynomial.from_monomial(Monomial(a), coeff)
        ordered = sorted(p.items(), key=lambda term: ref_term_key(term[0].pairs))
        assert polynomial_to_json(p) == [
            {
                "coeff": str(coeff),
                "monomial": [[cell.row, cell.col, e] for cell, e in mono.pairs],
            }
            for mono, coeff in ordered
        ]


class TestSkew:
    def test_matches_cells_for_small_shapes(self):
        for shape in all_partitions(8):
            for mu in subpartitions(shape):
                assert Monomial.skew(shape.parts, mu.parts) == from_cells(
                    skew_cells(shape, mu)
                )

    def test_matches_cells_for_long_row(self):
        row = Partition((300,))
        for mu in subpartitions(row):
            skew = Monomial.skew(row.parts, mu.parts)
            assert skew == from_cells(skew_cells(row, mu))
            assert skew.degree == 300 - sum(mu.parts)

    def test_full_shape_and_rejected_inner(self):
        assert Monomial.skew((2, 1)) == from_cells(Partition((2, 1)).cells())
        assert Monomial.skew((2, 1), (2, 1)) == Monomial()
        with pytest.raises(ValueError):
            Monomial.skew((2, 1), (3,))

    def test_degree_limit_checked_before_a_row_is_built(self):
        # A row this long could not be built at all: the limit must be
        # checked before its run of exponents is.
        with pytest.raises(TooLarge):
            Monomial.skew((10**20,))


class TestSkewSum:
    """``Polynomial.skew_sum`` equals the sum of skew monomials over the
    enumerated subpartitions."""

    @staticmethod
    def oracle(shape: Partition) -> Polynomial:
        return Polynomial(
            {Monomial.skew(shape.parts, mu.parts): 1 for mu in subpartitions(shape)}
        )

    def test_every_shape_up_to_size_10(self):
        for shape in all_partitions(10):
            assert Polynomial.skew_sum(shape.parts) == self.oracle(shape), shape

    @pytest.mark.parametrize("parts", [(300,), (40, 40, 40)])
    def test_long_and_wide_shapes(self, parts):
        assert Polynomial.skew_sum(parts) == self.oracle(Partition(parts))

    def test_empty_shape_is_one(self):
        assert Polynomial.skew_sum(()) == Polynomial.one()

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Polynomial.skew_sum((2, 0))

    def test_degree_limit(self):
        with pytest.raises(TooLarge):
            Polynomial.skew_sum((65536,))


def sum_of_terms(terms) -> Polynomial:
    return sum(
        (Polynomial.from_monomial(Monomial(a), c) for a, c in terms), Polynomial.zero()
    )


# Entries are 0, 1, or a few terms with coefficients that may cancel.
ENTRY = st.one_of(
    st.just(Polynomial.zero()),
    st.just(Polynomial.one()),
    st.lists(st.tuples(PAIRS, st.integers(-3, 3)), min_size=1, max_size=3).map(
        sum_of_terms
    ),
)


def x_power(e: int) -> Polynomial:
    return Polynomial.from_monomial(Monomial({Cell(1, 1): e}))


@st.composite
def operands(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    pool = draw(st.lists(ENTRY, min_size=1, max_size=4))
    # Entries come from a small pool, each possibly negated, so sums of
    # products often cancel to zero.
    entry = st.tuples(st.sampled_from(pool), st.booleans()).map(
        lambda pair: -pair[0] if pair[1] else pair[0]
    )
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return left, right


@st.composite
def chain_operands(draw):
    # Three factors, entries drawn as in operands(): a small pool with
    # random negation, so sums of products often cancel.
    dims = [draw(st.integers(1, 3)) for _ in range(4)]
    pool = draw(st.lists(ENTRY, min_size=1, max_size=4))
    entry = st.tuples(st.sampled_from(pool), st.booleans()).map(
        lambda pair: -pair[0] if pair[1] else pair[0]
    )
    def matrix(rows, cols):
        row = st.lists(entry, min_size=cols, max_size=cols)
        return st.lists(row, min_size=rows, max_size=rows)

    return [draw(matrix(rows, cols)) for rows, cols in zip(dims, dims[1:])]


def chain_product(*factors):
    """Rows of ``factors[0] @ factors[1] @ ...`` by the chain that
    ``PolyMatrix @`` runs: pack_matrices, packed_product, then decode."""
    layout, packed = pack_matrices(*factors)
    return tuple(tuple(map(layout.decode, row)) for row in packed_product(*packed))


class TestMatrixProduct:
    """The packed matrix-product kernel agrees with summed polynomial
    products."""

    @given(operands())
    @settings(max_examples=200)
    def test_matches_naive_product(self, ops):
        left, right = ops
        got = chain_product(left, right)
        assert got == naive_matrix_product(left, right)
        for row in got:
            for entry in row:
                assert all(coeff for _, coeff in entry.items())
                for mono, _ in entry.items():
                    rebuilt = Monomial(mono.pairs)
                    assert mono == rebuilt
                    assert hash(mono) == hash(rebuilt)
                    assert mono.degree == rebuilt.degree

    @given(chain_operands())
    @settings(max_examples=150)
    def test_chain_matches_naive_products(self, factors):
        a, b, c = factors
        got = chain_product(a, b, c)
        assert got == naive_matrix_product(naive_matrix_product(a, b), c)
        for row in got:
            for entry in row:
                for mono, _ in entry.items():
                    rebuilt = Monomial(mono.pairs)
                    assert mono == rebuilt and hash(mono) == hash(rebuilt)

    def test_chain_degree_guard_on_intermediate(self):
        # The middle product reaches degree 65535; one more factor of x
        # must raise, as (A @ B) @ C does.
        a, b, x = [[x_power(40000)]], [[x_power(25535)]], [[x_power(1)]]
        assert chain_product(a, b, [[Polynomial.one()]]) == ((x_power(65535),),)
        with pytest.raises(TooLarge):
            chain_product(a, b, x)

    def test_cancellation_to_zero(self):
        x = variable((1, 300)) + variable((20, 1))
        got = chain_product([[x, -x]], [[x], [x]])
        assert got == ((Polynomial.zero(),),)
        assert got[0][0].is_zero

    def test_non_square(self):
        a = variable((1, 2))
        b = variable((3, 1))
        zero, one = Polynomial.zero(), Polynomial.one()
        got = chain_product([[a, one + b]], [[b, zero, one], [a, a, zero]])
        assert got == ((a * b + a + a * b, a + a * b, a),)

    def test_degree_guard(self):
        with pytest.raises(TooLarge):
            PolyMatrix(((x_power(40000),),)) @ PolyMatrix(((x_power(25536),),))
        top = PolyMatrix(((x_power(40000),),)) @ PolyMatrix(((x_power(25535),),))
        assert top.entries == ((x_power(65535),),)

    def test_zero_opposite_high_degree_does_not_raise(self):
        x, zero = x_power(1), Polynomial.zero()
        got = chain_product([[x_power(40000), x]], [[zero], [x_power(25536)]])
        assert got == ((x_power(25537),),)
        got = chain_product([[zero, x]], [[x_power(65535)], [x]])
        assert got == ((x_power(2),),)


# Monomials given row by row, each row a list of exponents, either a few
# rows or hundreds of them.
ROW_EXPONENTS = st.lists(st.integers(0, 3), max_size=4)
MONOMIAL_ROWS = st.one_of(st.integers(1, 8), st.integers(200, 260)).flatmap(
    lambda height: st.lists(ROW_EXPONENTS, min_size=height, max_size=height)
)


def shift_sum_key(layout: PackedLayout, mono: Monomial) -> int:
    """A monomial's key as the sum of its rows shifted into place: the
    quadratic formula the byte-built key replaced."""
    rows = mono._rows
    shifts = range(16, 16 + layout.stride * len(rows), layout.stride)
    return sum(map(lshift, rows, shifts)) | mono.degree


class TestPackedLayout:
    """Packed polynomials in one layout: keys, translation by a shift and
    the degree guard."""

    @given(st.lists(MONOMIAL_ROWS, min_size=1, max_size=3), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_encode_matches_shift_sum(self, monomials, spare):
        terms = {
            Monomial(
                (Cell(r, c), exp)
                for r, row in enumerate(rows, start=1)
                for c, exp in enumerate(row, start=1)
            ): k + 1
            for k, rows in enumerate(monomials)
        }
        poly = Polynomial(terms)
        width = max(len(row) for rows in monomials for row in rows) + spare
        layout = PackedLayout(width)
        packed = layout.encode(poly)
        assert packed == {shift_sum_key(layout, m): c for m, c in poly.items()}
        assert PackedLayout(width).decode(packed) == poly

    @pytest.mark.parametrize("width", [1, 3, 263])
    def test_variable_key_is_the_encoded_variable(self, width):
        layout = PackedLayout(width)
        for r, c in {(1, 1), (1, width), (2, 1), (5, width), (9, (width + 1) // 2)}:
            assert {layout.run(r, c - 1, c): 1} == layout.encode(variable((r, c)))

    @pytest.mark.parametrize("shift", [(0, 0), (0, 3), (2, 0), (4, 1), (1, 7)])
    def test_translate_matches_polynomial_translate(self, shift):
        dr, dc = shift
        for shape in all_partitions(7):
            weight = Polynomial.skew_sum(shape.parts) if shape else Polynomial.one()
            width = (shape.parts[0] if shape else 0) + dc
            layout = PackedLayout(width)
            moved = layout.translate(layout.encode(weight), dr, dc)
            # A fresh layout decodes every key from its bits alone.
            fresh = PackedLayout(width)
            assert fresh.decode(moved) == weight.translate(dr, dc), (shape, shift)

    def test_translate_long_rows_and_columns(self):
        for parts in [(300,), (1,) * 40, (12, 12, 3)]:
            weight = Polynomial.skew_sum(parts)
            layout = PackedLayout(parts[0] + 5)
            moved = layout.translate(layout.encode(weight), 3, 5)
            fresh = PackedLayout(parts[0] + 5)
            assert fresh.decode(moved) == weight.translate(3, 5)

    def test_translate_rejects_negative_shift(self):
        layout = PackedLayout(2)
        with pytest.raises(ValueError):
            layout.translate(layout.encode(x_power(1)), 0, -1)

    def test_fold_degree_guard(self):
        layout = PackedLayout(1)
        high = layout.encode(x_power(40000))
        top = fold({}, [(high, layout.encode(x_power(25535)))])
        assert layout.decode(top) == x_power(65535)
        with pytest.raises(TooLarge):
            fold({}, [(high, layout.encode(x_power(25536)))])
        # A zero opposite a high degree multiplies nothing.
        assert fold(high, [({}, layout.encode(x_power(65535)))]) is high

    def test_times_degree_guard(self):
        layout = PackedLayout(1)
        x = layout.run(1, 0, 1)
        top = times(layout.encode(x_power(65534)), x)
        assert layout.decode(top) == x_power(65535)
        with pytest.raises(TooLarge):
            times(top, x)

    def test_fold_leaves_its_operands_unchanged(self):
        layout = PackedLayout(2)
        x, y = variable((2, 1)) + 1, variable((1, 2)) - 1
        base, a = layout.encode(x), layout.encode(y)
        before = (dict(base), dict(a))
        total = fold(base, [(a, a)])
        assert (base, a) == before
        assert layout.decode(total) == x + y * y

    def test_fold_drops_cancelled_terms(self):
        layout = PackedLayout(3)
        x = layout.encode(variable((2, 3)))
        minus_x = layout.encode(-variable((2, 3)))
        one = layout.encode(Polynomial.one())
        assert fold(x, [(minus_x, one)]) == {}
        assert layout.decode({}) == Polynomial.zero()

    def test_quotient_undoes_a_product(self):
        rng = random.Random(20261019)
        layout = PackedLayout(3)
        term = Polynomial.from_monomial(from_cells([(1, 3), (2, 1)]), -3)
        term = layout.encode(term)
        for _ in range(100):
            p = layout.encode(random_poly(rng))
            assert quotient(fold({}, [(p, term)]), term) == p

    @pytest.mark.parametrize(
        "dividend, divisor",
        [
            ({(1, 2): 1}, {(1, 1): 1}),
            ({(2, 1): 1}, {(1, 2): 1}),
            ({(1, 1): 1}, {(1, 1): 1, (1, 2): 1}),
            ({(1, 3): 2}, {(2, 1): 1}),
        ],
    )
    def test_quotient_rejects_a_borrow(self, dividend, divisor):
        layout = PackedLayout(3)
        terms = layout.encode(Polynomial.from_monomial(Monomial(dividend)))
        key = layout.encode(Polynomial.from_monomial(Monomial(divisor)))
        with pytest.raises(VerificationFailed, match="not exact"):
            quotient(terms, key)

    def test_quotient_rejects_a_remainder(self):
        layout = PackedLayout(3)
        x = variable((1, 2))
        with pytest.raises(VerificationFailed, match="not exact"):
            quotient(layout.encode(x * 3 + 1), {0: 2})
        assert quotient(layout.encode(x * 4 + 2), {0: -2}) == layout.encode(x * -2 - 1)


class TestQLayout:
    """The q key format: PackedLayout(1)'s keys of the powers of x[1,1],
    with every cell sent to q."""

    def test_keys_are_those_of_the_powers_of_x11(self):
        layout, plain = _QLayout(), PackedLayout(1)
        for k in (0, 1, 7, 65535):
            assert layout.encode(x_power(k)) == plain.encode(x_power(k))
        assert layout.run(3, 4, 5) == plain.run(1, 0, 1)
        assert layout.encode(poly(LAM, "ab-de+c")) == plain.encode(x_power(1))

    def test_translate_is_the_identity(self):
        layout = _QLayout()
        terms = layout.encode(poly(LAM, "abcde+bc+1"))
        assert layout.translate(terms, 2, 3) is terms


class TestDegreeLimit:
    """Total degree is capped at 65535 so no exponent field can carry."""

    def test_constructor(self):
        with pytest.raises(TooLarge):
            Monomial({Cell(1, 1): 65536})

    def test_product(self):
        a = Monomial({Cell(1, 1): 40000})
        b = Monomial({Cell(1, 1): 25536})
        with pytest.raises(TooLarge):
            a * b
        # The same guard through Polynomial multiplication.
        with pytest.raises(TooLarge):
            x_power(65535) * variable((1, 1))

    def test_limit_itself_works(self):
        m = Monomial({Cell(1, 1): 65534}) * from_cells([Cell(1, 1)])
        assert m.degree == 65535
        assert m.pairs == ((Cell(1, 1), 65535),)
        assert m.translate(0, 1).pairs == ((Cell(1, 2), 65535),)

    def test_is_a_library_error(self):
        assert issubclass(TooLarge, PartitionSnfError)


class TestArithmetic:
    def test_cancellation(self):
        x = variable(Cell(1, 1))
        assert (x + 1) + (-1) == x

    def test_zero_identity(self):
        p = poly(LAM, "de+e+1")
        assert Polynomial.zero() + p == p

    def test_sum_rebuilds_grid_entry(self):
        assert poly(LAM, "e+1") + poly(LAM, "de") == poly(LAM, "de+e+1")

    def test_coefficient_times_weight_product(self):
        left = poly(LAM, "1+c+bc") * poly(LAM, "1+e+de")
        assert left == poly(LAM, "1+c+bc+e+ce+bce+de+cde+bcde")

    def test_mul_by_zero(self):
        assert poly(LAM, "de+e+1") * Polynomial.zero() == 0

    def test_exponent_growth(self):
        e = poly(LAM, "1+e")
        ee = Cell(2, 2)
        expected = Polynomial(
            {Monomial(): 1, from_cells([ee]): 2, Monomial({ee: 2}): 1}
        )
        assert e * e == expected

    def test_difference_cancels_to_monomial(self):
        assert poly(LAM, "c+1") - poly(LAM, "1+c+bc") == poly(LAM, "-bc")

    def test_self_difference(self):
        p = poly(LAM, "bce+ce+c+e+1")
        assert p - p == 0

    def test_neg_zero(self):
        assert -Polynomial.zero() == 0

    def test_int_promotion(self):
        p = poly(LAM, "e")
        assert 1 - p == poly(LAM, "1-e")
        assert 3 * p == poly(LAM, "3e")
        assert p + 2 == poly(LAM, "e+2")


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_additive_inverse_is_canonical_zero(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng)
            assert len(p + (-p)) == 0


class TestPolynomialHash:
    """Equal polynomials hash equal, however they were built."""

    def test_equal_routes_hash_equal(self):
        rng = random.Random(20261018)
        layout = PackedLayout(3)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            routes = [
                p,
                p + q - q,
                layout.decode(layout.encode(p)),
                # A fresh layout rebuilds every monomial from its key.
                PackedLayout(3).decode(layout.encode(p)),
                polynomial_from_json(polynomial_to_json(p)),
            ]
            assert all(route == p for route in routes)
            assert {hash(route) for route in routes} == {hash(p)}
            assert len(set(routes)) == 1
            assert len({p, p + 1}) == 2

    def test_constants_hash_as_their_ints(self):
        # A constant equals its int, so a set or dict must merge the two.
        for value in (0, 1, -1, 3, 2**64):
            constant = Polynomial.constant(value)
            assert constant == value and hash(constant) == hash(value)
            assert len({constant, value}) == 1
        assert hash(Polynomial.zero()) == hash(0)
        assert {Polynomial.one(): "one"}[1] == "one"


class TestSubstitution:
    def test_all_variables_to_q(self):
        assert substitute_uniform(poly(LAM, "abcde")) == q_power(5)

    def test_constant(self):
        assert substitute_uniform(Polynomial.one()) == q_poly((1,))

    def test_collects_by_degree(self):
        assert substitute_uniform(poly(LAM, "de+e+1")) == q_poly((1, 1, 1))

    def test_homomorphism(self):
        rng = random.Random(99)
        layout = _QLayout()
        for _ in range(300):
            a, b = random_poly(rng), random_poly(rng)
            qa, qb, qsum, qprod = (substitute_uniform(p) for p in (a, b, a + b, a * b))
            for image in (qa, qb, qsum, qprod):
                # Only powers of x[1,1], and substituting again changes nothing.
                assert all(m == Monomial({Cell(1, 1): m.degree}) for m, _ in image.items())
                assert substitute_uniform(image) == image
            assert qsum == qa + qb
            assert qprod == qa * qb
            # The q key format encodes the same ring map.
            for p, image in ((a, qa), (b, qb), (a * b, qprod)):
                assert layout.decode(layout.encode(p)) == image

    def test_at_ones_of_zero(self):
        assert evaluate_at_ones(Polynomial.zero()) == 0

    def test_at_ones_multiplicative(self):
        rng = random.Random(4)
        for _ in range(300):
            a, b = random_poly(rng), random_poly(rng)
            assert evaluate_at_ones(a * b) == evaluate_at_ones(a) * evaluate_at_ones(b)


# A 4 x 6 grid, so that letter naming stays injective; exponents up to 5
# and coefficients well past +-1.
RENDER_GRID = [Cell(r, c) for r in range(1, 5) for c in range(1, 7)]
RENDER_PAIRS = st.lists(
    st.tuples(st.sampled_from(RENDER_GRID), st.integers(1, 5)), max_size=5
)
RENDER_TERMS = st.lists(st.tuples(RENDER_PAIRS, st.integers(-40, 40)), max_size=6)


class TestRender:
    def test_grid_strings(self):
        naming = letter_naming(LAM.cells())
        assert render(poly(LAM, "de+e+1"), naming) == "de+e+1"
        assert render(poly(LAM, "c+1"), naming) == "c+1"
        assert render(poly(LAM, "bce+ce+c+e+1"), naming) == "bce+ce+c+e+1"

    def test_zero(self):
        assert render(Polynomial.zero()) == "0"

    def test_exponents_and_coefficients(self):
        naming = letter_naming(LAM.cells())
        p = poly(LAM, "1+e") * poly(LAM, "1+e")
        assert render(p, naming) == "e^2+2e+1"

    def test_negative_folding(self):
        naming = letter_naming(LAM.cells())
        assert render(poly(LAM, "-bc-1"), naming) == "-bc-1"

    def test_coordinate_default(self):
        p = variable(Cell(2, 11)) + 1
        assert render(p) == "x[2,11]+1"

    def test_collision_rejected(self):
        p = poly(LAM, "de")
        with pytest.raises(NameCollision):
            render(p, {Cell(2, 1): "z", Cell(2, 2): "z"})

    @given(RENDER_TERMS)
    @settings(max_examples=200)
    def test_matches_reference(self, terms):
        p = Polynomial.zero()
        for pairs, coeff in terms:
            p = p + Polynomial.from_monomial(Monomial(pairs), coeff)
        assert render(p) == ref_render(p)
        # Injective letters, in an order unrelated to the term order.
        naming = letter_naming(reversed(RENDER_GRID))
        assert render(p, naming) == ref_render(p, naming)

    def test_collision_only_among_present_cells(self):
        p = poly(LAM, "de+e")
        naming = letter_naming(LAM.cells())
        # Cells (1,1) and (1,2) are absent from p: a clash there is allowed.
        assert render(p, {**naming, Cell(1, 1): "q", Cell(1, 2): "q"}) == "de+e"
        with pytest.raises(NameCollision):
            render(p, {**naming, Cell(1, 1): "e", Cell(2, 1): "e"})

    def test_naming_missing_present_cell(self):
        with pytest.raises(KeyError):
            render(poly(LAM, "de+e"), {Cell(2, 1): "d"})

    def test_letter_naming_exhaustion(self):
        cells = [Cell(1, c) for c in range(1, 28)]
        with pytest.raises(NameCollision):
            letter_naming(cells)

    def test_letter_naming_row_major(self):
        naming = letter_naming(Partition((5, 4, 1)).cells())
        assert naming[Cell(1, 1)] == "a"
        assert naming[Cell(2, 4)] == "i"
        assert naming[Cell(3, 1)] == "j"

    def test_coordinate_naming(self):
        assert render(variable(Cell(1, 2))) == "x[1,2]"


# Signed coefficients past 2**64, on monomials over up to 20 rows.
JSON_ENTRY = st.one_of(
    st.just(Polynomial.zero()),
    st.just(Polynomial.one()),
    st.lists(
        st.tuples(PAIRS, st.integers(-(2**80), 2**80)), min_size=1, max_size=5
    ).map(sum_of_terms),
)


class TestJson:
    @given(JSON_ENTRY, st.integers(0, 12))
    @example(Polynomial.zero(), 0)
    @example(Polynomial.constant(-(2**70)), 3)
    @example(sum_of_terms([([((1, 1), 3), ((4, 2), 2)], 2**65), ([], -1)]), 12)
    @settings(max_examples=150)
    def test_text_is_the_indented_dump(self, p, level):
        # The rendering of p nested level lists deep is the slice of the
        # indented dump between the openings and the closings.
        nested = polynomial_to_json(p)
        for _ in range(level):
            nested = [nested]
        opening = "".join("[\n" + "  " * k for k in range(1, level + 1))
        closing = "".join("\n" + "  " * k + "]" for k in reversed(range(level)))
        assert json.dumps(nested, indent=2) == opening + _polynomial_json(p, level) + closing

    def test_round_trip_grid_entry(self):
        p = poly(LAM, "abcde+bcde+bce+cde+ce+de+c+e+1")
        assert polynomial_from_json(polynomial_to_json(p)) == p

    def test_round_trip_big_coefficients(self):
        p = Polynomial(
            {from_cells([Cell(1, 1)]): 10**30, Monomial(): -(2**80)}
        )
        data = json.loads(json.dumps(polynomial_to_json(p)))
        assert polynomial_from_json(data) == p
        assert all(isinstance(item["coeff"], str) for item in data)

    def test_canonical_order(self):
        p = poly(LAM, "de+e+1")
        degrees = [
            sum(e for _, _, e in item["monomial"]) for item in polynomial_to_json(p)
        ]
        assert degrees == sorted(degrees, reverse=True)

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
                st.integers(-5, 5),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=80)
    def test_round_trip_random(self, raw):
        terms = {}
        for r, c, e, coeff in raw:
            mono = Monomial({Cell(r, c): e})
            terms[mono] = terms.get(mono, 0) + coeff
        p = Polynomial(terms)
        assert polynomial_from_json(polynomial_to_json(p)) == p


class TestUniPoly:
    """Output forms of q-polynomials, which are polynomials on the one cell
    (1,1) and once had a dense class of their own."""

    def test_trim(self):
        assert q_coefficients(q_poly((1, 2, 0, 0))) == [1, 2]
        assert q_coefficients(q_poly((0,))) == []
        assert q_coefficients(q_poly((1, 0, 2))) == [1, 0, 2]

    def test_degree_and_eval(self):
        p = q_poly((1, 2, 1, 1))
        assert p.degree == 3
        assert evaluate_at_ones(p) == 5

    def test_render(self):
        assert render_q(q_poly((1, 2, 1, 1))) == "1+2q+q^2+q^3"
        assert render_q(q_poly(())) == "0"
        assert render_q(q_poly((0, 0, 1))) == "q^2"
        assert render_q(q_poly((0, -1))) == "-q"
