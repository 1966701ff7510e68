"""Tests for sparse polynomial arithmetic, the structured matrix, its
minors, and the trace identity."""

import itertools
import random
import re
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalvar.polysym import (
    MAX_MINOR_PRODUCTS,
    MILLER_RABIN_LIMIT,
    ZZ,
    BlockLayout,
    PolyMatrix,
    PolyRing,
    PrimeField,
    SparsePoly,
    _split_plan,
    all_top_minors,
    determinant,
    evaluate_many,
    grevlex_key,
    is_prime,
    minor,
    reduced_kalman_matrix,
    trace_identity_check,
    wedge_trace,
)


def trial_division_is_prime(p: int) -> bool:
    """Oracle for is_prime: every candidate factor up to sqrt(p)."""
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def brute_determinant(m: PolyMatrix) -> SparsePoly:
    """Leibniz formula, used as an oracle for the cofactor expansion."""
    k = m.nrows
    total = m.ring.zero()
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        term = m.ring.one()
        for r in range(k):
            term = term * m.entries[r][perm[r]]
        total = total + term if inv % 2 == 0 else total - term
    return total


def evaluate_oracle(poly: SparsePoly, point) -> int:
    """Term by term, factor by factor, one power per variable, reduced
    after every product: the oracle for SparsePoly.evaluate."""
    coerce = poly.ring.domain.coerce
    total = 0
    for m, c in poly.terms.items():
        acc = c
        for k, e in enumerate(poly.ring.unpack(m)):
            if e:
                acc = coerce(acc * pow(point[k], e))
        total = coerce(total + acc)
    return total


# Reference arithmetic that reduces after every single step: the oracle
# for +, -, * and map_domain, which reduce each result once.


def _put(out: dict, e, v) -> None:
    if v:
        out[e] = v
    else:
        out.pop(e, None)


def stepwise_add(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    coerce = a.ring.domain.coerce
    out = dict(a.terms)
    for e, c in b.terms.items():
        _put(out, e, coerce(out.get(e, 0) + c))
    return SparsePoly(a.ring, out)


def stepwise_neg(a: SparsePoly) -> SparsePoly:
    coerce = a.ring.domain.coerce
    return SparsePoly(a.ring, {e: coerce(-c) for e, c in a.terms.items()})


def stepwise_mul(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    coerce = a.ring.domain.coerce
    pack, unpack = a.ring.pack, a.ring.unpack
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = pack(tuple(x + y for x, y in zip(unpack(ea), unpack(eb))))
            _put(out, e, coerce(out.get(e, 0) + coerce(ca * cb)))
    return SparsePoly(a.ring, out)


def stepwise_scale(a: SparsePoly, k: int) -> SparsePoly:
    coerce = a.ring.domain.coerce
    k = coerce(k)
    out: dict = {}
    for e, c in a.terms.items():
        _put(out, e, coerce(c * k))
    return SparsePoly(a.ring, out)


def stepwise_map(a: SparsePoly, ring: PolyRing) -> SparsePoly:
    out: dict = {}
    for e, c in a.terms.items():
        _put(out, e, ring.domain.coerce(c))
    return SparsePoly(ring, out)


@st.composite
def polys(draw, ring, max_exp=3, max_coeff=9):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(ring.nvars))
        c = draw(st.integers(-max_coeff, max_coeff))
        p = ring.reduce({ring.pack(exp): c})
        terms[exp] = p
    out = ring.zero()
    for p in terms.values():
        out = out + p
    return out


RING_ZZ = PolyRing(3, ZZ)
RING_GF = PolyRing(3, PrimeField(32003))
RING_GF2 = PolyRing(3, PrimeField(2))


@st.composite
def square_matrices(draw, ring):
    """A k x k matrix, k <= 4, with a row order and a column order.
    Entries come from a pool of at most three polynomials, their
    negatives, zero and a constant, so rows repeat and products
    cancel."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(polys(ring), min_size=1, max_size=3))
    pool += [-p for p in pool] + [ring.zero(), ring.const(draw(st.integers(-3, 3)))]
    entries = [[draw(st.sampled_from(pool)) for _ in range(k)] for _ in range(k)]
    rows = draw(st.permutations(range(k)))
    cols = draw(st.permutations(range(k)))
    return PolyMatrix(entries), tuple(rows), tuple(cols)


class TestDomains:
    def test_is_prime(self):
        assert is_prime(2)
        assert is_prime(32003)
        assert is_prime(46337)
        assert not is_prime(1)
        assert not is_prime(32001)
        assert not is_prime(46339)

    def test_is_prime_matches_trial_division_exhaustively(self):
        assert [p for p in range(-3, 20000) if is_prime(p)] == [
            p for p in range(-3, 20000) if trial_division_is_prime(p)
        ]

    @given(st.integers(-10, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_is_prime_matches_trial_division(self, p):
        assert is_prime(p) == trial_division_is_prime(p)

    @pytest.mark.parametrize(
        "p, want",
        [
            (10**16 + 61, True),
            (2**61 - 1, True),
            (2**64 - 59, True),
            (561, False),  # Carmichael
            (3215031751, False),  # strong pseudoprime to 2, 3, 5, 7
            (3825123056546413051, False),  # strong pseudoprime to 2 .. 23
            ((2**61 - 1) * 100003, False),  # no factor below 37
        ],
    )
    def test_is_prime_large(self, p, want):
        assert is_prime(p) is want

    def test_is_prime_refuses_past_its_limit(self):
        assert not is_prime(MILLER_RABIN_LIMIT - 2)  # even
        for p in (MILLER_RABIN_LIMIT, MILLER_RABIN_LIMIT + 2, 10**30):
            with pytest.raises(ValueError, match=str(MILLER_RABIN_LIMIT)):
                is_prime(p)

    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(32001)

    def test_prime_fields_equal_by_modulus(self):
        assert PrimeField(101) == PrimeField(101) != PrimeField(103)
        assert hash(PrimeField(101)) == hash(PrimeField(101))
        assert PrimeField(101).coerce(-1) == 100

    def test_integers_reject_non_integral(self):
        with pytest.raises(TypeError):
            ZZ.coerce(Fraction(1, 2))
        ring = PolyRing(2, ZZ)
        with pytest.raises(TypeError):
            ring.const(Fraction(1, 2))
        with pytest.raises(TypeError):
            ring.var(0) * Fraction(1, 2)


class TestSparsePoly:
    def test_zero_and_const(self):
        assert RING_ZZ.zero().is_zero()
        assert RING_ZZ.const(0).is_zero()
        assert RING_ZZ.const(5).degree() == 0
        assert RING_ZZ.zero().degree() == -1

    def test_var_arithmetic(self):
        x, y, z = (RING_ZZ.var(k) for k in range(3))
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + y + z).degree() == 1
        assert ((x + 1) ** 3) == x**3 + 3 * x**2 + 3 * x + 1

    def test_homogeneous(self):
        x, y, _ = (RING_ZZ.var(k) for k in range(3))
        assert (x * y + x * x).is_homogeneous()
        assert not (x * y + x).is_homogeneous()
        assert RING_ZZ.zero().is_homogeneous()
        assert (x * y + x * x).term_degrees() == {2}
        assert (x * y + x + 3).term_degrees() == {0, 1, 2}
        assert RING_ZZ.zero().term_degrees() == set()

    @given(a=polys(RING_ZZ), b=polys(RING_ZZ), c=polys(RING_ZZ))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_integers(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a - a == RING_ZZ.zero()

    @given(a=polys(RING_GF), b=polys(RING_GF), c=polys(RING_GF))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_prime_field(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c

    @given(a=polys(RING_GF), b=polys(RING_GF))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_is_ring_map(self, a, b):
        rng = random.Random(11)
        gf = RING_GF.domain
        pt = [rng.randrange(gf.p) for _ in range(3)]
        assert a.evaluate(pt) == evaluate_oracle(a, pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt) % gf.p
        assert (a + b).evaluate(pt) == (a.evaluate(pt) + b.evaluate(pt)) % gf.p

    @given(a=polys(RING_ZZ), pt=st.lists(st.integers(-7, 7), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_integers_matches_oracle(self, a, pt):
        assert a.evaluate(pt) == evaluate_oracle(a, pt)

    def test_evaluate_rationals(self):
        x, y, _ = (RING_ZZ.var(k) for k in range(3))
        p = x * x + 2 * y
        pt = [-5, 3, 0]
        assert p.evaluate(pt) == 25 + 6

    def test_grevlex_order_degree_first(self):
        # within a degree, ties break on the trailing exponents
        assert grevlex_key((2, 0)) < grevlex_key((1, 1)) < grevlex_key((0, 2))
        assert grevlex_key((0, 2)) < grevlex_key((1, 0))

    def test_str_grammar(self):
        ring = PolyRing(2, ZZ)
        x, y = ring.var(0), ring.var(1)
        assert str((x + y) ** 2) == "1*x0^2 + 2*x0^1*x1^1 + 1*x1^2"
        assert str(x - y) == "1*x0^1 + -1*x1^1"
        assert str(ring.zero()) == "0"
        assert str(ring.const(-2)) == "-2"

    @pytest.mark.parametrize("ring", [RING_ZZ, RING_GF, RING_GF2], ids=["ZZ", "GF32003", "GF2"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_stepwise_reference(self, ring, data):
        # eight monomials and small coefficients, so sums collide and,
        # over GF(2) most of all, cancel
        a = data.draw(polys(ring, max_exp=1, max_coeff=2))
        b = data.draw(polys(ring, max_exp=1, max_coeff=2))
        k = data.draw(st.integers(-5, 5))
        assert (a + b).terms == stepwise_add(a, b).terms
        assert (a - b).terms == stepwise_add(a, stepwise_neg(b)).terms
        assert (-a).terms == stepwise_neg(a).terms
        assert (a * b).terms == stepwise_mul(a, b).terms
        assert (k * a).terms == (a * k).terms == stepwise_scale(a, k).terms
        assert (a + (-a)).is_zero()
        if ring is RING_ZZ:
            for target in (RING_GF, RING_GF2):
                assert a.map_domain(target).terms == stepwise_map(a, target).terms

    def test_map_domain_matches_native(self):
        over_z = minor(reduced_kalman_matrix(2, 3), (0, 1), (0, 1))
        native = minor(reduced_kalman_matrix(2, 3, PrimeField(32003)), (0, 1), (0, 1))
        layout = BlockLayout(2, 3)
        assert over_z.map_domain(layout.ring(PrimeField(32003))) == native

    def test_equal_prime_fields_are_one_domain(self):
        # every call builds its own PrimeField(32003); the polynomials
        # still live in one ring
        a = all_top_minors(2, 4, PrimeField(32003))[0][1]
        b = all_top_minors(2, 4, PrimeField(32003))[0][1]
        assert a == b
        assert (a - b).is_zero()
        with pytest.raises(ValueError, match="mixed rings"):
            PolyRing(3, PrimeField(101)).var(0) + PolyRing(3, PrimeField(103)).var(0)


class TestPacking:
    def test_var_and_const_keys(self):
        ring = PolyRing(4, ZZ)
        assert ring.var(2).terms == {1 << 16: 1} == {ring.pack((0, 0, 1, 0)): 1}
        assert ring.const(5).terms == {0: 5}
        assert PolyRing(0, ZZ).pack(()) == 0 and PolyRing(0, ZZ).unpack(0) == ()

    @given(exp=st.lists(st.integers(0, 255), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_unpack_inverts_pack(self, exp):
        ring = PolyRing(5, ZZ)
        assert ring.unpack(ring.pack(exp)) == tuple(exp)
        assert ring.pack_many([exp, tuple(exp)]) == [ring.pack(exp)] * 2

    def test_pack_refuses_past_the_byte_and_wrong_length(self):
        with pytest.raises(ValueError, match="255"):
            RING_ZZ.pack((0, 256, 0))
        with pytest.raises(ValueError, match="255"):
            RING_ZZ.pack((0, -1, 0))
        with pytest.raises(ValueError, match="3 entries"):
            RING_ZZ.pack((1, 2))
        with pytest.raises(ValueError, match="3 entries"):
            RING_ZZ.pack((1, 2, 3, 4))

    def test_product_and_power_past_255_refused(self):
        x, y, _ = (RING_GF.var(k) for k in range(3))
        with pytest.raises(ValueError, match="255"):
            x**256
        with pytest.raises(ValueError, match="255"):
            x**200 * x**56
        with pytest.raises(ValueError, match="255"):
            (x * y + 1) ** 128
        assert (x**200 * x**55).terms == {RING_GF.pack((255, 0, 0)): 1}
        assert (x**255).degree() == 255
        assert RING_GF.zero() * x**255 == RING_GF.zero()

    def test_serialization_reads_exponent_tuples(self):
        ring = PolyRing(2, ZZ)
        p = ring.reduce({ring.pack((0, 255)): 4, ring.pack((3, 1)): -1})
        assert p.sorted_terms() == [((0, 255), 4), ((3, 1), -1)]
        assert str(p) == "4*x1^255 + -1*x0^3*x1^1"
        assert p.degree() == 255 and not p.is_homogeneous()


class TestBlockLayout:
    def test_var_indexing_row_major(self):
        # only the first d columns are variables
        layout = BlockLayout(2, 3)
        assert layout.ring().nvars == 6
        assert layout.var_index(1, 1) == 0
        assert layout.var_index(1, 2) == 1
        assert layout.var_index(2, 1) == 2
        assert layout.var_index(3, 2) == 5
        assert layout.var_name(5) == "x[3][2]"
        with pytest.raises(ValueError, match="out of range"):
            layout.var_index(1, 3)

    def test_blocks(self):
        layout = BlockLayout(2, 4)
        ring = layout.ring()
        a = layout.alpha(ring)
        g = layout.gamma(ring)
        assert (a.nrows, a.ncols) == (2, 2)
        assert (g.nrows, g.ncols) == (2, 2)
        assert str(a[0, 0]) == "1*x[1][1]^1"
        assert str(g[1, 0]) == "1*x[4][1]^1"


class TestReducedMatrix:
    def test_shape(self):
        for d, n in [(1, 3), (2, 3), (2, 4), (3, 5)]:
            m = reduced_kalman_matrix(d, n)
            assert (m.nrows, m.ncols) == (d * (n - d), d)

    def test_row_degrees_by_block(self):
        m = reduced_kalman_matrix(3, 5)
        for r in range(6):
            block = r // 2
            for c in range(3):
                assert m[r, c].degree() == block + 1
                assert m[r, c].is_homogeneous()

    def test_d1_is_first_column_tail(self):
        m = reduced_kalman_matrix(1, 3)
        assert (m.nrows, m.ncols) == (2, 1)
        assert str(m[0, 0]) == "1*x[2][1]^1"
        assert str(m[1, 0]) == "1*x[3][1]^1"

    def test_second_block_is_gamma_alpha(self):
        layout = BlockLayout(2, 4)
        ring = layout.ring()
        expected = layout.gamma(ring).matmul(layout.alpha(ring))
        m = reduced_kalman_matrix(2, 4)
        for i in range(2):
            for j in range(2):
                assert m[2 + i, j] == expected[i, j]


class TestMinors:
    def test_minor_past_the_byte_refused(self):
        # twelve rows of degree-22 entries may reach degree 264; eleven
        # reach 242 and expand
        ring = PolyRing(2, ZZ)
        x, y = ring.var(0), ring.var(1)
        entry = x**11 * y**11
        big = PolyMatrix([[entry] * 12 for _ in range(12)])
        with pytest.raises(ValueError, match="264.*255"):
            determinant(big)
        assert determinant(PolyMatrix([[entry] * 11 for _ in range(11)])).is_zero()

    def test_frozen_smallest_determinant(self):
        # d=2, n=3: det of the full 2x2 stacked matrix, degree 3,
        # exactly four monomials
        p = minor(reduced_kalman_matrix(2, 3), (0, 1), (0, 1))
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert len(p.terms) == 4
        assert str(p) == (
            "1*x[1][2]^1*x[3][1]^2"
            " + -1*x[1][1]^1*x[3][1]^1*x[3][2]^1"
            " + 1*x[2][2]^1*x[3][1]^1*x[3][2]^1"
            " + -1*x[2][1]^1*x[3][2]^2"
        )

    def test_hypersurface_degree(self):
        for d in (2, 3, 4):
            m = reduced_kalman_matrix(d, d + 1)
            p = determinant(m)
            assert p.degree() == d * (d + 1) // 2
            assert p.is_homogeneous()
            assert not p.is_zero()

    def test_matches_leibniz(self):
        m = reduced_kalman_matrix(3, 4)
        assert determinant(m) == brute_determinant(m)

    def test_row_swap_flips_sign(self):
        m = reduced_kalman_matrix(2, 4)
        assert minor(m, (1, 0), (0, 1)) == -minor(m, (0, 1), (0, 1))

    def test_repeated_rows_rejected(self):
        m = reduced_kalman_matrix(2, 4)
        with pytest.raises(ValueError):
            minor(m, (0, 0), (0, 1))

    @pytest.mark.parametrize(
        "rows,cols", [((-1,), (0,)), ((0,), (-2,)), ((4,), (0,)), ((0, 1), (1, 2))]
    )
    def test_out_of_range_index_rejected(self, rows, cols):
        # reduced_kalman_matrix(2, 4) is 4 x 2; a negative index must not
        # wrap around like a list index
        m = reduced_kalman_matrix(2, 4)
        with pytest.raises(ValueError, match="out of range"):
            minor(m, rows, cols)

    def test_empty_minor_is_one(self):
        m = reduced_kalman_matrix(2, 4)
        assert minor(m, (), ()) == m.ring.one()

    @staticmethod
    def _by_composition(d, n):
        # group all_top_minors by how many rows each block contributes
        groups = {}
        for rows, p in all_top_minors(d, n):
            comp = tuple(sum(1 for r in rows if r // (n - d) == b) for b in range(d))
            groups.setdefault(comp, []).append((rows, p))
        return groups

    def test_minor_count_and_degree_per_block_composition(self):
        # the minors taking a[r] rows from block r number prod C(n-d, a[r]),
        # and each has degree sum over its rows of (block index + 1)
        for d, n in [(2, 4), (2, 5), (3, 5), (3, 6)]:
            for comp, got in self._by_composition(d, n).items():
                assert len(got) == prod(comb(n - d, a) for a in comp)
                for rows, p in got:
                    assert p.is_zero() or p.degree() == sum(r // (n - d) + 1 for r in rows)

    def test_block_compositions_cover_all_minors(self):
        # every composition (a_0, ..., a_{d-1}) with sum d and
        # 0 <= a_r <= n - d occurs, and their minors add up to C(d(n-d), d)
        assert set(self._by_composition(2, 4)) == {(2, 0), (1, 1), (0, 2)}
        for d, n in [(2, 4), (2, 5), (3, 5), (3, 6)]:
            groups = self._by_composition(d, n)
            assert set(groups) == {
                comp
                for comp in itertools.product(range(min(d, n - d) + 1), repeat=d)
                if sum(comp) == d
            }
            assert sum(len(got) for got in groups.values()) == comb(d * (n - d), d)

    def test_all_top_minors_count(self):
        # C(d(n-d), d) row sets, in lexicographic order
        assert len(all_top_minors(2, 3)) == 1
        for d, n in [(2, 4), (2, 5), (3, 5), (3, 6)]:
            row_sets = [rows for rows, _ in all_top_minors(d, n)]
            assert len(row_sets) == comb(d * (n - d), d)
            assert row_sets == sorted(row_sets)

    def test_minor_degree_from_blocks(self):
        # degree of a minor = sum over chosen rows of (block index + 1)
        for d, n in [(2, 4), (2, 5), (3, 5), (3, 6)]:
            for rows, p in all_top_minors(d, n):
                if not p.is_zero():
                    assert p.degree() == sum(r // (n - d) + 1 for r in rows)

    @pytest.mark.parametrize("domain", [ZZ, PrimeField(32003)], ids=["ZZ", "GF32003"])
    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 5)])
    def test_all_top_minors_match_leibniz(self, d, n, domain):
        m = reduced_kalman_matrix(d, n, domain)
        for rows, p in all_top_minors(d, n, domain):
            sub = PolyMatrix([[m[r, c] for c in range(d)] for r in rows])
            assert p == brute_determinant(sub), rows

    def test_unsorted_rows_and_columns_match_leibniz(self):
        m = reduced_kalman_matrix(3, 5)
        for rows, cols in [((3, 0, 5), (2, 0, 1)), ((4, 1, 2), (1, 2, 0)), ((5, 3, 1), (0, 2, 1))]:
            sub = PolyMatrix([[m[r, c] for c in cols] for r in rows])
            assert minor(m, rows, cols) == brute_determinant(sub)

    @pytest.mark.parametrize("ring", [RING_ZZ, RING_GF], ids=["ZZ", "GF32003"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_matrices_match_leibniz(self, ring, data):
        m, rows, cols = data.draw(square_matrices(ring))
        assert determinant(m) == brute_determinant(m)
        shuffled = PolyMatrix([[m[r, c] for c in cols] for r in rows])
        assert minor(m, rows, cols) == brute_determinant(shuffled)

    def test_exponent_limit(self):
        # packed exponents hold 255 per variable: a minor whose rows can
        # reach 256 is refused instead of carrying into the next variable
        ring = PolyRing(2, ZZ)
        x, y = ring.var(0), ring.var(1)
        at_limit = PolyMatrix([[x**200, y], [y, x**55]])
        assert determinant(at_limit) == x**255 - y * y
        assert determinant(at_limit).terms[ring.pack((255, 0))] == 1
        over = PolyMatrix([[x**200, y], [y, x**56]])
        with pytest.raises(ValueError, match="255"):
            determinant(over)
        with pytest.raises(ValueError, match="255"):
            minor(PolyMatrix([[x**256]]), (0,), (0,))
        # only the rows and columns of the pick count towards the bound
        assert minor(over, (1,), (0,)) == y

    @pytest.mark.parametrize(
        "d,n,products",
        [(2, 3, 4), (3, 6, 31920), (4, 5, 93696), (4, 6, 65324760), (4, 7, 856527912),
         (5, 6, 1000065000), (5, 7, 47434859514720)],
    )
    def test_product_bound(self, monkeypatch, d, n, products):
        # the bound is read off the error at a limit of 0, so (4, 6) is
        # priced without being expanded: it fits the limit, (4, 7) does not
        monkeypatch.setattr("kalvar.polysym.MAX_MINOR_PRODUCTS", 0)
        with pytest.raises(ValueError, match=re.escape(f"up to {products} term products")):
            all_top_minors(d, n)
        assert (products <= MAX_MINOR_PRODUCTS) == ((d, n) not in {(4, 7), (5, 6), (5, 7)})

    def test_product_bound_of_a_small_expansion(self, monkeypatch):
        # a 2 x 2 of single terms takes 1 * 1 + 1 * 1 term products; an
        # entry of three terms in its first row makes it 3 * 1 + 1 * 1
        ring = PolyRing(2, ZZ)
        x, y = ring.var(0), ring.var(1)
        monkeypatch.setattr("kalvar.polysym.MAX_MINOR_PRODUCTS", 2)
        assert determinant(PolyMatrix([[x, y], [y, x]])) == x * x - y * y
        with pytest.raises(ValueError, match="up to 4 term products, more than the limit of 2 "):
            determinant(PolyMatrix([[x + y + 1, y], [y, x]]))

    @pytest.mark.parametrize("domain", [ZZ, PrimeField(32003)], ids=["ZZ", "GF32003"])
    def test_term_counts(self, domain):
        assert len(determinant(reduced_kalman_matrix(4, 5, domain)).terms) == 11912
        assert sum(len(p.terms) for _, p in all_top_minors(3, 6, domain)) == 8346


@st.composite
def families(draw):
    """Polynomials over ZZ and GF(32003) in three variables, drawn from
    one pool of monomials so that they share some monomials and not
    others, always with the zero polynomial and a constant among them,
    and sometimes with an exponent of 255, the most one byte holds."""
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        pool.append((0, 255, 1))
    ring = draw(st.sampled_from([RING_ZZ, RING_GF]))
    out = [ring.zero(), ring.const(draw(st.integers(-9, 9)))]
    for _ in range(draw(st.integers(1, 4))):
        ring = draw(st.sampled_from([RING_ZZ, RING_GF]))
        picked = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
        out.append(ring.reduce({ring.pack(e): draw(st.integers(-9, 9)) for e in picked}))
    order = draw(st.permutations(range(len(out))))
    return [out[i] for i in order]


class TestEvaluateMany:
    @given(
        polys=families(),
        points=st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3), min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_term_by_term_oracle(self, polys, points):
        values = evaluate_many(polys, points)
        assert values == [[evaluate_oracle(p, pt) for p in polys] for pt in points]
        for p, value in zip(polys, values[0]):
            assert p.evaluate(points[0]) == value

    def test_zero_constant_and_top_exponent(self):
        # x^255 z packs, with the top byte value; building it as a
        # product is refused, since a product of degree 256 could carry
        x, y, z = (RING_ZZ.var(k) for k in range(3))
        with pytest.raises(ValueError, match="255"):
            x**255 * z
        wide = RING_ZZ.reduce({RING_ZZ.pack((255, 0, 1)): 1}) + 2 * y
        polys = [RING_ZZ.zero(), RING_ZZ.const(-7), wide, wide.map_domain(RING_GF), x * z + 2 * y]
        pt = [3, 5, -1]
        want = [0, -7, -(3 ** 255) + 10, (-(3 ** 255) + 10) % 32003, 7]
        assert evaluate_many(polys, [pt]) == [want]
        assert [p.evaluate(pt) for p in polys] == want
        assert evaluate_many(polys, [pt, [0, 0, 0]]) == [want, [0, -7, 0, 0, 0]]

    def test_no_points_and_no_polynomials(self):
        assert evaluate_many([RING_ZZ.var(0)], []) == []
        assert evaluate_many([], [[1, 2, 3], [4]]) == [[], []]

    def test_point_of_wrong_length_rejected(self):
        x = RING_GF.var(0)
        with pytest.raises(ValueError, match="wrong length"):
            evaluate_many([x, x * x], [[1, 2, 3], [1, 2]])
        with pytest.raises(ValueError, match="wrong length"):
            x.evaluate([1, 2, 3, 4])

    def test_different_variable_counts_rejected(self):
        with pytest.raises(ValueError, match="different numbers of variables"):
            evaluate_many([RING_ZZ.var(0), PolyRing(2, ZZ).var(0)], [[1, 2, 3]])


class TestEvaluate:
    @staticmethod
    def _gens(domain):
        det = determinant(reduced_kalman_matrix(4, 5, domain))
        return [det] + [p for _, p in all_top_minors(3, 6, domain)]

    @pytest.mark.parametrize("p", [32003, 46337])
    def test_minors_match_oracle_over_prime_fields(self, p):
        gf = PrimeField(p)
        rng = random.Random(p)
        gens = self._gens(gf)
        for _ in range(3):
            for g in gens:
                pt = [rng.randrange(gf.p) for _ in range(g.ring.nvars)]
                pt[rng.randrange(len(pt))] = 0
                assert g.evaluate(pt) == evaluate_oracle(g, pt)

    def test_minors_evaluated_together_match_oracle(self):
        gf = PrimeField(32003)
        rng = random.Random(5)
        minors = [p for _, p in all_top_minors(3, 6, gf)]
        points = [[rng.randrange(gf.p) for _ in range(18)] for _ in range(3)]
        assert evaluate_many(minors, points) == [[evaluate_oracle(g, pt) for g in minors] for pt in points]

    def test_minors_share_one_trie(self):
        # the split is the one thing the values cannot show, since any
        # split evaluates exactly: the 84 minors of (3, 6) split below
        # variable 9, the alpha/gamma boundary, into 617 trie nodes
        # besides the root and 1,398 groups, where one plan each would
        # walk 11,060 nodes; the (4, 5) determinant splits below
        # variable 14, into 11,462 nodes and 244 groups
        nodes = lambda plan: sum(len(parents) for parents, _ in plan[1])
        minors = [p for _, p in all_top_minors(3, 6)]
        plan = _split_plan(minors, 18)
        assert (plan[0], nodes(plan), len(plan[3][0]), len(plan[2][0])) == (9, 617, 1398, 8346)
        low = (1 << 8 * 9) - 1
        assert plan[4] == [len({m - (m & low) for m in g.terms}) for g in minors]
        assert sum(plan[3][1]) == sum(len(g.terms) for g in minors) == 8346
        assert sum(nodes(_split_plan([g], 18)) for g in minors) == 11060
        det = determinant(reduced_kalman_matrix(4, 5))
        plan = _split_plan([det], 20)
        assert (plan[0], nodes(plan), len(plan[3][0]), len(plan[2][0]), plan[4]) == (14, 11462, 244, 11912, [244])

    @pytest.mark.parametrize(
        "domains",
        [(ZZ,), (PrimeField(32003),), (PrimeField(46337),), (ZZ, PrimeField(32003)), (PrimeField(32003), PrimeField(46337))],
        ids=["ZZ", "GF32003", "GF46337", "ZZ-and-GF32003", "GF32003-and-GF46337"],
    )
    def test_one_call_matches_oracle_in_every_domain(self, domains):
        # over one prime field every trie level is reduced mod p; over ZZ
        # and across domains nothing is reduced before each polynomial's
        # own coerce.  Coordinates far past either prime make any
        # reduction by the wrong modulus show in the values.
        rng = random.Random(len(domains))
        gens = [p for domain in domains for _, p in all_top_minors(3, 6, domain)[:12]]
        points = [[rng.randrange(-10**12, 10**12) for _ in range(18)] for _ in range(3)]
        values = evaluate_many(gens, points)
        assert values == [[evaluate_oracle(g, pt) for g in gens] for pt in points]
        assert values == [[g.evaluate(pt) for g in gens] for pt in points]
        assert any(abs(v) > 46337 for row in values for v in row) == (ZZ in domains)

    # (variables, split, polynomials as {exponents: coefficient}): each
    # case exercises one shape of the split
    SPLIT_CASES = {
        # x0 is the low half of x0*x2, x0*x3 and x0*x2*x3, and x1 of two
        # terms, in both polynomials
        "low-halves-shared": (4, 2, [
            {(1, 0, 1, 0): 3, (1, 0, 0, 1): -5, (1, 0, 1, 1): 7, (0, 1, 1, 0): 2,
             (0, 1, 0, 1): -1, (0, 0, 2, 0): 4, (1, 1, 0, 0): 6, (2, 0, 0, 0): 8},
            {(1, 0, 0, 1): 1, (0, 1, 1, 0): -4},
        ]),
        # a constant term sits in the root's group beside x0^2
        "constant-terms": (3, 2, [
            {(0, 0, 0): 5, (2, 0, 0): 1, (0, 0, 2): -2, (1, 0, 1): 1},
            {(0, 0, 0): -7},
            {(0, 1, 1): 1, (0, 0, 0): 1},
        ]),
        # every monomial is all low half
        "one-variable": (1, 1, [{(3,): 4, (1,): -1, (0,): 9}, {(2,): 1}]),
        "no-variables": (0, 0, [{(): 5}, {}, {(): -3}]),
        # the high halves are powers of the last variable alone
        "split-on-last-variable": (3, 2, [{(0, 4, 1): 1, (1, 0, 2): 3, (0, 0, 1): -2}]),
    }

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    @pytest.mark.parametrize(
        "domains",
        [(ZZ,), (PrimeField(32003),), (PrimeField(46337),), (ZZ, PrimeField(32003)), (PrimeField(32003), PrimeField(46337))],
        ids=["ZZ", "GF32003", "GF46337", "ZZ-and-GF32003", "GF32003-and-GF46337"],
    )
    def test_split_cases_match_oracle(self, case, domains):
        nvars, split, polys = self.SPLIT_CASES[case]
        rings = [PolyRing(nvars, domain) for domain in domains]
        gens = [ring.reduce({ring.pack(e): c for e, c in terms.items()}) for ring in rings for terms in polys]
        plan = _split_plan(gens, nvars)
        assert plan[0] == split
        if case == "low-halves-shared":
            group_of_term = [g for g, size in enumerate(plan[3][1]) for _ in range(size)]
            groups_of: dict[int, set] = {}
            for low, group in zip(plan[2][1], group_of_term):
                groups_of.setdefault(low, set()).add(group)
            assert max(map(len, groups_of.values())) >= 3
        rng = random.Random(nvars)
        points = [[rng.randrange(-10**12, 10**12) for _ in range(nvars)] for _ in range(3)]
        values = evaluate_many(gens, points)
        assert values == [[evaluate_oracle(g, pt) for g in gens] for pt in points]
        assert values == [[g.evaluate(pt) for g in gens] for pt in points]

    def test_minors_match_oracle_over_integers(self):
        rng = random.Random(3)
        gens = self._gens(ZZ)
        for g in gens:
            pt = [rng.randint(-4, 4) for _ in range(g.ring.nvars)]
            pt[0], pt[-1] = 0, -3
            value = g.evaluate(pt)
            assert value == evaluate_oracle(g, pt)
            assert isinstance(value, int)


class TestWedgeTrace:
    def _generic(self, d, seed_names="m"):
        ring = PolyRing(d * d, ZZ, lambda k: f"{seed_names}[{k // d + 1}][{k % d + 1}]")
        return PolyMatrix([[ring.var(r * d + c) for c in range(d)] for r in range(d)])

    def test_extremes(self):
        m = self._generic(3)
        assert wedge_trace(m, 0) == m.ring.one()
        assert wedge_trace(m, 3) == determinant(m)

    def test_i1_is_trace(self):
        m = self._generic(3)
        expected = m[0, 0] + m[1, 1] + m[2, 2]
        assert wedge_trace(m, 1) == expected

    def test_generic_4x4_matches_leibniz(self):
        m = self._generic(4)
        for i in range(1, 5):
            expected = m.ring.zero()
            for rows in itertools.combinations(range(4), i):
                sub = PolyMatrix([[m[r, c] for c in rows] for r in rows])
                expected = expected + brute_determinant(sub)
            assert wedge_trace(m, i) == expected

    def test_char_poly_coefficients(self):
        # det(I*t + M) = sum_i wedge_trace(M, i) * t^(d-i), checked at
        # integer values of t
        d = 3
        m = self._generic(d)
        rng = random.Random(5)
        pt = [rng.randint(-5, 5) for _ in range(d * d)]
        vals = [[m[i, j].evaluate(pt) for j in range(d)] for i in range(d)]
        for t in (1, 2, -3):
            shifted = [
                [vals[i][j] + (t if i == j else 0) for j in range(d)]
                for i in range(d)
            ]
            det = (
                shifted[0][0] * (shifted[1][1] * shifted[2][2] - shifted[1][2] * shifted[2][1])
                - shifted[0][1] * (shifted[1][0] * shifted[2][2] - shifted[1][2] * shifted[2][0])
                + shifted[0][2] * (shifted[1][0] * shifted[2][1] - shifted[1][1] * shifted[2][0])
            )
            total = sum(
                wedge_trace(m, i).evaluate(pt) * t ** (d - i) for i in range(d + 1)
            )
            assert det == total


class TestTraceIdentity:
    @pytest.mark.parametrize("d,i", [(d, i) for d in (1, 2, 3) for i in range(1, d + 1)])
    def test_holds_symbolically(self, d, i):
        report = trace_identity_check(d, i)
        assert report.passed, report.details

    def test_detects_dropped_row_set(self):
        # omitting one of the row subsets from the right side must
        # break the identity, so a collapsed check would be caught
        ring = PolyRing(8, ZZ)
        a = PolyMatrix([[ring.var(r * 2 + c) for c in range(2)] for r in range(2)])
        al = PolyMatrix([[ring.var(4 + r * 2 + c) for c in range(2)] for r in range(2)])
        lhs = wedge_trace(al, 1) * determinant(a)
        product = a.matmul(al)
        rhs = determinant(a.replace_rows([0], product))
        assert not (lhs - rhs).is_zero()

    def test_report_shape(self):
        report = trace_identity_check(2, 2)
        assert report.verdict == "pass"
        assert report.check == "trace-minor-identity"
        assert report.params == {"d": 2, "i": 2}
        assert report.details == []


class TestPolyMatrix:
    def test_matmul_against_manual(self):
        ring = PolyRing(4, ZZ)
        a = PolyMatrix([[ring.var(0), ring.var(1)], [ring.var(2), ring.var(3)]])
        sq = a.matmul(a)
        assert sq[0, 0] == ring.var(0) * ring.var(0) + ring.var(1) * ring.var(2)

    def test_stack_and_shapes(self):
        ring = PolyRing(2, ZZ)
        row = PolyMatrix([[ring.var(0), ring.var(1)]])
        stacked = row.stack(row)
        assert (stacked.nrows, stacked.ncols) == (2, 2)
        with pytest.raises(ValueError):
            row.stack(PolyMatrix([[ring.var(0)]]))

    def test_replace_rows(self):
        ring = PolyRing(4, ZZ)
        a = PolyMatrix([[ring.var(0), ring.var(1)], [ring.var(2), ring.var(3)]])
        b = a.matmul(a)
        mixed = a.replace_rows([1], b)
        assert mixed[0, 0] == a[0, 0]
        assert mixed[1, 0] == b[1, 0]
