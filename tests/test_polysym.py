"""Tests for sparse polynomial arithmetic, the structured matrix, its
minors, and the trace identity."""

import itertools
import random
import re
import sys
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalvar import polysym
from kalvar.polysym import (
    MAX_MINOR_PRODUCTS,
    MILLER_RABIN_LIMIT,
    PolyRing,
    SparsePoly,
    _count_products,
    _matmul,
    _minors,
    _shared_trie,
    _split_plan,
    _trace_identity_picks,
    all_top_minors,
    determinant,
    evaluate_many,
    grevlex_key,
    is_prime,
    reduced_kalman_matrix,
    trace_identity_check,
    trace_identity_products,
)
from kalvar.verify import PrimeFieldConfig, minors_vanishing_check

# A prime past every value the tests below evaluate, so that a value
# mod EXACT, lifted into (-EXACT/2, EXACT/2), is the integer value.
EXACT = 2**521 - 1


def lift(v: int, p: int = EXACT) -> int:
    return v - p if v > p // 2 else v


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


def inversions(perm) -> int:
    return sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])


def brute_determinant(rows: list[list[SparsePoly]]) -> SparsePoly:
    """Leibniz formula on a square matrix given as its rows, used as an
    oracle for the cofactor expansion."""
    k = len(rows)
    ring = rows[0][0].ring
    total = ring.zero()
    for perm in itertools.permutations(range(k)):
        term = ring.one()
        for r in range(k):
            term = term * rows[r][perm[r]]
        total = total + term if inversions(perm) % 2 == 0 else total - term
    return total


def leibniz_mod_p(values: list[list[int]], p: int) -> int:
    """The Leibniz formula on a square matrix of ints, mod p: the oracle
    for a minor's value at a point."""
    k = len(values)
    total = 0
    for perm in itertools.permutations(range(k)):
        term = prod(values[r][perm[r]] for r in range(k))
        total += -term if inversions(perm) % 2 else term
    return total % p


def _step(p: int | None):
    return (lambda v: v) if p is None else (lambda v: v % p)


def evaluate_oracle(poly: SparsePoly, point, p: int | None = None) -> int:
    """Term by term, factor by factor, one power per variable: the
    oracle for `evaluate_many`.  Mod p, every product and sum is
    reduced; with no p the value is the exact integer."""
    step = _step(p)
    total = 0
    for m, c in poly.terms.items():
        acc = c
        for k, e in enumerate(poly.ring.unpack(m)):
            if e:
                acc = step(acc * pow(point[k], e))
        total = step(total + acc)
    return total


def reduced(terms: dict, p: int | None) -> dict:
    """The terms with each coefficient reduced mod p and zeros dropped;
    the terms as they are when p is None."""
    return dict(terms) if p is None else {e: v for e, c in terms.items() if (v := c % p)}


# Reference arithmetic that reduces mod p after every single step: the
# oracle for +, - and *, whose integer results are reduced once.  With no
# p it is exact.


def _put(out: dict, e, v) -> None:
    if v:
        out[e] = v
    else:
        out.pop(e, None)


def stepwise_add(a: SparsePoly, b: SparsePoly, p: int | None) -> dict:
    step = _step(p)
    out = reduced(a.terms, p)
    for e, c in b.terms.items():
        _put(out, e, step(out.get(e, 0) + c))
    return out


def stepwise_neg(a: SparsePoly) -> SparsePoly:
    return SparsePoly(a.ring, {e: -c for e, c in a.terms.items()})


def stepwise_mul(a: SparsePoly, b: SparsePoly, p: int | None) -> dict:
    step = _step(p)
    pack, unpack = a.ring.pack, a.ring.unpack
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = pack(tuple(x + y for x, y in zip(unpack(ea), unpack(eb))))
            _put(out, e, step(out.get(e, 0) + step(ca * cb)))
    return out


def stepwise_scale(a: SparsePoly, k: int, p: int | None) -> dict:
    step = _step(p)
    out: dict = {}
    for e, c in a.terms.items():
        _put(out, e, step(c * step(k)))
    return out


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


RING = PolyRing(3)


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
    return entries, tuple(rows), tuple(cols)


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
        # a modulus of measurement must be prime
        with pytest.raises(ValueError, match="^modulus 32001 is not prime$"):
            PrimeFieldConfig(modulus=32001)
        assert PrimeFieldConfig(modulus=2).modulus == 2

    def test_integers_reject_non_integral(self):
        ring = PolyRing(2)
        with pytest.raises(TypeError):
            ring.const(Fraction(1, 2))
        with pytest.raises(TypeError):
            ring.var(0) + Fraction(1, 2)
        with pytest.raises(TypeError):
            ring.var(0) * Fraction(1, 2)


class TestSparsePoly:
    def test_zero_and_const(self):
        assert RING.zero().is_zero()
        assert RING.const(0).is_zero()
        assert RING.const(5).degree() == 0
        assert RING.zero().degree() == -1

    def test_var_arithmetic(self):
        x, y, z = (RING.var(k) for k in range(3))
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + y + z).degree() == 1
        assert ((x + 1) ** 3) == x**3 + 3 * x**2 + 3 * x + 1

    def test_homogeneous(self):
        x, y, _ = (RING.var(k) for k in range(3))
        assert (x * y + x * x).is_homogeneous()
        assert not (x * y + x).is_homogeneous()
        assert RING.zero().is_homogeneous()
        assert (x * y + x * x).term_degrees() == {2}
        assert (x * y + x + 3).term_degrees() == {0, 1, 2}
        assert RING.zero().term_degrees() == set()

    @given(a=polys(RING), b=polys(RING), c=polys(RING))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_integers(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a - a == RING.zero()

    @given(a=polys(RING), b=polys(RING), c=polys(RING))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_prime_field(self, a, b, c):
        # reduction mod 2 is a ring map: reducing the integer results
        # equals computing with the reduced polynomials, which is what
        # the finite-field checks rely on when they reduce the minors
        p = 2
        ra, rb, rc = (RING.reduce(reduced(q.terms, p)) for q in (a, b, c))
        assert reduced(((a + b) * c).terms, p) == reduced(((ra + rb) * rc).terms, p)
        assert reduced((a * (b * c)).terms, p) == reduced(((ra * rb) * rc).terms, p)

    @given(a=polys(RING), b=polys(RING))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_is_ring_map(self, a, b):
        p = 32003
        rng = random.Random(11)
        pt = [rng.randrange(p) for _ in range(3)]
        assert a.evaluate(pt, p) == evaluate_oracle(a, pt, p)
        assert (a * b).evaluate(pt, p) == a.evaluate(pt, p) * b.evaluate(pt, p) % p
        assert (a + b).evaluate(pt, p) == (a.evaluate(pt, p) + b.evaluate(pt, p)) % p

    @given(a=polys(RING), pt=st.lists(st.integers(-7, 7), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_integers_matches_oracle(self, a, pt):
        # negative coordinates and coefficients give values in [0, p)
        assert a.evaluate(pt, 32003) == evaluate_oracle(a, pt) % 32003
        assert lift(a.evaluate(pt, EXACT)) == evaluate_oracle(a, pt)

    def test_evaluate_rationals(self):
        x, y, _ = (RING.var(k) for k in range(3))
        p = x * x + 2 * y
        pt = [-5, 3, 0]
        assert p.evaluate(pt, 32003) == 25 + 6
        assert (p - 40).evaluate(pt, 32003) == 32003 - 9

    def test_grevlex_order_degree_first(self):
        # within a degree, ties break on the trailing exponents
        assert grevlex_key((2, 0)) < grevlex_key((1, 1)) < grevlex_key((0, 2))
        assert grevlex_key((0, 2)) < grevlex_key((1, 0))

    def test_str_grammar(self):
        ring = PolyRing(2)
        x, y = ring.var(0), ring.var(1)
        assert str((x + y) ** 2) == "1*x0^2 + 2*x0^1*x1^1 + 1*x1^2"
        assert str(x - y) == "1*x0^1 + -1*x1^1"
        assert str(ring.zero()) == "0"
        assert str(ring.const(-2)) == "-2"

    @pytest.mark.parametrize("p", [None, 32003, 2], ids=["ZZ", "GF32003", "GF2"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_stepwise_reference(self, p, data):
        # eight monomials and small coefficients, so sums collide and,
        # mod 2 most of all, cancel; the integer results reduced once
        # mod p match arithmetic reduced after every step
        a = data.draw(polys(RING, max_exp=1, max_coeff=2))
        b = data.draw(polys(RING, max_exp=1, max_coeff=2))
        k = data.draw(st.integers(-5, 5))
        assert reduced((a + b).terms, p) == stepwise_add(a, b, p)
        assert reduced((a - b).terms, p) == stepwise_add(a, stepwise_neg(b), p)
        assert reduced((-a).terms, p) == reduced(stepwise_neg(a).terms, p)
        assert reduced((a * b).terms, p) == stepwise_mul(a, b, p)
        assert reduced((k * a).terms, p) == reduced((a * k).terms, p) == stepwise_scale(a, k, p)
        assert (a + (-a)).is_zero()

    def test_map_domain_matches_native(self):
        # map_domain keeps the terms and takes the other ring's names
        native = determinant(reduced_kalman_matrix(2, 3))
        plain = native.map_domain(PolyRing(6))
        assert plain.terms == native.terms and plain.ring.nvars == 6
        assert str(plain) == "1*x1^1*x4^2 + -1*x0^1*x4^1*x5^1 + 1*x3^1*x4^1*x5^1 + -1*x2^1*x5^2"
        back = plain.map_domain(reduced_kalman_matrix(2, 3)[0][0].ring)
        assert back == native and str(back) == str(native)
        with pytest.raises(ValueError, match="variable count mismatch"):
            native.map_domain(PolyRing(5))

    def test_rings_with_equal_variable_counts_are_one_ring(self):
        # every call builds its own ring; the polynomials still combine
        a = all_top_minors(2, 4)[0][1]
        b = all_top_minors(2, 4)[0][1]
        assert a.ring is not b.ring
        assert a == b
        assert (a - b).is_zero()
        with pytest.raises(ValueError, match="mixed rings"):
            PolyRing(3).var(0) + PolyRing(4).var(0)


class TestPacking:
    def test_var_and_const_keys(self):
        ring = PolyRing(4)
        assert ring.var(2).terms == {1 << 16: 1} == {ring.pack((0, 0, 1, 0)): 1}
        assert ring.const(5).terms == {0: 5}
        assert PolyRing(0).pack(()) == 0 and PolyRing(0).unpack(0) == ()

    @given(exp=st.lists(st.integers(0, 255), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_unpack_inverts_pack(self, exp):
        ring = PolyRing(5)
        assert ring.unpack(ring.pack(exp)) == tuple(exp)
        assert ring.pack_many([exp, tuple(exp)]) == [ring.pack(exp)] * 2

    def test_pack_refuses_past_the_byte_and_wrong_length(self):
        with pytest.raises(ValueError, match="255"):
            RING.pack((0, 256, 0))
        with pytest.raises(ValueError, match="255"):
            RING.pack((0, -1, 0))
        with pytest.raises(ValueError, match="3 entries"):
            RING.pack((1, 2))
        with pytest.raises(ValueError, match="3 entries"):
            RING.pack((1, 2, 3, 4))

    def test_product_and_power_past_255_refused(self):
        x, y, _ = (RING.var(k) for k in range(3))
        with pytest.raises(ValueError, match="255"):
            x**256
        with pytest.raises(ValueError, match="255"):
            x**200 * x**56
        with pytest.raises(ValueError, match="255"):
            (x * y + 1) ** 128
        assert (x**200 * x**55).terms == {RING.pack((255, 0, 0)): 1}
        assert (x**255).degree() == 255
        assert RING.zero() * x**255 == RING.zero()

    def test_serialization_reads_exponent_tuples(self):
        ring = PolyRing(2)
        p = ring.reduce({ring.pack((0, 255)): 4, ring.pack((3, 1)): -1})
        assert p.sorted_terms() == [((0, 255), 4), ((3, 1), -1)]
        assert str(p) == "4*x1^255 + -1*x0^3*x1^1"
        assert p.degree() == 255 and not p.is_homogeneous()


class TestBlockLayout:
    """The variables of the reduced matrix: only the first d columns of
    End(V) are variables, x[i][j] (1-based) has index (i-1)*d + (j-1),
    alpha is rows 1..d and gamma rows d+1..n."""

    def test_var_indexing_row_major(self):
        ring = reduced_kalman_matrix(2, 3)[0][0].ring
        assert ring.nvars == 6
        assert [ring.var_name(k) for k in range(6)] == [
            "x[1][1]", "x[1][2]", "x[2][1]", "x[2][2]", "x[3][1]", "x[3][2]"
        ]
        for d, n in [(1, 3), (3, 5), (4, 7)]:
            ring = reduced_kalman_matrix(d, n)[0][0].ring
            assert ring.nvars == n * d
            for i in range(1, n + 1):
                for j in range(1, d + 1):
                    assert ring.var_name((i - 1) * d + (j - 1)) == f"x[{i}][{j}]"

    def test_blocks(self):
        # block 0 is gamma itself, one variable per entry
        m = reduced_kalman_matrix(2, 4)
        ring = m[0][0].ring
        assert m[:2] == [[ring.var(4), ring.var(5)], [ring.var(6), ring.var(7)]]
        assert str(m[0][0]) == "1*x[3][1]^1"
        assert str(m[1][0]) == "1*x[4][1]^1"

    @pytest.mark.parametrize("d,n", [(2, 2), (0, 4), (3, 1)])
    def test_needs_1_le_d_lt_n(self, d, n):
        with pytest.raises(ValueError, match=re.escape(f"need 1 <= d < n, got d={d}, n={n}")):
            reduced_kalman_matrix(d, n)


def gamma_alpha_blocks(d: int, n: int) -> list[list[list[SparsePoly]]]:
    """gamma * alpha^r for r < d, entry by entry in the ring of the
    reduced matrix, from the variable layout alone."""
    ring = reduced_kalman_matrix(d, n)[0][0].ring
    x = [[ring.var(i * d + j) for j in range(d)] for i in range(n)]
    alpha, block = x[:d], x[d:]
    blocks = []
    for _ in range(d):
        blocks.append(block)
        block = [
            [sum((row[k] * alpha[k][j] for k in range(d)), ring.zero()) for j in range(d)]
            for row in block
        ]
    return blocks


class TestReducedMatrix:
    def test_shape(self):
        for d, n in [(1, 3), (2, 3), (2, 4), (3, 5)]:
            m = reduced_kalman_matrix(d, n)
            assert len(m) == d * (n - d)
            assert all(len(row) == d for row in m)

    def test_row_degrees_by_block(self):
        m = reduced_kalman_matrix(3, 5)
        for r in range(6):
            block = r // 2
            for c in range(3):
                assert m[r][c].degree() == block + 1
                assert m[r][c].is_homogeneous()

    def test_d1_is_first_column_tail(self):
        m = reduced_kalman_matrix(1, 3)
        assert (len(m), len(m[0])) == (2, 1)
        assert str(m[0][0]) == "1*x[2][1]^1"
        assert str(m[1][0]) == "1*x[3][1]^1"

    def test_second_block_is_gamma_alpha(self):
        m = reduced_kalman_matrix(2, 4)
        ring = m[0][0].ring
        x = lambda i, j: ring.var((i - 1) * 2 + (j - 1))
        for i in range(2):
            for j in range(2):
                assert m[2 + i][j] == x(3 + i, 1) * x(1, j + 1) + x(3 + i, 2) * x(2, j + 1)

    @pytest.mark.parametrize("d,n", [(1, 2), (2, 3), (3, 5), (4, 6)])
    def test_block_r_is_gamma_alpha_to_the_r(self, d, n):
        m = reduced_kalman_matrix(d, n)
        for r, block in enumerate(gamma_alpha_blocks(d, n)):
            assert m[r * (n - d):(r + 1) * (n - d)] == block, r

    def test_matmul_against_manual(self):
        ring = PolyRing(6)
        a = [[ring.var(0), ring.var(1)], [ring.var(2), ring.var(3)]]
        sq = _matmul(a, a)
        assert sq[0][0] == ring.var(0) * ring.var(0) + ring.var(1) * ring.var(2)
        assert sq[1][1] == ring.var(2) * ring.var(1) + ring.var(3) * ring.var(3)
        # a row times a 2 x 1 column is a 1 x 1 matrix
        col = [[ring.var(4)], [ring.var(5)]]
        assert _matmul(a[:1], col) == [[ring.var(0) * ring.var(4) + ring.var(1) * ring.var(5)]]


class TestMinors:
    def test_minor_past_the_byte_refused(self):
        # twelve rows of degree-22 entries may reach degree 264; eleven
        # reach 242 and expand
        ring = PolyRing(2)
        x, y = ring.var(0), ring.var(1)
        entry = x**11 * y**11
        big = [[entry] * 12 for _ in range(12)]
        with pytest.raises(ValueError, match="264.*255"):
            determinant(big)
        assert determinant([[entry] * 11 for _ in range(11)]).is_zero()

    def test_frozen_smallest_determinant(self):
        # d=2, n=3: det of the full 2x2 stacked matrix, degree 3,
        # exactly four monomials
        p = determinant(reduced_kalman_matrix(2, 3))
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
        # rows and columns are taken in the order a pick gives them
        m = reduced_kalman_matrix(2, 4)
        quad = all_top_minors(2, 4)[0][1]
        assert determinant([m[1], m[0]]) == -determinant(m[:2]) == -quad
        assert list(_minors(m, [((1, 0), (0, 1)), ((0, 1), (0, 1)), ((0, 1), (1, 0))])) == [-quad, quad, -quad]

    def test_repeated_rows_give_zero(self):
        # a pick that repeats a row or a column is the determinant of a
        # matrix with two equal rows or columns
        m = reduced_kalman_matrix(2, 4)
        assert all(p.is_zero() for p in _minors(m, [((0, 0), (0, 1)), ((2, 3), (1, 1))]))
        assert determinant([m[3], m[3]]).is_zero()

    def test_determinant_needs_a_nonempty_square_matrix(self):
        x, y = RING.var(0), RING.var(1)
        for rows in ([], [[x, y]], [[x], [y]], reduced_kalman_matrix(2, 4)):
            with pytest.raises(ValueError, match="^determinant needs a nonempty square matrix$"):
                determinant(rows)

    def test_empty_minor_is_one(self):
        m = reduced_kalman_matrix(2, 4)
        assert list(_minors(m, [((), ())])) == [m[0][0].ring.one()]

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

    @pytest.mark.parametrize("p", [None, 32003], ids=["ZZ", "GF32003"])
    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 5)])
    def test_all_top_minors_match_leibniz(self, d, n, p):
        # exactly, or mod p at three points: every minor's value against
        # the Leibniz formula on the values of the stacked matrix
        m = reduced_kalman_matrix(d, n)
        minors = all_top_minors(d, n)
        if p is None:
            for rows, g in minors:
                sub = [[m[r][c] for c in range(d)] for r in rows]
                assert g == brute_determinant(sub), rows
            return
        rng = random.Random(d * n)
        for _ in range(3):
            pt = [rng.randrange(p) for _ in range(n * d)]
            values = [[evaluate_oracle(e, pt, p) for e in row] for row in m]
            want = [leibniz_mod_p([values[r] for r in rows], p) for rows, _ in minors]
            assert evaluate_many([g for _, g in minors], [pt], p) == [want]

    def test_unsorted_rows_and_columns_match_leibniz(self):
        m = reduced_kalman_matrix(3, 5)
        for rows, cols in [((3, 0, 5), (2, 0, 1)), ((4, 1, 2), (1, 2, 0)), ((5, 3, 1), (0, 2, 1))]:
            sub = [[m[r][c] for c in cols] for r in rows]
            assert list(_minors(m, [(rows, cols)])) == [brute_determinant(sub)]

    @pytest.mark.parametrize("p", [None, 32003], ids=["ZZ", "GF32003"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_matrices_match_leibniz(self, p, data):
        # exactly, or by value mod p at a point
        m, rows, cols = data.draw(square_matrices(RING))
        shuffled = [[m[r][c] for c in cols] for r in rows]
        if p is None:
            assert determinant(m) == brute_determinant(m)
            assert list(_minors(m, [(rows, cols)])) == [brute_determinant(shuffled)]
            return
        pt = data.draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3))
        for got, sub in ((determinant(m), m), (next(_minors(m, [(rows, cols)])), shuffled)):
            values = [[evaluate_oracle(e, pt, p) for e in row] for row in sub]
            assert got.evaluate(pt, p) == leibniz_mod_p(values, p)

    def test_exponent_limit(self):
        # packed exponents hold 255 per variable: a minor whose rows can
        # reach 256 is refused instead of carrying into the next variable
        ring = PolyRing(2)
        x, y = ring.var(0), ring.var(1)
        at_limit = [[x**200, y], [y, x**55]]
        assert determinant(at_limit) == x**255 - y * y
        assert determinant(at_limit).terms[ring.pack((255, 0))] == 1
        over = [[x**200, y], [y, x**56]]
        with pytest.raises(ValueError, match="255"):
            determinant(over)
        # one entry of degree 256 packs, each exponent being at most
        # 255, and a minor on it is refused all the same
        wide = ring.reduce({ring.pack((200, 56)): 1})
        with pytest.raises(ValueError, match="a minor may reach degree 256"):
            determinant([[wide]])
        # the call refuses a pick before its result is iterated
        with pytest.raises(ValueError, match="a minor may reach degree 256"):
            _minors(over, [((1,), (0,)), ((0, 1), (0, 1))])
        # only the rows and columns of the pick count towards the bound
        assert list(_minors(over, [((1,), (0,))])) == [y]
        assert list(_minors([[wide, y], [y, x]], [((1,), (1,)), ((1,), (0,))])) == [x, y]

    @pytest.mark.parametrize(
        "d,n,products",
        [(2, 3, 4), (3, 6, 31920), (4, 5, 93696), (4, 6, 65324760), (4, 7, 856527912),
         (5, 6, 1000065000), (5, 7, 47434859514720)],
    )
    def test_product_bound(self, monkeypatch, d, n, products):
        # the bound is read off the error at a limit of 0, so (4, 6) is
        # priced without being expanded: it fits the limit, (4, 7) does
        # not.  The minors are built over the integers, so the check at
        # any modulus prices the same expansion.
        monkeypatch.setattr("kalvar.polysym.MAX_MINOR_PRODUCTS", 0)
        message = re.escape(f"up to {products} term products")
        with pytest.raises(ValueError, match=message):
            all_top_minors(d, n)
        for p in (2, 3, 32003):
            with pytest.raises(ValueError, match=message):
                minors_vanishing_check(d, n, 1, PrimeFieldConfig(modulus=p))
        assert (products <= MAX_MINOR_PRODUCTS) == ((d, n) not in {(4, 7), (5, 6), (5, 7)})

    def test_product_bound_of_a_small_expansion(self, monkeypatch):
        # a 2 x 2 of single terms takes 1 * 1 + 1 * 1 term products; an
        # entry of three terms in its first row makes it 3 * 1 + 1 * 1
        ring = PolyRing(2)
        x, y = ring.var(0), ring.var(1)
        monkeypatch.setattr("kalvar.polysym.MAX_MINOR_PRODUCTS", 2)
        assert determinant([[x, y], [y, x]]) == x * x - y * y
        with pytest.raises(ValueError, match="up to 4 term products, more than the limit of 2 "):
            determinant([[x + y + 1, y], [y, x]])

    def test_a_pick_counts_at_every_use(self):
        # a 3 x 3 of single terms takes 3 * 2 products at its top level;
        # the same pick given twice counts twice, though it is built once
        sizes = [[1] * 3] * 3
        pick = ((0, 1, 2), (0, 1, 2))
        assert _count_products(sizes, [pick])[0] == 6
        assert _count_products(sizes, [pick, pick])[0] == 12

    @pytest.mark.parametrize("p", [None, 32003], ids=["ZZ", "GF32003"])
    def test_term_counts(self, p):
        # no coefficient is a multiple of 32003
        assert len(reduced(determinant(reduced_kalman_matrix(4, 5)).terms, p)) == 11912
        assert sum(len(reduced(g.terms, p)) for _, g in all_top_minors(3, 6)) == 8346


@st.composite
def families(draw):
    """Polynomials in three variables, drawn from one pool of monomials
    so that they share some monomials and not others, always with the
    zero polynomial and a constant among them, and sometimes with an
    exponent of 255, the most one byte holds."""
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        pool.append((0, 255, 1))
    out = [RING.zero(), RING.const(draw(st.integers(-9, 9)))]
    for _ in range(draw(st.integers(1, 4))):
        picked = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
        out.append(RING.reduce({RING.pack(e): draw(st.integers(-9, 9)) for e in picked}))
    order = draw(st.permutations(range(len(out))))
    return [out[i] for i in order]


class TestEvaluateMany:
    @given(
        polys=families(),
        points=st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3), min_size=1, max_size=4),
        p=st.sampled_from([2, 3, 32003, 46337]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_term_by_term_oracle(self, polys, points, p):
        values = evaluate_many(polys, points, p)
        assert values == [[evaluate_oracle(g, pt, p) for g in polys] for pt in points]
        for g, value in zip(polys, values[0]):
            assert g.evaluate(points[0], p) == value

    def test_zero_constant_and_top_exponent(self):
        # x^255 z packs, with the top byte value; building it as a
        # product is refused, since a product of degree 256 could carry
        x, y, z = (RING.var(k) for k in range(3))
        with pytest.raises(ValueError, match="255"):
            x**255 * z
        wide = RING.reduce({RING.pack((255, 0, 1)): 1}) + 2 * y
        polys = [RING.zero(), RING.const(-7), wide, x * z + 2 * y]
        pt = [3, 5, -1]
        for p in (32003, EXACT):
            want = [0, p - 7, (-(3 ** 255) + 10) % p, 7]
            assert evaluate_many(polys, [pt], p) == [want]
            assert [g.evaluate(pt, p) for g in polys] == want
            assert evaluate_many(polys, [pt, [0, 0, 0]], p) == [want, [0, p - 7, 0, 0]]

    def test_no_points_and_no_polynomials(self):
        assert evaluate_many([RING.var(0)], [], 32003) == []
        assert evaluate_many([], [[1, 2, 3], [4]], 32003) == [[], []]

    def test_point_of_wrong_length_rejected(self):
        x = RING.var(0)
        with pytest.raises(ValueError, match="wrong length"):
            evaluate_many([x, x * x], [[1, 2, 3], [1, 2]], 32003)
        with pytest.raises(ValueError, match="wrong length"):
            x.evaluate([1, 2, 3, 4], 32003)

    def test_different_variable_counts_rejected(self):
        with pytest.raises(ValueError, match="different numbers of variables"):
            evaluate_many([RING.var(0), PolyRing(2).var(0)], [[1, 2, 3]], 32003)


class TestEvaluate:
    @staticmethod
    def _gens():
        det = determinant(reduced_kalman_matrix(4, 5))
        return [det] + [g for _, g in all_top_minors(3, 6)]

    @pytest.mark.parametrize("p", [32003, 46337])
    def test_minors_match_oracle_over_prime_fields(self, p):
        rng = random.Random(p)
        gens = self._gens()
        for _ in range(3):
            for g in gens:
                pt = [rng.randrange(p) for _ in range(g.ring.nvars)]
                pt[rng.randrange(len(pt))] = 0
                assert g.evaluate(pt, p) == evaluate_oracle(g, pt, p)

    def test_minors_evaluated_together_match_oracle(self):
        p = 32003
        rng = random.Random(5)
        minors = [g for _, g in all_top_minors(3, 6)]
        points = [[rng.randrange(p) for _ in range(18)] for _ in range(3)]
        assert evaluate_many(minors, points, p) == [[evaluate_oracle(g, pt, p) for g in minors] for pt in points]

    def test_minors_share_one_trie(self):
        # the split is the one thing the values cannot show, since any
        # split evaluates exactly: the 84 minors of (3, 6) split below
        # variable 9, the alpha/gamma boundary, into 617 trie nodes
        # besides the root and 1,398 groups, where one plan each would
        # walk 11,060 nodes; the (4, 5) determinant splits below
        # variable 14, into 11,462 nodes and 244 groups
        nodes = lambda plan: len(plan[1])
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

    def test_every_parent_precedes_its_node(self):
        # the nodes are numbered in ascending packed order, and each link
        # steps up by one factor of its variable, the node's lowest
        minors = [g for _, g in all_top_minors(3, 6)]
        det = determinant(reduced_kalman_matrix(4, 5))
        for polys, split in ((minors, 9), ([det], 14)):
            low = (1 << 8 * split) - 1
            halves = {h for g in polys for m in g.terms for h in (m & low, m - (m & low))}
            links, index = _shared_trie(halves)
            nodes = sorted(index, key=index.__getitem__)
            assert nodes == sorted(index) and nodes[0] == 0 and halves <= index.keys()
            assert len(links) == len(nodes) - 1
            for node, (parent, k) in enumerate(links, 1):
                assert parent < node
                assert nodes[node] - nodes[parent] == 1 << 8 * k
                assert nodes[parent] & ((1 << 8 * k) - 1) == 0

    # The moduli each case below measures by, one evaluation per modulus;
    # "ZZ" is EXACT, past every value, so its values lift to the integers.
    MODULI = {
        "ZZ": (EXACT,),
        "GF32003": (32003,),
        "GF46337": (46337,),
        "ZZ-and-GF32003": (EXACT, 32003),
        "GF32003-and-GF46337": (32003, 46337),
    }

    @pytest.mark.parametrize("moduli", sorted(MODULI))
    def test_one_call_matches_oracle_in_every_domain(self, moduli):
        # every trie node is reduced mod p.  Coordinates far past either
        # small prime make any reduction by the wrong modulus show in the
        # values, and mod EXACT they are the exact integers.
        moduli = self.MODULI[moduli]
        rng = random.Random(len(moduli))
        gens = [g for _, g in all_top_minors(3, 6)[:12]]
        points = [[rng.randrange(-10**12, 10**12) for _ in range(18)] for _ in range(3)]
        exact = [[evaluate_oracle(g, pt) for g in gens] for pt in points]
        assert any(abs(v) > 46337 for row in exact for v in row)
        for p in moduli:
            values = evaluate_many(gens, points, p)
            assert values == [[v % p for v in row] for row in exact]
            assert values == [[evaluate_oracle(g, pt, p) for g in gens] for pt in points]
            assert values == [[g.evaluate(pt, p) for g in gens] for pt in points]

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
    @pytest.mark.parametrize("moduli", sorted(MODULI))
    def test_split_cases_match_oracle(self, case, moduli):
        nvars, split, polys = self.SPLIT_CASES[case]
        ring = PolyRing(nvars)
        gens = [ring.reduce({ring.pack(e): c for e, c in terms.items()}) for terms in polys]
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
        for p in self.MODULI[moduli]:
            values = evaluate_many(gens, points, p)
            assert values == [[evaluate_oracle(g, pt, p) for g in gens] for pt in points]
            assert values == [[g.evaluate(pt, p) for g in gens] for pt in points]

    def test_minors_match_oracle_over_integers(self):
        rng = random.Random(3)
        gens = self._gens()
        for g in gens:
            pt = [rng.randint(-4, 4) for _ in range(g.ring.nvars)]
            pt[0], pt[-1] = 0, -3
            value = g.evaluate(pt, EXACT)
            assert lift(value) == evaluate_oracle(g, pt)
            assert isinstance(value, int)


class TestWedgeTrace:
    """The trace of the i-th exterior power of alpha, the sum of its
    principal i x i minors, from the principal picks of
    `_trace_identity_picks`: the C(d, i) after det A, on rows 2d.. of
    [A; A * alpha; alpha]."""

    def _generic(self, d, seed_names="m"):
        ring = PolyRing(d * d, lambda k: f"{seed_names}[{k // d + 1}][{k % d + 1}]")
        return [[ring.var(r * d + c) for c in range(d)] for r in range(d)]

    @staticmethod
    def exterior_trace(m, i):
        d = len(m)
        principal = _trace_identity_picks(d, i)[1:1 + comb(d, i)]
        assert [(tuple(r - 2 * d for r in rows), cols) for rows, cols in principal] == [
            (rows, rows) for rows in itertools.combinations(range(d), i)
        ]
        # only alpha's rows are read, so A and A * alpha may be anything
        return sum(_minors(3 * m, principal), m[0][0].ring.zero())

    def test_extremes(self):
        m = self._generic(3)
        assert self.exterior_trace(m, 3) == determinant(m)

    def test_i1_is_trace(self):
        m = self._generic(3)
        expected = m[0][0] + m[1][1] + m[2][2]
        assert self.exterior_trace(m, 1) == expected

    def test_generic_4x4_matches_leibniz(self):
        m = self._generic(4)
        for i in range(1, 5):
            expected = m[0][0].ring.zero()
            for rows in itertools.combinations(range(4), i):
                sub = [[m[r][c] for c in rows] for r in rows]
                expected = expected + brute_determinant(sub)
            assert self.exterior_trace(m, i) == expected

    def test_char_poly_coefficients(self):
        # det(I*t + M) = sum_i exterior_trace(M, i) * t^(d-i), checked at
        # integer values of t; the i = 0 coefficient is 1
        d = 3
        m = self._generic(d)
        rng = random.Random(5)
        pt = [rng.randint(-5, 5) for _ in range(d * d)]
        p = 32003
        vals = [[m[i][j].evaluate(pt, p) for j in range(d)] for i in range(d)]
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
            total = t**d + sum(
                self.exterior_trace(m, i).evaluate(pt, p) * t ** (d - i) for i in range(1, d + 1)
            )
            assert det % p == total % p


class TestTraceIdentity:
    @pytest.mark.parametrize("d,i", [(d, i) for d in (1, 2, 3) for i in range(1, d + 1)])
    def test_holds_symbolically(self, d, i):
        report = trace_identity_check(d, i)
        assert report.passed, report.details

    @staticmethod
    def _corrupted(monkeypatch, change):
        real = polysym._trace_identity_picks
        monkeypatch.setattr(polysym, "_trace_identity_picks", lambda d, i: change(d, real(d, i)))

    CORRUPTED_CASES = [(2, 1), (3, 1), (3, 2)]

    def test_detects_dropped_row_set(self, monkeypatch):
        # omitting one of the row sets from the right side must break
        # the identity, so a check that compared a side with itself
        # would be caught
        self._corrupted(monkeypatch, lambda d, picks: picks[:-1])
        for d, i in self.CORRUPTED_CASES:
            report = trace_identity_check(d, i)
            assert [f["kind"] for f in report.details] == ["nonzero_difference"], (d, i)

    def test_detects_a_row_taken_from_a(self, monkeypatch):
        # the last row set's first replaced row read from A instead of
        # A * alpha
        def from_a(d, picks):
            rows, cols = picks[-1]
            first = next(k for k, r in enumerate(rows) if d <= r < 2 * d)
            return picks[:-1] + [(rows[:first] + (rows[first] - d,) + rows[first + 1:], cols)]

        self._corrupted(monkeypatch, from_a)
        for d, i in self.CORRUPTED_CASES:
            report = trace_identity_check(d, i)
            assert [f["kind"] for f in report.details] == ["nonzero_difference"], (d, i)

    @pytest.mark.parametrize("d,i", [(d, i) for d in (1, 2, 3, 4) for i in range(1, d + 1)])
    def test_products_are_those_of_its_minors(self, monkeypatch, d, i):
        # the bound the check refuses on is the bound that its one
        # `_minors` call counts on the matrix it builds
        checked, calls = [], []
        real_check, real_minors = polysym.check_minor_products, polysym._minors

        def recording(work, what):
            checked.append((what, work))
            real_check(work, what)

        def counting(entries, picks):
            calls.append(picks)
            return real_minors(entries, picks)

        monkeypatch.setattr(polysym, "check_minor_products", recording)
        monkeypatch.setattr(polysym, "_minors", counting)
        assert trace_identity_check(d, i).passed
        assert calls == [_trace_identity_picks(d, i)]
        bound = trace_identity_products(d, i)
        assert checked == [(f"the minors of the trace identity at d={d}, i={i}", bound), ("the minors", bound)]

    @pytest.mark.parametrize("d,i", [(3, 1), (3, 2), (4, 2)])
    def test_adds_each_minor_up_as_it_comes(self, monkeypatch, d, i):
        # whenever the check asks for its next minor, every earlier one
        # but det A is held by nothing but `given`.  SparsePoly has no
        # weakref slot, so the references are counted; getrefcount also
        # counts its own argument
        real = polysym._minors
        given, alive = [], []

        class Watched:
            def __init__(self, minors):
                self.minors = minors

            def __iter__(self):
                return self

            def __next__(self):
                alive.append([k for k in range(1, len(given)) if sys.getrefcount(given[k]) > 2])
                given.append(next(self.minors))
                return given[-1]

        monkeypatch.setattr(polysym, "_minors", lambda entries, picks: Watched(real(entries, picks)))
        assert trace_identity_check(d, i).passed
        assert len(given) == len(_trace_identity_picks(d, i))
        assert alive == [[]] * (len(given) + 1)

    def test_over_the_product_limit_raises_before_expanding(self, monkeypatch):
        # (7, 4) bounds at 4.2e8 term products
        def no_minors(*args):
            raise AssertionError("a minor was expanded before the limit check")

        monkeypatch.setattr(polysym, "_minors", no_minors)
        assert trace_identity_products(7, 4) == 423542280
        with pytest.raises(ValueError, match=re.escape(
            "the minors of the trace identity at d=7, i=4 take up to 423542280 term products, "
            f"more than the limit of {MAX_MINOR_PRODUCTS} (MAX_MINOR_PRODUCTS)"
        )):
            trace_identity_check(7, 4)

    @pytest.mark.parametrize("d,i", [(0, 1), (2, 0), (2, 3)])
    def test_needs_a_case(self, d, i):
        for identity in (trace_identity_products, trace_identity_check):
            with pytest.raises(ValueError, match="need 1 <= i <= d"):
                identity(d, i)

    def test_report_shape(self):
        report = trace_identity_check(2, 2)
        assert report.verdict == "pass"
        assert report.check == "trace-minor-identity"
        assert report.params == {"d": 2, "i": 2}
        assert report.details == []
