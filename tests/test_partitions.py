import itertools
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalvar.partitions import _beta_mask, _skew_dims_by_beta, _weyl_product
from kalvar.partitions import (
    Box,
    Partition,
    SkewShape,
    partitions_in_box,
    schur_dim,
    skew_schur_dim,
)


def brute_skew_ssyt(outer, inner, m):
    """Oracle: try every assignment of 1..m to the cells and keep the
    semistandard ones.  Exponential, only for tiny shapes."""
    outer, inner = Partition(outer), Partition(inner)
    spans = [(inner.part(r), outer[r]) for r in range(len(outer))]
    cells = [(r, c) for r, (a, b) in enumerate(spans) for c in range(a, b)]
    if not cells:
        return 1
    count = 0
    for vals in itertools.product(range(1, m + 1), repeat=len(cells)):
        grid = dict(zip(cells, vals))
        ok = True
        for (r, c), v in grid.items():
            if (r, c - 1) in grid and grid[(r, c - 1)] > v:
                ok = False
                break
            if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
                break
        count += ok
    return count


def weyl_oracle(eta, m):
    """Uncached Weyl product over the rationals, for a weight already
    weakly decreasing with at most m entries (negative ones only when
    exactly m): the oracle for the cached schur_dim."""
    eta = list(eta) + [0] * (m - len(eta))
    value = prod(Fraction(eta[i] - eta[j] + j - i, j - i) for i in range(m) for j in range(i + 1, m))
    assert value.denominator == 1
    return int(value)


weights = st.integers(0, 6).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(-3, 4), min_size=m, max_size=m).map(lambda xs: sorted(xs, reverse=True)),
    )
)


def is_horizontal_strip(outer, inner):
    """At most one cell of outer/inner in each column."""
    outer_t, inner_t = Partition(outer).conjugate(), Partition(inner).conjugate()
    return all(outer_t[j] - inner_t.part(j) <= 1 for j in range(len(outer_t)))


def strip_first_column(lam):
    """(a_1, ..., a_s) -> (a_1 - 1, ..., a_s - 1): the first column removed."""
    return Partition(a - 1 for a in lam)


@st.composite
def partitions(draw, max_len=5, max_part=6):
    n = draw(st.integers(0, max_len))
    parts = draw(
        st.lists(st.integers(1, max_part), min_size=n, max_size=n).map(
            lambda xs: sorted(xs, reverse=True)
        )
    )
    return Partition(parts)


# Largest skew size per m at which the assignment oracle (m ** size
# candidate fillings) stays cheap enough for a property test.
ORACLE_CELLS = {0: 25, 1: 25, 2: 11, 3: 7, 4: 5, 5: 5}


@st.composite
def skew_shapes(draw, rows=5, cols=5):
    """(outer, inner, m): inner drawn in the rows x cols box, outer grown
    from it one addable cell at a time inside the box, m in 0..5, with
    the skew size capped by ORACLE_CELLS[m]."""
    m = draw(st.integers(0, 5))
    inner = list(draw(partitions(max_len=rows, max_part=cols)))
    outer = inner + [0] * (rows - len(inner))
    for _ in range(draw(st.integers(0, ORACLE_CELLS[m]))):
        addable = [
            r for r in range(rows)
            if outer[r] < cols and (r == 0 or outer[r - 1] > outer[r])
        ]
        if not addable:
            break
        outer[draw(st.sampled_from(addable))] += 1
    return Partition(outer), Partition(inner), m


class TestPartition:
    def test_trims_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition(()) == Partition((0, 0))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_rejects_non_integer_entries(self):
        # refused, not truncated to (2, 1)
        with pytest.raises(TypeError):
            Partition((2.7, 1.2))
        with pytest.raises(TypeError):
            Partition((2.0,))
        assert Partition((np.int64(2), 1)) == Partition((2, 1))

    def test_size_length_part(self):
        p = Partition((4, 2, 1))
        assert p.size == 7
        assert len(p) == 3
        assert p.part(0) == 4
        assert p.part(5) == 0

    def test_padded(self):
        assert Partition((2, 1)).padded(4) == (2, 1, 0, 0)
        with pytest.raises(ValueError):
            Partition((2, 1)).padded(1)

    def test_conjugate_example(self):
        assert Partition((3, 3, 3, 1, 1)).conjugate() == Partition((5, 3, 3))
        assert Partition(()).conjugate() == Partition(())

    def test_conjugate_involution_exhaustive(self):
        for p in partitions_in_box(Box(6, 6)):
            assert p.conjugate().conjugate() == p

    @given(partitions())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_involution_property(self, p):
        q = p.conjugate()
        assert q.conjugate() == p
        assert q.size == p.size

    def test_contains(self):
        assert Partition((3, 2)).contains(Partition((2, 2)))
        assert not Partition((3, 2)).contains(Partition((1, 1, 1)))
        assert Partition(()).contains(Partition(()))


class TestPartitionsInBox:
    def test_two_by_two_order(self):
        got = partitions_in_box(Box(2, 2))
        want = [
            Partition(()),
            Partition((1,)),
            Partition((2,)),
            Partition((1, 1)),
            Partition((2, 1)),
            Partition((2, 2)),
        ]
        assert got == want

    def test_counts_binomial(self):
        for a in range(7):
            for b in range(7):
                assert len(partitions_in_box(Box(a, b))) == comb(a + b, a)

    def test_containment_invariant(self):
        for p in partitions_in_box(Box(3, 4)):
            assert len(p) <= 3 and p.part(0) <= 4

    def test_returned_list_is_the_callers(self):
        # the shapes are built once per box; each call gets its own list
        want = list(partitions_in_box(Box(3, 3)))
        got = partitions_in_box(Box(3, 3))
        got.reverse()
        got.append(Partition((9,)))
        del got[:5]
        assert partitions_in_box(Box(3, 3)) == want
        assert partitions_in_box((3, 3)) is not partitions_in_box((3, 3))


class TestConjugateMemo:
    def test_memoized_equals_recomputed(self):
        # conjugate() keeps no memo: a shape, its second call and a
        # fresh equal Partition all give the transpose counted cell by
        # cell
        for p in partitions_in_box(Box(6, 6)):
            want = tuple(sum(1 for a in p if a > j) for j in range(p.part(0)))
            assert p.conjugate() == want
            assert p.conjugate() == want
            assert Partition(tuple(p)).conjugate() == want


def assert_trusted(p):
    """p, built without validation, is exactly what Partition(...) makes
    of its parts."""
    assert type(p) is Partition
    rebuilt = Partition(tuple(p))
    assert p == rebuilt and tuple(p) == tuple(rebuilt)
    assert all(type(a) is int for a in p)


class TestTrustedConstruction:
    """partitions_in_box and conjugate() skip Partition's checks, so
    every result is compared with its validated rebuild."""

    def test_exhaustive_small_boxes(self):
        for rows in range(5):
            for cols in range(5):
                for p in partitions_in_box(Box(rows, cols)):
                    assert_trusted(p)
                    assert_trusted(p.conjugate())

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_box_property(self, rows, cols):
        for p in partitions_in_box(Box(rows, cols)):
            assert_trusted(p)

    @given(partitions())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_property(self, p):
        assert_trusted(p.conjugate())
        assert_trusted(p.conjugate().conjugate())


class TestSchurDim:
    def test_known_values(self):
        assert schur_dim((2, 1), 3) == 8
        assert schur_dim((1, 1, 1), 3) == 1
        assert schur_dim((), 4) == 1

    def test_exterior_power_binomial(self):
        for m in range(1, 7):
            for k in range(m + 1):
                assert schur_dim((1,) * k, m) == comb(m, k)

    def test_symmetric_power_binomial(self):
        for m in range(1, 7):
            for k in range(7):
                assert schur_dim((k,), m) == comb(m + k - 1, k)

    def test_too_many_rows_is_zero(self):
        assert schur_dim((1, 1, 1), 2) == 0
        assert schur_dim((2, 2, 1), 2) == 0

    def test_negative_entries(self):
        # dual standard representation of GL(2), and the adjoint weight
        assert schur_dim((0, -1), 2) == 2
        assert schur_dim((1, -1), 2) == 3

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            schur_dim((1, 2), 3)

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            schur_dim((0, -1), 3)

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            schur_dim((1.5, 0), 2)
        assert schur_dim((np.int64(1), 0), 2) == 2

    @given(case=weights, trim=st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_cached_calls_match_uncached_oracle(self, case, trim):
        m, eta = case
        while trim and eta and eta[-1] == 0:  # the same weight without some trailing zeros
            eta, trim = eta[:-1], trim - 1
        want = weyl_oracle(eta, m)
        _weyl_product.cache_clear()
        assert schur_dim(eta, m) == want  # fresh
        assert schur_dim(eta, m) == want  # repeated, from the cache
        if not eta or eta[-1] >= 0:  # another spelling, same key
            assert schur_dim(list(eta) + [0, 0], m) == want
        assert schur_dim(tuple(np.int64(a) for a in eta), m) == want

    def test_cache_keeps_validation(self):
        assert schur_dim((1, 1, 1), 3) == 1
        with pytest.raises(TypeError):
            schur_dim((1, 1, 1), 3.0)
        with pytest.raises(TypeError):
            schur_dim((1.0, 1, 1), 3)
        assert schur_dim((0, -1), 2) == 2
        with pytest.raises(ValueError):
            schur_dim((0, -1), 3)
        with pytest.raises(ValueError):
            schur_dim((-1, 0), 2)
        with pytest.raises(ValueError):
            schur_dim((0, -1), -1)
        assert schur_dim((1, 1, 1), 2) == 0

    def test_matches_tableau_count_in_box(self):
        # independent routes: Weyl product formula vs Jacobi-Trudi determinant
        for lam in partitions_in_box(Box(4, 4)):
            for m in range(1, 5):
                counted = skew_schur_dim(SkewShape.of(lam), m)
                assert schur_dim(lam, m) == counted

    def test_matches_assignment_oracle_small(self):
        for lam in partitions_in_box(Box(3, 3)):
            if lam.size > 6:
                continue
            for m in range(1, 4):
                assert schur_dim(lam, m) == brute_skew_ssyt(lam, (), m)


class TestSkewSchurDim:
    def test_known_values(self):
        assert skew_schur_dim(SkewShape.of((2, 1), (1,)), 2) == 4
        assert skew_schur_dim(SkewShape.of((2, 2), (1,)), 2) == 2
        assert skew_schur_dim(SkewShape.of((), ()), 3) == 1

    def test_empty_inner_reduces_to_schur(self):
        for lam in partitions_in_box(Box(3, 3)):
            for m in range(1, 4):
                assert skew_schur_dim(SkewShape.of(lam), m) == schur_dim(lam, m)

    def test_matches_assignment_oracle(self):
        for lam in partitions_in_box(Box(3, 3)):
            for mu in partitions_in_box(Box(3, 3)):
                if not lam.contains(mu) or lam.size - mu.size > 6:
                    continue
                shape = SkewShape.of(lam, mu)
                for m in range(1, 4):
                    assert skew_schur_dim(shape, m) == brute_skew_ssyt(lam, mu, m)

    def test_single_value_iff_horizontal_strip(self):
        for lam in partitions_in_box(Box(4, 4)):
            for mu in partitions_in_box(Box(4, 4)):
                if not lam.contains(mu):
                    continue
                want = 1 if is_horizontal_strip(lam, mu) else 0
                assert skew_schur_dim(SkewShape.of(lam, mu), 1) == want

    @given(skew_shapes())
    @settings(max_examples=200, deadline=None)
    def test_jacobi_trudi_matches_assignment_oracle(self, case):
        outer, inner, m = case
        assert skew_schur_dim(SkewShape.of(outer, inner), m) == brute_skew_ssyt(outer, inner, m)

    @pytest.mark.parametrize(
        "outer, inner, m, want",
        [
            ((), (), 0, 1),  # empty shape
            ((), (), 3, 1),
            ((3, 2, 2), (3, 2, 2), 0, 1),  # inner == outer
            ((3, 2, 2), (3, 2, 2), 4, 1),
            ((1,), (), 0, 0),  # m = 0
            ((2, 1), (1,), 0, 0),
            ((1, 1, 1), (), 2, 0),  # a column taller than m
            ((2, 2, 2, 2), (1,), 3, 0),
            ((2, 2, 2, 1), (1,), 3, 1),  # columns exactly m tall
            ((3, 3, 1), (2,), 3, 21),
            ((2, 2), (), 2, 1),  # det^2 of GL(2)
        ],
    )
    def test_edge_cases(self, outer, inner, m, want):
        assert skew_schur_dim(SkewShape.of(outer, inner), m) == want
        assert brute_skew_ssyt(outer, inner, m) == want

    def test_rejects_non_contained(self):
        with pytest.raises(ValueError):
            SkewShape.of((1, 1), (2,))


def from_betas(betas, k):
    """The partition with k rows whose beta-set is `betas`: row i is the
    i-th largest beta b_i, less k - 1 - i."""
    return Partition(b - (k - 1 - i) for i, b in enumerate(sorted(betas, reverse=True)))


def skew_dim_or_zero(lam, mu, m):
    """s_{lam^T/mu^T}(1^m) by the public route, 0 where lam does not
    contain mu."""
    if not lam.contains(mu):
        return 0
    return skew_schur_dim(SkewShape(lam.conjugate(), mu.conjugate()), m)


@st.composite
def beta_tables(draw, max_n=14):
    """(n, k, m, mu, lams): m = 1, m = n - k or one in between; mu empty
    or drawn in the k x (n - m - k) box; lams drawn as k-subsets of
    0..n-1 (beta-sets), each also raised row by row to contain mu."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    m = draw(st.one_of(st.just(1), st.just(n - k), st.integers(1, n - k)))
    mu_rows = st.lists(st.integers(0, n - m - k), min_size=k, max_size=k)
    mu = draw(st.one_of(st.just(Partition(())), mu_rows.map(lambda xs: Partition(sorted(xs, reverse=True)))))
    drawn = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k), min_size=1, max_size=8))
    lams = []
    for betas in drawn:
        lam = from_betas(betas, k)
        lams += [lam, Partition(map(max, lam.padded(k), mu.padded(k)))]
    return n, k, m, mu, lams


class TestSkewDimsByBeta:
    """One sweep per mu gives s_{lam^T/mu^T}(1^m) for every lam of the
    k x (n - k) box, keyed by beta-set; `skew_schur_dim` is its oracle."""

    def test_beta_sets_are_the_k_subsets(self):
        for n in range(1, 10):
            for k in range(n + 1):
                keys = sorted(_beta_mask(lam.padded(k)) for lam in partitions_in_box(Box(k, n - k)))
                want = sorted(sum(1 << b for b in c) for c in itertools.combinations(range(n), k))
                assert keys == want, (n, k)

    def test_every_pair_of_the_grid(self):
        # m = n - d for every d < n, mu in the k x (d - k) box, lam in the
        # k x (n - k) box: 35,027 contained pairs, zero on all the others
        contained = 0
        for n in range(2, 10):
            for d in range(1, n):
                m = n - d
                for k in range(1, d + 1):
                    lams = partitions_in_box(Box(k, n - k))
                    for mu in partitions_in_box(Box(k, d - k)):
                        table = _skew_dims_by_beta(mu.padded(k), n, m)
                        for lam in lams:
                            got = table.get(_beta_mask(lam.padded(k)), 0)
                            assert got == skew_dim_or_zero(lam, mu, m), (n, d, k, lam, mu)
                            contained += lam.contains(mu)
        assert contained == 35027

    def test_full_length_lams_leave_out_row_0(self):
        # the lams of part III have full length k, so no beta-set of
        # theirs holds row 0: the sweep restricted to their rows builds no
        # entry of a shorter lam and gives every full-length key the
        # entry of the whole box
        for n in range(3, 11):
            for d in range(2, n):
                for k in range(2, d + 1):
                    keys = [_beta_mask(lam.padded(k)) for lam in partitions_in_box(Box(k, n - k)) if len(lam) == k]
                    rows = 0
                    for key in keys:
                        rows |= key
                    assert rows == (1 << n) - 2, (n, k)
                    for mu in partitions_in_box(Box(k - 1, d - k)):
                        whole = _skew_dims_by_beta(mu.padded(k), n, n - d)
                        table = _skew_dims_by_beta(mu.padded(k), n, n - d, rows)
                        assert table == {key: v for key, v in whole.items() if not key & 1}, (n, d, k, mu)
                        assert all(table.get(key) == whole.get(key) for key in keys)

    @given(case=beta_tables())
    @example(case=(14, 7, 1, Partition((6, 6, 5, 3, 1)), [Partition((7, 7, 6, 4, 2, 1)), Partition((7,) * 7)]))
    @example(case=(14, 5, 9, Partition(()), [Partition((9, 9, 4, 1, 1)), Partition(())]))
    @example(case=(13, 6, 3, Partition(()), [Partition((7, 5, 5, 2)), Partition((1,) * 6)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_public_route(self, case):
        n, k, m, mu, lams = case
        table = _skew_dims_by_beta(mu.padded(k), n, m)
        for lam in lams:
            assert table.get(_beta_mask(lam.padded(k)), 0) == skew_dim_or_zero(lam, mu, m), lam


class TestCauchyTerms:
    """The index set of the dual Cauchy decomposition of the p-th exterior
    power of E (x) F: pairs (lam, lam^T) with |lam| = p in the
    dim E x dim F box."""

    @staticmethod
    def pairs(p, dim_e, dim_f):
        return [
            (lam, lam.conjugate())
            for lam in partitions_in_box(Box(dim_e, dim_f))
            if lam.size == p
        ]

    def test_degree_zero(self):
        assert self.pairs(0, 3, 3) == [(Partition(()), Partition(()))]

    def test_degree_two_two_by_two(self):
        assert self.pairs(2, 2, 2) == [
            (Partition((2,)), Partition((1, 1))),
            (Partition((1, 1)), Partition((2,))),
        ]

    def test_box_constraints(self):
        for lam, lam_t in self.pairs(5, 2, 4):
            assert len(lam) <= 2 and lam.part(0) <= 4
            assert len(lam_t) <= 4 and lam_t.part(0) <= 2

    def test_dimension_identity(self):
        # sum of products of paired Schur dimensions = binomial(ef, p)
        for e in range(1, 5):
            for f in range(1, 5):
                for p in range(e * f + 1):
                    total = sum(
                        schur_dim(lam, e) * schur_dim(lam_t, f)
                        for lam, lam_t in self.pairs(p, e, f)
                    )
                    assert total == comb(e * f, p)


class TestTildeShift:
    """Removing the shared first column of two partitions of length s."""

    full = [p for p in partitions_in_box(Box(3, 3)) if len(p) == 3]

    def test_containment_preserved(self):
        for lam in self.full:
            for mu in self.full:
                if lam.contains(mu):
                    assert strip_first_column(lam).contains(strip_first_column(mu))

    def test_transposed_skew_shape_unchanged(self):
        # stripping the shared first column does not change the skew
        # diagram of the transposes, so the tableau counts agree
        for lam in self.full:
            for mu in self.full:
                if not lam.contains(mu):
                    continue
                before = SkewShape.of(lam.conjugate(), mu.conjugate())
                lam2, mu2 = strip_first_column(lam), strip_first_column(mu)
                after = SkewShape.of(lam2.conjugate(), mu2.conjugate())
                for m in range(1, 4):
                    assert skew_schur_dim(before, m) == skew_schur_dim(after, m)
