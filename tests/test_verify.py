"""Tests for the finite-field verification layer: random points,
graded rank computations, minimality and Hilbert checks."""

import itertools
import random
import re
import sys
import time
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np
import pytest
from test_polysym import brute_determinant

from kalvar import verify
from kalvar.polysym import (
    PolyRing,
    _count_products,
    all_top_minors,
    evaluate_many,
    grevlex_key,
    reduced_kalman_matrix,
)
from kalvar.resolution import chain_resolution, hilbert_numerator
from kalvar.verify import (
    ALTERNATE_MODULUS,
    DEFAULT_MODULUS,
    MAX_GRADED_WORK,
    KalmanPoint,
    MonomialCapExceeded,
    PrimeFieldConfig,
    SpanEliminator,
    _by_degree_mod_p,
    _graded_ranks,
    _lift,
    _mod_p,
    det_mod_p,
    hypersurface_check,
    minimality_report,
    minors_vanishing_check,
    monomial_count,
    monomials_of_degree,
    random_kalman_point,
    stacked_matrix_mod_p,
    truncated_hilbert,
    truncated_hilbert_check,
    vanishing_test,
)


def dense_rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Plain dense Gaussian elimination, used as an oracle for the
    sparse eliminator.  Columns that no row touches are left out of the
    dense matrix, since they cannot change its rank; the others keep
    their relative order."""
    if not rows:
        return 0
    used = sorted(set().union(*rows))
    pos = {c: i for i, c in enumerate(used)}
    m = np.zeros((len(rows), len(used)), dtype=np.int64)
    for i, r in enumerate(rows):
        for c, v in r.items():
            m[i, pos[c]] = v % p
    rank = 0
    for col in range(len(used)):
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        piv = rank + nonzero[0]
        m[[rank, piv]] = m[[piv, rank]]
        m[rank, col:] = m[rank, col:] * pow(int(m[rank, col]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(m[rank + 1:, col])
        if below.size:
            m[below, col:] = (m[below, col:] - np.outer(m[below, col], m[rank, col:])) % p
        rank += 1
        if rank == len(rows):
            break
    return rank


@lru_cache(maxsize=None)
def grevlex_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    """Every monomial of the degree, numbered in grevlex order."""
    cols = sorted(monomials_of_degree(nvars, degree), key=grevlex_key)
    return {m: i for i, m in enumerate(cols)}


def minor_rows_at_degree(d: int, n: int, degree: int, p: int, min_mult: int = 0):
    """Rows of the multiples m*g of the nonzero maximal minors with
    deg(m*g) equal to the degree and deg(m) at least min_mult, over the
    full grevlex column index of that degree in the minors' ring, with
    integer coefficients that the oracle reduces mod p."""
    gens = [g for _, g in all_top_minors(d, n)]
    nvars = gens[0].ring.nvars
    unpack = gens[0].ring.unpack
    col_index = grevlex_index(nvars, degree)
    rows = []
    for g in gens:
        if g.is_zero() or degree - g.degree() < min_mult:
            continue
        mdeg = degree - g.degree()
        for mono in monomials_of_degree(nvars, mdeg):
            rows.append({
                col_index[tuple(a + b for a, b in zip(unpack(m), mono))]: c
                for m, c in g.terms.items()
            })
    return rows


def in_full_ring(g, d: int, n: int):
    """A polynomial of k[alpha, gamma] as an element of k[x], all n*n
    entries of x: zero exponents in columns d+1..n."""
    pad = (0,) * (n - d)
    ring = PolyRing(n * n)
    rows = lambda exp: sum((exp[i * d:(i + 1) * d] + pad for i in range(n)), ())
    return ring.reduce({ring.pack(rows(g.ring.unpack(m))): c for m, c in g.terms.items()})


class TestRandomPoint:
    def test_eigen_residual_zero(self):
        rng = random.Random(3)
        for d, n in [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 6)]:
            for _ in range(10):
                pt = random_kalman_point(d, n, DEFAULT_MODULUS, rng)
                assert pt.eigen_residual() == (0,) * n
                assert any(pt.eigenvector)

    def test_d1_first_column_structure(self):
        # one-dimensional distinguished subspace: first column must be
        # the eigenvalue on top of zeros
        rng = random.Random(7)
        for _ in range(20):
            pt = random_kalman_point(1, 4, 101, rng)
            col = [pt.entries[i][0] for i in range(4)]
            assert col == [pt.eigenvalue, 0, 0, 0]

    def test_flatten_matches_layout(self):
        # coordinate k of the flattened point is the entry named by
        # variable k of the reduced matrix's ring, and the reduced
        # matrix at the point is gamma * alpha^r of the point's entries
        p = 101
        for d, n in [(2, 3), (2, 4), (3, 5)]:
            pt = random_kalman_point(d, n, p, random.Random(1))
            flat = pt.flatten()
            m = reduced_kalman_matrix(d, n)
            ring = m[0][0].ring
            assert len(flat) == ring.nvars == n * d
            for k, value in enumerate(flat):
                i, j = map(int, re.fullmatch(r"x\[(\d+)\]\[(\d+)\]", ring.var_name(k)).groups())
                assert value == pt.entries[i - 1][j - 1]
            alpha = [row[:d] for row in pt.entries[:d]]
            block = [row[:d] for row in pt.entries[d:]]
            values = iter(evaluate_many([e for row in m for e in row], [flat], p)[0])
            for _ in range(d):
                for row in block:
                    assert [next(values) for _ in range(d)] == [v % p for v in row]
                block = [[sum(row[k] * alpha[k][j] for k in range(d)) for j in range(d)] for row in block]

    def test_deterministic_given_seed(self):
        cfg = PrimeFieldConfig(seed=5)
        a = random_kalman_point(2, 4, cfg.modulus, cfg.rng())
        b = random_kalman_point(2, 4, cfg.modulus, cfg.rng())
        assert a == b

    def test_config_validates_modulus(self):
        with pytest.raises(ValueError):
            PrimeFieldConfig(modulus=32001)

    def test_config_fields(self):
        assert PrimeFieldConfig._fields == ("modulus", "seed")


class TestVanishing:
    def test_minors_vanish_small_grid(self):
        for d, n in [(1, 3), (2, 3), (2, 4), (3, 4)]:
            report = minors_vanishing_check(d, n, trials=25)
            assert report.passed, (d, n, report.details[:3])

    def test_coordinate_function_does_not_vanish(self):
        # sensitivity control: a random coordinate is not identically
        # zero on the locus, so the harness can actually fail
        ring = reduced_kalman_matrix(2, 4)[0][0].ring
        x11 = ring.var(0)
        assert str(x11) == "1*x[1][1]^1"
        report = vanishing_test([x11], 2, 4, trials=20)
        assert not report.passed
        assert any(f["kind"] == "nonvanishing" for f in report.details)

    def test_perturbed_minor_detected(self):
        good = all_top_minors(2, 4)[0][1]
        bad = good + good.ring.var(0) * good.ring.var(0)
        report = vanishing_test([bad], 2, 4, trials=20)
        assert not report.passed

    def test_failures_in_trial_then_generator_order(self, monkeypatch):
        # the middle generator is a coordinate function that does not
        # vanish, and trial 2 gets a point off the locus; the report must
        # list what a per-trial, per-generator loop finds, in its order
        d, n, trials = 2, 4, 8
        cfg = PrimeFieldConfig(seed=31)
        p = cfg.modulus
        minors = [g for _, g in all_top_minors(d, n)]
        x22 = minors[0].ring.var(3)
        assert str(x22) == "1*x[2][2]^1"
        gens = [minors[0], x22, minors[-1]]
        drawn = []

        def draw(*args):
            point = random_kalman_point(*args)
            drawn.append(point)
            if len(drawn) == 3:
                point = point._replace(eigenvalue=(point.eigenvalue + 1) % p)
            return point

        monkeypatch.setattr(verify, "random_kalman_point", draw)
        report = vanishing_test(gens, d, n, trials, cfg)

        rng = cfg.rng()
        drawn.clear()
        want = []
        for trial in range(trials):
            point = draw(d, n, p, rng)
            if any(point.eigen_residual()):
                want.append({"kind": "bad_point", "trial": trial})
                continue
            coords = point.flatten()
            for gi, g in enumerate(gens):
                value = sum(
                    c * prod(pow(x, e) for x, e in zip(coords, g.ring.unpack(m))) for m, c in g.terms.items()
                ) % p
                if value:
                    want.append({"kind": "nonvanishing", "trial": trial, "generator": gi, "value": value})
        assert [f["kind"] for f in want].count("bad_point") == 1
        assert [f.get("generator") for f in want].count(1) == trials - 1
        assert report.details == want
        assert report.data["failure_count"] == len(want)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            vanishing_test([p for _, p in all_top_minors(2, 3)], 2, 3, trials=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bad_trials_refused_before_any_minor(self, monkeypatch, trials):
        # minors_vanishing_check(4, 6) would build 70 minors, and
        # hypersurface_check(4) an 11,912-term determinant, first
        def no_minors(*args):
            raise AssertionError("a minor was built before the trials check")

        monkeypatch.setattr(verify, "all_top_minors", no_minors)
        monkeypatch.setattr(verify, "determinant", no_minors)
        message = f"^trials must be at least 1, got {trials}$"
        with pytest.raises(ValueError, match=message):
            minors_vanishing_check(4, 6, trials=trials)
        with pytest.raises(ValueError, match=message):
            hypersurface_check(4, trials=trials)

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="no generators"):
            vanishing_test([], 2, 3, trials=5)

    def test_hypersurface_check_degrees(self):
        for d in (2, 3):
            report = hypersurface_check(d, trials=30)
            assert report.passed, report.details[:3]
            assert report.data["degree"] == d * (d + 1) // 2


class TestGeneratorsVanishingModP:
    """A generator 3 * g is zero over GF(3).  Every finite-field check
    drops the generators that vanish mod p and counts only the rest in
    `generator_count`.  Here g is not homogeneous, so a dropped
    generator that reached the graded ranks would be refused there."""

    P3 = PrimeFieldConfig(modulus=3)

    @staticmethod
    def quad_and_tripled():
        quad = all_top_minors(2, 4)[0][1]
        return quad, 3 * (quad + quad.ring.var(0))

    @pytest.fixture
    def last_minor_tripled(self, monkeypatch):
        # check-minors builds every minor (all_top_minors), and the
        # graded checks those they read (top_minors)
        def tripled(real):
            def build(*args):
                minors = real(*args)
                return minors[:-1] + [(minors[-1][0], 3 * minors[-1][1])]

            return build

        monkeypatch.setattr(verify, "all_top_minors", tripled(verify.all_top_minors))
        monkeypatch.setattr(verify, "top_minors", tripled(verify.top_minors))

    def test_vanishing_test_drops_it(self):
        quad, tripled = self.quad_and_tripled()
        report = vanishing_test([quad, tripled], 2, 4, 5, self.P3)
        assert report.passed
        assert report.data["generator_count"] == 1
        # a failure names the generator by its place in the given list
        report = vanishing_test([tripled, quad.ring.var(0) + 1], 2, 4, 5, self.P3)
        assert report.data["generator_count"] == 1
        assert {f["generator"] for f in report.details} == {1}
        # a list with nothing left to evaluate is refused, not passed
        with pytest.raises(ValueError, match="no generators to test"):
            vanishing_test([tripled], 2, 4, 5, self.P3)

    def test_minors_check_drops_it(self, last_minor_tripled):
        report = minors_vanishing_check(2, 4, 5, self.P3)
        assert report.passed
        assert report.data["generator_count"] == 5

    def test_minimality_report_drops_it(self, last_minor_tripled):
        # the top-degree minor is redundant, so the report still passes;
        # at degree 4 every minor is read
        report = minimality_report(2, 4, 4, self.P3)
        assert report.passed
        assert report.data["generator_count"] == 5
        quad, tripled = self.quad_and_tripled()
        given = minimality_report(2, 4, 3, self.P3, generators=[quad, tripled])
        assert given.data == minimality_report(2, 4, 3, self.P3, generators=[quad]).data
        assert given.data["generator_count"] == 1

    def test_truncated_hilbert_drops_it(self):
        quad, tripled = self.quad_and_tripled()
        assert truncated_hilbert([quad, tripled], 4, 3, self.P3) == truncated_hilbert([quad], 4, 3, self.P3)


class TestMonomials:
    def test_counts_and_order(self):
        ms = monomials_of_degree(3, 2)
        assert len(ms) == comb(4, 2) == monomial_count(3, 2)
        assert ms[0] == (2, 0, 0)
        assert ms[-1] == (0, 0, 2)
        assert len(set(ms)) == len(ms)
        assert ms == sorted(ms, reverse=True)

    def test_degree_zero(self):
        assert monomials_of_degree(4, 0) == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("nvars", [1, 2, 3, 5])
    @pytest.mark.parametrize("degree", [0, 1, 2, 4])
    def test_matches_brute_force_oracle(self, nvars, degree):
        every = itertools.product(range(degree + 1), repeat=nvars)
        want = sorted((exp for exp in every if sum(exp) == degree), reverse=True)
        assert monomials_of_degree(nvars, degree) == want

    def test_cap_enforced(self):
        # raised from the closed-form count, before any of the
        # 4,496,388 exponent tuples is built
        with pytest.raises(MonomialCapExceeded) as exc:
            monomials_of_degree(36, 6)
        assert exc.value.required == comb(41, 6)
        assert exc.value.cap == 10**6


class TestGradedRanks:
    def test_generators_grouped_by_degree(self):
        ring = PolyRing(3)
        x, y, z = (ring.var(k) for k in range(3))
        quad, cubic = x * y + z * z, x * y * z
        gens = [quad, ring.zero(), y, cubic, y * y]
        assert _by_degree_mod_p(gens, 3, DEFAULT_MODULUS) == {2: [quad, y * y], 1: [y], 3: [cubic]}
        with pytest.raises(ValueError, match="homogeneous"):
            _by_degree_mod_p([quad, x * y + z], 3, DEFAULT_MODULUS)

    @pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, ALTERNATE_MODULUS])
    @pytest.mark.parametrize("d,n,degree", [(2, 4, 3), (2, 4, 4), (2, 5, 4), (3, 4, 6)])
    def test_packed_columns_match_grevlex_oracle(self, d, n, degree, modulus):
        gens = [g for _, g in all_top_minors(d, n)]
        nvars = gens[0].ring.nvars
        got = _graded_ranks(_by_degree_mod_p(gens, nvars, modulus), degree, nvars, modulus)
        want = (
            dense_rank_mod_p(minor_rows_at_degree(d, n, degree, modulus, 1), modulus),
            dense_rank_mod_p(minor_rows_at_degree(d, n, degree, modulus, 0), modulus),
        )
        assert got == want

    def test_degree_past_the_byte_refused(self):
        # packed columns would collide past 255: at degree 257,
        # x0^256 x2 and x1^257 pack to the same int, and the rank of the
        # multiples of y^2 and x*z would come out one short
        ring = PolyRing(3)
        x, y, z = (ring.var(k) for k in range(3))
        by_degree = _by_degree_mod_p([y * y, x * z], 3, DEFAULT_MODULUS)
        with pytest.raises(ValueError, match="257.*255"):
            _graded_ranks(by_degree, 257, 3, DEFAULT_MODULUS)
        # at 255 the rank counts the monomials divisible by y^2 or x*z
        divisible = sum(
            1 for a in range(256) for b in range(256 - a) if b >= 2 or (a and 255 - a - b)
        )
        assert _graded_ranks(by_degree, 255, 3, DEFAULT_MODULUS) == (divisible, divisible)

    @pytest.mark.parametrize("check", [minimality_report, truncated_hilbert_check])
    def test_degree_past_the_byte_refused_up_front(self, check, monkeypatch):
        def no_minors(*args):
            raise AssertionError("minors built before the degree check")

        monkeypatch.setattr(verify, "top_minors", no_minors)
        with pytest.raises(ValueError, match="256.*255"):
            check(1, 3, 256)

    def test_cap_checks_the_target_degree_piece(self):
        # given generators are bounded by their own rows: a one-term
        # cubic in 18 variables takes C(18 + 13, 13) rows to degree 16,
        # one term each, and C(30, 12) to degree 15, which fits
        ring = reduced_kalman_matrix(3, 6)[0][0].ring
        message = f"^the graded ranks to degree 16 take up to 206253075 steps, more than the limit of {MAX_GRADED_WORK} "
        with pytest.raises(ValueError, match=message):
            minimality_report(3, 6, 16, generators=[ring.var(0) ** 3])
        assert comb(31, 13) == 206_253_075 > MAX_GRADED_WORK >= comb(30, 12)

    def test_hilbert_cap_checked_before_any_minor(self, monkeypatch):
        # check-minimality has the same test in tests/test_cli.py
        def no_minors(*args):
            raise AssertionError("minors built before the work check")

        monkeypatch.setattr(verify, "top_minors", no_minors)
        t0 = time.monotonic()
        message = f"up to 48909613248 steps, more than the limit of {MAX_GRADED_WORK} (MAX_GRADED_WORK)"
        with pytest.raises(ValueError, match=re.escape(message)):
            truncated_hilbert_check(4, 7, 12)
        assert time.monotonic() - t0 < 1


class TestIntake:
    """The graded checks read their generators through one intake,
    `_by_degree_mod_p`, which reduces each one mod p in a list the check
    owns.  `sys.getrefcount` counts the references to a minor, since
    `SparsePoly` has `__slots__` and no weakref slot; it also counts its
    own argument."""

    @pytest.mark.parametrize("check", [minimality_report, truncated_hilbert_check])
    def test_integer_minors_freed_before_the_ranks(self, check, monkeypatch):
        # at the first rank, nothing but `minors` holds an integer minor
        # of top_minors: the 14 of the 20 of (3, 5) of degree at most 6
        real_minors, real_ranks = verify.top_minors, verify._graded_ranks
        minors, alive = [], []

        def recording(*args):
            pairs = real_minors(*args)
            minors.extend(g for _, g in pairs)
            return pairs

        def ranks(*args):
            if not alive:
                alive.append([k for k in range(len(minors)) if sys.getrefcount(minors[k]) > 2])
            return real_ranks(*args)

        monkeypatch.setattr(verify, "top_minors", recording)
        monkeypatch.setattr(verify, "_graded_ranks", ranks)
        assert check(3, 5, 6).passed
        assert len(minors) == 14
        assert alive == [[]]

    def test_a_given_list_is_left_as_it_was(self):
        gens = [g for _, g in all_top_minors(2, 4)]
        before = list(gens)
        assert any(c < 0 for g in gens for c in g.terms.values())
        assert minimality_report(2, 4, 3, generators=gens).passed
        truncated_hilbert(gens, 4, 3)
        assert len(gens) == len(before)
        assert all(g is was for g, was in zip(gens, before))

    def test_each_degree_reaches_the_ranks_in_the_order_given(self, monkeypatch):
        # the order of the generators sets the cost of the elimination,
        # though not its ranks, with columns keyed by packed monomials:
        # at (3, 6, 6), feeding the minors in the order they are built
        # (highest rows first) instead of in lexicographic order took
        # _graded_ranks over degrees 0-6 from 0.058-0.062 to
        # 0.085-0.097 s (medians of 11 runs each, two rounds, 2 vCPUs,
        # Python 3.11)
        real = verify._graded_ranks
        seen = []

        def ranks(by_degree, *args):
            seen.append(by_degree)
            return real(by_degree, *args)

        def grouped(gens):
            out = {}
            for g in gens:
                if not g.is_zero():
                    out.setdefault(g.degree(), []).append(_mod_p(g, DEFAULT_MODULUS))
            return out

        monkeypatch.setattr(verify, "_graded_ranks", ranks)
        lexicographic = [g for _, g in all_top_minors(3, 5)]
        shuffled = list(lexicographic)
        random.Random(4).shuffle(shuffled)
        # to degree 6 the minors of degrees 4 to 6 are read
        minimality_report(3, 5, 6)
        read = {q: gens for q, gens in grouped(lexicographic).items() if q <= 6}
        assert seen and all(by_degree == read for by_degree in seen)
        seen.clear()
        minimality_report(3, 5, 3, generators=shuffled)
        truncated_hilbert(shuffled, 5, 3)
        assert seen and all(by_degree == grouped(shuffled) for by_degree in seen)
        assert grouped(shuffled) != grouped(lexicographic)


class TestLift:
    """The lift from k[alpha, gamma] to k[x] against the n*n-variable
    route it replaces: each minor embedded in k[x], ranks taken there."""

    @pytest.mark.parametrize("d,n", [(1, 2), (2, 4), (3, 5)])
    def test_free_quotient_lifts_to_full_ring(self, d, n):
        dims = [monomial_count(n * d, e) for e in range(8)]
        assert _lift(dims, n, n * d) == [monomial_count(n * n, e) for e in range(8)]

    @pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, ALTERNATE_MODULUS])
    @pytest.mark.parametrize("d,n,max_degree", [(2, 4, 4), (2, 5, 4), (3, 4, 6)])
    def test_matches_full_ring_ranks(self, d, n, max_degree, modulus):
        cfg = PrimeFieldConfig(modulus=modulus)
        gens = [g for _, g in all_top_minors(d, n)]
        by_degree = _by_degree_mod_p([in_full_ring(g, d, n) for g in gens], n * n, modulus)
        full = [_graded_ranks(by_degree, e, n * n, modulus) for e in range(max_degree + 1)]
        report = minimality_report(d, n, max_degree, cfg)
        assert [(e["from_lower"], e["ideal_dim"]) for e in report.data["per_degree"]] == full[1:]
        assert truncated_hilbert(gens, n, max_degree, cfg) == [
            monomial_count(n * n, e) - ideal_dim for e, (_, ideal_dim) in enumerate(full)
        ]


class TestEliminator:
    def test_rank_matches_dense_oracle(self):
        rows = minor_rows_at_degree(2, 4, 3, DEFAULT_MODULUS)
        elim = SpanEliminator(DEFAULT_MODULUS)
        for r in rows:
            elim.absorb(r)
        assert elim.rank == dense_rank_mod_p(rows, DEFAULT_MODULUS)

    def test_rank_invariant_under_row_order(self):
        rows = minor_rows_at_degree(2, 4, 3, DEFAULT_MODULUS)
        base = SpanEliminator(DEFAULT_MODULUS)
        for r in rows:
            base.absorb(r)
        shuffled = list(rows)
        random.Random(9).shuffle(shuffled)
        other = SpanEliminator(DEFAULT_MODULUS)
        for r in shuffled:
            other.absorb(r)
        assert base.rank == other.rank

    def test_dependent_rows_do_not_raise_rank(self):
        p = 101
        elim = SpanEliminator(p)
        assert elim.absorb({0: 1, 2: 3})
        assert elim.absorb({1: 5})
        assert not elim.absorb({0: 2, 1: 5, 2: 6})
        assert elim.rank == 2

    def test_zero_row(self):
        elim = SpanEliminator(101)
        assert not elim.absorb({})
        assert not elim.absorb({3: 101})
        assert elim.rank == 0


def ideal_dims(d, n, max_degree, generators, cfg=PrimeFieldConfig()):
    report = minimality_report(d, n, max_degree, cfg, generators=generators)
    return [e["ideal_dim"] for e in report.data["per_degree"]]


class TestGradedDimension:
    def test_single_generator_dims(self):
        # the quadric times the sixteen variables of k[x] in degree 3
        quad = all_top_minors(2, 4)[0][1]
        assert quad.degree() == 2
        assert ideal_dims(2, 4, 3, [quad]) == [0, 1, 16]

    def test_frozen_2_4_degree_3(self):
        # sixteen quadric multiples plus four cubic minors, one linear
        # relation among them
        gens = [p for _, p in all_top_minors(2, 4)]
        assert ideal_dims(2, 4, 3, gens)[2] == 19

    def test_prime_invariance(self):
        gens = [p for _, p in all_top_minors(2, 4)]
        a = ideal_dims(2, 4, 3, gens, PrimeFieldConfig(modulus=DEFAULT_MODULUS))
        b = ideal_dims(2, 4, 3, gens, PrimeFieldConfig(modulus=ALTERNATE_MODULUS))
        assert a[2] == b[2] == 19

    def test_generators_of_another_ring_rejected(self):
        x = PolyRing(16).var(0)
        with pytest.raises(ValueError, match="generator has 16 variables, expected 8"):
            minimality_report(2, 4, 3, generators=[x])
        with pytest.raises(ValueError, match="generator has 16 variables, expected 8"):
            vanishing_test([x], 2, 4, trials=1)

    def test_monotone_quotient(self):
        # quotient dimensions never go negative and start at 1
        gens = [p for _, p in all_top_minors(2, 3)]
        hs = truncated_hilbert(gens, 3, 4)
        assert hs[0] == 1
        assert all(h >= 0 for h in hs)


class TestTruncatedHilbert:
    def test_2_3_matches_series(self):
        report = truncated_hilbert_check(2, 3, 5)
        assert report.passed, report.details
        assert report.data["measured"][:4] == [1, 9, 45, 164]

    def test_2_4_matches_series(self):
        report = truncated_hilbert_check(2, 4, 4)
        assert report.passed, report.details
        expected = hilbert_numerator(chain_resolution(1, 2, 4)).expand(4)
        assert report.data["expected"] == expected

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="max_degree must be at least 1, got -1"):
            truncated_hilbert_check(2, 3, -1)

    def test_degree_zero_rejected(self):
        # degree 0 compares [1] with [1], which holds for any proper ideal
        with pytest.raises(ValueError, match="max_degree must be at least 1, got 0"):
            truncated_hilbert_check(2, 3, 0)

    def test_truncated_hilbert_negative_degree_rejected(self):
        gens = [p for _, p in all_top_minors(2, 3)]
        with pytest.raises(ValueError, match="max_degree must be at least 0, got -2"):
            truncated_hilbert(gens, 3, -2)
        assert truncated_hilbert(gens, 3, 0) == [1]

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="no generators"):
            truncated_hilbert([], 4, 3)

    def test_detects_wrong_generators(self):
        # quadric alone does not cut out the variety, so its quotient
        # dimensions must exceed the predicted ones somewhere
        quad = all_top_minors(2, 4)[0][1]
        measured = truncated_hilbert([quad], 4, 3)
        assert measured != hilbert_numerator(chain_resolution(1, 2, 4)).expand(3)


class TestMinimality:
    def test_2_4_profile(self):
        report = minimality_report(2, 4, 4)
        assert report.passed, report.details
        by_degree = {e["degree"]: e for e in report.data["per_degree"]}
        assert by_degree[2]["new_generators"] == 1
        assert by_degree[3]["new_generators"] == 3
        assert by_degree[3]["ideal_dim"] == 19
        assert by_degree[3]["from_lower"] == 16
        assert by_degree[4]["new_generators"] == 0

    def test_redundant_generator_invariance(self):
        # dropping the top-degree minor must not change the ideal: the
        # remaining five generate everything the six do
        gens = [p for _, p in all_top_minors(2, 4)]
        lower = [g for g in gens if g.degree() < 4]
        assert len(lower) == 5
        full = minimality_report(2, 4, 4)
        trimmed = minimality_report(2, 4, 4, generators=lower)
        for a, b in zip(full.data["per_degree"], trimmed.data["per_degree"]):
            assert a["ideal_dim"] == b["ideal_dim"]
        assert trimmed.passed

    def test_3_4_single_sextic(self):
        report = minimality_report(3, 4, 6)
        assert report.passed, report.details
        by_degree = {e["degree"]: e for e in report.data["per_degree"]}
        for e in range(1, 6):
            assert by_degree[e]["new_generators"] == 0
        assert by_degree[6]["new_generators"] == 1

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError, match="max_degree must be at least 1, got 0"):
            minimality_report(2, 4, 0)

    def test_second_prime_agrees(self):
        a = minimality_report(2, 4, 3, PrimeFieldConfig(modulus=DEFAULT_MODULUS))
        b = minimality_report(2, 4, 3, PrimeFieldConfig(modulus=ALTERNATE_MODULUS))
        assert [e["ideal_dim"] for e in a.data["per_degree"]] == [
            e["ideal_dim"] for e in b.data["per_degree"]
        ]


ORACLE_PRIMES = (2, 3, DEFAULT_MODULUS, ALTERNATE_MODULUS)


class TestReadMinorsOnly:
    """The graded checks build only the maximal minors of degree at most
    max_degree, and certify the others nonzero mod p by numbers.  Their
    reports equal those read off every minor built."""

    @pytest.mark.parametrize(
        "d,n,degrees",
        [
            (1, 2, [4]), (1, 4, [1, 4]), (2, 3, [1, 5]), (2, 4, [1, 2, 3, 4, 5]), (2, 5, [3, 5]),
            (2, 6, [4]), (3, 4, [5, 6]), (3, 5, [3, 4, 5, 6]), (3, 6, [4, 5, 6]), (4, 5, [7]),
            (4, 6, [5, 6]),
        ],
    )
    def test_matches_the_full_build(self, d, n, degrees):
        # the oracle builds every minor and reads its degree off its
        # terms.  The checks are given those of degree at most e, and
        # generator_count is the number of all that are nonzero mod p
        every = [(g.degree(), g) for _, g in all_top_minors(d, n)]
        for p in ORACLE_PRIMES:
            cfg = PrimeFieldConfig(modulus=p)
            nonzero = sum(1 for _, g in every if any(c % p for c in g.terms.values()))
            for e in degrees:
                read = [g for q, g in every if q <= e]
                want = minimality_report(d, n, e, cfg, generators=read)
                want.data["generator_count"] = nonzero
                assert minimality_report(d, n, e, cfg) == want
                free = _lift([monomial_count(n * d, k) for k in range(e + 1)], n, n * d)
                measured = truncated_hilbert(read, n, e, cfg) if read else free
                assert truncated_hilbert_check(d, n, e, cfg).data["measured"] == measured

    def test_only_the_read_degrees_are_built(self, monkeypatch):
        # (3, 5) has 2 minors of degree 4, 4 of degree 5 and 14 of
        # degrees 6 to 8: to degree 5 six are built and 14 certified
        built = []
        real = verify.top_minors

        def recording(matrix, row_sets):
            pairs = real(matrix, row_sets)
            built.extend(rows for rows, _ in pairs)
            return pairs

        monkeypatch.setattr(verify, "top_minors", recording)
        report = minimality_report(3, 5, 5)
        assert report.passed and report.data["generator_count"] == 20
        assert sorted(sum(r // 2 + 1 for r in rows) for rows in built) == [4, 4, 5, 5, 5, 5]

    def test_unproven_minors_are_built_and_counted(self, monkeypatch):
        # with every unread minor left unproven, each is built, reduced
        # and counted as the full build counts it
        monkeypatch.setattr(verify, "_uncertified", lambda d, n, row_sets, cfg: row_sets)
        every = [g for _, g in all_top_minors(3, 5)]
        for p in ORACLE_PRIMES:
            cfg = PrimeFieldConfig(modulus=p)
            assert minimality_report(3, 5, 4, cfg) == minimality_report(3, 5, 4, cfg, generators=every)

    def test_certificate_leaves_only_minors_that_read_zero(self):
        # a repeated row makes a determinant zero at every point
        cfg = PrimeFieldConfig()
        assert verify._uncertified(3, 5, [(0, 1, 2), (2, 2, 5), (3, 4, 5)], cfg) == [(2, 2, 5)]
        for d, n in [(3, 5), (4, 6), (4, 7)]:
            for p in ORACLE_PRIMES:
                every = list(itertools.combinations(range(d * (n - d)), d))
                assert verify._uncertified(d, n, every, PrimeFieldConfig(modulus=p)) == []


class TestDetModP:
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_matches_leibniz(self, p):
        # random and singular integer matrices, against the Leibniz
        # expansion of tests/test_polysym.py reduced mod p
        ring = PolyRing(0)
        rng = random.Random(p)
        for size in range(1, 6):
            for _ in range(10):
                m = [[rng.randrange(-60, 60) for _ in range(size)] for _ in range(size)]
                cases = [m, [[p * v for v in row] for row in m]]
                if size > 1:
                    cases.append(m[:-1] + [m[0]])
                    cases.append([row[:-1] + [0] for row in m])
                    cases.append(m[:-1] + [[a + 2 * b for a, b in zip(m[0], m[1])]])
                for rows in cases:
                    det = brute_determinant([[ring.const(v) for v in row] for row in rows])
                    assert det_mod_p(rows, p) == det.terms.get(0, 0) % p, rows

    def test_row_swaps_change_the_sign(self):
        assert det_mod_p([[0, 1], [1, 0]], 7) == 6
        assert det_mod_p([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 7) == 6
        assert det_mod_p([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 7) == 1


class TestNumericMatrix:
    @pytest.mark.parametrize("p", [DEFAULT_MODULUS, ALTERNATE_MODULUS])
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 5), (3, 6), (4, 5)])
    def test_symbolic_minors_match_the_numeric_matrix(self, d, n, p):
        # the stacked matrix evaluated entry by entry, and every minor's
        # value against the determinant of its rows, at 3 uniform points
        rng = random.Random(d * n + p)
        points = [[rng.randrange(p) for _ in range(n * d)] for _ in range(3)]
        numeric = [stacked_matrix_mod_p(d, n, x, p) for x in points]
        entries = [e for row in reduced_kalman_matrix(d, n) for e in row]
        assert evaluate_many(entries, points, p) == [[v for row in m for v in row] for m in numeric]
        minors = all_top_minors(d, n)
        want = [[det_mod_p([m[r] for r in rows], p) for rows, _ in minors] for m in numeric]
        assert evaluate_many([g for _, g in minors], points, p) == want


class TestGradedWork:
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 4), (3, 5), (3, 6), (4, 6), (5, 7)])
    def test_minor_work_against_every_pick(self, d, n):
        # each pick listed, its terms bounded by `_count_products` with
        # the d^b terms of an entry of block b
        m = n - d
        sizes = [[d ** (r // m)] * d for r in range(d * m)]
        for max_degree in range(1, 12):
            want = comb(d * m, d) * d**3
            for rows in itertools.combinations(range(d * m), d):
                q = sum(r // m + 1 for r in rows)
                if q <= max_degree:
                    terms = _count_products(sizes, [(rows, tuple(range(d)))])[0]
                    want += terms * comb(n * d + max_degree - q, max_degree - q)
            assert verify._minor_work(d, n, max_degree) == want

    def test_term_bound_holds(self):
        for d, n in [(2, 4), (3, 5), (3, 6), (4, 5)]:
            for rows, g in all_top_minors(d, n):
                assert len(g.terms) <= factorial(d) * d ** sum(r // (n - d) for r in rows)

    @pytest.mark.parametrize(
        "d,n,max_degree", [(4, 7, 12), (3, 6, 10), (8, 16, 8), (2, 2000, 5), (12, 13, 100)]
    )
    def test_refused_at_once(self, monkeypatch, d, n, max_degree):
        # (4, 7) to degree 12 bounds at 4.9e10 steps; (8, 16) has 4.4e9
        # picks to certify; none of them lists a pick or builds a minor
        def nothing(*args):
            raise AssertionError("work done before the work check")

        monkeypatch.setattr(verify, "top_minors", nothing)
        monkeypatch.setattr(verify, "_uncertified", nothing)
        monkeypatch.setattr(verify, "minimal_generators", nothing)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match=r"steps, more than the limit of \d+ \(MAX_GRADED_WORK\)$"):
            minimality_report(d, n, max_degree)
        assert time.monotonic() - t0 < 1
        assert verify._minor_work(d, n, max_degree) > MAX_GRADED_WORK

    def test_frontier_fits(self):
        # (4, 6) to degree 10 ran in 43 s and 1.9 GB
        assert verify._minor_work(4, 6, 10) == 52_951_552 <= MAX_GRADED_WORK
        assert verify._minor_work(3, 6, 10) > MAX_GRADED_WORK
