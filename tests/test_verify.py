"""Tests for the finite-field verification layer: random points,
graded rank computations, minimality and Hilbert checks."""

import random
from functools import lru_cache
from math import comb, prod

import numpy as np
import pytest

from kalvar import verify
from kalvar.polysym import (
    BlockLayout,
    PolyRing,
    PrimeField,
    all_top_minors,
    grevlex_key,
    minor,
    reduced_kalman_matrix,
)
from kalvar.resolution import chain_resolution, hilbert_numerator
from kalvar.verify import (
    ALTERNATE_MODULUS,
    DEFAULT_MODULUS,
    KalmanPoint,
    MonomialCapExceeded,
    PrimeFieldConfig,
    SpanEliminator,
    _by_degree,
    _graded_ranks,
    _lift,
    hypersurface_check,
    minimality_report,
    minors_vanishing_check,
    monomial_count,
    monomials_of_degree,
    random_kalman_point,
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
    full grevlex column index of that degree in the minors' ring."""
    gens = [g for _, g in all_top_minors(d, n, PrimeField(p))]
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
    ring = PolyRing(n * n, g.ring.domain)
    rows = lambda exp: sum((exp[i * d:(i + 1) * d] + pad for i in range(n)), ())
    return ring.reduce({ring.pack(rows(g.ring.unpack(m))): c for m, c in g.terms.items()})


class TestRandomPoint:
    def test_eigen_residual_zero(self):
        gf = PrimeField(DEFAULT_MODULUS)
        rng = random.Random(3)
        for d, n in [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 6)]:
            for _ in range(10):
                pt = random_kalman_point(d, n, gf, rng)
                assert pt.eigen_residual() == (0,) * n
                assert any(pt.eigenvector)

    def test_d1_first_column_structure(self):
        # one-dimensional distinguished subspace: first column must be
        # the eigenvalue on top of zeros
        gf = PrimeField(101)
        rng = random.Random(7)
        for _ in range(20):
            pt = random_kalman_point(1, 4, gf, rng)
            col = [pt.entries[i][0] for i in range(4)]
            assert col == [pt.eigenvalue, 0, 0, 0]

    def test_flatten_matches_layout(self):
        gf = PrimeField(101)
        rng = random.Random(1)
        pt = random_kalman_point(2, 3, gf, rng)
        flat = pt.flatten()
        layout = BlockLayout(2, 3)
        assert len(flat) == 6
        for i in range(1, 4):
            for j in range(1, 3):
                assert flat[layout.var_index(i, j)] == pt.entries[i - 1][j - 1]

    def test_deterministic_given_seed(self):
        cfg = PrimeFieldConfig(seed=5)
        a = random_kalman_point(2, 4, cfg.field(), cfg.rng())
        b = random_kalman_point(2, 4, cfg.field(), cfg.rng())
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
        layout = BlockLayout(2, 4)
        ring = layout.ring(PrimeField(DEFAULT_MODULUS))
        x11 = ring.var(layout.var_index(1, 1))
        report = vanishing_test([x11], 2, 4, trials=20)
        assert not report.passed
        assert any(f["kind"] == "nonvanishing" for f in report.details)

    def test_perturbed_minor_detected(self):
        gf = PrimeField(DEFAULT_MODULUS)
        layout = BlockLayout(2, 4)
        ring = layout.ring(gf)
        good = minor(reduced := reduced_kalman_matrix(2, 4, gf), (0, 1), (0, 1))
        bad = good + ring.var(0) * ring.var(0)
        report = vanishing_test([bad], 2, 4, trials=20)
        assert not report.passed

    def test_failures_in_trial_then_generator_order(self, monkeypatch):
        # the middle generator is a coordinate function that does not
        # vanish, and trial 2 gets a point off the locus; the report must
        # list what a per-trial, per-generator loop finds, in its order
        d, n, trials = 2, 4, 8
        cfg = PrimeFieldConfig(seed=31)
        gf = cfg.field()
        layout = BlockLayout(d, n)
        minors = [g for _, g in all_top_minors(d, n, gf)]
        gens = [minors[0], layout.ring(gf).var(layout.var_index(2, 2)), minors[-1]]
        drawn = []

        def draw(*args):
            point = random_kalman_point(*args)
            drawn.append(point)
            if len(drawn) == 3:
                point = point._replace(eigenvalue=(point.eigenvalue + 1) % gf.p)
            return point

        monkeypatch.setattr(verify, "random_kalman_point", draw)
        report = vanishing_test(gens, d, n, trials, cfg)

        rng = cfg.rng()
        drawn.clear()
        want = []
        for trial in range(trials):
            point = draw(d, n, gf, rng)
            if any(point.eigen_residual()):
                want.append({"kind": "bad_point", "trial": trial})
                continue
            coords = point.flatten()
            for gi, g in enumerate(gens):
                value = sum(
                    c * prod(pow(x, e) for x, e in zip(coords, g.ring.unpack(m))) for m, c in g.terms.items()
                ) % gf.p
                if value:
                    want.append({"kind": "nonvanishing", "trial": trial, "generator": gi, "value": value})
        assert [f["kind"] for f in want].count("bad_point") == 1
        assert [f.get("generator") for f in want].count(1) == trials - 1
        assert report.details == want
        assert report.data["failure_count"] == len(want)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            vanishing_test([p for _, p in all_top_minors(2, 3)], 2, 3, trials=0)

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="no generators"):
            vanishing_test([], 2, 3, trials=5)

    def test_hypersurface_check_degrees(self):
        for d in (2, 3):
            report = hypersurface_check(d, trials=30)
            assert report.passed, report.details[:3]
            assert report.data["degree"] == d * (d + 1) // 2


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

    def test_cap_enforced(self):
        # raised from the closed-form count, before any of the
        # 4,496,388 exponent tuples is built
        with pytest.raises(MonomialCapExceeded) as exc:
            monomials_of_degree(36, 6)
        assert exc.value.required == comb(41, 6)
        assert exc.value.cap == 10**6


class TestGradedRanks:
    def test_generators_grouped_by_degree(self):
        ring = PolyRing(3, PrimeField(DEFAULT_MODULUS))
        x, y, z = (ring.var(k) for k in range(3))
        quad, cubic = x * y + z * z, x * y * z
        assert _by_degree([quad, ring.zero(), y, cubic, y * y]) == {2: [quad, y * y], 1: [y], 3: [cubic]}
        with pytest.raises(ValueError, match="homogeneous"):
            _by_degree([quad, x * y + z])

    @pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, ALTERNATE_MODULUS])
    @pytest.mark.parametrize("d,n,degree", [(2, 4, 3), (2, 4, 4), (2, 5, 4), (3, 4, 6)])
    def test_first_touch_columns_match_grevlex_oracle(self, d, n, degree, modulus):
        gens = [g for _, g in all_top_minors(d, n, PrimeField(modulus))]
        got = _graded_ranks(_by_degree(gens), degree, gens[0].ring.nvars, modulus)
        want = (
            dense_rank_mod_p(minor_rows_at_degree(d, n, degree, modulus, 1), modulus),
            dense_rank_mod_p(minor_rows_at_degree(d, n, degree, modulus, 0), modulus),
        )
        assert got == want

    def test_degree_past_the_byte_refused(self):
        # packed columns would collide past 255: at degree 257,
        # x0^256 x2 and x1^257 pack to the same int, and the rank of the
        # multiples of y^2 and x*z would come out one short
        ring = PolyRing(3, PrimeField(DEFAULT_MODULUS))
        x, y, z = (ring.var(k) for k in range(3))
        by_degree = _by_degree([y * y, x * z])
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

        monkeypatch.setattr(verify, "all_top_minors", no_minors)
        with pytest.raises(ValueError, match="256.*255"):
            check(1, 3, 256)

    def test_cap_checks_the_target_degree_piece(self):
        # a cubic in one of the 18 variables, at degree 9: its
        # multipliers number C(23, 6) = 100,947, but the target piece
        # has C(26, 9) monomials
        ring = BlockLayout(3, 6).ring(PrimeField(DEFAULT_MODULUS))
        with pytest.raises(MonomialCapExceeded) as exc:
            minimality_report(3, 6, 9, generators=[ring.var(0) ** 3])
        assert exc.value.required == comb(26, 9) == 3_124_550
        assert exc.value.cap == 10**6
        assert "3124550" in str(exc.value) and "1000000" in str(exc.value)

    def test_hilbert_cap_checked_before_any_minor(self, monkeypatch):
        # check-minimality has the same test in tests/test_cli.py
        def no_minors(*args):
            raise AssertionError("minors built before the cap check")

        monkeypatch.setattr(verify, "all_top_minors", no_minors)
        with pytest.raises(MonomialCapExceeded) as exc:
            truncated_hilbert_check(3, 6, 9)
        assert exc.value.required == 3_124_550


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
        gens = [g for _, g in all_top_minors(d, n, cfg.field())]
        by_degree = _by_degree([in_full_ring(g, d, n) for g in gens])
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
        gf = PrimeField(DEFAULT_MODULUS)
        quad = minor(reduced_kalman_matrix(2, 4, gf), (0, 1), (0, 1))
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
        x = PolyRing(16, PrimeField(DEFAULT_MODULUS)).var(0)
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
        gf = PrimeField(DEFAULT_MODULUS)
        quad = minor(reduced_kalman_matrix(2, 4, gf), (0, 1), (0, 1))
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
        gf = PrimeField(DEFAULT_MODULUS)
        ring = BlockLayout(2, 4).ring(gf)
        gens = [p.map_domain(ring) for _, p in all_top_minors(2, 4)]
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
