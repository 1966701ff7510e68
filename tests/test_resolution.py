from collections import Counter
from math import comb
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalvar.resolution as resolution_module
from kalvar.bott import bundle_cohomology, bundle_weight, dotted_bott, rho
from kalvar.partitions import (
    Box,
    Partition,
    SkewShape,
    partitions_in_box,
    schur_dim,
    skew_schur_dim,
)
from kalvar.report import CheckFailure, CheckReport
from kalvar.resolution import (
    MAX_NORMALIZATION_PAIRS,
    BettiTable,
    BettiTerm,
    KalmanParams,
    chain_closed_form_check,
    chain_pair_count,
    chain_resolution,
    classify_part,
    f0_check,
    hilbert_numerator,
    HilbertSeries,
    les_euler_check,
    minimal_generators,
    normalization_pair_count,
    _part_iii_terms,
    part_iii_profile,
    pd_and_reg,
    resolution_normalization,
)
from test_partitions import brute_skew_ssyt


def betti_numbers(table):
    """A table's multiplicities summed by (hom_degree, twist), in key order."""
    out = Counter()
    for t in table.terms:
        out[t.hom_degree, t.twist] += t.multiplicity
    return dict(sorted(out.items()))


def weight_of_halves(upper, lower):
    """The weight whose rho-shifted form is upper followed by lower."""
    return tuple(map(sub, upper + lower, rho(len(upper) + len(lower))))


def order_by_division(coeffs):
    """Largest power of (1 - t) dividing a nonzero polynomial given as
    {exponent: coefficient}, by dividing by (1 - t) while the
    coefficients sum to zero: the quotient's coefficients are the
    partial sums."""
    order = 0
    while sum(coeffs.values()) == 0:
        run, quo = 0, {}
        for e in range(max(coeffs) + 1):
            run += coeffs.get(e, 0)
            if run:
                quo[e] = run
        coeffs = quo
        order += 1
    return order


def brute_normalization_s1_d2(n):
    """Oracle for s=1, d=2: enumerate the weight pairs directly, without
    the box/bundle plumbing, and aggregate (hom, twist) -> mult."""
    table = {}
    for p in range(n - 1 + 1):
        for m in range(0, min(p, 1) + 1):
            nu = (-m, p)
            out = dotted_bott(nu)
            if out.vanishes:
                continue
            w_count = brute_skew_ssyt((1,) * p, (1,) * m, n - 2)
            mult = schur_dim(out.eta, 2) * w_count
            if mult == 0:
                continue
            key = (p - out.degree, p)
            table[key] = table.get(key, 0) + mult
    return table


class TestKalmanParams:
    def test_valid(self):
        p = KalmanParams(1, 2, 3)
        assert p.n - p.d == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            KalmanParams(0, 2, 3)
        with pytest.raises(ValueError):
            KalmanParams(2, 1, 3)
        with pytest.raises(ValueError):
            KalmanParams(1, 3, 3)


class TestNormalization:
    def test_s_equals_d_is_koszul(self):
        for d in range(1, 4):
            for n in range(d + 1, 7):
                table = resolution_normalization(KalmanParams(d, d, n))
                want = {
                    (i, i): comb(d * (n - d), i) for i in range(d * (n - d) + 1)
                }
                assert betti_numbers(table) == want

    def test_s1_d2_n3_frozen(self):
        table = resolution_normalization(KalmanParams(1, 2, 3))
        assert betti_numbers(table) == {(0, 0): 1, (0, 1): 1, (1, 2): 2}

    def test_s1_d2_matches_direct_enumeration(self):
        for n in range(3, 7):
            table = resolution_normalization(KalmanParams(1, 2, n))
            assert betti_numbers(table) == brute_normalization_s1_d2(n)

    def test_s1_d2_n4_frozen(self):
        table = resolution_normalization(KalmanParams(1, 2, 4))
        assert betti_numbers(table) == {(0, 0): 1, (0, 1): 1, (1, 2): 5, (2, 3): 3}

    def test_terms_have_positive_multiplicity_and_degree(self):
        table = resolution_normalization(KalmanParams(2, 3, 6))
        for t in table.terms:
            assert t.multiplicity > 0
            assert t.hom_degree >= 0
            assert t.twist >= t.hom_degree


class TestNormalizationOracle:
    """The normalization loop against the public, validating route: box
    pairs filtered by containment, `skew_schur_dim` on the conjugated
    skew shape and, where that is nonzero, `bundle_cohomology` on the
    pair's pieces."""

    CASES = [
        KalmanParams(s, d, n) for n in range(2, 9) for d in range(1, n) for s in range(1, d + 1)
    ]

    @staticmethod
    def public_route(params):
        """The terms, their skew shapes, and the bundle weight of every
        pair with a nonzero skew dimension."""
        s, d, n = params.s, params.d, params.n
        terms, shapes, weights = [], [], []
        for lam in partitions_in_box(Box(s, n - s)):
            for mu in partitions_in_box(Box(s, d - s)):
                if any(mu.part(i) > lam.part(i) for i in range(s)):
                    continue
                shape = SkewShape(lam.conjugate(), mu.conjugate())
                skew = skew_schur_dim(shape, n - d)
                if not skew:
                    continue
                weights.append(bundle_weight(lam, mu.conjugate(), s, d))
                out, gl_mult = bundle_cohomology(lam, mu.conjugate(), s, d)
                if out.vanishes:
                    continue
                mult = gl_mult * skew
                if mult:
                    hom, twist = lam.size - out.degree, lam.size
                    terms.append(BettiTerm(hom, twist, out.eta, mult, lam, mu))
                    shapes.append(shape)
        return terms, shapes, weights

    def test_terms_match_public_route(self, monkeypatch):
        # the dotted action sees the same weights in the same order, one
        # per pair with a nonzero skew dimension: mu's table is the
        # loop's only pair filter (0 or no entry where mu is not inside
        # lam), so only the visits show a merge made for a zero dimension
        visited = []
        real = resolution_module._dotted_halves

        def recording(upper, lower):
            visited.append(weight_of_halves(upper, lower))
            return real(upper, lower)

        monkeypatch.setattr(resolution_module, "_dotted_halves", recording)
        covered = set()
        for params in self.CASES:
            want, shapes, weights = self.public_route(params)
            visited.clear()
            got = resolution_normalization(params).terms
            assert got == want, params
            assert [t.w_shape for t in got] == shapes, params
            assert visited == weights, params
            for t in want:
                dual = t.lam.part(0) > len(t.lam)  # the e-form on (lam, mu) is smaller
                covered.add((params.n - params.d == 1, dual))
        # a one-dimensional complement, and both Jacobi-Trudi forms with either
        assert covered == {(True, True), (True, False), (False, True), (False, False)}


class TestPairLimit:
    def test_count_is_the_number_of_candidate_pairs(self):
        for n in range(2, 9):
            for d in range(1, n):
                for s in range(1, d + 1):
                    boxes = sum(
                        len(partitions_in_box(Box(k, n - k)))
                        * len(partitions_in_box(Box(k, d - k)))
                        for k in range(s, d + 1)
                    )
                    assert normalization_pair_count(s, d, n) == boxes

    @pytest.mark.parametrize(
        "d, count", [(6, 18_563), (8, 735_470), (9, 4_686_824), (10, 30_045_014)]
    )
    def test_frontier_counts(self, d, count):
        assert normalization_pair_count(1, d, 2 * d) == count
        assert (count <= MAX_NORMALIZATION_PAIRS) == (d < 10)

    def test_chain_count_is_the_number_of_surviving_candidates(self):
        # candidate pairs of the full boxes outside part I at level s,
        # and in part III at every level k > s
        for n in range(2, 9):
            for d in range(1, n):
                for s in range(1, d + 1):
                    surviving = sum(
                        1
                        for k in range(s, d + 1)
                        for lam in partitions_in_box(Box(k, n - k))
                        for mu in partitions_in_box(Box(k, d - k))
                        if classify_part(lam, mu, k) in (("II", "III") if k == s else ("III",))
                    )
                    assert chain_pair_count(s, d, n) == surviving, (s, d, n)

    @pytest.mark.parametrize(
        "d, count", [(5, 1_288), (6, 8_009), (8, 319_771), (9, 2_042_976), (10, 13_123_111)]
    )
    def test_chain_frontier_counts(self, d, count):
        assert chain_pair_count(1, d, 2 * d) == count
        assert (count <= MAX_NORMALIZATION_PAIRS) == (d < 10)

    def test_oversized_chain_refused_before_any_level(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a level was built before the limit check")

        monkeypatch.setattr(resolution_module, "resolution_normalization", refuse)
        monkeypatch.setattr(resolution_module, "_level_terms", refuse)
        with pytest.raises(ValueError, match="MAX_NORMALIZATION_PAIRS"):
            chain_resolution(1, 10, 20)
        with pytest.raises(ValueError, match=str(MAX_NORMALIZATION_PAIRS)):
            les_euler_check(10, 20)

    def test_oversized_level_refused(self):
        # level 7 of (10, 20) alone has C(20, 7) * C(10, 7) = 9,302,400 pairs
        with pytest.raises(ValueError, match="9302400"):
            resolution_normalization(KalmanParams(7, 10, 20))


class TestSplitParts:
    def test_f0_parts_s2_d3(self):
        table = resolution_normalization(KalmanParams(2, 3, 5))
        f0 = {(classify_part(t.lam, t.mu, 2), t.twist): t.multiplicity for t in table.column(0)}
        assert f0 == {("II", 0): 1, ("II", 1): 1, ("I", 2): 1}

    def test_every_term_tagged(self):
        table = resolution_normalization(KalmanParams(2, 4, 6))
        assert all(classify_part(t.lam, t.mu, 2) in ("I", "II", "III") for t in table.terms)

    def test_s1_tags(self):
        table = resolution_normalization(KalmanParams(1, 2, 4))
        for t in table.terms:
            lam, mu = t.lam, t.mu
            part = classify_part(lam, mu, 1)
            if len(mu) == 1:
                assert part == "I"
            elif len(lam) == 0:
                assert part == "II"
            else:
                assert part == "III"

    def test_classify_part_rule(self):
        p = Partition
        assert classify_part(p((1, 1, 1)), p(()), 2) == "carried"
        assert classify_part(p((2, 1)), p((1,)), 1) == "carried"  # mu of full length s too
        assert classify_part(p((2, 1)), p((1, 1)), 2) == "I"
        assert classify_part(p((2,)), p((1,)), 2) == "II"
        assert classify_part(p(()), p(()), 1) == "II"
        assert classify_part(p((2, 1)), p((1,)), 2) == "III"

    def test_f0_check_grid(self):
        for d in range(1, 5):
            for s in range(1, d + 1):
                for n in range(d + 1, 8):
                    report = f0_check(KalmanParams(s, d, n))
                    assert report.passed, report.details


class TestPartIII:
    def test_profile_passes_small_grid(self):
        for s in range(1, 3):
            for d in range(s, 4):
                for n in range(d + 1, 7):
                    report = part_iii_profile(KalmanParams(s, d, n))
                    assert report.passed, report.details

    def test_s1_d2_n3_terms_all_killed_by_thin_complement(self):
        # the only candidate carries a 2-cell column on a 1-dim space
        assert _part_iii_terms(1, 2, 3) == []
        assert part_iii_profile(KalmanParams(1, 2, 3)).passed

    def test_s1_d2_n4_terms(self):
        terms = _part_iii_terms(1, 2, 4)
        assert [(t.hom_degree, t.twist, t.multiplicity) for t in terms] == [(1, 2, 1)]
        assert terms[0].eta == (1, 1)

    def test_terms_are_the_part_iii_terms_of_the_full_level(self):
        # the profile visits only the part III pairs; the full table,
        # filtered by classify_part, is its oracle, and the profile
        # counts them
        for n in range(2, 9):
            for d in range(1, n):
                for s in range(1, d + 1):
                    params = KalmanParams(s, d, n)
                    want = [
                        t
                        for t in resolution_normalization(params).terms
                        if classify_part(t.lam, t.mu, s) == "III"
                    ]
                    assert _part_iii_terms(s, d, n) == want, params
                    assert part_iii_profile(params).data == {"terms": len(want)}, params

    def test_bottom_stratum_never_below_s(self):
        for s in range(1, 4):
            for n in range(5, 8):
                assert all(t.hom_degree >= s for t in _part_iii_terms(s, 4, n))


class TestChainResolution:
    def test_base_case_is_koszul(self):
        table = chain_resolution(2, 2, 4)
        assert betti_numbers(table) == {(0, 0): 1, (1, 1): 4, (2, 2): 6, (3, 3): 4, (4, 4): 1}

    def test_cubic_hypersurface_frozen(self):
        table = chain_resolution(1, 2, 3)
        assert betti_numbers(table) == {(0, 0): 1, (1, 3): 1}

    def test_d2_n4_frozen(self):
        table = chain_resolution(1, 2, 4)
        assert betti_numbers(table) == {
            (0, 0): 1,
            (1, 2): 1,
            (1, 3): 3,
            (2, 4): 4,
            (3, 5): 1,
        }

    def test_single_generator_in_degree_zero(self):
        for d in range(1, 5):
            for n in range(d + 1, 7):
                table = chain_resolution(1, d, n)
                assert [
                    (t.twist, t.multiplicity) for t in table.column(0)
                ] == [(0, 1)]

    def test_closed_form_check_runs_clean(self):
        for s in range(1, 4):
            for d in range(s, 5):
                for n in range(d + 1, 7):
                    report = chain_closed_form_check(chain_resolution(s, d, n))
                    assert report.passed, report.details

    def test_closed_form_check_catches_corruption(self):
        table = chain_resolution(1, 2, 4)
        # removing the generator column must break the low strata
        bad = BettiTable(table.module_id, table.params, [t for t in table.terms if t.hom_degree != 1])
        report = chain_closed_form_check(bad)
        assert not report.passed

    @staticmethod
    def corrupted(table, drop=None, add=()):
        terms = [t for t in table.terms if t is not drop] + list(add)
        return BettiTable(table.module_id, table.params, terms)

    @pytest.mark.parametrize("s, d, n", [(2, 3, 5), (2, 4, 6), (3, 4, 6)])
    def test_dropping_a_part_ii_term_fails(self, s, d, n):
        table = chain_resolution(s, d, n)
        low = [t for t in table.terms if classify_part(t.lam, t.mu, s) == "II" and t.hom_degree <= s]
        assert low
        for t in low:
            report = chain_closed_form_check(self.corrupted(table, drop=t))
            assert not report.passed, t

    @pytest.mark.parametrize("s, d, n", [(1, 2, 4), (1, 3, 5), (2, 3, 5), (2, 4, 6)])
    def test_dropping_a_carried_term_fails(self, s, d, n):
        table = chain_resolution(s, d, n)
        low = [t for t in table.terms if classify_part(t.lam, t.mu, s) == "carried" and t.hom_degree <= s]
        assert low
        for t in low:
            report = chain_closed_form_check(self.corrupted(table, drop=t))
            assert not report.passed, t

    @pytest.mark.parametrize("s, d, n", [(1, 2, 4), (1, 3, 5), (2, 3, 5), (3, 4, 6)])
    def test_adding_a_term_below_degree_s_fails(self, s, d, n):
        table = chain_resolution(s, d, n)
        for t in table.terms:
            for i in range(s):
                extra = t._replace(hom_degree=i)
                report = chain_closed_form_check(self.corrupted(table, add=[extra]))
                assert not report.passed, (t, i)

    def test_carried_term_below_degree_zero_raises(self, monkeypatch):
        # a part III term in degree 0 at level 2 would be carried to
        # degree -1 at level 1; the carried term is a checked BettiTerm.
        # Only lam = (1, 1) at level 2 of (d, n) = (2, 4) has the weight
        # (1, 1); a Bott degree of |lam| puts it in degree 0.
        real = resolution_module._dotted_halves

        def lowered(upper, lower):
            out = real(upper, lower)
            return (2, out[1]) if weight_of_halves(upper, lower) == (1, 1) else out

        monkeypatch.setattr(resolution_module, "_dotted_halves", lowered)
        monkeypatch.setattr(
            resolution_module,
            "chain_closed_form_check",
            lambda chain: CheckReport("stub", {}),
        )
        with pytest.raises(ValueError, match="negative homological degree"):
            chain_resolution(1, 2, 4)

    def test_low_part_ii_is_read_off_the_full_level(self):
        # the expected low strata, read off the full normalization
        # tables: part II of level s in hom degree <= s, and at degree s
        # the part III terms of every level k >= s in hom degree k,
        # carried k - s degrees down with twist raised by (s+k-1)(k-s)/2
        key = resolution_module._stratum_key
        for n in range(2, 10):
            for d in range(1, min(n, 6)):
                levels = {k: resolution_normalization(KalmanParams(k, d, n)) for k in range(1, d + 1)}
                for s in range(1, d + 1):
                    want = {i: [] for i in range(s + 1)}
                    for t in levels[s].terms:
                        if classify_part(t.lam, t.mu, s) == "II" and t.hom_degree <= s:
                            want[t.hom_degree].append(key(t))
                    for k in range(s, d + 1):
                        offset = (s + k - 1) * (k - s) // 2
                        for t in levels[k].terms:
                            if classify_part(t.lam, t.mu, k) == "III" and t.hom_degree == k:
                                want[s].append(key(t._replace(twist=t.twist + offset)))
                    got = resolution_module._low_strata(s, d, n)
                    assert got == {i: sorted(keys) for i, keys in want.items()}, (s, d, n)

    def test_lost_level_s_pairs_raise(self, monkeypatch):
        # level s taking only full-length lam loses its part II; the low
        # strata are expected from a level computed apart from the chain,
        # so the loss shows on one side only
        real = resolution_module._level_terms

        def full_length_only(k, d, n, lams, mus, shift=(0, 0)):
            if shift == (0, 0):  # level s; deeper levels are shifted
                lams = [lam for lam in lams if len(lam) == k]
            return real(k, d, n, lams, mus, shift)

        monkeypatch.setattr(resolution_module, "_level_terms", full_length_only)
        with pytest.raises(CheckFailure):
            chain_resolution(1, 1, 2)

    @staticmethod
    def assembled_from_full_levels(s, d, n):
        """chain(s) as the full normalization tables give it, as (term,
        part) pairs: every level tagged with its part, and chain(k+1)
        outside part II carried into chain(k) with hom degree - 1 and
        twist + k, tagged "carried"."""
        chain = []
        for k in range(d, s - 1, -1):
            table = resolution_normalization(KalmanParams(k, d, n))
            tagged = [(t, classify_part(t.lam, t.mu, k)) for t in table.terms]
            chain = [(t, part) for t, part in tagged if part != "I"] + [
                (t._replace(hom_degree=t.hom_degree - 1, twist=t.twist + k), "carried")
                for t, part in chain
                if part != "II"
            ]
        return chain

    def test_matches_assembly_from_full_levels(self):
        for n in range(2, 9):
            for d in range(1, n):
                for s in range(1, d + 1):
                    want = Counter(self.assembled_from_full_levels(s, d, n))
                    got = Counter(
                        (t, classify_part(t.lam, t.mu, s)) for t in chain_resolution(s, d, n).terms
                    )
                    assert got == want, (s, d, n)

    def test_one_dotted_bott_call_per_pair(self, monkeypatch):
        calls = []
        real = resolution_module._dotted_halves

        def counting(upper, lower):
            calls.append(weight_of_halves(upper, lower))
            return real(upper, lower)

        monkeypatch.setattr(resolution_module, "_dotted_halves", counting)
        d, n = 5, 10
        chain_resolution(1, d, n)
        # the contained pairs that survive, with a nonzero skew
        # dimension: outside part I at level 1, part III at every deeper
        # level (2,547 contained pairs in the full levels, 1,275 of them
        # outside the cancelled parts)
        weights = [
            bundle_weight(lam, mu.conjugate(), k, d)
            for k in range(1, d + 1)
            for lam in partitions_in_box(Box(k, n - k))
            for mu in partitions_in_box(Box(k, d - k))
            if all(mu.part(i) <= lam.part(i) for i in range(k))
            and classify_part(lam, mu, k) in (("II", "III") if k == 1 else ("III",))
            and skew_schur_dim(SkewShape(lam.conjugate(), mu.conjugate()), n - d)
        ]
        assert len(weights) == 989
        assert sorted(calls) == sorted(weights)

    def test_one_conjugation_per_mu_per_level(self, monkeypatch):
        # the loop conjugates each mu once, for its W-half, and no lam:
        # the skew dimensions come from mu's table, keyed by lam's
        # beta-set.  Per lam conjugations made 463 calls at level 6
        # here, and re-conjugating in the dual Jacobi-Trudi branch once
        # made 18,130 in all
        conjugated = []
        real_conjugate = Partition.conjugate

        def counting(self):
            conjugated.append(self)
            return real_conjugate(self)

        per_level = {}
        real_level_terms = resolution_module._level_terms

        def recording(k, *args):
            before = len(conjugated)
            terms = real_level_terms(k, *args)
            per_level.setdefault(k, []).extend(conjugated[before:])
            return terms

        monkeypatch.setattr(Partition, "conjugate", counting)
        monkeypatch.setattr(resolution_module, "_level_terms", recording)
        d, n = 6, 12
        chain_resolution(1, d, n)
        # level 1: mu in the 0 x 5 box; level k > 1: mu in the
        # (k-1) x (6-k) box; each conjugated once, in enumeration order
        want = {1: [Partition(())]}
        want.update({k: partitions_in_box(Box(k - 1, d - k)) for k in range(2, d + 1)})
        assert per_level == want
        assert {k: len(shapes) for k, shapes in per_level.items()} == {
            k: comb(d - 1, k - 1) for k in range(1, d + 1)
        }

    def test_normalization_rebuilds_no_partition(self, monkeypatch):
        params = KalmanParams(2, 4, 7)
        want = resolution_normalization(params)

        def refuse(cls, parts=()):
            raise AssertionError("a Partition was rebuilt")

        monkeypatch.setattr(Partition, "__new__", refuse)
        assert resolution_normalization(params).terms == want.terms

    def test_generators_match_prediction(self):
        for d in range(1, 5):
            for n in range(d + 1, 8):
                table = chain_resolution(1, d, n)
                got: dict[int, int] = {}
                for t in table.column(1):
                    got[t.twist] = got.get(t.twist, 0) + t.multiplicity
                want: dict[int, int] = {}
                for rec in minimal_generators(d, n):
                    if rec.multiplicity:
                        want[rec.degree] = want.get(rec.degree, 0) + rec.multiplicity
                assert got == want, (d, n)


class TestMinimalGenerators:
    def test_d3_n5_frozen(self):
        recs = minimal_generators(3, 5)
        data = [(r.s, tuple(r.mu), r.degree, r.multiplicity) for r in recs]
        assert data == [
            (1, (), 3, 0),
            (2, (), 4, 2),
            (2, (1,), 5, 2),
            (3, (), 6, 4),
        ]

    def test_d2_n4_counts(self):
        recs = [r for r in minimal_generators(2, 4) if r.multiplicity]
        assert [(r.degree, r.multiplicity) for r in recs] == [(2, 1), (3, 3)]

    def test_d2_n5_counts(self):
        recs = [r for r in minimal_generators(2, 5) if r.multiplicity]
        assert [(r.degree, r.multiplicity) for r in recs] == [(2, 3), (3, 6)]

    def test_hypersurface_single_equation(self):
        for d in range(2, 5):
            recs = [r for r in minimal_generators(d, d + 1) if r.multiplicity]
            assert len(recs) == 1
            assert recs[0].degree == d * (d + 1) // 2
            assert recs[0].multiplicity == 1
            assert recs[0].s == d

    def test_row_composition_identities(self):
        for d in range(1, 6):
            for n in range(d + 1, 8):
                for rec in minimal_generators(d, n):
                    comp = rec.row_composition
                    assert len(comp) == d
                    assert sum(comp) == d
                    assert all(a >= 0 for a in comp)
                    assert rec.degree == d + sum(r * a for r, a in enumerate(comp))
                    minors = 1
                    for a in comp:
                        minors *= comb(n - d, a)
                    assert minors >= rec.multiplicity

    def test_zero_multiplicity_records_flagged_not_dropped(self):
        recs = minimal_generators(3, 4)
        zeros = [r for r in recs if r.multiplicity == 0]
        assert zeros, "thin complement must produce flagged empty families"


class TestHilbert:
    def test_koszul_numerator(self):
        table = resolution_normalization(KalmanParams(2, 2, 3))
        series = hilbert_numerator(table)
        assert dict(series.numerator) == {0: 1, 1: -2, 2: 1}
        assert series.denom_power == 9

    def test_chain_cubic_numerator(self):
        series = hilbert_numerator(chain_resolution(1, 2, 3))
        assert dict(series.numerator) == {0: 1, 3: -1}

    def test_expand_cubic(self):
        series = hilbert_numerator(chain_resolution(1, 2, 3))
        got = series.expand(6)
        want = [comb(8 + e, 8) - (comb(5 + e, 8) if e >= 3 else 0) for e in range(7)]
        assert got == want
        assert got[:4] == [1, 9, 45, 164]

    def test_vanishing_order(self):
        series = HilbertSeries.of({0: 1, 1: -3, 2: 3, 3: -1}, 4)
        assert series.vanishing_order_at_one() == 3
        assert HilbertSeries.of({0: 2}, 4).vanishing_order_at_one() == 0
        # a Laurent numerator: t^-1 - 1 = t^-1 (1 - t)
        assert HilbertSeries.of({-1: 1, 0: -1}, 2).vanishing_order_at_one() == 1

    def test_zero_numerator_has_no_vanishing_order(self):
        with pytest.raises(ValueError, match="zero numerator"):
            HilbertSeries.of({3: 0}, 4).vanishing_order_at_one()

    def test_vanishing_order_matches_division_on_the_tables(self):
        seen = 0
        for n in range(2, 13):
            for d in range(1, min(n, 7)):
                for s in range(1, d + 1):
                    for table in (
                        chain_resolution(s, d, n),
                        resolution_normalization(KalmanParams(s, d, n)),
                    ):
                        series = hilbert_numerator(table)
                        want = order_by_division(dict(series.numerator))
                        assert series.vanishing_order_at_one() == want, (s, d, n, table.module_id)
                        seen += 1
        assert seen == 322

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=8).filter(any),
        st.integers(0, 6),
        st.integers(0, 3),
    )
    def test_vanishing_order_matches_division(self, coeffs, k, lift):
        # (t^lift * p(t)) * (1 - t)^k with p nonzero: order k plus p's own
        poly = {lift + e: c for e, c in enumerate(coeffs)}
        for _ in range(k):
            poly = {e: poly.get(e, 0) - poly.get(e - 1, 0) for e in range(max(poly) + 2)}
        series = HilbertSeries.of(poly, 9)
        want = order_by_division(dict(series.numerator))
        assert want >= k
        assert series.vanishing_order_at_one() == want

    def test_les_euler_small(self):
        for d in range(1, 4):
            for n in range(d + 1, 7):
                report = les_euler_check(d, n)
                assert report.passed, report.details

    def test_codim_normalization(self):
        for s in range(1, 3):
            for d in range(s, 4):
                for n in range(d + 1, 6):
                    series = hilbert_numerator(
                        resolution_normalization(KalmanParams(s, d, n))
                    )
                    assert series.vanishing_order_at_one() == s * (n - d)

    def test_codim_chain(self):
        for d in range(1, 4):
            for n in range(d + 1, 6):
                series = hilbert_numerator(chain_resolution(1, d, n))
                assert series.vanishing_order_at_one() == n - d


class TestCancellation:
    """les_euler_check matches part I of each level s with part II of
    level s+1 on the full normalization tables."""

    def test_part_i_meets_part_ii_on_every_adjacent_pair(self):
        # each side is nonempty: part I of level s holds the generators
        # of every mu of full length s
        for d in range(2, 6):
            for n in range(d + 1, 10):
                levels = [resolution_normalization(KalmanParams(s, d, n)) for s in range(1, d + 1)]
                for lower, upper in zip(levels, levels[1:]):
                    s = lower.params.s
                    part_i = [t for t in lower.terms if classify_part(t.lam, t.mu, s) == "I"]
                    part_ii = [t for t in upper.terms if classify_part(t.lam, t.mu, s + 1) == "II"]
                    assert part_i and len(part_i) == len(part_ii), (s, d, n)
                    assert resolution_module._cancelled(lower, "I", s, 1) == resolution_module._cancelled(upper, "II", s, 0)

    @staticmethod
    def corrupt_level(monkeypatch, level, change):
        real = resolution_module.resolution_normalization

        def corrupted(params):
            table = real(params)
            if params.s == level:
                table = table._replace(terms=change(table.terms, params.s))
            return table

        monkeypatch.setattr(resolution_module, "resolution_normalization", corrupted)

    @staticmethod
    def kinds(report):
        return [detail["kind"] for detail in report.details]

    def test_part_ii_twist_off_by_one_fails(self, monkeypatch):
        def shift_one(terms, s):
            i = next(i for i, t in enumerate(terms) if classify_part(t.lam, t.mu, s) == "II")
            return terms[:i] + [terms[i]._replace(twist=terms[i].twist + 1)] + terms[i + 1 :]

        self.corrupt_level(monkeypatch, 2, shift_one)
        report = les_euler_check(3, 6)
        assert not report.passed
        assert "cancellation_mismatch" in self.kinds(report)

    def test_dropped_part_i_term_fails(self, monkeypatch):
        def drop_one(terms, s):
            i = next(i for i, t in enumerate(terms) if classify_part(t.lam, t.mu, s) == "I")
            return terms[:i] + terms[i + 1 :]

        self.corrupt_level(monkeypatch, 1, drop_one)
        report = les_euler_check(3, 6)
        assert not report.passed
        assert "cancellation_mismatch" in self.kinds(report)

    def test_chain_side_is_the_second_route(self, monkeypatch):
        # the chain numerator no longer comes from the tables the
        # alternating sum reads
        def refuse(params):
            raise AssertionError("the chain built a full normalization table")

        monkeypatch.setattr(resolution_module, "resolution_normalization", refuse)
        chain_resolution(1, 4, 8)


class TestPdReg:
    def test_cubic(self):
        assert pd_and_reg(chain_resolution(1, 2, 3)) == (1, 2)

    def test_formulas(self):
        for d, n in [(2, 4), (3, 4), (2, 5)]:
            pd, reg = pd_and_reg(chain_resolution(1, d, n))
            assert pd == d * (n - d) - d + 1
            assert reg == d * (d + 1) // 2 - 1


class TestBettiTerm:
    def test_non_positive_multiplicity_raises(self):
        for mult in (0, -1):
            with pytest.raises(ValueError, match="non-positive multiplicity"):
                BettiTerm(0, 0, (0,), mult, Partition(()), Partition(()))

    def test_negative_hom_degree_raises(self):
        with pytest.raises(ValueError, match="negative homological degree"):
            BettiTerm(-1, 0, (0,), 1, Partition(()), Partition(()))

    def test_six_slotted_fields(self):
        term = chain_resolution(1, 2, 4).terms[0]
        assert BettiTerm._fields == ("hom_degree", "twist", "eta", "multiplicity", "lam", "mu")
        assert not hasattr(term, "__dict__")

    def test_sorted_terms_by_degree_twist_and_pair(self):
        table = chain_resolution(1, 2, 4)
        keys = [(t.hom_degree, t.twist, tuple(t.lam), tuple(t.mu)) for t in table.sorted_terms()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == len(table.terms)


# Values recorded from the tableau-backtracking implementation before the
# Jacobi-Trudi count replaced it; any change to them is a regression.
SEED_CHAIN_1_5_10 = {
    (0, 0): 1, (1, 5): 1, (1, 6): 24, (1, 7): 99, (1, 8): 225, (1, 9): 400,
    (1, 10): 502, (1, 11): 600, (1, 12): 525, (1, 13): 399, (1, 14): 224,
    (1, 15): 126, (2, 7): 25, (2, 8): 250, (2, 9): 850, (2, 10): 2225,
    (2, 11): 3975, (2, 12): 5900, (2, 13): 6650, (2, 14): 5775, (2, 15): 3500,
    (2, 16): 2100, (3, 9): 150, (3, 10): 975, (3, 11): 3976, (3, 12): 14000,
    (3, 13): 28800, (3, 14): 41125, (3, 15): 38100, (3, 16): 25500, (3, 17): 16500,
    (4, 11): 350, (4, 12): 2924, (4, 13): 24977, (4, 14): 75801, (4, 15): 133726,
    (4, 16): 156250, (4, 17): 114775, (4, 18): 81225, (5, 13): 1001, (5, 14): 23599,
    (5, 15): 112373, (5, 16): 257127, (5, 17): 435477, (5, 18): 357351,
    (5, 19): 280825, (6, 14): 224, (6, 15): 11251, (6, 16): 94426, (6, 17): 316751,
    (6, 18): 840623, (6, 19): 815972, (6, 20): 724504, (7, 16): 2100,
    (7, 17): 42050, (7, 18): 259301, (7, 19): 1127700, (7, 20): 1410275,
    (7, 21): 1446600, (8, 18): 7700, (8, 19): 142224, (8, 20): 1045650,
    (8, 21): 1872675, (8, 22): 2288300, (9, 20): 51627, (9, 21): 658022,
    (9, 22): 1917224, (9, 23): 2912000, (10, 21): 11524, (10, 22): 269527,
    (10, 23): 1505927, (10, 24): 3010800, (11, 22): 1176, (11, 23): 65224,
    (11, 24): 896472, (11, 25): 2544256, (12, 24): 7100, (12, 25): 396250,
    (12, 26): 1762150, (13, 26): 125926, (13, 27): 1000350, (14, 27): 27274,
    (14, 28): 464200, (15, 28): 3626, (15, 29): 175000, (16, 29): 224,
    (16, 30): 53004, (17, 31): 12650, (18, 32): 2300, (19, 33): 300, (20, 34): 25,
    (21, 35): 1,
}
SEED_LES_NUMERATORS = {
    (3, 7): (
        "1 - 4*t^3 - 17*t^4 + 25*t^5 + 61*t^6 - 79*t^7 - 196*t^8 + 575*t^9 - "
        "681*t^10 + 480*t^11 - 220*t^12 + 66*t^13 - 12*t^14 + t^15"
    ),
    (4, 9): (
        "1 - 5*t^4 - 41*t^5 + t^6 + 196*t^7 + 245*t^8 - 546*t^9 - 2941*t^10 + "
        "8145*t^11 - 4626*t^12 - 6684*t^13 + 2577*t^14 + 34267*t^15 - "
        "85853*t^16 + 115335*t^17 - 106131*t^18 + 72464*t^19 - 37976*t^20 + "
        "15448*t^21 - 4845*t^22 + 1140*t^23 - 190*t^24 + 20*t^25 - t^26"
    ),
}


class TestSeedValues:
    def test_chain_1_5_10_betti_numbers(self):
        assert betti_numbers(chain_resolution(1, 5, 10)) == SEED_CHAIN_1_5_10

    @pytest.mark.parametrize("d, n", sorted(SEED_LES_NUMERATORS))
    def test_les_euler_data(self, d, n):
        numerator = SEED_LES_NUMERATORS[d, n]
        assert les_euler_check(d, n).data == {
            "alternating_sum": numerator,
            "chain_numerator": numerator,
        }
