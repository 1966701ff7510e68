import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalvar.bott
from kalvar.bott import (
    MAX_EXHAUSTIVE_WORK,
    BottOutcome,
    _dotted_halves,
    _inverse_dotted_map,
    bundle_cohomology,
    bundle_weight,
    dotted_bott,
    exhaustive_dotted_check,
    rho,
)
from kalvar.partitions import Box, Partition, partitions_in_box


def brute_dotted(nu):
    """Oracle: scan all permutations of nu + rho for a strictly
    decreasing arrangement."""
    d = len(nu)
    r = rho(d)
    shifted = tuple(a + b for a, b in zip(nu, r))
    hits = []
    for perm in itertools.permutations(range(d)):
        arranged = tuple(shifted[p] for p in perm)
        if all(a > b for a, b in zip(arranged, arranged[1:])):
            inv = sum(
                1
                for i in range(d)
                for j in range(i + 1, d)
                if perm[i] > perm[j]
            )
            eta = tuple(a - b for a, b in zip(arranged, r))
            hits.append((inv, eta))
    assert len(hits) <= 1
    return hits[0] if hits else None


def reference_dotted(nu):
    """Oracle: sort nu + rho, look for equal neighbours, and count the
    out-of-order pairs one by one."""
    nu = tuple(nu)
    d = len(nu)
    r = rho(d)
    shifted = tuple(a + b for a, b in zip(nu, r))
    srt = tuple(sorted(shifted, reverse=True))
    if any(a == b for a, b in zip(srt, srt[1:])):
        return BottOutcome(True, None, None)
    inv = sum(1 for i in range(d) for j in range(i + 1, d) if shifted[i] < shifted[j])
    return BottOutcome(False, inv, tuple(a - b for a, b in zip(srt, r)))


def reference_inverse_map(d, lo, hi):
    """Oracle for _inverse_dotted_map: build the preimage of every
    strictly decreasing srt with entries in [lo, hi + d - 1] under every
    permutation, and keep those inside the window."""
    r = rho(d)
    perms = [
        (u, sum(1 for i in range(d) for j in range(i + 1, d) if u[i] > u[j]))
        for u in itertools.permutations(range(d))
    ]
    ref, repeated = {}, set()
    for srt in itertools.combinations(range(hi + d - 1, lo - 1, -1), d):
        eta = tuple(a - b for a, b in zip(srt, r))
        for u, inv in perms:
            nu = tuple(srt[k] - b for k, b in zip(u, r))
            if lo <= min(nu) and max(nu) <= hi:
                if nu in ref:
                    repeated.add(nu)
                ref[nu] = (inv, eta)
    return ref, len(repeated)


def inverse_map(d, lo, hi):
    """_inverse_dotted_map with its dense table read back as the map
    nu -> (inv, eta) over the weights it holds, in the form
    reference_inverse_map returns."""
    table, repeated = _inverse_dotted_map(d, lo, hi)
    window = itertools.product(range(lo, hi + 1), repeat=d)
    return {nu: hit for nu, hit in zip(window, table, strict=True) if hit is not None}, repeated


# the check-bott benchmark window: lengths 1..5 over [-4, 6]
WIDE = (-4, 6)


@pytest.fixture(scope="module")
def wide_reference():
    return {d: reference_inverse_map(d, *WIDE) for d in range(1, 6)}


def forward_scan(d, lo, hi):
    """Oracle: apply every permutation to nu + rho for every weight nu in
    [lo, hi]^d at once, vectorized over the weight grid.  Returns the map
    nu -> (degree, eta) of the weights some permutation sorts strictly,
    and the set of weights none does."""
    axes = [np.arange(lo, hi + 1)] * d
    weights = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    r = np.array(rho(d), dtype=np.int64)
    shifted = weights + r
    n = shifted.shape[0]
    sorter_count = np.zeros(n, dtype=np.int64)
    degree = np.full(n, -1, dtype=np.int64)
    eta = np.zeros((n, d), dtype=np.int64)
    for perm in itertools.permutations(range(d)):
        ps = shifted[:, perm]
        strict = np.all(ps[:, :-1] > ps[:, 1:], axis=1)
        sorter_count += strict
        degree[strict] = sum(
            1 for i in range(d) for j in range(i + 1, d) if perm[i] > perm[j]
        )
        eta[strict] = ps[strict] - r
    assert sorter_count.max() <= 1
    hits, vanishing = {}, set()
    for k, nu in enumerate(map(tuple, weights.tolist())):
        if sorter_count[k]:
            hits[nu] = (int(degree[k]), tuple(eta[k].tolist()))
        else:
            vanishing.add(nu)
    return hits, vanishing


class TestRho:
    def test_values(self):
        assert rho(1) == (0,)
        assert rho(4) == (3, 2, 1, 0)
        assert rho(0) == ()


class TestDottedBott:
    def test_dominant_weight_survives_in_degree_zero(self):
        for d in range(1, 5):
            out = dotted_bott((0,) * d)
            assert not out.vanishes
            assert out.degree == 0
            assert out.eta == (0,) * d

    def test_repeat_vanishes(self):
        out = dotted_bott((0, 1))
        assert out.vanishes
        assert out.degree is None and out.eta is None

    def test_frozen_example(self):
        out = dotted_bott((0, 0, 3))
        assert not out.vanishes
        assert out.degree == 2
        assert out.eta == (1, 1, 1)

    def test_eta_weakly_decreasing(self):
        for nu in itertools.product(range(-3, 4), repeat=4):
            out = dotted_bott(nu)
            if not out.vanishes:
                assert all(a >= b for a, b in zip(out.eta, out.eta[1:]))

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_property(self, nu):
        out = dotted_bott(nu)
        ref = brute_dotted(tuple(nu))
        if ref is None:
            assert out.vanishes
        else:
            assert (out.degree, out.eta) == ref

    @given(st.lists(st.integers(-8, 8), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_property(self, nu):
        assert dotted_bott(nu) == reference_dotted(nu)

    @pytest.mark.parametrize("d", range(5))
    def test_matches_reference_on_a_grid(self, d):
        for nu in itertools.product(range(-3, 5), repeat=d):
            assert dotted_bott(nu) == reference_dotted(nu)

    def test_empty_weight(self):
        assert dotted_bott(()) == reference_dotted(()) == BottOutcome(False, 0, ())

    def test_vanishing_outcome_is_frozen(self):
        # every vanishing weight shares one outcome, which must not change
        out = dotted_bott((0, 1))
        assert out is kalvar.bott._VANISHES
        with pytest.raises(AttributeError):
            out.degree = 0
        assert (out.vanishes, out.degree, out.eta) == (True, None, None)
        assert dotted_bott((0, 1)) == BottOutcome(True, None, None)
        survivor = dotted_bott((1, 0))
        with pytest.raises(AttributeError):
            survivor.degree = 5
        assert (survivor.vanishes, survivor.degree, survivor.eta) == (False, 0, (1, 0))

    def test_rejects_non_integer_entries(self):
        # refused, not truncated to (0, 0), which survives in degree 0
        with pytest.raises(TypeError):
            dotted_bott((0.5, 0))
        assert dotted_bott((np.int64(0), 0)) == dotted_bott((0, 0))

    def test_exhaustive_small(self):
        report = exhaustive_dotted_check(max_d=3, lo=-2, hi=3)
        assert report.passed, report.details

    def test_a_pass_calls_dotted_bott_on_every_weight(self, monkeypatch, wide_reference):
        real = kalvar.bott.dotted_bott
        calls = 0

        def counted(nu):
            nonlocal calls
            calls += 1
            return real(nu)

        monkeypatch.setattr(kalvar.bott, "dotted_bott", counted)
        report = exhaustive_dotted_check(5, *WIDE)
        assert report.passed, report.details
        assert calls == 177_155 == sum(11**d for d in range(1, 6))
        survivors = [row["weights"] - row["vanishing"] for row in report.data["per_d"]]
        assert survivors == [len(wide_reference[d][0]) for d in range(1, 6)]

    def test_work_limit(self, monkeypatch):
        # lengths 1..3 over [-2, 3]: 6 + 36 + 216 weights and 1 + 2 + 6 permutations
        monkeypatch.setattr(kalvar.bott, "MAX_EXHAUSTIVE_WORK", 267)
        assert exhaustive_dotted_check(3, -2, 3).passed
        monkeypatch.setattr(kalvar.bott, "MAX_EXHAUSTIVE_WORK", 266)
        with pytest.raises(ValueError, match="limit of 266 "):
            exhaustive_dotted_check(3, -2, 3)

    def test_work_limit_admits_the_default_checks(self):
        # check-all runs lengths 1..3 over [-2, 3]; check-bott's benchmark
        # window is lengths 1..5 over [-4, 6], 177,155 weights
        for max_d, lo, hi in [(3, -2, 3), (5, *WIDE), (6, *WIDE)]:
            work = sum((hi - lo + 1) ** d + math.factorial(d) for d in range(1, max_d + 1))
            assert work <= MAX_EXHAUSTIVE_WORK


class TestDottedHalves:
    """The merge of two strictly decreasing shifted halves against
    dotted_bott on the weight they make."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_dotted_bott(self, d):
        # every split and every pair of strictly decreasing halves with
        # entries in [-4, 6], shared entries included
        window = range(6, -5, -1)
        r = rho(d)
        survivors = 0
        for k in range(d + 1):
            for upper in itertools.combinations(window, d - k):
                for lower in itertools.combinations(window, k):
                    want = dotted_bott(tuple(a - b for a, b in zip(upper + lower, r)))
                    got = _dotted_halves(upper, lower)
                    if want.vanishes:
                        assert got is None, (upper, lower)
                    else:
                        survivors += 1
                        assert got == (want.degree, want.eta), (upper, lower)
        assert survivors == math.comb(11, d) * 2 ** d


class TestInverseDottedMap:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_forward_scan(self, d):
        lo, hi = -3, 4
        hits, repeated = inverse_map(d, lo, hi)
        assert repeated == 0
        window = set(itertools.product(range(lo, hi + 1), repeat=d))
        scan_hits, scan_vanishing = forward_scan(d, lo, hi)
        assert hits == scan_hits
        assert window - hits.keys() == scan_vanishing

    def test_preimage_counts_pinned(self):
        counts = [len(inverse_map(d, *WIDE)[0]) for d in range(1, 6)]
        assert counts == [11, 111, 1030, 8826, 70254]

    def test_matches_reference_on_the_benchmark_window(self, wide_reference):
        for d in range(1, 6):
            assert inverse_map(d, *WIDE) == wide_reference[d]

    @pytest.mark.parametrize(
        "lo, hi",
        [(-3, 4), (0, 2), (1, 1), (-1, 0), (2, 5), (-5, -2), (-6, -6)],
        ids=["mixed", "width-3", "width-1", "width-2", "positive", "negative", "one-negative"],
    )
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_reference(self, d, lo, hi):
        assert inverse_map(d, lo, hi) == reference_inverse_map(d, lo, hi)

    @given(st.integers(1, 5), st.integers(-7, 7), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_property(self, d, lo, extra):
        hi = lo + extra
        assert inverse_map(d, lo, hi) == reference_inverse_map(d, lo, hi)

    @pytest.mark.parametrize(
        "nu, wrong",
        [
            ((0, 0, 3), BottOutcome(False, 1, (1, 1, 1))),
            ((1, -2, 3), BottOutcome(False, 0, (3, -2, 1))),
            # the first and the last slot of the table
            ((-2, -2, -2), BottOutcome(False, 1, (-2, -2, -2))),
            ((3, 3, 3), BottOutcome(True, None, None)),
        ],
        ids=["wrong-degree", "vanishing-survives", "first-slot", "last-slot"],
    )
    def test_check_catches_one_wrong_weight(self, monkeypatch, nu, wrong):
        real = kalvar.bott.dotted_bott
        monkeypatch.setattr(
            kalvar.bott, "dotted_bott", lambda w: wrong if tuple(w) == nu else real(w)
        )
        report = exhaustive_dotted_check(3, -2, 3)
        assert not report.passed
        assert [x["nu"] for x in report.details] == [list(nu)]

    def test_check_catches_a_weight_reached_twice(self, monkeypatch):
        # walking the identity permutation twice reaches every dominant
        # weight of the window twice
        class Doubled:
            def __getattr__(self, name):
                return getattr(itertools, name)

            @staticmethod
            def permutations(items):
                perms = list(itertools.permutations(items))
                return perms + perms[:1]

        monkeypatch.setattr(kalvar.bott, "itertools", Doubled())
        window = itertools.product(range(-2, 4), repeat=3)
        dominant = [nu for nu in window if list(nu) == sorted(nu, reverse=True)]
        assert _inverse_dotted_map(3, -2, 3)[1] == len(dominant) == 56
        report = exhaustive_dotted_check(3, -2, 3)
        assert not report.passed
        assert {"d": 3, "weights_with_multiple_sorters": 56} in report.details

    @pytest.mark.parametrize("d, lo, hi", [(1, -4, 6), (3, -2, 3), (4, 0, 2), (2, 5, 5), (5, -1, 1)])
    def test_slots_decode_by_mixed_radix(self, d, lo, hi):
        # slot k holds the weight whose base-width digits, most
        # significant first, are its entries minus lo
        width = hi - lo + 1
        table, _ = _inverse_dotted_map(d, lo, hi)
        assert len(table) == width**d
        ref, _ = reference_inverse_map(d, lo, hi)
        weights = list(itertools.product(range(lo, hi + 1), repeat=d))
        for k, hit in enumerate(table):
            nu = tuple(lo + k // width ** (d - 1 - j) % width for j in range(d))
            assert nu == weights[k]
            assert hit == ref.get(nu), nu

    def test_one_eta_tuple_per_dominant_weight(self):
        etas = [eta for _, eta in inverse_map(5, *WIDE)[0].values()]
        assert len({id(eta) for eta in etas}) == len(set(etas)) == 3003


class TestBundleWeight:
    def test_frozen_example(self):
        assert bundle_weight(Partition((2, 1)), Partition((1,)), s=2, d=4) == (0, -1, 2, 1)

    def test_full_length(self):
        assert bundle_weight(Partition((1,)), Partition(()), s=1, d=3) == (0, 0, 1)

    def test_s_equals_d(self):
        assert bundle_weight(Partition((2, 1)), Partition(()), s=2, d=2) == (2, 1)

    def test_rejects_overlong_lam(self):
        with pytest.raises(ValueError):
            bundle_weight(Partition((1, 1)), Partition(()), s=1, d=3)

    def test_rejects_overlong_mu_t(self):
        with pytest.raises(ValueError):
            bundle_weight(Partition((1,)), Partition((1, 1)), s=1, d=2)

    @pytest.mark.parametrize("s, d", [(-1, 2), (3, 2)])
    def test_rejects_s_outside_zero_to_d(self, s, d):
        with pytest.raises(ValueError):
            bundle_weight((), (), s=s, d=d)

    def test_plain_sequences_are_validated(self):
        assert bundle_weight((2, 1, 0), [1], s=2, d=4) == (0, -1, 2, 1)
        with pytest.raises(ValueError):
            bundle_weight((1, 2), (), s=2, d=4)
        with pytest.raises(ValueError):
            bundle_cohomology((1,), (-1,), s=1, d=3)

    def test_partitions_are_not_rebuilt(self, monkeypatch):
        lam, mu_t = Partition((2, 1)), Partition((1,))
        want = bundle_cohomology(lam, mu_t, s=2, d=4)

        def refuse(cls, parts=()):
            raise AssertionError("a Partition was rebuilt")

        monkeypatch.setattr(Partition, "__new__", refuse)
        assert bundle_weight(lam, mu_t, s=2, d=4) == (0, -1, 2, 1)
        assert bundle_cohomology(lam, mu_t, s=2, d=4) == want


class TestBundleCohomology:
    def test_top_row_single_wedge(self):
        # lam = (d) on a line: degree d-1, weight (1, ..., 1), one copy
        for d in range(2, 6):
            out, mult = bundle_cohomology(Partition((d,)), Partition(()), s=1, d=d)
            assert not out.vanishes
            assert out.degree == d - 1
            assert out.eta == (1,) * d
            assert mult == 1

    def test_mu_equal_lam_fixed_point(self):
        # mu = lam gives cohomology exactly in degree |lam|, one copy
        for lam in partitions_in_box(Box(3, 3)):
            s = max(1, len(lam))
            d = s + lam.part(0) + 1
            out, mult = bundle_cohomology(lam, lam.conjugate(), s=s, d=d)
            assert not out.vanishes
            assert out.degree == lam.size
            assert out.eta == (0,) * d
            assert mult == 1

    def test_vanishing_has_zero_multiplicity(self):
        out, mult = bundle_cohomology(Partition((1,)), Partition(()), s=1, d=2)
        assert out.vanishes and mult == 0

    def test_degree_bounded_by_grassmannian_dimension(self):
        for s in range(1, 4):
            for d in range(s, 6):
                dim_gr = s * (d - s)
                for lam in partitions_in_box(Box(s, 4)):
                    for mu in partitions_in_box(Box(s, d - s)):
                        if not lam.contains(mu):
                            continue
                        out, _ = bundle_cohomology(lam, mu.conjugate(), s=s, d=d)
                        if not out.vanishes:
                            assert out.degree <= dim_gr
