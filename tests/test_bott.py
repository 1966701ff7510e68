import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalvar.bott
from kalvar.bott import (
    BottOutcome,
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

    def test_exhaustive_small(self):
        report = exhaustive_dotted_check(max_d=3, lo=-2, hi=3)
        assert report.passed, report.details


class TestInverseDottedMap:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_forward_scan(self, d):
        lo, hi = -3, 4
        hits, repeated = _inverse_dotted_map(d, lo, hi)
        assert repeated == 0
        window = set(itertools.product(range(lo, hi + 1), repeat=d))
        scan_hits, scan_vanishing = forward_scan(d, lo, hi)
        assert hits == scan_hits
        assert window - hits.keys() == scan_vanishing

    @pytest.mark.parametrize(
        "nu, wrong",
        [
            ((0, 0, 3), BottOutcome(False, 1, (1, 1, 1))),
            ((1, -2, 3), BottOutcome(False, 0, (3, -2, 1))),
        ],
        ids=["wrong-degree", "vanishing-survives"],
    )
    def test_check_catches_one_wrong_weight(self, monkeypatch, nu, wrong):
        real = kalvar.bott.dotted_bott
        monkeypatch.setattr(
            kalvar.bott, "dotted_bott", lambda w: wrong if tuple(w) == nu else real(w)
        )
        report = exhaustive_dotted_check(3, -2, 3)
        assert not report.passed
        assert [x["nu"] for x in report.details] == [list(nu)]


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
            s = max(1, lam.length)
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
