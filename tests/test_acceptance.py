"""Acceptance suite.

One test per acceptance criterion, each ending in a single printed
pass line (the pytest verdict for the test is the fail line).  Time
budgets are asserted where the criterion carries one.
"""

import time

from kalvar.bott import bundle_cohomology, exhaustive_dotted_check
from kalvar.partitions import Box, Partition, partitions_in_box
from kalvar.polysym import trace_identity_check
from kalvar.resolution import (
    KalmanParams,
    chain_resolution,
    f0_check,
    hilbert_numerator,
    les_euler_check,
    part_iii_profile,
    pd_and_reg,
)
from kalvar.verify import (
    ALTERNATE_MODULUS,
    DEFAULT_MODULUS,
    PrimeFieldConfig,
    hypersurface_check,
    minimality_report,
    truncated_hilbert_check,
)


def test_criterion_01_cohomology_degree_oracle():
    t0 = time.monotonic()
    report = exhaustive_dotted_check(max_d=5, lo=-4, hi=6)
    elapsed = time.monotonic() - t0
    assert report.passed, report.details[:5]
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 01] cohomology degree oracle, d<=5, window [-4,6]: PASS ({elapsed:.1f}s)")


def test_criterion_02_low_degree_vanishing():
    t0 = time.monotonic()
    checked_pairs = 0
    for d in range(1, 6):
        for s in range(1, min(3, d) + 1):
            for n in range(d + 1, 9):
                params = KalmanParams(s, d, n)
                report = part_iii_profile(params)
                assert report.passed, (s, d, n, report.details[:3])
                # direct statement on the pairs themselves: full-height
                # outer shape keeps the homological degree |lam| minus
                # the cohomology degree at s or above
                for lam in partitions_in_box(Box(s, n - s)):
                    if len(lam) != s:
                        continue
                    for mu in partitions_in_box(Box(s, d - s)):
                        if len(mu) >= s or not lam.contains(mu):
                            continue
                        outcome, mult = bundle_cohomology(lam, mu.conjugate(), s, d)
                        if mult > 0:
                            assert lam.size - outcome.degree >= s, (s, d, n, lam, mu)
                            checked_pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 02] low-degree vanishing, s<=3 d<=5 n<=8, {checked_pairs} pairs: PASS ({elapsed:.1f}s)")


def test_criterion_03_presentation_degree_zero():
    cases = 0
    for d in range(1, 6):
        for s in range(1, d + 1):
            for n in range(d + 1, 9):
                report = f0_check(KalmanParams(s, d, n))
                assert report.passed, (s, d, n, report.details[:3])
                cases += 1
    print(f"[criterion 03] degree-zero presentation counts, s<=d<=5 n<=8, {cases} cases: PASS")


def test_criterion_04_hypersurface_determinant():
    t0 = time.monotonic()
    for d in (2, 3, 4):
        report = hypersurface_check(d, trials=100)
        assert report.passed, (d, report.details[:3])
        assert report.data["degree"] == d * (d + 1) // 2
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 04] hypersurface determinants, d in 2..4, 100 points each: PASS ({elapsed:.1f}s)")


def test_criterion_05_trace_identity():
    for d in range(1, 5):
        for i in range(1, d + 1):
            report = trace_identity_check(d, i)
            assert report.passed, (d, i, report.details)
    print("[criterion 05] exterior power trace identity, i<=d<=4: PASS")


def test_criterion_06_generator_minimality():
    t0 = time.monotonic()
    expected = {
        (2, 4): {2: 1, 3: 3},
        (2, 5): {2: 3, 3: 6},
        (3, 4): {6: 1},
        (3, 5): {4: 2, 5: 2, 6: 4},
        (2, 6): {2: 6, 3: 10},
        (3, 6): {3: 1, 4: 8, 5: 8, 6: 10},
        (4, 6): {6: 1, 7: 3, 8: 4},
        (4, 7): {5: 3, 6: 9, 7: 18},
        (5, 7): {9: 2},
    }
    depth = {(2, 4): 4, (2, 5): 4, (3, 4): 6, (3, 5): 6, (2, 6): 4, (3, 6): 6, (4, 6): 8, (4, 7): 7, (5, 7): 9}
    for modulus in (DEFAULT_MODULUS, ALTERNATE_MODULUS):
        cfg = PrimeFieldConfig(modulus=modulus)
        for (d, n), want in expected.items():
            report = minimality_report(d, n, depth[(d, n)], cfg)
            assert report.passed, (d, n, modulus, report.details)
            got = {
                e["degree"]: e["new_generators"]
                for e in report.data["per_degree"]
                if e["new_generators"]
            }
            assert got == want, (d, n, modulus, got)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 06] generator minimality, two primes, {len(expected)} cases: PASS ({elapsed:.1f}s)")


def test_criterion_07_euler_identity():
    cases = 0
    for d in range(1, 5):
        for n in range(d + 1, 13):
            report = les_euler_check(d, n)
            assert report.passed, (d, n, report.details[:3])
            cases += 1
    print(f"[criterion 07] Euler characteristic identity, d<=4 n<=12, {cases} cases: PASS")


def test_criterion_08_truncated_hilbert():
    t0 = time.monotonic()
    for modulus in (DEFAULT_MODULUS, ALTERNATE_MODULUS):
        for d, n, max_degree in [(2, 3, 6), (2, 4, 6), (2, 5, 6), (3, 5, 6), (3, 6, 6), (4, 6, 8), (4, 7, 7)]:
            report = truncated_hilbert_check(d, n, max_degree, PrimeFieldConfig(modulus=modulus))
            assert report.passed, (d, n, modulus, report.details)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 08] truncated Hilbert functions to degree 6, (4, 6) to 8, (4, 7) to 7, two primes: PASS ({elapsed:.1f}s)")


def test_criterion_09_pd_and_regularity():
    cases = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (2, 12), (3, 12), (4, 12), (5, 12)]
    for d, n in cases:
        table = chain_resolution(1, d, n)
        pd, reg = pd_and_reg(table)
        assert pd == d * (n - d) - d + 1, (d, n, pd)
        assert reg == d * (d + 1) // 2 - 1, (d, n, reg)
    print(f"[criterion 09] projective dimension and regularity, {len(cases)} cases: PASS")


def test_criterion_10_codimension_orders():
    cases = 0
    for d in range(1, 5):
        for s in range(1, min(3, d) + 1):
            for n in range(d + 1, 13):
                series = hilbert_numerator(chain_resolution(s, d, n))
                assert series.vanishing_order_at_one() == s * (n - d), (s, d, n)
                cases += 1
    print(f"[criterion 10] codimension from series vanishing order, {cases} cases: PASS")
