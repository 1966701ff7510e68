"""Graded Betti data of Kalman varieties.

Fix V of dimension n with a distinguished subspace L of dimension d.
The Kalman variety of parameter s is the closure of the endomorphisms
that admit an s-dimensional invariant subspace inside L.  Over the
polynomial ring A on End(V), three families of graded modules appear:

* normalization(s): pushforward module whose free resolution is computed
  term by term from the tautological bundle geometry (one cohomology
  computation per partition pair),
* chain(s): the submodule chain connecting consecutive normalizations,
  with chain(1) the coordinate ring of the s = 1 Kalman variety, built
  from the normalization terms that survive the mapping cones,
* twisted normalizations entering the Euler-characteristic identity.

Every resolution term is a Schur functor on L (weight eta) tensored with
a skew Schur functor on a complementary (n-d)-dimensional space, placed
at a homological degree and an internal twist.  A term keeps the pair
(lam, mu) it comes from; its skew shape lam^T / mu^T and its part (I,
II, III, or carried from a deeper chain level; `classify_part`) are
read off that pair.  One loop, `_level_terms`, builds the terms of
every table.  It reads each pair's skew dimension from a table that
one sweep per mu fills for every lam of the box
(`partitions._skew_dims_by_beta`), skips a pair whose dimension is 0,
mu not inside lam among them, and merges the weight's two rho-shifted
halves for the rest (`bott._dotted_halves`).  `_part_iii_terms` names
the part III pairs of a level once.  The public route,
`bundle_cohomology` and `skew_schur_dim` per pair, is its test oracle,
and gives the chain check its expectation below degree s
(`_low_strata`).
"""

from __future__ import annotations

from collections import Counter
from math import comb
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .bott import _dotted_halves, bundle_cohomology, rho
from .partitions import (
    Box,
    Partition,
    SkewShape,
    _beta_mask,
    _skew_dims_by_beta,
    _weyl_product,
    partitions_in_box,
    skew_schur_dim,
)
from .report import CheckFailure, CheckReport, Validated


class _KalmanParamsFields(NamedTuple):
    s: int
    d: int
    n: int


class KalmanParams(Validated, _KalmanParamsFields):
    """Parameters (s, d, n) with 1 <= s <= d < n."""

    __slots__ = ()

    def __new__(cls, s: int, d: int, n: int):
        self = tuple.__new__(cls, (s, d, n))
        if not (1 <= s <= d < n):
            raise ValueError(f"need 1 <= s <= d < n, got {self!r}")
        return self


# Candidate (lam, mu) pairs that one computation may visit, summed over
# the levels it builds.  chain(1) visits 319,771 at (d, n) = (8, 16) and
# 2,042,976 at (9, 18); at (10, 20) it would visit 13,123,111.
MAX_NORMALIZATION_PAIRS = 5_000_000


class _BettiTermFields(NamedTuple):
    hom_degree: int
    twist: int
    eta: tuple[int, ...]
    multiplicity: int
    lam: Partition
    mu: Partition


class BettiTerm(Validated, _BettiTermFields):
    """One summand of a free resolution: `multiplicity` copies of
    A(-twist) in homological degree hom_degree, carrying the GL(L)
    weight eta and the skew Schur functor lam^T / mu^T applied to the
    complement.  The pair (lam, mu) it comes from fixes its skew shape
    (`w_shape`) and, at a chain level s, its part (`classify_part`)."""

    __slots__ = ()

    def __new__(
        cls, hom_degree: int, twist: int, eta: tuple[int, ...], multiplicity: int, lam: Partition, mu: Partition
    ):
        self = tuple.__new__(cls, (hom_degree, twist, eta, multiplicity, lam, mu))
        if hom_degree < 0:
            raise ValueError(f"negative homological degree in {self!r}")
        if multiplicity <= 0:
            raise ValueError(f"non-positive multiplicity in {self!r}")
        return self

    @property
    def w_shape(self) -> SkewShape:
        """The skew shape lam^T / mu^T of the functor on the complement."""
        return SkewShape(self.lam.conjugate(), self.mu.conjugate())


class BettiTable(NamedTuple):
    """A term-level Betti table for one module."""

    module_id: str
    params: KalmanParams
    terms: list[BettiTerm]

    def column(self, hom_degree: int) -> list[BettiTerm]:
        return [t for t in self.terms if t.hom_degree == hom_degree]

    def sorted_terms(self) -> list[BettiTerm]:
        return sorted(self.terms, key=lambda t: (t.hom_degree, t.twist, t.lam, t.mu))


def normalization_pair_count(s: int, d: int, n: int) -> int:
    """Candidate (lam, mu) pairs of the normalization tables of levels
    s..d: at level k, lam ranges over the k x (n-k) box and mu over the
    k x (d-k) box, C(n, k) * C(d, k) pairs in all."""
    return sum(comb(n, k) * comb(d, k) for k in range(s, d + 1))


def chain_pair_count(s: int, d: int, n: int) -> int:
    """Candidate (lam, mu) pairs that chain_resolution(s, d, n) visits:
    C(n, s) * C(d-1, s-1) at level s, the part III pairs at k > s."""
    later = sum(_part_iii_pair_count(k, d, n) for k in range(s + 1, d + 1))
    return comb(n, s) * comb(d - 1, s - 1) + later


def _part_iii_pair_count(k: int, d: int, n: int) -> int:
    """Candidate part III pairs of level k (`_part_iii_terms`)."""
    return comb(n - 1, k) * comb(d - 1, k - 1)


def les_pair_count(d: int, n: int) -> int:
    """Candidate (lam, mu) pairs of one Euler check at (d, n): the full
    normalization tables of levels 1..d plus chain_resolution(1, d, n)."""
    return normalization_pair_count(1, d, n) + chain_pair_count(1, d, n)


def check_pair_count(pairs: int, what: str) -> None:
    """Refuse, before any table is built, a computation whose candidate
    pairs exceed MAX_NORMALIZATION_PAIRS."""
    if pairs > MAX_NORMALIZATION_PAIRS:
        raise ValueError(
            f"{what} has {pairs} candidate (lam, mu) pairs, more than the limit of "
            f"{MAX_NORMALIZATION_PAIRS} (MAX_NORMALIZATION_PAIRS)"
        )


def _level_terms(
    k: int, d: int, n: int, lams: Iterable[Partition], mus: Iterable[Partition],
    shift: tuple[int, int] = (0, 0),
) -> list[BettiTerm]:
    """The level-k normalization terms of the pairs (lam, mu), lam from
    `lams` and mu from `mus`, lam-major, zero multiplicities dropped,
    with `shift` added to each (hom degree, twist).

    This is the one loop over the pairs, and it works on the shapes it
    holds.  The bundle weight is the W-half (the negated reverse of
    mu^T, zero-padded in front to d - k) followed by lam padded to k;
    shifted by rho(d), each half is strictly decreasing and depends on
    one shape only.  Per mu: its conjugate, its shifted half `upper` and
    the skew dimensions s_{lam^T/mu^T}(1^(n-d)) of every lam of the
    k x (n - k) box, keyed by beta-set (`partitions._skew_dims_by_beta`).
    Per lam: its padded parts, its beta-set and its shifted half
    `lower`.  Per pair: one look-up in mu's table, the only pair filter
    (0 or no entry where mu is not inside lam); then, for a nonzero
    dimension, the dotted action by merging the two halves
    (`bott._dotted_halves`) and the cached Weyl product of the dominant
    weight.  Every mu's table is held while the lams are visited, so
    that the pairs stay lam-major.
    """
    hom_shift, twist_shift = shift
    r = rho(d)
    r_upper, r_lower = r[:d - k], r[d - k:]
    mu_data = []
    for mu in mus:
        mu_t = mu.conjugate()
        w_half = (0,) * (d - k - len(mu_t)) + tuple(-a for a in reversed(mu_t))
        upper = tuple(map(add, w_half, r_upper))
        mu_data.append((mu, upper, _skew_dims_by_beta(mu.padded(k), n, n - d)))
    terms = []
    for lam in lams:
        lam_pad = lam.padded(k)
        key, lower = _beta_mask(lam_pad), tuple(map(add, lam_pad, r_lower))
        hom_base, twist = lam.size + hom_shift, lam.size + twist_shift
        for mu, upper, skew_dims in mu_data:
            skew = skew_dims.get(key)
            if not skew:
                continue
            out = _dotted_halves(upper, lower)
            if out is not None:
                degree, eta = out
                mult = _weyl_product(eta, d) * skew
                terms.append(BettiTerm(hom_base - degree, twist, eta, mult, lam, mu))
    return terms


def resolution_normalization(params: KalmanParams) -> BettiTable:
    """Term-level resolution of normalization(s) over A.

    Enumerates partition pairs mu inside lam with lam in the s x (n-s)
    box and mu in the s x (d-s) box, lam-major; each pair contributes
    through the dotted action on the weight of its bundle on the
    Grassmannian of s-planes in L, tensored with the skew Schur functor
    lam^T / mu^T of the complement (`_level_terms`).  The
    public route, `bott.bundle_cohomology` and `skew_schur_dim` per
    pair, is its test oracle.  More than MAX_NORMALIZATION_PAIRS
    candidate pairs raise ValueError.
    """
    s, d, n = params.s, params.d, params.n
    check_pair_count(comb(n, s) * comb(d, s), f"normalization level {s} at (d, n) = ({d}, {n})")
    lams, mus = partitions_in_box(Box(s, n - s)), partitions_in_box(Box(s, d - s))
    return BettiTable("normalization", params, _level_terms(s, d, n, lams, mus))


def _part_iii_terms(k: int, d: int, n: int, shift: tuple[int, int] = (0, 0)) -> list[BettiTerm]:
    """The level-k terms of the part III pairs, moved by `shift`
    (`_level_terms`): lam of full length k in the k x (n-k) box, mu in
    the (k-1) x (d-k) box, so shorter than k."""
    lams = [lam for lam in partitions_in_box(Box(k, n - k)) if len(lam) == k]
    return _level_terms(k, d, n, lams, partitions_in_box(Box(k - 1, d - k)), shift)


def classify_part(lam: Partition, mu: Partition, s: int) -> str:
    """The part of the pair (lam, mu) in a table at level s: "carried"
    if lam is longer than s (a term of a deeper level carried into the
    chain); otherwise "I" if mu has full length s, "II" if lam is
    shorter than s, and "III" if lam has full length s and mu does not."""
    if len(lam) > s:
        return "carried"
    if len(mu) == s:
        return "I"
    if len(lam) < s:
        return "II"
    return "III"


def _bottom_stratum(
    k: int, d: int, n: int
) -> Iterator[tuple[Partition, Partition, SkewShape, int]]:
    """(mu, lam, shape, mult) for each mu in the (k-1) x (d-k) box, with
    lam = (d-k+1, mu_1+1, ..., mu_{k-1}+1), shape = lam^T / mu^T and mult
    the dimension of its skew Schur functor on W; zero multiplicities
    included."""
    for mu in partitions_in_box(Box(k - 1, d - k)):
        lam = Partition((d - k + 1,) + tuple(a + 1 for a in mu.padded(k - 1)))
        shape = SkewShape(lam.conjugate(), mu.conjugate())
        yield mu, lam, shape, skew_schur_dim(shape, n - d)


def _stratum_key(t: BettiTerm) -> tuple:
    """What the closed forms pin down about a term: twist, L-weight, skew
    shape and multiplicity."""
    return (
        t.twist,
        t.eta,
        tuple(t.w_shape.outer),
        tuple(t.w_shape.inner),
        t.multiplicity,
    )


def _closed_form_strata(k: int, d: int, n: int, twist_offset: int = 0) -> list[tuple]:
    """Stratum keys of the bottom stratum of part III at level k, twist
    raised by twist_offset: one per nonzero multiplicity, with full
    antisymmetrizer weight on L and the skew functor lam^T / mu^T."""
    return [
        (lam.size + twist_offset, (1,) * d, tuple(shape.outer), tuple(shape.inner), mult)
        for mu, lam, shape, mult in _bottom_stratum(k, d, n)
        if mult
    ]


def part_iii_profile(params: KalmanParams) -> CheckReport:
    """The structural check of the part III terms of a normalization
    table: nothing below hom degree s, and the hom = s stratum matches
    the closed form.  Only the part III pairs are visited
    (`_part_iii_terms`)."""
    s, d, n = params.s, params.d, params.n
    check_pair_count(_part_iii_pair_count(s, d, n), f"part III of level {s} at (d, n) = ({d}, {n})")
    iii = _part_iii_terms(s, d, n)
    details: list[dict] = []
    low = [t for t in iii if t.hom_degree < s]
    for t in low:
        details.append(
            {
                "kind": "term_below_minimum_degree",
                "hom_degree": t.hom_degree,
                "lambda": list(t.lam),
                "mu": list(t.mu),
            }
        )
    got = sorted(_stratum_key(t) for t in iii if t.hom_degree == s)
    want = sorted(_closed_form_strata(s, d, n))
    if got != want:
        details.append(
            {
                "kind": "bottom_stratum_mismatch",
                "got": [list(map(repr, g)) for g in got],
                "want": [list(map(repr, w)) for w in want],
            }
        )
    return CheckReport(
        check="part-iii-profile",
        params={"s": s, "d": d, "n": n},
        details=details,
        data={"terms": len(iii)},
    )


def chain_closed_form_check(chain: BettiTable) -> CheckReport:
    """Compare the low homological degrees of a chain(s) table against
    the stratum keys `_low_strata` computes for its parameters, apart
    from the loop that built it."""
    s, d, n = chain.params.s, chain.params.d, chain.params.n
    details: list[dict] = []
    for i, want in _low_strata(s, d, n).items():
        got = sorted(_stratum_key(t) for t in chain.terms if t.hom_degree == i)
        if got != want:
            details.append(
                {
                    "kind": "stratum_mismatch",
                    "hom_degree": i,
                    "got": [repr(g) for g in got],
                    "want": [repr(w) for w in want],
                }
            )
    return CheckReport(
        check="chain-closed-form",
        params={"s": s, "d": d, "n": n},
        details=details,
    )


def _low_strata(s: int, d: int, n: int) -> dict[int, list[tuple]]:
    """The sorted stratum keys chain(s) must hold in each hom degree
    0..s.  Below degree s, the part II terms of level s (lam shorter
    than s) by the public route: `bundle_cohomology` and
    `skew_schur_dim` on each pair mu inside lam, both shorter than s; at
    s = 1 that is the one pair of empty shapes.  At degree s, those plus
    the bottom strata of every level k = s..d, whose terms land k - s
    hom degrees lower, with twist raised by (s+k-1)(k-s)/2."""
    strata: dict[int, list[tuple]] = {i: [] for i in range(s + 1)}
    # a Bott degree is at most s(d-s), the dimension of the Grassmannian,
    # so a lam larger than s + s(d-s) has nothing in hom degree <= s
    lams = [lam for lam in partitions_in_box(Box(s - 1, n - s)) if lam.size <= s * (d - s + 1)]
    mus = partitions_in_box(Box(s - 1, d - s))
    for lam in lams:
        for mu in mus:
            if not lam.contains(mu):
                continue
            out, gl_mult = bundle_cohomology(lam, mu.conjugate(), s, d)
            if out.vanishes or lam.size - out.degree > s:
                continue
            shape = SkewShape(lam.conjugate(), mu.conjugate())
            mult = gl_mult * skew_schur_dim(shape, n - d)
            if mult:
                key = (lam.size, out.eta, tuple(shape.outer), tuple(shape.inner), mult)
                strata[lam.size - out.degree].append(key)
    for k in range(s, d + 1):
        strata[s] += _closed_form_strata(k, d, n, (s + k - 1) * (k - s) // 2)
    for keys in strata.values():
        keys.sort()
    return strata


def chain_resolution(s: int, d: int, n: int) -> BettiTable:
    """Term-level resolution of chain(s), built only from the terms that
    survive its mapping cones.

    chain(d) is the level-d normalization table (a Koszul complex); for
    s < d, chain(s) is level s without part I plus chain(s+1) without
    part II, one hom degree lower and s twists higher, since the
    connecting map identifies part I at level s with part II at level
    s+1.  Unrolled: level s with mu in the (s-1) x (d-s) box, and the
    part III pairs of each level k > s (`_part_iii_terms`), moved by
    (-(k-s), (s+k-1)(k-s)/2).  A term's part follows from
    its pair: `classify_part(t.lam, t.mu, s)` reads "II" or "III" at
    level s and "carried" at every deeper level, whose lam is longer
    than s.  Over MAX_NORMALIZATION_PAIRS such pairs raise ValueError
    up front.  The low strata are checked (CheckFailure on a mismatch)
    by `chain_closed_form_check`, which takes its expectation from the
    chain's parameters alone: the closed forms and the low part II
    terms of level s, by the public route; a level-k term in hom degree
    h lands in h - (k-s), so that one check covers every level.
    """
    params = KalmanParams(s, d, n)
    check_pair_count(
        chain_pair_count(s, d, n), f"normalization levels {s}..{d} at (d, n) = ({d}, {n})"
    )
    lams, mus = partitions_in_box(Box(s, n - s)), partitions_in_box(Box(s - 1, d - s))
    terms = _level_terms(s, d, n, lams, mus)
    for k in range(s + 1, d + 1):
        terms += _part_iii_terms(k, d, n, (s - k, (s + k - 1) * (k - s) // 2))
    chain = BettiTable("chain", params, terms)
    report = chain_closed_form_check(chain)
    if not report.passed:
        raise CheckFailure(report)
    return chain


class GeneratorRecord(NamedTuple):
    """One predicted family of minimal generators of the s = 1 Kalman
    ideal: `multiplicity` independent forms of the given degree, indexed
    by the pair (lam, mu) at chain level s, realized as linear
    combinations of minors picking row_composition[r] rows from block r."""

    s: int
    mu: Partition
    lam: Partition
    degree: int
    multiplicity: int
    row_composition: tuple[int, ...]


def minimal_generators(d: int, n: int) -> list[GeneratorRecord]:
    """All predicted minimal generator families for parameters (d, n).

    Records with multiplicity 0 are kept (flagged by the zero) so the
    enumeration is visibly complete; callers filter on multiplicity.
    """
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    out: list[GeneratorRecord] = []
    for s in range(1, d + 1):
        for mu, lam, _, mult in _bottom_stratum(s, d, n):
            comp = tuple(
                lam.part(r) - mu.part(r) if r < s else 0 for r in range(d)
            )
            assert sum(comp) == d
            out.append(
                GeneratorRecord(
                    s=s,
                    mu=mu,
                    lam=lam,
                    degree=lam.size + s * (s - 1) // 2,
                    multiplicity=mult,
                    row_composition=comp,
                )
            )
    return out


class HilbertSeries(NamedTuple):
    """Rational Hilbert series: integer numerator over (1-t)^denom_power.
    The numerator is stored sparsely as (exponent, coefficient) pairs,
    sorted by exponent, with no zero coefficient."""

    numerator: tuple[tuple[int, int], ...]
    denom_power: int

    @staticmethod
    def of(coeffs: dict[int, int] | Iterable[tuple[int, int]], denom_power: int) -> "HilbertSeries":
        acc: dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for k, c in items:
            acc[k] = acc.get(k, 0) + c
        clean = tuple(sorted((k, c) for k, c in acc.items() if c != 0))
        return HilbertSeries(clean, denom_power)

    def expand(self, max_degree: int) -> list[int]:
        """Power series coefficients of numerator / (1-t)^denom_power up
        to max_degree inclusive."""
        v = self.denom_power
        out = []
        for e in range(max_degree + 1):
            out.append(
                sum(c * comb(v - 1 + e - k, e - k) for k, c in self.numerator if k <= e)
            )
        return out

    def vanishing_order_at_one(self) -> int:
        """Largest power of (1 - t) dividing the numerator: the least j
        whose Taylor coefficient at t = 1, the sum of c_e * C(e - low, j)
        with low the lowest exponent (0 for every table), is not zero.
        At j = top - low that sum is the top coefficient, so the search
        ends there."""
        if not self.numerator:
            raise ValueError("zero numerator has no finite vanishing order")
        low, top = self.numerator[0][0], self.numerator[-1][0]
        return next(
            j for j in range(top - low + 1)
            if sum(c * comb(e - low, j) for e, c in self.numerator)
        )

    def numerator_string(self) -> str:
        if not self.numerator:
            return "0"
        bits = []
        for e, c in self.numerator:
            mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if e == 0:
                text = str(c)
            elif abs(c) == 1:
                text = mono if c > 0 else f"-{mono}"
            else:
                text = f"{c}*{mono}"
            bits.append(text)
        out = bits[0]
        for text in bits[1:]:
            out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        return out


def hilbert_numerator(table: BettiTable) -> HilbertSeries:
    """Alternating sum of twists over the table, over (1-t)^(n^2)."""
    coeffs: dict[int, int] = {}
    for t in table.terms:
        sign = -1 if t.hom_degree % 2 else 1
        coeffs[t.twist] = coeffs.get(t.twist, 0) + sign * t.multiplicity
    return HilbertSeries.of(coeffs, table.params.n ** 2)


def _cancelled(table: BettiTable, part: str, s: int, shift: int) -> Counter:
    """(hom, twist - shift*s, eta, mult, lam - shift^s, mu - shift^s) of
    the terms of `table` in `part`, lam and mu padded to length s."""
    return Counter(
        (t.hom_degree, t.twist - shift * s, t.eta, t.multiplicity)
        + tuple(tuple(a - shift for a in p.padded(s)) for p in (t.lam, t.mu))
        for t in table.terms
        if classify_part(t.lam, t.mu, table.params.s) == part
    )


def les_euler_check(d: int, n: int) -> CheckReport:
    """Two routes to the chain(1) numerator.  The alternating sum of the
    twisted numerators of the full normalization tables of levels 1..d
    must equal that of chain_resolution(1, d, n), which builds only the
    surviving terms: the Euler characteristic of the long exact sequence
    relating the modules.  On the same tables, part I of each level
    s < d, shifted by (lam, mu) -> (lam - 1^s, mu - 1^s) and twist - s,
    must equal part II of level s+1: the summands the chain cancels.
    The pairs of both routes together are held to MAX_NORMALIZATION_PAIRS."""
    check_pair_count(les_pair_count(d, n), f"the Euler check at (d, n) = ({d}, {n})")
    levels = [resolution_normalization(KalmanParams(s, d, n)) for s in range(1, d + 1)]
    total = HilbertSeries.of(
        [
            (e + s * (s - 1) // 2, (-1) ** (s - 1) * c)
            for s, table in enumerate(levels, 1)
            for e, c in hilbert_numerator(table).numerator
        ],
        n * n,
    )
    chain1 = hilbert_numerator(chain_resolution(1, d, n))
    details = []
    if total != chain1:
        details.append(
            {
                "kind": "euler_mismatch",
                "alternating_sum": total.numerator_string(),
                "chain_numerator": chain1.numerator_string(),
            }
        )
    for s, (lower, upper) in enumerate(zip(levels, levels[1:]), 1):
        part_i, part_ii = _cancelled(lower, "I", s, 1), _cancelled(upper, "II", s, 0)
        if part_i != part_ii:
            details.append(
                {
                    "kind": "cancellation_mismatch",
                    "level": s,
                    "only_part_i": sorted(map(repr, (part_i - part_ii).elements())),
                    "only_part_ii": sorted(map(repr, (part_ii - part_i).elements())),
                }
            )
    return CheckReport(
        check="les-euler",
        params={"d": d, "n": n},
        details=details,
        data={
            "alternating_sum": total.numerator_string(),
            "chain_numerator": chain1.numerator_string(),
        },
    )


def pd_and_reg(table: BettiTable) -> tuple[int, int]:
    """Projective dimension and Castelnuovo-Mumford regularity read off
    a term-level table: max hom degree, and max twist minus hom degree."""
    if not table.terms:
        raise ValueError("empty table")
    pd = max(t.hom_degree for t in table.terms)
    reg = max(t.twist - t.hom_degree for t in table.terms)
    return pd, reg


def f0_check(params: KalmanParams) -> CheckReport:
    """The generator column (hom degree 0) of a normalization table must
    be exactly one rank per mu in the s x (d-s) box, in twist |mu|,
    landing in part I when mu has full length s and part II otherwise,
    with no part III contribution."""
    s, d = params.s, params.d
    col = resolution_normalization(params).column(0)
    details: list[dict] = []
    got: dict[tuple[str, int], int] = {}
    for t in col:
        if t.multiplicity != 1 or t.lam != t.mu or t.eta != (0,) * d:
            details.append({"kind": "unexpected_f0_term", "term": repr(t)})
            continue
        key = (classify_part(t.lam, t.mu, s), t.twist)
        got[key] = got.get(key, 0) + 1
    want: dict[tuple[str, int], int] = {}
    for mu in partitions_in_box(Box(s, d - s)):
        key = (classify_part(mu, mu, s), mu.size)
        want[key] = want.get(key, 0) + 1
    if got != want:
        details.append({"kind": "f0_count_mismatch", "got": repr(sorted(got.items())), "want": repr(sorted(want.items()))})
    return CheckReport(
        check="f0-counts",
        params={"s": s, "d": d, "n": params.n},
        details=details,
        data={"ranks_by_part_twist": {f"{p}:{tw}": c for (p, tw), c in sorted(got.items())}},
    )
