"""Graded Betti data of Kalman varieties.

Fix V of dimension n with a distinguished subspace L of dimension d.
The Kalman variety of parameter s is the closure of the endomorphisms
that admit an s-dimensional invariant subspace inside L.  Over the
polynomial ring A on End(V), three families of graded modules appear:

* normalization(s): pushforward module whose free resolution is computed
  term by term from the tautological bundle geometry (one cohomology
  computation per partition pair),
* chain(s): the submodule chain connecting consecutive normalizations,
  with chain(1) the coordinate ring of the s = 1 Kalman variety,
* twisted normalizations entering the Euler-characteristic identity.

Every resolution term is a Schur functor on L (weight eta) tensored with
a skew Schur functor on a complementary (n-d)-dimensional space, placed
at a homological degree and an internal twist.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb
from operator import lt
from typing import Iterable, Iterator

from .bott import dotted_bott
from .partitions import (
    Box,
    Partition,
    SkewShape,
    _e_row,
    _h_row,
    _jacobi_trudi,
    _weyl_product,
    partitions_in_box,
    skew_schur_dim,
)
from .report import CheckFailure, CheckReport


@dataclass(frozen=True)
class KalmanParams:
    """Parameters (s, d, n) with 1 <= s <= d < n."""

    s: int
    d: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.s <= self.d < self.n):
            raise ValueError(f"need 1 <= s <= d < n, got {self!r}")

    @property
    def w_dim(self) -> int:
        return self.n - self.d


# Candidate (lam, mu) pairs that one resolution may visit, summed over
# the levels it builds.  (1, 8, 16) has 735,470 and (1, 9, 18) 4,686,824;
# (1, 10, 20) has 30,045,014 and would run for hours.
MAX_NORMALIZATION_PAIRS = 5_000_000


# part tags: "I" full-length mu, "II" short lam, "III" full-length lam
# with short mu, "carried" for terms inherited from a deeper chain level
PART_TAGS = ("I", "II", "III", "carried")


@dataclass(frozen=True)
class BettiTerm:
    """One summand of a free resolution: `multiplicity` copies of
    A(-twist) in homological degree hom_degree, carrying the GL(L)
    weight eta and the skew shape applied to the complement."""

    hom_degree: int
    twist: int
    eta: tuple[int, ...]
    w_shape: SkewShape
    multiplicity: int
    part: str | None
    source: tuple[Partition, Partition]

    def __post_init__(self) -> None:
        if self.hom_degree < 0:
            raise ValueError(f"negative homological degree in {self!r}")
        if self.multiplicity <= 0:
            raise ValueError(f"non-positive multiplicity in {self!r}")
        if self.part is not None and self.part not in PART_TAGS:
            raise ValueError(f"unknown part tag {self.part!r}")


def _term_key(t: BettiTerm):
    return (t.hom_degree, t.twist, tuple(t.source[0]), tuple(t.source[1]), t.part or "")


@dataclass
class BettiTable:
    """A term-level Betti table for one module."""

    module_id: str
    params: KalmanParams
    terms: list[BettiTerm] = field(default_factory=list)

    def betti_numbers(self) -> dict[tuple[int, int], int]:
        """Aggregate multiplicities by (hom_degree, twist)."""
        out: dict[tuple[int, int], int] = {}
        for t in self.terms:
            key = (t.hom_degree, t.twist)
            out[key] = out.get(key, 0) + t.multiplicity
        return dict(sorted(out.items()))

    def column(self, hom_degree: int) -> list[BettiTerm]:
        return [t for t in self.terms if t.hom_degree == hom_degree]

    def sorted_terms(self) -> list[BettiTerm]:
        return sorted(self.terms, key=_term_key)

    def to_dict(self) -> dict:
        p = self.params
        return {
            "module_id": self.module_id,
            "d": p.d,
            "n": p.n,
            "s": p.s,
            "entries": [
                {
                    "i": t.hom_degree,
                    "twist": t.twist,
                    "mult": t.multiplicity,
                    "part": t.part,
                    "lambda": list(t.source[0]),
                    "mu": list(t.source[1]),
                    "eta": list(t.eta),
                    "skew": {
                        "outer": list(t.w_shape.outer),
                        "inner": list(t.w_shape.inner),
                    },
                }
                for t in self.sorted_terms()
            ],
        }


def normalization_pair_count(s: int, d: int, n: int) -> int:
    """Candidate (lam, mu) pairs of the normalization tables of levels
    s..d: at level k, lam ranges over the k x (n-k) box and mu over the
    k x (d-k) box, C(n, k) * C(d, k) pairs before the containment test."""
    return sum(comb(n, k) * comb(d, k) for k in range(s, d + 1))


def check_pair_count(pairs: int, what: str) -> None:
    """Refuse, before any table is built, a computation whose candidate
    pairs exceed MAX_NORMALIZATION_PAIRS."""
    if pairs > MAX_NORMALIZATION_PAIRS:
        raise ValueError(
            f"{what} has {pairs} candidate (lam, mu) pairs, more than the limit of "
            f"{MAX_NORMALIZATION_PAIRS} (MAX_NORMALIZATION_PAIRS)"
        )


def resolution_normalization(params: KalmanParams) -> BettiTable:
    """Term-level resolution of normalization(s) over A.

    Enumerates partition pairs mu inside lam with lam in the s x (n-s)
    box and mu in the s x (d-s) box, lam-major; each pair contributes
    through the dotted action on the weight of its bundle on the
    Grassmannian of s-planes in L, tensored with the skew Schur functor
    lam^T / mu^T of the complement.  Terms with zero multiplicity are
    dropped.  The public route, `bott.bundle_cohomology` and
    `skew_schur_dim` per pair, is this loop's test oracle.

    This is the one loop over the pairs, and it works on the shapes it
    holds.  Per mu: its conjugate, its parts padded to s and the W-half
    of the bundle weight (the negated reverse of mu^T, zero-padded in
    front to d - s).  Per lam: its conjugate, its padded parts and which
    Jacobi-Trudi form is smaller.  Per pair: containment on the padded
    parts, one `dotted_bott` on the W-half followed by lam's padded
    parts, one determinant on (lam^T, mu^T) with the h-row or on
    (lam, mu) with the e-row (both rows built once per call, since
    m = n - d is fixed), and the cached Weyl product of the dominant
    weight, which `dotted_bott` returns sorted and of length d.  More
    than MAX_NORMALIZATION_PAIRS candidate pairs raise ValueError.
    """
    s, d, n = params.s, params.d, params.n
    check_pair_count(comb(n, s) * comb(d, s), f"normalization level {s} at (d, n) = ({d}, {n})")
    h_row, e_row = _h_row(params.w_dim, n), _e_row(params.w_dim, n)
    mus = []
    for mu in partitions_in_box(Box(s, d - s)):
        mu_t = mu.conjugate()
        w_half = (0,) * (d - s - len(mu_t)) + tuple(-a for a in reversed(mu_t))
        mus.append((mu, mu_t, mu.padded(s), w_half))
    terms = []
    for lam in partitions_in_box(Box(s, n - s)):
        lam_t, lam_pad, size = lam.conjugate(), lam.padded(s), lam.size
        dual = len(lam_t) > len(lam)  # the e-form on (lam, mu) has fewer rows
        for mu, mu_t, mu_pad, w_half in mus:
            if any(map(lt, lam_pad, mu_pad)):
                continue
            out = dotted_bott(w_half + lam_pad)
            if out.vanishes:
                continue
            if dual:
                skew = _jacobi_trudi(lam, mu, e_row)
            else:
                skew = _jacobi_trudi(lam_t, mu_t, h_row)
            if skew:
                mult = _weyl_product(out.eta, d) * skew
                shape, hom_degree = SkewShape(lam_t, mu_t), size - out.degree
                terms.append(BettiTerm(hom_degree, size, out.eta, shape, mult, None, (lam, mu)))
    return BettiTable("normalization", params, terms)


def classify_part(lam: Partition, mu: Partition, s: int) -> str:
    """Split rule: mu of full length s is part I; otherwise lam of
    length below s is part II and lam of full length s is part III."""
    if mu.length == s:
        return "I"
    if lam.length <= s - 1:
        return "II"
    return "III"


def split_parts(table: BettiTable) -> BettiTable:
    """Tag every term of a normalization table with its part."""
    s = table.params.s
    tagged = [
        BettiTerm(
            t.hom_degree,
            t.twist,
            t.eta,
            t.w_shape,
            t.multiplicity,
            classify_part(t.source[0], t.source[1], s),
            t.source,
        )
        for t in table.terms
    ]
    return BettiTable(table.module_id, table.params, tagged)


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


def _closed_form_generator_terms(k: int, d: int, n: int) -> list[BettiTerm]:
    """The bottom stratum of part III at level k: one term per nonzero
    multiplicity, with full antisymmetrizer weight on L and the skew
    functor lam^T / mu^T."""
    return [
        BettiTerm(
            hom_degree=k,
            twist=lam.size,
            eta=(1,) * d,
            w_shape=shape,
            multiplicity=mult,
            part="III",
            source=(lam, mu),
        )
        for mu, lam, shape, mult in _bottom_stratum(k, d, n)
        if mult
    ]


def _stratum_key(t: BettiTerm, twist_offset: int = 0) -> tuple:
    """What the closed forms pin down about a term: twist, L-weight, skew
    shape and multiplicity."""
    return (
        t.twist + twist_offset,
        t.eta,
        tuple(t.w_shape.outer),
        tuple(t.w_shape.inner),
        t.multiplicity,
    )


@dataclass
class PartIIIProfile:
    """Part III terms of a normalization table plus the structural check:
    nothing below hom degree s, and the hom = s stratum matches the
    closed form."""

    terms: list[BettiTerm]
    report: CheckReport


def part_iii_profile(params: KalmanParams) -> PartIIIProfile:
    table = split_parts(resolution_normalization(params))
    s, d, n = params.s, params.d, params.n
    iii = [t for t in table.terms if t.part == "III"]
    details: list[dict] = []
    low = [t for t in iii if t.hom_degree < s]
    for t in low:
        details.append(
            {
                "kind": "term_below_minimum_degree",
                "hom_degree": t.hom_degree,
                "lambda": list(t.source[0]),
                "mu": list(t.source[1]),
            }
        )
    got = sorted(_stratum_key(t) for t in iii if t.hom_degree == s)
    want = sorted(_stratum_key(t) for t in _closed_form_generator_terms(s, d, n))
    if got != want:
        details.append(
            {
                "kind": "bottom_stratum_mismatch",
                "got": [list(map(repr, g)) for g in got],
                "want": [list(map(repr, w)) for w in want],
            }
        )
    report = CheckReport(
        check="part-iii-profile",
        params={"s": s, "d": d, "n": n},
        passed=not details,
        details=details,
        data={"terms": len(iii)},
    )
    return PartIIIProfile(iii, report)


def _expected_low_strata(level: BettiTable) -> dict[int, list[tuple]]:
    """Closed forms for chain(s) in homological degrees <= s, read off
    the level-s normalization table: its part II terms (lam shorter
    than s), plus, exactly at degree s, the bottom strata inherited from
    every level k = s..d with twist raised by (s+k-1)(k-s)/2."""
    s, d, n = level.params.s, level.params.d, level.params.n
    buckets: dict[int, list[tuple]] = {i: [] for i in range(s + 1)}
    for t in level.terms:
        if len(t.source[0]) < s and t.hom_degree <= s:
            buckets[t.hom_degree].append(_stratum_key(t))
    for k in range(s, d + 1):
        offset = (s + k - 1) * (k - s) // 2
        for t in _closed_form_generator_terms(k, d, n):
            buckets[s].append(_stratum_key(t, offset))
    return {i: sorted(v) for i, v in buckets.items()}


def chain_closed_form_check(chain: BettiTable, level: BettiTable) -> CheckReport:
    """Compare the low homological degrees of a chain(s) table against
    the closed forms read from `level`, the level-s normalization table
    it was built from.  Degrees below s must be pure part II data;
    degree s adds one inherited bottom stratum per deeper level."""
    params = chain.params
    if level.params != params:
        raise ValueError(f"level table has {level.params!r}, chain has {params!r}")
    s = params.s
    expected = _expected_low_strata(level)
    details: list[dict] = []
    for i in range(s + 1):
        got = sorted(_stratum_key(t) for t in chain.terms if t.hom_degree == i)
        if got != expected[i]:
            details.append(
                {
                    "kind": "stratum_mismatch",
                    "hom_degree": i,
                    "got": [repr(g) for g in got],
                    "want": [repr(w) for w in expected[i]],
                }
            )
    return CheckReport(
        check="chain-closed-form",
        params={"s": s, "d": params.d, "n": params.n},
        passed=not details,
        details=details,
    )


def chain_resolution(s: int, d: int, n: int) -> BettiTable:
    """Term-level resolution of chain(s) by downward induction on s.

    Base case s = d: the level-d normalization table (a Koszul complex).
    For s < d: keep the level-s normalization terms outside part I, and
    inherit the chain(s+1) terms outside part II with homological degree
    lowered by one and twist raised by s.  The removed summands are the
    two sides of the identification between part I at level s and part
    II at level s+1; dropping both implements the connecting map of the
    short exact sequence linking the three modules.

    Every level k = d, ..., s is compared against the closed forms for
    homological degrees <= k, read from the level-k normalization table
    it was built from; a mismatch raises CheckFailure.
    """
    return _chain_from_normalizations(_normalization_levels(s, d, n))


def _normalization_levels(s: int, d: int, n: int) -> list[BettiTable]:
    """The normalization tables of levels s, s+1, ..., d; their summed
    candidate pairs are checked against MAX_NORMALIZATION_PAIRS first."""
    params = KalmanParams(s, d, n)
    check_pair_count(
        normalization_pair_count(s, d, n), f"normalization levels {s}..{d} at (d, n) = ({d}, {n})"
    )
    return [resolution_normalization(replace(params, s=k)) for k in range(s, d + 1)]


def _chain_from_normalizations(levels: list[BettiTable]) -> BettiTable:
    """chain(s) from the normalization tables of levels s..d, built from
    level d down as chain_resolution describes, checking every level."""
    chain = None
    for table in reversed(levels):
        s = table.params.s
        terms = [t for t in split_parts(table).terms if t.part != "I"]
        if chain is not None:
            terms += [
                BettiTerm(
                    t.hom_degree - 1,
                    t.twist + s,
                    t.eta,
                    t.w_shape,
                    t.multiplicity,
                    "carried",
                    t.source,
                )
                for t in chain.terms
                if t.part != "II"
            ]
        chain = BettiTable("chain", table.params, terms)
        report = chain_closed_form_check(chain, table)
        if not report.passed:
            raise CheckFailure(report)
    return chain


@dataclass(frozen=True)
class GeneratorRecord:
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


@dataclass(frozen=True)
class HilbertSeries:
    """Rational Hilbert series: integer numerator over (1-t)^denom_power.
    The numerator is stored sparsely as {exponent: coefficient}."""

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

    def coeff_dict(self) -> dict[int, int]:
        return dict(self.numerator)

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
        """Largest power of (1 - t) dividing the numerator."""
        coeffs = self.coeff_dict()
        if not coeffs:
            raise ValueError("zero numerator has no finite vanishing order")
        order = 0
        while sum(coeffs.values()) == 0:
            # divide by (1 - t): quotient coefficients are partial sums
            top = max(coeffs)
            run = 0
            quo: dict[int, int] = {}
            for e in range(top + 1):
                run += coeffs.get(e, 0)
                if run:
                    quo[e] = run
            coeffs = quo
            order += 1
            if not coeffs:
                raise ValueError("zero numerator has no finite vanishing order")
        return order

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


def les_euler_check(d: int, n: int) -> CheckReport:
    """Alternating sum of the twisted normalization numerators must equal
    the chain(1) numerator: the Euler characteristic of the long exact
    sequence relating the modules."""
    levels = _normalization_levels(1, d, n)
    total = HilbertSeries.of(
        [
            (e + s * (s - 1) // 2, (-1) ** (s - 1) * c)
            for table in levels
            for s in [table.params.s]
            for e, c in hilbert_numerator(table).numerator
        ],
        n * n,
    )
    chain1 = hilbert_numerator(_chain_from_normalizations(levels))
    passed = total == chain1
    details = []
    if not passed:
        details.append(
            {
                "kind": "euler_mismatch",
                "alternating_sum": total.numerator_string(),
                "chain_numerator": chain1.numerator_string(),
            }
        )
    return CheckReport(
        check="les-euler",
        params={"d": d, "n": n},
        passed=passed,
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
    table = split_parts(resolution_normalization(params))
    col = table.column(0)
    details: list[dict] = []
    got: dict[tuple[str, int], int] = {}
    for t in col:
        if t.multiplicity != 1 or t.source[0] != t.source[1] or t.eta != (0,) * d:
            details.append({"kind": "unexpected_f0_term", "term": repr(t)})
            continue
        key = (t.part, t.twist)
        got[key] = got.get(key, 0) + 1
    want: dict[tuple[str, int], int] = {}
    for mu in partitions_in_box(Box(s, d - s)):
        part = "I" if mu.length == s else "II"
        key = (part, mu.size)
        want[key] = want.get(key, 0) + 1
    if got != want:
        details.append({"kind": "f0_count_mismatch", "got": repr(sorted(got.items())), "want": repr(sorted(want.items()))})
    return CheckReport(
        check="f0-counts",
        params={"s": s, "d": d, "n": params.n},
        passed=not details,
        details=details,
        data={"ranks_by_part_twist": {f"{p}:{tw}": c for (p, tw), c in sorted(got.items())}},
    )
