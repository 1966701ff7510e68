"""Numerical verification over prime fields: random points on the
variety, graded linear algebra on spans of generator multiples, and the
checks that compare those measurements against the resolution
predictions.

The graded checks build only the maximal minors of degree at most the
degree they reach, and price their work from the row degrees before
any minor is built (MAX_GRADED_WORK).  The stacked matrix evaluated by
numbers (`stacked_matrix_mod_p`, `det_mod_p`) proves the other minors
nonzero mod p, so `generator_count` still counts them all.

All randomness flows through an explicitly seeded generator and every
check is deterministic given its configuration.
"""

from __future__ import annotations

import itertools
import operator
import random
from math import comb, factorial
from typing import NamedTuple, Sequence

from .polysym import (
    SparsePoly,
    all_top_minors,
    check_degree,
    determinant,
    evaluate_many,
    is_prime,
    reduced_kalman_matrix,
    top_minors,
)
from .report import CheckReport, Validated
from .resolution import (
    KalmanParams,
    chain_resolution,
    hilbert_numerator,
    minimal_generators,
)

DEFAULT_MODULUS = 32003
DEFAULT_SEED = 2026
ALTERNATE_MODULUS = 46337
DEFAULT_MONOMIAL_CAP = 10**6


class _PrimeFieldConfigFields(NamedTuple):
    modulus: int
    seed: int


class PrimeFieldConfig(Validated, _PrimeFieldConfigFields):
    """Modulus and seed for the randomized finite-field checks."""

    __slots__ = ()

    def __new__(cls, modulus: int = DEFAULT_MODULUS, seed: int = DEFAULT_SEED):
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        return tuple.__new__(cls, (modulus, seed))

    def rng(self) -> random.Random:
        return random.Random(self.seed)


class KalmanPoint(NamedTuple):
    """A matrix over GF(p) carrying an eigenvector supported in the
    distinguished subspace, hence a point of the rank-drop locus."""

    entries: tuple[tuple[int, ...], ...]
    eigenvector: tuple[int, ...]
    eigenvalue: int
    modulus: int

    def flatten(self) -> tuple[int, ...]:
        """Row-major coordinates of the first d columns, matching the
        variable layout of `reduced_kalman_matrix`."""
        d = len(self.eigenvector)
        return tuple(itertools.chain.from_iterable(row[:d] for row in self.entries))

    def eigen_residual(self) -> tuple[int, ...]:
        """phi . vhat - t . vhat mod p; all zeros for a valid point."""
        p = self.modulus
        n = len(self.entries)
        d = len(self.eigenvector)
        vhat = list(self.eigenvector) + [0] * (n - d)
        out = []
        for i in range(n):
            acc = sum(self.entries[i][j] * vhat[j] for j in range(n)) % p
            out.append((acc - self.eigenvalue * vhat[i]) % p)
        return tuple(out)


def random_kalman_point(d: int, n: int, p: int, rng: random.Random) -> KalmanPoint:
    """Random matrix over GF(p), p prime, fixing a line inside the span
    of the first d coordinates: draw the eigenvector and eigenvalue,
    fill every column except one at random, then solve the remaining
    column."""
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    v = [rng.randrange(p) for _ in range(d)]
    if all(c == 0 for c in v):
        v[rng.randrange(d)] = rng.randrange(1, p)
    t = rng.randrange(p)
    support = [j for j in range(d) if v[j] != 0]
    k = support[rng.randrange(len(support))]
    phi = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    vhat = v + [0] * (n - d)
    vk_inv = pow(v[k], p - 2, p)
    for i in range(n):
        partial = sum(phi[i][j] * v[j] for j in range(d) if j != k) % p
        phi[i][k] = (t * vhat[i] - partial) * vk_inv % p
    return KalmanPoint(
        entries=tuple(tuple(row) for row in phi),
        eigenvector=tuple(v),
        eigenvalue=t,
        modulus=p,
    )


def _check_trials(trials: int) -> None:
    """Refuse fewer than one random point, before anything is built."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _check_nvars(generators: Sequence[SparsePoly], nvars: int) -> None:
    for g in generators:
        if g.ring.nvars != nvars:
            raise ValueError(f"generator has {g.ring.nvars} variables, expected {nvars}")


def _mod_p(g: SparsePoly, p: int) -> SparsePoly:
    """g over GF(p): its coefficients reduced into [0, p), zeros dropped."""
    return SparsePoly(g.ring, {m: v for m, c in g.terms.items() if (v := c % p)})


def vanishing_test(
    generators: Sequence[SparsePoly],
    d: int,
    n: int,
    trials: int = 100,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
) -> CheckReport:
    """Evaluate every generator mod p at random points of the rank-drop
    locus over GF(p); all values must be zero.

    A generator that vanishes mod p is dropped and not counted in
    `generator_count`; ValueError if none is left.  The points are drawn
    first, one per trial; a point that fails its eigenvector check is
    reported as `bad_point`.  The good points are then evaluated
    together (`evaluate_many`), and failures are listed by trial, then
    by the generator's index in `generators`."""
    _check_trials(trials)
    _check_nvars(generators, n * d)
    p = cfg.modulus
    kept = [(gi, g) for gi, g in enumerate(generators) if any(c % p for c in g.terms.values())]
    if not kept:
        raise ValueError("no generators to test")
    indices, generators = zip(*kept)
    rng = cfg.rng()
    points = []
    for _ in range(trials):
        point = random_kalman_point(d, n, p, rng)
        points.append(None if any(point.eigen_residual()) else point.flatten())
    values = iter(evaluate_many(generators, [coords for coords in points if coords is not None], p))
    failures = []
    for trial, coords in enumerate(points):
        if coords is None:
            failures.append({"kind": "bad_point", "trial": trial})
            continue
        for gi, value in zip(indices, next(values)):
            if value:
                failures.append({
                    "kind": "nonvanishing",
                    "trial": trial,
                    "generator": gi,
                    "value": value,
                })
    return CheckReport(
        check="random-point-vanishing",
        params={"d": d, "n": n, "trials": trials, "modulus": cfg.modulus, "seed": cfg.seed},
        details=failures[:20],
        data={"generator_count": len(generators), "failure_count": len(failures)},
    )


class MonomialCapExceeded(ValueError):
    def __init__(self, required: int, cap: int):
        super().__init__(f"degree piece needs {required} monomials, more than the limit of {cap}")
        self.required = required
        self.cap = cap


def monomial_count(nvars: int, degree: int) -> int:
    return comb(nvars - 1 + degree, degree)


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in lexicographically
    descending order: one per multiset of `degree` variables, in the
    order `itertools.combinations_with_replacement` lists them.  Callers
    use them as multipliers, and a rank does not depend on their order;
    serialization sorts by grevlex itself.  More than DEFAULT_MONOMIAL_CAP
    of them raise MonomialCapExceeded, from the closed-form count."""
    count = monomial_count(nvars, degree)
    if count > DEFAULT_MONOMIAL_CAP:
        raise MonomialCapExceeded(count, DEFAULT_MONOMIAL_CAP)
    out = []
    for variables in itertools.combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for k in variables:
            exp[k] += 1
        out.append(tuple(exp))
    return out


class SpanEliminator:
    """Incremental sparse row reduction over GF(p).  Rows are dicts
    {column: coefficient} with int columns, each row led by its smallest
    column; pivot rows are normalized to lead coefficient one and kept
    as absorbed."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def absorb(self, row: dict[int, int]) -> bool:
        """Reduce a row against the current pivots; returns True when it
        contributes a new pivot."""
        p = self.p
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            lead = min(r)
            piv = self.pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], p - 2, p)
                self.pivots[lead] = {c: v * inv % p for c, v in r.items()}
                return True
            c0 = r[lead]
            for col, pc in piv.items():
                acc = (r.get(col, 0) - c0 * pc) % p
                if acc:
                    r[col] = acc
                else:
                    r.pop(col, None)
        return False


def det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """The determinant mod p, in [0, p), of a square matrix of ints given
    as its rows, by Gaussian elimination over GF(p), p prime."""
    m = [[v % p for v in row] for row in rows]
    size = len(m)
    det = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        top = m[k]
        det = det * top[k] % p
        inv = pow(top[k], p - 2, p)
        for row in m[k + 1:]:
            if f := row[k] * inv % p:
                for j in range(k + 1, size):
                    row[j] = (row[j] - f * top[j]) % p
    return det


def stacked_matrix_mod_p(d: int, n: int, point: Sequence[int], p: int) -> list[list[int]]:
    """The rows of the stacked matrix of `reduced_kalman_matrix` at a
    point of GF(p)^{nd}, given as one int per variable in the same
    layout, by numbers: gamma * alpha^b mod p for b = 0, ..., d - 1."""
    x = [[v % p for v in point[i * d:(i + 1) * d]] for i in range(n)]
    alpha, block = list(zip(*x[:d])), x[d:]
    stacked = list(block)
    for _ in range(1, d):
        block = [[sum(map(operator.mul, row, col)) % p for col in alpha] for row in block]
        stacked += block
    return stacked


# Seeded uniform points at which `_uncertified` reads the unread minors.
# One point certifies nearly every minor at a large prime.  At p = 2 a
# nonzero minor reads zero more often: 16 points left 298 of the 3,003
# minors of (5, 8) unproven and 128 left none, at (4, 8) 115 and none.
CERTIFICATE_POINTS = 128


def _uncertified(
    d: int, n: int, row_sets: list[tuple[int, ...]], cfg: PrimeFieldConfig
) -> list[tuple[int, ...]]:
    """The row sets whose maximal minor reads zero at each of up to
    CERTIFICATE_POINTS seeded uniform points of GF(p)^{nd}.  A minor's
    value at x is det M(x)[R] mod p (`stacked_matrix_mod_p`, `det_mod_p`),
    and reducing its integer coefficients mod p is a ring map, so a
    nonzero value proves the minor nonzero mod p.  A minor that reads
    zero everywhere may still be nonzero mod p; the caller builds it."""
    p, rng = cfg.modulus, cfg.rng()
    for _ in range(CERTIFICATE_POINTS):
        if not row_sets:
            break
        m = stacked_matrix_mod_p(d, n, [rng.randrange(p) for _ in range(n * d)], p)
        row_sets = [rows for rows in row_sets if not det_mod_p([m[r] for r in rows], p)]
    return row_sets


# The limit on the up-front bound of a graded check's work, in steps: a
# term of a Macaulay row m*g is one step, and `_minor_work` prices each
# pick of the minors at d^3 more.  check-minimality --d 4 --n 6
# --max-degree 10 bounds at 5.3e7.  (4, 7) to degree 10 bounds at 7.0e8
# and (5, 8) to 10 at 4.2e8; both are refused before any minor is built.
MAX_GRADED_WORK = 100_000_000


def _check_graded_work(work: int, what: str) -> None:
    """Refuse work bounded at more than MAX_GRADED_WORK steps."""
    if work > MAX_GRADED_WORK:
        raise ValueError(
            f"{what} take up to {work} steps, more than the limit of {MAX_GRADED_WORK} (MAX_GRADED_WORK)"
        )


def _row_terms(terms_by_degree: dict[int, int], nvars: int, max_degree: int) -> int:
    """Terms of the Macaulay rows that the graded ranks of degrees 0
    through max_degree absorb, given the terms of the generators of each
    degree q: each is multiplied, over the pieces of degrees q through
    max_degree, by the C(nvars + max_degree - q, max_degree - q)
    monomials of degree at most max_degree - q."""
    return sum(
        terms * comb(nvars + max_degree - q, max_degree - q)
        for q, terms in terms_by_degree.items()
        if q <= max_degree
    )


def _minor_work(d: int, n: int, max_degree: int) -> int:
    """An up-front bound on the steps of a graded check of the maximal
    minors to max_degree, from the row degrees alone, with no matrix or
    minor built: d^3 for each of the C(d(n-d), d) picks (its degree,
    and for `minimality_report` its determinant at a point), plus the
    row terms (`_row_terms`) of the picks of degree at most max_degree.
    Row r has degree r // (n - d) + 1, so a pick's degree is the sum
    over its rows.  An entry of block b, gamma * alpha^b, sums d^b
    monomials, so a pick of degree q has at most d! * d^(q - d) terms:
    the bound of `_count_products` at those entry sizes.  The picks of
    each degree are counted block by block, never listed."""
    m = n - d
    work = comb(d * m, d) * d**3
    if work > MAX_GRADED_WORK:
        return work
    # (rows taken, their degree) -> picks, over the blocks so far, kept
    # only while the rows still to take can come from later blocks
    ways = {(0, 0): 1}
    for b in range(min(d, max_degree - d + 1)):
        step: dict[tuple[int, int], int] = {}
        for (k, q), count in ways.items():
            for c in range(min(m, d - k) + 1):
                key = (k + c, q + c * (b + 1))
                if key[1] + (d - key[0]) * (b + 2) <= max_degree:
                    step[key] = step.get(key, 0) + count * comb(m, c)
        ways = step
    terms = {q: count * factorial(d) * d ** (q - d) for (k, q), count in ways.items() if k == d}
    return work + _row_terms(terms, n * d, max_degree)


def _picks_to_degree(d: int, n: int, max_degree: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The row sets of the maximal minors of degree at most max_degree,
    which a graded check to max_degree reads, and those of the others,
    each in lexicographic order, after `_minor_work` is checked.  A
    generator above max_degree changes no rank at or below it."""
    check_degree(max_degree, "a graded piece")
    _check_graded_work(
        _minor_work(d, n, max_degree), f"the graded ranks of the minors at d={d}, n={n} to degree {max_degree}"
    )
    read, unread = [], []
    for rows in itertools.combinations(range(d * (n - d)), d):
        (read if sum(r // (n - d) + 1 for r in rows) <= max_degree else unread).append(rows)
    return read, unread


def _build(d: int, n: int, row_sets: list[tuple[int, ...]]) -> list[SparsePoly]:
    """The integer minors on the row sets, in lexicographic order
    (`top_minors`); for no row sets, neither they nor the matrix."""
    return [g for _, g in top_minors(reduced_kalman_matrix(d, n), row_sets)] if row_sets else []


def _by_degree_mod_p(gens: list[SparsePoly], nvars: int, p: int) -> dict[int, list[SparsePoly]]:
    """The graded checks' intake: the nonzero generators over GF(p), each
    homogeneous in `nvars` variables, by degree in the order given.  It
    replaces gens[k] by its reduction as it reads it, so `gens` must be a
    list of the caller's own; an integer generator it alone held is freed."""
    _check_nvars(gens, nvars)
    out: dict[int, list[SparsePoly]] = {}
    for k in range(len(gens)):
        gens[k] = g = _mod_p(gens[k], p)
        degrees = g.term_degrees()
        if len(degrees) > 1:
            raise ValueError("generators must be homogeneous")
        if degrees:
            out.setdefault(degrees.pop(), []).append(g)
    return out


def _generator_rows(gens: Sequence[SparsePoly], multiplier_degree: int, nvars: int):
    """Yield one sparse row per product m*g, with m running over the
    monomials of the given degree: the terms of m*g keyed by their
    packed monomials.  The caller has checked the degree, so the
    multipliers are packed without a check of their own."""
    multipliers = gens[0].ring.pack_many(monomials_of_degree(nvars, multiplier_degree))
    for g in gens:
        terms = list(g.terms.items())
        for mono in multipliers:
            yield {m + mono: c for m, c in terms}


def _graded_ranks(by_degree: dict[int, list[SparsePoly]], degree: int, nvars: int, p: int) -> tuple[int, int]:
    """Ranks over GF(p) of the degree piece spanned by the proper
    multiples m*g (deg m >= 1) of the generators, and of the piece
    spanned by all their multiples.  The rows' columns are the packed
    monomials of the piece, so each pivot leads with its smallest
    packed monomial; a rank does not depend on the column order.  A
    degree over 255 raises ValueError, since the packed columns would
    collide."""
    check_degree(degree, "a graded piece")
    elim = SpanEliminator(p)

    def absorb(q: int) -> None:
        for row in _generator_rows(by_degree[q], degree - q, nvars):
            elim.absorb(row)

    for q in by_degree:
        if q < degree:
            absorb(q)
    from_lower = elim.rank
    if degree in by_degree:
        absorb(degree)
    return from_lower, elim.rank


def _ranks_to(
    by_degree: dict[int, list[SparsePoly]], max_degree: int, nvars: int, p: int
) -> list[tuple[int, int]]:
    """`_graded_ranks` of degrees 0 through max_degree.  A degree over
    255, or more than MAX_GRADED_WORK row terms (`_row_terms` of the
    generators' own terms), is refused before the first rank."""
    check_degree(max_degree, "a graded piece")
    terms = {q: sum(len(g.terms) for g in gens) for q, gens in by_degree.items()}
    _check_graded_work(_row_terms(terms, nvars, max_degree), f"the graded ranks to degree {max_degree}")
    return [_graded_ranks(by_degree, e, nvars, p) for e in range(max_degree + 1)]


def _lift(dims: Sequence[int], n: int, nvars: int) -> list[int]:
    """Graded dimensions of an ideal or quotient of an nvars-variable
    ring S', degrees 0 up, carried to S = k[x].  S is S' with m more
    variables, so dim_S(e) = sum over k of dim_S'(e-k) * C(m-1+k, k)."""
    m = n * n - nvars
    return [sum(dims[e - k] * monomial_count(m, k) for k in range(e + 1)) for e in range(len(dims))]


def truncated_hilbert(
    generators: Sequence[SparsePoly],
    n: int,
    max_degree: int,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
) -> list[int]:
    """Dimensions of the graded pieces of k[x]/(generators), degrees 0
    through max_degree, from ranks over GF(p) of a reduced copy of the
    generators in k[alpha, gamma], lifted to k[x] (`_hilbert_of_own`)."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    generators = list(generators)
    if not generators:
        raise ValueError("no generators")
    return _hilbert_of_own(generators, n, generators[0].ring.nvars, max_degree, cfg.modulus)


def _hilbert_of_own(gens: list[SparsePoly], n: int, nvars: int, max_degree: int, p: int) -> list[int]:
    """`truncated_hilbert` of a list of generators in nvars variables
    that the caller owns: each is reduced mod p in place
    (`_by_degree_mod_p`)."""
    ranks = _ranks_to(_by_degree_mod_p(gens, nvars, p), max_degree, nvars, p)
    return _lift([monomial_count(nvars, e) - full for e, (_, full) in enumerate(ranks)], n, nvars)


def minimality_report(
    d: int,
    n: int,
    max_degree: int,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
    generators: Sequence[SparsePoly] | None = None,
) -> CheckReport:
    """Compare, degree by degree, the number of fresh generators the
    span of minor multiples actually needs against the count predicted
    by the resolution.

    In each degree the rows coming from proper multiples (multiplier
    degree at least one) are absorbed first; the generators of that
    exact degree are absorbed on top, and the rank jump is the number of
    new generators the ideal needs there.  The ranks are taken in
    k[alpha, gamma]; `ideal_dim` is lifted to k[x], where the rank jump,
    a count of minimal generators, is the same.

    Of the maximal minors, only those of degree at most max_degree are
    built (`_picks_to_degree`, which refuses first a degree over 255 or
    work bounded past MAX_GRADED_WORK).  `generator_count` counts every
    maximal minor that is nonzero mod p: the built ones that are, and
    the others as a certificate proves them (`_uncertified`); a minor it
    leaves unproven is built and reduced as well.  A given list of
    generators is read whole, and its work is bounded by the terms of
    its own rows (`_ranks_to`).  A generator that vanishes mod p is
    dropped and not counted.  The minors, or a copy of a given list, are
    reduced in place (`_by_degree_mod_p`).
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    params = KalmanParams(1, d, n)
    nvars = n * d
    if generators is None:
        read, unread = _picks_to_degree(d, n, max_degree)
        uncertified = _uncertified(d, n, unread, cfg)
        generators = _build(d, n, read + uncertified)
        certified = len(unread) - len(uncertified)
    else:
        generators, certified = list(generators), 0
    by_degree = _by_degree_mod_p(generators, nvars, cfg.modulus)

    predicted: dict[int, int] = {}
    for rec in minimal_generators(d, n):
        if rec.multiplicity > 0:
            predicted[rec.degree] = predicted.get(rec.degree, 0) + rec.multiplicity

    ranks = _ranks_to(by_degree, max_degree, nvars, cfg.modulus)
    ideal_dims = _lift([full for _, full in ranks], n, nvars)
    per_degree = []
    failures = []
    for e in range(1, max_degree + 1):
        new_gens = ranks[e][1] - ranks[e][0]
        want = predicted.get(e, 0)
        entry = {
            "degree": e,
            "ideal_dim": ideal_dims[e],
            "from_lower": ideal_dims[e] - new_gens,
            "new_generators": new_gens,
            "predicted_new": want,
        }
        per_degree.append(entry)
        if new_gens != want:
            failures.append(entry)

    return CheckReport(
        check="generator-minimality",
        params={
            "d": d,
            "n": n,
            "s": params.s,
            "max_degree": max_degree,
            "modulus": cfg.modulus,
        },
        details=failures,
        data={"per_degree": per_degree, "generator_count": certified + sum(map(len, by_degree.values()))},
    )


def truncated_hilbert_check(
    d: int,
    n: int,
    max_degree: int,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
) -> CheckReport:
    """Measure the quotient's graded dimensions by rank computations and
    compare against the expansion of the rational series obtained from
    the resolution.  Degree 0 holds for any proper ideal, so at least
    degree 1 is compared.  Only the maximal minors of degree at most
    max_degree are built, after the refusals of `_picks_to_degree`: the
    others change no dimension at or below it."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    KalmanParams(1, d, n)
    read, _ = _picks_to_degree(d, n, max_degree)
    measured = _hilbert_of_own(_build(d, n, read), n, n * d, max_degree, cfg.modulus)
    expected = hilbert_numerator(chain_resolution(1, d, n)).expand(max_degree)
    mismatches = [
        {"degree": e, "measured": m, "expected": x}
        for e, (m, x) in enumerate(zip(measured, expected))
        if m != x
    ]
    return CheckReport(
        check="truncated-hilbert",
        params={"d": d, "n": n, "max_degree": max_degree, "modulus": cfg.modulus},
        details=mismatches,
        data={"measured": measured, "expected": expected},
    )


def hypersurface_check(
    d: int,
    trials: int = 100,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
) -> CheckReport:
    """For n = d + 1 the variety is a hypersurface: its defining
    determinant must be homogeneous of degree d(d+1)/2, and must vanish
    at random points of the locus."""
    _check_trials(trials)
    n = d + 1
    det = _mod_p(determinant(reduced_kalman_matrix(d, n)), cfg.modulus)
    expected_degree = d * (d + 1) // 2
    degree_ok = det.is_homogeneous() and det.degree() == expected_degree
    inner = vanishing_test([det], d, n, trials, cfg)
    details = list(inner.details)
    if not degree_ok:
        details.insert(0, {
            "kind": "wrong_degree",
            "degree": det.degree(),
            "expected": expected_degree,
        })
    return CheckReport(
        check="hypersurface-determinant",
        params={"d": d, "n": n, "trials": trials, "modulus": cfg.modulus},
        details=details,
        data={
            "degree": det.degree(),
            "expected_degree": expected_degree,
            "term_count": len(det.terms),
        },
    )


def minors_vanishing_check(
    d: int,
    n: int,
    trials: int = 50,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
) -> CheckReport:
    """All maximal minors of the stacked matrix vanish on random points
    of the locus (`vanishing_test`)."""
    _check_trials(trials)
    gens = [g for _, g in all_top_minors(d, n)]
    return vanishing_test(gens, d, n, trials, cfg)._replace(check="minor-vanishing")
