"""Numerical verification over prime fields: random points on the
variety, graded linear algebra on spans of generator multiples, and the
checks that compare those measurements against the resolution
predictions.

All randomness flows through an explicitly seeded generator and every
check is deterministic given its configuration.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import NamedTuple, Sequence

from .polysym import (
    PolyRing,
    PrimeField,
    SparsePoly,
    all_top_minors,
    check_degree,
    determinant,
    evaluate_many,
    is_prime,
    reduced_kalman_matrix,
)
from .report import CheckReport, Validated
from .resolution import (
    KalmanParams,
    chain_resolution,
    hilbert_numerator,
    minimal_generators,
)

DEFAULT_MODULUS = 32003
ALTERNATE_MODULUS = 46337
DEFAULT_MONOMIAL_CAP = 10**6


class _PrimeFieldConfigFields(NamedTuple):
    modulus: int
    seed: int


class PrimeFieldConfig(Validated, _PrimeFieldConfigFields):
    """Modulus and seed for the randomized finite-field checks."""

    __slots__ = ()

    def __new__(cls, modulus: int = DEFAULT_MODULUS, seed: int = 2026):
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        return tuple.__new__(cls, (modulus, seed))

    def field(self) -> PrimeField:
        return PrimeField(self.modulus)

    def rng(self) -> random.Random:
        return random.Random(self.seed)


class KalmanPoint(NamedTuple):
    """A matrix over GF(p) carrying an eigenvector supported in the
    distinguished subspace, hence a point of the rank-drop locus."""

    entries: tuple[tuple[int, ...], ...]
    eigenvector: tuple[int, ...]
    eigenvalue: int
    modulus: int

    @property
    def n(self) -> int:
        return len(self.entries)

    def flatten(self) -> tuple[int, ...]:
        """Row-major coordinates of the first d columns, matching the
        variable layout of `BlockLayout`."""
        d = len(self.eigenvector)
        return tuple(itertools.chain.from_iterable(row[:d] for row in self.entries))

    def eigen_residual(self) -> tuple[int, ...]:
        """phi . vhat - t . vhat mod p; all zeros for a valid point."""
        p = self.modulus
        n = self.n
        d = len(self.eigenvector)
        vhat = list(self.eigenvector) + [0] * (n - d)
        out = []
        for i in range(n):
            acc = sum(self.entries[i][j] * vhat[j] for j in range(n)) % p
            out.append((acc - self.eigenvalue * vhat[i]) % p)
        return tuple(out)


def random_kalman_point(d: int, n: int, gf: PrimeField, rng: random.Random) -> KalmanPoint:
    """Random matrix fixing a line inside the span of the first d
    coordinates: draw the eigenvector and eigenvalue, fill every column
    except one at random, then solve the remaining column."""
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    p = gf.p
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


def _to_field(generators: Sequence[SparsePoly], gf: PrimeField, nvars: int) -> list[SparsePoly]:
    out = []
    for g in generators:
        if g.ring.nvars != nvars:
            raise ValueError(f"generator has {g.ring.nvars} variables, expected {nvars}")
        if isinstance(g.ring.domain, PrimeField) and g.ring.domain != gf:
            raise ValueError("generator modulus does not match configuration")
        out.append(g if g.ring.domain == gf else g.map_domain(PolyRing(nvars, gf, g.ring.var_name)))
    return out


def vanishing_test(
    generators: Sequence[SparsePoly],
    d: int,
    n: int,
    trials: int = 100,
    cfg: PrimeFieldConfig = PrimeFieldConfig(),
) -> CheckReport:
    """Evaluate every generator at random points of the rank-drop locus;
    all values must be zero.

    The points are drawn first, one per trial; a point that fails its
    eigenvector check is reported as `bad_point`.  The good points are
    then evaluated together (`evaluate_many`: each monomial split at the
    degree midpoint, the halves of all generators in one trie), and
    failures are listed by trial, then by generator."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not generators:
        raise ValueError("no generators to test")
    gf = cfg.field()
    rng = cfg.rng()
    gens = _to_field(generators, gf, n * d)
    points = []
    for _ in range(trials):
        point = random_kalman_point(d, n, gf, rng)
        points.append(None if any(point.eigen_residual()) else point.flatten())
    values = iter(evaluate_many(gens, [coords for coords in points if coords is not None]))
    failures = []
    for trial, coords in enumerate(points):
        if coords is None:
            failures.append({"kind": "bad_point", "trial": trial})
            continue
        for gi, value in enumerate(next(values)):
            if value % gf.p != 0:
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
        data={"generator_count": len(gens), "failure_count": len(failures)},
    )


class MonomialCapExceeded(Exception):
    def __init__(self, required: int, cap: int):
        super().__init__(f"degree piece needs {required} monomials, more than the limit of {cap}")
        self.required = required
        self.cap = cap


def monomial_count(nvars: int, degree: int) -> int:
    return comb(nvars - 1 + degree, degree)


def _capped_count(nvars: int, degree: int) -> int:
    """`monomial_count`, raising MonomialCapExceeded over the cap."""
    count = monomial_count(nvars, degree)
    if count > DEFAULT_MONOMIAL_CAP:
        raise MonomialCapExceeded(count, DEFAULT_MONOMIAL_CAP)
    return count


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in lexicographically
    descending order.  Callers use them as multipliers, and a rank does
    not depend on their order; serialization sorts by grevlex itself."""
    count = _capped_count(nvars, degree)
    out: list[tuple[int, ...]] = []
    exp = [0] * nvars

    def fill(pos: int, remaining: int) -> None:
        if pos == nvars - 1:
            exp[pos] = remaining
            out.append(tuple(exp))
            exp[pos] = 0
            return
        for e in range(remaining, -1, -1):
            exp[pos] = e
            fill(pos + 1, remaining - e)
        exp[pos] = 0

    fill(0, degree)
    assert len(out) == count
    return out


class SpanEliminator:
    """Incremental sparse row reduction over GF(p).  Rows are dicts
    {column index: coefficient}; pivot rows are normalized to lead
    coefficient one and kept as absorbed."""

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


def _by_degree(gens: Sequence[SparsePoly]) -> dict[int, list[SparsePoly]]:
    """The nonzero generators grouped by degree; each must be homogeneous.
    Each generator's term degrees are read once."""
    out: dict[int, list[SparsePoly]] = {}
    for g in gens:
        degrees = g.term_degrees()
        if len(degrees) > 1:
            raise ValueError("generators must be homogeneous")
        if degrees:
            out.setdefault(degrees.pop(), []).append(g)
    return out


def _generator_rows(
    gens: Sequence[SparsePoly],
    multiplier_degree: int,
    nvars: int,
    col_index: dict[int, int],
):
    """Yield one sparse row per product m*g, with m running over the
    monomials of the given degree.  A monomial that no earlier row used
    gets the next free column.  The caller has checked the degree, so the
    multipliers are packed without a check of their own."""
    multipliers = gens[0].ring.pack_many(monomials_of_degree(nvars, multiplier_degree))
    for g in gens:
        terms = list(g.terms.items())
        for mono in multipliers:
            yield {col_index.setdefault(m + mono, len(col_index)): c for m, c in terms}


def _graded_ranks(by_degree: dict[int, list[SparsePoly]], degree: int, nvars: int, p: int) -> tuple[int, int]:
    """Ranks over GF(p) of the degree piece spanned by the proper
    multiples m*g (deg m >= 1) of the generators, and of the piece
    spanned by all their multiples.  A degree over 255 raises
    ValueError, since the packed columns would collide."""
    check_degree(degree, "a graded piece")
    col_index: dict[int, int] = {}
    elim = SpanEliminator(p)

    def absorb(q: int) -> None:
        for row in _generator_rows(by_degree[q], degree - q, nvars, col_index):
            elim.absorb(row)

    for q in by_degree:
        if q < degree:
            absorb(q)
    from_lower = elim.rank
    if degree in by_degree:
        absorb(degree)
    return from_lower, elim.rank


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
    through max_degree, from ranks taken in the ring of the generators,
    k[alpha, gamma] of `BlockLayout`, and lifted to k[x]."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    if not generators:
        raise ValueError("no generators")
    nvars = generators[0].ring.nvars
    gf = cfg.field()
    by_degree = _by_degree(_to_field(generators, gf, nvars))
    quotient = [
        monomial_count(nvars, e) - _graded_ranks(by_degree, e, nvars, gf.p)[1]
        for e in range(max_degree + 1)
    ]
    return _lift(quotient, n, nvars)


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
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    params = KalmanParams(1, d, n)
    nvars = n * d
    _capped_count(nvars, max_degree)
    check_degree(max_degree, "a graded piece")
    gf = cfg.field()
    if generators is None:
        gens = [p for _, p in all_top_minors(d, n, gf)]
    else:
        gens = _to_field(generators, gf, nvars)
    gens = [g for g in gens if not g.is_zero()]
    by_degree = _by_degree(gens)

    predicted: dict[int, int] = {}
    for rec in minimal_generators(d, n):
        if rec.multiplicity > 0:
            predicted[rec.degree] = predicted.get(rec.degree, 0) + rec.multiplicity

    ranks = [_graded_ranks(by_degree, e, nvars, gf.p) for e in range(max_degree + 1)]
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
        data={"per_degree": per_degree, "generator_count": len(gens)},
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
    degree 1 is compared."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    _capped_count(n * d, max_degree)
    check_degree(max_degree, "a graded piece")
    gens = [p for _, p in all_top_minors(d, n, cfg.field())]
    measured = truncated_hilbert(gens, n, max_degree, cfg)
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
    n = d + 1
    gf = cfg.field()
    det = determinant(reduced_kalman_matrix(d, n, gf))
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
    of the locus."""
    gf = cfg.field()
    gens = [p for _, p in all_top_minors(d, n, gf) if not p.is_zero()]
    return vanishing_test(gens, d, n, trials, cfg)._replace(check="minor-vanishing")
