"""Sparse multivariate polynomials with integer coefficients, the
structured matrix attached to a Kalman variety, its minors, and the
trace-minor identity.

Every polynomial built here has integer coefficients and nothing
divides, so the integers are the one coefficient domain.  A prime p
enters only where a polynomial is measured mod p: `evaluate_many` takes
it as an argument, and the finite-field checks of `verify` reduce the
coefficients they read.  Reduction mod p is a ring map, so reducing the
integer minors gives the minors over GF(p).  Arithmetic works on plain
ints and builds each result once (`PolyRing.reduce`), dropping zeros.

A monomial is one int: its exponent vector packed one byte per
variable, variable k at bits 8k, so a monomial product is one int add.
`PolyRing.pack` (with `pack_many`, its unchecked form for vectors a
caller has bounded) and `PolyRing.unpack` are the only conversions to
and from exponent tuples.  One byte holds exponents up to 255, and every
route that adds monomials refuses a degree over 255
(`check_degree`) rather than carrying into the next variable.  Graded
reverse lexicographic order on the exponent tuples fixes how a
polynomial is serialized; the finite-field ranks downstream key their
columns by packed monomial and do not depend on it.  Evaluation
(`evaluate_many`) splits each monomial into a low and a high half at
the variable that keeps the distinct halves few, compiles the halves of
all the polynomials into one trie of variables in ascending packed
order, walks it in one pass per point, and sums each polynomial as the
sum of c * value(low) * value(high) over its terms.

A matrix is a plain list of rows of polynomials.  Every minor, those of
the stacked matrix (`reduced_kalman_matrix`) and those of the trace
identity alike, comes from one Laplace expansion (`_minors`), which
refuses more than MAX_MINOR_PRODUCTS term products up front and hands
each finished minor to its caller, who decides how long it lives.
"""

from __future__ import annotations

import itertools
import operator
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .report import CheckReport


MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_LIMIT = 318665857834031151167461  # least strong pseudoprime to all twelve


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..37, exact for p
    below MILLER_RABIN_LIMIT (Sorenson & Webster, Math. Comp. 86, 2017);
    a larger p raises ValueError."""
    if p >= MILLER_RABIN_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime: exact only below {MILLER_RABIN_LIMIT}")
    if p < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


MAX_DEGREE = 255  # one byte per variable in a packed monomial


def check_degree(degree: int, what: str) -> None:
    """Refuse a degree over MAX_DEGREE: past it, an exponent could carry
    into the next variable's byte."""
    if degree > MAX_DEGREE:
        raise ValueError(
            f"{what} may reach degree {degree}; packed monomials hold at most {MAX_DEGREE} per variable"
        )


def grevlex_key(exp: tuple[int, ...]) -> tuple:
    """Sort key putting monomials in graded reverse lexicographic
    descending order when sorted ascending by this key."""
    return (-sum(exp), tuple(reversed(exp)))


class PolyRing:
    """A polynomial ring over the integers: variable count and the name
    of variable k (`x{k}` unless given)."""

    def __init__(self, nvars: int, names: Callable[[int], str] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        self.var_name = "x{}".format if names is None else names

    def compatible(self, other: "PolyRing") -> bool:
        return self is other or self.nvars == other.nvars

    def pack(self, exp: Sequence[int]) -> int:
        """The monomial with exponent vector `exp`, one byte per variable,
        variable k at bits 8k."""
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError(f"exponent vector {exp!r} does not have {self.nvars} entries")
        if not all(0 <= e <= MAX_DEGREE for e in exp):
            raise ValueError(f"exponent vector {exp!r}: packed monomials hold 0 to {MAX_DEGREE} per variable")
        return int.from_bytes(bytes(exp), "little")

    def pack_many(self, exps: Iterable[Sequence[int]]) -> list[int]:
        """`pack` for exponent vectors the caller built with this ring's
        length and a degree `check_degree` admits, such as the multipliers
        of a graded piece: no vector is checked on its own."""
        return [int.from_bytes(bytes(exp), "little") for exp in exps]

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponent vector of the packed monomial `m`."""
        return tuple(m.to_bytes(self.nvars, "little"))

    def reduce(self, acc: dict) -> "SparsePoly":
        """The polynomial {packed monomial: integer} `acc` in this ring,
        zero coefficients dropped.  The caller passes ints."""
        return SparsePoly(self, {e: c for e, c in acc.items() if c})

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def const(self, c) -> "SparsePoly":
        """The constant c, which must be integral (TypeError otherwise,
        rather than a truncation)."""
        return self.reduce({0: operator.index(c)})

    def one(self) -> "SparsePoly":
        return self.const(1)

    def var(self, k: int) -> "SparsePoly":
        if not 0 <= k < self.nvars:
            raise ValueError(f"variable index {k} out of range")
        return self.reduce({1 << 8 * k: 1})


class SparsePoly:
    """Immutable-by-convention sparse polynomial: {packed monomial: coeff}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self._degrees())

    def is_homogeneous(self) -> bool:
        return len(self.term_degrees()) <= 1

    def term_degrees(self) -> set[int]:
        """The total degrees of the terms, from one pass over them: none
        for zero, one for a nonzero homogeneous polynomial."""
        return set(self._degrees())

    def _degrees(self) -> Iterable[int]:
        return map(sum, map(self.ring.unpack, self.terms))

    def _check_ring(self, other: "SparsePoly") -> None:
        if not isinstance(other, SparsePoly):
            raise TypeError(f"cannot combine a polynomial with {type(other).__name__}")
        if not self.ring.compatible(other.ring):
            raise ValueError("mixed rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return self.ring.reduce(acc)

    def __neg__(self):
        return self.ring.reduce({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.reduce({e: c * other for e, c in self.terms.items()})
        self._check_ring(other)
        check_degree(self.degree() + other.degree(), "a product")
        acc: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma + mb
                acc[m] = acc.get(m, 0) + ca * cb
        return self.ring.reduce(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        check_degree(self.degree() * e, "a power")
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (
            isinstance(other, SparsePoly)
            and self.ring.compatible(other.ring)
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """(exponent tuple, coefficient) pairs in grevlex order."""
        unpack = self.ring.unpack
        return sorted(((unpack(m), c) for m, c in self.terms.items()), key=lambda t: grevlex_key(t[0]))

    def evaluate(self, point: Sequence[int], p: int) -> int:
        """Value mod p at a point given as one int per variable: the
        one-polynomial, one-point case of `evaluate_many`.  No code in
        this package calls it.  It stays while `LAYERS` in
        `perfbench/child.py` traces it and `test_boundary_is_a_callable_in_src`
        pins it there, and goes with the next change of those layers."""
        return evaluate_many([self], [point], p)[0][0]

    def map_domain(self, ring: PolyRing) -> "SparsePoly":
        """The same terms in another ring with the same nvars, such as
        one that names its variables differently.  It has no caller in
        this package, and stays and goes with `evaluate`: it is a traced
        boundary of `perfbench/child.py`, pinned by the same test."""
        if ring.nvars != self.ring.nvars:
            raise ValueError("variable count mismatch")
        return SparsePoly(ring, self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp, c in self.sorted_terms():
            factors = [str(c)]
            for k, e in enumerate(exp):
                if e:
                    factors.append(f"{self.ring.var_name(k)}^{e}")
            bits.append("*".join(factors))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


def _shared_trie(monomials: Iterable[int]) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The monomials, and every prefix they need, compiled into one
    trie: (links, index), where `index` maps each monomial to its node.

    Each monomial is read as a word in its variables, highest index
    first, and the words share their prefixes.  A node is a prefix
    monomial, so its parent drops one factor of the node's lowest-index
    variable: the lowest set bit of the packed node names the variable,
    and one subtraction gives the parent, a smaller int.  So the nodes
    are numbered in ascending packed order, node 0 is the empty word,
    and every parent comes before its children.  `links` holds the
    (parent node, variable) of nodes 1, 2, ... in that order, and one
    pass over it values every node.
    """
    lowest = {0: 0}  # each node's lowest-index variable, a placeholder for the root
    for m in monomials:
        while m not in lowest:
            lowest[m] = k = ((m & -m).bit_length() - 1) >> 3
            m -= 1 << 8 * k
    nodes = sorted(lowest)
    index = {m: i for i, m in enumerate(nodes)}
    return [(index[m - (1 << 8 * lowest[m])], lowest[m]) for m in nodes[1:]], index


def _terms(polys: Sequence[SparsePoly]) -> Iterator[int]:
    return itertools.chain.from_iterable(p.terms for p in polys)


def _masks(nvars: int, split: int) -> tuple[int, int]:
    """The masks of the low and high halves at `split`, nonnegative to keep `&` fast."""
    low = (1 << 8 * split) - 1
    return low, ((1 << 8 * nvars) - 1) ^ low


def _cut(nvars: int, split: int, lows: Iterable[int], highs: Iterable[int]) -> tuple[set[int], set[int]]:
    """The distinct low halves of `lows` and high halves of `highs` at
    `split`: monomials, or halves cut at a later and an earlier split."""
    low, high = _masks(nvars, split)
    return set(map(low.__and__, lows)), set(map(high.__and__, highs))


def _plan_at(polys: Sequence[SparsePoly], nvars: int, split: int, halves: tuple | None = None) -> tuple:
    """The polynomials compiled for `evaluate_many` at `split`: (split,
    links, one (coefficients, low nodes, high nodes) per polynomial).

    One trie (`_shared_trie`) holds the root and the distinct halves at
    `split` (`halves`, if the caller has cut them).  Each term has one
    coefficient, read from its polynomial, one low node and one high
    node.  Each node list is an `operator.itemgetter`, built in one
    C-level pass, that gathers a point's node values for every term in
    one call.  It ends with the root's index twice, since an itemgetter
    of one index returns a bare value and one of none cannot be made.
    """
    if halves is None:
        halves = _cut(nvars, split, _terms(polys), _terms(polys))
    links, index = _shared_trie(itertools.chain(*halves))
    node = index.__getitem__
    low, high = _masks(nvars, split)
    return split, links, [
        (
            p.terms.values(),
            operator.itemgetter(*map(node, map(low.__and__, p.terms)), 0, 0),
            operator.itemgetter(*map(node, map(high.__and__, p.terms)), 0, 0),
        )
        for p in polys
    ]


def _split_plan(polys: Sequence[SparsePoly], nvars: int) -> tuple:
    """The polynomials compiled for `evaluate_many` (`_plan_at`) at a
    split that keeps the distinct halves few.

    A monomial's low half holds its variables below the split, and its
    high half the rest.  Any split gives the same values, but the split
    sets the size of the trie, which a point walks node by node.  As
    the split rises, the distinct low halves only grow in number and
    the distinct high halves only shrink, so the counts cross once.
    From the middle variable the search steps toward the crossing,
    cutting one side's halves from the terms and the other's from the
    step before, and takes the split on either side of it with fewer
    halves (the first reached on a tie): within twice the fewest of any
    split.  The (4, 5) determinant splits below variable 10, into 4,865
    trie nodes (11,462 at the exponent midpoint, 14); the 84 minors of
    (3, 6) below variable 9, the alpha/gamma boundary, into 617.
    """
    split = nvars // 2
    here = _cut(nvars, split, _terms(polys), _terms(polys))
    up = len(here[0]) < len(here[1])
    for step in range(split + 1, nvars + 1) if up else range(split - 1, -1, -1):
        there = _cut(nvars, step, _terms(polys), here[1]) if up else _cut(nvars, step, here[0], _terms(polys))
        crossed = (len(there[0]) < len(there[1])) != up
        if not crossed or sum(map(len, there)) < sum(map(len, here)):
            split, here = step, there
        if crossed:
            break
    return _plan_at(polys, nvars, split, here)


def evaluate_many(polys: Sequence[SparsePoly], points: Iterable[Sequence[int]], p: int) -> list[list[int]]:
    """For each point, the value mod p of every polynomial, in [0, p).

    All polynomials have the same number of variables, and every point
    gives one int per variable (ValueError otherwise, raised before any
    plan is compiled).  Each monomial splits into a low and a high half,
    and the halves of all the polynomials are compiled once into one
    shared trie (`_split_plan` picks the split), the baby-step/giant-step
    idea of Paterson & Stockmeyer (SIAM J. Comput. 2, 1973) for sparse
    polynomials.  A polynomial's value is the sum, over its terms, of
    c * value(low) * value(high).  A point costs one Python-level step
    per trie node, whose value is reduced mod p (a ring map, so no value
    changes), and C-level passes that multiply twice per term and reduce
    once per polynomial.
    """
    polys, points = list(polys), list(points)
    nvars = {poly.ring.nvars for poly in polys}
    if len(nvars) > 1:
        raise ValueError(f"polynomials in different numbers of variables: {sorted(nvars)}")
    if nvars and any({len(point)} != nvars for point in points):
        raise ValueError("point has wrong length")
    _, links, terms = _split_plan(polys, next(iter(nvars), 0))
    out, mul = [], operator.mul
    for point in points:
        values = [1]
        append = values.append
        for parent, k in links:
            append(values[parent] * point[k] % p)
        out.append([
            sum(map(mul, map(mul, coeffs, lows(values)), highs(values))) % p for coeffs, lows, highs in terms
        ])
    return out


# The limit on the up-front bound of one `_minors` call, `_count_products`.
# all_top_minors(4, 6) bounds at 6.5e7 and ran in 4 s and 215 MB; (4, 7)
# bounds at 8.6e8 and took 54 s and 1.85 GB, (5, 6) at 1.0e9 ran past
# 96 s, and (5, 7) at 4.7e13 ran past 150 s and 5 GB.  All three are
# refused before anything is expanded.
MAX_MINOR_PRODUCTS = 100_000_000


def check_minor_products(work: int, what: str) -> None:
    """Refuse, before any minor is expanded, work bounded at more than
    MAX_MINOR_PRODUCTS term products."""
    if work > MAX_MINOR_PRODUCTS:
        raise ValueError(
            f"{what} take up to {work} term products, more than the limit of "
            f"{MAX_MINOR_PRODUCTS} (MAX_MINOR_PRODUCTS)"
        )


def _count_products(
    sizes: Sequence[Sequence[int]], picks: Sequence[tuple[tuple, tuple]]
) -> tuple[int, dict[tuple, int]]:
    """The counting pass of `_minors`, on the term count of each entry:
    the top-level term products of the (rows, cols) picks, added at every
    use, so a pick given twice counts twice and no sub-minor's own
    building is counted; and the uses of every sub-minor key.  Those of
    no rows are 1, and those of a pick are the sum, over its first row's
    entries, of the entry's term count times those of its sub-minor."""
    uses: dict[tuple, int] = {}
    products: dict[tuple, int] = {}

    def count(key):
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1:
            rows, cols = key
            bound = 0 if rows else 1
            for pos, c in enumerate(cols):
                if size := sizes[rows[0]][c]:
                    bound += size * count((rows[1:], cols[:pos] + cols[pos + 1:]))
            products[key] = bound
        return products[key]

    return sum(count(pick) for pick in picks), uses


def _minors(
    entries: Sequence[Sequence[SparsePoly]],
    picks: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> Iterator[SparsePoly]:
    """An iterator over the minor on each (rows, cols) pick of the
    matrix `entries`, in the order given, by Laplace expansion along the
    first row of `rows`, in the ring of the entries.  A finished minor is
    handed out and not kept.  A sub-minor is keyed by its remaining rows
    and columns, built once, shared by every minor that expands into it,
    and dropped after its last use.

    The expansion works on the terms dicts of the entries and of the
    sub-minors directly, since a packed monomial product is one int add.
    The degree of a pick is bounded by the sum of its rows' largest
    entry degrees, read from one table of entry degrees per call, and a
    bound over 255 raises ValueError (`check_degree`).

    The size of the work is bounded up front, in the pass that counts
    each sub-minor's uses (`_count_products`).  Picks whose products sum
    to more than MAX_MINOR_PRODUCTS raise ValueError.  Both refusals are
    raised by the call, before the iterator is returned.
    """
    picks = [(tuple(rows), tuple(cols)) for rows, cols in picks]
    degrees = [[e.degree() for e in row] for row in entries]
    for rows, cols in picks:
        check_degree(sum(max(0, *(degrees[r][c] for c in cols)) for r in rows), "a minor")
    work, uses = _count_products([[len(e.terms) for e in row] for row in entries], picks)
    check_minor_products(work, "the minors")
    memo: dict[tuple, dict[int, object]] = {}

    def take(key):
        value = memo.get(key)
        if value is None:
            if not key[0]:
                value = {0: 1}
            else:
                rows, cols = key
                acc: dict[int, object] = {}
                get = acc.get
                for pos, c in enumerate(cols):
                    e = entries[rows[0]][c].terms
                    if not e:
                        continue
                    below = take((rows[1:], cols[:pos] + cols[pos + 1:])).items()
                    for ea, ca in e.items():
                        if pos % 2:
                            ca = -ca
                        for eb, cb in below:
                            m = ea + eb
                            acc[m] = get(m, 0) + ca * cb
                value = {m: c for m, c in acc.items() if c}
            memo[key] = value
        uses[key] -= 1
        if not uses[key]:
            del memo[key]
        return value

    ring = entries[0][0].ring
    return (SparsePoly(ring, take(pick)) for pick in picks)


def determinant(rows: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """The determinant of a nonempty square matrix given as its rows."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a nonempty square matrix")
    every = range(len(rows))
    return next(_minors(rows, [(every, every)]))


def _matmul(a: Sequence[Sequence[SparsePoly]], b: Sequence[Sequence[SparsePoly]]) -> list[list[SparsePoly]]:
    """The product of two matrices given as their rows."""
    zero = a[0][0].ring.zero()
    return [[sum(map(operator.mul, row, col), zero) for col in zip(*b)] for row in a]


def reduced_kalman_matrix(d: int, n: int) -> list[list[SparsePoly]]:
    """The rows of the stacked d(n-d) x d matrix whose block r is
    gamma * alpha^r, rows of block r homogeneous of degree r + 1.

    Only the first d columns of End(V) occur in a Kalman minor, so the
    ring is k[alpha, gamma] in n * d variables: x[i][j] (1-based,
    j <= d) is variable (i-1)*d + (j-1).  The top d x d block alpha acts
    on L, and the bottom (n-d) x d block gamma maps L out of it."""
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    ring = PolyRing(n * d, lambda k: f"x[{k // d + 1}][{k % d + 1}]")
    x = [[ring.var(i * d + j) for j in range(d)] for i in range(n)]
    alpha, block = x[:d], x[d:]
    stacked = list(block)
    for _ in range(1, d):
        block = _matmul(block, alpha)
        stacked += block
    return stacked


def all_top_minors(d: int, n: int) -> list[tuple[tuple[int, ...], SparsePoly]]:
    """Every d x d minor of the reduced matrix with its row set, row sets
    in lexicographic order.  They are built highest rows first: the
    heaviest minors sit on the highest-degree rows, so their transients
    peak before the lighter results pile up."""
    matrix = reduced_kalman_matrix(d, n)
    picks = sorted(itertools.combinations(range(len(matrix)), d), key=lambda rows: rows[::-1], reverse=True)
    return sorted(zip(picks, _minors(matrix, [(rows, range(d)) for rows in picks])))


def _trace_identity_picks(d: int, i: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (rows, cols) picks of `trace_identity_check(d, i)` on the
    3d x d matrix [A; A * alpha; alpha], in the order it adds them up:
    det A, the principal i x i minors of alpha, then det A with each
    size-i row set replaced by those rows of A * alpha, lexicographically."""
    if not 1 <= i <= d:
        raise ValueError(f"need 1 <= i <= d, got i={i}, d={d}")
    every = tuple(range(d))
    row_sets = list(itertools.combinations(every, i))
    principal = [(tuple(2 * d + r for r in rows), rows) for rows in row_sets]
    replaced = [(tuple(d + r if r in rows else r for r in every), every) for rows in row_sets]
    return [(every, every)] + principal + replaced


def trace_identity_products(d: int, i: int) -> int:
    """Term products that the minors of `trace_identity_check(d, i)` take
    together, by the up-front bound of `_minors`, without building them.
    An entry of A or alpha has one term, and an entry of A * alpha has d."""
    sizes = [[1] * d] * d + [[d] * d] * d + [[1] * d] * d
    return _count_products(sizes, _trace_identity_picks(d, i))[0]


def trace_identity_check(d: int, i: int) -> CheckReport:
    """Verify, on fully generic symbolic matrices, that the trace of the
    i-th exterior power of alpha (the sum of its principal i x i minors)
    times det A equals the sum over size-i row sets of det A after
    replacing those rows with the corresponding rows of A * alpha.
    Both sides have integer coefficients, so checking over the integers
    is as strong as checking over the rationals.  The minors come from one
    `_minors` call on `_trace_identity_picks(d, i)`, added up as they come
    (det A times the trace last), one row-replaced determinant alive at a
    time; more than MAX_MINOR_PRODUCTS term products in all
    (`trace_identity_products`) raise ValueError before any is built."""
    check_minor_products(
        trace_identity_products(d, i), f"the minors of the trace identity at d={d}, i={i}"
    )

    def namer(k: int) -> str:
        block, rest = divmod(k, d * d)
        r, c = divmod(rest, d)
        return f"{'ab'[block]}[{r + 1}][{c + 1}]"

    ring = PolyRing(2 * d * d, namer)
    a_mat = [[ring.var(r * d + c) for c in range(d)] for r in range(d)]
    alpha = [[ring.var(d * d + r * d + c) for c in range(d)] for r in range(d)]
    minors = _minors(a_mat + _matmul(a_mat, alpha) + alpha, _trace_identity_picks(d, i))
    det_a = next(minors)
    trace = sum(itertools.islice(minors, comb(d, i)), ring.zero())
    rhs = sum(minors, ring.zero())
    lhs = trace * det_a
    diff = lhs - rhs
    details = [] if diff.is_zero() else [{"kind": "nonzero_difference", "difference": str(diff)}]
    return CheckReport(
        check="trace-minor-identity",
        params={"d": d, "i": i},
        details=details,
        data={"lhs_terms": len(lhs.terms), "rhs_terms": len(rhs.terms)},
    )
