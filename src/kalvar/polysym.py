"""Sparse multivariate polynomial arithmetic over the integers (ZZ) or a
prime field GF(p), the structured matrix attached to a Kalman variety,
its minors, and the trace-minor identity.

Every polynomial built here has integer coefficients and nothing
divides, so ZZ is the exact domain; the finite-field checks build the
same matrix directly over GF(p).  A coefficient domain is one reduction
map, `coerce`: ZZ checks that a value is integral, `PrimeField(p)`
reduces it mod p, and prime fields with the same modulus are the same
domain.  Arithmetic works on plain ints and reduces each coefficient of
a result once (`PolyRing.reduce`), dropping zeros.

A monomial is one int: its exponent vector packed one byte per
variable, variable k at bits 8k, so a monomial product is one int add.
`PolyRing.pack` (with `pack_many`, its unchecked form for vectors a
caller has bounded) and `PolyRing.unpack` are the only conversions to
and from exponent tuples.  One byte holds exponents up to 255, and every
route that adds monomials refuses a degree over 255
(`check_degree`) rather than carrying into the next variable.  Graded
reverse lexicographic order on the exponent tuples fixes how a
polynomial is serialized; the finite-field ranks downstream number
their columns on first touch and do not depend on it.  Evaluation
(`evaluate_many`) splits each monomial at the degree midpoint of the
variables into a low and a high half, compiles the halves of all the
polynomials it is given into one trie of variables, walks it once per
point, and sums each polynomial as value(high) times the sum of c *
value(low) over the terms with that high half.  Laplace expansion
(`_minors`) bounds its work up front and refuses more than
MAX_MINOR_PRODUCTS term products.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, NamedTuple, Sequence

from .report import CheckReport, Validated


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


class Integers:
    """Integer coefficients, stored as Python ints.  Coercion accepts only
    integral values; anything else raises TypeError rather than being
    truncated.  `ZZ` is the one instance."""

    def coerce(self, x) -> int:
        return operator.index(x)


class PrimeField:
    """Integers mod a prime p, elements stored as ints in [0, p).
    Immutable, and equal and hashed by p.  A slotted class rather than a
    named tuple, since `coerce` reads p once per coefficient and a slot
    is the faster read."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"PrimeField(p={self.p!r})"

    def __reduce__(self):
        return PrimeField, (self.p,)

    def coerce(self, x) -> int:
        return operator.index(x) % self.p


ZZ = Integers()


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
    """A polynomial ring: variable count, coefficient domain, and the
    name of variable k (`x{k}` unless given)."""

    def __init__(self, nvars: int, domain=ZZ, names: Callable[[int], str] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        self.domain = domain
        self.var_name = "x{}".format if names is None else names

    def compatible(self, other: "PolyRing") -> bool:
        return self is other or (self.nvars == other.nvars and self.domain == other.domain)

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
        """The polynomial {packed monomial: integer} `acc` in this ring:
        every coefficient coerced into the domain once, zeros dropped."""
        coerce = self.domain.coerce
        return SparsePoly(self, {e: v for e, c in acc.items() if (v := coerce(c))})

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def const(self, c) -> "SparsePoly":
        return self.reduce({0: c})

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

    def evaluate(self, point: Sequence):
        """Value at a point given as one domain element per variable: the
        one-polynomial, one-point case of `evaluate_many`."""
        return evaluate_many([self], [point])[0][0]

    def map_domain(self, ring: PolyRing) -> "SparsePoly":
        """Recoerce coefficients into another ring with the same nvars."""
        if ring.nvars != self.ring.nvars:
            raise ValueError("variable count mismatch")
        return ring.reduce(self.terms)

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


def _shared_trie(monomials: Iterable[int], nvars: int) -> tuple[list, dict[int, int]]:
    """The monomials in `nvars` variables, and every prefix they need,
    compiled into one trie: (levels, index), where `index` maps each
    monomial to its node.

    Each monomial is read as a word in its variables, highest index
    first, and the words share their prefixes.  A node is a prefix
    monomial, so its parent drops one factor of the node's lowest-index
    variable.  The trie is built layer by layer, deepest first, on the
    packed monomials themselves: the lowest set bit names the variable,
    and one subtraction gives the parent.

    Node 0 is the empty word.  Level t lists, for each node of degree
    t + 1, its parent node and last variable, and nodes are numbered
    level by level, so evaluating one level is one pass over two lists.
    """
    monomials = list(monomials)
    exponents = map(int.to_bytes, monomials, itertools.repeat(nvars), itertools.repeat("little"))
    layers: list[set[int]] = [{0}]
    for m, degree in zip(monomials, map(sum, exponents)):
        while len(layers) <= degree:
            layers.append(set())
        layers[degree].add(m)
    nodes, links = [], []  # deepest layer first
    for t in reversed(range(1, len(layers))):
        layer = list(layers[t])
        variables = [((m & -m).bit_length() - 1) >> 3 for m in layer]
        parents = [m - (1 << 8 * k) for m, k in zip(layer, variables)]
        layers[t - 1].update(parents)
        nodes.append(layer)
        links.append((parents, variables))
    nodes.append([0])
    index = {m: i for i, m in enumerate(itertools.chain.from_iterable(reversed(nodes)))}
    levels = [(list(map(index.__getitem__, parents)), variables) for parents, variables in reversed(links)]
    return levels, index


def _split_plan(polys: Sequence[SparsePoly], nvars: int) -> tuple:
    """The polynomials compiled for `evaluate_many`: (split, levels,
    (coefficients, low nodes), (high nodes, group sizes), groups per
    polynomial).

    Every monomial splits into a low half, its variables below `split`,
    and a high half, the rest: low = m & ((1 << 8 * split) - 1) and
    high = m - low.  `split` is the first variable at which the
    exponents of the variables below it, summed over every term of
    every polynomial, reach half of all exponents.  Any split gives the
    same values; the midpoint keeps both halves short.  One trie
    (`_shared_trie`, whose `levels` are returned) holds the root and
    every distinct low and high half.

    Each polynomial's terms are grouped by high half, and the groups of
    all the polynomials are laid end to end: group g has one high node
    and its next `sizes[g]` terms, and polynomial i its next
    `counts[i]` groups.  The (4, 5) determinant splits below variable
    14, into 11,462 trie nodes and 244 groups; the 84 minors of (3, 6)
    split below variable 9, the alpha/gamma boundary, into 617 nodes
    and 1,398 groups.
    """
    terms = itertools.chain.from_iterable(p.terms for p in polys)
    packed = b"".join(map(int.to_bytes, terms, itertools.repeat(nvars), itertools.repeat("little")))
    totals = [sum(packed[k::nvars]) for k in range(nvars)]
    half, below, split = sum(totals), 0, 0
    while 2 * below < half:
        below += totals[split]
        split += 1
    mask = (1 << 8 * split) - 1
    by_poly, halves = [], set()
    for p in polys:
        groups: dict[int, list] = {}
        for m, c in p.terms.items():
            low = m & mask
            groups.setdefault(m - low, []).append((c, low))
            halves.add(low)
        halves.update(groups)
        by_poly.append(groups)
    levels, index = _shared_trie(halves, nvars)
    coeffs, lows, highs, sizes = [], [], [], []
    for groups in by_poly:
        for high, pairs in groups.items():
            for c, low in pairs:
                coeffs.append(c)
                lows.append(index[low])
            highs.append(index[high])
            sizes.append(len(pairs))
    return split, levels, (coeffs, lows), (highs, sizes), [len(groups) for groups in by_poly]


def evaluate_many(polys: Sequence[SparsePoly], points: Iterable[Sequence]) -> list[list]:
    """For each point, the value of every polynomial, each coerced into
    that polynomial's domain.

    All polynomials have the same number of variables, and every point
    gives one element per variable (ValueError otherwise).  Each
    monomial splits at the degree midpoint of the variables into a low
    and a high half, and the halves of all the polynomials are compiled
    once into one shared trie (`_split_plan`): the baby-step/giant-step
    idea of Paterson & Stockmeyer (SIAM J. Comput. 2, 1973) for sparse
    polynomials.  A polynomial's value is the sum, over its high halves
    h, of value(h) times the sum of c * value(low) over its terms with
    high half h.  A point then costs one multiplication per trie node,
    one per term for its coefficient, one per group for its high half,
    and one reduction per polynomial.  When every polynomial lies over
    one prime field GF(p), each trie level and each inner sum is also
    reduced mod p, which keeps the values small and, reduction mod p
    being a ring map, leaves every value as it was.
    """
    polys = list(polys)
    nvars = {p.ring.nvars for p in polys}
    if len(nvars) > 1:
        raise ValueError(f"polynomials in different numbers of variables: {sorted(nvars)}")
    domains = {p.ring.domain for p in polys}
    field = domains.pop() if len(domains) == 1 else None
    modulus = field.p if isinstance(field, PrimeField) else 0
    _, levels, (coeffs, lows), (highs, sizes), counts = _split_plan(polys, next(iter(nvars), 0))
    finish = list(zip([p.ring.domain.coerce for p in polys], counts))
    out = []
    for point in points:
        if nvars and {len(point)} != nvars:
            raise ValueError("point has wrong length")
        at = point.__getitem__
        values = [1]
        for parents, variables in levels:
            level = map(operator.mul, map(values.__getitem__, parents), map(at, variables))
            values += [v % modulus for v in level] if modulus else list(level)
        node = values.__getitem__
        products = map(operator.mul, coeffs, map(node, lows))
        inner = (sum(itertools.islice(products, k)) for k in sizes)
        inner = [v % modulus for v in inner] if modulus else list(inner)
        outer = map(operator.mul, map(node, highs), inner)
        out.append([coerce(sum(itertools.islice(outer, k))) for coerce, k in finish])
    return out


class _BlockLayoutFields(NamedTuple):
    d: int
    n: int


class BlockLayout(Validated, _BlockLayoutFields):
    """Row-major layout of the first d columns of End(V), the only ones a
    Kalman minor involves: x[i][j] (1-based, j <= d) has index
    (i-1)*d + (j-1).  The ring is k[alpha, gamma]: the top d x d block
    alpha acts on L, the bottom (n-d) x d block gamma maps L out of it."""

    __slots__ = ()

    def __new__(cls, d: int, n: int):
        if not 1 <= d < n:
            raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
        return tuple.__new__(cls, (d, n))

    def var_index(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.d):
            raise ValueError(f"matrix position ({i},{j}) out of range")
        return (i - 1) * self.d + (j - 1)

    def var_name(self, k: int) -> str:
        i, j = divmod(k, self.d)
        return f"x[{i + 1}][{j + 1}]"

    def ring(self, domain=ZZ) -> PolyRing:
        return PolyRing(self.n * self.d, domain, self.var_name)

    def alpha(self, ring: PolyRing) -> "PolyMatrix":
        """Top-left d x d block of generic variables."""
        d = self.d
        return PolyMatrix([
            [ring.var(self.var_index(i, j)) for j in range(1, d + 1)]
            for i in range(1, d + 1)
        ])

    def gamma(self, ring: PolyRing) -> "PolyMatrix":
        """Bottom-left (n-d) x d block of generic variables."""
        d, n = self.d, self.n
        return PolyMatrix([
            [ring.var(self.var_index(i, j)) for j in range(1, d + 1)]
            for i in range(d + 1, n + 1)
        ])


class PolyMatrix:
    """Dense matrix of SparsePoly entries."""

    def __init__(self, entries: Sequence[Sequence[SparsePoly]]):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        self.entries = entries
        self.nrows = len(entries)
        self.ncols = width
        self.ring = entries[0][0].ring

    def __getitem__(self, rc: tuple[int, int]) -> SparsePoly:
        r, c = rc
        return self.entries[r][c]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = self.ring.zero()
                for k in range(self.ncols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def stack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return PolyMatrix(self.entries + other.entries)

    def replace_rows(self, rows: Iterable[int], source: "PolyMatrix") -> "PolyMatrix":
        if source.nrows != self.nrows or source.ncols != self.ncols:
            raise ValueError("shape mismatch")
        rows = set(rows)
        return PolyMatrix([
            (source.entries[i] if i in rows else self.entries[i])
            for i in range(self.nrows)
        ])


# Term products that one `_minors` call may take, by its up-front bound.
# all_top_minors(4, 6) bounds at 6.5e7 and ran in 4 s and 215 MB; (4, 7)
# bounds at 8.6e8 and took 54 s and 1.85 GB, (5, 6) at 1.0e9 ran past
# 96 s, and (5, 7) at 4.7e13 ran past 150 s and 5 GB.  All three are
# refused before anything is expanded.
MAX_MINOR_PRODUCTS = 100_000_000


def _minors(
    entries: Sequence[Sequence[SparsePoly]],
    ring: PolyRing,
    picks: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[SparsePoly]:
    """The minor on each (rows, cols) pick, in the order given, by
    Laplace expansion along the first row of `rows`.

    A sub-minor is keyed by its remaining rows and columns, built once,
    shared by every minor that expands into it, and dropped after its
    last use.  Picks are computed highest rows first: the heaviest
    minors sit on the highest-degree rows, so their transients peak
    before the lighter results pile up.

    The expansion works on the terms dicts of the entries and of the
    sub-minors directly, since a packed monomial product is one int add.
    The degree of a pick is bounded by the sum of its rows' largest
    entry degrees, read from one table of entry degrees per call, and a
    bound over 255 raises ValueError (`check_degree`).

    The size of the work is bounded up front, in the pass that counts
    each sub-minor's uses: the products of no rows are 1, and those of a
    pick are the sum, over its first row's entries, of the entry's term
    count times the products of the sub-minor it multiplies.  Picks
    whose products sum to more than MAX_MINOR_PRODUCTS raise ValueError
    before any minor is expanded.
    """
    coerce = ring.domain.coerce
    picks = [(tuple(rows), tuple(cols)) for rows, cols in picks]
    uses: dict[tuple, int] = {}
    products: dict[tuple, int] = {}
    memo: dict[tuple, dict[int, object]] = {}

    def expansion(key):
        rows, cols = key
        for pos, c in enumerate(cols):
            e = entries[rows[0]][c].terms
            if e:
                yield pos, e, (rows[1:], cols[:pos] + cols[pos + 1:])

    def count(key):
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1:
            bound = 0 if key[0] else 1
            for _, e, sub in expansion(key):
                bound += len(e) * count(sub)
            products[key] = bound
        return products[key]

    def take(key):
        value = memo.get(key)
        if value is None:
            if not key[0]:
                value = {0: 1}
            else:
                acc: dict[int, object] = {}
                get = acc.get
                for pos, e, sub in expansion(key):
                    below = take(sub).items()
                    for ea, ca in e.items():
                        if pos % 2:
                            ca = -ca
                        for eb, cb in below:
                            m = ea + eb
                            acc[m] = get(m, 0) + ca * cb
                value = {m: v for m, c in acc.items() if (v := coerce(c))}
            memo[key] = value
        uses[key] -= 1
        if not uses[key]:
            del memo[key]
        return value

    degrees = [[e.degree() for e in row] for row in entries]
    work = 0
    for rows, cols in picks:
        check_degree(sum(max(0, *(degrees[r][c] for c in cols)) for r in rows), "a minor")
        work += count((rows, cols))
    if work > MAX_MINOR_PRODUCTS:
        raise ValueError(
            f"the minors take up to {work} term products, more than the limit of "
            f"{MAX_MINOR_PRODUCTS} (MAX_MINOR_PRODUCTS)"
        )
    order = sorted(range(len(picks)), key=lambda i: sorted(picks[i][0], reverse=True), reverse=True)
    values = {i: SparsePoly(ring, take(picks[i])) for i in order}
    return [values[i] for i in range(len(picks))]


def determinant(m: PolyMatrix) -> SparsePoly:
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    every = range(m.nrows)
    return _minors(m.entries, m.ring, [(every, every)])[0]


def minor(m: PolyMatrix, rows: Sequence[int], cols: Sequence[int]) -> SparsePoly:
    """Determinant of the square submatrix on the given rows and columns
    (0-based, each in range and none repeated), taken in the order
    given, so swapping two rows flips the sign.  No rows and no columns
    give one."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("repeated row or column index")
    if not all(0 <= r < m.nrows for r in rows) or not all(0 <= c < m.ncols for c in cols):
        raise ValueError(f"row or column index out of range for a {m.nrows} x {m.ncols} matrix")
    return _minors(m.entries, m.ring, [(rows, cols)])[0]


def reduced_kalman_matrix(d: int, n: int, domain=ZZ) -> PolyMatrix:
    """The stacked d(n-d) x d matrix whose block r is gamma * alpha^r,
    rows of block r homogeneous of degree r + 1."""
    layout = BlockLayout(d, n)
    ring = layout.ring(domain)
    alpha = layout.alpha(ring)
    gamma = layout.gamma(ring)
    block = gamma
    stacked = gamma
    for _ in range(1, d):
        block = block.matmul(alpha)
        stacked = stacked.stack(block)
    return stacked


def all_top_minors(d: int, n: int, domain=ZZ) -> list[tuple[tuple[int, ...], SparsePoly]]:
    """Every d x d minor of the reduced matrix with its row set, row sets
    in lexicographic order."""
    matrix = reduced_kalman_matrix(d, n, domain)
    picks = list(itertools.combinations(range(matrix.nrows), d))
    cols = range(d)
    polys = _minors(matrix.entries, matrix.ring, [(rows, cols) for rows in picks])
    return list(zip(picks, polys))


def wedge_trace(m: PolyMatrix, i: int) -> SparsePoly:
    """Trace of the i-th exterior power: sum of the principal i x i
    minors."""
    if m.nrows != m.ncols:
        raise ValueError("wedge trace needs a square matrix")
    if not 0 <= i <= m.nrows:
        raise ValueError(f"need 0 <= i <= {m.nrows}")
    principal = [(rows, rows) for rows in itertools.combinations(range(m.nrows), i)]
    return sum(_minors(m.entries, m.ring, principal), m.ring.zero())


def trace_identity_check(d: int, i: int) -> CheckReport:
    """Verify, on fully generic symbolic matrices, that the trace of the
    i-th exterior power of one matrix times the determinant of another
    equals the sum over size-i row sets of the determinant after
    replacing those rows with the corresponding rows of the product.
    Both sides have integer coefficients, so checking over ZZ is as
    strong as checking over the rationals."""
    if not 1 <= i <= d:
        raise ValueError(f"need 1 <= i <= d, got i={i}, d={d}")

    def namer(k: int) -> str:
        block, rest = divmod(k, d * d)
        r, c = divmod(rest, d)
        return f"{'ab'[block]}[{r + 1}][{c + 1}]"

    ring = PolyRing(2 * d * d, ZZ, namer)
    a_mat = PolyMatrix([[ring.var(r * d + c) for c in range(d)] for r in range(d)])
    alpha = PolyMatrix([[ring.var(d * d + r * d + c) for c in range(d)] for r in range(d)])
    lhs = wedge_trace(alpha, i) * determinant(a_mat)
    product = a_mat.matmul(alpha)
    rhs = ring.zero()
    for rows in itertools.combinations(range(d), i):
        rhs = rhs + determinant(a_mat.replace_rows(rows, product))
    diff = lhs - rhs
    details = [] if diff.is_zero() else [{"kind": "nonzero_difference", "difference": str(diff)}]
    return CheckReport(
        check="trace-minor-identity",
        params={"d": d, "i": i},
        details=details,
        data={"lhs_terms": len(lhs.terms), "rhs_terms": len(rhs.terms)},
    )
