"""Partition combinatorics: shapes, boxes, Weyl dimensions, tableau counts.

Conventions used across the package: a partition is a weakly decreasing
tuple of positive integers with trailing zeros trimmed; a box (r, c)
constrains a partition to at most r parts, each at most c; dimension
counts are exact integers.  Skew tableau counts come from the
Jacobi-Trudi determinant (Macdonald, Symmetric Functions, I.5), so their
cost is polynomial in the shape rather than proportional to the count.
`skew_schur_dim` is the validated entry for one shape; it picks the
smaller of the h- and e-forms and hands the shape to `_jacobi_trudi`.
The normalization loop needs s_{lam^T/mu^T}(1^m) for every lam of a
k x (n - k) box against one mu, and takes them all from one sweep per
mu, `_skew_dims_by_beta`, keyed by lam's beta-set: the bitmask with bit
lam_i - i + k - 1 set for each row i of lam padded to k rows
(`_beta_mask`), k set bits among n.  The partitions of a box are built
once per process, on first use; `partitions_in_box` hands each caller a
new list of the shared shapes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import index
from typing import Iterable, NamedTuple, Sequence


class Box(NamedTuple):
    """Containment constraint: at most `rows` parts, each at most `cols`."""

    rows: int
    cols: int


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    Trailing zeros are trimmed on construction, so equality and hashing
    agree with the underlying shape.  Raises ValueError on a sequence that
    is not weakly decreasing or has a negative entry, and TypeError on a
    non-integer entry.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(map(index, parts))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts!r}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part, 0-based, zero beyond the length."""
        return self[i] if 0 <= i < len(self) else 0

    def conjugate(self) -> "Partition":
        """Transpose the Young diagram (columns become rows)."""
        return _trusted(tuple(sum(1 for a in self if a > j) for j in range(self.part(0))))

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other fits inside self row by row."""
        return all(self.part(i) >= other.part(i) for i in range(len(other)))

    def padded(self, length: int) -> tuple[int, ...]:
        """Parts extended with zeros to exactly `length` entries."""
        if len(self) > length:
            raise ValueError(f"partition {self!r} longer than {length}")
        return tuple(self) + (0,) * (length - len(self))

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}"


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A Partition from parts that are one by construction: weakly
    decreasing positive ints.  Skips the checks of Partition(...)."""
    return tuple.__new__(Partition, parts)


class SkewShape(NamedTuple):
    """Skew diagram outer/inner; inner must be contained in outer.

    `SkewShape.of` validates outside input; the plain constructor trusts
    a caller that holds two Partitions with containment already known."""

    outer: Partition
    inner: Partition

    @staticmethod
    def of(outer: Iterable[int], inner: Iterable[int] = ()) -> "SkewShape":
        outer_p, inner_p = Partition(outer), Partition(inner)
        if not outer_p.contains(inner_p):
            raise ValueError(f"inner {inner_p!r} not contained in outer {outer_p!r}")
        return SkewShape(outer_p, inner_p)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size


def partitions_in_box(box: Box | tuple[int, int]) -> list[Partition]:
    """All partitions contained in the box, as a new list the caller may
    change; the shapes are shared, built once per box.

    Order is deterministic: graded by size, then lexicographically
    descending within a size.
    """
    box = Box(*map(index, box))
    if box.rows < 0 or box.cols < 0:
        raise ValueError(f"box sides must be nonnegative: {box}")
    return list(_box_partitions(*box))


@lru_cache(maxsize=None)
def _box_partitions(rows: int, cols: int) -> tuple[Partition, ...]:
    """The partitions of `partitions_in_box`, for sides it has checked."""
    out: list[Partition] = []

    def extend(prefix: list[int], bound: int) -> None:
        out.append(_trusted(tuple(prefix)))
        if len(prefix) == rows:
            return
        for a in range(1, bound + 1):
            prefix.append(a)
            extend(prefix, a)
            prefix.pop()

    extend([], cols)
    out.sort(key=lambda p: (p.size, tuple(-a for a in p)))
    return tuple(out)


def schur_dim(eta: Sequence[int], m: int) -> int:
    """Dimension of the irreducible GL(m) representation with highest
    weight eta, by the Weyl dimension product.

    eta must be weakly decreasing integers and m an integer (TypeError
    otherwise); entries may be negative.  A partition with more than m
    parts has dimension 0.  Exact integer arithmetic; the product is
    cached on the checked and padded weight.
    """
    eta, m = tuple(map(index, eta)), index(m)
    for a, b in zip(eta, eta[1:]):
        if a < b:
            raise ValueError(f"weight must be weakly decreasing: {eta!r}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if len(eta) > m:
        tail = eta[m:]
        if all(a == 0 for a in tail):
            eta = eta[:m]
        elif tail[0] > 0 and eta[-1] >= 0:
            return 0
        else:
            raise ValueError(f"weight {eta!r} has negative entries beyond length {m}")
    if len(eta) < m:
        if eta and eta[-1] < 0:
            raise ValueError(f"cannot zero-pad {eta!r} to length {m}")
        eta = eta + (0,) * (m - len(eta))
    return _weyl_product(eta, m)


@lru_cache(maxsize=None)
def _weyl_product(eta: tuple[int, ...], m: int) -> int:
    """The Weyl dimension product for a weight `schur_dim` has checked
    and padded to length m.  Cached: the resolution route asks for the
    same few weights many times (8,988 calls, 924 distinct, in
    `chain_resolution(1, 6, 12)`)."""
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= eta[i] - eta[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def _det(a: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix by fraction-free
    (Bareiss) elimination; every division is exact.  Consumes `a`."""
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def _h_row(m: int, length: int) -> list[int]:
    """h_k(1^m) = C(m-1+k, k) for k < length."""
    return [comb(m - 1 + k, k) for k in range(length)]


def _e_row(m: int, length: int) -> list[int]:
    """e_k(1^m) = C(m, k) for k < length."""
    return [comb(m, k) for k in range(length)]


def _jacobi_trudi(outer: Sequence[int], inner: Sequence[int], coeffs: Sequence[int]) -> int:
    """det[coeffs[outer_i - inner_j - i + j]] over i, j < len(outer), an
    entry being 0 where its index is negative.  With coeffs an h-row or
    an e-row this is the Jacobi-Trudi determinant of outer/inner.

    Trusts its caller: outer is a partition, inner one contained in it
    (read as zero beyond its length), and coeffs reaches index
    outer[0] + len(outer) - 1."""
    rows = len(outer)
    if rows < 2:
        return coeffs[outer[0] - (inner[0] if inner else 0)] if rows else 1
    cols = [b - j for j, b in enumerate(inner)] + [-j for j in range(len(inner), rows)]
    return _det(
        [[coeffs[k] if k >= 0 else 0 for k in [a - i - b for b in cols]]
         for i, a in enumerate(outer)]
    )


def _beta_mask(parts: Sequence[int]) -> int:
    """The beta-set key of a partition padded to k = len(parts) rows.
    The k x (n - k) box holds one partition per k-subset of 0..n-1."""
    k = len(parts)
    mask = 0
    for i, a in enumerate(parts):
        mask |= 1 << (a - i + k - 1)
    return mask


def _skew_dims_by_beta(mu_pad: Sequence[int], n: int, m: int) -> dict[int, int]:
    """s_{lam^T/mu^T}(1^m) for every lam in the k x (n - k) box at once,
    k = len(mu_pad), keyed by lam's beta-set (`_beta_mask`); a lam that
    does not contain mu has 0 or no entry, as has a zero dimension.

    By the dual Jacobi-Trudi identity the dimension is
    det[e_{lam_i - mu_j - i + j}(1^m)], whose row i holds
    C(m, a_i - base_j) in column j, with a_i lam's i-th beta and
    base_j = k - 1 + mu_j - j; the entry is nonzero only for
    0 <= a_i - base_j <= m.  So every lam's matrix is a k-row choice of
    the rows of one banded n x k matrix.  The sweep expands all the
    determinants along their columns at once: after column j, `minors`
    maps each set of used rows to its minor on the first j + 1 columns,
    and a row a taken for column j carries the sign
    (-1)^(j + used rows above a), rows ordered by decreasing beta.  The
    band is walked from its top row down, so that sign flips at each
    used row passed."""
    k = len(mu_pad)
    e_row = _e_row(m, m + 1)
    minors = {0: 1}
    for j, b in enumerate(mu_pad):
        base = k - 1 + b - j
        top = min(base + m, n - 1)
        band = [(1 << a, e_row[a - base]) for a in range(top, base - 1, -1)]
        extended: dict[int, int] = {}
        get = extended.get
        for used, minor in minors.items():
            if (j + (used >> top >> 1).bit_count()) & 1:
                minor = -minor
            for bit, e in band:
                if used & bit:
                    minor = -minor
                else:
                    key = used | bit
                    extended[key] = get(key, 0) + minor * e
        minors = extended
    return minors


def skew_schur_dim(shape: SkewShape, m: int) -> int:
    """Number of semistandard tableaux of the skew shape with entries
    in 1..m (= dim of the skew Schur functor applied to an m-dim space).

    Jacobi-Trudi: s_{lam/mu}(1^m) = det[h_{lam_i - mu_j - i + j}(1^m)] with
    h_k(1^m) = C(m-1+k, k), or the dual form det[e_{lam'_i - mu'_j - i + j}]
    on the conjugates with e_k(1^m) = C(m, k); the smaller matrix is used.
    h_k = e_k = 0 for k < 0, and h_0 = e_0 = 1.  This is the public
    entry for one shape.  The normalization loop reads the same numbers
    from `_skew_dims_by_beta`, one table per mu, and this route is that
    table's test oracle.
    """
    if shape.size == 0:
        return 1
    if m <= 0:
        return 0
    outer, inner = shape.outer, shape.inner
    length = outer[0] + len(outer)
    if len(outer) > outer[0]:
        return _jacobi_trudi(outer.conjugate(), inner.conjugate(), _e_row(m, length))
    return _jacobi_trudi(outer, inner, _h_row(m, length))
