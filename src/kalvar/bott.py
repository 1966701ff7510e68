"""Weyl-group dotted action on GL(d) weights and cohomology of the
Grassmannian bundles indexed by a partition pair.

A weight of length d is shifted by rho = (d-1, ..., 1, 0).  A repeated
entry in the shifted weight kills all cohomology; otherwise a unique
permutation sorts it strictly decreasing, the cohomological degree is
that permutation's inversion count, and the resulting dominant weight is
the sorted vector minus rho.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import Partition, schur_dim
from .report import CheckReport


def rho(d: int) -> tuple[int, ...]:
    """Half sum of positive roots for GL(d), as (d-1, ..., 1, 0)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return tuple(range(d - 1, -1, -1))


@dataclass(frozen=True)
class BottOutcome:
    """Either all cohomology vanishes, or it sits in a single degree with
    a single dominant weight."""

    vanishes: bool
    degree: int | None
    eta: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.vanishes != (self.degree is None) or self.vanishes != (self.eta is None):
            raise ValueError("degree and eta must be present iff cohomology survives")


def dotted_bott(nu: Sequence[int]) -> BottOutcome:
    """Resolve the dotted action w.(nu) = w(nu + rho) - rho.

    Returns vanishing when nu + rho has a repeated entry; otherwise the
    unique sorted representative, with degree equal to the number of
    out-of-order pairs in nu + rho.
    """
    nu = tuple(int(a) for a in nu)
    d = len(nu)
    r = rho(d)
    shifted = tuple(a + b for a, b in zip(nu, r))
    srt = tuple(sorted(shifted, reverse=True))
    if any(a == b for a, b in zip(srt, srt[1:])):
        return BottOutcome(True, None, None)
    inv = sum(
        1
        for i in range(d)
        for j in range(i + 1, d)
        if shifted[i] < shifted[j]
    )
    eta = tuple(a - b for a, b in zip(srt, r))
    return BottOutcome(False, inv, eta)


@dataclass(frozen=True)
class BundleTerm:
    """Homogeneous bundle on the Grassmannian of s-planes in a d-dim
    space: Schur functor `lam` on the tautological subbundle tensored
    with Schur functor `mu_t` on the dual of the quotient bundle."""

    lam: Partition
    mu_t: Partition
    s: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", Partition(self.lam))
        object.__setattr__(self, "mu_t", Partition(self.mu_t))
        if not 0 <= self.s <= self.d:
            raise ValueError(f"need 0 <= s <= d, got s={self.s}, d={self.d}")
        if self.lam.length > self.s:
            raise ValueError(f"lam {self.lam!r} has more than s={self.s} parts")
        if self.mu_t.length > self.d - self.s:
            raise ValueError(f"mu_t {self.mu_t!r} has more than d-s={self.d - self.s} parts")


def bundle_weight(term: BundleTerm) -> tuple[int, ...]:
    """Full length-d weight of the bundle: the quotient-bundle block is
    zeros followed by the negated reverse of mu_t, then lam's parts
    padded with zeros to length s."""
    q_len = term.d - term.s
    q_block = (0,) * (q_len - term.mu_t.length) + tuple(-a for a in reversed(term.mu_t))
    r_block = term.lam.padded(term.s)
    return q_block + r_block


def bundle_cohomology(term: BundleTerm) -> tuple[BottOutcome, int]:
    """Dotted action applied to the bundle's weight, plus the dimension
    of the resulting GL(d) representation (0 if cohomology vanishes)."""
    outcome = dotted_bott(bundle_weight(term))
    if outcome.vanishes:
        return outcome, 0
    return outcome, schur_dim(outcome.eta, term.d)


def _perm_inversions(perm: tuple[int, ...]) -> int:
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def exhaustive_dotted_check(max_d: int = 5, lo: int = -4, hi: int = 6) -> CheckReport:
    """Check dotted_bott against the all-permutations definition on every
    weight with entries in [lo, hi] for each length up to max_d.

    The reference scans all d! permutations of nu + rho: vanishing means
    no permutation sorts it strictly, otherwise exactly one does and its
    inversion count is the degree.  Vectorized over the weight grid.
    """
    if max_d < 1 or lo > hi:
        raise ValueError("need max_d >= 1 and lo <= hi")
    details: list[dict] = []
    per_d = []
    for d in range(1, max_d + 1):
        axes = [np.arange(lo, hi + 1)] * d
        grid = np.meshgrid(*axes, indexing="ij")
        weights = np.stack(grid, axis=-1).reshape(-1, d)
        r = np.array(rho(d), dtype=np.int64)
        shifted = weights + r
        n = shifted.shape[0]
        sorter_count = np.zeros(n, dtype=np.int64)
        ref_degree = np.full(n, -1, dtype=np.int64)
        ref_eta = np.zeros((n, d), dtype=np.int64)
        for perm in itertools.permutations(range(d)):
            ps = shifted[:, perm]
            if d > 1:
                strict = np.all(ps[:, :-1] > ps[:, 1:], axis=1)
            else:
                strict = np.ones(n, dtype=bool)
            sorter_count += strict
            ref_degree[strict] = _perm_inversions(perm)
            ref_eta[strict] = ps[strict] - r
        bad_multiplicity = int(np.count_nonzero(sorter_count > 1))
        if bad_multiplicity:
            details.append({"d": d, "weights_with_multiple_sorters": bad_multiplicity})
        vanishing = 0
        for k, nu in enumerate(itertools.product(range(lo, hi + 1), repeat=d)):
            out = dotted_bott(nu)
            if out.vanishes:
                vanishing += 1
            ref_vanishes = sorter_count[k] == 0
            ok = out.vanishes == ref_vanishes and (
                out.vanishes
                or (
                    out.degree == int(ref_degree[k])
                    and out.eta == tuple(int(a) for a in ref_eta[k])
                )
            )
            if not ok and len(details) < 20:
                details.append(
                    {
                        "d": d,
                        "nu": list(nu),
                        "got": {"vanishes": out.vanishes, "degree": out.degree, "eta": out.eta},
                        "reference": {
                            "vanishes": bool(ref_vanishes),
                            "degree": int(ref_degree[k]),
                            "eta": [int(a) for a in ref_eta[k]],
                        },
                    }
                )
        per_d.append({"d": d, "weights": n, "vanishing": vanishing})
    return CheckReport(
        check="bott-exhaustive",
        params={"max_d": max_d, "lo": lo, "hi": hi},
        passed=not details,
        details=details,
        data={"per_d": per_d},
    )
