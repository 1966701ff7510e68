"""Weyl-group dotted action on GL(d) weights and cohomology of the
Grassmannian bundles indexed by a partition pair.

A weight of length d is shifted by rho = (d-1, ..., 1, 0).  A repeated
entry in the shifted weight kills all cohomology; otherwise a unique
permutation sorts it strictly decreasing, the cohomological degree is
that permutation's inversion count, and the resulting dominant weight is
the sorted vector minus rho.  A bundle is given by its pieces
(lam, mu_t, s, d), checked once where they come in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

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


def bundle_weight(
    lam: Sequence[int], mu_t: Sequence[int], s: int, d: int
) -> tuple[int, ...]:
    """Full length-d weight of the bundle on the Grassmannian of s-planes
    in a d-dim space: Schur functor `lam` on the tautological subbundle
    tensored with Schur functor `mu_t` on the dual of the quotient
    bundle.  That is zeros, the negated reverse of mu_t, then lam padded
    with zeros to length s.  Needs 0 <= s <= d, at most s parts in lam
    and at most d-s in mu_t; a Partition is used as it is, any other
    sequence is validated as one."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu_t = mu_t if isinstance(mu_t, Partition) else Partition(mu_t)
    if not 0 <= s <= d:
        raise ValueError(f"need 0 <= s <= d, got s={s}, d={d}")
    if len(lam) > s:
        raise ValueError(f"lam {lam!r} has more than s={s} parts")
    if len(mu_t) > d - s:
        raise ValueError(f"mu_t {mu_t!r} has more than d-s={d - s} parts")
    q_block = (0,) * (d - s - len(mu_t)) + tuple(-a for a in reversed(mu_t))
    return q_block + lam + (0,) * (s - len(lam))


def bundle_cohomology(
    lam: Sequence[int], mu_t: Sequence[int], s: int, d: int
) -> tuple[BottOutcome, int]:
    """Dotted action applied to the bundle's weight (see bundle_weight),
    plus the dimension of the resulting GL(d) representation (0 if
    cohomology vanishes)."""
    outcome = dotted_bott(bundle_weight(lam, mu_t, s, d))
    if outcome.vanishes:
        return outcome, 0
    return outcome, schur_dim(outcome.eta, d)


def _inverse_dotted_map(
    d: int, lo: int, hi: int
) -> tuple[dict[tuple[int, ...], tuple[int, tuple[int, ...]]], int]:
    """Run the dotted action backwards over the window [lo, hi]^d.

    Every strictly decreasing srt with entries in [lo, hi+d-1] and every
    permutation w give the preimage nu[w[i]] = srt[i] - rho[w[i]]: w
    sorts nu + rho into srt, so by definition the degree is inv(w) and
    eta = srt - rho.  Returns the map nu -> (inv(w), eta) over the
    preimages inside the window and the number of weights hit more than
    once.
    """
    r = rho(d)
    # Walk w through its inverse u, so that nu[j] = srt[u[j]] - rho[j];
    # inv(u) == inv(w).
    perms = [
        (u, sum(1 for i in range(d) for j in range(i + 1, d) if u[i] > u[j]))
        for u in itertools.permutations(range(d))
    ]
    ref: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    repeated: set[tuple[int, ...]] = set()
    for srt in itertools.combinations(range(hi + d - 1, lo - 1, -1), d):
        eta = tuple(a - b for a, b in zip(srt, r))
        for u, inv in perms:
            nu = tuple(srt[k] - b for k, b in zip(u, r))
            if lo <= min(nu) and max(nu) <= hi:
                if nu in ref:
                    repeated.add(nu)
                ref[nu] = (inv, eta)
    return ref, len(repeated)


def exhaustive_dotted_check(max_d: int = 5, lo: int = -4, hi: int = 6) -> CheckReport:
    """Check dotted_bott against the definition run backwards on every
    weight with entries in [lo, hi] for each length up to max_d.

    The reference, `_inverse_dotted_map`, neither sorts nor calls
    dotted_bott: no weight may be reached twice, a weight it reaches must
    survive with the degree and eta it records, and every weight it
    never reaches must vanish.
    """
    if max_d < 1 or lo > hi:
        raise ValueError("need max_d >= 1 and lo <= hi")
    details: list[dict] = []
    per_d = []
    for d in range(1, max_d + 1):
        ref, bad_multiplicity = _inverse_dotted_map(d, lo, hi)
        if bad_multiplicity:
            details.append({"d": d, "weights_with_multiple_sorters": bad_multiplicity})
        vanishing = 0
        for nu in itertools.product(range(lo, hi + 1), repeat=d):
            out = dotted_bott(nu)
            if out.vanishes:
                vanishing += 1
            hit = ref.get(nu)
            if out.vanishes == (hit is None) and (out.vanishes or (out.degree, out.eta) == hit):
                continue
            if len(details) < 20:
                ref_degree, ref_eta = hit if hit else (-1, (0,) * d)
                details.append(
                    {
                        "d": d,
                        "nu": list(nu),
                        "got": {"vanishes": out.vanishes, "degree": out.degree, "eta": out.eta},
                        "reference": {
                            "vanishes": hit is None,
                            "degree": ref_degree,
                            "eta": list(ref_eta),
                        },
                    }
                )
        per_d.append({"d": d, "weights": (hi - lo + 1) ** d, "vanishing": vanishing})
    return CheckReport(
        check="bott-exhaustive",
        params={"max_d": max_d, "lo": lo, "hi": hi},
        passed=not details,
        details=details,
        data={"per_d": per_d},
    )
