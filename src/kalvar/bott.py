"""Weyl-group dotted action on GL(d) weights and cohomology of the
Grassmannian bundles indexed by a partition pair.

A weight of length d is shifted by rho = (d-1, ..., 1, 0).  A repeated
entry in the shifted weight kills all cohomology; otherwise a unique
permutation sorts it strictly decreasing, the cohomological degree is
that permutation's inversion count, and the resulting dominant weight is
the sorted vector minus rho.  A bundle is given by its pieces
(lam, mu_t, s, d), checked once where they come in.

`dotted_bott` does its per-weight work in builtins (`map`, `set`,
`sorted`, `itertools.combinations`), and every vanishing weight gets the
one shared vanishing outcome.  The normalization loop holds each bundle
weight as two halves that are strictly decreasing once shifted, and
`_dotted_halves` resolves it by merging them: a shared entry vanishes,
the degree counts the out-of-order pairs across the halves, and eta is
the merge minus rho; `dotted_bott` is its oracle.

`exhaustive_dotted_check` is the independent oracle of `dotted_bott`:
it runs the action backwards, reaching for each permutation only the
preimages that lie in the window, into a dense table with one slot per
weight, and it refuses a window whose weights and permutations together
exceed MAX_EXHAUSTIVE_WORK.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from itertools import combinations, starmap
from operator import add, index, lt, mul, sub
from typing import NamedTuple, Sequence

from .partitions import Partition, schur_dim
from .report import CheckReport, Validated

# Weights plus permutations that one exhaustive_dotted_check may walk.
# Lengths 1..6 over an 11-value window (1,949,589) fit; --max-d 9 over
# [-10, 10] (about 8e11) or --max-d 13 over a single value (13! alone is
# 6e9) would run for hours and are refused before anything is built.
MAX_EXHAUSTIVE_WORK = 2_000_000


@cache
def rho(d: int) -> tuple[int, ...]:
    """Half sum of positive roots for GL(d), as (d-1, ..., 1, 0)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return tuple(range(d - 1, -1, -1))


class _BottOutcomeFields(NamedTuple):
    vanishes: bool
    degree: int | None
    eta: tuple[int, ...] | None


class BottOutcome(Validated, _BottOutcomeFields):
    """Either all cohomology vanishes, or it sits in a single degree with
    a single dominant weight."""

    __slots__ = ()

    def __new__(cls, vanishes: bool, degree: int | None, eta: tuple[int, ...] | None):
        if vanishes != (degree is None) or vanishes != (eta is None):
            raise ValueError("degree and eta must be present iff cohomology survives")
        return tuple.__new__(cls, (vanishes, degree, eta))


_VANISHES = BottOutcome(True, None, None)


def dotted_bott(nu: Sequence[int]) -> BottOutcome:
    """Resolve the dotted action w.(nu) = w(nu + rho) - rho.

    Returns vanishing when nu + rho has a repeated entry; otherwise the
    unique sorted representative, with degree equal to the number of
    out-of-order pairs in nu + rho.  Entries must be integers
    (`operator.index`); anything else raises TypeError.
    """
    d = len(nu)
    r = rho(d)
    shifted = tuple(map(add, map(index, nu), r))
    if len(set(shifted)) < d:
        return _VANISHES
    inv = sum(starmap(lt, combinations(shifted, 2)))
    return BottOutcome(False, inv, tuple(map(sub, sorted(shifted, reverse=True), r)))


def _dotted_halves(
    upper: tuple[int, ...], lower: tuple[int, ...]
) -> tuple[int, tuple[int, ...]] | None:
    """The dotted action on the weight nu whose shifted form nu + rho is
    upper followed by lower, each strictly decreasing: None where they
    share an entry (cohomology vanishes), else (degree, eta) as
    dotted_bott gives them.  Only pairs across the halves can be out of
    order, so the degree is #{(i, j): upper[i] < lower[j]}, and eta is
    the merge of the halves minus rho.  Trusts its caller: int entries,
    both halves strictly decreasing; dotted_bott is its oracle."""
    if not set(upper).isdisjoint(lower):
        return None
    inv = sum(itertools.starmap(lt, itertools.product(upper, lower)))
    merged = sorted(upper + lower, reverse=True)
    return inv, tuple(map(sub, merged, rho(len(merged))))


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
    cohomology vanishes).  The normalization loop computes the same from
    weight halves it builds once; this checked route is its test oracle."""
    outcome = dotted_bott(bundle_weight(lam, mu_t, s, d))
    if outcome.vanishes:
        return outcome, 0
    return outcome, schur_dim(outcome.eta, d)


def _inverse_dotted_map(
    d: int, lo: int, hi: int
) -> tuple[list[tuple[int, tuple[int, ...]] | None], int]:
    """Run the dotted action backwards over the window [lo, hi]^d.

    Every strictly decreasing srt and every permutation w give the
    preimage nu[w[i]] = srt[i] - rho[w[i]]: w sorts nu + rho into srt, so
    by definition the degree is inv(w) and eta = srt - rho.  srt is
    strictly decreasing exactly when eta is weakly decreasing, so the
    enumeration runs over eta, whose entries then lie in [lo, hi] too.
    For each w only the eta whose preimage lies in the window are
    walked, one entry at a time.

    The result is a dense table with one slot per weight of the window,
    in the order of itertools.product(range(lo, hi + 1), repeat=d): nu
    sits at slot sum((nu[j] - lo) * place[j]), place[j] = width^(d-1-j),
    which holds (inv(w), eta) for a preimage and None otherwise.  The
    walk carries each prefix's slot instead of the prefix, so no nu is
    built and nothing is looked up by a tuple; each eta is a weight of
    the window itself, one tuple shared by all its preimages and found
    by its own slot.  Returns the table and the number of weights hit
    more than once.
    """
    r = rho(d)
    width = hi - lo + 1
    place = [width ** (d - 1 - j) for j in range(d)]
    offset = lo * sum(place)  # the slot of nu is sum(nu[j] * place[j]) - offset
    table: list[tuple[int, tuple[int, ...]] | None] = [None] * width**d
    etas = {
        sum(map(mul, eta, place)) - offset: eta
        for eta in itertools.combinations_with_replacement(range(hi, lo - 1, -1), d)
    }
    repeated: set[int] = set()
    # Walk w through its inverse u, so that nu[j] = eta[u[j]] + shift[j]
    # with shift[j] = rho[u[j]] - rho[j]; inv(u) == inv(w).
    for u in itertools.permutations(range(d)):
        inv = sum(1 for i in range(d) for j in range(i + 1, d) if u[i] > u[j])
        shift = [r[k] - b for k, b in zip(u, r)]
        # lo <= nu[j] <= hi puts eta[u[j]] in [lo - shift[j], hi - shift[j]],
        # and eta[u[j]] adds eta[u[j]] * place[j] to the slot of nu.
        low, high, step = [0] * d, [0] * d, [0] * d
        for k, c, pl in zip(u, shift, place):
            low[k], high[k], step[k] = lo - c, hi - c, pl
        # Tighten the ranges by the weak decrease, so that every prefix
        # built below extends to a full eta.
        for k in range(d - 2, -1, -1):
            low[k] = max(low[k], low[k + 1])
        for k in range(1, d):
            high[k] = min(high[k], high[k - 1])
        if any(a > b for a, b in zip(low, high)):
            continue
        # A prefix is (its last entry, the slot of nu so far, the slot of
        # eta so far); the first entry is capped by high[0] alone.
        prefixes = [(high[0], sum(map(mul, shift, place)) - offset, -offset)]
        for a, b, pl, epl in zip(low[:-1], high[:-1], step[:-1], place[:-1]):
            prefixes = [(x, s + x * pl, e + x * epl) for c, s, e in prefixes for x in range(a, min(c, b) + 1)]
        # place[-1] is 1, so the last entry x adds x to the slot of eta.
        a, b, pl = low[-1], high[-1], step[-1]
        for c, s, e in prefixes:
            for x in range(a, min(c, b) + 1):
                k = s + x * pl
                if table[k] is not None:
                    repeated.add(k)
                table[k] = (inv, etas[e + x])
    return table, len(repeated)


def exhaustive_dotted_check(max_d: int = 5, lo: int = -4, hi: int = 6) -> CheckReport:
    """Check dotted_bott against the definition run backwards on every
    weight with entries in [lo, hi] for each length up to max_d.

    The reference, `_inverse_dotted_map`, neither sorts nor calls
    dotted_bott: no weight may be reached twice, a weight it reaches must
    survive with the degree and eta it records, and every weight it
    never reaches must vanish.  The reference is a dense table in the
    order of itertools.product over the window, so the weights and their
    slots are walked side by side and no weight is looked up.  A window
    whose (hi - lo + 1)^d weights (the table's slots) and d!
    permutations, summed over d, exceed MAX_EXHAUSTIVE_WORK raises
    ValueError before anything is built.
    """
    if max_d < 1 or lo > hi:
        raise ValueError("need max_d >= 1 and lo <= hi")
    work = 0
    for d in range(1, max_d + 1):
        work += (hi - lo + 1) ** d + math.factorial(d)
        if work > MAX_EXHAUSTIVE_WORK:
            raise ValueError(
                f"an exhaustive check up to d={max_d} over [{lo}, {hi}] walks more than "
                f"the limit of {MAX_EXHAUSTIVE_WORK} weights and permutations"
            )
    details: list[dict] = []
    per_d = []
    for d in range(1, max_d + 1):
        table, bad_multiplicity = _inverse_dotted_map(d, lo, hi)
        if bad_multiplicity:
            details.append({"d": d, "weights_with_multiple_sorters": bad_multiplicity})
        vanishing = 0
        for nu, hit in zip(itertools.product(range(lo, hi + 1), repeat=d), table, strict=True):
            out = dotted_bott(nu)
            if out.vanishes:
                vanishing += 1
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
        details=details,
        data={"per_d": per_d},
    )
