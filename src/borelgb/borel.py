"""Principal Borel ideals as combinatorics: closures, membership, minimal divisors.

A Borel move replaces one occurrence of x_j by x_i with i < j (it moves mass
toward smaller positions).  Borel(M) is the set of monomials reachable from M
by such moves, equivalently the monomials m of the same degree whose suffix
sums satisfy sigma_i(m) <= sigma_i(M) for every position i.  Moves may be
restricted to a support set S, in which case both endpoints of every move must
lie in S.

The suffix-sum test extends multiplicatively: Borel(M^k) is cut out by
sigma_i <= k * sigma_i(M), so powers never need to be materialized.
"""

from __future__ import annotations

import itertools

from .monomials import Monomial


def _suffix_caps(exps, support=None):
    """(slots, caps): the 0-based positions Borel moves inside `support` may
    use, last first, and the suffix sums of the exponent tuple `exps` over
    them, caps[u] being its mass at slots[0..u].  Without `support` every
    position moves; a support outside 1..n raises ValueError."""
    n = len(exps)
    if support is None:
        return tuple(range(n - 1, -1, -1)), tuple(itertools.accumulate(reversed(exps)))
    allowed = tuple(sorted(set(support)))
    if allowed and not (1 <= allowed[0] and allowed[-1] <= n):
        raise ValueError(f"support {allowed} outside 1..{n}")
    slots = tuple(p - 1 for p in reversed(allowed))
    return slots, tuple(itertools.accumulate(exps[i] for i in slots))


def borel_closure(m, support=None):
    """All monomials reachable from m by Borel moves, ascending grevlex.

    With `support`, only moves between positions inside `support` are allowed;
    the other positions keep m's exponents.  The members are those of
    `closure_exps`, each made once as a `Monomial`.
    """
    deg = m.deg
    return tuple(Monomial._of(e, deg) for e in closure_exps(m.exps, support))


def closure_exps(exps, support=None):
    """The exponent tuples of `borel_closure`, in its order, one at a time.

    The members are the exponent vectors whose suffix sums over the movable
    positions stay within those of `exps`.  Walking those positions from last
    to first, each takes every exponent its suffix cap allows, largest first,
    and the first movable position takes the remainder: an odometer that
    lists the closure in ascending grevlex.  A support outside 1..n raises
    ValueError in place of the first tuple.
    """
    slots, caps = _suffix_caps(exps, support)
    yield exps
    exps = list(exps)
    while True:
        # Slots run from the last movable position to the first; the first
        # position only takes the remainder, so it never gives up a unit.
        r = len(slots) - 2
        while r >= 0 and not exps[slots[r]]:
            r -= 1
        if r < 0:
            return
        exps[slots[r]] -= 1
        # Slots r + 1 .. -2 are empty, so slots 0 .. r hold all the movable
        # mass but the remainder's, less the unit just taken.
        taken = caps[-1] - exps[slots[-1]] - 1
        for u in range(r + 1, len(slots)):
            exps[slots[u]] = caps[u] - taken
            taken = caps[u]
        yield tuple(exps)


def borel_member(m, M, k=1):
    """Whether m lies in Borel(M^k), the products of k members of Borel(M):
    of the right degree, it is exactly when it is its own least divisor."""
    if m.n != M.n:
        raise ValueError("ambient mismatch in membership test")
    if m.deg != k * M.deg:
        return False
    return _least_divisor(*_suffix_caps(M.exps), k, m.exps) == m.exps


def min_borel_divisor(M, k, mu, support=None):
    """The least member of Borel(M^k) dividing mu, or None when there is none.

    "Least" is in the Borel order; the minimum exists whenever a divisor
    exists and is characterized by having the largest suffix sums among the
    divisors.  Computed greedily from the last movable position to the first:
    each takes as much of mu as the suffix-sum budget k * caps allows.  With
    `support`, only those positions move and the divisor uses no others; its
    degree is k times M's mass on them.
    """
    if M.n != mu.n:
        raise ValueError("ambient mismatch in minimal divisor")
    if k < 0:
        raise ValueError("negative power")
    slots, caps = _suffix_caps(M.exps, support)
    exps = _least_divisor(slots, caps, k, mu.exps)
    if exps is None:
        return None
    return Monomial._of(exps, sum(exps))


def _least_divisor(slots, caps, k, mu):
    """The exponents of `min_borel_divisor` for a pivot with `_suffix_caps`
    (slots, caps) and the exponent tuple mu, or None: each slot, last
    position first, takes as much of mu as the suffix-sum budget k * caps
    allows."""
    exps = [0] * len(mu)
    taken = 0  # suffix sum of the divisor built so far
    for i, c in zip(slots, caps):
        # The caps only grow, so no slot takes past the last one's k * cap.
        e = min(mu[i], k * c - taken)
        exps[i] = e
        taken += e
    if taken < (k * caps[-1] if caps else 0):
        return None
    return tuple(exps)
