"""Sorted factorizations: write mu as a product of k Borel(M) members, canonically.

`borel_sort` produces the unique weakly decreasing (grevlex) factorization of
mu into k members of Borel(M) whose product is Borel-least among all such
factorizations' coordinatewise data; it is the lex-least point of the fiber of
the k-fold multiplication map over mu.  The recursion splits mu at its largest
variable x_s: writing the x_s-exponent A = q*k + r, exactly r factors receive
x_s^(q+1) and k - r receive x_s^q, and the two groups are sorted recursively
against the truncated pivots of `_split`.  The recursion runs on
exponent tuples, from an explicit work list; only the k factors returned
become monomials.
"""

from __future__ import annotations

import operator

from .borel import _least_divisor, _suffix_caps, borel_member
from .monomials import Monomial


def _split(P, caps, s, E):
    """The truncated pivot for the recursion, with the x_s part divided out.

    For the pivot exponents P of degree d, with suffix sums `caps`, this is
    the exponent tuple of gamma / x_s^E, gamma the Borel-least monomial of
    degree d supported on positions <= s with x_s-exponent exactly E:
    positions below s - 1 keep P's exponents, and position s - 1 absorbs
    sigma_{s-1}(P) - E.  Requires 2 <= s and E <= sigma_s(P).
    """
    n = len(P)
    return P[:s - 2] + (caps[n - s + 1] - E,) + (0,) * (n - s + 1)


def borel_sort(M, mu, k):
    """The sorted factorization of mu into k members of Borel(M).

    Returns a list of k monomials, weakly decreasing in grevlex, multiplying
    to mu, each in Borel(M).  Raises ValueError when mu admits no such
    factorization.
    """
    if M.n != mu.n:
        raise ValueError("ambient mismatch in sorted factorization")
    if k < 1:
        raise ValueError("need at least one factor")
    if not borel_member(mu, M, k):
        raise ValueError(f"{mu} is not a product of {k} members of Borel({M})")
    rows = [[0] * M.n for _ in range(k)]
    _bs(M.exps, M.deg, mu.exps, rows)
    return [Monomial._of(tuple(row), M.deg) for row in rows]


def _bs(P, d, mu, rows):
    """Write the sorted factorization of the exponent tuple mu into len(rows)
    members of Borel(P), P an exponent tuple of degree d, from a work list
    of (pivot, degree, mu, lo, hi) entries, so no recursion limit bounds the
    variables of mu.  An entry writes rows[lo:hi] at the positions up to its
    mu's largest variable (the rows come in zero there), disjoint from the
    other entries' rows, so the order of the work does not matter."""
    work = [(P, d, mu, 0, len(rows))]
    while work:
        P, d, mu, lo, hi = work.pop()
        if not d:
            continue  # the unit pivot: every factor is 1
        s = len(mu)  # mu's largest variable
        while not mu[s - 1]:
            s -= 1
        if mu.count(0) == len(mu) - 1:
            # mu is a pure power: all factors coincide.
            for row in rows[lo:hi]:
                row[s - 1] = d
            continue
        k = hi - lo
        q, r = divmod(mu[s - 1], k)
        # The first k - r factors take x_s^q, the last r take x_s^(q + 1).
        mid = hi - r
        for row in rows[lo:mid]:
            row[s - 1] = q
        for row in rows[mid:hi]:
            row[s - 1] = q + 1
        _, caps = _suffix_caps(P)
        up = _split(P, caps, s, q)
        rest = mu[:s - 1] + (0,) * (len(mu) - s + 1)
        if not r:
            work.append((up, d - q, rest, lo, hi))
            continue
        slots, up_caps = _suffix_caps(up)
        mu_up = _least_divisor(slots, up_caps, k - r, rest)
        if mu_up is None:
            raise AssertionError(f"recursion invariant broken at "
                                 f"{Monomial(mu)} (up split)")
        work.append((up, d - q, mu_up, lo, mid))
        work.append((_split(P, caps, s, q + 1), d - q - 1,
                     tuple(map(operator.sub, rest, mu_up)), mid, hi))
