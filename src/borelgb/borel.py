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

from .monomials import Monomial, apply_move, expand, restrict


def borel_closure(m, support=None):
    """All monomials reachable from m by Borel moves, ascending grevlex.

    With `support`, only moves between positions inside `support` are allowed;
    the other positions keep m's exponents.  The members are the exponent
    vectors whose suffix sums over the movable positions stay within m's.
    Walking those positions from last to first, each takes every exponent its
    suffix cap allows, largest first, and the first movable position takes the
    remainder: an odometer that lists the closure in ascending grevlex.
    """
    if support is None:
        allowed = tuple(range(1, m.n + 1))
    else:
        allowed = tuple(sorted(set(support)))
        if allowed and not (1 <= allowed[0] and allowed[-1] <= m.n):
            raise ValueError(f"support {allowed} outside 1..{m.n}")
    slots = [p - 1 for p in reversed(allowed)]
    caps = list(itertools.accumulate(m.exps[i] for i in slots))
    exps = list(m.exps)
    out = [m]
    while True:
        # Slots run from the last movable position to the first; the first
        # position only takes the remainder, so it never gives up a unit.
        r = len(slots) - 2
        while r >= 0 and not exps[slots[r]]:
            r -= 1
        if r < 0:
            return tuple(out)
        exps[slots[r]] -= 1
        taken = sum(exps[i] for i in slots[:r + 1])
        for u in range(r + 1, len(slots)):
            exps[slots[u]] = caps[u] - taken
            taken = caps[u]
        out.append(Monomial(exps))


def borel_member(m, M, k=1):
    """Whether m lies in Borel(M^k), the products of k members of Borel(M)."""
    if m.n != M.n:
        raise ValueError("ambient mismatch in membership test")
    if m.deg != k * M.deg:
        return False
    return all(a <= k * b for a, b in zip(m.sigma_vector(), M.sigma_vector()))


def borel_compare(m1, m2):
    """Compare in the Borel order: 'less' means m2 is reachable upward from m1.

    Returns one of 'less', 'greater', 'equal', 'incomparable'.  Monomials of
    different degrees are always incomparable.
    """
    if m1.n != m2.n:
        raise ValueError("ambient mismatch in Borel comparison")
    if m1 == m2:
        return "equal"
    if m1.deg != m2.deg:
        return "incomparable"
    s1, s2 = m1.sigma_vector(), m2.sigma_vector()
    if all(b <= a for a, b in zip(s1, s2)):
        return "less"
    if all(a <= b for a, b in zip(s1, s2)):
        return "greater"
    return "incomparable"


def min_borel_divisor(M, k, mu, support=None):
    """The least member of Borel(M^k) dividing mu, or None when there is none.

    "Least" is in the Borel order; the minimum exists whenever a divisor
    exists and is characterized by having the largest suffix sums among the
    divisors.  Computed greedily from the last position downward: each
    position takes as much of mu as the suffix-sum budget k*sigma(M) allows.
    With `support`, the computation happens in the subring on those positions
    (the divisor uses no other variables).
    """
    if M.n != mu.n:
        raise ValueError("ambient mismatch in minimal divisor")
    if support is not None:
        positions = sorted(set(support))
        comp = _min_divisor_greedy(restrict(M, positions), k, restrict(mu, positions))
        return None if comp is None else expand(comp, positions, M.n)
    return _min_divisor_greedy(M, k, mu)


def _min_divisor_greedy(M, k, mu):
    target = k * M.deg
    sig = M.sigma_vector()
    exps = [0] * M.n
    taken = 0  # suffix sum of the divisor built so far
    remaining = target
    for j in range(M.n, 0, -1):
        e = min(mu.exps[j - 1], k * sig[j - 1] - taken, remaining)
        exps[j - 1] = e
        taken += e
        remaining -= e
    if remaining:
        return None
    return Monomial(exps)


def min_borel_divisor_bruteforce(M, k, mu, support=None):
    """Oracle for `min_borel_divisor`: scan every divisor of mu directly.

    Enumerates the divisors of mu of degree k*deg(M), keeps those in
    Borel(M^k), and returns the one whose suffix-sum vector dominates all
    others (its existence is part of the structure theory; the scan checks it
    rather than assuming it).
    """
    if support is not None:
        positions = sorted(set(support))
        comp = min_borel_divisor_bruteforce(restrict(M, positions), k, restrict(mu, positions))
        return None if comp is None else expand(comp, positions, M.n)
    target = k * M.deg
    candidates = []
    for exps in itertools.product(*(range(e + 1) for e in mu.exps)):
        if sum(exps) != target:
            continue
        d = Monomial(exps)
        if borel_member(d, M, k):
            candidates.append(d)
    if not candidates:
        return None
    best = max(candidates, key=lambda d: d.sigma_vector())
    bs = best.sigma_vector()
    for d in candidates:
        if any(a < b for a, b in zip(bs, d.sigma_vector())):
            raise AssertionError(f"no Borel-least divisor of {mu} in Borel({M}^{k})")
    return best


def reverse_step_toward(m, M, mu):
    """One reverse move pulling m strictly down toward the least divisor.

    Given m in Borel(M) dividing mu with m != M' = min_borel_divisor(M, 1, mu),
    returns positions (i, j) with i < j such that (x_j / x_i) * m still lies in
    Borel(M), still divides mu, and is strictly smaller in grevlex.  j is the
    largest position where m's suffix sum falls short of M''s, and i is the
    largest admissible position below it (the grevlex-smallest single step).
    """
    Mp = min_borel_divisor(M, 1, mu)
    if Mp is None:
        raise ValueError(f"{mu} has no divisor in Borel({M})")
    if not borel_member(m, M):
        raise ValueError(f"{m} is not in Borel({M})")
    if not m.divides(mu):
        raise ValueError(f"{m} does not divide {mu}")
    if m == Mp:
        raise ValueError(f"{m} is already the least divisor")
    sm, sp, sM = m.sigma_vector(), Mp.sigma_vector(), M.sigma_vector()
    j = max(p for p in range(1, m.n + 1) if sm[p - 1] < sp[p - 1])
    for i in range(j - 1, 0, -1):
        if m.exps[i - 1] == 0:
            continue
        if all(sm[u - 1] + 1 <= sM[u - 1] for u in range(i + 1, j + 1)):
            moved = apply_move(m, j, i)
            if not moved.divides(mu):  # cannot happen: e_j(m) < e_j(M') <= e_j(mu)
                continue
            return (i, j)
    raise AssertionError(f"no reverse move from {m} toward {Mp}")


def factorization_step(factors, M, mu):
    """One reverse move pulling a factorization down toward the sorted one.

    `factors` multiply to some P in Borel(M^k) dividing mu with P != the least
    divisor.  Returns (ell, i, j), 1-based: apply the reverse move (x_j / x_i)
    to factors[ell - 1].  The move keeps every factor in Borel(M), keeps the
    product a divisor of mu, and strictly decreases the product in grevlex.
    Deterministic choice: largest deficient position j, then the first factor
    (smallest ell) admitting a move into j, then the largest admissible i.
    """
    if not factors:
        raise ValueError("empty factorization")
    k = len(factors)
    P = factors[0]
    for f in factors[1:]:
        P = P * f
    for f in factors:
        if not borel_member(f, M):
            raise ValueError(f"factor {f} is not in Borel({M})")
    if not P.divides(mu):
        raise ValueError(f"product {P} does not divide {mu}")
    Pmin = min_borel_divisor(M, k, mu)
    if Pmin is None:
        raise AssertionError("factorization exists yet no minimal divisor")
    if P == Pmin:
        raise ValueError("factorization already multiplies to the least divisor")
    sP, sMin, sM = P.sigma_vector(), Pmin.sigma_vector(), M.sigma_vector()
    j = max(p for p in range(1, M.n + 1) if sP[p - 1] < sMin[p - 1])
    for ell in range(1, k + 1):
        f = factors[ell - 1]
        sf = f.sigma_vector()
        if sf[j - 1] >= sM[j - 1]:
            continue
        for i in range(j - 1, 0, -1):
            if f.exps[i - 1] == 0:
                continue
            if all(sf[u - 1] + 1 <= sM[u - 1] for u in range(i + 1, j + 1)):
                return (ell, i, j)
    raise AssertionError(f"no factorization step from {P} toward {Pmin}")
