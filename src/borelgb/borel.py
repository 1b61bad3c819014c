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

from .monomials import Monomial, _factor_text


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
    positions stay within those of `exps`.  `_columns` walks them with one
    odometer step per column: a column fixes every movable position but the
    first two, and its members put e at the second, for e from the column's
    top down to 0, and the rest of the column's mass at the first.  A
    support outside 1..n raises ValueError in place of the first tuple.
    """
    slots, caps = _suffix_caps(exps, support)
    if len(slots) < 2:
        yield exps
        return
    b, a = slots[-1], slots[-2]
    low = exps[b]  # every column's first member has the pivot's exponent at b
    walk = list(exps)
    for _, _, top in _columns(slots, caps, walk):
        rem = low + top
        for e in range(top, -1, -1):
            walk[b] = rem - e
            walk[a] = e
            yield tuple(walk)


def closure_texts(exps, support, base):
    """The lines of the closure of `exps`, in `closure_exps` order, as one
    text block per column.

    Variables are named from x{base} on.  A line joins its factors with '*'
    and a zero exponent prints nothing; the empty line prints '1'.  Each
    line is its two varying factors joined onto the text of everything above
    the second movable position, which the column's lines share.  That text
    is kept per movable level and rebuilt only from the first level the
    column walk changed; the fixed positions' text is made once.  A support
    outside 1..n raises ValueError before the first block.
    """
    slots, caps = _suffix_caps(exps, support)
    if len(slots) < 2 or not any(exps):  # one member
        yield ("*".join(_factor_text("x", i, e)
                        for i, e in enumerate(exps, base) if e) or "1") + "\n"
        return
    # Every text here is starred: empty, or '*' before each factor.  The
    # fixed positions between two movable ones are the lower one's tail.
    tails = ["".join("*" + _factor_text("x", i + base, exps[i])
                     for i in range(s + 1, hi) if exps[i])
             for s, hi in zip(slots, (len(exps),) + slots)]

    def piece(u, e):
        """Level u's text with exponent e, then its tail."""
        return ("*" + _factor_text("x", slots[u] + base, e) if e else "") + tails[u]

    # Level u takes each exponent up to its cap in some column.
    pieces = [[piece(u, e) for e in range(c + 1)] for u, c in enumerate(caps[:-2])]
    under = "".join("*" + _factor_text("x", i + base, exps[i])
                    for i in range(slots[-1]) if exps[i])
    # Past `tailed` no level has a tail, so an empty level adds nothing.
    tailed = max((u + 1 for u, tail in enumerate(tails[:-2]) if tail), default=0)
    suffix = [""] * (len(slots) - 1)  # suffix[u + 1]: the text of levels 0..u
    # heads[i]: the line's start with pivot exponent + i at the first movable
    # position, its star dropped; ends[e]: e at the second, and its tail.
    heads, ends = [], []
    low = exps[slots[-1]]
    walk = list(exps)
    add = str.__add__
    for level, stop, top in _columns(slots, caps, walk):
        stop = max(stop, tailed)
        for u in range(level, stop):
            suffix[u + 1] = pieces[u][walk[slots[u]]] + suffix[u]
        while len(ends) <= top:
            heads.append((under + piece(-1, low + len(heads)))[1:])
            ends.append(piece(-2, len(ends)))
        shared = suffix[stop] + "\n"
        block = shared.join(map(add, heads[:top + 1], ends[top::-1])) + shared
        # Only a line with nothing below its second movable position starts
        # with a star, and only the first line of a column can.
        yield block if heads[0] else block[1:]


def _columns(slots, caps, exps):
    """Walk a closure one column at a time, one odometer step per column.

    Level u is the movable position slots[u].  A column fixes every level
    but the last two, the first two movable positions, which its members
    vary.  The walk updates the list `exps`, the pivot's exponents at the
    start, in place and yields (level, stop, top) per column: levels
    `level` .. stop - 1 may have changed since the last column, those from
    `stop` on hold 0, and `top` is the most the second movable position
    may take.  Each step takes a unit from the deepest non-empty fixed
    level and refills the fixed levels after it to their suffix caps, so
    the columns come in ascending grevlex.
    """
    last = len(slots) - 3
    # Past the deepest level the pivot fills, a refill writes only zeros,
    # which those levels already hold; so no step reads or writes them.
    deep = max((u for u in range(last + 1) if exps[slots[u]]), default=-1)
    taken = caps[last] if last >= 0 else 0  # mass at levels 0..last
    r, stop = 0, deep + 1
    while True:
        yield r, stop, caps[-2] - taken
        r = stop - 1
        while r >= 0 and not exps[slots[r]]:
            r -= 1
        if r < 0:
            return
        exps[slots[r]] -= 1
        taken -= 1
        if r < last:
            stop = r + 2 if r >= deep else deep + 1
            for u in range(r + 1, stop):
                exps[slots[u]] = caps[u] - taken
                taken = caps[u]
        else:
            stop = r + 1


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
