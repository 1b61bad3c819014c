"""Oracles and random inputs shared by the tests.

None of this is called by the library or the CLI: the brute-force and
definition-level checks (the text renderers among them) are independent
implementations the fast code is compared against, the proof-step helpers
replay the reverse moves of the sorting argument, and the random families
feed the property tests.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter

from borelgb.borel import (_suffix_caps, borel_member, closure_exps,
                           min_borel_divisor)
from borelgb.families import BiAdjacency, FamilyEntry, IdealFamily
from borelgb.monomials import AmbientMismatch, Monomial, _check_ambient
from borelgb.quadrics import _moved
from borelgb.sorting import _split, borel_sort
from borelgb.toric import (MAX_CHECKS, MAX_VERTICES, Binomial, FiberGraph,
                           GeneratorVar, SpairLimitError, SpairReport, TProduct,
                           VerifyReport, _apply, _Block, _Budget,
                           _check_quadrics, _decode, _enumerate, _forbidden,
                           _image_text, _too_deep, sort_binomials)

# Family files shared by the tests: a five-ideal chain that is L-free and
# passes, a nested family, and the triangle that both routes reject.

EX_FAMILY = """vars = 4
ideal I1: support = x4 ; generator = x4
ideal I2: support = x3,x4 ; generator = x3*x4
ideal I3: support = x2,x3,x4 ; generator = x3*x4
ideal I4: support = x1,x2,x3 ; generator = x1*x2*x3
ideal I5: support = x1,x2 ; generator = x1*x2^2
"""

NESTED_FAMILY = """vars = 4
ideal I1: support = x3,x4 ; generator = x3*x4^2
ideal I2: support = x3,x4 ; generator = x3*x4
ideal I3: support = x2,x3,x4 ; generator = x2*x3*x4
ideal I4: support = x1,x2,x3 ; generator = x3^2
"""

TRIANGLE = """vars = 3
ideal I1: support = x1,x2 ; generator = x2
ideal I2: support = x1,x3 ; generator = x3
ideal I3: support = x2,x3 ; generator = x3
"""


def apply_move(m, i, j):
    """Return (x_i / x_j) * m, the exchange move sending one x_j to x_i.

    Moves with i < j ascend in the Borel order; i > j gives the reverse move.
    Requires x_j | m and i != j.
    """
    n = m.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"move positions ({i}, {j}) outside 1..{n}")
    if i == j:
        raise ValueError("move requires two distinct positions")
    if m.exps[j - 1] == 0:
        raise ValueError(f"x{j} does not divide {m}: cannot move it")
    exps = list(m.exps)
    exps[j - 1] -= 1
    exps[i - 1] += 1
    return Monomial(exps)


def lcm(m1, m2):
    """The least common multiple of two monomials in one ambient ring."""
    _check_ambient(m1, m2)
    return Monomial(tuple(map(max, m1.exps, m2.exps)))


def split_monomial(M, s, E):
    """Truncated pivot of the sorting recursion, with the x_s part divided out.

    Builds the Borel-least monomial gamma of deg(M) supported on positions
    <= s with x_s-exponent exactly E, then returns gamma / x_s^E, as
    `sorting._split` writes it.  Requires s >= 2 and E <= sigma_s(M).
    """
    n = M.n
    if not 2 <= s <= n:
        raise ValueError(f"split position {s} outside 2..{n}")
    # caps[u] is sigma_{n-u}(M).
    _, caps = _suffix_caps(M.exps)
    if E > caps[n - s]:
        raise ValueError(f"x{s}-exponent {E} exceeds sigma_{s}({M}) = {caps[n - s]}")
    return Monomial(_split(M.exps, caps, s, E))


def tdegree(term):
    """The number of T-variables of a T-product, counted with multiplicity."""
    return len(term.tvars)


def image(term):
    """The image of a T-product: its x part times its T-variables' generators,
    summed afresh from those fields (never read from the kept image)."""
    exps = term.xpart.exps
    for t in term.tvars:
        exps = tuple(map(operator.add, exps, t.gen.exps))
    return Monomial(exps)


def is_squarefree(term):
    """Whether no x variable and no T-variable divides the T-product twice."""
    return (all(e <= 1 for e in term.xpart.exps)
            and len(set(term.tvars)) == len(term.tvars))


def first_non_squarefree_lead(binomials):
    """The first binomial whose lead term is not squarefree, or None."""
    for b in binomials:
        if not is_squarefree(b.lead):
            return b
    return None


# Oracles for the quadric-set builders: the same quadrics, each made once as
# a checked `Binomial` from a key of negated ids, each distinct side one
# `TProduct`.  A symmetric side's key is (-a, -p), p its 0-based x position.

def _exchanges(va, a0, vb, b0, positions):
    """The keys `quadrics._exchanges` finds, each side written as its two
    ids negated, the larger first."""
    keys = set()
    for s, t in itertools.combinations(sorted(p - 1 for p in positions), 2):
        moved_a = []
        for i, m in enumerate(va.exps, a0):
            if m[s]:
                j = va.index.get(_moved(m, t, s))
                if j is not None:
                    moved_a.append((-i, -a0 - j))
        for k, n in enumerate(vb.exps, b0):
            if not n[t]:
                continue
            k, l = -k, -b0 - vb.index[_moved(n, s, t)]
            for i, j in moved_a:
                u = (i, k) if i >= k else (k, i)
                v = (j, l) if j >= l else (l, j)
                if u != v:
                    keys.add(u + v if u > v else v + u)
    return keys


def _in_order(keys, side):
    """The quadrics of `keys`, each made once as a `Binomial`, ascending;
    `side(a, b)` makes the T-product of the side (a, b), once per side."""
    side = functools.cache(side)
    return tuple(Binomial(side(a, b), side(c, d)) for a, b, c, d in sorted(keys))


def _products(unit, tvars):
    """The `side` of `_in_order` for sides T_a T_b: T-variable ids negated,
    the larger first, `tvars` listing the T-variables by id."""
    return lambda a, b: TProduct._sorted(unit, (tvars[-a], tvars[-b]))


def quadrics_single_by_binomials(M):
    block = _Block.single(M)
    return _in_order(_exchanges(block, 0, block, 0, block.support),
                     _products(Monomial.unit(M.n), block.tvars))


def quadrics_bs_form_by_binomials(M):
    block = _Block.single(M)
    exps = block.exps
    by_product = {}
    for i, j in itertools.combinations_with_replacement(range(len(exps)), 2):
        mu = tuple(map(operator.add, exps[i], exps[j]))
        by_product.setdefault(mu, []).append((-i, -j))
    keys = []
    for pairs in by_product.values():
        v = min(pairs)
        keys.extend(u + v for u in pairs if u != v)
    return _in_order(keys, _products(Monomial.unit(M.n), block.tvars))


def quadrics_multi_by_binomials(family):
    """(symmetric, within-block, cross-block), each a tuple of `Binomial`s."""
    n = family.n
    blocks = _Block.family(family)
    tvars = tuple(t for b in blocks for t in b.tvars)
    located = list(zip(blocks, itertools.accumulate(
        (len(b.tvars) for b in blocks), initial=0)))
    symmetric = []
    for vs, o in located:
        for gi, m in enumerate(vs.exps, o):
            for t in vs.support:
                if not m[t - 1]:
                    continue
                for s in vs.support:
                    if s >= t:
                        break
                    u = (-gi, 1 - s)
                    v = (-o - vs.index[_moved(m, s - 1, t - 1)], 1 - t)
                    symmetric.append(u + v if u > v else v + u)
    xs = [Monomial.variable(p, n) for p in range(1, n + 1)]
    fiber_principal, fiber_biprincipal = set(), set()
    for vs, o in located:
        fiber_principal |= _exchanges(vs, o, vs, o, vs.support)
    for (va, oa), (vb, ob) in itertools.combinations(located, 2):
        fiber_biprincipal |= _exchanges(va, oa, vb, ob,
                                        set(va.support) & set(vb.support))
    products = _products(Monomial.unit(n), tvars)
    return (_in_order(symmetric, lambda a, p: TProduct._sorted(xs[-p], (tvars[-a],))),
            _in_order(fiber_principal, products),
            _in_order(fiber_biprincipal, products))


def sigma(m):
    """Suffix sums (sigma_1, ..., sigma_n) with sigma_i = e_i + ... + e_n."""
    return tuple(itertools.accumulate(reversed(m.exps)))[::-1]


def restrict(m, positions):
    """Compress m to the given 1-based positions, as a monomial in
    len(positions) variables; exponents off them are dropped."""
    return Monomial(m.exps[p - 1] for p in sorted(positions))


def expand(m, positions, n):
    """Inverse of `restrict`: place compressed exponents back at `positions`
    in n variables."""
    positions = sorted(positions)
    if len(positions) != m.n:
        raise ValueError("position list does not match compressed monomial")
    exps = [0] * n
    for p, e in zip(positions, m.exps):
        exps[p - 1] = e
    return Monomial(exps)


def min_borel_divisor_compressed(M, k, mu, support):
    """Oracle for `min_borel_divisor` with a support: the greedy runs in the
    subring on the support, and its divisor is mapped back."""
    positions = sorted(set(support))
    comp = min_borel_divisor(restrict(M, positions), k, restrict(mu, positions))
    return None if comp is None else expand(comp, positions, M.n)


def t_min_compressed(family, mu, beta):
    """Oracle for `t_min`: each block's least divisor is found and sorted in
    the subring on its support, and its factors are mapped back."""
    quotient, tvars = mu, []
    for idx, (e, k) in enumerate(zip(family.entries, beta), start=1):
        if k == 0:
            continue
        div = min_borel_divisor_compressed(e.gen, k, quotient, e.support)
        if div is None:
            return None
        quotient = quotient / div
        for f in borel_sort(restrict(e.gen, e.support), restrict(div, e.support), k):
            tvars.append(GeneratorVar(idx, expand(f, e.support, family.n)))
    return TProduct(quotient, tvars)


def closure_exps_by_members(exps, support=None):
    """Oracle for `closure_exps`: an odometer that takes one step per member.

    Walking the movable positions from last to first, each takes every
    exponent its suffix cap allows, largest first, and the first movable
    position takes the remainder; each step takes a unit from the deepest
    non-empty position but the first and refills every position after it."""
    slots, caps = _suffix_caps(exps, support)
    yield exps
    exps = list(exps)
    while True:
        r = len(slots) - 2
        while r >= 0 and not exps[slots[r]]:
            r -= 1
        if r < 0:
            return
        exps[slots[r]] -= 1
        taken = caps[-1] - exps[slots[-1]] - 1
        for u in range(r + 1, len(slots)):
            exps[slots[u]] = caps[u] - taken
            taken = caps[u]
        yield tuple(exps)


def closure_lines_by_members(exps, support, names):
    """Oracle for `closure_texts`: each member of `closure_exps_by_members`
    joined afresh from its factors, '1' for the empty one, one line each."""
    return "".join(
        ("*".join(f"{name}^{e}" if e > 1 else name
                  for name, e in zip(names, member) if e) or "1") + "\n"
        for member in closure_exps_by_members(exps, support))


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
    s1, s2 = sigma(m1), sigma(m2)
    if all(b <= a for a, b in zip(s1, s2)):
        return "less"
    if all(a <= b for a, b in zip(s1, s2)):
        return "greater"
    return "incomparable"


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
    best = max(candidates, key=sigma)
    bs = sigma(best)
    for d in candidates:
        if any(a < b for a, b in zip(bs, sigma(d))):
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
    sm, sp, sM = sigma(m), sigma(Mp), sigma(M)
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
    sP, sMin, sM = sigma(P), sigma(Pmin), sigma(M)
    j = max(p for p in range(1, M.n + 1) if sP[p - 1] < sMin[p - 1])
    for ell in range(1, k + 1):
        f = factors[ell - 1]
        sf = sigma(f)
        if sf[j - 1] >= sM[j - 1]:
            continue
        for i in range(j - 1, 0, -1):
            if f.exps[i - 1] == 0:
                continue
            if all(sf[u - 1] + 1 <= sM[u - 1] for u in range(i + 1, j + 1)):
                return (ell, i, j)
    raise AssertionError(f"no factorization step from {P} toward {Pmin}")


def borel_sort_by_monomials(M, mu, k):
    """Oracle for `borel_sort`: the pivot-splitting recursion on Monomials,
    with `split_monomial` building every pivot, `min_borel_divisor` the
    up-split's least divisor and each factor shifted by x_s powers."""
    if len(mu.support()) <= 1:
        # mu is a pure power (or the unit): all factors coincide.
        if M.deg == 0:
            return [Monomial.unit(M.n)] * k
        return [Monomial.variable(mu.support()[-1], M.n).pow(M.deg)] * k
    s = mu.support()[-1]
    A = mu.exps[s - 1]
    q, r = divmod(A, k)
    xs = Monomial.variable(s, M.n)
    if r > 0:
        M_up = split_monomial(M, s, q)
        mu_up = min_borel_divisor(M_up, k - r, mu)
        if mu_up is None:
            raise AssertionError(f"recursion invariant broken at {mu} (up split)")
        M_down = split_monomial(M, s, q + 1)
        mu_down = mu / (mu_up * xs.pow(A))
        up = borel_sort_by_monomials(M_up, mu_up, k - r)
        down = borel_sort_by_monomials(M_down, mu_down, r)
        return [f * xs.pow(q) for f in up] + [f * xs.pow(q + 1) for f in down]
    M_left = split_monomial(M, s, q)
    return [f * xs.pow(q)
            for f in borel_sort_by_monomials(M_left, mu / xs.pow(A), k)]


def permute_columns(matrix, order):
    """The matrix with its columns, names and entries alike, in `order`."""
    order = tuple(order)
    if sorted(order) != list(range(matrix.r)):
        raise ValueError("not a column permutation")
    return BiAdjacency(matrix.n, tuple(matrix.col_names[j] for j in order),
                       tuple(tuple(row[j] for j in order) for row in matrix.rows))


def lfree_witness_by_scan(matrix):
    """Oracle for `lfree_witness`: the first L-configuration (h, j, u, v) of
    a scan over rows h < j, then columns u < v, or None when L-free."""
    rows = matrix.rows
    for h in range(matrix.n):
        for j in range(h + 1, matrix.n):
            for u in range(matrix.r):
                if rows[h][u] and rows[j][u]:
                    for v in range(u + 1, matrix.r):
                        if not rows[h][v] and rows[j][v]:
                            return (h + 1, j + 1, u + 1, v + 1)
    return None


def is_lfree(matrix):
    return lfree_witness_by_scan(matrix) is None


def _column_masks(matrix):
    """Each column as a bitmask over rows (row i -> bit i, top row = bit 0)."""
    masks = []
    for j in range(matrix.r):
        mask = 0
        for i in range(matrix.n):
            if matrix.rows[i][j]:
                mask |= 1 << i
        masks.append(mask)
    return masks


def _ordered_pair_ok(cu, cv):
    """Whether columns (u before v) avoid the L-configuration, as bitmasks.

    An L needs a row in u-only above a row shared by both, so the pair is
    fine exactly when the topmost u-only row (its lowest bit) sits below
    every shared row.
    """
    only_u = cu & ~cv
    both = cu & cv
    if not only_u or not both:
        return True
    return (only_u & -only_u).bit_length() >= both.bit_length()


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Size caps on the two backtracking oracles below, which take exponential
# time; the library's decisions have none.
ORDER_SEARCH_CAP = 10
CHORDAL_SEARCH_CAP = 8


def find_lfree_column_order_by_search(matrix):
    """Oracle for `find_lfree_column_order`: backtracking over column prefixes.

    Depth-first search over prefixes: a column may be appended only when it
    forms no L-configuration with any earlier column, which prunes exactly the
    dead branches.  Column count is capped at `ORDER_SEARCH_CAP`.
    """
    r = matrix.r
    if r > ORDER_SEARCH_CAP:
        raise ValueError(f"column count {r} exceeds search cap {ORDER_SEARCH_CAP}")
    masks = _column_masks(matrix)
    prefix = []
    used = [False] * r

    def extend():
        if len(prefix) == r:
            return True
        for c in range(r):
            if used[c]:
                continue
            if all(_ordered_pair_ok(masks[u], masks[c]) for u in prefix):
                used[c] = True
                prefix.append(c)
                if extend():
                    return True
                prefix.pop()
                used[c] = False
        return False

    if extend():
        return tuple(prefix)
    return None


def _acyclic(nodes, edges):
    """Kahn's algorithm on a small digraph given as a set of (a, b) pairs."""
    indeg = {v: 0 for v in nodes}
    out = {v: [] for v in nodes}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    queue = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(nodes)


def is_chordal_bipartite_by_search(matrix):
    """Oracle for `is_chordal_bipartite`: backtracking over column orders.

    Searches column orders depth-first; for each ordered column pair the rows
    split into "must come later" constraints (row b forces row a below it when
    placing a above b would create an L), and a compatible row order exists
    precisely when the forced-precedence digraph is acyclic.  Rows and columns
    are capped at `CHORDAL_SEARCH_CAP`.
    """
    if max(matrix.n, matrix.r) > CHORDAL_SEARCH_CAP:
        raise ValueError(f"matrix {matrix.n}x{matrix.r} exceeds search cap "
                         f"{CHORDAL_SEARCH_CAP}")
    masks = _column_masks(matrix)
    r = matrix.r
    nodes = tuple(range(matrix.n))
    prefix = []
    used = [False] * r
    # edge (b, a): row b must be placed above row a
    edge_stack = [set()]

    def forced_edges(cu, cv):
        only_u = cu & ~cv
        both = cu & cv
        edges = set()
        for a in _bits(only_u):
            for b in _bits(both):
                if a != b:
                    edges.add((b, a))
        return edges

    forced = {(u, c): forced_edges(masks[u], masks[c])
              for u in range(r) for c in range(r) if u != c}

    def extend():
        if len(prefix) == r:
            return True
        for c in range(r):
            if used[c]:
                continue
            new_edges = set(edge_stack[-1])
            for u in prefix:
                new_edges |= forced[u, c]
            if not _acyclic(nodes, new_edges):
                continue
            used[c] = True
            prefix.append(c)
            edge_stack.append(new_edges)
            if extend():
                return True
            edge_stack.pop()
            prefix.pop()
            used[c] = False
        return False

    return extend()


def has_long_induced_cycle(matrix):
    """Whether the bipartite graph of the matrix has an induced cycle of length >= 6.

    Definition-level cross-check for `is_chordal_bipartite`: vertices are the
    n rows and r columns, edges the 1-entries; an induced cycle is a vertex
    subset whose induced subgraph is connected and 2-regular.
    """
    total = matrix.n + matrix.r
    adj = [0] * total
    for i in range(matrix.n):
        for j in range(matrix.r):
            if matrix.rows[i][j]:
                adj[i] |= 1 << (matrix.n + j)
                adj[matrix.n + j] |= 1 << i
    for subset in range(1 << total):
        if bin(subset).count("1") < 6:
            continue
        degs_ok = True
        for v in _bits(subset):
            if bin(adj[v] & subset).count("1") != 2:
                degs_ok = False
                break
        if not degs_ok:
            continue
        start = (subset & -subset).bit_length() - 1
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v] & subset & ~comp
            comp |= nxt
            frontier = nxt
        if comp == subset:
            return True
    return False


def random_principal_borel_family(rng, n, r, max_deg=3):
    """A random family of full-support principal Borel ideals (for testing)."""
    entries = []
    for idx in range(1, r + 1):
        deg = rng.randint(1, max_deg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        entries.append(FamilyEntry(f"I{idx}", range(1, n + 1),
                                   Monomial(exps)))
    return IdealFamily(n, entries)


def random_interval_family(rng, n, r, max_deg=3):
    """A random reduced family whose incidence columns are nested-start intervals.

    Supports are intervals [a_j, b_j] with both endpoint sequences
    nonincreasing in j; such a matrix is always L-free in the given order.
    Each generator uses its interval's top position, so the family is reduced.
    """
    a = sorted((rng.randint(1, n) for _ in range(r)), reverse=True)
    b = sorted((rng.randint(1, n) for _ in range(r)), reverse=True)
    entries = []
    for idx in range(1, r + 1):
        lo, hi = a[idx - 1], max(a[idx - 1], b[idx - 1])
        exps = [0] * n
        exps[hi - 1] = 1
        for _ in range(rng.randint(0, max_deg - 1)):
            exps[rng.randint(lo, hi) - 1] += 1
        entries.append(FamilyEntry(f"I{idx}", range(lo, hi + 1),
                                   Monomial(exps)))
    return IdealFamily(n, entries)


def random_subset_family(rng, n, r, max_deg=2):
    """A random reduced family whose supports are random nonempty subsets
    of 1..n.  Each generator puts one unit at its support's top position
    and the rest of its degree anywhere on its support, so the family is
    reduced."""
    entries = []
    for idx in range(1, r + 1):
        support = rng.sample(range(1, n + 1), rng.randint(1, n))
        exps = [0] * n
        exps[max(support) - 1] = 1
        for _ in range(rng.randint(0, max_deg - 1)):
            exps[rng.choice(support) - 1] += 1
        entries.append(FamilyEntry(f"I{idx}", support, Monomial(exps)))
    return IdealFamily(n, entries)


def certify(graph):
    """(connected, sinks): sinks have no outgoing edge; listed ascending."""
    n = len(graph.vertices)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    has_out = [False] * n
    for u, v, _ in graph.edges:
        has_out[u] = True
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    connected = n <= 1 or len({find(i) for i in range(n)}) == 1
    sinks = tuple(graph.vertices[i] for i in range(n) if not has_out[i])
    return connected, sinks


def monomial_text(m, base=1):
    """Oracle for `Monomial.text`: each factor rendered afresh."""
    if m.deg == 0:
        return "1"
    parts = []
    for p, e in enumerate(m.exps, start=1):
        if e == 1:
            parts.append(f"x{p - 1 + base}")
        elif e >= 2:
            parts.append(f"x{p - 1 + base}^{e}")
    return "*".join(parts)


def tvar_text(t, base=1):
    """Oracle for `GeneratorVar.text`, rendered afresh on every call."""
    body = monomial_text(t.gen, base)
    return f"t{t.block}:{body}" if t.block else body


def term_text(term, base=1):
    """Oracle for `TProduct.term_text`, built from the two oracles above."""
    parts = []
    if term.xpart.deg:
        parts.append(monomial_text(term.xpart, base))
    parts.extend(f"T[{tvar_text(t, base)}]" for t in term.tvars)
    return "*".join(parts) if parts else "1"


def divides(a, b):
    """Oracle for the lead table: whether T-product a divides T-product b,
    merging the two T-variable lists, which both run in descending order."""
    _check_ambient(a.xpart, b.xpart)
    theirs = b.tvars
    j, end = 0, len(theirs)
    for t in a.tvars:
        while j < end and theirs[j] > t:
            j += 1
        if j == end or theirs[j] != t:
            return False
        j += 1
    return all(map(operator.le, a.xpart.exps, b.xpart.exps))


def counter_quotient(a, b):
    """Oracle for the division of a rewrite: a / b with the T-variables
    counted in a `Counter`; raises ValueError when b does not divide a."""
    left = Counter(a.tvars)
    left.subtract(Counter(b.tvars))
    if any(c < 0 for c in left.values()):
        raise ValueError(f"{b} does not divide {a}")
    return TProduct(a.xpart / b.xpart, tuple(left.elements()))


def times_by_sorting(a, b):
    """Oracle for the multiplication of a rewrite: a * b with the
    T-variables re-sorted by the constructor."""
    return TProduct(a.xpart * b.xpart, a.tvars + b.tvars)


def lead_table_keys(term):
    """The check count `fiber_graph` charges a term: one per lead-table key
    it looks up, each pair of its d atoms (each T-variable, and each
    x-position as often as its exponent but at most twice)."""
    d = tdegree(term) + sum(min(e, 2) for e in term.xpart.exps)
    return d * (d - 1) // 2


def enumerate_by_steps(setup, mu, beta, budget, steps=None):
    """Oracle for `toric._enumerate`: the pick search with one memo entry
    per pick step (block, first generator, picks left, quotient), so steps
    that share a quotient each try its candidates.  The distinct steps are
    appended to `steps`, if given, in the order they are searched."""
    if mu.n != setup.n:
        raise ValueError("ambient mismatch between image and setup")
    blocks = setup.blocks
    exact = blocks[0].exact
    if sum(k * b.pivot.deg for b, k in zip(blocks, beta)) > mu.deg:
        return ()
    # A node is a list of (T-variable, child) pairs, a child is a node or,
    # past the last block, the leftover as a Monomial, and None stands for
    # no points.  `memo` keeps each step's node with the points below it.
    memo, leaves = {}, {}

    def rec_block(bi, q):
        if bi == len(blocks):
            if exact and any(q):
                raise AssertionError("exact enumeration left a remainder")
            budget.count_vertex()
            leaf = leaves.get(q)
            if leaf is None:
                leaf = leaves[q] = Monomial(q)
            return leaf
        block = blocks[bi]
        if not block.fits(beta[bi], q):
            return None
        exps, tvars, candidates = block.exps, block.tvars, block.candidates

        def rec_pick(start, rem, q):
            if rem == 0:
                return rec_block(bi + 1, q)
            key = (bi, start, rem, q)
            hit = memo.get(key)
            if hit is not None:
                budget.count_vertex(hit[1])
                return hit[0]
            if steps is not None:
                steps.append(key)
            found = budget.vertices
            divisors, cands = (m >> start << start for m in candidates(rem, q))
            budget.count_check(divisors.bit_count())
            node = []
            while cands:
                low = cands & -cands
                cands ^= low
                gi = low.bit_length() - 1
                child = rec_pick(gi, rem - 1, tuple(map(operator.sub, q, exps[gi])))
                if child is not None:
                    node.append((tvars[gi], child))
            node = node or None
            memo[key] = (node, budget.vertices - found)
            return node

        return rec_pick(0, beta[bi], q)

    def walk(child, chosen):
        if child.__class__ is list:
            for tvar, below in child:
                chosen.append(tvar)
                walk(below, chosen)
                chosen.pop()
        else:
            out.append(TProduct._sorted(child, tuple(chosen)))

    try:
        root = rec_block(0, mu.exps)
        out = []
        if root is not None:
            walk(root, [])
    except RecursionError:
        raise _too_deep(sum(beta)) from None
    return tuple(reversed(out))


def fiber_graph_by_scanning(setup, mu, beta, quadrics, vertices=None, **caps):
    """Oracle for `fiber_graph`: every quadric's lead is tested against every
    vertex in turn, and each vertex is charged its `lead_table_keys`."""
    budget = _Budget(**caps)
    beta = setup.beta_tuple(beta)
    if vertices is None:
        vertices = _enumerate(setup, mu, beta, budget)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for ui, u in enumerate(vertices):
        budget.count_check(lead_table_keys(u))
        for qi, q in enumerate(quadrics):
            if divides(q.lead, u):
                vi = index.get(times_by_sorting(counter_quotient(u, q.lead),
                                                q.tail))
                if vi is None:
                    raise AssertionError(
                        f"rewrite left the fiber: {u.label()} by {q.text()}")
                if vi >= ui:
                    raise AssertionError("rewrite did not decrease the term order")
                edges.append((ui, vi, qi))
    return FiberGraph(vertices, tuple(edges))


def examine_image_by_scanning(setup, quadrics, mu, beta):
    """Oracle for one image of `verify_groebner_by_fibers`: the whole fiber
    is enumerated and every lead is tested against every point."""
    # (mu, beta, sinks).  A fiber's rewriting graph has as sinks its standard
    # points, those no lead divides: `_check_quadrics` makes every other point
    # the source of an edge.  A fiber with two or more sinks fails.
    budget = _Budget()
    vertices = _enumerate(setup, mu, setup.beta_tuple(beta), budget)
    if len(vertices) <= 1:
        return (mu, beta, vertices)
    budget.count_check(len(vertices) * len(quadrics))
    return (mu, beta, tuple(u for u in vertices
                            if not any(divides(q.lead, u) for q in quadrics)))


# Oracle for the sweep of `verify_groebner_by_fibers` on a family: each
# image's standard points searched on their own.
def _family_points(setup, partners, positions, mu, beta):
    """(standard points ascending, checks, vertices) over one family image:
    the pick search of `_enumerate` without its memo, with each pick masked
    by the partners of the T-variables picked before it."""
    budget = _Budget(scope="fiber sweep")
    blocks = setup.blocks
    offsets = (0, *itertools.accumulate(len(b.tvars) for b in blocks))
    out, chosen = [], []

    def rec_block(bi, q, forbidden, xpos):
        if bi == len(blocks):
            if not any(e and xpos >> i & 1 for i, e in enumerate(q)):
                budget.count_vertex()
                out.append(TProduct._sorted(Monomial(q), tuple(chosen)))
            return
        block, offset = blocks[bi], offsets[bi]
        if not block.fits(beta[bi], q):
            return
        exps, tvars = block.exps, block.tvars
        masks = block.tables()[0]
        block_fits = block.fits
        full = (1 << len(exps)) - 1

        def rec_pick(start, rem, q, forbidden, xpos):
            if rem == 0:
                return rec_block(bi + 1, q, forbidden, xpos)
            fits = full >> start << start & ~(forbidden >> offset)
            for e, m in zip(q, masks):
                if e < len(m):
                    fits &= m[e]
            budget.count_check(fits.bit_count())
            while fits:
                low = fits & -fits
                fits ^= low
                gi = low.bit_length() - 1
                q2 = tuple(map(operator.sub, q, exps[gi]))
                if not block_fits(rem - 1, q2):
                    continue
                chosen.append(tvars[gi])
                rec_pick(gi, rem - 1, q2, forbidden | partners[offset + gi],
                         xpos | positions[offset + gi])
                chosen.pop()

        rec_pick(0, beta[bi], q, forbidden, xpos)

    try:
        rec_block(0, mu.exps, 0, 0)
    except RecursionError:
        raise _too_deep(sum(beta)) from None
    # Picks run in descending T-variable order, so the points come in
    # descending term order.
    return out[::-1], budget.checks, budget.vertices


def standard_points_by_recursion(setup, partners, positions, bound, budget):
    """Oracle for `toric._standard_points`: the same walk, recursing once
    per T-variable and filing each multiset P as the tuple of its
    T-variables in descending order.  Every lead-free multiset P of at most
    `bound` T-variables is the standard point over its own product p, with
    no x part.  P is filed under its block degrees beta and the bitset F of
    x-positions its T-variables forbid, and there under p read at F.  The
    walk carries both in one int, F in its low n bits and above them beta's
    digits in base bound + 1.  The result maps beta to a list of
    (reader at F, {p at F: [(p, P)]}, whether F misses a position)."""
    n, tvars = setup.n, setup.tvars
    full = (1 << n) - 1
    exps = tuple(t.gen.exps for t in tvars)
    steps = tuple((bound + 1) ** bi << n for bi, block in enumerate(setup.blocks)
                  for _ in block.tvars)
    slots, chosen = {}, []

    def walk(start, allowed, code, image):
        # Extend `chosen` by each candidate from `start` on; each makes one
        # standard point.
        found = allowed >> start << start
        count = found.bit_count()
        budget.count_check(count)
        budget.count_vertex(count)
        deeper = len(chosen) + 1 < bound
        while found:
            low = found & -found
            found ^= low
            gi = low.bit_length() - 1
            chosen.append(tvars[gi])
            point = tuple(map(operator.add, image, exps[gi]))
            c = code + steps[gi] | positions[gi]
            slot = slots.get(c)
            if slot is None:
                f = c & full
                slot = slots[c] = (_reader(f, n), {}, f != full)
            slot[1].setdefault(slot[0](point), []).append((point, tuple(chosen)))
            if deeper:
                walk(gi, allowed & ~partners[gi], c, point)
            chosen.pop()

    try:
        walk(0, (1 << len(tvars)) - 1, 0, (0,) * n)
    except RecursionError:
        raise _too_deep(len(chosen)) from None
    by_beta = {}
    for c, slot in slots.items():
        beta = tuple((c >> n) // (bound + 1) ** bi % (bound + 1)
                     for bi in range(len(setup.blocks)))
        by_beta.setdefault(beta, []).append(slot)
    return by_beta


def _reader(forbid, n):
    """A function reading an exponent tuple at the positions in `forbid`."""
    if forbid == (1 << n) - 1:
        return tuple
    at = [i for i in range(n) if forbid >> i & 1]
    return operator.itemgetter(*at) if at else operator.itemgetter(slice(0))


def image_groups_on_tuples(setup, bound):
    """Oracle for `toric._image_groups`, on exponent tuples: one group per
    block-degree vector beta, in (|beta|, beta) order.  Single setup: group
    (k,) streams the closure of the pivot's k-th power.  Multi setup: the
    set of pairwise lcms of the sums of one member of row beta_i per
    block, row k of a block being the closure of its pivot's k-th power
    over its support."""
    block = setup.blocks[0]
    if block.exact:
        for k in range(1, bound + 1):
            yield (k,), closure_exps(block.pivot.pow(k).exps, block.support)
        return
    rows = [[tuple(closure_exps(b.pivot.pow(k).exps, b.support))
             for k in range(bound + 1)] for b in setup.blocks]
    betas = itertools.product(range(bound + 1), repeat=len(rows))
    for beta in sorted((beta for beta in betas if 1 <= sum(beta) <= bound), key=sum):
        prods = {(0,) * setup.n}
        for row, k in zip(rows, beta):
            if k:
                prods = {tuple(map(operator.add, p, m)) for p in prods for m in row[k]}
        yield beta, {tuple(map(max, a, b)) for a, b in
                     itertools.combinations_with_replacement(prods, 2)}


def sweep_on_tuples(setup, quadrics, bound, *, max_vertices=MAX_VERTICES,
                    max_checks=MAX_CHECKS):
    """Oracle for `verify_groebner_by_fibers`: the same sweep on exponent
    tuples.  The recursive walk files each lead-free multiset under (beta,
    F, p read at F); each image of `image_groups_on_tuples` is read at each
    slot's F, and off a full F every p found must divide it position by
    position.  A group's images without exactly one standard point are
    taken in ascending grevlex."""
    if bound < 1:
        raise ValueError(f"need a T-degree bound of at least 1, got {bound}")
    table = _check_quadrics(quadrics, setup.n, setup.tvars)[1]
    budget = _Budget(max_vertices, max_checks, "fiber sweep")
    partners, positions = _forbidden(setup, table)
    by_beta = standard_points_by_recursion(setup, partners, positions, bound, budget)
    single = setup.blocks[0].exact
    failures, images = [], 0
    for beta, group in image_groups_on_tuples(setup, bound):
        odd = []
        for e in group:
            images += 1
            points = []
            for at, found, partial in by_beta.get(beta, ()):
                for p, chosen in found.get(at(e), ()):
                    if not partial or all(map(operator.le, p, e)):
                        points.append((p, chosen))
            if len(points) != 1:
                odd.append((Monomial(e), points))
        odd.sort(key=lambda it: it[0].grevlex_key())
        shown = None if single else beta
        for mu, points in odd:
            if not points:
                raise AssertionError(f"no standard point over {_image_text(mu, shown)}")
            sinks = sorted((TProduct._sorted(
                Monomial(tuple(map(operator.sub, mu.exps, p))), chosen)
                for p, chosen in points), key=operator.attrgetter("key"))
            failures.append((mu, shown, tuple(sinks)))
    return VerifyReport(not failures, tuple(failures), f"fibers bound={bound}",
                        images)


def images_by_multiplying(setup, bound):
    """Oracle for `iterate_images`: every multiset of a block's generators is
    multiplied out one generator at a time.  Single setup: the products of k
    closure members, k = 1..bound, paired with k.  Multi setup: for every
    block-degree vector beta with 1 <= |beta| <= bound, every lcm of two
    products of beta-many generators, paired with beta."""
    if setup.blocks[0].exact:
        gens = [t.gen for t in setup.blocks[0].tvars]
        images = []
        for k in range(1, bound + 1):
            prods = set()
            for combo in itertools.combinations_with_replacement(gens, k):
                p = combo[0]
                for g in combo[1:]:
                    p = p * g
                prods.add(p)
            images.extend((m, k) for m in prods)
        images.sort(key=lambda it: (it[1], it[0].grevlex_key()))
        return tuple(images)
    images = []
    r = len(setup.blocks)
    for beta in itertools.product(range(bound + 1), repeat=r):
        if not 1 <= sum(beta) <= bound:
            continue
        prods = set()
        for combo_per_block in itertools.product(*(
                itertools.combinations_with_replacement(
                    [t.gen for t in setup.blocks[i].tvars], beta[i])
                for i in range(r))):
            p = Monomial.unit(setup.n)
            for group in combo_per_block:
                for g in group:
                    p = p * g
            prods.add(p)
        merged = {lcm(a, b) for a, b in
                  itertools.combinations_with_replacement(prods, 2)}
        images.extend((m, beta) for m in merged)
    images.sort(key=lambda it: (sum(it[1]), it[1], it[0].grevlex_key()))
    return tuple(images)


def _atoms(term):
    """The term's atoms in a fixed order: its T-variables as in `tvars`, then
    its x-positions ascending, each as often as its exponent but at most twice
    (T-variables are tuples, positions ints)."""
    atoms = list(term.tvars)
    for i, e in enumerate(term.xpart.exps):
        if e:
            atoms.append(i)
            if e > 1:
                atoms.append(i)
    return atoms


def _divisor_keys(term):
    """The atom tuples of every lead of degree 2 that divides the term,
    lazily: its pairs of atoms in atom order."""
    return itertools.combinations(_atoms(term), 2)


def lead_table_by_atoms(leads, n):
    """Each lead's atom tuple mapped to the ascending indices of the leads
    with it.  A lead of degree 2 divides a term exactly when its tuple is
    one of the term's `_divisor_keys`; other degrees and ambients raise."""
    table = {}
    for i, lead in enumerate(leads):
        if lead.xpart.n != n:
            raise AmbientMismatch(f"lead {lead.term_text()} is not in {n} variables")
        if tdegree(lead) + lead.xpart.deg != 2:
            raise ValueError(f"lead {lead.term_text()} is not of degree 2")
        table.setdefault(tuple(_atoms(lead)), []).append(i)
    return table


def merge_rewrite(term, binomial):
    """term / lead * tail for the binomial lead - tail, in one merge pass
    over the two descending T-variable lists; raises ValueError when the
    lead does not divide."""
    lead, tail = binomial.lead, binomial.tail
    x, lx, tx = term.xpart.exps, lead.xpart.exps, tail.xpart.exps
    if not len(x) == len(lx) == len(tx):
        raise AmbientMismatch(f"ambient mismatch: {len(x)}, {len(lx)} and "
                              f"{len(tx)} variables")
    # Each tail variable goes in before the first smaller one of the term,
    # and each lead variable takes out the next equal one.
    drop, add, out = list(lead.tvars), list(tail.tvars), []
    for t in term.tvars:
        while add and add[0] > t:
            out.append(add.pop(0))
        if drop and drop[0] == t:
            del drop[0]
        else:
            out.append(t)
    if drop or lead.xpart.deg and not all(map(operator.ge, x, lx)):
        raise ValueError(f"{lead} does not divide {term}")
    xpart = term.xpart
    if lead.xpart.deg or tail.xpart.deg:
        xpart = Monomial(tuple(map(operator.add, map(operator.sub, x, lx), tx)))
    return TProduct._sorted(xpart, tuple(out + add))


def own_tvars(quadrics):
    """The T-variables of the quadrics' sides, largest first: the numbering
    `spair_certificate` hands the gate, with no setup to number them."""
    return sorted({t for q in quadrics for side in (q.lead, q.tail)
                   for t in side.tvars}, reverse=True)


def _spairs_on_products(quadrics, max_steps):
    """Oracle for `spair_certificate`: the same pair loop, step rule and
    budget on `TProduct` terms.  The set passes `_check_quadrics` first;
    leads are then found in its own atom-keyed table
    (`lead_table_by_atoms`).  Each side is built by `_side` and each term's
    rewrite, kept in a memo keyed by the term's key, by `_rewrite_once`.
    Returns (SpairReport, rewrite steps of the run)."""
    basis = sort_binomials(quadrics)
    n = basis[0].lead.xpart.n if basis else None
    _check_quadrics(basis, n, own_tvars(basis))
    table = lead_table_by_atoms([g.lead for g in basis], n)
    # A lead of degree 2 is exactly its atoms, its key in the lead table;
    # leads are coprime exactly when they share no atom.
    atoms = [None] * len(basis)
    for key, held in table.items():
        for i in held:
            atoms[i] = key
    holders = {}
    for i, held in enumerate(atoms):
        for atom in set(held):
            holders.setdefault(atom, []).append(i)
    parts = [(g.lead.tvars, held[tdegree(g.lead):]) for g, held in zip(basis, atoms)]
    memo = {}
    checked = skipped = steps = 0
    for ai, a in enumerate(basis):
        partners = sorted({bi for atom in atoms[ai] for bi in holders[atom]
                           if bi > ai})
        for pos, bi in enumerate(partners):
            b = basis[bi]
            checked += 1
            u = _side(a.tail, parts[bi], parts[ai])
            v = _side(b.tail, parts[ai], parts[bi])
            while u.key != v.key:
                if u.key < v.key:
                    u, v = v, u
                steps += 1
                if steps > max_steps:
                    raise SpairLimitError(max_steps, (a, b))
                step = memo.get(u.key)
                if step is None:
                    step = memo[u.key] = _rewrite_once(u, basis, table) or _STANDARD
                if step is not _STANDARD:
                    u = step
                    continue
                step = memo.get(v.key)
                if step is None:
                    step = memo[v.key] = _rewrite_once(v, basis, table) or _STANDARD
                if step is not _STANDARD:
                    v = step
                    continue
                skipped += bi - ai - 1 - pos
                return SpairReport(False, (a, b), (u, v), checked, skipped), steps
        skipped += len(basis) - 1 - ai - len(partners)
    return SpairReport(True, None, None, checked, skipped), steps


def _side(tail, theirs, mine):
    """`tail` times the lead atoms of `theirs` that those of `mine` do not
    take out one for one: tail * lcm / mine for two leads, each given as its
    T-variables and its 0-based x-positions."""
    tvars = tail.tvars
    extra = list(theirs[0])
    for t in mine[0]:
        if t in extra:
            extra.remove(t)
    if extra:
        tvars = tuple(sorted(tvars + tuple(extra), reverse=True))
    xpart = tail.xpart
    if theirs[1]:
        extra = list(theirs[1])
        for i in mine[1]:
            if i in extra:
                extra.remove(i)
        if extra:
            exps = list(xpart.exps)
            for i in extra:
                exps[i] += 1
            xpart = Monomial._of(tuple(exps), xpart.deg + len(extra))
    return TProduct._sorted(xpart, tvars)


# What the oracle's memo holds for a term no lead divides.
_STANDARD = object()


def _rewrite_once(term, basis, table):
    """term / lead * tail for the first basis element whose lead divides the
    term, or None."""
    best = min((table[k][0] for k in _divisor_keys(term) if k in table), default=None)
    if best is None:
        return None
    return merge_rewrite(term, basis[best])


def spairs_on_codes(quadrics, max_steps):
    """Oracle for `spair_certificate`: its pair loop, step rule, budget and
    memo on atom-id codes of any length, each side built by `_side_ids` and
    each term's rewrite by `_rewrite_on_codes`, through the general
    `_apply`.  Returns (SpairReport, rewrite steps of the run)."""
    basis = sort_binomials(quadrics)
    n = basis[0].lead.xpart.n if basis else None
    tvars = own_tvars(basis)
    table, tails = _check_quadrics(basis, n, tvars)[1:]
    leads, holders = [None] * len(basis), {}
    for lead, held in table.items():
        for i in held:
            leads[i] = lead
        for atom in set(lead):
            holders.setdefault(atom, []).extend(held)
    memo = {}
    checked = skipped = steps = 0
    for ai, mine in enumerate(leads):
        partners = sorted({bi for atom in mine for bi in holders[atom]
                           if bi > ai})
        for pos, bi in enumerate(partners):
            theirs = leads[bi]
            checked += 1
            u = _side_ids(tails[ai], theirs, mine)
            v = _side_ids(tails[bi], mine, theirs)
            while u != v:
                if u > v:
                    u, v = v, u
                steps += 1
                if steps > max_steps:
                    raise SpairLimitError(max_steps, (basis[ai], basis[bi]))
                step = memo.get(u)
                if step is None:
                    step = memo[u] = _rewrite_on_codes(u, table, leads, tails)
                if step:
                    u = step
                    continue
                step = memo.get(v)
                if step is None:
                    step = memo[v] = _rewrite_on_codes(v, table, leads, tails)
                if step:
                    v = step
                    continue
                skipped += bi - ai - 1 - pos
                report = SpairReport(False, (basis[ai], basis[bi]),
                                     (_decode(u, tvars, n), _decode(v, tvars, n)),
                                     checked, skipped)
                return report, steps
        skipped += len(basis) - 1 - ai - len(partners)
    return SpairReport(True, None, None, checked, skipped), steps


def _side_ids(tail, theirs, mine):
    """The code of `tail` times the atom that the lead `theirs` adds to the
    lead `mine`, tail * lcm / mine: none when the leads are equal.  Two
    distinct leads of degree 2 that share an atom differ in one."""
    if theirs == mine:
        return tail
    p, q = theirs
    return tuple(sorted(tail + ((q,) if p in mine else (p,))))


def _rewrite_on_codes(term, table, leads, tails):
    """The code of term / lead * tail for the first basis element whose lead
    divides the term, looked up over every pair of the term's atoms, or ()
    when none does."""
    best = min((table[k][0] for k in itertools.combinations(term, 2) if k in table),
               default=None)
    if best is None:
        return ()
    return _apply(term, leads[best], tails[best])
