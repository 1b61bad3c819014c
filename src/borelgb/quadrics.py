"""Quadratic binomial generating sets for the toric ideals of Borel closures.

For a single closure Borel(M), the exchange quadrics swap one variable
between the two chosen factors: T_m T_n - T_{(x_i/x_j)m} T_{(x_j/x_i)n} with
i < j and all four monomials in the closure.  The sorted-form set instead
pairs each product with its canonical two-factor sorted factorization, its
least pair in the term order (the lemma criterion C3 checks: a sorted
factorization is the least point of its fiber).  For a reduced family,
three shapes appear: symmetric quadrics trading an x variable against a move
inside one block, within-block exchange quadrics, and cross-block exchange
quadrics trading a move between two blocks that share the two positions.
Every lead term produced here is squarefree.

Each call builds one `_Block` per closure, which holds one T-variable per
member, and finds moved partners by looking up their exponent tuples.  The
quadrics are found, deduped and sorted as tuples of ints: the T-variables
are numbered largest first, as `FiberSetup.tvars` numbers them, so a side
T_a T_b is its ids ascending, negated, and compares as its T-product does;
a symmetric side x_p T_a is (-a, -p), p the 0-based position.  A quadric is
its lead side followed by its tail side, so the tuples sort as the quadrics
do, and `_in_order` makes each `Binomial` once, in that order, and so checks
it once.  Equal sides are one `TProduct`, made once, so its image is summed
and its text written once however many quadrics share it.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .monomials import Monomial
from .toric import Binomial, TProduct, _Block


def _moved(exps, i, j):
    """`exps` with one unit moved from 0-based position j to position i."""
    out = list(exps)
    out[j] -= 1
    out[i] += 1
    return tuple(out)


def _in_order(keys, side):
    """The quadrics of `keys`, each made once as a `Binomial`, ascending.

    A key is a quadric's lead side followed by its tail side, each a pair of
    ints that compares as that side's `TProduct.key` does, so the keys sort
    as the quadrics do; `side(a, b)` makes the T-product of the side (a, b),
    once per distinct side.  A key with its tail side first is refused as
    `Binomial` refuses a lead below its tail.
    """
    side = functools.cache(side)
    return tuple(Binomial(side(a, b), side(c, d)) for a, b, c, d in sorted(keys))


def _products(unit, tvars):
    """The `side` of `_in_order` for sides T_a T_b: T-variable ids negated,
    the larger first, `tvars` listing the T-variables by id."""
    return lambda a, b: TProduct._sorted(unit, (tvars[-a], tvars[-b]))


def quadrics_single(M):
    """The exchange quadrics of Borel(M), ascending by lead term."""
    block = _Block.single(M)
    return _in_order(_exchanges(block, 0, block, 0, block.support),
                     _products(Monomial.unit(M.n), block.tvars))


def _exchanges(va, a0, vb, b0, positions):
    """The keys of the quadrics trading one move between a generator of `va`
    and one of `vb`, whose T-variables have ids from a0 and from b0 on.

    For s < t in `positions`, m in `va` with x_s | m and n in `vb` with
    x_t | n: T_m T_n - T_{(x_t/x_s)m} T_{(x_s/x_t)n}, whenever (x_t/x_s)m
    stays in its closure and the two sides differ.  `positions` lie in both
    blocks' supports, so the upward move (x_s/x_t)n never leaves its closure.
    Within one block this one direction is enough: the other starts from the
    moved pair and gives the same key, which the set keeps once.  A side is
    its two ids negated, the larger first, as `_products` reads it.
    """
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
            k, l = -k, -b0 - vb.index[_moved(n, s, t)]  # negated, as in moved_a
            for i, j in moved_a:
                u = (i, k) if i >= k else (k, i)
                v = (j, l) if j >= l else (l, j)
                if u != v:
                    keys.add(u + v if u > v else v + u)
    return keys


def quadrics_bs_form(M):
    """Quadrics pairing two-factor products with their sorted factorization.

    One binomial T_m T_n - T_{f1} T_{f2} per unordered pair whose sorted
    two-factor factorization (f1, f2) differs from (m, n).  Spans the same
    degree-two relations as `quadrics_single`.  The pairs are grouped by
    product, and no product is sorted: the lemma behind criterion C3
    (`test_c3_sorted_output_is_fiber_minimum`) makes `borel_sort`'s output
    the least point of its fiber, and for k = 2 that fiber is the product's
    group of pairs, so the sorted factorization is the group's least pair.
    """
    block = _Block.single(M)
    exps = block.exps
    by_product = {}
    for i, j in itertools.combinations_with_replacement(range(len(exps)), 2):
        mu = tuple(map(operator.add, exps[i], exps[j]))
        by_product.setdefault(mu, []).append((-i, -j))
    keys = []
    for pairs in by_product.values():
        v = min(pairs)  # the tail, below every other pair of its product
        keys.extend(u + v for u in pairs if u != v)
    return _in_order(keys, _products(Monomial.unit(M.n), block.tvars))


class MultiQuadrics:
    """The three quadric shapes for a reduced family, each ascending by lead."""

    __slots__ = ("symmetric", "fiber_principal", "fiber_biprincipal")

    def __init__(self, symmetric, fiber_principal, fiber_biprincipal):
        self.symmetric = symmetric
        self.fiber_principal = fiber_principal
        self.fiber_biprincipal = fiber_biprincipal

    def all(self):
        return tuple(self.symmetric) + tuple(self.fiber_principal) + \
            tuple(self.fiber_biprincipal)


def quadrics_multi(family):
    """All three quadric shapes for a reduced family."""
    if not family.is_reduced():
        raise ValueError("quadrics need a reduced family (apply reduce first)")
    n = family.n
    blocks = _Block.family(family)
    # The ids number the T-variables largest first, as `FiberSetup.tvars`
    # does; each block is located by the id of its first.
    tvars = tuple(t for b in blocks for t in b.tvars)
    located = list(zip(blocks, itertools.accumulate(
        (len(b.tvars) for b in blocks), initial=0)))

    # x_s T_m - x_t T_{(x_s/x_t)m}: a side is its T-variable's id and its
    # 0-based x position, both negated, as the T-product key orders them.
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
    return MultiQuadrics(
        _in_order(symmetric, lambda a, p: TProduct._sorted(xs[-p], (tvars[-a],))),
        _in_order(fiber_principal, products),
        _in_order(fiber_biprincipal, products))
