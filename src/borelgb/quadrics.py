"""Quadratic binomial generating sets for the toric ideals of Borel closures.

For a single closure Borel(M), the exchange quadrics swap one variable
between the two chosen factors: T_m T_n - T_{(x_i/x_j)m} T_{(x_j/x_i)n} with
i < j and all four monomials in the closure.  The sorted-form set instead
pairs each product with its canonical two-factor sorted factorization.  For a
reduced family, three shapes appear: symmetric quadrics trading an x variable
against a move inside one block, within-block exchange quadrics, and
cross-block exchange quadrics trading a move between two blocks that share
the two positions.  Every lead term produced here is squarefree.

Each call builds one `_Block` per closure, which holds one T-variable per
member, and finds moved partners by looking up their exponent tuples.
"""

from __future__ import annotations

import itertools
import operator

from .borel import borel_closure
from .monomials import Monomial
from .sorting import borel_sort
from .toric import Binomial, TProduct, _Block, sort_binomials


def _moved(exps, i, j):
    """`exps` with one unit moved from 0-based position j to position i."""
    out = list(exps)
    out[j] -= 1
    out[i] += 1
    return tuple(out)


def _pair(unit, a, b):
    """T_a T_b, its two T-variables ordered without the constructor."""
    return TProduct._sorted(unit, (a, b) if a >= b else (b, a))


def quadrics_single(M):
    """The exchange quadrics of Borel(M), ascending by lead term."""
    block = _Block(0, M, tuple(range(1, M.n + 1)), borel_closure(M))
    return sort_binomials(_exchanges(block, block, block.support))


def _exchanges(va, vb, positions):
    """The quadrics trading one move between a generator of `va` and one of `vb`.

    For s < t in `positions`, m in `va` with x_s | m and n in `vb` with
    x_t | n: T_m T_n - T_{(x_t/x_s)m} T_{(x_s/x_t)n}, whenever (x_t/x_s)m
    stays in its closure and the two sides differ.  `positions` lie in both
    blocks' supports, so the upward move (x_s/x_t)n never leaves its closure.
    Within one block this one direction is enough: the other starts from the
    moved pair and gives the same binomial, which is built only once.
    """
    same = va is vb
    unit = Monomial.unit(va.pivot.n)
    pairs = set()
    for s, t in itertools.combinations(sorted(p - 1 for p in positions), 2):
        moved_a = []
        for i, m in enumerate(va.exps):
            if m[s]:
                j = va.index.get(_moved(m, t, s))
                if j is not None:
                    moved_a.append((i, j))
        for k, n in enumerate(vb.exps):
            if not n[t]:
                continue
            l = vb.index[_moved(n, s, t)]
            for i, j in moved_a:
                # Index pairs name the two sides; within one block a side
                # is an unordered pair.
                u, v = (i, k), (j, l)
                if same:
                    u, v = (max(u), min(u)), (max(v), min(v))
                if u != v:
                    pairs.add(u + v if u > v else v + u)
    return [Binomial.make(_pair(unit, va.tvars[i], vb.tvars[k]),
                          _pair(unit, va.tvars[j], vb.tvars[l]))
            for i, k, j, l in pairs]


def quadrics_bs_form(M):
    """Quadrics pairing two-factor products with their sorted factorization.

    One binomial T_m T_n - T_{f1} T_{f2} per unordered pair whose sorted
    two-factor factorization (f1, f2) differs from (m, n).  Spans the same
    degree-two relations as `quadrics_single`.  The pairs are grouped by
    product, so each product is sorted once.
    """
    block = _Block(0, M, tuple(range(1, M.n + 1)), borel_closure(M))
    unit = Monomial.unit(M.n)
    by_product = {}
    for a, b in itertools.combinations_with_replacement(block.tvars, 2):
        mu = tuple(map(operator.add, a.gen.exps, b.gen.exps))
        by_product.setdefault(mu, []).append((a, b))
    out = []
    for mu, pairs in by_product.items():
        v = _pair(unit, *(block.tvars[block.index[f.exps]]
                          for f in borel_sort(M, Monomial(mu), 2)))
        for a, b in pairs:
            u = _pair(unit, a, b)
            if u != v:
                out.append(Binomial.make(u, v))
    return sort_binomials(out)


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
    xs = [Monomial.variable(p, n) for p in range(1, n + 1)]
    blocks = [_Block(i, e.gen, e.support, e.closure())
              for i, e in enumerate(family.entries, start=1)]

    symmetric = []
    for vs in blocks:
        for m in vs.tvars:
            for t in vs.support:
                if not m.gen.exps[t - 1]:
                    continue
                for s in vs.support:
                    if s >= t:
                        break
                    m2 = vs.tvars[vs.index[_moved(m.gen.exps, s - 1, t - 1)]]
                    symmetric.append(Binomial.make(
                        TProduct._sorted(xs[s - 1], (m,)),
                        TProduct._sorted(xs[t - 1], (m2,))))

    fiber_principal = sort_binomials(
        b for vs in blocks for b in _exchanges(vs, vs, vs.support))
    fiber_biprincipal = sort_binomials(
        b for va, vb in itertools.combinations(blocks, 2)
        for b in _exchanges(va, vb, set(va.support) & set(vb.support)))

    return MultiQuadrics(sort_binomials(symmetric), fiber_principal,
                         fiber_biprincipal)

