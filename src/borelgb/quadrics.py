"""Quadratic binomial generating sets for the toric ideals of Borel closures.

For a single closure Borel(M), the exchange quadrics swap one variable
between the two chosen factors: T_m T_n - T_{(x_i/x_j)m} T_{(x_j/x_i)n} with
i < j and all four monomials in the closure.  The sorted-form set instead
pairs each product with its canonical two-factor sorted factorization.  For a
reduced family, three shapes appear: symmetric quadrics trading an x variable
against a move inside one block, within-block exchange quadrics, and
cross-block exchange quadrics trading a move between two blocks that share
the two positions.  Every lead term produced here is squarefree.
"""

from __future__ import annotations

import itertools

from .borel import borel_closure
from .monomials import Monomial, apply_move
from .sorting import borel_sort
from .toric import Binomial, GeneratorVar, TermOrder, TProduct, sort_binomials


def quadrics_single(M):
    """The exchange quadrics of Borel(M), ascending by lead term."""
    gens = borel_closure(M)
    gset = set(gens)
    order = TermOrder()
    unit = Monomial.unit(M.n)
    out = set()
    for m in gens:
        for n in gens:
            for j in m.support():
                for i in n.support():
                    if i >= j:
                        continue
                    m2 = apply_move(m, i, j)
                    n2 = apply_move(n, j, i)
                    if n2 not in gset:
                        continue
                    u = TProduct(unit, (GeneratorVar(0, m), GeneratorVar(0, n)))
                    v = TProduct(unit, (GeneratorVar(0, m2), GeneratorVar(0, n2)))
                    if u == v:
                        continue
                    out.add(Binomial.make(u, v, order))
    return sort_binomials(out)


def quadrics_bs_form(M):
    """Quadrics pairing two-factor products with their sorted factorization.

    One binomial T_m T_n - T_{f1} T_{f2} per unordered pair whose sorted
    two-factor factorization (f1, f2) differs from (m, n).  Spans the same
    degree-two relations as `quadrics_single`.
    """
    gens = borel_closure(M)
    order = TermOrder()
    unit = Monomial.unit(M.n)
    out = set()
    for m, n in itertools.combinations_with_replacement(gens, 2):
        f1, f2 = borel_sort(M, m * n, 2)
        u = TProduct(unit, (GeneratorVar(0, m), GeneratorVar(0, n)))
        v = TProduct(unit, (GeneratorVar(0, f1), GeneratorVar(0, f2)))
        if u == v:
            continue
        out.add(Binomial.make(u, v, order))
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

    def counts(self):
        return (len(self.symmetric), len(self.fiber_principal),
                len(self.fiber_biprincipal))


def quadrics_multi(family):
    """All three quadric shapes for a reduced family."""
    if not family.is_reduced():
        raise ValueError("quadrics need a reduced family (apply reduce first)")
    order = TermOrder()
    n = family.n
    unit = Monomial.unit(n)
    closures = family.closures()
    supports = [e.poset.positions() for e in family.entries]

    symmetric = set()
    for idx, e in enumerate(family.entries, start=1):
        sup = supports[idx - 1]
        for m in closures[idx - 1]:
            for t in m.support():
                if t not in e.poset.support:
                    continue
                for s in sup:
                    if s >= t:
                        break
                    m2 = apply_move(m, s, t)
                    u = TProduct(Monomial.variable(s, n), (GeneratorVar(idx, m),))
                    v = TProduct(Monomial.variable(t, n), (GeneratorVar(idx, m2),))
                    symmetric.add(Binomial.make(u, v, order))

    fiber_principal = set()
    for idx, e in enumerate(family.entries, start=1):
        gset = set(closures[idx - 1])
        for m in closures[idx - 1]:
            for n_ in closures[idx - 1]:
                for j in m.support():
                    if j not in e.poset.support:
                        continue
                    for i in n_.support():
                        if i >= j or i not in e.poset.support:
                            continue
                        m2 = apply_move(m, i, j)
                        n2 = apply_move(n_, j, i)
                        if m2 not in gset or n2 not in gset:
                            continue
                        u = TProduct(unit, (GeneratorVar(idx, m),
                                            GeneratorVar(idx, n_)))
                        v = TProduct(unit, (GeneratorVar(idx, m2),
                                            GeneratorVar(idx, n2)))
                        if u == v:
                            continue
                        fiber_principal.add(Binomial.make(u, v, order))

    fiber_biprincipal = set()
    for ia, ib in itertools.combinations(range(1, family.r + 1), 2):
        shared = sorted(set(supports[ia - 1]) & set(supports[ib - 1]))
        if len(shared) < 2:
            continue
        set_a = set(closures[ia - 1])
        set_b = set(closures[ib - 1])
        for s, t in itertools.combinations(shared, 2):
            for m in closures[ia - 1]:
                if m.exps[s - 1] == 0:
                    continue
                m2 = apply_move(m, t, s)
                if m2 not in set_a:
                    continue
                for n_ in closures[ib - 1]:
                    if n_.exps[t - 1] == 0:
                        continue
                    n2 = apply_move(n_, s, t)
                    if n2 not in set_b:
                        continue
                    u = TProduct(unit, (GeneratorVar(ia, m), GeneratorVar(ib, n_)))
                    v = TProduct(unit, (GeneratorVar(ia, m2), GeneratorVar(ib, n2)))
                    if u == v:
                        continue
                    fiber_biprincipal.add(Binomial.make(u, v, order))

    return MultiQuadrics(sort_binomials(symmetric),
                         sort_binomials(fiber_principal),
                         sort_binomials(fiber_biprincipal))


def first_non_squarefree_lead(binomials):
    """The first binomial whose lead term is not squarefree, or None."""
    for b in binomials:
        if not b.lead.is_squarefree():
            return b
    return None
