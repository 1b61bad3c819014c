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
    return sort_binomials(_exchanges(0, gens, 0, gens, range(1, M.n + 1),
                                     TermOrder()))


def _exchanges(ia, gens_a, ib, gens_b, positions, order):
    """The quadrics trading one move between a block-ia and a block-ib generator.

    For s < t in `positions`, m in `gens_a` with x_s | m and n in `gens_b`
    with x_t | n: T_m T_n - T_{(x_t/x_s)m} T_{(x_s/x_t)n}, whenever (x_t/x_s)m
    stays in its closure and the two sides differ.  `positions` lie in both
    blocks' supports, so the upward move (x_s/x_t)n never leaves its closure.
    Within one block this one direction is enough: the other starts from the
    moved pair and gives the same binomial once `Binomial.make` orients it.
    """
    set_a = set(gens_a)
    unit = Monomial.unit(gens_a[0].n)
    out = set()
    for s, t in itertools.combinations(sorted(positions), 2):
        moved_a = [(m, apply_move(m, t, s)) for m in gens_a if m.exps[s - 1]]
        moved_a = [(m, m2) for m, m2 in moved_a if m2 in set_a]
        for n in gens_b:
            if not n.exps[t - 1]:
                continue
            n2 = apply_move(n, s, t)
            for m, m2 in moved_a:
                u = TProduct(unit, (GeneratorVar(ia, m), GeneratorVar(ib, n)))
                v = TProduct(unit, (GeneratorVar(ia, m2), GeneratorVar(ib, n2)))
                if u != v:
                    out.add(Binomial.make(u, v, order))
    return out


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

    fiber_principal = sort_binomials(
        b for i, gens in enumerate(closures, start=1)
        for b in _exchanges(i, gens, i, gens, supports[i - 1], order))
    fiber_biprincipal = sort_binomials(
        b for ia, ib in itertools.combinations(range(1, family.r + 1), 2)
        for b in _exchanges(ia, closures[ia - 1], ib, closures[ib - 1],
                            set(supports[ia - 1]) & set(supports[ib - 1]), order))

    return MultiQuadrics(sort_binomials(symmetric), fiber_principal,
                         fiber_biprincipal)


def first_non_squarefree_lead(binomials):
    """The first binomial whose lead term is not squarefree, or None."""
    for b in binomials:
        if not b.lead.is_squarefree():
            return b
    return None
