"""The quadratic generating sets: exchange and sorted forms for one closure,
the three shapes for a reduced family, and squarefreeness of every lead."""

import itertools
import random
import types

import pytest

from borelgb.borel import borel_closure
from borelgb.families import parse_family, reduce_family
from borelgb.monomials import Monomial, parse_monomial
from borelgb.quadrics import (_exchanges, _in_order, _products, quadrics_bs_form,
                              quadrics_multi, quadrics_single)
from borelgb.sorting import borel_sort
from borelgb.toric import (Binomial, FiberSetup, GeneratorVar, TProduct, _Block,
                           fiber_graph, iterate_images, sort_binomials)

from helpers import (EX_FAMILY, NESTED_FAMILY, TRIANGLE, apply_move, certify,
                     first_non_squarefree_lead, image, is_squarefree,
                     random_interval_family, random_principal_borel_family,
                     tdegree, term_text)


def test_smallest_nontrivial_closure():
    M = parse_monomial("x2^2", 2)
    expected = "T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2]"
    ex = quadrics_single(M)
    bs = quadrics_bs_form(M)
    assert [b.text() for b in ex] == [expected]
    assert ex == bs


def test_closure_without_relations():
    M = parse_monomial("x1*x2", 2)
    assert quadrics_single(M) == ()
    assert quadrics_bs_form(M) == ()


def test_exchange_quadrics_structure():
    M = parse_monomial("x2^2*x4", 4)
    gset = set(borel_closure(M))
    qs = quadrics_single(M)
    assert len(qs) == 26
    for b in qs:
        for side in (b.lead, b.tail):
            assert side.xpart.deg == 0
            assert tdegree(side) == 2
            assert all(t.gen in gset for t in side.tvars)
        assert image(b.lead) == image(b.tail)
        assert b.lead != b.tail
        assert is_squarefree(b.lead)
    assert first_non_squarefree_lead(qs) is None


def test_sorted_form_tails_are_sorted_factorizations():
    M = parse_monomial("x2^2*x4", 4)
    qs = quadrics_bs_form(M)
    assert len(qs) == 21
    for b in qs:
        tail_factors = sorted((t.gen for t in b.tail.tvars),
                              key=lambda m: m.grevlex_key())
        expected = sorted(borel_sort(M, image(b.lead), 2),
                          key=lambda m: m.grevlex_key())
        assert tail_factors == expected
        assert is_squarefree(b.lead)


def test_both_forms_certify_identically_in_degree_two():
    """Exchange and sorted-form sets span the same degree-2 relations: every
    two-factor fiber has the same unique sink under either rewriting."""
    M = parse_monomial("x2^2*x4", 4)
    setup = FiberSetup.single(M)
    ex, bs = quadrics_single(M), quadrics_bs_form(M)
    fibers = 0
    for mu, k in iterate_images(setup, 2):
        if k != 2:
            continue
        ge = fiber_graph(setup, mu, 2, ex)
        gb = fiber_graph(setup, mu, 2, bs)
        ce, se = certify(ge)
        cb, sb = certify(gb)
        assert ge.sinks() == se and gb.sinks() == sb
        assert ce and cb and len(se) == len(sb) == 1
        assert se == sb
        assert [t.gen for t in se[0].tvars] == list(borel_sort(M, mu, 2))
        fibers += 1
    assert fibers > 30


def _counts(q):
    return (len(q.symmetric), len(q.fiber_principal), len(q.fiber_biprincipal))


def test_triangle_family_quadrics():
    tq = quadrics_multi(parse_family(TRIANGLE))
    assert _counts(tq) == (3, 0, 0)
    assert [b.text() for b in tq.symmetric] == [
        "x3*T[t3:x2] - x2*T[t3:x3]",
        "x3*T[t2:x1] - x1*T[t2:x3]",
        "x2*T[t1:x1] - x1*T[t1:x2]",
    ]


def test_family_quadric_counts_and_structure():
    fam = parse_family(EX_FAMILY)
    q = quadrics_multi(fam)
    assert _counts(q) == (17, 7, 14)
    assert len(q.all()) == 38
    closures = {i: set(e.closure()) for i, e in enumerate(fam.entries, start=1)}
    for b in q.symmetric:
        assert tdegree(b.lead) == tdegree(b.tail) == 1
        assert b.lead.xpart.deg == b.tail.xpart.deg == 1
        assert image(b.lead) == image(b.tail)
        t = b.lead.tvars[0]
        assert t.gen in closures[t.block]
    for b in q.fiber_principal:
        assert b.lead.xpart.deg == 0 and b.tail.xpart.deg == 0
        blocks = {t.block for t in b.lead.tvars}
        assert len(blocks) == 1
        assert image(b.lead) == image(b.tail)
    for b in q.fiber_biprincipal:
        assert b.lead.xpart.deg == 0 and b.tail.xpart.deg == 0
        blocks = [t.block for t in b.lead.tvars]
        assert len(set(blocks)) == 2
        assert [t.block for t in b.tail.tvars] == sorted(blocks)
        assert image(b.lead) == image(b.tail)
    assert first_non_squarefree_lead(q.all()) is None

    nq = quadrics_multi(parse_family(NESTED_FAMILY))
    assert _counts(nq) == (19, 10, 17)
    assert first_non_squarefree_lead(nq.all()) is None


def test_quadrics_multi_needs_reduced():
    fam = parse_family("vars = 2\nideal A: support = x2 ; generator = x1*x2\n")
    with pytest.raises(ValueError):
        quadrics_multi(fam)


def test_random_interval_families_have_squarefree_leads():
    rng = random.Random(97)
    for _ in range(20):
        fam = random_interval_family(rng, rng.randint(2, 5), rng.randint(1, 4))
        q = quadrics_multi(fam)
        assert first_non_squarefree_lead(q.all()) is None


def test_first_non_squarefree_lead_detects():
    """The oracle reads only each quadric's lead, so a stand-in holds the
    square lead: T[x1*x2]^2 is the tail of the one quadric of Borel(x2^2)
    and cannot be a `Binomial`'s lead."""
    n = 2
    g = GeneratorVar(0, parse_monomial("x1*x2", n))
    sq = TProduct(parse_monomial("1", n), (g, g))
    other = TProduct(parse_monomial("1", n),
                     (GeneratorVar(0, parse_monomial("x1^2", n)),
                      GeneratorVar(0, parse_monomial("x2^2", n))))
    bad = types.SimpleNamespace(lead=sq, tail=other)
    assert first_non_squarefree_lead([bad]) is bad


def test_in_order_refuses_a_key_with_its_tail_side_first():
    """`_in_order` makes each quadric as `Binomial(lead side, tail side)`
    straight from its key, so a key with the tail side first is refused,
    not flipped."""
    M = parse_monomial("x2^2", 2)
    block = _Block(0, M, (1, 2), borel_closure(M))
    side = _products(Monomial.unit(2), block.tvars)
    (key,) = _exchanges(block, 0, block, 0, block.support)
    assert _in_order([key], side) == quadrics_single(M)
    with pytest.raises(ValueError) as caught:
        _in_order([key[2:] + key[:2]], side)
    assert str(caught.value) == ("quadric T[x1*x2]*T[x1*x2] - T[x1^2]*T[x2^2] "
                                 "has its lead below its tail")


# Oracles for the exchange quadrics: one hand-written loop per shape, each
# moving both generators in both directions where the library moves one.

def exchanges_single_by_loops(M):
    gens = borel_closure(M)
    gset = set(gens)
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
                    out.add(Binomial.make(u, v))
    return sort_binomials(out)


def exchanges_multi_by_loops(family):
    """(within-block, cross-block) exchange quadrics of a reduced family."""
    unit = Monomial.unit(family.n)
    closures = [e.closure() for e in family.entries]
    supports = [e.support for e in family.entries]

    fiber_principal = set()
    for idx, e in enumerate(family.entries, start=1):
        gset = set(closures[idx - 1])
        for m in closures[idx - 1]:
            for n_ in closures[idx - 1]:
                for j in m.support():
                    if j not in e.support:
                        continue
                    for i in n_.support():
                        if i >= j or i not in e.support:
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
                        fiber_principal.add(Binomial.make(u, v))

    fiber_biprincipal = set()
    for ia, ib in itertools.combinations(range(1, family.r + 1), 2):
        shared = sorted(set(supports[ia - 1]) & set(supports[ib - 1]))
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
                    fiber_biprincipal.add(Binomial.make(u, v))
    return sort_binomials(fiber_principal), sort_binomials(fiber_biprincipal)


def texts(binomials):
    return [b.text() for b in binomials]


def test_single_exchanges_match_loops_on_every_small_closure():
    closures = 0
    for n in range(1, 5):
        for exps in itertools.product(range(4), repeat=n):
            if not 1 <= sum(exps) <= 3:
                continue
            M = Monomial(exps)
            assert texts(quadrics_single(M)) == \
                texts(exchanges_single_by_loops(M)), M
            closures += 1
    assert closures == 3 + 9 + 19 + 34
    M = parse_monomial("x3^2*x5^2", 5)
    assert texts(quadrics_single(M)) == texts(exchanges_single_by_loops(M))


def test_family_exchanges_match_loops_on_random_families():
    rng = random.Random(59)
    seen_cross = 0
    for i in range(80):
        draw = random_interval_family if i % 2 else random_principal_borel_family
        fam, _ = reduce_family(draw(rng, rng.randint(2, 5), rng.randint(1, 4)))
        q = quadrics_multi(fam)
        principal, biprincipal = exchanges_multi_by_loops(fam)
        assert texts(q.fiber_principal) == texts(principal)
        assert texts(q.fiber_biprincipal) == texts(biprincipal)
        seen_cross += bool(biprincipal)
    assert seen_cross > 10


# Oracles for the sorted form and the symmetric shape: the per-pair and
# per-move loops, each side built by the generic constructors and oriented
# by `Binomial.make`.

def bs_form_by_pairs(M):
    """One `borel_sort` and one `Binomial.make` per unordered pair."""
    gens = borel_closure(M)
    unit = Monomial.unit(M.n)
    out = set()
    for m, n in itertools.combinations_with_replacement(gens, 2):
        f1, f2 = borel_sort(M, m * n, 2)
        u = TProduct(unit, (GeneratorVar(0, m), GeneratorVar(0, n)))
        v = TProduct(unit, (GeneratorVar(0, f1), GeneratorVar(0, f2)))
        if u == v:
            continue
        out.add(Binomial.make(u, v))
    return sort_binomials(out)


def symmetric_by_loops(family):
    n = family.n
    out = set()
    for idx, e in enumerate(family.entries, start=1):
        sup = e.support
        for m in e.closure():
            for t in m.support():
                if t not in e.support:
                    continue
                for s in sup:
                    if s >= t:
                        break
                    u = TProduct(Monomial.variable(s, n), (GeneratorVar(idx, m),))
                    v = TProduct(Monomial.variable(t, n),
                                 (GeneratorVar(idx, apply_move(m, s, t)),))
                    out.add(Binomial.make(u, v))
    return sort_binomials(out)


LARGER_CLOSURES = (("x3^2*x5^2", 5), ("x2*x4*x5", 5), ("x2*x3*x5", 5),
                   ("x6^4", 6))


def small_closures(variables):
    """Every pivot of degree 1 to 3 in each number of `variables`."""
    return [Monomial(exps) for n in variables
            for exps in itertools.product(range(4), repeat=n)
            if 1 <= sum(exps) <= 3]


def test_sorted_form_matches_pairs_on_every_small_closure():
    """The builder takes each product's least pair as its tail; the oracle
    sorts every pair with `borel_sort`.  They must agree on every closure
    of degree at most 3 in 1 to 4 and in 6 variables, and on larger ones."""
    pivots = small_closures((1, 2, 3, 4, 6))
    assert len(pivots) == 65 + 83
    for M in pivots:
        assert texts(quadrics_bs_form(M)) == texts(bs_form_by_pairs(M)), M
    for text, n in LARGER_CLOSURES:
        M = parse_monomial(text, n)
        assert texts(quadrics_bs_form(M)) == texts(bs_form_by_pairs(M)), text


def test_symmetric_shape_matches_loops_on_families():
    rng = random.Random(61)
    fams = [parse_family(t) for t in (TRIANGLE, EX_FAMILY, NESTED_FAMILY)]
    for i in range(60):
        draw = random_interval_family if i % 2 else random_principal_borel_family
        fams.append(reduce_family(draw(rng, rng.randint(2, 5), rng.randint(1, 4)))[0])
    for fam in fams:
        assert texts(quadrics_multi(fam).symmetric) == texts(symmetric_by_loops(fam))


# A family with all three shapes: 100 symmetric, 216 within-block and 246
# cross-block quadrics.
THREE_SHAPES = """vars = 5
ideal A: support = x1,x2,x3,x4,x5 ; generator = x3*x5
ideal B: support = x2,x3,x4,x5 ; generator = x4*x5^2
ideal C: support = x1,x2,x3 ; generator = x2*x3
"""


def test_builders_make_large_sets_in_strict_order():
    """The builders order their quadrics by integer keys and make each one
    once; on sets too large for the loop oracles each must still ascend
    strictly under (lead, tail), as `sort_binomials` leaves it."""
    x6_4 = parse_monomial("x6^4", 6)
    three = quadrics_multi(parse_family(THREE_SHAPES))
    sets = [(quadrics_single(x6_4), 20895), (quadrics_bs_form(x6_4), 6714),
            (three.symmetric, 100), (three.fiber_principal, 216),
            (three.fiber_biprincipal, 246)]
    for quads, count in sets:
        assert len(quads) == count
        keys = [(b.lead.key, b.tail.key) for b in quads]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert sort_binomials(quads) == quads


def test_equal_sides_are_one_tproduct_with_its_image_and_text_kept():
    """Within one quadric set, equal sides are one object; its kept image is
    a fresh sum of its own fields, and its kept text follows the base asked
    for, back and forth, on both single forms and on the test families."""
    rng = random.Random(67)
    sets = [build(M) for M in small_closures((1, 2, 3, 4))
            for build in (quadrics_single, quadrics_bs_form)]
    sets += [build(parse_monomial(text, n)) for text, n in LARGER_CLOSURES[:3]
             for build in (quadrics_single, quadrics_bs_form)]
    fams = [parse_family(t) for t in (TRIANGLE, EX_FAMILY, NESTED_FAMILY,
                                      THREE_SHAPES)]
    for i in range(20):
        draw = random_interval_family if i % 2 else random_principal_borel_family
        fams.append(reduce_family(draw(rng, rng.randint(2, 5), rng.randint(1, 4)))[0])
    sets += [quadrics_multi(fam).all() for fam in fams]
    distinct = []
    for quads in sets:
        made = {}
        for side in (s for b in quads for s in (b.lead, b.tail)):
            assert made.setdefault(side.key, side) is side
            assert Monomial(side.image_exps()) == image(side)
            assert side.image_exps() is side.image_exps()
        distinct.append(len(made))
        for base in (0, 1, 0):
            assert [b.text(base) for b in quads] == [
                f"{term_text(b.lead, base)} - {term_text(b.tail, base)}"
                for b in quads]
    # The 2,589 exchange quadrics of x3^2*x5^2 have 5,178 sides, 1,386 distinct.
    at = 2 * len(small_closures((1, 2, 3, 4)))
    assert (len(sets[at]), distinct[at]) == (2589, 1386)


def test_quadric_sides_must_share_image_and_blocks():
    """`Binomial.make` rejects sides that differ in image or in blocks, each
    with the other agreeing, and a zero binomial."""
    n = 3

    def side(x, *pairs):
        return TProduct(parse_monomial(x, n),
                        [GeneratorVar(b, parse_monomial(g, n)) for b, g in pairs])

    lead = side("1", (0, "x1^2"), (0, "x2^2"))
    assert Binomial.make(side("1", (0, "x1*x2"), (0, "x1*x2")), lead) == \
        Binomial(lead, side("1", (0, "x1*x2"), (0, "x1*x2")))
    other_image = side("1", (0, "x1*x2"), (0, "x1*x3"))
    other_blocks = side("1", (1, "x1*x2"), (0, "x1*x2"))
    for bad in (other_image, other_blocks):
        with pytest.raises(ValueError, match="different images"):
            Binomial.make(lead, bad)
        with pytest.raises(ValueError, match="different images"):
            Binomial.make(bad, lead)
    # One T-variable with an x part, as in the symmetric shape.
    x_lead = side("x3", (1, "x1"))
    with pytest.raises(ValueError, match="different images"):
        Binomial.make(x_lead, side("x2", (1, "x1")))
    with pytest.raises(ValueError, match="different images"):
        Binomial.make(x_lead, side("x1", (2, "x3")))
    assert Binomial.make(side("x1", (1, "x3")), x_lead) == \
        Binomial(x_lead, side("x1", (1, "x3")))
    with pytest.raises(ValueError, match="zero binomial"):
        Binomial.make(lead, side("1", (0, "x2^2"), (0, "x1^2")))
