"""T-products, the eliminating term order, fiber graphs, and the two
independent certification routes (unique sinks and S-pair reduction)."""

import functools
import itertools
import random

import pytest

from borelgb.borel import borel_closure
from borelgb.families import parse_family, random_interval_family
from borelgb.monomials import Monomial, parse_monomial
from borelgb.quadrics import quadrics_multi, quadrics_single
from borelgb.toric import (Binomial, FiberSetup, GeneratorVar, Limits,
                           ResourceLimitError, TermOrder, TProduct, certify,
                           enumerate_fiber, fiber_graph, iterate_images,
                           sort_binomials, spair_certificate, t_min, to_dot,
                           verify_groebner_by_fibers)

TRIANGLE = """vars = 3
ideal I1: support = x1,x2 ; generator = x2
ideal I2: support = x1,x3 ; generator = x3
ideal I3: support = x2,x3 ; generator = x3
"""

EX_FAMILY = """vars = 4
ideal I1: support = x4 ; generator = x4
ideal I2: support = x3,x4 ; generator = x3*x4
ideal I3: support = x2,x3,x4 ; generator = x3*x4
ideal I4: support = x1,x2,x3 ; generator = x1*x2*x3
ideal I5: support = x1,x2 ; generator = x1*x2^2
"""


def M(text, n=4):
    return parse_monomial(text, n)


def tp(xtext, n, *gens):
    return TProduct(parse_monomial(xtext, n),
                    [GeneratorVar(b, parse_monomial(g, n)) for b, g in gens])


def test_generator_var_key_and_text():
    a = GeneratorVar(1, M("x3*x4"))
    b = GeneratorVar(1, M("x4^2"))
    c = GeneratorVar(2, M("x3*x4"))
    assert a.key > b.key > c.key  # larger key = larger variable
    assert a.text() == "t1:x3*x4"
    assert a.text(tagged=False) == "x3*x4"
    assert a.text(base=0) == "t1:x2*x3"
    assert a == GeneratorVar(1, M("x3*x4")) and a != c
    with pytest.raises(ValueError):
        GeneratorVar(-1, M("x4"))


def test_tproduct_canonical_sorting():
    t = tp("x1", 4, (2, "x3*x4"), (1, "x4"), (2, "x3^2"))
    assert t.label() == "x1 | t1:x4, t2:x3^2, t2:x3*x4"
    assert t.term_text() == "x1*T[t1:x4]*T[t2:x3^2]*T[t2:x3*x4]"
    assert tp("1", 4).term_text() == "1"
    assert t.tdegree == 3
    assert t.beta(3) == (1, 2, 0)
    assert t.image() == M("x1*x3^3*x4^2")


def test_tproduct_arithmetic():
    a = tp("x1", 4, (1, "x4"))
    b = tp("x2", 4, (2, "x3*x4"))
    ab = a.times(b)
    assert ab == tp("x1*x2", 4, (1, "x4"), (2, "x3*x4"))
    assert a.divides(ab) and b.divides(ab)
    assert ab.quotient(a) == b
    assert not ab.divides(a)
    with pytest.raises(ValueError):
        a.quotient(b)
    assert a.lcm_with(b) == ab
    assert a.lcm_with(a) == a
    sq = tp("x1^2", 4, (1, "x4"))
    assert not sq.is_squarefree()
    assert not a.times(a).is_squarefree()
    assert ab.is_squarefree()


def test_term_order_goldens():
    order = TermOrder()
    n = 2
    big = tp("1", n, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", n, (0, "x1*x2"), (0, "x1*x2"))
    assert order.compare(big, small) == 1
    assert order.compare(small, big) == -1
    assert order.compare(big, big) == 0
    # any T variable beats any x part
    assert order.compare(tp("1", n, (0, "x2^2")), tp("x1^5", n)) == 1
    # more T factors beat fewer when one list prefixes the other
    assert order.compare(big, tp("1", n, (0, "x1^2"))) == 1
    # earlier blocks are larger
    assert order.compare(tp("1", 4, (1, "x4")), tp("1", 4, (2, "x3*x4"))) == 1
    # x parts tie-break lexicographically with x1 largest
    g = (1, "x4")
    assert order.compare(tp("x1", 4, g), tp("x2^3", 4, g)) == 1


def test_term_order_is_multiplicative():
    rng = random.Random(11)
    order = TermOrder()
    pool = [GeneratorVar(b, Monomial(tuple(rng.randint(0, 2) for _ in range(3))))
            for b in (1, 2) for _ in range(4)]

    def rand_tp():
        tvars = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        xp = Monomial(tuple(rng.randint(0, 2) for _ in range(3)))
        return TProduct(xp, tvars)

    for _ in range(300):
        a, b, c = rand_tp(), rand_tp(), rand_tp()
        s = order.compare(a, b)
        assert s == -order.compare(b, a)
        assert order.compare(a.times(c), b.times(c)) == s


def _rank_compare(a, b):
    """The term order as a comparator on generator ranks (block, -deg,
    reversed exponents), smaller rank meaning the larger variable."""
    ra = sorted((t.block, -t.gen.deg, tuple(reversed(t.gen.exps))) for t in a.tvars)
    rb = sorted((t.block, -t.gen.deg, tuple(reversed(t.gen.exps))) for t in b.tvars)
    for x, y in zip(ra, rb):
        if x != y:
            return 1 if x < y else -1
    if len(ra) != len(rb):
        return 1 if len(ra) > len(rb) else -1
    ka, kb = a.xpart.exps, b.xpart.exps
    return (ka > kb) - (ka < kb)


def test_term_order_key_matches_rank_comparator():
    rng = random.Random(5)
    order = TermOrder()

    def rand_tp():
        tvars = [GeneratorVar(rng.randint(0, 2), Monomial(
            tuple(rng.randint(0, 2) for _ in range(3))))
            for _ in range(rng.randint(0, 3))]
        return TProduct(Monomial(tuple(rng.randint(0, 2) for _ in range(3))), tvars)

    pts = [rand_tp() for _ in range(200)]
    pts += [TProduct(p.xpart, reversed(p.tvars)) for p in pts[:20]]
    for a, b in zip(pts, pts[1:] + pts[:1]):
        assert order.compare(a, b) == _rank_compare(a, b)
    assert order.sort(pts) == tuple(sorted(pts, key=functools.cmp_to_key(_rank_compare)))


def test_binomial_make_orients_and_validates():
    order = TermOrder()
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    assert Binomial.make(small, big, order) == Binomial(big, small)
    assert Binomial.make(big, small, order) == Binomial(big, small)
    with pytest.raises(ValueError):
        Binomial.make(big, big, order)
    with pytest.raises(ValueError):  # images differ
        Binomial.make(tp("1", 2, (0, "x1^2")), tp("1", 2, (0, "x1*x2")), order)
    with pytest.raises(ValueError):  # same image, different block counts
        Binomial.make(tp("1", 4, (1, "x3*x4")), tp("1", 4, (2, "x3*x4")),
                      TermOrder())
    b = Binomial(big, small)
    assert b.text(tagged=False) == "T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2]"


def test_sort_binomials_dedupes():
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    b = Binomial(big, small)
    assert sort_binomials([b, b]) == (b,)


def test_enumerate_fiber_single():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    pts = enumerate_fiber(setup, parse_monomial("x1^2*x2^2", 2), 2)
    assert [p.label(tagged=False) for p in pts] == [
        "1 | x1*x2, x1*x2", "1 | x1^2, x2^2"]
    assert all(p.image() == parse_monomial("x1^2*x2^2", 2) for p in pts)
    assert enumerate_fiber(setup, parse_monomial("x1^3*x2", 2), 1) == ()
    with pytest.raises(ValueError):
        FiberSetup.single(Monomial.unit(2))
    with pytest.raises(ValueError):
        enumerate_fiber(setup, parse_monomial("x1", 1), 1)
    with pytest.raises(ValueError):
        enumerate_fiber(setup, parse_monomial("x1*x2", 2), (1, 1))


def test_fiber_degrees_must_be_in_range():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least one factor"):
            enumerate_fiber(setup, parse_monomial("x1^2*x2^2", 2), k)
    tsetup = FiberSetup.for_family(parse_family(TRIANGLE))
    with pytest.raises(ValueError, match="negative block degree"):
        enumerate_fiber(tsetup, parse_monomial("x1*x2", 3), (1, -1, 1))


def test_enumerate_fiber_multi():
    tri = parse_family(TRIANGLE)
    setup = FiberSetup.for_family(tri)
    pts = enumerate_fiber(setup, parse_monomial("x1*x2*x3", 3), (1, 1, 1))
    assert [p.label() for p in pts] == [
        "1 | t1:x2, t2:x1, t3:x3", "1 | t1:x1, t2:x3, t3:x2"]
    with pytest.raises(ValueError):
        enumerate_fiber(setup, parse_monomial("x1*x2*x3", 3), (1, 1))
    nonreduced = parse_family(
        "vars = 2\nideal A: support = x2 ; generator = x1*x2\n")
    with pytest.raises(ValueError):
        FiberSetup.for_family(nonreduced)


def test_fiber_graph_and_certify():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    mu = parse_monomial("x1^2*x2^2", 2)
    qs = quadrics_single(parse_monomial("x2^2", 2))
    g = fiber_graph(setup, mu, 2, qs)
    assert g.edges == ((1, 0, 0),)
    assert g.beta == (2,)
    connected, sinks = certify(g)
    assert connected and [s.label(tagged=False) for s in sinks] == [
        "1 | x1*x2, x1*x2"]
    # triangle (1,1,1)-fiber: no quadric applies, two isolated points
    tri = parse_family(TRIANGLE)
    tsetup = FiberSetup.for_family(tri)
    tg = fiber_graph(tsetup, parse_monomial("x1*x2*x3", 3),
                     (1, 1, 1), quadrics_multi(tri).all())
    assert tg.edges == ()
    connected, sinks = certify(tg)
    assert not connected and len(sinks) == 2


def test_fiber_graph_rejects_bad_quadrics():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    mu = parse_monomial("x1^2*x2^2", 2)
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    with pytest.raises(AssertionError):  # rewrite increases the order
        fiber_graph(setup, mu, 2, [Binomial(small, big)])
    with pytest.raises(AssertionError):  # rewrite leaves the fiber
        fiber_graph(setup, mu, 2,
                    [Binomial(tp("1", 2, (0, "x1^2")), tp("1", 2, (0, "x1*x2")))])


def test_to_dot_golden():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    g = fiber_graph(setup, parse_monomial("x1^2*x2^2", 2), 2,
                    quadrics_single(parse_monomial("x2^2", 2)))
    assert to_dot(g, tagged=False) == (
        'digraph fiber {\n'
        '  v0 [label="1 | x1*x2, x1*x2"];\n'
        '  v1 [label="1 | x1^2, x2^2"];\n'
        '  v1 -> v0 [label="q0"];\n'
        '}\n')


def test_iterate_images_single():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    imgs = iterate_images(setup, 2)
    assert [(m.text(), k) for m, k in imgs] == [
        ("x2^2", 1), ("x1*x2", 1), ("x1^2", 1),
        ("x2^4", 2), ("x1*x2^3", 2), ("x1^2*x2^2", 2),
        ("x1^3*x2", 2), ("x1^4", 2)]
    assert imgs == iterate_images(setup, 2)  # deterministic


def _product_images(setup, bound):
    """Single-setup images as products of k closure members, k = 1..bound."""
    gens = setup.blocks[0].gens_desc
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


def test_iterate_images_single_matches_products():
    checked = 0
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in borel_closure(Monomial((0,) * (n - 1) + (deg,))):
                setup = FiberSetup.single(M)
                assert iterate_images(setup, 3) == _product_images(setup, 3)
                checked += 1
    assert checked == 65


def test_setup_needs_an_ideal():
    with pytest.raises(ValueError, match="at least one ideal"):
        FiberSetup.for_family(parse_family("vars = 2\n"))


def test_iterate_images_multi_includes_lcms():
    tri = parse_family(TRIANGLE)
    setup = FiberSetup.for_family(tri)
    imgs = iterate_images(setup, 2)
    seen = {(m.text(), beta) for m, beta in imgs}
    # block 2 products of degree 1 are x3 and x1; their lcm joins the plain images
    assert ("x3", (0, 1, 0)) in seen
    assert ("x1", (0, 1, 0)) in seen
    assert ("x1*x3", (0, 1, 0)) in seen
    assert all(sum(beta) <= 2 and sum(beta) >= 1 for _, beta in imgs)


def _graph_failures(setup, quads, bound):
    """Verify's failures recomputed from fiber graphs and their sinks."""
    out = []
    for mu, beta in iterate_images(setup, bound):
        graph = fiber_graph(setup, mu, beta, quads)
        _, sinks = certify(graph)
        if len(graph.vertices) > 1 and len(sinks) != 1:
            out.append((mu, beta if setup.kind == "multi" else None, sinks))
    return tuple(out)


def test_sweep_failures_match_graph_sinks():
    rng = random.Random(31)
    singles, families = [], []
    while len(singles) < 6:
        exps = [0, 0, 1]
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(3)] += 1
        M = Monomial(tuple(exps))
        if len(quadrics_single(M)) >= 3:
            singles.append((FiberSetup.single(M), quadrics_single(M), 3))
    while len(families) < 6:
        fam = random_interval_family(rng, rng.randint(3, 4), rng.randint(2, 3))
        if 3 <= len(quadrics_multi(fam).all()) <= 20:
            families.append((FiberSetup.for_family(fam),
                             quadrics_multi(fam).all(), 2))
    failing = 0
    for setup, quads, bound in singles + families:
        for subset in (quads, tuple(q for q in quads if rng.random() < 0.5)):
            rep = verify_groebner_by_fibers(setup, subset, bound)
            assert rep.failures == _graph_failures(setup, subset, bound)
            failing += not rep.passed
    assert failing >= 8


def test_verify_rejects_bad_quadrics():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    with pytest.raises(ValueError, match="lead below its tail"):
        verify_groebner_by_fibers(setup, [Binomial(small, big)], 2)
    with pytest.raises(ValueError, match="different images"):
        verify_groebner_by_fibers(setup, [Binomial(tp("1", 2, (0, "x1^2")),
                                                   tp("1", 2, (0, "x1*x2")))], 2)
    # quadrics of Borel(x2^2) use x2^2, which Borel(x1*x2) lacks
    other = FiberSetup.single(parse_monomial("x1*x2", 2))
    with pytest.raises(ValueError, match="not a generator of its block"):
        verify_groebner_by_fibers(other, quadrics_single(parse_monomial("x2^2", 2)), 2)
    # block-0 quadrics against a family's blocks 1..3
    tri = FiberSetup.for_family(parse_family(TRIANGLE))
    with pytest.raises(ValueError, match="not a generator of its block"):
        verify_groebner_by_fibers(tri, quadrics_single(parse_monomial("x2*x3", 3)), 2)
    with pytest.raises(ValueError, match="bound of at least 1"):
        verify_groebner_by_fibers(setup, quadrics_single(parse_monomial("x2^2", 2)), 0)


def test_verify_pass_single():
    M4 = parse_monomial("x2^2*x4", 4)
    setup = FiberSetup.single(M4)
    rep = verify_groebner_by_fibers(setup, quadrics_single(M4), 3)
    assert rep.passed
    assert rep.images_checked == 124
    assert rep.lines() == ["PASS", "certificate: fibers bound=3"]


def test_verify_jobs_match():
    M4 = parse_monomial("x2^2*x4", 4)
    setup = FiberSetup.single(M4)
    qs = quadrics_single(M4)
    seq = verify_groebner_by_fibers(setup, qs, 2, jobs=1)
    par = verify_groebner_by_fibers(setup, qs, 2, jobs=2)
    assert seq.lines() == par.lines()
    assert seq.images_checked == par.images_checked


def test_verify_fail_triangle():
    tri = parse_family(TRIANGLE)
    setup = FiberSetup.for_family(tri)
    rep = verify_groebner_by_fibers(setup, quadrics_multi(tri).all(), 3)
    assert not rep.passed
    assert rep.images_checked == 187
    lines = rep.lines()
    assert "FAIL x1*x2*x3 t1*t2*t3 sinks=2" in lines
    i = lines.index("FAIL x1*x2*x3 t1*t2*t3 sinks=2")
    assert lines[i + 1] == "  sink 1 | t1:x2, t2:x1, t3:x3"
    assert lines[i + 2] == "  sink 1 | t1:x1, t2:x3, t3:x2"
    assert lines[-1] == "certificate: fibers bound=3"


def test_spair_pass_single():
    M4 = parse_monomial("x2^2*x4", 4)
    setup = FiberSetup.single(M4)
    rep = spair_certificate(quadrics_single(M4), setup.order)
    assert rep.passed
    assert rep.pairs_checked == 132
    assert rep.pairs_skipped == 193
    assert rep.lines() == ["PASS", "certificate: spairs"]


def test_spair_fail_triangle():
    tri = parse_family(TRIANGLE)
    setup = FiberSetup.for_family(tri)
    rep = spair_certificate(quadrics_multi(tri).all(), setup.order)
    assert not rep.passed
    assert rep.lines()[0] == (
        "FAIL spair [x3*T[t3:x2] - x2*T[t3:x3]] [x3*T[t2:x1] - x1*T[t2:x3]] "
        "normal-form: x2*T[t2:x1]*T[t3:x3] - x1*T[t2:x3]*T[t3:x2]")
    # the surviving difference is a genuine cubic relation: equal images
    u, v = rep.normal_form
    assert u.image() == v.image()
    assert u.tdegree == v.tdegree == 2


def test_t_min_goldens():
    fam = parse_family(EX_FAMILY)
    got = t_min(fam, M("x1^6*x2^9*x3^6*x4^4"), (1, 2, 2, 2, 2))
    assert got.label() == ("x1^2*x2^2 | t1:x4, t2:x3*x4, t2:x3*x4, t3:x3^2, "
                           "t3:x3*x4, t4:x1*x2^2, t4:x1*x2*x3, t5:x1*x2^2, "
                           "t5:x1*x2^2")
    assert got.image() == M("x1^6*x2^9*x3^6*x4^4")
    # zero entries skip their block entirely
    got = t_min(fam, M("x1*x3*x4"), (0, 1, 0, 0, 0))
    assert got.label() == "x1 | t2:x3*x4"
    # blocks that cannot divide the image make the point undefined
    tri = parse_family(TRIANGLE)
    assert t_min(tri, parse_monomial("x1*x2*x3", 3), (1, 1, 1)) is None
    with pytest.raises(ValueError):
        t_min(fam, M("x4"), (1, 0))
    with pytest.raises(ValueError):
        t_min(fam, parse_monomial("x1", 1), (0, 0, 0, 0, 0))


def test_t_min_is_least_fiber_point():
    fam = parse_family(EX_FAMILY)
    setup = FiberSetup.for_family(fam)
    rng = random.Random(23)
    hits = 0
    for _ in range(40):
        beta = tuple(rng.randint(0, 2) for _ in range(fam.r))
        if sum(beta) == 0:
            continue
        parts = []
        for idx, e in enumerate(fam.entries):
            closure = e.closure()
            parts.extend(rng.choice(closure) for _ in range(beta[idx]))
        mu = Monomial(tuple(rng.randint(0, 1) for _ in range(4)))
        for p in parts:
            mu = mu * p
        pts = enumerate_fiber(setup, mu, beta)
        least = t_min(fam, mu, beta)
        assert pts and least == pts[0]
        hits += 1
    assert hits >= 30


def test_resource_limits_trip():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    mu = parse_monomial("x1^2*x2^2", 2)
    with pytest.raises(ResourceLimitError):
        enumerate_fiber(setup, mu, 2, limits=Limits(max_vertices=1))
    with pytest.raises(ResourceLimitError):
        fiber_graph(setup, mu, 2, quadrics_single(parse_monomial("x2^2", 2)),
                    limits=Limits(max_checks=1))
    M4 = parse_monomial("x2^2*x4", 4)
    with pytest.raises(ResourceLimitError):
        spair_certificate(quadrics_single(M4), TermOrder(),
                          limits=Limits(max_steps=1))
    with pytest.raises(ResourceLimitError):
        verify_groebner_by_fibers(setup, quadrics_single(
            parse_monomial("x2^2", 2)), 2, limits=Limits(max_checks=1))
