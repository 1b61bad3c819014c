"""T-products, the eliminating term order, fiber graphs, and the two
independent certification routes (unique sinks and S-pair reduction)."""

import functools
import gc
import itertools
import operator
import pathlib
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from borelgb import toric
from borelgb.borel import borel_closure, borel_member, min_borel_divisor
from borelgb.families import (FamilyEntry, IdealFamily, find_lfree_column_order,
                              incidence_matrix, parse_family, reduce_family)
from borelgb.monomials import AmbientMismatch, Monomial, parse_monomial
from borelgb.quadrics import quadrics_bs_form, quadrics_multi, quadrics_single
from borelgb.toric import (Binomial, FiberSetup, GeneratorVar,
                           ResourceLimitError, SpairLimitError, SpairReport,
                           TProduct, _apply, _Budget, _check_quadrics, _decode,
                           _encode, _enumerate, enumerate_fiber,
                           fiber_graph, iterate_images, sort_binomials,
                           spair_certificate, t_min, to_dot,
                           verify_groebner_by_fibers)

from helpers import (EX_FAMILY, NESTED_FAMILY, TRIANGLE, _family_points,
                     _reader, certify, counter_quotient, divides,
                     enumerate_by_steps,
                     examine_image_by_scanning, fiber_graph_by_scanning,
                     image, image_groups_on_tuples, images_by_multiplying,
                     is_squarefree, lcm, lead_table_keys,
                     random_interval_family, random_principal_borel_family,
                     random_subset_family,
                     min_borel_divisor_compressed, own_tvars, _side_ids,
                     _spairs_on_products, spairs_on_codes,
                     standard_points_by_recursion, sweep_on_tuples,
                     t_min_compressed,
                     tdegree, term_text, times_by_sorting, tvar_text)


def M(text, n=4):
    return parse_monomial(text, n)


def tp(xtext, n, *gens):
    return TProduct(parse_monomial(xtext, n),
                    [GeneratorVar(b, parse_monomial(g, n)) for b, g in gens])


def test_generator_var_key_and_text():
    a = GeneratorVar(1, M("x3*x4"))
    b = GeneratorVar(1, M("x4^2"))
    c = GeneratorVar(2, M("x3*x4"))
    assert a > b > c  # a T-variable compares as its key
    assert isinstance(a, tuple) and tuple(a) == (-1, 2, -1, -1, 0, 0)
    assert (a.block, a.gen) == (1, M("x3*x4"))
    assert a.text() == "t1:x3*x4"
    assert GeneratorVar(0, M("x3*x4")).text() == "x3*x4"  # single setup
    assert a.text(base=0) == "t1:x2*x3"
    assert a == GeneratorVar(1, M("x3*x4")) and a != c
    with pytest.raises(ValueError):
        GeneratorVar(-1, M("x4"))


def test_tvars_and_tproducts_survive_pickling():
    """A pickled T-variable comes back from its block and generator
    (`__getnewargs__`) with the same key, hash and text, and so does a
    T-product built from such T-variables."""
    a, b = GeneratorVar(1, M("x3*x4")), GeneratorVar(2, M("x4^2"))
    hashes = (hash(a), hash(b))
    assert a.text() == "t1:x3*x4"  # a rendered text travels with the pickle
    assert (hash(a), hash(b)) == hashes and a == GeneratorVar(1, M("x3*x4"))
    a2, b2 = pickle.loads(pickle.dumps((a, b)))
    assert (a2.block, a2.gen, b2.block, b2.gen) == (1, M("x3*x4"), 2, M("x4^2"))
    assert a2 == a and a2 > b2 and hash(a2) == hash(a)
    assert (a2.text(), b2.text()) == ("t1:x3*x4", "t2:x4^2")
    assert (a2.text(0), b2.text(0)) == ("t1:x2*x3", "t2:x3^2")
    assert tuple(a2) == tuple(a) and (hash(a2), hash(b2)) == hashes
    t = tp("x1", 4, (2, "x3*x4"), (1, "x4"), (3, "x2^2"), (2, "x3^2"))
    t2 = pickle.loads(pickle.dumps(t))
    assert t2 == t and t2.key == t.key and t2.label() == t.label()
    assert [(v.block, v.gen) for v in t2.tvars] == [(v.block, v.gen) for v in t.tvars]
    assert list(t2.tvars) == sorted(t2.tvars, reverse=True)


def test_cached_text_matches_the_definition_renderers():
    """Every T-variable of EX_FAMILY and of x3^2*x5^2, and every term of their
    quadrics, prints as the oracles render it, whichever base comes first."""
    family = parse_family(EX_FAMILY)
    pivot = M("x3^2*x5^2", 5)
    for bases in ((0, 1), (1, 0)):
        # Fresh objects for each order, so no text is cached yet.
        blocks = (FiberSetup.for_family(family).blocks
                  + FiberSetup.single(pivot).blocks)
        tvars = [t for block in blocks for t in block.tvars]
        terms = [term for q in (*quadrics_multi(family).all(), *quadrics_single(pivot))
                 for term in (q.lead, q.tail)]
        assert len(tvars) == 16 + 53 and len(terms) > 1000
        for base in bases:
            for t in tvars:
                assert t.text(base) == tvar_text(t, base), (t, base)
            for term in terms:
                assert term.term_text(base) == term_text(term, base), (term, base)


def test_tproduct_canonical_sorting():
    t = tp("x1", 4, (2, "x3*x4"), (1, "x4"), (2, "x3^2"))
    assert t.label() == "x1 | t1:x4, t2:x3^2, t2:x3*x4"
    assert t.term_text() == "x1*T[t1:x4]*T[t2:x3^2]*T[t2:x3*x4]"
    assert tp("1", 4).term_text() == "1"
    assert tdegree(t) == 3
    assert [x.block for x in t.tvars] == [1, 2, 2]
    assert image(t) == M("x1*x3^3*x4^2")


def test_only_family_blocks_print_tagged():
    """Block 0 is the single-closure setup: its T-variables print as their
    generators.  A family's blocks 1..r print with their block."""
    single = enumerate_fiber(FiberSetup.single(M("x2^2", 2)), M("x1*x2", 2), 1)
    assert [p.label() for p in single] == ["1 | x1*x2"]
    assert single[0].term_text() == "T[x1*x2]"
    family = enumerate_fiber(FiberSetup.for_family(parse_family(TRIANGLE)),
                             M("x1*x2", 3), (1, 0, 0))
    assert [p.label() for p in family] == ["x1 | t1:x2", "x2 | t1:x1"]
    assert family[0].term_text() == "x1*T[t1:x2]"


def test_tproduct_rejects_a_foreign_tvar():
    with pytest.raises(AmbientMismatch):
        TProduct(Monomial((0, 0, 0)), [GeneratorVar(0, Monomial((0, 0, 0, 1)))])


def test_tproduct_arithmetic():
    a = tp("x1", 4, (1, "x4"))
    b = tp("x2", 4, (2, "x3*x4"))
    ab = times_by_sorting(a, b)
    assert ab == tp("x1*x2", 4, (1, "x4"), (2, "x3*x4"))
    assert divides(a, ab) and divides(b, ab)
    assert counter_quotient(ab, a) == b
    assert not divides(ab, a)
    with pytest.raises(ValueError):
        counter_quotient(a, b)
    sq = tp("x1^2", 4, (1, "x4"))
    assert not is_squarefree(sq)
    assert not is_squarefree(times_by_sorting(a, a))
    assert is_squarefree(ab)


def _sign(a, b):
    """-1/0/+1 comparing T-products by key, +1 meaning a is larger."""
    return (a.key > b.key) - (a.key < b.key)


def test_term_order_goldens():
    n = 2
    big = tp("1", n, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", n, (0, "x1*x2"), (0, "x1*x2"))
    assert _sign(big, small) == 1
    assert _sign(small, big) == -1
    assert _sign(big, big) == 0
    # any T variable beats any x part
    assert _sign(tp("1", n, (0, "x2^2")), tp("x1^5", n)) == 1
    # more T factors beat fewer when one list prefixes the other
    assert _sign(big, tp("1", n, (0, "x1^2"))) == 1
    # earlier blocks are larger
    assert _sign(tp("1", 4, (1, "x4")), tp("1", 4, (2, "x3*x4"))) == 1
    # x parts tie-break lexicographically with x1 largest
    g = (1, "x4")
    assert _sign(tp("x1", 4, g), tp("x2^3", 4, g)) == 1


def test_term_order_is_multiplicative():
    rng = random.Random(11)
    pool = [GeneratorVar(b, Monomial(tuple(rng.randint(0, 2) for _ in range(3))))
            for b in (1, 2) for _ in range(4)]

    def rand_tp():
        tvars = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        xp = Monomial(tuple(rng.randint(0, 2) for _ in range(3)))
        return TProduct(xp, tvars)

    for _ in range(300):
        a, b, c = rand_tp(), rand_tp(), rand_tp()
        s = _sign(a, b)
        assert s == -_sign(b, a)
        assert _sign(times_by_sorting(a, c), times_by_sorting(b, c)) == s


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

    def rand_tp():
        tvars = [GeneratorVar(rng.randint(0, 2), Monomial(
            tuple(rng.randint(0, 2) for _ in range(3))))
            for _ in range(rng.randint(0, 3))]
        return TProduct(Monomial(tuple(rng.randint(0, 2) for _ in range(3))), tvars)

    pts = [rand_tp() for _ in range(200)]
    pts += [TProduct(p.xpart, reversed(p.tvars)) for p in pts[:20]]
    for a, b in zip(pts, pts[1:] + pts[:1]):
        assert _sign(a, b) == _rank_compare(a, b)
    by_rank = sorted(pts, key=functools.cmp_to_key(_rank_compare))
    assert sorted(pts, key=lambda p: p.key) == by_rank


def test_binomial_make_orients_and_validates():
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    assert Binomial.make(small, big) == Binomial(big, small)
    assert Binomial.make(big, small) == Binomial(big, small)
    with pytest.raises(ValueError):
        Binomial.make(big, big)
    with pytest.raises(ValueError):  # images differ
        Binomial.make(tp("1", 2, (0, "x1^2")), tp("1", 2, (0, "x1*x2")))
    with pytest.raises(ValueError):  # same image, different block counts
        Binomial.make(tp("1", 4, (1, "x3*x4")), tp("1", 4, (2, "x3*x4")))
    # The constructor refuses a lead below its tail, sides of two images
    # and sides in two rings, also when `make` has oriented them.
    assert _rejection(lambda: Binomial(small, big)) == (
        ValueError, "quadric T[x1*x2]*T[x1*x2] - T[x1^2]*T[x2^2] has its lead "
                    "below its tail")
    assert _rejection(lambda: Binomial(big, tp("1", 2, (0, "x1*x2"), (0, "x2^2")))) == (
        ValueError, "sides have different images: 1 | x1^2, x2^2 vs 1 | x1*x2, x2^2")
    wide = tp("1", 3, (0, "x1*x2"), (0, "x1*x2"))
    assert _rejection(lambda: Binomial(big, wide)) == (
        AmbientMismatch, "quadric T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2] has its tail "
                         "in 3 variables, its lead in 2")
    assert _rejection(lambda: Binomial.make(big, wide)) == (
        AmbientMismatch, "quadric T[x1*x2]*T[x1*x2] - T[x1^2]*T[x2^2] has its tail "
                         "in 2 variables, its lead in 3")
    b = Binomial(big, small)
    assert b.text() == "T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2]"


def test_sort_binomials_dedupes():
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    b = Binomial(big, small)
    assert sort_binomials([b, b]) == (b,)


def test_sort_binomials_matches_the_set_sort_on_shuffled_input():
    """Deduping in input order changes nothing but speed: equal binomials
    are interchangeable and distinct ones never tie on (lead, tail)."""
    rng = random.Random(67)
    quads = quadrics_single(parse_monomial("x3^2*x5^2", 5))
    for _ in range(4):
        mixed = list(quads) + rng.sample(quads, 100)
        rng.shuffle(mixed)
        by_set = tuple(sorted(set(mixed), key=lambda b: (b.lead.key, b.tail.key)))
        assert sort_binomials(mixed) == by_set == tuple(quads)


def test_enumerate_fiber_single():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    pts = enumerate_fiber(setup, parse_monomial("x1^2*x2^2", 2), 2)
    assert [p.label() for p in pts] == [
        "1 | x1*x2, x1*x2", "1 | x1^2, x2^2"]
    assert all(image(p) == parse_monomial("x1^2*x2^2", 2) for p in pts)
    assert enumerate_fiber(setup, parse_monomial("x1^3*x2", 2), 1) == ()
    # A unit generator is a closure of one member, 1, as a family accepts.
    unit = FiberSetup.single(Monomial.unit(2))
    assert [p.label() for p in enumerate_fiber(unit, Monomial.unit(2), 3)] == [
        "1 | 1, 1, 1"]
    assert enumerate_fiber(unit, parse_monomial("x1", 2), 3) == ()
    with pytest.raises(ValueError):
        enumerate_fiber(setup, parse_monomial("x1", 1), 1)
    with pytest.raises(ValueError):
        enumerate_fiber(setup, parse_monomial("x1*x2", 2), (1, 1))


def test_fiber_without_room_is_empty_before_any_table():
    """Factors of more total degree than the image leave no point, found
    before the per-degree table: a million factors stay under 1 MB."""
    setup = FiberSetup.single(parse_monomial("x2", 2))
    tri = FiberSetup.for_family(parse_family(TRIANGLE))
    tracemalloc.start()
    try:
        assert enumerate_fiber(setup, parse_monomial("x1*x2", 2), 10 ** 6) == ()
        assert enumerate_fiber(tri, parse_monomial("x1*x2", 3),
                               (0, 10 ** 6, 0)) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_vertex_budget_bounds_the_search():
    """Points are counted as the search finds them, also through a step
    reached again, so a vertex cap trips before the rest of a large fiber
    is searched: 1,000 vertices stay under 2 MB."""
    C2 = parse_monomial("x1*x3^2*x4^2", 5, base=0)
    mu = parse_monomial("x0^7*x1^13*x2^7*x3^12*x4^11", 5, base=0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=r"^fiber exceeded 1000 vertices$"):
            enumerate_fiber(FiberSetup.single(C2, base=0), mu, 10,
                            max_vertices=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_fiber_degrees_must_be_in_range():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least one factor"):
            enumerate_fiber(setup, parse_monomial("x1^2*x2^2", 2), k)
    tsetup = FiberSetup.for_family(parse_family(TRIANGLE))
    with pytest.raises(ValueError, match="negative block degree"):
        enumerate_fiber(tsetup, parse_monomial("x1*x2", 3), (1, -1, 1))


def test_exact_block_fit_is_borel_membership():
    """For a single setup's block, the greedy fit test with the degree check
    holds exactly when q is in Borel(pivot^rem)."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        pivot = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        if pivot.deg == 0:
            continue
        block = FiberSetup.single(pivot).blocks[0]
        rem = rng.randint(1, 3)
        for _ in range(10):
            q = [0] * n
            for _ in range(rem * pivot.deg + rng.randint(-1, 1)):
                q[rng.randrange(n)] += 1
            assert block.fits(rem, tuple(q)) == \
                borel_member(Monomial(q), pivot, rem)


def test_family_block_fit_is_a_divisor_on_its_support():
    """For a family's block, the fit test holds exactly when some member of
    Borel(pivot^rem) under moves inside the support divides q."""
    rng = random.Random(12)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        support = [p for p in range(1, n + 1) if rng.random() < 0.6]
        gen = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        family, _ = reduce_family(IdealFamily(n, [FamilyEntry("I1", support, gen)]))
        block = FiberSetup.for_family(family).blocks[0]
        rem = rng.randint(0, 3)
        for _ in range(10):
            q = tuple(rng.randint(0, 2 * rem) for _ in range(n))
            got = block.fits(rem, q)
            assert got == (min_borel_divisor(block.pivot, rem, Monomial(q),
                                             support=block.support) is not None)
            seen[got] += 1
    assert seen[True] > 300 and seen[False] > 300, seen


def _random_blocks(rng):
    """Exact blocks and single-ideal family blocks on random supports, some
    of which skip variables and some of which are empty."""
    while True:
        n = rng.randint(1, 5)
        gen = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
        if gen.deg == 0:
            continue
        if rng.random() < 0.5:
            yield FiberSetup.single(gen).blocks[0]
        else:
            support = [p for p in range(1, n + 1) if rng.random() < 0.7]
            family, _ = reduce_family(IdealFamily(n, [FamilyEntry("I1", support, gen)]))
            yield FiberSetup.for_family(family).blocks[0]


def _bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def test_pick_candidates_match_the_fit_oracle():
    """A pick node's divisors are the generators that divide q, and its
    fitting ones those g among them with fits(rem - 1, q - g), tested one
    by one, for rem 1..3 and random q that fit rem."""
    rng = random.Random(27)
    seen = Counter()
    blocks = _random_blocks(rng)
    for _ in range(800):
        block = next(blocks)
        exps, n = block.exps, block.pivot.n
        for _ in range(20):
            rem = rng.randint(1, 3)
            # A product of rem generators, with a cofactor off exact blocks,
            # and a unit of it moved to any position.
            q = [sum(col) for col in zip(*rng.choices(exps, k=rem))]
            if not block.exact:
                q = [e + rng.randint(0, 1) for e in q]
            if any(q):
                q[rng.choice([i for i, e in enumerate(q) if e])] -= 1
                q[rng.randrange(n)] += 1
            q = tuple(q)
            if not block.fits(rem, q):
                seen["q does not fit"] += 1
                continue
            divisors, fitting = block.candidates(rem, q)
            want = {gi for gi in range(len(exps))
                    if all(map(operator.le, exps[gi], q))}
            assert _bits(divisors) == want, (block.pivot, block.support, q)
            want = {gi for gi in want
                    if block.fits(rem - 1, tuple(map(operator.sub, q, exps[gi])))}
            assert _bits(fitting) == want, (block.pivot, block.support, rem, q)
            seen["nodes"] += 1
            seen["exact" if block.exact else "family"] += 1
            seen["dropped", block.exact] += divisors != fitting
            seen["kept"] += bool(fitting)
            support = block.support
            seen["skipping support"] += (
                not block.exact and bool(support)
                and support != tuple(range(support[0], support[-1] + 1)))
            seen["empty support"] += not support
    assert seen["nodes"] > 12000 and seen["q does not fit"] > 1000, seen
    assert seen["exact"] > 6000 and seen["family"] > 6000, seen
    assert seen["dropped", True] > 600 and seen["dropped", False] > 200, seen
    assert seen["kept"] > 10000, seen
    assert seen["skipping support"] > 1000 and seen["empty support"], seen


def test_routes_that_search_no_fiber_build_no_tables(monkeypatch):
    """The fiber sweep, the quadric builders and the S-pair run search no
    fiber, so no block builds its search tables; a fiber search does."""
    built = []
    tables = toric._Block.tables
    monkeypatch.setattr(toric._Block, "tables",
                        lambda block: built.append(block) or tables(block))
    M4 = parse_monomial("x2^2*x4", 4)
    chain_family = parse_family(EX_FAMILY)
    single, chain = FiberSetup.single(M4), FiberSetup.for_family(chain_family)
    assert verify_groebner_by_fibers(single, quadrics_single(M4), 2).passed
    assert verify_groebner_by_fibers(
        chain, quadrics_multi(chain_family).all(), 2).passed
    assert spair_certificate(quadrics_single(M4)).passed
    assert spair_certificate(quadrics_bs_form(M4)).passed
    assert spair_certificate(quadrics_multi(chain_family).all()).passed
    assert built == []
    assert all(b._tables is None for s in (single, chain) for b in s.blocks)
    assert len(enumerate_fiber(single, M("x1^2*x2^2*x4^2"), 2)) > 1
    assert built and single.blocks[0]._tables is not None


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
    with pytest.raises(ValueError, match="at least one factor"):
        fiber_graph(setup, mu, 0, qs, vertices=g.vertices)  # beta still checked
    connected, sinks = certify(g)
    assert g.sinks() == sinks
    assert connected and [s.label() for s in sinks] == [
        "1 | x1*x2, x1*x2"]
    # triangle (1,1,1)-fiber: no quadric applies, two isolated points
    tri = parse_family(TRIANGLE)
    tsetup = FiberSetup.for_family(tri)
    tg = fiber_graph(tsetup, parse_monomial("x1*x2*x3", 3),
                     (1, 1, 1), quadrics_multi(tri).all())
    assert tg.edges == ()
    connected, sinks = certify(tg)
    assert tg.sinks() == sinks
    assert not connected and len(sinks) == 2


def _flipped_and_off_image():
    """Two quadrics of Borel(x2^2) that cannot be made, with the constructor's
    refusal of each: one that would rewrite up the order, one that would
    rewrite out of the fiber."""
    big = tp("1", 2, (0, "x1^2"), (0, "x2^2"))
    small = tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))
    return (((small, big), "quadric T[x1*x2]*T[x1*x2] - T[x1^2]*T[x2^2] has "
             "its lead below its tail"),
            ((tp("1", 2, (0, "x1^2"), (0, "x1^2")), small),
             "sides have different images: 1 | x1^2, x1^2 vs 1 | x1*x2, x1*x2"))


def test_fiber_graph_rejects_bad_quadrics():
    """A quadric that would rewrite up the order or out of the fiber cannot
    be made: `Binomial` refuses it.  `fiber_graph` refuses a toric quadric
    over T-variables its setup lacks before the fiber is built, as the
    fiber sweep does: Borel(x2^2)'s quadric against Borel(x1*x2)."""
    for sides, message in _flipped_and_off_image():
        assert _rejection(lambda: Binomial(*sides)) == (ValueError, message)
    setup = FiberSetup.single(parse_monomial("x1*x2", 2))
    mu = parse_monomial("x1^2*x2^2", 2)
    quads = quadrics_single(parse_monomial("x2^2", 2))
    assert _rejection(lambda: fiber_graph(setup, mu, 2, quads)) == (
        ValueError, "quadric T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2] uses a "
        "T-variable that is not a generator of its block")


def test_mixed_ambients_are_rejected():
    """Lead tests and S-pairs across ambient rings raise, as the Counter
    arithmetic did, instead of reading as coprime or non-dividing."""
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    other = quadrics_single(parse_monomial("x2*x3", 3))
    with pytest.raises(AmbientMismatch):
        fiber_graph(setup, parse_monomial("x1^2*x2^2", 2), 2, other)
    with pytest.raises(AmbientMismatch):
        spair_certificate((*quadrics_single(parse_monomial("x2^2", 2)), *other))


def test_to_dot_golden():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    g = fiber_graph(setup, parse_monomial("x1^2*x2^2", 2), 2,
                    quadrics_single(parse_monomial("x2^2", 2)))
    assert to_dot(g) == (
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


def test_iterate_images_single_matches_products():
    checked = 0
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in borel_closure(Monomial((0,) * (n - 1) + (deg,))):
                setup = FiberSetup.single(M)
                assert iterate_images(setup, 3) == images_by_multiplying(setup, 3)
                checked += 1
    assert checked == 65


def test_iterate_images_multi_matches_products():
    """A family's images, read off the closures of the pivots' powers, are
    the lcms of products of generator multisets, in the same order."""
    rng = random.Random(19)
    checked = 0
    for i in range(60):
        maker = random_interval_family if i % 2 else random_principal_borel_family
        family = reduce_family(maker(rng, rng.randint(1, 5), rng.randint(1, 4)))[0]
        setup = FiberSetup.for_family(family)
        for bound in (1, 2, 3):
            images = iterate_images(setup, bound)
            assert images == images_by_multiplying(setup, bound)
            checked += len(images)
    for text in (EX_FAMILY, TRIANGLE, NESTED_FAMILY):
        setup = FiberSetup.for_family(parse_family(text))
        assert iterate_images(setup, 3) == images_by_multiplying(setup, 3)
    unit = FiberSetup.for_family(
        parse_family("vars = 1\nideal I1: support = ; generator = 1\n"))
    images = iterate_images(unit, 50)
    assert images == images_by_multiplying(unit, 50)
    assert [beta for _, beta in images] == [(k,) for k in range(1, 51)]
    assert checked > 10_000


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
        assert graph.sinks() == sinks
        if len(graph.vertices) > 1 and len(sinks) != 1:
            out.append((mu, None if setup.blocks[0].exact else beta, sinks))
    return tuple(out)


def _sweep_inputs():
    """(setup, quadrics, bound): seeded single closures and interval
    families, each with its full quadric set and with a random half."""
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
    for setup, quads, bound in singles + families:
        for subset in (quads, tuple(q for q in quads if rng.random() < 0.5)):
            yield setup, subset, bound


def test_sweep_failures_match_graph_sinks():
    failing = 0
    for setup, quads, bound in _sweep_inputs():
        rep = verify_groebner_by_fibers(setup, quads, bound)
        assert rep.failures == _graph_failures(setup, quads, bound)
        failing += not rep.passed
    assert failing >= 8


def _oracle_corpus():
    """(setup, quadrics, bound): every single closure with n <= 4 and degree
    <= 3 at bound 3, in both quadric forms, full and with one seeded quadric
    dropped; then seeded interval and principal families at bound 2, every
    third with one quadric dropped; then the chain, nested and triangle
    families at bound 3."""
    rng = random.Random(16)
    for n, deg in itertools.product(range(1, 5), range(1, 4)):
        for exps in itertools.product(range(deg + 1), repeat=n):
            if sum(exps) != deg:
                continue
            M = Monomial(exps)
            for quads in (quadrics_single(M), quadrics_bs_form(M)):
                yield FiberSetup.single(M), quads, 3
                if quads:
                    drop = rng.randrange(len(quads))
                    yield FiberSetup.single(M), quads[:drop] + quads[drop + 1:], 3
    for i in range(30):
        maker = random_interval_family if i % 2 else random_principal_borel_family
        family = reduce_family(maker(rng, rng.randint(2, 4), rng.randint(1, 3)))[0]
        quads = tuple(quadrics_multi(family).all())
        if i % 3 == 2 and quads:
            drop = rng.randrange(len(quads))
            quads = quads[:drop] + quads[drop + 1:]
        yield FiberSetup.for_family(family), quads, 2
    for text in (EX_FAMILY, NESTED_FAMILY, TRIANGLE):
        family = parse_family(text)
        yield FiberSetup.for_family(family), tuple(quadrics_multi(family).all()), 3


def test_standard_point_search_matches_scanning_oracle():
    """The report of the standard-point search is the one the scanning
    oracle gives over the images `images_by_multiplying` lists, so the sweep
    and its oracle share no image code: the verdict, the failures (images,
    T-degrees and sinks, in order) and the images checked."""
    sets = failing = filtered = 0
    for setup, quads, bound in itertools.chain(_sweep_inputs(), _oracle_corpus()):
        images = images_by_multiplying(setup, bound)
        failures = []
        for mu, beta in images:
            _, _, sinks = examine_image_by_scanning(setup, quads, mu, beta)
            filtered += len(enumerate_fiber(setup, mu, beta)) > len(sinks)
            if len(sinks) > 1:
                failures.append((mu, None if setup.blocks[0].exact else beta, sinks))
        got = verify_groebner_by_fibers(setup, quads, bound)
        assert (got.passed, got.failures, got.images_checked) == (
            not failures, tuple(failures), len(images)), (setup.blocks, quads)
        sets += 1
        failing += not got.passed
    assert sets > 150 and failing >= 30 and filtered > 400, (sets, failing, filtered)


def test_fiber_graph_matches_scanning_oracle():
    """The same vertices and edges as testing every lead against every
    vertex, and the same check total: a budget of exactly the total passes
    and one short trips with the same message."""
    compared = edged = tripped = 0
    for setup, quads, bound in _sweep_inputs():
        for mu, beta in iterate_images(setup, bound):
            want = fiber_graph_by_scanning(setup, mu, beta, quads)
            got = fiber_graph(setup, mu, beta, quads)
            assert (got.vertices, got.edges) == (
                want.vertices, want.edges), (mu, beta)
            compared += 1
            edged += bool(want.edges)
            if len(want.vertices) < 2:
                continue
            totals = _Budget()
            _enumerate(setup, mu, setup.beta_tuple(beta), totals)
            total = totals.checks + sum(map(lead_table_keys, want.vertices))
            fiber_graph(setup, mu, beta, quads, max_checks=total)
            fiber_graph_by_scanning(setup, mu, beta, quads, max_checks=total)
            with pytest.raises(ResourceLimitError) as trip:
                fiber_graph(setup, mu, beta, quads, max_checks=total - 1)
            with pytest.raises(ResourceLimitError) as oracle_trip:
                fiber_graph_by_scanning(setup, mu, beta, quads, max_checks=total - 1)
            assert str(trip.value) == str(oracle_trip.value)
            tripped += 1
    assert compared > 1000 and edged > 400 and tripped > 500, (
        compared, edged, tripped)


def test_verify_rejects_bad_quadrics():
    """The flipped and the off-image quadric cannot be made, so no sweep
    meets them; the sweep itself refuses T-variables its setup lacks and a
    bound below 1."""
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    for sides, message in _flipped_and_off_image():
        assert _rejection(lambda: Binomial(*sides)) == (ValueError, message)
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


def test_spair_route_rejects_mis_oriented_quadrics():
    """A quadric written tail first, or with equal sides, is refused when it
    is made, with the message both routes gave it, so no route meets one;
    the first and the last quadric flipped are named exactly."""
    M3 = parse_monomial("x2*x3", 3)
    quads = quadrics_single(M3)
    for q in quads:
        for lead, tail in ((q.tail, q.lead), (q.lead, q.lead)):
            with pytest.raises(ValueError, match="has its lead below its tail$"):
                Binomial(lead, tail)
    first, last = quads[0], quads[-1]
    with pytest.raises(ValueError) as one:
        Binomial(first.tail, first.lead)
    assert str(one.value) == ("quadric T[x2^2]*T[x1*x3] - T[x1*x2]*T[x2*x3] has "
                              "its lead below its tail")
    with pytest.raises(ValueError) as one:
        Binomial(last.tail, last.lead)
    assert str(one.value) == (f"quadric {last.tail.term_text()} - "
                              f"{last.lead.term_text()} has its lead below its tail")
    assert spair_certificate(quads).passed


def test_spair_route_rejects_a_tail_in_another_ambient():
    """A tail in another ambient ring than its lead cannot be made:
    `Binomial` refuses it with AmbientMismatch, and a tail of another image
    in the lead's ring with ValueError.  The S-pair run refuses a quadric in
    another ring than the first lead up front, by its lead: also when that
    lead shares no atom with any other, so that no side or rewrite step
    would ever meet it."""
    for lead in (tp("x1^2", 2), tp("1", 2, (0, "x1*x2"), (0, "x1*x2"))):
        with pytest.raises(AmbientMismatch) as caught:
            Binomial(lead, tp("1", 3))
        assert str(caught.value) == (f"quadric {lead.term_text()} - 1 has its "
                                     "tail in 3 variables, its lead in 2")
    assert _rejection(lambda: Binomial(tp("x1^2", 2), tp("1", 2))) == (
        ValueError, "sides have different images: x1^2 vs 1")
    quads = quadrics_single(parse_monomial("x2^2", 2))
    other = quadrics_single(parse_monomial("x2*x3", 3))
    with pytest.raises(AmbientMismatch) as caught:
        spair_certificate((*quads, *other))
    assert str(caught.value) == "lead T[x1*x2]*T[x2*x3] is not in 2 variables"


def _gate_inputs():
    """(label, setup, quadrics, image, T-degree): every single closure with
    n <= 4 and degree <= 3 that has quadrics, in both forms, then the chain
    and triangle families, each with one fiber for `fiber_graph`."""
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in borel_closure(Monomial((0,) * (n - 1) + (deg,))):
                setup = FiberSetup.single(M)
                for form, quads in (("exchange", quadrics_single(M)),
                                    ("sorted", quadrics_bs_form(M))):
                    if quads:
                        yield f"{M} {form}", setup, quads, M.pow(2), 2
    for name, text in (("chain", EX_FAMILY), ("triangle", TRIANGLE)):
        family = parse_family(text)
        beta = (1,) + (0,) * (family.r - 1)
        yield (name, FiberSetup.for_family(family), quadrics_multi(family).all(),
               family.entries[0].gen, beta)


def _other_image_tails(setup, q):
    """Every term below q's lead, of q's tail's block list and x-degree, over
    the setup's T-variables, whose image is not q's."""
    tail, n = q.tail, setup.n
    block_tvars = {b.tvars[0].block: b.tvars for b in setup.blocks}
    image = q.lead.image_exps()
    xparts = [Monomial(tuple(map(pos.count, range(n))))
              for pos in itertools.combinations_with_replacement(
                  range(n), tail.xpart.deg)]
    return [t for ts in itertools.product(*(block_tvars[v.block] for v in tail.tvars))
            for x in xparts for t in [TProduct(x, ts)]
            if t.key < q.lead.key and t.image_exps() != image]


def _lifted(term):
    """The term in one more variable, which divides none of it."""
    return TProduct(Monomial(term.xpart.exps + (0,)),
                    [GeneratorVar(t.block, Monomial(t.gen.exps + (0,)))
                     for t in term.tvars])


def _rejection(call):
    with pytest.raises(ValueError) as caught:
        call()
    return type(caught.value), str(caught.value)


def _relabelled(term, shift):
    """The term with each T-variable moved `shift` blocks up: its image and
    its place in the term order against other terms moved alike stay."""
    return TProduct(term.xpart, [GeneratorVar(t.block + shift, t.gen)
                                 for t in term.tvars])


def test_every_consumer_rejects_the_same_broken_quadrics():
    """A broken quadric is refused with the exception class and message
    that the fiber sweep, the fiber graph and the S-pair run all gave it.
    Flipped, with a tail of another image but the same block list, with
    equal sides, with a tail in one more variable, or with a T-variable of
    another setup that changes its image, it is refused when the `Binomial`
    is made.  Relabelled onto blocks its setup lacks, it keeps its image,
    its blocks and its orientation, and the fiber sweep and the fiber graph
    refuse it by its T-variables; the S-pair run has no setup to hold them
    against.  The first input is a lone quadric with sides of different
    images."""
    rng = random.Random(97)
    lone = (tp("1", 2, (0, "x1^2"), (0, "x1^2")),
            tp("1", 2, (0, "x1*x2"), (0, "x2^2")))
    made = [("lone", *lone, (ValueError, "sides have different images: "
                             "1 | x1^2, x1^2 vs 1 | x1*x2, x2^2"))]
    used = []
    for label, setup, quads, mu, beta in _gate_inputs():
        n = setup.n
        for kind in ("flip", "image", "equal", "ambient", "foreign", "relabel"):
            i = rng.randrange(len(quads))
            q = quads[i]
            lead, tail = q.lead, q.tail
            if kind == "flip":
                lead, tail = tail, lead
            elif kind == "image":
                tail = rng.choice(_other_image_tails(setup, q))
            elif kind == "equal":
                tail = lead
            elif kind == "ambient":
                tail = _lifted(tail)
            elif kind == "foreign":
                t = lead.tvars[0]
                lead = TProduct(lead.xpart, (GeneratorVar(
                    t.block, Monomial.variable(n, n).pow(t.gen.deg + 1)),
                    *lead.tvars[1:]))
            else:
                shift = len(setup.blocks)
                bad = Binomial(_relabelled(lead, shift), _relabelled(tail, shift))
                used.append((f"{label} {kind} q{i}", setup,
                             quads[:i] + (bad,) + quads[i + 1:], mu, beta, bad))
                continue
            text = f"quadric {lead.term_text()} - {tail.term_text()}"
            if kind in ("flip", "equal"):
                want = (ValueError, f"{text} has its lead below its tail")
            elif kind == "ambient":
                want = (AmbientMismatch, f"{text} has its tail in {n + 1} "
                                         f"variables, its lead in {n}")
            else:
                want = (ValueError, f"sides have different images: "
                                    f"{lead.label()} vs {tail.label()}")
            made.append((f"{label} {kind} q{i}", lead, tail, want))
    checks = 0
    for label, lead, tail, want in made:
        assert _rejection(lambda: Binomial(lead, tail)) == want, label
        checks += 1
    for label, setup, qs, mu, beta, bad in used:
        assert qs.count(bad) == 1, label
        want = (ValueError, f"quadric {bad.text()} uses a T-variable that is "
                            "not a generator of its block")
        assert _rejection(lambda: verify_groebner_by_fibers(setup, qs, 2)) == want, label
        assert _rejection(lambda: fiber_graph(setup, mu, beta, qs)) == want, label
        checks += 2
    assert checks == 505


def test_verify_pass_single():
    M4 = parse_monomial("x2^2*x4", 4)
    setup = FiberSetup.single(M4)
    rep = verify_groebner_by_fibers(setup, quadrics_single(M4), 3)
    assert rep.passed
    assert rep.images_checked == 124
    assert rep.lines() == ["PASS", "certificate: fibers bound=3"]


def test_verify_jobs_match_on_a_failing_family():
    tri = parse_family(TRIANGLE)
    setup = FiberSetup.for_family(tri)
    qs = quadrics_multi(tri).all()
    seq = verify_groebner_by_fibers(setup, qs, 3)
    scanned = (examine_image_by_scanning(setup, qs, mu, beta)
               for mu, beta in iterate_images(setup, 3))
    assert not seq.passed
    assert seq.failures == tuple(image for image in scanned if len(image[2]) > 1)


def _forbidden(setup, quads):
    """The walk's partner and position bitsets for the quadrics."""
    return toric._forbidden(setup, _check_quadrics(quads, setup.n, setup.tvars)[1])


def test_walk_matches_the_per_image_search_on_families():
    """On the chain, nested and triangle families at bound 3 the walk's
    failures, in order, are the ones the per-image pick search and the
    scanning oracle give over `iterate_images`, with and without a
    quadric."""
    failing = 0
    for text in (EX_FAMILY, NESTED_FAMILY, TRIANGLE):
        family = parse_family(text)
        setup = FiberSetup.for_family(family)
        quads = tuple(quadrics_multi(family).all())
        for qs in (quads, quads[1:]):
            partners, positions = _forbidden(setup, qs)
            searched, scanned = [], []
            for mu, beta in iterate_images(setup, 3):
                points = _family_points(setup, partners, positions, mu, beta)[0]
                if len(points) > 1:
                    searched.append((mu, beta, tuple(points)))
                image = examine_image_by_scanning(setup, qs, mu, beta)
                if len(image[2]) > 1:
                    scanned.append(image)
            got = verify_groebner_by_fibers(setup, qs, 3).failures
            assert got == tuple(searched) == tuple(scanned), text
            failing += bool(got)
    assert failing >= 3, failing


def _walk_inputs():
    """(setup, quadrics): the chain, nested and triangle families, then
    every single closure with n <= 4 and degree <= 3 in both quadric forms."""
    for text in (EX_FAMILY, NESTED_FAMILY, TRIANGLE):
        family = parse_family(text)
        yield FiberSetup.for_family(family), tuple(quadrics_multi(family).all())
    for n, deg in itertools.product(range(1, 5), range(1, 4)):
        for exps in itertools.product(range(deg + 1), repeat=n):
            if sum(exps) == deg:
                M = Monomial(exps)
                yield FiberSetup.single(M), quadrics_single(M)
                yield FiberSetup.single(M), quadrics_bs_form(M)


def _filed(by_beta, spell):
    """What a walk filed, in filing order, with each multiset spelt out."""
    return [(beta, [(partial, [(at, [(p, spell(P)) for p, P in found])
                               for at, found in table.items()])
                    for _, table, partial in slots])
            for beta, slots in by_beta.items()]


def _unpacked(by_beta, setup, bound):
    """A packed filing of `toric._standard_points` at `bound` on tuples:
    each slot's F read off its field mask, each key decoded and read at F
    and each p decoded, as the recursive walk files them."""
    n, width = setup.n, toric._width(setup, bound)
    field = (1 << width) - 1
    out = {}
    for beta, slots in by_beta.items():
        for mask, table in slots:
            forbid = sum(1 << i for i in range(n) if mask >> i * width & field)
            at = _reader(forbid, n)
            out.setdefault(beta, []).append((at, {
                at(toric._unpack(key, n, width)):
                    [(toric._unpack(p, n, width), P) for p, P in found]
                for key, found in table.items()}, forbid != (1 << n) - 1))
    return out


def _walk_outcome(walk, setup, partners, positions, caps):
    """The trip message, or None, and the checks and vertices charged under
    the caps (max_vertices, max_checks)."""
    budget = _Budget(*caps, "fiber sweep")
    try:
        walk(setup, partners, positions, 3, budget)
    except ResourceLimitError as exc:
        return str(exc), budget.checks, budget.vertices
    return None, budget.checks, budget.vertices


def test_stack_walk_matches_the_recursive_walk():
    """At bound 3 the stack walk files the multisets the recursive walk it
    replaced filed, under the same (beta, F, p read at F) and in the same
    order, once its packed codes are decoded, and charges the same checks
    and vertices.  Caps around each total trip with the same message at
    the same counts, also when one multiset's charge passes both caps at
    once, as the triangle's does at 21 checks and 20 vertices: checks are
    charged first, so the checks cap names the trip."""
    setups = crossed = 0
    for setup, quads in _walk_inputs():
        partners, positions = _forbidden(setup, quads)
        want_budget, got_budget = _Budget(), _Budget()
        want = standard_points_by_recursion(setup, partners, positions, 3,
                                            want_budget)
        got = toric._standard_points(setup, partners, positions, 3, got_budget)
        assert (_filed(_unpacked(got, setup, 3), toric._unchain)
                == _filed(want, tuple)), setup.blocks
        total = want_budget.checks
        assert (got_budget.checks, got_budget.vertices) == (total, total)
        caps = {0, 1, total // 4, total // 2, total - 1, total, total + 1}
        pairs = set(itertools.product(caps, repeat=2))
        pairs.update(p for c in caps for p in ((c + 1, c), (c, c + 1)))
        for checks, vertices in sorted(pairs):
            outcome = _walk_outcome(toric._standard_points, setup, partners,
                                    positions, (vertices, checks))
            assert outcome == _walk_outcome(standard_points_by_recursion, setup,
                                            partners, positions, (vertices, checks))
            crossed += (vertices < checks
                        and outcome[0] == f"fiber sweep exceeded {checks} "
                                          "divisibility checks")
        setups += 1
    assert setups == 133 and crossed >= 300, (setups, crossed)
    # The triangle multiset charged from 18 to 23 passes both caps.
    triangle = parse_family(TRIANGLE)
    tri = FiberSetup.for_family(triangle)
    forbidden = _forbidden(tri, quadrics_multi(triangle).all())
    assert (_walk_outcome(toric._standard_points, tri, *forbidden, (20, 21))
            == _walk_outcome(standard_points_by_recursion, tri, *forbidden, (20, 21))
            == ("fiber sweep exceeded 21 divisibility checks", 23, 18))


def _dropped(rng, quads):
    """The quadrics with one seeded quadric left out."""
    drop = rng.randrange(len(quads))
    return quads[:drop] + quads[drop + 1:]


def _tuple_sweep_inputs():
    """(setup, quadrics): every single closure with n <= 4 and degree <= 3
    in both quadric forms, the chain, nested and triangle families, then
    seeded interval and random-subset-support families, each full and with
    one seeded quadric dropped."""
    rng = random.Random(3606)
    families = [parse_family(text) for text in (EX_FAMILY, NESTED_FAMILY, TRIANGLE)]
    for i in range(24):
        maker = random_interval_family if i % 2 else random_subset_family
        families.append(reduce_family(maker(rng, rng.randint(2, 4), rng.randint(1, 3)))[0])
    sets = [(FiberSetup.single(M), quads) for M, quads in (
        (M, make(M)) for M in map(Monomial, (
            exps for n, deg in itertools.product(range(1, 5), range(1, 4))
            for exps in itertools.product(range(deg + 1), repeat=n)
            if sum(exps) == deg))
        for make in (quadrics_single, quadrics_bs_form))]
    sets += [(FiberSetup.for_family(f), tuple(quadrics_multi(f).all()))
             for f in families]
    for setup, quads in sets:
        yield setup, quads
        if quads:
            yield setup, _dropped(rng, quads)


def _sweep_outcome(sweep, setup, quads, bound, **caps):
    """(lines, images checked), or the trip message, of one sweep."""
    try:
        report = sweep(setup, quads, bound, **caps)
    except ResourceLimitError as exc:
        return str(exc)
    return report.lines(), report.images_checked


def test_packed_sweep_matches_the_tuple_sweep():
    """At bounds 1 to 3 the sweep on packed codes prints the lines and
    counts the images that the sweep on exponent tuples, its oracle, gives,
    and a budget at 0.1, 0.4 and 0.7 of the walk's total checks or vertices
    trips both with the same message."""
    sets = failing = tripped = 0
    for setup, quads in _tuple_sweep_inputs():
        table = _check_quadrics(quads, setup.n, setup.tvars)[1]
        partners, positions = toric._forbidden(setup, table)
        for bound in (1, 2, 3):
            want = _sweep_outcome(sweep_on_tuples, setup, quads, bound)
            assert _sweep_outcome(verify_groebner_by_fibers, setup, quads,
                                  bound) == want, (setup.blocks, quads, bound)
            failing += want[0][0] != "PASS"
            budget = _Budget()
            standard_points_by_recursion(setup, partners, positions, bound, budget)
            for share in (0.1, 0.4, 0.7):
                cap = int(share * budget.checks)
                for caps in ({"max_checks": cap}, {"max_vertices": cap}):
                    outcome = _sweep_outcome(sweep_on_tuples, setup, quads, bound, **caps)
                    assert outcome == _sweep_outcome(
                        verify_groebner_by_fibers, setup, quads, bound, **caps)
                    tripped += isinstance(outcome, str)
            sets += 1
    assert sets == 720 and failing >= 150 and tripped == 6 * sets, (sets, failing, tripped)


def test_packed_codes_match_tuple_arithmetic():
    """The codec of the sweep against the tuple operations it replaces, on
    seeded vectors with every field at the largest value below its guard
    bit among them, at widths 1, 8, 63, 64, 65 and 100: decoding, the lcm
    by the guard-bit max, the reads at F by the field masks, and the
    divisibility of the points found by the borrow test."""
    rng = random.Random(3607)
    for width in (1, 8, 63, 64, 65, 100):
        top = (1 << width - 1) - 1
        for n in (1, 2, 3, 5):
            guard = toric._guard(n, width)
            vectors = [(top,) * n, (0,) * n] + [
                tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(n))
                for _ in range(14)]
            codes = [toric._pack(v, width) for v in vectors]
            assert [toric._unpack(c, n, width) for c in codes] == vectors
            assert all(c & guard == 0 for c in codes)
            assert ({toric._unpack(c, n, width) for c in toric._lcms(codes, guard, width)}
                    == {tuple(map(max, a, b)) for a, b in
                        itertools.combinations_with_replacement(vectors, 2)})
            for forbid in range(1 << n):
                at, mask = _reader(forbid, n), toric._field_mask(forbid, n, width)
                reads = [at(v) for v in vectors]
                assert ([reads.index(r) for r in reads]
                        == [[c & mask for c in codes].index(c & mask) for c in codes])
            found = {0: [(c, i) for i, c in enumerate(codes)]}
            for mu, code in zip(vectors, codes):
                want = [(c, i) for i, (v, c) in enumerate(zip(vectors, codes))
                        if all(map(operator.le, v, mu))]
                assert toric._points(code, [(0, found)], guard) == want
                assert toric._points(code, [(-1, {code: want})], guard) == want


def test_a_family_wider_than_a_machine_word_sweeps_as_on_tuples():
    """A block pivot of degree 2^70 makes every field 73 bits wide; the
    family's sweep matches the tuple sweep, full and with a quadric
    dropped."""
    family = IdealFamily(3, [
        FamilyEntry("I1", (1,), Monomial((1 << 70, 0, 0))),
        FamilyEntry("I2", (1, 2), Monomial((0, 1, 0))),
        FamilyEntry("I3", (1, 2, 3), Monomial((0, 1, 1)))])
    setup, quads = FiberSetup.for_family(family), tuple(quadrics_multi(family).all())
    assert toric._width(setup, 2) == 73
    for qs in (quads, quads[1:]):
        for bound in (1, 2):
            assert (_sweep_outcome(verify_groebner_by_fibers, setup, qs, bound)
                    == _sweep_outcome(sweep_on_tuples, setup, qs, bound))


def test_packed_image_groups_decode_to_the_tuple_groups():
    """Each group of `_image_groups`, decoded, is the oracle's group: a
    single closure's in its order, a family's as a set."""
    for setup, _ in _tuple_sweep_inputs():
        n, width = setup.n, toric._width(setup, 3)
        got = [(beta, [toric._unpack(c, n, width) for c in group])
               for beta, group in toric._image_groups(setup, 3)]
        want = [(beta, list(group)) for beta, group in image_groups_on_tuples(setup, 3)]
        if not setup.blocks[0].exact:
            got = [(beta, set(group)) for beta, group in got]
            want = [(beta, set(group)) for beta, group in want]
        assert got == want


def test_a_missing_standard_point_names_its_image(monkeypatch):
    """Every image has a standard point, its least fiber point; when the
    walk finds none, the sweep's invariant fails with an AssertionError that
    names the image as a FAIL line would: a single closure's alone, a
    family's with its T-degrees."""
    monkeypatch.setattr(toric, "_standard_points", lambda *args: {})
    M = parse_monomial("x2*x3", 3)
    with pytest.raises(AssertionError, match=r"^no standard point over x2\*x3$"):
        verify_groebner_by_fibers(FiberSetup.single(M), quadrics_single(M), 2)
    chain = parse_family(EX_FAMILY)
    with pytest.raises(AssertionError,
                       match=r"^no standard point over x1\*x2\^2 t5$"):
        verify_groebner_by_fibers(FiberSetup.for_family(chain),
                                  quadrics_multi(chain).all(), 2)


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
    rep = spair_certificate(quadrics_single(M4))
    assert rep.passed
    assert rep.pairs_checked == 132
    assert rep.pairs_skipped == 193
    assert rep.lines() == ["PASS", "certificate: spairs"]


def test_spair_pair_counts_pinned():
    """Coprime pairs are counted, not formed; these counts pin the pruning."""
    M5 = parse_monomial("x2*x3*x5", 5)
    rep = spair_certificate(quadrics_single(M5))
    assert (rep.passed, rep.pairs_checked, rep.pairs_skipped) == (True, 2451, 8280)
    chain = parse_family(EX_FAMILY)
    rep = spair_certificate(quadrics_multi(chain).all())
    assert (rep.passed, rep.pairs_checked, rep.pairs_skipped) == (True, 151, 552)


def test_spair_fail_triangle():
    tri = parse_family(TRIANGLE)
    rep = spair_certificate(quadrics_multi(tri).all())
    assert not rep.passed
    assert rep.lines()[0] == (
        "FAIL spair [x3*T[t3:x2] - x2*T[t3:x3]] [x3*T[t2:x1] - x1*T[t2:x3]] "
        "normal-form: x2*T[t2:x1]*T[t3:x3] - x1*T[t2:x3]*T[t3:x2]")
    # the surviving difference is a genuine cubic relation: equal images
    u, v = rep.normal_form
    assert image(u) == image(v)
    assert tdegree(u) == tdegree(v) == 2


# The pinned S-pair bench inputs: quadrics, then (passed, pairs checked,
# pairs skipped), the rewrite steps of the whole run and the pair reduced at
# its last step.
_LAST_SINGLE_PAIR = ("[T[x1^3]*T[x2^3] - T[x1^2*x2]*T[x1*x2^2]] "
                     "[T[x1^3]*T[x1*x2^2] - T[x1^2*x2]*T[x1^2*x2]]")
_PINNED_SPAIRS = (
    (lambda: quadrics_bs_form(parse_monomial("x2*x4*x5", 5)),
     (True, 1902, 9124), 4084, _LAST_SINGLE_PAIR),
    (lambda: quadrics_bs_form(parse_monomial("x2*x3*x5", 5)),
     (True, 897, 3381), 1755, _LAST_SINGLE_PAIR),
    (lambda: quadrics_single(parse_monomial("x2*x3*x4", 4)),
     (True, 886, 2040), 2077, _LAST_SINGLE_PAIR),
    (lambda: quadrics_multi(parse_family(EX_FAMILY)).all(),
     (True, 151, 552), 230,
     "[T[t2:x3^2]*T[t3:x3*x4] - T[t2:x3*x4]*T[t3:x3^2]] "
     "[T[t2:x3^2]*T[t3:x2*x4] - T[t2:x3*x4]*T[t3:x2*x3]]"),
    (lambda: quadrics_multi(parse_family(TRIANGLE)).all(),
     (False, 1, 0), 1,
     "[x3*T[t3:x2] - x2*T[t3:x3]] [x3*T[t2:x1] - x1*T[t2:x3]]"),
)


def _pair_text(pair):
    a, b = pair
    return f"[{a.text()}] [{b.text()}]"


def test_spair_step_totals_pinned():
    """Each pinned input's step total is a budget that gives its unlimited
    report, and one step fewer trips while reducing the pinned pair."""
    for quadrics, fields, steps, last in _PINNED_SPAIRS:
        qs = quadrics()
        want = spair_certificate(qs, max_steps=10 ** 9)
        assert (want.passed, want.pairs_checked, want.pairs_skipped) == fields
        got = spair_certificate(qs, max_steps=steps)
        assert _report_fields(got) == _report_fields(want)
        with pytest.raises(SpairLimitError) as trip:
            spair_certificate(qs, max_steps=steps - 1)
        assert _pair_text(trip.value.pair) == last


def _numbered_tvars(quadrics):
    """The T-variables of a quadric set, largest first: the numbering of
    `spair_certificate`'s atom-id codes."""
    return tuple(sorted({t for q in quadrics for t in q.lead.tvars + q.tail.tvars},
                        reverse=True))


def test_spair_rewrites_each_term_once(monkeypatch):
    """The run asks `_rewrite_ids` once per distinct term, for exactly the
    terms the unmemoised oracle rewrites, and less often than it steps."""
    qs = quadrics_single(parse_monomial("x2*x3*x4", 4))
    rewritten, scanned = [], set()
    rewrite_ids, scan = toric._rewrite_ids, _rewrite_by_scanning

    def counted(term, table, tails):
        rewritten.append(term)
        return rewrite_ids(term, table, tails)

    def scanned_too(term, basis):
        scanned.add(term.key)
        return scan(term, basis)

    monkeypatch.setattr(toric, "_rewrite_ids", counted)
    monkeypatch.setitem(globals(), "_rewrite_by_scanning", scanned_too)
    assert spair_certificate(qs).passed
    _, run = _spairs_by_scanning(qs)
    assert run.steps == 2077
    assert len(rewritten) == len(set(rewritten)) < run.steps
    tvars = _numbered_tvars(qs)
    assert {_decode(term, tvars, 4).key for term in rewritten} == scanned


def test_t_min_goldens():
    fam = parse_family(EX_FAMILY)
    got = t_min(fam, M("x1^6*x2^9*x3^6*x4^4"), (1, 2, 2, 2, 2))
    assert got.label() == ("x1^2*x2^2 | t1:x4, t2:x3*x4, t2:x3*x4, t3:x3^2, "
                           "t3:x3*x4, t4:x1*x2^2, t4:x1*x2*x3, t5:x1*x2^2, "
                           "t5:x1*x2^2")
    assert image(got) == M("x1^6*x2^9*x3^6*x4^4")
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
    unreduced = IdealFamily(2, [FamilyEntry("A", (1, 2), parse_monomial("x1", 2))])
    with pytest.raises(ValueError, match=r"t_min needs a reduced family"):
        t_min(unreduced, parse_monomial("x1", 2), (1,))


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


def _skipping_family(rng, n, r):
    """A family of r entries over n >= 3 variables whose supports skip a
    variable, with generators that carry mass at the top of their support
    and may carry mass off it."""
    entries = []
    for idx in range(1, r + 1):
        while True:
            support = rng.sample(range(1, n + 1), rng.randint(2, n - 1))
            if max(support) - min(support) >= len(support):
                break
        exps = [rng.randint(0, 1) for _ in range(n)]
        exps[max(support) - 1] += 1
        entries.append(FamilyEntry(f"I{idx}", support, Monomial(exps)))
    return IdealFamily(n, entries)


def test_ambient_divisor_and_t_min_match_compressed_oracles():
    """`min_borel_divisor` with a support and `t_min` answer in ambient
    coordinates what the old route answered by compressing to the subring on
    each support, sorting there and mapping back."""
    rng = random.Random(2311)
    found = Counter()
    for _ in range(6000):
        n = rng.randint(1, 5)
        # Unsorted and repeated positions, and mass off the support.
        support = [rng.randint(1, n) for _ in range(rng.randint(0, n + 1))]
        gen = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        mu = Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
        k = rng.randint(0, 3)
        got = min_borel_divisor(gen, k, mu, support=support)
        assert got == min_borel_divisor_compressed(gen, k, mu, support), (
            gen, k, mu, support)
        found["divisor" if got is not None else "no divisor"] += 1
    families = [parse_family(text) for text in (EX_FAMILY, NESTED_FAMILY, TRIANGLE)]
    for i in range(15):
        draw = (_skipping_family, random_interval_family,
                random_principal_borel_family)[i % 3]
        families.append(reduce_family(draw(rng, rng.randint(3, 4),
                                           rng.randint(1, 3)))[0])
    for fam in families:
        pairs = list(iterate_images(FiberSetup.for_family(fam), 3))
        for _ in range(60):
            beta = tuple(rng.randint(0, 2) for _ in range(fam.r))
            pairs.append((Monomial(tuple(rng.randint(0, 4) for _ in range(fam.n))),
                          beta))
        for mu, beta in pairs:
            got = t_min(fam, mu, beta)
            assert got == t_min_compressed(fam, mu, beta), (fam.entries, mu, beta)
            found["point" if got is not None else "no point"] += 1
    gapped = sum(any(b - a > 1 for a, b in zip(e.support, e.support[1:]))
                 for fam in families for e in fam.entries)
    assert found["point"] > 5000 and min(found.values()) > 300, found
    assert gapped >= 5, gapped


def test_resource_limits_trip():
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    mu = parse_monomial("x1^2*x2^2", 2)
    with pytest.raises(ResourceLimitError):
        enumerate_fiber(setup, mu, 2, max_vertices=1)
    with pytest.raises(ResourceLimitError):
        fiber_graph(setup, mu, 2, quadrics_single(parse_monomial("x2^2", 2)),
                    max_checks=1)
    M4 = parse_monomial("x2^2*x4", 4)
    with pytest.raises(ResourceLimitError):
        spair_certificate(quadrics_single(M4), max_steps=1)
    with pytest.raises(ResourceLimitError):
        verify_groebner_by_fibers(setup, quadrics_single(
            parse_monomial("x2^2", 2)), 2, max_checks=1)


# --- Fiber enumeration before its divisibility bitsets, kept as an oracle ----
#
# Every generator from the pick position on is tested against the quotient
# monomial in turn, and the pruning goes through `borel_member` and
# `min_borel_divisor`.  Nothing is memoized: a pick step reached again is
# searched again, but only its first search is charged, one check per
# generator that divides the quotient; every point found counts one vertex.


class _ScanBudget(_Budget):
    """A budget that also counts, in `scanned`, the checks of the charge
    rule before the memo: every generator from the pick position on, each
    time a step is reached."""

    scanned = 0


def _fits_by_scanning(block, rem, quotient, exact):
    if rem == 0:
        return True
    if exact:
        return borel_member(quotient, block.pivot, rem)
    return min_borel_divisor(block.pivot, rem, quotient,
                             support=block.support) is not None


def _enumerate_by_scanning(setup, mu, beta, budget):
    exact = setup.blocks[0].exact
    out = []
    chosen = []
    searched = set()

    def rec_block(bi, quotient):
        if bi == len(setup.blocks):
            assert not exact or quotient.deg == 0
            budget.count_vertex()
            out.append(TProduct(quotient, tuple(chosen)))
            return
        block = setup.blocks[bi]
        if not _fits_by_scanning(block, beta[bi], quotient, exact):
            return
        gens = [t.gen for t in block.tvars]

        def rec_pick(start, rem, quotient):
            if rem == 0:
                rec_block(bi + 1, quotient)
                return
            budget.scanned += len(gens) - start
            divisors = [gi for gi in range(start, len(gens))
                        if gens[gi].divides(quotient)]
            step = (bi, start, rem, quotient.exps)
            if step not in searched:
                searched.add(step)
                budget.count_check(len(divisors))
            for gi in divisors:
                q2 = quotient / gens[gi]
                if _fits_by_scanning(block, rem - 1, q2, exact):
                    chosen.append(block.tvars[gi])
                    rec_pick(gi, rem - 1, q2)
                    chosen.pop()

        rec_pick(0, beta[bi], quotient)

    rec_block(0, mu)
    return tuple(sorted(out, key=lambda p: p.key))


def _fiber_inputs():
    """(label, setup, mu, beta): every image up to bound 3 of every single
    closure with n <= 4, deg <= 3; every image up to bound 2 of seeded family
    draws, the triangle and the chain family; and the C2 fiber."""
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in borel_closure(Monomial((0,) * (n - 1) + (deg,))):
                setup = FiberSetup.single(M)
                for mu, k in iterate_images(setup, 3):
                    yield f"{M} {mu} k={k}", setup, mu, (k,)
    rng = random.Random(79)
    families = [("triangle", parse_family(TRIANGLE)),
                ("chain", parse_family(EX_FAMILY))]
    for i in range(20):
        draw = random_interval_family if i % 2 else random_principal_borel_family
        fam, _ = reduce_family(draw(rng, rng.randint(2, 4), rng.randint(1, 3), 2))
        families.append((f"family draw {i}", fam))
    for label, fam in families:
        setup = FiberSetup.for_family(fam)
        for mu, beta in iterate_images(setup, 2):
            yield f"{label} {mu} {beta}", setup, mu, beta
    C2 = parse_monomial("x1*x3^2*x4^2", 5, base=0)
    yield "C2", FiberSetup.single(C2, base=0), parse_monomial(
        "x0^2*x1^5*x2^13*x3^7*x4^3", 5, base=0), (6,)


def _trip(route, setup, mu, beta, caps):
    with pytest.raises(ResourceLimitError) as trip:
        route(setup, mu, beta, _ScanBudget(**caps))
    return str(trip.value)


def test_enumeration_matches_scanning_oracle():
    """The same points in the same order, the same checks and vertices, and
    budgets one short of either total trip with the same message.  No total
    exceeds what the scan before the memo charged, so no budget that passed
    then trips now."""
    compared = multi = tripped = 0
    for label, setup, mu, beta in _fiber_inputs():
        want_budget, got_budget = _ScanBudget(), _Budget()
        want = _enumerate_by_scanning(setup, mu, beta, want_budget)
        got = _enumerate(setup, mu, beta, got_budget)
        assert got == want, label
        assert ((got_budget.checks, got_budget.vertices)
                == (want_budget.checks, want_budget.vertices)), label
        assert want_budget.checks <= want_budget.scanned, label
        compared += 1
        multi += len(want) > 1
        if want_budget.checks == 0:
            continue
        vertices, checks = want_budget.vertices - 1, want_budget.checks - 1
        for caps in ({"max_checks": checks},
                     {"max_vertices": vertices, "max_checks": checks},
                     {"max_vertices": vertices}):
            if caps.get("max_vertices", 0) < 0:
                continue
            assert (_trip(_enumerate, setup, mu, beta, caps)
                    == _trip(_enumerate_by_scanning, setup, mu, beta, caps)), label
            tripped += 1
    assert compared > 4000 and multi > 2500 and tripped > 12000


def _outcome(route, setup, mu, beta, budget):
    """The points, or the trip message with the checks and vertices charged
    when it tripped, each capped at the first one past its limit: a step's
    checks are charged at once, and a step reached again counts its points
    at once."""
    try:
        return route(setup, mu, beta, budget)
    except ResourceLimitError as trip:
        return (str(trip), min(budget.checks, budget.max_checks + 1),
                min(budget.vertices, budget.max_vertices + 1))


def test_memo_hits_replay_the_budget():
    """A step reached again counts the points below it, so budgets at
    fractions of the totals trip at the same point with the same message
    as the oracle, also when the vertex limit falls inside a step reached
    again.  The totals themselves are compared in the test above."""
    nested = FiberSetup.for_family(parse_family(NESTED_FAMILY))
    chain = FiberSetup.for_family(parse_family(EX_FAMILY))
    C2 = parse_monomial("x1*x3^2*x4^2", 5, base=0)
    fibers = [(nested, M("x1^2*x2^5*x3^6*x4^5"), (1, 1, 2, 2)),
              (nested, M("x1^3*x2^4*x3^7*x4^6"), (1, 1, 1, 3)),
              (chain, M("x1^4*x2^6*x3^4*x4^3"), (1, 1, 1, 1, 2)),
              (FiberSetup.single(C2, base=0),
               parse_monomial("x0^2*x1^5*x2^13*x3^7*x4^3", 5, base=0), (6,))]
    tripped = Counter()
    for setup, mu, beta in fibers:
        totals = _Budget()
        _enumerate(setup, mu, beta, totals)
        for f in (0.1, 0.4, 0.7):
            checks = int(f * totals.checks)
            vertices, others = (int(g * totals.vertices) for g in (f, 1 - f))
            for kind, caps in (
                    ("checks", {"max_checks": checks}),
                    ("vertices", {"max_vertices": vertices}),
                    ("both", {"max_vertices": others, "max_checks": checks})):
                budget = _Budget(**caps)
                got = _outcome(_enumerate, setup, mu, beta, budget)
                assert got == _outcome(_enumerate_by_scanning, setup, mu, beta,
                                       _ScanBudget(**caps)), (mu, beta, kind, f)
                tripped[kind, got[0].rsplit(" ", 1)[-1]] += 1
                tripped["inside a step reached again"] += (
                    budget.vertices > budget.max_vertices + 1)
    assert tripped["checks", "checks"] and tripped["vertices", "vertices"]
    assert tripped["both", "checks"] and tripped["both", "vertices"]
    assert tripped["inside a step reached again"], tripped


def _downward_extensions(steps):
    """How many distinct pick steps, in search order, reach their (block,
    picks left, quotient) with a first generator below every one it was
    reached with before: the steps that add picks to a node already
    searched."""
    low, extended = {}, 0
    for bi, start, rem, q in steps:
        key = (bi, rem, q)
        if key in low:
            extended += start < low[key]
            start = min(start, low[key])
        low[key] = start
    return extended


def _seeded_family_fibers():
    """(label, setup, mu, beta): seeded fibers of the chain and nested
    families, each image a random product of its blocks' generators times
    an x part."""
    rng = random.Random(35)
    for name, text in (("chain", EX_FAMILY), ("nested", NESTED_FAMILY)):
        setup = FiberSetup.for_family(parse_family(text))
        for _ in range(30):
            beta = tuple(rng.randint(0, 2) for _ in setup.blocks)
            exps = [rng.randint(0, 2) for _ in range(setup.n)]
            for block, k in zip(setup.blocks, beta):
                for _ in range(k):
                    exps = list(map(operator.add, exps, rng.choice(block.exps)))
            yield name, setup, Monomial(exps), beta


def test_search_matches_the_step_oracle():
    """Searching each (block, picks left, quotient) once gives what one
    search per pick step gave: the same points in the same order, the same
    check and vertex totals, and the same outcome at fractions of either
    total.  The seeded family fibers reach nodes first from a larger first
    generator and later from a smaller one."""
    extended = Counter()
    for label, setup, mu, beta in itertools.chain(
            _fiber_inputs(), _seeded_family_fibers()):
        want_budget, got_budget, steps = _Budget(), _Budget(), []
        want = enumerate_by_steps(setup, mu, beta, want_budget, steps)
        assert _enumerate(setup, mu, beta, got_budget) == want, (label, mu, beta)
        assert ((got_budget.checks, got_budget.vertices)
                == (want_budget.checks, want_budget.vertices)), (label, mu, beta)
        extended[label] += _downward_extensions(steps)
        for f in (0.1, 0.4, 0.7):
            checks = int(f * want_budget.checks)
            vertices, others = (int(g * want_budget.vertices) for g in (f, 1 - f))
            for caps in ({"max_checks": checks}, {"max_vertices": vertices},
                         {"max_vertices": others, "max_checks": checks}):
                assert (_outcome(_enumerate, setup, mu, beta, _Budget(**caps))
                        == _outcome(enumerate_by_steps, setup, mu, beta,
                                    _Budget(**caps))), (label, mu, beta, caps)
    assert extended["chain"] and extended["nested"] and extended["C2"], extended


def test_search_tries_each_quotient_once(monkeypatch):
    """On the C2 fiber the 5,040 distinct pick steps share 625 (picks left,
    quotient) nodes: the candidates are read once per node, and the check
    and vertex totals are those of the steps."""
    calls = Counter()
    candidates = toric._Block.candidates

    def counted(block, rem, q):
        calls[rem, q] += 1
        return candidates(block, rem, q)

    monkeypatch.setattr(toric._Block, "candidates", counted)
    budget = _Budget()
    C2 = parse_monomial("x1*x3^2*x4^2", 5, base=0)
    _enumerate(FiberSetup.single(C2, base=0),
               parse_monomial("x0^2*x1^5*x2^13*x3^7*x4^3", 5, base=0), (6,), budget)
    assert sum(calls.values()) == len(calls) == 625
    assert (budget.checks, budget.vertices) == (28_544, 4_742)


def test_search_leaves_no_reference_cycles():
    """The search state is cleared before the walk and the nodes form a
    DAG, so a C2 enumeration leaves the cycle collector almost nothing:
    only the cells of its nested functions."""
    C2 = parse_monomial("x1*x3^2*x4^2", 5, base=0)
    setup = FiberSetup.single(C2, base=0)
    mu = parse_monomial("x0^2*x1^5*x2^13*x3^7*x4^3", 5, base=0)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        points = _enumerate(setup, mu, (6,), _Budget())
        assert len(points) == 4_742
        assert gc.collect() < 100
    finally:
        if enabled:
            gc.enable()


# --- The S-pair route before its indexes, kept as an oracle -------------------
#
# Every pair is formed and its lcm built to detect coprime leads, every
# rewrite scans the whole basis, and T-product arithmetic counts T-variables
# with `Counter`s or re-sorts them in the constructor.


def _counter_divides(a, b):
    if not a.xpart.divides(b.xpart):
        return False
    have = Counter(b.tvars)
    for t in a.tvars:
        if have[t] == 0:
            return False
        have[t] -= 1
    return True


def _counter_lcm(a, b):
    tv = Counter(a.tvars) | Counter(b.tvars)
    return TProduct(lcm(a.xpart, b.xpart), tuple(tv.elements()))


def _tvar_pools():
    """(n, GeneratorVars) from single closures and from family blocks."""
    for text, n in (("x2*x3^2", 3), ("x2*x4", 4), ("x3^2", 3)):
        yield n, [GeneratorVar(0, g) for g in borel_closure(parse_monomial(text, n))]
    rng = random.Random(73)
    for _ in range(4):
        fam = random_interval_family(rng, 4, 3)
        yield 4, [t for b in FiberSetup.for_family(fam).blocks for t in b.tvars]


def test_merge_arithmetic_matches_counter_oracles():
    """`divides`, and `_apply` on `_encode` codes by the gate's ids, decoded
    back, against the Counter and sorting versions, with repeated
    T-variables, non-divisors and T-parts that divide over x parts that do
    not.  Rewriting by lead - 1 is the quotient, by 1 - tail the product,
    and a lead that does not divide raises ValueError.  A code carries no
    ambient ring: a quadric whose tail lies in another ring than its lead
    cannot be made, and the gate refuses a lead in another ring than its
    own, both with AmbientMismatch, before any code is made."""
    rng = random.Random(79)
    cases = Counter()

    def draw(n, pool, most):
        tvars = [rng.choice(pool) for _ in range(rng.randint(0, most))]
        return TProduct(Monomial(tuple(rng.randint(0, 2) for _ in range(n))), tvars)

    for n, pool in _tvar_pools():
        tvars = tuple(sorted(set(pool), reverse=True))
        ids = _check_quadrics((), n, tvars)[0]

        def rewrite(term, lead, tail):
            return _decode(_apply(_encode(term, ids), _encode(lead, ids),
                                  _encode(tail, ids)), tvars, n)

        one = TProduct(Monomial.unit(n), ())
        foreign = TProduct(Monomial.unit(n + 1), ())
        square = TProduct(Monomial.unit(n), [pool[0], pool[0]])
        for lead, tail in ((foreign, one), (square, foreign)):
            with pytest.raises(AmbientMismatch) as caught:
                Binomial(lead, tail)
            assert str(caught.value) == (
                f"quadric {lead.term_text()} - 1 has its tail in "
                f"{tail.xpart.n} variables, its lead in {lead.xpart.n}")
        wider = quadrics_single(Monomial.variable(2, n + 1).pow(2))[0]
        with pytest.raises(AmbientMismatch) as caught:
            _check_quadrics([wider], n, tvars)
        assert str(caught.value) == (f"lead {wider.lead.term_text()} is not "
                                     f"in {n} variables")
        for _ in range(400):
            a = draw(n, pool, 3)
            kind = rng.randrange(3)
            if kind == 0:  # an unrelated T-product
                b = draw(n, pool, 4)
            elif kind == 1:  # a multiple of a
                b = times_by_sorting(a, draw(n, pool, 2))
            else:  # a's T-part times more, over an x part a's need not divide
                b = times_by_sorting(
                    TProduct(draw(n, pool, 0).xpart, a.tvars),
                    TProduct(Monomial.unit(n), [rng.choice(pool)]))
            c = draw(n, pool, 2)
            divided = _counter_divides(a, b)
            assert divides(a, b) == divided
            if divided:
                assert rewrite(b, a, one) == counter_quotient(b, a)
                assert rewrite(b, a, c) == times_by_sorting(counter_quotient(b, a), c)
            else:
                with pytest.raises(ValueError):
                    rewrite(b, a, one)
                with pytest.raises(ValueError):
                    rewrite(b, a, c)
                with pytest.raises(ValueError):
                    counter_quotient(b, a)
            assert rewrite(a, one, b) == times_by_sorting(a, b)
            cases["divides" if divided else "not"] += 1
            cases["repeated"] += len(set(b.tvars)) < len(b.tvars)
            cases["x mismatch"] += (not divided and _counter_divides(
                TProduct(b.xpart, a.tvars), b))
    assert min(cases.values()) > 200, cases


def _shape(lead):
    """A lead's shape: its T-degree, its x exponents largest first, and
    whether it is the square of one T-variable."""
    xs = sorted((e for e in lead.xpart.exps if e), reverse=True)
    square = tdegree(lead) == 2 and lead.tvars[0] == lead.tvars[1]
    return (tdegree(lead), *xs, *(("square",) if square else ()))


def _draw_term(rng, n, few, degree=2):
    """A random term of the degree over the T-variables `few`: at degree 2,
    any of the shapes `_shape` tells apart."""
    tdeg = rng.randint(0, degree)
    exps = [0] * n
    for _ in range(degree - tdeg):
        exps[rng.randrange(n)] += 1
    return TProduct(Monomial(tuple(exps)), [rng.choice(few) for _ in range(tdeg)])


LEAD_SHAPES = {(2,), (2, "square"), (1, 1), (0, 2), (0, 1, 1)}


def test_lead_table_matches_divides_oracle():
    """A lead divides a term exactly when its code, by the gate's ids, is a
    pair of the term's code, for leads of every shape of degree 2: T pairs,
    T squares, a T-variable times an x, x squares and x pairs, over terms
    with repeated T-variables and x exponents up to 3.  The leads are filed
    by code as the gate files them, since x*x leads never pass the gate:
    on every quadric set of `_gate_inputs` its table maps each lead's code
    to the ascending indices of the quadrics with that lead, and its tails
    are the tails' codes.  Numbered by the set's own T-variables, as on the
    S-pair route, it files the same indices under the same leads."""
    for label, setup, quads, _, _ in _gate_inputs():
        ids, table, tails = _check_quadrics(quads, setup.n, setup.tvars)
        filed = {}
        for i, q in enumerate(quads):
            filed.setdefault(_encode(q.lead, ids), []).append(i)
        assert table == filed, label
        assert tails == [_encode(q.tail, ids) for q in quads], label
        own_ids, own_table, _ = _check_quadrics(quads, setup.n, own_tvars(quads))
        back = {own_ids[t]: ids[t] for t in own_ids}
        back.update((len(own_ids) + i, len(ids) + i) for i in range(setup.n))
        assert {tuple(sorted(map(back.get, code))): held
                for code, held in own_table.items()} == table, label
    rng = random.Random(83)
    shapes, hits = Counter(), Counter()
    for n, pool in _tvar_pools():
        ids = _check_quadrics((), n, sorted(set(pool), reverse=True))[0]
        for _ in range(30):
            few = rng.sample(pool, min(4, len(pool)))
            leads = [_draw_term(rng, n, few) for _ in range(12)]
            table = {}
            for i, lead in enumerate(leads):
                table.setdefault(_encode(lead, ids), []).append(i)
            for _ in range(20):
                term = TProduct(
                    Monomial(tuple(rng.randint(0, 3) for _ in range(n))),
                    [rng.choice(few) for _ in range(rng.randint(0, 4))])
                keys = set(itertools.combinations(_encode(term, ids), 2))
                found = {i for k in keys for i in table.get(k, ())}
                for i, lead in enumerate(leads):
                    assert (i in found) == divides(lead, term), (lead, term)
                    assert (_encode(lead, ids) in keys) == (i in found)
                    shapes[_shape(lead)] += 1
                    hits[_shape(lead)] += i in found
    assert set(shapes) == LEAD_SHAPES, shapes
    assert all(hits[s] > 100 and shapes[s] - hits[s] > 100 for s in LEAD_SHAPES), hits


def test_lead_table_rejects_other_degrees_and_ambients():
    """Leads of degree 1 and 3 with real tails are refused by the gate
    before its table is built, and so by both routes: T[x1^2] of
    T[x1^2] - x1*T[x1], a toric binomial, too.  Leads of degree 0 and pure
    x leads have no other term of their image, so no quadric has one."""
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    mu = parse_monomial("x1^2*x2^2", 2)
    ok = Binomial(tp("x2", 2, (0, "x1*x2")), tp("x1", 2, (0, "x2^2")))
    for bad in (tp("1", 2), tp("x1", 2), tp("x1^3", 2), tp("x1*x2^2", 2)):
        with pytest.raises(ValueError, match="has its lead below its tail$"):
            Binomial(bad, bad)
    for bad in (Binomial(tp("1", 2, (0, "x1^2")), tp("x1", 2, (0, "x1"))),
                Binomial(tp("1", 2, (0, "x2^2")), tp("x2", 2, (0, "x2"))),
                Binomial(tp("x1", 2, (0, "x1^2"), (0, "x2^2")),
                         tp("x1", 2, (0, "x1*x2"), (0, "x1*x2"))),
                Binomial(tp("1", 2, (0, "x1^2"), (0, "x1*x2"), (0, "x2^2")),
                         tp("1", 2, (0, "x1*x2"), (0, "x1*x2"), (0, "x1*x2")))):
        want = (ValueError, f"lead {bad.lead.term_text()} is not of degree 2")
        assert _rejection(lambda: _check_quadrics([ok, bad], 2, setup.tvars)) == want
        assert _rejection(lambda: spair_certificate([ok, bad])) == want
        assert _rejection(lambda: fiber_graph(setup, mu, 2, [ok, bad])) == want
    one = parse_monomial("x1", 1)
    square = TProduct(Monomial.unit(1), [GeneratorVar(0, one.pow(2))])
    with pytest.raises(ValueError, match=r"^lead T\[x1\^2\] is not of degree 2$"):
        spair_certificate([Binomial(square, TProduct(one, [GeneratorVar(0, one)]))])
    other = quadrics_single(parse_monomial("x2*x3", 3))
    with pytest.raises(AmbientMismatch):
        _check_quadrics([ok, other[0]], 2, setup.tvars)
    with pytest.raises(AmbientMismatch):
        fiber_graph(setup, mu, 2, (*quadrics_single(parse_monomial("x2^2", 2)), *other))
    with pytest.raises(AmbientMismatch):
        spair_certificate((*other, *quadrics_single(parse_monomial("x2^2", 2))))


def test_spair_gate_refuses_a_tail_not_of_degree_2():
    """The S-pair run reads every term as three atoms, or two, so its gate
    refuses a tail not of degree 2 by name, alone or among good quadrics.
    x1*T[x1*x2] - x1*x2*T[x1] is toric with its lead on top; the fiber
    routes refuse it as before, by its T-variable that is no generator."""
    bad = Binomial(tp("x1", 2, (0, "x1*x2")), tp("x1*x2", 2, (0, "x1")))
    ok = quadrics_single(parse_monomial("x2^2", 2))
    for qs in ([bad], (*ok, bad)):
        assert _rejection(lambda: spair_certificate(qs)) == (
            ValueError, "tail x1*x2*T[x1] is not of degree 2")
    setup = FiberSetup.single(parse_monomial("x1*x2", 2))
    want = (ValueError, "quadric x1*T[x1*x2] - x1*x2*T[x1] uses a T-variable "
                        "that is not a generator of its block")
    assert _rejection(lambda: verify_groebner_by_fibers(setup, [bad], 2)) == want
    assert _rejection(lambda: fiber_graph(
        setup, parse_monomial("x1^2*x2", 2), 1, [bad])) == want


def test_routes_without_quadrics():
    assert _report_fields(spair_certificate([])) == (True, None, None, 0, 0)
    setup = FiberSetup.single(parse_monomial("x2^2", 2))
    assert fiber_graph(setup, parse_monomial("x1^2*x2^2", 2), 2, ()).edges == ()
    rep = verify_groebner_by_fibers(setup, (), 2)
    scanned = (examine_image_by_scanning(setup, (), mu, k)
               for mu, k in iterate_images(setup, 2))
    assert not rep.passed
    assert rep.failures == tuple((mu, None, sinks) for mu, _, sinks in scanned
                                 if len(sinks) > 1)


class _OracleSteps:
    """Rewrite steps of the oracle route and the pair of the last one: a
    budget one step smaller trips while reducing that pair."""

    def __init__(self):
        self.steps = 0
        self.last_pair = None

    def step(self, pair):
        self.steps += 1
        self.last_pair = pair


def _spairs_by_scanning(quadrics):
    """(SpairReport, _OracleSteps) of the unindexed S-pair route."""
    budget = _OracleSteps()
    basis = sort_binomials(quadrics)
    checked = skipped = 0
    for ai in range(len(basis)):
        for bi in range(ai + 1, len(basis)):
            a, b = basis[ai], basis[bi]
            top = _counter_lcm(a.lead, b.lead)
            if top == times_by_sorting(a.lead, b.lead):
                skipped += 1
                continue
            checked += 1
            u = times_by_sorting(counter_quotient(top, a.lead), a.tail)
            v = times_by_sorting(counter_quotient(top, b.lead), b.tail)
            nf = _reduce_by_scanning(u, v, (a, b), basis, budget)
            if nf is not None:
                return SpairReport(False, (a, b), nf, checked, skipped), budget
    return SpairReport(True, None, None, checked, skipped), budget


def _reduce_by_scanning(u, v, pair, basis, budget):
    while True:
        if u == v:
            return None
        if u.key < v.key:
            u, v = v, u
        budget.step(pair)
        step = _rewrite_by_scanning(u, basis)
        if step is not None:
            u = step
            continue
        step = _rewrite_by_scanning(v, basis)
        if step is not None:
            v = step
            continue
        return (u, v)


def _rewrite_by_scanning(term, basis):
    for g in basis:
        if _counter_divides(g.lead, term):
            return times_by_sorting(counter_quotient(term, g.lead), g.tail)
    return None


def _report_fields(rep):
    return (rep.passed, rep.pair, rep.normal_form, rep.pairs_checked,
            rep.pairs_skipped)


def _spair_inputs():
    """Quadric sets: every single closure with n <= 4, deg <= 3 in both
    forms, seeded random families, and the triangle and chain families."""
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in borel_closure(Monomial((0,) * (n - 1) + (deg,))):
                yield f"{M} exchange", quadrics_single(M)
                yield f"{M} sorted", quadrics_bs_form(M)
    rng = random.Random(67)
    for i in range(40):
        draw = random_interval_family if i % 2 else random_principal_borel_family
        fam, _ = reduce_family(draw(rng, rng.randint(2, 4), rng.randint(1, 3), 2))
        yield f"family draw {i}", quadrics_multi(fam).all()
    yield "triangle", quadrics_multi(parse_family(TRIANGLE)).all()
    yield "chain", quadrics_multi(parse_family(EX_FAMILY)).all()


def test_spair_sides_match_lcm_oracle():
    """The closed-form sides of every pair with non-coprime leads, built on
    atom-id codes and decoded, are the lcm-completions of the tails,
    lcm / lead * tail with the T-variables counted: on every input of the
    oracle corpus (T-pair and x*T leads) and on random (lead, tail) pairs
    with leads and tails of every shape of degree 2, the only degree the
    S-pair gate admits.  Random pairs are no binomials, so they are
    held as pairs, ordered and deduped as `sort_binomials` orders a basis."""
    rng = random.Random(89)
    drawn = []
    for n, pool in _tvar_pools():
        for _ in range(30):
            few = rng.sample(pool, min(4, len(pool)))
            pairs = {(_draw_term(rng, n, few),
                      _draw_term(rng, n, pool))
                     for _ in range(8)}
            drawn.append(("drawn", sorted(pairs, key=lambda p: (p[0].key, p[1].key))))
    corpus = ((label, [(g.lead, g.tail) for g in sort_binomials(quads)])
              for label, quads in _spair_inputs())
    shapes = Counter()
    for label, basis in itertools.chain(corpus, drawn):
        if not basis:
            continue
        n = basis[0][0].xpart.n
        tvars = tuple(sorted({t for side in basis for term in side for t in term.tvars},
                             reverse=True))
        ids = {t: i for i, t in enumerate(tvars)}
        codes = [(_encode(lead, ids), _encode(tail, ids)) for lead, tail in basis]
        for (a, ca), (b, cb) in itertools.combinations(zip(basis, codes), 2):
            top = _counter_lcm(a[0], b[0])
            if top == times_by_sorting(a[0], b[0]):
                continue
            for (lead, tail), (lc, tc), (theirs, _) in ((a, ca, cb), (b, cb, ca)):
                want = times_by_sorting(counter_quotient(top, lead), tail)
                assert _decode(_side_ids(tc, theirs, lc), tvars, n) == want, label
                shapes[_shape(lead)] += 1
    assert set(shapes) == LEAD_SHAPES and min(shapes.values()) > 50, shapes


def test_spair_route_matches_scanning_oracle():
    """Same report and same rewrite steps on every input, and on every
    passing input with one quadric dropped, so FAIL paths are compared too;
    a step budget one short trips on both routes while reducing the same
    pair."""
    rng = random.Random(71)
    compared = failing = tripped = 0
    for label, quads in _spair_inputs():
        pending = [quads]
        while pending:
            qs = pending.pop()
            want, run = _spairs_by_scanning(qs)
            if qs is quads and want.passed and len(quads) > 1:
                drop = rng.randrange(len(quads))
                pending.append(quads[:drop] + quads[drop + 1:])
            got = spair_certificate(qs, max_steps=run.steps)
            assert _report_fields(got) == _report_fields(want), label
            compared += 1
            failing += not want.passed
            if run.steps == 0:
                continue
            with pytest.raises(SpairLimitError) as trip:
                spair_certificate(qs, max_steps=run.steps - 1)
            assert trip.value.pair == run.last_pair, label
            tripped += 1
    assert compared > 200 and failing > 40 and tripped > 100


def _matches_spair_oracle(oracle, inputs, rng):
    """Compare `spair_certificate` with `oracle(quadrics, max_steps)`, which
    returns (report, steps), on each input and on each input that passes
    with one quadric dropped, drawn from `rng`: the same report at the
    oracle's step total, and one step short both trip at the same pair.
    Returns the counts of sets compared, failing and tripped."""
    compared = failing = tripped = 0
    for label, quads in inputs:
        pending = [quads]
        while pending:
            qs = pending.pop()
            want, steps = oracle(qs, 10 ** 9)
            if qs is quads and want.passed and len(quads) > 1:
                drop = rng.randrange(len(quads))
                pending.append(quads[:drop] + quads[drop + 1:])
            got = spair_certificate(qs, max_steps=steps)
            assert _report_fields(got) == _report_fields(want), label
            compared += 1
            failing += not want.passed
            if steps == 0:
                continue
            with pytest.raises(SpairLimitError) as expected:
                oracle(qs, steps - 1)
            with pytest.raises(SpairLimitError) as trip:
                spair_certificate(qs, max_steps=steps - 1)
            assert trip.value.pair == expected.value.pair, label
            tripped += 1
    return compared, failing, tripped


def test_spair_route_matches_the_product_loop():
    """The run on atom-id codes gives the report and the step total of the
    same loop on `TProduct` terms, and one step short trips at the same
    pair: on every input and on every passing input with one quadric
    dropped, so FAIL paths are compared too."""
    compared, failing, tripped = _matches_spair_oracle(
        _spairs_on_products, _spair_inputs(), random.Random(71))
    assert compared > 200 and failing > 40 and tripped > 100


def test_spair_route_matches_the_code_loop():
    """The run on three-atom terms gives the report and the step total of
    the general loop on codes of any length, `spairs_on_codes`, and one
    step short trips at the same pair: on every input, on seeded random
    families on random supports (x*T leads), and on each of these that
    passes with one seeded quadric dropped, so FAIL paths are compared
    too."""
    rng = random.Random(103)
    drawn = [(f"subset family {i}", quadrics_multi(random_subset_family(
        rng, rng.randint(2, 4), rng.randint(1, 3))).all()) for i in range(60)]
    counts = _matches_spair_oracle(spairs_on_codes,
                                   itertools.chain(_spair_inputs(), drawn), rng)
    compared, failing, tripped = counts
    assert compared > 300 and failing > 80 and tripped > 200, counts


def test_lfree_families_pass_both_routes_and_spair_fails_imply_sweep_fails():
    """The paper's theorem as a seeded property of both routes, on 150
    random-subset families (n 2..5, r 2..4, generator degree <= 2).  A
    family with an L-free column order, taken in that order, passes the
    fiber sweep at bound 3 and the S-pair run.  On every full set, and on
    each passing set with one seeded quadric dropped, an S-pair FAIL forces
    a sweep FAIL at bound 3: a failing S-pair's normal forms are two
    standard points of one fiber of T-degree at most 3."""
    rng = random.Random(2020)
    sets = []
    for _ in range(150):
        family = random_subset_family(rng, rng.randint(2, 5), rng.randint(2, 4))
        sets.append((family, False))
        order = find_lfree_column_order(incidence_matrix(family))
        if order is not None:
            sets.append((IdealFamily(family.n, [family.entries[j] for j in order]),
                         True))
    counts = Counter()
    for family, lfree in sets:
        setup, quads = FiberSetup.for_family(family), quadrics_multi(family).all()
        spairs = spair_certificate(quads).passed
        sweep = verify_groebner_by_fibers(setup, quads, 3).passed
        if lfree:
            assert spairs and sweep, family.entries
            counts["lfree"] += 1
        assert spairs or not sweep, family.entries
        counts["full", spairs] += 1
        if spairs and quads:
            dropped = _dropped(rng, quads)
            if not spair_certificate(dropped).passed:
                assert not verify_groebner_by_fibers(setup, dropped, 3).passed, (
                    family.entries)
                counts["dropped fails"] += 1
    assert (counts["lfree"] > 100 and counts["full", False] > 30
            and counts["dropped fails"] > 100), counts


def test_atom_id_codes_decode_and_reverse_the_term_order():
    """On the points of small fibers, of single closures and of family
    blocks whose points carry x parts, a point's atom-id code by the gate's
    ids for `setup.tvars` decodes to the point, and of two points in one
    fiber the smaller code is the larger point."""
    setups = []
    for text, n in (("x2^2", 2), ("x2*x3", 3), ("x2^2*x4", 4)):
        M = parse_monomial(text, n)
        setups.append((FiberSetup.single(M), quadrics_single(M)))
    for text in (EX_FAMILY, TRIANGLE):
        family = parse_family(text)
        setups.append((FiberSetup.for_family(family), quadrics_multi(family).all()))
    points_seen = with_x = pairs = 0
    for setup, quads in setups:
        ids = _check_quadrics(quads, setup.n, setup.tvars)[0]
        for mu, beta in iterate_images(setup, 2):
            points = enumerate_fiber(setup, mu, beta)
            codes = [_encode(p, ids) for p in points]
            for p, code in zip(points, codes):
                assert code == tuple(sorted(code))
                assert _decode(code, setup.tvars, setup.n) == p
                points_seen += 1
                with_x += p.xpart.deg > 0
            for (p, c), (q, d) in itertools.permutations(zip(points, codes), 2):
                assert (c < d) == (p.key > q.key), (p, q)
                pairs += 1
    assert points_seen > 2000 and with_x > 1500 and pairs > 10000, (
        points_seen, with_x, pairs)


CHAIN_FAM = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "chain.fam"


def test_setup_tvars_descend_strictly():
    """`FiberSetup.tvars` descends strictly, so the gate's ids for it number
    the T-variables largest first, as codes need to order terms, and each
    id is the T-variable's bit in the fiber sweep: on every single closure
    with n <= 4 and degree <= 3, the chain, nested and triangle families,
    the bench's chain family, and seeded random principal Borel families,
    reduced."""
    setups = []
    for n, deg in itertools.product(range(1, 5), range(1, 4)):
        for exps in itertools.product(range(deg + 1), repeat=n):
            if sum(exps) == deg:
                setups.append(FiberSetup.single(Monomial(exps)))
    families = [parse_family(text) for text in
                (EX_FAMILY, NESTED_FAMILY, TRIANGLE, CHAIN_FAM.read_text())]
    rng = random.Random(101)
    for _ in range(60):
        families.append(reduce_family(random_principal_borel_family(
            rng, rng.randint(2, 4), rng.randint(1, 3), 2))[0])
    setups += [FiberSetup.for_family(family) for family in families]
    for setup in setups:
        tvars = setup.tvars
        assert all(map(operator.gt, tvars, tvars[1:])), setup.blocks
        ids = _check_quadrics((), setup.n, tvars)[0]
        assert list(ids.items()) == list(zip(tvars, range(len(tvars))))
    assert len(setups) == 129, len(setups)


def _traced_peak(run):
    """(result, tracemalloc peak in bytes) of one call of `run`."""
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_the_sweep_answers_image_groups_as_they_are_made():
    """The sweep reads its images one block-degree group at a time, as
    exponent tuples, and makes a `Monomial` only for an image that fails,
    so it never holds the whole image list: on the bench's chain family at
    bound 4 it passes over 14,463 images with a tracemalloc peak, its walk's
    table included, below half of what listing them by `iterate_images`
    reaches alone.  The listing runs first, so both runs find Python's free
    lists of small tuples already filled."""
    family = parse_family(CHAIN_FAM.read_text())
    setup, quads = FiberSetup.for_family(family), quadrics_multi(family).all()
    images, listed = _traced_peak(lambda: iterate_images(setup, 4))
    assert len(images) == 14_463
    del images
    report, swept = _traced_peak(lambda: verify_groebner_by_fibers(setup, quads, 4))
    assert (report.lines(), report.images_checked) == (
        ["PASS", "certificate: fibers bound=4"], 14_463)
    assert swept < listed / 2, (swept, listed)
