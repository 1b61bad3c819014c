"""Acceptance gate: the nine end-to-end criteria, one PASS/FAIL line each.

Each test prints a single `[C#] PASS/FAIL` line (visible even under capture)
and then asserts, so a red run still reports every criterion's verdict.
Runtime budgets are asserted where the criterion pins one.
"""

import itertools
import random
import time

from borelgb.borel import borel_closure, borel_member, min_borel_divisor
from borelgb.families import (find_lfree_column_order, incidence_matrix,
                              is_chordal_bipartite, lfree_witness,
                              parse_family)
from borelgb.monomials import Monomial, parse_monomial
from borelgb.quadrics import quadrics_multi, quadrics_single
from borelgb.sorting import borel_sort
from borelgb.toric import (FiberSetup, enumerate_fiber, fiber_graph,
                           spair_certificate, t_min,
                           verify_groebner_by_fibers)

from helpers import (apply_move, certify, first_non_squarefree_lead, is_lfree,
                     min_borel_divisor_bruteforce, permute_columns,
                     random_interval_family, random_principal_borel_family,
                     tdegree)

CHAIN_FAMILY = """vars = 4
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

SORT_PIVOT = parse_monomial("x1*x3^2*x4^2", 5, 0)
SORT_IMAGE = parse_monomial("x0^2*x1^5*x2^13*x3^7*x4^3", 5, 0)
SORT_EXPECTED = ["x1*x2^2*x3^2", "x1*x2^2*x3^2", "x1*x2*x3^3",
                 "x1^2*x2^2*x4", "x0*x2^3*x4", "x0*x2^3*x4"]


def report(capsys, tag, ok, detail, elapsed):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.2f} s)")


def all_monomials(n, deg):
    for picks in itertools.combinations_with_replacement(range(n), deg):
        e = [0] * n
        for i in picks:
            e[i] += 1
        yield Monomial(tuple(e))


def test_c1_sorted_factorization_golden(capsys):
    t0 = time.monotonic()
    got = [f.text(0) for f in borel_sort(SORT_PIVOT, SORT_IMAGE, 6)]
    elapsed = time.monotonic() - t0
    ok = got == SORT_EXPECTED and elapsed < 1.0
    report(capsys, "C1", ok, "six-factor sorted factorization golden", elapsed)
    assert got == SORT_EXPECTED
    assert elapsed < 1.0


def test_c2_fiber_count_golden(capsys):
    t0 = time.monotonic()
    setup = FiberSetup.single(SORT_PIVOT, base=0)
    points = enumerate_fiber(setup, SORT_IMAGE, 6)
    elapsed = time.monotonic() - t0
    ok = len(points) == 4742 and elapsed < 30.0
    report(capsys, "C2", ok, f"fiber cardinality {len(points)} (expect 4742)",
           elapsed)
    assert len(points) == 4742
    assert elapsed < 30.0


def test_c3_sorted_output_is_fiber_minimum(capsys):
    t0 = time.monotonic()
    checked = mismatches = 0
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in all_monomials(n, deg):
                setup = FiberSetup.single(M)
                for k in (1, 2, 3):
                    for mu in borel_closure(M.pow(k)):
                        points = enumerate_fiber(setup, mu, k)
                        want = list(borel_sort(M, mu, k))
                        got = [t.gen for t in points[0].tvars] if points else None
                        checked += 1
                        if got != want:
                            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 300.0
    report(capsys, "C3", ok,
           f"sorted output == least fiber point on {checked} fibers, "
           f"{mismatches} mismatches", elapsed)
    assert mismatches == 0
    assert checked > 3000
    assert elapsed < 300.0


def test_c4_unique_sink_and_spair_certificates(capsys):
    t0 = time.monotonic()
    M = parse_monomial("x2^2*x4", 4)
    setup = FiberSetup.single(M)
    quads = quadrics_single(M)
    fibers = verify_groebner_by_fibers(setup, quads, 3)
    spairs = spair_certificate(quads)
    elapsed = time.monotonic() - t0
    ok = fibers.passed and spairs.passed and elapsed < 120.0
    report(capsys, "C4", ok,
           f"x2^2*x4 quadrics: fibers bound=3 "
           f"{'PASS' if fibers.passed else 'FAIL'} "
           f"({fibers.images_checked} images), spairs "
           f"{'PASS' if spairs.passed else 'FAIL'} "
           f"({spairs.pairs_checked} reduced)", elapsed)
    assert fibers.passed
    assert spairs.passed
    assert elapsed < 120.0


def test_c5_least_point_golden(capsys):
    t0 = time.monotonic()
    fam = parse_family(CHAIN_FAMILY)
    point = t_min(fam, parse_monomial("x1^6*x2^9*x3^6*x4^4", 4),
                  (1, 2, 2, 2, 2))
    elapsed = time.monotonic() - t0
    expected = ("x1^2*x2^2 | t1:x4, t2:x3*x4, t2:x3*x4, t3:x3^2, t3:x3*x4, "
                "t4:x1*x2^2, t4:x1*x2*x3, t5:x1*x2^2, t5:x1*x2^2")
    ok = point is not None and point.label() == expected and elapsed < 1.0
    report(capsys, "C5", ok, "five-block least fiber point golden", elapsed)
    assert point is not None and point.label() == expected
    assert elapsed < 1.0


def test_c6_negative_control_four_ways(capsys):
    t0 = time.monotonic()
    tri = parse_family(TRIANGLE)
    setup = FiberSetup.for_family(tri)
    quads = quadrics_multi(tri).all()
    mu = parse_monomial("x1*x2*x3", 3)
    beta = (1, 1, 1)

    undefined = t_min(tri, mu, beta) is None
    graph = fiber_graph(setup, mu, beta, quads)
    _, sinks = certify(graph)
    two_sinks = len(graph.vertices) == 2 and graph.edges == () and len(sinks) == 2
    rep = verify_groebner_by_fibers(setup, quads, 3)
    sweep_fails_there = (not rep.passed) and any(
        m == mu and b == beta for m, b, _ in rep.failures)
    sp = spair_certificate(quads)
    cubic = False
    if not sp.passed:
        u, v = sp.normal_form
        cubic = all(tdegree(s) + s.xpart.deg == 3 for s in (u, v))
    spair_fails_cubic = (not sp.passed) and cubic

    elapsed = time.monotonic() - t0
    verdicts = (undefined, two_sinks, sweep_fails_there, spair_fails_cubic)
    ok = all(verdicts)
    report(capsys, "C6", ok,
           "triangle family rejected four ways (undefined least point, "
           "two-sink fiber, sweep failure at that image, cubic S-pair "
           f"survivor): {verdicts}", elapsed)
    assert all(verdicts)


def test_c7_staircase_suite(capsys):
    t0 = time.monotonic()
    nested_ok = lfree_witness(incidence_matrix(parse_family(NESTED_FAMILY))) is None
    chain_ok = lfree_witness(incidence_matrix(parse_family(CHAIN_FAMILY))) is None
    tri = incidence_matrix(parse_family(TRIANGLE))
    tri_always_l = all(
        not is_lfree(permute_columns(tri, perm))
        for perm in itertools.permutations(range(tri.r)))
    tri_not_chordal = not is_chordal_bipartite(tri)
    rng = random.Random(2026)
    failures = 0
    for _ in range(100):
        fam = random_principal_borel_family(rng, rng.randint(1, 5),
                                            rng.randint(1, 5))
        mat = incidence_matrix(fam)
        perm = list(range(mat.r))
        rng.shuffle(perm)
        shuffled = permute_columns(mat, perm)
        order = find_lfree_column_order(shuffled)
        if order is None or not is_lfree(permute_columns(shuffled, order)):
            failures += 1
    elapsed = time.monotonic() - t0
    ok = (nested_ok and chain_ok and tri_always_l and tri_not_chordal
          and failures == 0)
    report(capsys, "C7", ok,
           f"staircase checks (two LFREE goldens, triangle rejected under "
           f"all orders, {failures}/100 order-search failures)", elapsed)
    assert nested_ok and chain_ok
    assert tri_always_l and tri_not_chordal
    assert failures == 0


def test_c8_squarefree_leads_everywhere(capsys):
    t0 = time.monotonic()
    offenders = 0
    sets = 0
    for n in (1, 2, 3, 4):
        for deg in (1, 2, 3):
            for M in all_monomials(n, deg):
                if first_non_squarefree_lead(quadrics_single(M)) is not None:
                    offenders += 1
                sets += 1
    rng = random.Random(77)
    for _ in range(20):
        fam = random_interval_family(rng, rng.randint(2, 5), rng.randint(1, 4))
        if first_non_squarefree_lead(quadrics_multi(fam).all()) is not None:
            offenders += 1
        sets += 1
    elapsed = time.monotonic() - t0
    ok = offenders == 0
    report(capsys, "C8", ok,
           f"squarefree leads across {sets} quadric sets, "
           f"{offenders} offenders", elapsed)
    assert offenders == 0
    assert sets > 80


def random_walk_member(rng, M, steps):
    m = M
    for _ in range(steps):
        js = [j for j in m.support() if j > 1]
        if not js:
            break
        j = rng.choice(js)
        m = apply_move(m, rng.randint(1, j - 1), j)
    return m


def test_c9_oracle_equivalence(capsys):
    t0 = time.monotonic()
    rng = random.Random(2026)
    present = absent = mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        M = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        if M.is_unit:
            M = Monomial(tuple(1 if i == n - 1 else 0 for i in range(n)))
        k = rng.randint(1, 3)
        if rng.random() < 0.6:
            mu = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
            for _ in range(k):
                mu = mu * random_walk_member(rng, M, rng.randint(0, 3))
        else:
            mu = Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
        got = min_borel_divisor(M, k, mu)
        want = min_borel_divisor_bruteforce(M, k, mu)
        if got != want:
            mismatches += 1
        elif got is None:
            absent += 1
        else:
            present += 1
    membership_pairs = membership_bad = 0
    for n in (1, 2, 3, 4):
        for deg in range(1, 6):
            for M in all_monomials(n, deg):
                closure = set(borel_closure(M))
                for m in all_monomials(n, deg):
                    membership_pairs += 1
                    if borel_member(m, M) != (m in closure):
                        membership_bad += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and membership_bad == 0 and present > 100 and absent > 100
    report(capsys, "C9", ok,
           f"greedy==oracle on 1000 draws ({present} present, {absent} "
           f"absent, {mismatches} mismatches); sigma==closure membership on "
           f"{membership_pairs} pairs, {membership_bad} disagreements",
           elapsed)
    assert mismatches == 0
    assert membership_bad == 0
    assert present > 100 and absent > 100
