"""Borel closures, membership, the Borel order, and minimal divisors.

The two routes to the minimal divisor (greedy suffix-sum filling vs. a direct
scan over all divisors) are kept independent and compared; likewise the
sigma-built closure and sigma-characterized membership vs. a closure found
literally by Borel moves (`closure_by_moves`).
"""

import itertools
import random

import pytest

from borelgb.borel import (borel_closure, borel_member, closure_exps,
                           closure_texts, min_borel_divisor)
from borelgb.monomials import Monomial, parse_monomial

from helpers import (apply_move, borel_compare, closure_exps_by_members,
                     closure_lines_by_members, factorization_step,
                     min_borel_divisor_bruteforce, reverse_step_toward)


def M(text, n=4, base=1):
    return parse_monomial(text, n, base)


def all_monomials(n, deg):
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) == deg:
            yield Monomial(exps)


def closure_by_moves(m, support=None):
    """Oracle for `borel_closure`: breadth-first search over Borel moves."""
    allowed = sorted(set(range(1, m.n + 1) if support is None else support))
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for cur in frontier:
            for jpos, j in enumerate(allowed):
                if cur.exps[j - 1] == 0:
                    continue
                for i in allowed[:jpos]:
                    child = apply_move(cur, i, j)
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return tuple(sorted(seen, key=Monomial.grevlex_key))


def test_closure_matches_moves_exhaustively():
    rng = random.Random(41)
    checked = 0
    for n in range(0, 5):
        for deg in range(0, 6):
            for Mm in all_monomials(n, deg):
                supports = [None] + [
                    rng.sample(range(1, n + 1), rng.randint(0, n))
                    for _ in range(3)]
                for support in supports:
                    assert borel_closure(Mm, support) == \
                        closure_by_moves(Mm, support), (Mm, support)
                    checked += 1
    assert checked == 4 * 210


def test_closure_of_a_last_variable_walks_every_position():
    # one member per position: the walk must not recurse with n
    got = borel_closure(Monomial.variable(1100, 1100))
    assert got == tuple(Monomial.variable(p, 1100) for p in range(1100, 0, -1))


def test_column_walk_matches_the_member_odometer():
    """`closure_exps` and the text blocks of `closure_texts` against the
    per-member odometer and per-member lines they replaced: every exponent
    vector in {0,1,2}^n for n <= 5 with every support, the empty one and
    none among them (9,693 cases), at bases 0 and 1; then x6^16, a
    7-variable pivot of 3,031 members, and random pivots in 6 to 8
    variables with random supports, drawn from a fixed seed."""

    def check(exps, support, base):
        names = [f"x{p}" for p in range(base, base + len(exps))]
        assert list(closure_exps(exps, support)) == \
            list(closure_exps_by_members(exps, support)), (exps, support)
        blocks = list(closure_texts(exps, support, base))
        assert all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == \
            closure_lines_by_members(exps, support, names), (exps, support)

    cases = 0
    for n in range(1, 6):
        supports = [None] + [s for k in range(n + 1)
                             for s in itertools.combinations(range(1, n + 1), k)]
        for exps in itertools.product(range(3), repeat=n):
            for support in supports:
                for base in (0, 1):
                    check(exps, support, base)
                cases += 1
    assert cases == 9693
    for exps in ((0, 0, 0, 0, 0, 16), (0, 1, 4, 0, 2, 0, 3)):
        check(exps, None, 1)
    assert len(list(closure_exps((0, 1, 4, 0, 2, 0, 3)))) == 3031
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(6, 8)
        exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
        support = tuple(p for p in range(1, n + 1) if rng.random() < 0.7)
        check(exps, rng.choice((None, support)), rng.randint(0, 1))


def test_closure_rejects_support_outside_ambient():
    with pytest.raises(ValueError):
        borel_closure(M("x2"), support=(0, 2))
    with pytest.raises(ValueError):
        borel_closure(M("x2"), support=(2, 5))


def test_closure_golden_x2sq_x4():
    got = [m.text() for m in borel_closure(M("x2^2*x4"))]
    assert got == ["x2^2*x4", "x1*x2*x4", "x1^2*x4", "x2^2*x3", "x1*x2*x3",
                   "x1^2*x3", "x2^3", "x1*x2^2", "x1^2*x2", "x1^3"]


def test_closure_golden_small():
    assert [m.text() for m in borel_closure(M("x1*x2", 2))] == ["x1*x2", "x1^2"]
    assert [m.text() for m in borel_closure(M("x2^2", 2))] == \
        ["x2^2", "x1*x2", "x1^2"]
    assert borel_closure(M("1")) == (M("1"),)


def test_closure_with_support():
    # moves restricted to {x3, x4}: x2 stays put
    got = [m.text() for m in borel_closure(M("x2*x4"), support=(3, 4))]
    assert got == ["x2*x4", "x2*x3"]
    # support not containing any variable of m: nothing moves
    assert borel_closure(M("x4"), support=(1, 2)) == (M("x4"),)


def test_membership_and_least_divisor_refuse_another_ambient():
    other = parse_monomial("x1", 3)
    with pytest.raises(ValueError, match="ambient mismatch in membership test"):
        borel_member(other, M("x2"))
    with pytest.raises(ValueError, match="ambient mismatch in minimal divisor"):
        min_borel_divisor(M("x2"), 1, other)


def test_member_matches_bfs_closure_exhaustively():
    for n in (1, 2, 3):
        for deg in range(0, 5):
            for Mm in all_monomials(n, deg):
                closure = set(closure_by_moves(Mm))
                for m in all_monomials(n, deg):
                    assert borel_member(m, Mm) == (m in closure)


def test_member_powers_never_materialize():
    Mm = M("x2*x3", 3, base=1)
    closure2 = set(borel_closure(Mm.pow(2)))
    for m in all_monomials(3, 4):
        assert borel_member(m, Mm, 2) == (m in closure2)


def test_borel_compare_examples():
    assert borel_compare(M("x1*x2*x3"), M("x1^2*x2")) == "less"
    assert borel_compare(M("x1^2*x2"), M("x1*x2*x3")) == "greater"
    assert borel_compare(M("x1*x4"), M("x2*x3")) == "incomparable"
    assert borel_compare(M("x1*x2"), M("x1*x2")) == "equal"
    assert borel_compare(M("x1"), M("x1^2")) == "incomparable"


def test_borel_compare_agrees_with_closure():
    mons = list(all_monomials(3, 3))
    for a in mons:
        inside = set(borel_closure(a))
        for b in mons:
            verdict = borel_compare(a, b)
            if verdict == "less":
                assert b in inside and b != a
            elif verdict == "equal":
                assert a == b
            elif verdict == "greater":
                assert a in set(borel_closure(b)) and a != b
            else:
                assert b not in inside and a not in set(borel_closure(b))


def test_min_borel_divisor_goldens():
    assert min_borel_divisor(M("x2^2*x4"), 1, M("x1^2*x2*x3")).text() == "x1*x2*x3"
    assert min_borel_divisor(M("x2^2*x4"), 1, M("x3*x4^2")) is None
    # the big recursion step: least divisor from a cube
    Mup = parse_monomial("x1*x3^4", 5, base=0)
    mu = parse_monomial("x0^2*x1^5*x2^13*x3^7*x4^3", 5, base=0)
    assert min_borel_divisor(Mup, 3, mu).text(base=0) == "x1^3*x2^5*x3^7"
    # support-restricted: computed inside the subring
    assert min_borel_divisor(M("x4"), 1, M("x1^6*x4"), support=(4,)).text() == "x4"
    assert min_borel_divisor(M("x3*x4", 4), 2,
                             M("x1^6*x3^3*x4^2"), support=(3, 4)).text() == "x3^2*x4^2"


def test_min_borel_divisor_is_borel_least():
    # the result divides mu, lies in Borel(M^k), and every other divisor
    # in Borel(M^k) sits above it in the Borel order
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        Mm = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        if Mm.deg == 0:
            continue
        k = rng.randint(1, 2)
        mu = Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
        got = min_borel_divisor(Mm, k, mu)
        if got is None:
            continue
        assert got.divides(mu) and borel_member(got, Mm, k)
        for d in (Monomial(e) for e in itertools.product(
                *(range(x + 1) for x in mu.exps))):
            if d.deg == got.deg and borel_member(d, Mm, k):
                assert borel_compare(got, d) in ("less", "equal")


def test_min_borel_divisor_dual_route_seeded():
    rng = random.Random(23)
    present = absent = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        Mm = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        k = rng.randint(1, 3)
        mu = Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
        greedy = min_borel_divisor(Mm, k, mu)
        brute = min_borel_divisor_bruteforce(Mm, k, mu)
        assert greedy == brute
        if greedy is None:
            absent += 1
        else:
            present += 1
    assert present > 20 and absent > 20


def test_factors_exist():
    assert borel_member(M("x1^2*x2^2", 2, base=1), M("x2^2", 2), 2)
    assert not borel_member(M("x2^4", 2), M("x1*x2", 2), 2)
    assert not borel_member(M("x1^3", 2), M("x1*x2", 2), 2)  # degree mismatch


def test_reverse_step_toward_golden():
    # largest admissible i below the deficient position j
    assert reverse_step_toward(M("x1^2*x2"), M("x2^2*x4"), M("x1^2*x2*x3")) == (2, 3)


def test_reverse_step_iteration_reaches_least_divisor():
    Mm, mu = M("x2^2*x4"), M("x1^2*x2*x3")
    target = min_borel_divisor(Mm, 1, mu)
    for start in borel_closure(Mm):
        if not start.divides(mu):
            continue
        cur = start
        seen = 0
        while cur != target:
            i, j = reverse_step_toward(cur, Mm, mu)
            nxt = Monomial(tuple(
                e + (1 if p == j else 0) - (1 if p == i else 0)
                for p, e in enumerate(cur.exps, start=1)))
            assert i < j
            assert nxt.grevlex_key() < cur.grevlex_key()  # strict grevlex descent
            assert borel_member(nxt, Mm) and nxt.divides(mu)
            cur = nxt
            seen += 1
            assert seen < 50
    with pytest.raises(ValueError):
        reverse_step_toward(target, Mm, mu)


def test_factorization_step_golden():
    Mm = M("x2^2*x4")
    mu = M("x1^2*x2^3*x3*x4")
    factors = [M("x1*x2^2"), M("x1*x2*x3")]
    ell, i, j = factorization_step(factors, Mm, mu)
    assert (ell, i, j) == (1, 2, 4)


def test_factorization_step_iteration_terminates():
    Mm = M("x2^2*x4")
    closure = borel_closure(Mm)
    mu = M("x1^2*x2^4*x3^2*x4^2")
    target = min_borel_divisor(Mm, 2, mu)
    assert target is not None
    trials = 0
    for a in closure:
        for b in closure:
            prod = a * b
            if not prod.divides(mu):
                continue
            trials += 1
            factors = [a, b]
            guard = 0
            while True:
                prod = factors[0] * factors[1]
                if prod == target:
                    break
                ell, i, j = factorization_step(factors, Mm, mu)
                before = factors[ell - 1]
                after = Monomial(tuple(
                    e + (1 if p == j else 0) - (1 if p == i else 0)
                    for p, e in enumerate(before.exps, start=1)))
                assert borel_member(after, Mm)
                factors[ell - 1] = after
                assert (factors[0] * factors[1]).grevlex_key() < prod.grevlex_key()
                guard += 1
                assert guard < 100
    assert trials > 5
