"""The sorted-factorization algorithm and its truncated-pivot helper."""

import itertools
import random

import pytest

from borelgb.borel import borel_closure, borel_member
from borelgb.monomials import Monomial, parse_monomial
from borelgb.sorting import borel_sort

from helpers import borel_sort_by_monomials, split_monomial


def M(text, n, base=0):
    return parse_monomial(text, n, base)


def test_split_monomial_goldens():
    # pivot M = x1*x3^2*x4^2 over x0..x4, splitting at s = 5 (name x4), q = 0
    Mm = M("x1*x3^2*x4^2", 5)
    # the up pivot divides out x_s^q, the down pivot x_s^(q + 1)
    assert split_monomial(Mm, 5, 0).text(0) == "x1*x3^4"
    assert split_monomial(Mm, 5, 1).text(0) == "x1*x3^3"
    # next level: M_up = x1*x3^4, s = 4 (name x3), q = 2
    up = M("x1*x3^4", 5)
    assert split_monomial(up, 4, 2).text(0) == "x1*x2^2"
    assert split_monomial(up, 4, 3).text(0) == "x1*x2"
    # with no remainder one pivot takes every factor and divides out q
    down = M("x1*x3^3", 5)
    assert split_monomial(down, 3, 2).text(0) == "x1^2"
    assert split_monomial(down, 3, 3).text(0) == "x1"


def test_split_monomial_errors():
    Mm = M("x1*x3^2*x4^2", 5)
    with pytest.raises(ValueError):
        split_monomial(Mm, 1, 0)  # needs s >= 2
    with pytest.raises(ValueError):
        split_monomial(Mm, 5, 5)  # exponent above sigma_s


def test_borel_sort_worked_example():
    Mm = M("x1*x3^2*x4^2", 5)
    mu = M("x0^2*x1^5*x2^13*x3^7*x4^3", 5)
    got = [f.text(0) for f in borel_sort(Mm, mu, 6)]
    assert got == ["x1*x2^2*x3^2", "x1*x2^2*x3^2", "x1*x2*x3^3",
                   "x1^2*x2^2*x4", "x0*x2^3*x4", "x0*x2^3*x4"]


def test_borel_sort_small_goldens():
    assert [f.text(1) for f in borel_sort(
        parse_monomial("x2^2", 2), parse_monomial("x1^2*x2^2", 2), 2)] == \
        ["x1*x2", "x1*x2"]
    assert [f.text(1) for f in borel_sort(
        parse_monomial("x2^2", 2), parse_monomial("x1^3*x2", 2), 2)] == \
        ["x1^2", "x1*x2"]
    # pure-power input: all factors equal
    assert [f.text(1) for f in borel_sort(
        parse_monomial("x1*x2", 2), parse_monomial("x1^4", 2), 2)] == \
        ["x1^2", "x1^2"]
    # unit pivot
    unit = parse_monomial("1", 3)
    assert borel_sort(unit, unit, 3) == [unit, unit, unit]
    # single factor: mu itself
    assert borel_sort(parse_monomial("x2^2", 2),
                      parse_monomial("x1*x2", 2), 1) == [parse_monomial("x1*x2", 2)]


def test_borel_sort_rejects_infeasible():
    with pytest.raises(ValueError):
        borel_sort(parse_monomial("x1*x2", 2), parse_monomial("x2^4", 2), 2)
    with pytest.raises(ValueError):
        borel_sort(parse_monomial("x2", 2), parse_monomial("x1", 2), 2)
    with pytest.raises(ValueError):
        borel_sort(parse_monomial("x2", 2), parse_monomial("x1", 2), 0)
    with pytest.raises(ValueError, match="ambient mismatch in sorted factorization"):
        borel_sort(parse_monomial("x2", 2), parse_monomial("x1", 3), 1)


def all_monomials(n, deg):
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) == deg:
            yield Monomial(exps)


def test_borel_sort_invariants_small_sweep():
    """Factors multiply back, live in the closure, weakly decrease in grevlex."""
    for n in (2, 3):
        for deg in (1, 2):
            for Mm in all_monomials(n, deg):
                for k in (1, 2, 3):
                    seen = 0
                    for mu in all_monomials(n, k * deg):
                        if not borel_member(mu, Mm, k):
                            continue
                        seen += 1
                        factors = borel_sort(Mm, mu, k)
                        assert len(factors) == k
                        prod = factors[0]
                        for f in factors[1:]:
                            prod = prod * f
                        assert prod == mu
                        for f in factors:
                            assert borel_member(f, Mm)
                        for a, b in zip(factors, factors[1:]):
                            assert a.grevlex_key() >= b.grevlex_key()
                    assert seen > 0


def test_borel_sort_matches_monomial_recursion():
    """The recursion on exponent tuples against the same recursion on
    Monomials, on seeded products of k <= 4 members of every closure with
    n <= 5 and deg <= 4."""
    rng = random.Random(97)
    compared = 0
    for n in range(1, 6):
        for deg in range(5):
            for Mm in borel_closure(Monomial((0,) * (n - 1) + (deg,))):
                members = borel_closure(Mm)
                for k in range(1, 5):
                    for _ in range(8):
                        mu = Monomial.unit(n)
                        for f in rng.choices(members, k=k):
                            mu = mu * f
                        got = borel_sort(Mm, mu, k)
                        assert got == borel_sort_by_monomials(Mm, mu, k), (Mm, mu, k)
                        assert all(f.deg == Mm.deg for f in got)
                        compared += 1
    assert compared > 8000
