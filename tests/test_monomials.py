"""Monomial arithmetic, the grevlex order, moves, and the text grammar."""

import random

import pytest
from hypothesis import given, strategies as st

from borelgb.borel import borel_closure, min_borel_divisor
from borelgb.monomials import AmbientMismatch, Monomial, ParseError, parse_monomial
from borelgb.sorting import borel_sort

from helpers import (apply_move, expand, lcm, monomial_text, restrict, sigma,
                     split_monomial)


def M(text, n=4, base=1):
    return parse_monomial(text, n, base)


def test_parse_and_format_roundtrip_examples():
    assert M("x1^2*x2*x3").exps == (2, 1, 1, 0)
    assert M("x1^2*x2*x3").text() == "x1^2*x2*x3"
    assert M("1").exps == (0, 0, 0, 0)
    assert M("1").text() == "1"
    assert M("x4", 4).text() == "x4"
    # base 0 naming: x0 is position 1
    assert parse_monomial("x0^2*x4", 5, base=0).exps == (2, 0, 0, 0, 1)
    assert parse_monomial("x0^2*x4", 5, base=0).text(base=0) == "x0^2*x4"


def test_parse_is_lenient_about_order_and_duplicates():
    assert M("x3*x1*x1").exps == (2, 0, 1, 0)
    assert M("x2*x2^2").exps == (0, 3, 0, 0)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_monomial("x2^^2", 4)
    assert "column 1" in str(exc.value)
    with pytest.raises(ParseError):
        parse_monomial("", 4)
    with pytest.raises(ParseError) as exc:
        parse_monomial("x1*y2", 4)
    assert "column 4" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_monomial("x5", 4)
    assert "outside" in str(exc.value)
    with pytest.raises(ParseError):
        parse_monomial("x0", 4)  # base 1: names run x1..x4
    with pytest.raises(ParseError):
        parse_monomial("x1^0", 4)


def test_degree_sigma_support():
    m = M("x1^2*x3*x4")
    assert m.deg == 4
    assert sigma(m) == (4, 2, 2, 1)
    assert m.support() == (1, 3, 4)
    assert M("1").deg == 0


def test_mul_div_divides():
    a, b = M("x1*x2"), M("x2*x3")
    assert (a * b).text() == "x1*x2^2*x3"
    assert (a * b) / a == b
    assert a.divides(a * b)
    assert not b.divides(a)
    with pytest.raises(ValueError):
        a / b
    with pytest.raises(AmbientMismatch):
        a * parse_monomial("x1", 3)
    assert M("x2").pow(3).text() == "x2^3"
    with pytest.raises(ValueError, match="negative power"):
        M("x2").pow(-1)
    with pytest.raises(ValueError, match=r"variable position 3 outside 1\.\.2"):
        Monomial.variable(3, 2)
    assert lcm(a, b).text() == "x1*x2*x3"


def _compare(a, b):
    """-1/0/+1 comparing a against b by their grevlex keys."""
    ka, kb = a.grevlex_key(), b.grevlex_key()
    return (ka > kb) - (ka < kb)


def test_grevlex_examples():
    # x2^2*x3 beats x1^2*x4 in grevlex (rightmost difference favours it)
    assert _compare(M("x2^2*x3"), M("x1^2*x4")) == 1
    # ... but loses in lex, which compares the exponent tuples
    assert M("x2^2*x3").exps < M("x1^2*x4").exps
    # degree dominates grevlex
    assert _compare(M("x4^3"), M("x1^2")) == 1
    assert _compare(M("x1*x2"), M("x1*x2")) == 0
    # classic: x1*x3 vs x2^2 in grevlex -> rightmost nonzero of diff negative
    assert _compare(M("x2^2"), M("x1*x3")) == 1


def _grevlex_definition(a, b):
    """Reference comparator: degree first, then rightmost nonzero of a-b < 0."""
    if a.deg != b.deg:
        return 1 if a.deg > b.deg else -1
    for da, db in zip(reversed(a.exps), reversed(b.exps)):
        if da != db:
            return 1 if da < db else -1
    return 0


def test_grevlex_key_matches_definition():
    rng = random.Random(7)
    for _ in range(500):
        a = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
        b = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
        want = _grevlex_definition(a, b)
        assert _compare(a, b) == want


def test_apply_move():
    assert apply_move(M("x1*x2*x3"), 1, 3).text() == "x1^2*x2"
    assert apply_move(M("x2^2*x4"), 4, 2).text() == "x2*x4^2"
    with pytest.raises(ValueError):
        apply_move(M("x1^2"), 2, 3)  # x3 does not divide
    with pytest.raises(ValueError):
        apply_move(M("x1^2"), 1, 1)


def test_restrict_expand():
    m = M("x1*x3^2*x4")
    comp = restrict(m, (3, 4))
    assert comp.exps == (2, 1)
    assert expand(comp, (3, 4), 4).exps == (0, 0, 2, 1)
    assert expand(restrict(m, ()), (), 4) == M("1")


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
def test_text_roundtrip(exps):
    m = Monomial(exps)
    assert parse_monomial(m.text(), m.n) == m
    assert parse_monomial(m.text(base=0), m.n, base=0) == m


def test_text_matches_the_definition_renderer():
    """The cached factor strings render as the factor-by-factor oracle."""
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(0, 8)
        m = Monomial(rng.choice((0, rng.randint(0, 12))) for _ in range(n))
        for base in (0, 1):
            assert m.text(base) == monomial_text(m, base), (m, base)


def _assert_validated(m):
    """A trusted monomial is what public construction of its exponents gives."""
    fresh = Monomial(m.exps)
    assert type(m.exps) is tuple and m.deg == sum(m.exps)
    assert m == fresh and hash(m) == hash(fresh)


def test_trusted_results_equal_validated_construction():
    """Closed operations skip the public check: their results must be the
    monomials `Monomial(exps)` would build."""
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 6)
        a, b = (Monomial(rng.randint(0, 4) for _ in range(n)) for _ in range(2))
        results = [a * b, (a * b) / b, lcm(a, b), lcm(a, b) / a,
                   a.pow(rng.randint(0, 3))]
        g = Monomial(rng.randint(0, 2) for _ in range(n))
        support = rng.sample(range(1, n + 1), rng.randint(0, n))
        members = borel_closure(g)
        results += members + borel_closure(g, support)
        k = rng.randint(1, 3)
        mu = Monomial.unit(n)
        for _ in range(k):
            mu = mu * rng.choice(members)
        results += borel_sort(g, mu, k)
        sig = sigma(g)
        results += [split_monomial(g, s, E)
                    for s in range(2, n + 1) for E in range(sig[s - 1] + 1)]
        for divisor in (min_borel_divisor(g, k, a * b),
                        min_borel_divisor(g, k, a * b, support=support),
                        min_borel_divisor(g, k, mu)):
            if divisor is not None:
                results.append(divisor)
        for m in results:
            _assert_validated(m)
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial((1, -1))
    # The greedy divisor is built trusted, so a negative power is refused.
    for g in (Monomial((0, 0)), Monomial((0, 1))):
        with pytest.raises(ValueError, match="negative power"):
            min_borel_divisor(g, -1, Monomial((1, 1)))


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=5),
       st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=5))
def test_compare_antisymmetry(e1, e2):
    size = min(len(e1), len(e2))
    a, b = Monomial(e1[:size]), Monomial(e2[:size])
    assert _compare(a, b) == -_compare(b, a) == _grevlex_definition(a, b)
