"""Sorted factorizations: write mu as a product of k Borel(M) members, canonically.

`borel_sort` produces the unique weakly decreasing (grevlex) factorization of
mu into k members of Borel(M) whose product is Borel-least among all such
factorizations' coordinatewise data; it is the lex-least point of the fiber of
the k-fold multiplication map over mu.  The recursion splits mu at its largest
variable x_s: writing the x_s-exponent A = q*k + r, exactly r factors receive
x_s^(q+1) and k - r receive x_s^q, and the two groups are sorted recursively
against truncated pivot monomials built by `split_monomial`.
"""

from __future__ import annotations

from .borel import _suffix_caps, borel_member, min_borel_divisor
from .monomials import Monomial


def split_monomial(M, s, E):
    """Truncated pivot for the recursion, with the x_s part already divided out.

    Builds the Borel-least monomial gamma of deg(M) supported on positions
    <= s with x_s-exponent exactly E, then returns gamma / x_s^E.  Positions
    below s - 1 keep M's exponents; position s - 1 absorbs sigma_{s-1}(M) - E.
    Requires s >= 2 and E <= sigma_s(M).
    """
    n = M.n
    if not 2 <= s <= n:
        raise ValueError(f"split position {s} outside 2..{n}")
    # caps[u] is sigma_{n-u}(M).
    _, caps = _suffix_caps(M)
    if E > caps[n - s]:
        raise ValueError(f"x{s}-exponent {E} exceeds sigma_{s}({M}) = {caps[n - s]}")
    exps = M.exps[:s - 2] + (caps[n - s + 1] - E,) + (0,) * (n - s + 1)
    return Monomial._of(exps, M.deg - E)


def borel_sort(M, mu, k):
    """The sorted factorization of mu into k members of Borel(M).

    Returns a list of k monomials, weakly decreasing in grevlex, multiplying
    to mu, each in Borel(M).  Raises ValueError when mu admits no such
    factorization.
    """
    if M.n != mu.n:
        raise ValueError("ambient mismatch in sorted factorization")
    if k < 1:
        raise ValueError("need at least one factor")
    if not borel_member(mu, M, k):
        raise ValueError(f"{mu} is not a product of {k} members of Borel({M})")
    return _bs(M, mu, k)


def _bs(M, mu, k):
    d = M.deg
    s = mu.max_var()
    if len(mu.support()) <= 1:
        # mu is a pure power (or the unit): all factors coincide.
        if d == 0:
            return [Monomial.unit(M.n)] * k
        factor = Monomial._of(
            tuple(d if p == s else 0 for p in range(1, M.n + 1)), d)
        return [factor] * k
    A = mu.exps[s - 1]
    q, r = divmod(A, k)
    xs = Monomial.variable(s, M.n)
    if r > 0:
        M_up = split_monomial(M, s, q)
        mu_up = min_borel_divisor(M_up, k - r, mu)
        if mu_up is None:
            raise AssertionError(f"recursion invariant broken at {mu} (up split)")
        M_down = split_monomial(M, s, q + 1)
        mu_down = mu / (mu_up * xs.pow(A))
        up = _bs(M_up, mu_up, k - r)
        down = _bs(M_down, mu_down, r)
        return [f * xs.pow(q) for f in up] + [f * xs.pow(q + 1) for f in down]
    M_left = split_monomial(M, s, q)
    mu_left = mu / xs.pow(A)
    return [f * xs.pow(q) for f in _bs(M_left, mu_left, k)]
