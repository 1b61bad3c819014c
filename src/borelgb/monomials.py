"""Dense-exponent monomials, the grevlex term order, and the monomial grammar.

Monomials live in a fixed ambient polynomial ring K[x_1, ..., x_n] and are
stored as dense tuples of nonnegative exponents.  Variables are addressed by
1-based position throughout the API; the textual name of position p is
``x{p - 1 + base}`` where ``base`` (0 or 1) is a display convention only.
"""

from __future__ import annotations

import operator
import re


class ParseError(ValueError):
    """Malformed monomial or family text; carries 1-based line/column info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where += f"line {line}, "
        if column is not None:
            where += f"column {column}, "
        super().__init__(where.rstrip(", ") + ": " + message if where else message)


class AmbientMismatch(ValueError):
    """Operands live in polynomial rings with different numbers of variables."""


_FACTOR_RE = re.compile(r"([A-Za-z]+)(\d+)(?:\^(\d+))?\Z")


class Monomial:
    """An immutable monomial over a fixed number of variables."""

    __slots__ = ("exps", "deg")

    def __init__(self, exps):
        exps = tuple(exps)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exps = exps
        self.deg = sum(exps)

    @classmethod
    def _of(cls, exps, deg):
        """Trusted constructor: `exps` a tuple of nonnegative ints, `deg` their sum."""
        out = cls.__new__(cls)
        out.exps = exps
        out.deg = deg
        return out

    @classmethod
    def unit(cls, n):
        return cls((0,) * n)

    @classmethod
    def variable(cls, i, n):
        """The monomial x_i (1-based position) in n variables."""
        if not 1 <= i <= n:
            raise ValueError(f"variable position {i} outside 1..{n}")
        return cls(tuple(1 if p == i else 0 for p in range(1, n + 1)))

    @property
    def n(self):
        return len(self.exps)

    @property
    def is_unit(self):
        return self.deg == 0

    def support(self):
        """1-based positions of the variables that divide this monomial."""
        return tuple(p for p, e in enumerate(self.exps, start=1) if e)

    def divides(self, other):
        _check_ambient(self, other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __mul__(self, other):
        _check_ambient(self, other)
        return Monomial._of(tuple(map(operator.add, self.exps, other.exps)),
                            self.deg + other.deg)

    def __truediv__(self, other):
        """Exact division; raises ValueError when the quotient is not a monomial."""
        _check_ambient(self, other)
        diff = tuple(map(operator.sub, self.exps, other.exps))
        if min(diff, default=0) < 0:
            raise ValueError(f"{other} does not divide {self}")
        return Monomial._of(diff, self.deg - other.deg)

    def pow(self, k):
        if k < 0:
            raise ValueError("negative power")
        return Monomial._of(tuple(e * k for e in self.exps), self.deg * k)

    def grevlex_key(self):
        """Sort key: ascending order under graded reverse lexicographic."""
        return (self.deg, tuple(-e for e in reversed(self.exps)))

    def text(self, base=1):
        """Canonical text: '1' or '*'-joined factors in ascending position."""
        if self.deg == 0:
            return "1"
        return "*".join([_factor_text("x", i, e) for i, e in enumerate(self.exps, base) if e])

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Monomial({self.exps!r})"

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)


def _factor_text(letter, index, e):
    """The factor '{letter}{index}^{e}', or '{letter}{index}' for e = 1."""
    return f"{letter}{index}^{e}" if e > 1 else f"{letter}{index}"


def _check_ambient(a, b):
    if len(a.exps) != len(b.exps):
        raise AmbientMismatch(f"ambient mismatch: {len(a.exps)} vs {len(b.exps)} variables")


def parse_power_product(text, letter, n, base=1, line=None, column_offset=0):
    """Parse '1' or 'x3*x4^2'-style text into an exponent tuple of length n.

    `letter` selects the variable family ('x' or 't'); names run from base to
    base + n - 1.  Repeated factors accumulate.  Reports 1-based columns.
    """
    stripped = text.strip()
    col0 = column_offset + len(text) - len(text.lstrip()) + 1
    if not stripped:
        raise ParseError("empty monomial", line, col0)
    if stripped == "1":
        return (0,) * n
    exps = [0] * n
    col = col0
    for piece in stripped.split("*"):
        m = _FACTOR_RE.match(piece.strip())
        pcol = col + len(piece) - len(piece.lstrip())
        if m is None:
            raise ParseError(f"malformed factor {piece.strip()!r}", line, pcol)
        name, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        if name != letter:
            raise ParseError(f"expected {letter!r} variables, got {piece.strip()!r}", line, pcol)
        pos = idx - base + 1
        if not 1 <= pos <= n:
            raise ParseError(
                f"{letter}{idx} outside the declared range {letter}{base}..{letter}{base + n - 1}",
                line, pcol)
        e = 1 if exp is None else int(exp)
        if e < 1:
            raise ParseError(f"exponent must be >= 1 in {piece.strip()!r}", line, pcol)
        exps[pos - 1] += e
        col += len(piece) + 1
    return tuple(exps)


def parse_monomial(text, n, base=1, line=None, column_offset=0):
    """Parse monomial text over x-variables into a Monomial of n variables."""
    return Monomial(parse_power_product(text, "x", n, base, line, column_offset))
