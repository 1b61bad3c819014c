"""Ordered families of principal L-Borel ideals.

Each family entry pairs a support L, a set of variable positions, with a
principal generator M; the entry's ideal is generated by the closure of M
under the Borel moves x_j -> x_i with i < j, both in L.  The family's incidence
structure records, per entry, the variables that actually appear in that
closure; staircase conditions on this 0/1 matrix (L-freeness, chordal
bipartiteness) govern when the family's toric relations behave well.
"""

from __future__ import annotations

import itertools
import re

from .borel import borel_closure
from .monomials import Monomial, ParseError, parse_monomial


class FamilyEntry:
    """One named ideal of a family: its support L, a sorted tuple of 1-based
    positions, and its principal generator."""

    __slots__ = ("name", "support", "gen", "_closure")

    def __init__(self, name, support, gen):
        support = tuple(sorted(set(support)))
        if support and not (1 <= support[0] and support[-1] <= gen.n):
            raise ValueError(f"support {list(support)} outside 1..{gen.n}")
        self.name = name
        self.support = support
        self.gen = gen
        self._closure = None

    def closure(self):
        if self._closure is None:
            self._closure = borel_closure(self.gen, support=self.support)
        return self._closure

    def effective_support(self):
        """Support positions that can actually carry mass of the generator.

        These are the support positions <= j*, where j* is the largest support
        position dividing the generator; empty when no support variable divides
        it.  Equals the intersection of the support with the variables of the
        closure.
        """
        js = max((p for p in self.support if self.gen.exps[p - 1]), default=0)
        return frozenset(p for p in self.support if p <= js)

    def is_reduced(self):
        return self.effective_support().issuperset(self.support + self.gen.support())

    def __repr__(self):
        return f"FamilyEntry({self.name!r}, {self.support!r}, {self.gen!r})"


class IdealFamily:
    """An ordered list of family entries over a common ambient ring."""

    __slots__ = ("n", "entries", "base")

    def __init__(self, n, entries, base=1):
        entries = tuple(entries)
        if n < 1:
            raise ValueError("ambient needs at least one variable")
        if base not in (0, 1):
            raise ValueError("base must be 0 or 1")
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate entry names")
        for e in entries:
            if e.gen.n != n:
                raise ValueError(f"entry {e.name}: ambient mismatch")
        self.n = n
        self.entries = entries
        self.base = base

    @property
    def r(self):
        return len(self.entries)

    def is_reduced(self):
        return all(e.is_reduced() for e in self.entries)

    def var_name(self, p):
        return f"x{p - 1 + self.base}"

    def __repr__(self):
        return f"IdealFamily(n={self.n}, entries={[e.name for e in self.entries]})"


def reduce_family(family):
    """Strip inert variable mass from every entry.

    Per entry, the generator splits as M = M' * m where M' lives on the
    effective support E and m is fixed by every move; the reduced entry keeps
    (E, M') and m is reported as the stripped cofactor.
    Returns (reduced family, tuple of stripped monomials).  Idempotent.
    """
    new_entries = []
    stripped = []
    for e in family.entries:
        eff = e.effective_support()
        kept = Monomial(tuple(
            v if (p + 1) in eff else 0 for p, v in enumerate(e.gen.exps)))
        new_entries.append(FamilyEntry(e.name, eff, kept))
        stripped.append(e.gen / kept)
    return IdealFamily(family.n, new_entries, family.base), tuple(stripped)


class BiAdjacency:
    """A 0/1 incidence matrix: rows are variables 1..n, columns are named entries."""

    __slots__ = ("n", "col_names", "rows")

    def __init__(self, n, col_names, rows):
        rows = tuple(tuple(int(bool(v)) for v in row) for row in rows)
        col_names = tuple(col_names)
        if len(rows) != n or any(len(row) != len(col_names) for row in rows):
            raise ValueError("matrix shape does not match labels")
        self.n = n
        self.col_names = col_names
        self.rows = rows

    @property
    def r(self):
        return len(self.col_names)

    def to_lines(self, base=1):
        return [f"x{i - 1 + base}: " + " ".join(str(v) for v in self.rows[i - 1])
                for i in range(1, self.n + 1)]


def incidence_matrix(family):
    """Incidence of variables (rows, in position order) vs entries (columns, in family order)."""
    effs = [e.effective_support() for e in family.entries]
    rows = [tuple(1 if (i in eff) else 0 for eff in effs)
            for i in range(1, family.n + 1)]
    return BiAdjacency(family.n, tuple(e.name for e in family.entries), rows)


def _column_masks(rows, cols):
    """Each column of `cols`, in that order, as a bitmask over `rows`: the
    k-th row is bit k, so the top row is bit 0."""
    return [sum(row[j] << k for k, row in enumerate(rows)) for j in cols]


def _l_rows(cu, cv):
    """The 1-based rows (h, j) of the first L-configuration of column u
    before column v, given as bitmasks, or None when they form none.

    An L is rows h < j with h in u but not in v and j in both.  h is the
    top row in u only, and j the top row below it in both: a lower u-only
    row has fewer shared rows below it, so when the top one has none, no
    u-only row has one.
    """
    top = cu & ~cv
    top &= -top
    below = cu & cv & -(top << 1)
    if not below:
        return None
    return top.bit_length(), (below & -below).bit_length()


def lfree_witness(matrix):
    """The least L-configuration (h, j, u, v), or None when L-free.

    The configuration is rows h < j and columns u < v with entries
    a[h][u] = 1, a[h][v] = 0, a[j][u] = 1, a[j][v] = 1 (all 1-based indices);
    `_l_rows` gives each column pair's least (h, j).
    """
    masks = _column_masks(matrix.rows, range(matrix.r))
    return min(((*hj, u + 1, v + 1)
                for (u, cu), (v, cv) in itertools.combinations(enumerate(masks), 2)
                if (hj := _l_rows(cu, cv))), default=None)


def find_lfree_column_order(matrix):
    """Lexicographically first column permutation making the matrix L-free, or None.

    Greedy: the next column is the least unplaced one that forms no
    L-configuration with any other unplaced column.  Dropping a column from
    a valid order leaves a valid order, so any column that qualifies starts a
    completion whenever one exists.
    """
    r = matrix.r
    masks = _column_masks(matrix.rows, range(r))
    left = list(range(r))
    order = []
    while left:
        for c in left:
            if not any(_l_rows(masks[c], masks[d]) for d in left if d != c):
                break
        else:
            return None
        left.remove(c)
        order.append(c)
    return tuple(order)


def is_chordal_bipartite(matrix):
    """Whether some row and column permutation makes the matrix L-free.

    Such a permutation exists exactly when the matrix is totally balanced,
    and then a doubly lexical ordering, with its column order reversed, is
    one (Hoffman, Kolen & Sakarovitch 1985; Lubiw 1987).  The ordering comes
    from sorting rows and columns in turn, each descending by its entries in
    the other's current order, until neither sort moves anything; each sort
    that moves something makes the column-major reading strictly larger, so
    this ends.
    """
    a = matrix.rows
    rows, cols = list(range(matrix.n)), list(range(matrix.r))
    while True:
        new_rows = sorted(rows, key=lambda i: [a[i][j] for j in cols], reverse=True)
        new_cols = sorted(cols, key=lambda j: [a[i][j] for i in new_rows],
                          reverse=True)
        if new_rows == rows and new_cols == cols:
            break
        rows, cols = new_rows, new_cols
    masks = _column_masks([a[i] for i in rows], reversed(cols))
    return not any(_l_rows(cu, cv) for cu, cv in itertools.combinations(masks, 2))


_VARS_RE = re.compile(r"vars\s*=\s*(\d+)\s*\Z")
_BASE_RE = re.compile(r"base\s*=\s*([01])\s*\Z")
_IDEAL_RE = re.compile(r"ideal\s+(\S+)\s*:\s*(.*)\Z")
_SUPPORT_RE = re.compile(r"\s*support\s*=\s*(.*?)\s*\Z")
_GEN_RE = re.compile(r"\s*generator\s*=")
_VARNAME_RE = re.compile(r"x(\d+)\Z")


def parse_support(text, n, base, line=None, column_offset=0):
    """Parse 'x3,x4'-style support text (empty: no positions) into a set of
    1-based positions; errors report 1-based columns, as `parse_monomial`."""
    support = set()
    if not text.strip():
        return support
    at = column_offset
    for raw_tok in text.split(","):
        tok = raw_tok.strip()
        column = at + len(raw_tok) - len(raw_tok.lstrip()) + 1
        at += len(raw_tok) + 1
        mv = _VARNAME_RE.match(tok)
        if mv is None:
            raise ParseError(f"malformed support variable {tok!r}", line, column)
        p = int(mv.group(1)) - base + 1
        if not 1 <= p <= n:
            raise ParseError(
                f"support variable {tok} outside x{base}..x{n - 1 + base}",
                line, column)
        support.add(p)
    return support


def parse_family(text):
    """Parse the family file format into an IdealFamily.

    Format: a `vars = N` line, an optional `base = 0|1` line, then one
    `ideal NAME: support = x3,x4 ; generator = x3*x4^2` line per entry.
    `#` starts a comment; blank lines are ignored.
    """
    n = None
    base = 1
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if n is None:
            m = _VARS_RE.match(line.strip())
            if m is None:
                raise ParseError("expected 'vars = N' before anything else", lineno, 1)
            n = int(m.group(1))
            if n < 1:
                raise ParseError("vars must be at least 1", lineno, 1)
            continue
        m = _BASE_RE.match(line.strip())
        if m is not None:
            if entries:
                raise ParseError("base must come before ideal entries", lineno, 1)
            base = int(m.group(1))
            continue
        m = _IDEAL_RE.match(line.strip())
        if m is None:
            raise ParseError("expected 'ideal NAME: support = ... ; generator = ...'",
                             lineno, 1)
        name, rest = m.group(1), m.group(2)
        pieces = rest.split(";")
        if len(pieces) != 2:
            raise ParseError("entry needs exactly one ';' between support and generator",
                             lineno, 1)
        msup = _SUPPORT_RE.match(pieces[0])
        if msup is None:
            raise ParseError("missing 'support =' clause", lineno, 1)
        # 0-based positions in `line` of `rest` and of the ';' that splits it
        at_rest = len(line) - len(line.lstrip()) + m.start(2)
        semi = at_rest + len(pieces[0])
        support = parse_support(msup.group(1), n, base, line=lineno,
                                column_offset=at_rest + msup.start(1))
        mgen = _GEN_RE.match(line[semi + 1:])
        if mgen is None:
            raise ParseError("missing 'generator =' clause", lineno, 1)
        gen_text = line[semi + 1 + mgen.end():]
        gen = parse_monomial(gen_text, n, base, line=lineno,
                             column_offset=semi + 1 + mgen.end())
        entries.append(FamilyEntry(name, support, gen))
    if n is None:
        raise ParseError("empty family file: missing 'vars = N'", 1, 1)
    try:
        return IdealFamily(n, entries, base)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_family(family):
    """Canonical text for a family; `parse_family` round-trips it byte-exactly."""
    lines = [f"vars = {family.n}"]
    if family.base == 0:
        lines.append("base = 0")
    for e in family.entries:
        sup = ",".join(family.var_name(p) for p in e.support)
        seg = f"support = {sup} " if sup else "support = "
        lines.append(f"ideal {e.name}: {seg}; generator = {e.gen.text(family.base)}")
    return "\n".join(lines) + "\n"
