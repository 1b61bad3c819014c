"""Ordered families of support-restricted principal Borel ideals.

Each family entry pairs a linear poset on a support set S (x_i above x_j for
i < j, both in S) with a principal generator M; the entry's ideal is generated
by the closure of M under exchange moves inside S.  The family's incidence
structure records, per entry, the variables that actually appear in that
closure; staircase conditions on this 0/1 matrix (L-freeness, chordal
bipartiteness) govern when the family's toric relations behave well.
"""

from __future__ import annotations

import re

from .borel import borel_closure
from .monomials import Monomial, ParseError, parse_monomial


class LinearPoset:
    """A linearly ordered subset of the variable positions 1..n."""

    __slots__ = ("n", "support")

    def __init__(self, n, support):
        support = frozenset(support)
        if any(not 1 <= p <= n for p in support):
            raise ValueError(f"support {sorted(support)} outside 1..{n}")
        self.n = n
        self.support = support

    def positions(self):
        return tuple(sorted(self.support))

    def __eq__(self, other):
        return (isinstance(other, LinearPoset)
                and self.n == other.n and self.support == other.support)

    def __hash__(self):
        return hash((self.n, self.support))

    def __repr__(self):
        return f"LinearPoset({self.n}, {self.positions()!r})"


class FamilyEntry:
    """One named ideal of a family: a linear poset plus a principal generator."""

    __slots__ = ("name", "poset", "gen", "_closure")

    def __init__(self, name, poset, gen):
        if gen.n != poset.n:
            raise ValueError(f"entry {name}: generator ambient differs from poset")
        self.name = name
        self.poset = poset
        self.gen = gen
        self._closure = None

    def closure(self):
        if self._closure is None:
            self._closure = borel_closure(self.gen, support=self.poset.support)
        return self._closure

    def effective_support(self):
        """Support positions that can actually carry mass of the generator.

        These are the support positions <= j*, where j* is the largest support
        position dividing the generator; empty when no support variable divides
        it.  Equals the intersection of the support with the variables of the
        closure.
        """
        js = max((p for p in self.poset.support if self.gen.exps[p - 1]), default=0)
        return frozenset(p for p in self.poset.support if p <= js)

    def is_reduced(self):
        eff = self.effective_support()
        return eff == self.poset.support and all(
            p in eff for p in self.gen.support())

    def __repr__(self):
        return f"FamilyEntry({self.name!r}, {self.poset!r}, {self.gen!r})"


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
            if e.poset.n != n:
                raise ValueError(f"entry {e.name}: ambient mismatch")
        self.n = n
        self.entries = entries
        self.base = base

    @property
    def r(self):
        return len(self.entries)

    def closures(self):
        return tuple(e.closure() for e in self.entries)

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
    (poset restricted to E, M') and m is reported as the stripped cofactor.
    Returns (reduced family, tuple of stripped monomials).  Idempotent.
    """
    new_entries = []
    stripped = []
    for e in family.entries:
        eff = e.effective_support()
        kept = Monomial(tuple(
            v if (p + 1) in eff else 0 for p, v in enumerate(e.gen.exps)))
        new_entries.append(FamilyEntry(e.name, LinearPoset(family.n, eff), kept))
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

    def permute_columns(self, order):
        order = tuple(order)
        if sorted(order) != list(range(self.r)):
            raise ValueError("not a column permutation")
        return BiAdjacency(self.n,
                           tuple(self.col_names[j] for j in order),
                           tuple(tuple(row[j] for j in order) for row in self.rows))

    def to_lines(self, base=1):
        return [f"x{i - 1 + base}: " + " ".join(str(v) for v in self.rows[i - 1])
                for i in range(1, self.n + 1)]

    def __eq__(self, other):
        return (isinstance(other, BiAdjacency) and self.rows == other.rows
                and self.col_names == other.col_names)

    def __hash__(self):
        return hash((self.col_names, self.rows))


def incidence_matrix(family):
    """Incidence of variables (rows, in position order) vs entries (columns, in family order)."""
    effs = [e.effective_support() for e in family.entries]
    rows = [tuple(1 if (i in eff) else 0 for eff in effs)
            for i in range(1, family.n + 1)]
    return BiAdjacency(family.n, tuple(e.name for e in family.entries), rows)


def lfree_witness(matrix):
    """First L-configuration (h, j, u, v) in scan order, or None when L-free.

    The forbidden configuration is rows h < j and columns u < v with entries
    a[h][u] = 1, a[h][v] = 0, a[j][u] = 1, a[j][v] = 1 (all 1-based indices).
    """
    rows = matrix.rows
    for h in range(matrix.n):
        for j in range(h + 1, matrix.n):
            for u in range(matrix.r):
                if rows[h][u] and rows[j][u]:
                    for v in range(u + 1, matrix.r):
                        if not rows[h][v] and rows[j][v]:
                            return (h + 1, j + 1, u + 1, v + 1)
    return None


def _column_masks(matrix):
    """Each column as a bitmask over rows (row i -> bit i, top row = bit 0)."""
    masks = []
    for j in range(matrix.r):
        mask = 0
        for i in range(matrix.n):
            if matrix.rows[i][j]:
                mask |= 1 << i
        masks.append(mask)
    return masks


def _ordered_pair_ok(cu, cv):
    """Whether columns (u before v) avoid the L-configuration, as bitmasks.

    An L needs a row in u-only above a row shared by both, so the pair is
    fine exactly when the lowest u-only row sits at or below every shared row.
    """
    only_u = cu & ~cv
    both = cu & cv
    if not only_u or not both:
        return True
    return (only_u & -only_u).bit_length() >= both.bit_length()


# Size caps on the two staircase decisions.  Neither needs them any more;
# they stay so that an oversized matrix still exits 2 with the same message,
# and lifting them would change the CLI's exit codes.
ORDER_SEARCH_CAP = 10
CHORDAL_SEARCH_CAP = 8


def find_lfree_column_order(matrix):
    """Lexicographically first column permutation making the matrix L-free, or None.

    Greedy: the next column is the least unplaced one that forms no
    L-configuration with any other unplaced column.  Dropping a column from
    a valid order leaves a valid order, so any column that qualifies starts a
    completion whenever one exists.  Column count is capped at
    `ORDER_SEARCH_CAP`.
    """
    r = matrix.r
    if r > ORDER_SEARCH_CAP:
        raise ValueError(f"column count {r} exceeds search cap {ORDER_SEARCH_CAP}")
    masks = _column_masks(matrix)
    left = list(range(r))
    order = []
    while left:
        for c in left:
            if all(_ordered_pair_ok(masks[c], masks[d]) for d in left if d != c):
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
    this ends.  Rows and columns are capped at `CHORDAL_SEARCH_CAP`.
    """
    if max(matrix.n, matrix.r) > CHORDAL_SEARCH_CAP:
        raise ValueError(f"matrix {matrix.n}x{matrix.r} exceeds search cap "
                         f"{CHORDAL_SEARCH_CAP}")
    a = matrix.rows
    rows, cols = list(range(matrix.n)), list(range(matrix.r))
    while True:
        new_rows = sorted(rows, key=lambda i: [a[i][j] for j in cols], reverse=True)
        new_cols = sorted(cols, key=lambda j: [a[i][j] for i in new_rows],
                          reverse=True)
        if new_rows == rows and new_cols == cols:
            break
        rows, cols = new_rows, new_cols
    ordered = BiAdjacency(matrix.n, matrix.col_names, [a[i] for i in rows])
    return lfree_witness(ordered.permute_columns(reversed(cols))) is None


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
        entries.append(FamilyEntry(name, LinearPoset(n, support), gen))
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
        sup = ",".join(family.var_name(p) for p in e.poset.positions())
        seg = f"support = {sup} " if sup else "support = "
        lines.append(f"ideal {e.name}: {seg}; generator = {e.gen.text(family.base)}")
    return "\n".join(lines) + "\n"
