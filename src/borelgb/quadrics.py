"""Quadratic binomial generating sets for the toric ideals of Borel closures.

For a single closure Borel(M), the exchange quadrics swap one variable
between the two chosen factors: T_m T_n - T_{(x_i/x_j)m} T_{(x_j/x_i)n} with
i < j and all four monomials in the closure.  The sorted-form set instead
pairs each product with its canonical two-factor sorted factorization, its
least pair in the term order (the lemma criterion C3 checks: a sorted
factorization is the least point of its fiber).  For a reduced family,
three shapes appear: symmetric quadrics trading an x variable against a move
inside one block, within-block exchange quadrics, and cross-block exchange
quadrics trading a move between two blocks that share the two positions.
Every lead term produced here is squarefree.

Each call builds one `_Block` per closure, which holds one T-variable per
member, and finds moved partners by looking up their exponent tuples.  The
quadrics are found, deduped and sorted as tuples of ints, each a lead's
code followed by its tail's as a `QuadricSet` holds them: a side T_a T_b
is its ids ascending, and a symmetric side x_p T_a is (a, len(tvars) + p),
p the 0-based position.  No `Binomial` is made: `_quadric_set` checks each
quadric once, in order, on its codes.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .monomials import AmbientMismatch
from .toric import Binomial, _Block, _decode, _encode, _pack


class QuadricSet(Sequence):
    """A read-only sequence of quadrics in n variables, held as atom codes.

    The T-variables `tvars` are numbered largest first, as `FiberSetup.tvars`
    numbers a setup's, and each quadric is its lead's code and its tail's,
    as `_encode` writes them by that numbering.  Every side has two atoms,
    so its code ascends exactly as its term descends: the quadrics ascend
    in the term order, by lead and then by tail, when their (lead, tail)
    codes descend.  An item is a `Binomial`, decoded when read, and a slice
    a tuple of them; each distinct side is decoded once, into one
    `TProduct` that every item with that side shares.  The builders below
    make every set through `_checked`, and `_encoded` makes one of
    `Binomial`s, so every quadric is checked once, when it is made.
    """

    __slots__ = ("n", "tvars", "_leads", "_tails", "_sides", "_table")

    def __init__(self, n, tvars, leads, tails):
        """The set of the parallel lists of codes `leads` and `tails`, each
        quadric already checked."""
        self.n = n
        self.tvars = tvars
        self._leads = leads
        self._tails = tails
        self._sides = {}
        self._table = None

    @staticmethod
    def _atom_ints(n, tvars):
        """(width, ints): each atom id's image and block as one int, the
        image's exponents packed at `width` from field 0 (`_pack`) and, in
        field n + b, one for a T-variable of block b.  Each field is wide
        enough for two atoms, so the sum of a side's ints is its image and
        its block list."""
        deg = max((t.gen.deg for t in tvars), default=0)
        width = max(2 * deg, 2).bit_length()
        ints = {i: _pack(t.gen.exps, width) | 1 << (n + t.block) * width
                for i, t in enumerate(tvars)}
        ints.update((len(tvars) + p, 1 << p * width) for p in range(n))
        return width, ints

    @classmethod
    def _checked(cls, n, tvars, quadrics):
        """The set of the (lead code, tail code) pairs `quadrics`, each
        checked once, in order: its atoms within the numbering and two on
        each side (else `_encoded`'s messages), then the lead above the tail
        and one image and one block list on both sides, summed as
        `_atom_ints` (else `Binomial`'s messages)."""
        atoms = cls._atom_ints(n, tvars)[1]
        leads, tails = [], []
        out = cls(n, tvars, leads, tails)
        text = out._text
        for lead, tail in quadrics:
            try:
                (a, b), (c, d) = lead, tail
                apart = atoms[a] + atoms[b] - atoms[c] - atoms[d]
            except (KeyError, ValueError):
                if not all(atom in atoms for atom in lead + tail):
                    raise ValueError(f"quadric {lead} - {tail} uses a T-variable "
                                     "that is not a generator of its block") from None
                role, side = ("lead", lead) if len(lead) != 2 else ("tail", tail)
                raise ValueError(f"{role} {text(side)} is not of degree 2") from None
            if lead >= tail:
                raise ValueError(f"quadric {text(lead)} - {text(tail)} "
                                 "has its lead below its tail")
            if apart:
                raise ValueError(f"sides have different images: "
                                 f"{out._side(lead).label()} vs {out._side(tail).label()}")
            leads.append(lead)
            tails.append(tail)
        return out

    @classmethod
    def _encoded(cls, binomials, n, tvars):
        """The set of the `Binomial`s `binomials` in n variables, numbered
        by `tvars`, largest first: the one conversion of a sequence that is
        not a set in the caller's numbering.  Each `Binomial` was checked
        when it was made; what depends on the numbering is checked here:
        every lead in n variables and of degree 2, then, quadric by quadric,
        its T-variables among `tvars` and its tail of degree 2, a test no
        fiber route fails, as a block's generators share one degree."""
        binomials = tuple(binomials)
        for q in binomials:
            lead = q.lead
            if lead.xpart.n != n:
                raise AmbientMismatch(f"lead {lead.term_text()} is not in {n} variables")
            if len(lead.tvars) + lead.xpart.deg != 2:
                raise ValueError(f"lead {lead.term_text()} is not of degree 2")
        ids = {t: i for i, t in enumerate(tvars)}
        leads, tails = [], []
        for q in binomials:
            try:
                lead, tail = _encode(q.lead, ids), _encode(q.tail, ids)
            except KeyError:
                raise ValueError(f"quadric {q.text()} uses a T-variable that is not "
                                 "a generator of its block") from None
            if len(tail) != 2:
                raise ValueError(f"tail {q.tail.term_text()} is not of degree 2")
            leads.append(lead)
            tails.append(tail)
        return cls(n, tvars, leads, tails)

    @classmethod
    def _joined(cls, sets):
        """One set of the quadrics of `sets` in turn, all in one numbering."""
        first = sets[0]
        return cls(first.n, first.tvars, [c for s in sets for c in s._leads],
                   [c for s in sets for c in s._tails])

    def _side(self, code):
        """The `TProduct` of a side's code, decoded once."""
        side = self._sides.get(code)
        if side is None:
            side = self._sides[code] = _decode(code, self.tvars, self.n)
        return side

    def _text(self, code):
        return self._side(code).term_text()

    def _lead_table(self):
        """The gate's `table`: each lead's code to the ascending indices of
        the quadrics with that lead, built on the first call."""
        if self._table is None:
            self._table = {}
            for i, lead in enumerate(self._leads):
                self._table.setdefault(lead, []).append(i)
        return self._table

    def _basis(self):
        """The set in basis order: ascending by lead, then by tail,
        duplicates dropped, so its codes descend."""
        pairs = sorted(dict.fromkeys(zip(self._leads, self._tails)), reverse=True)
        return QuadricSet(self.n, self.tvars, [lead for lead, _ in pairs],
                          [tail for _, tail in pairs])

    def texts(self, base=1):
        """Each quadric's text, 'lead - tail', at `base`, in order, with no
        `Binomial` and no `_decode`: each atom is rendered once, a
        T-variable as its term piece and x position p as x{p + base}.
        Every side holds a T-variable, as its two sides share a block list
        and a lead differs from its tail, so a side of two atoms is 'T*T',
        or its x atom and then its T-variable, as `term_text` writes it."""
        nt = len(self.tvars)
        atoms = [t._rendered(base)[1] for t in self.tvars]
        atoms += [f"x{p}" for p in range(base, base + self.n)]
        for (a, b), (c, d) in zip(self._leads, self._tails):
            lead = f"{atoms[a]}*{atoms[b]}" if b < nt else f"{atoms[b]}*{atoms[a]}"
            tail = f"{atoms[c]}*{atoms[d]}" if d < nt else f"{atoms[d]}*{atoms[c]}"
            yield f"{lead} - {tail}"

    def __len__(self):
        return len(self._leads)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return Binomial._of(self._side(self._leads[i]), self._side(self._tails[i]))

    def __iter__(self):
        side = self._side
        for lead, tail in zip(self._leads, self._tails):
            yield Binomial._of(side(lead), side(tail))

    def __eq__(self, other):
        return isinstance(other, QuadricSet) and tuple(self) == tuple(other)

    __hash__ = None

    def __repr__(self):
        return f"QuadricSet({len(self)} quadrics in {self.n} variables)"


def _moved(exps, i, j):
    """`exps` with one unit moved from 0-based position j to position i."""
    out = list(exps)
    out[j] -= 1
    out[i] += 1
    return tuple(out)


def _quadric_set(n, tvars, keys):
    """The `QuadricSet` of `keys` in n variables, ascending.

    A key is a quadric's lead code followed by its tail code, so the keys
    sorted descending list the quadrics ascending.  A key with its tail
    first is refused as `Binomial` refuses a lead below its tail.
    """
    return QuadricSet._checked(n, tvars, (((a, b), (c, d)) for a, b, c, d
                                          in sorted(keys, reverse=True)))


def quadrics_single(M):
    """The exchange quadrics of Borel(M), ascending by lead term."""
    block = _Block.single(M)
    return _quadric_set(M.n, block.tvars,
                        _exchanges(block, 0, block, 0, block.support))


def _exchanges(va, a0, vb, b0, positions):
    """The keys of the quadrics trading one move between a generator of `va`
    and one of `vb`, whose T-variables have ids from a0 and from b0 on.

    For s < t in `positions`, m in `va` with x_s | m and n in `vb` with
    x_t | n: T_m T_n - T_{(x_t/x_s)m} T_{(x_s/x_t)n}, whenever (x_t/x_s)m
    stays in its closure and the two sides differ.  `positions` lie in both
    blocks' supports, so the upward move (x_s/x_t)n never leaves its closure.
    Within one block this one direction is enough: the other starts from the
    moved pair and gives the same key, which the set keeps once.  A side is
    its two ids ascending, and the lead's code is the smaller.
    """
    keys = set()
    for s, t in itertools.combinations(sorted(p - 1 for p in positions), 2):
        moved_a = []
        for i, m in enumerate(va.exps, a0):
            if m[s]:
                j = va.index.get(_moved(m, t, s))
                if j is not None:
                    moved_a.append((i, a0 + j))
        for k, n in enumerate(vb.exps, b0):
            if not n[t]:
                continue
            l = b0 + vb.index[_moved(n, s, t)]
            for i, j in moved_a:
                u = (i, k) if i <= k else (k, i)
                v = (j, l) if j <= l else (l, j)
                if u != v:
                    keys.add(u + v if u < v else v + u)
    return keys


def quadrics_bs_form(M):
    """Quadrics pairing two-factor products with their sorted factorization.

    One binomial T_m T_n - T_{f1} T_{f2} per unordered pair whose sorted
    two-factor factorization (f1, f2) differs from (m, n).  Spans the same
    degree-two relations as `quadrics_single`.  The pairs are grouped by
    product, and no product is sorted: the lemma behind criterion C3
    (`test_c3_sorted_output_is_fiber_minimum`) makes `borel_sort`'s output
    the least point of its fiber, and for k = 2 that fiber is the product's
    group of pairs, so the sorted factorization is the group's least pair.
    """
    block = _Block.single(M)
    # Each product's exponents are at most 2 deg(M), so its `_pack` code at
    # that width is the sum of its factors' codes.  The pairs share the int
    # objects of `ids`, where a range would make each index above 256 anew.
    width = (2 * M.deg).bit_length()
    codes = [_pack(e, width) for e in block.exps]
    ids = list(range(len(codes)))
    by_product = {}
    for i, a in zip(ids, codes):
        for j, b in zip(ids[i:], codes[i:]):
            by_product.setdefault(a + b, []).append((i, j))
    keys = []
    for pairs in by_product.values():
        v = max(pairs)  # the tail, below every other pair of its product
        keys.extend(u + v for u in pairs if u != v)
    return _quadric_set(M.n, block.tvars, keys)


class MultiQuadrics:
    """The three quadric shapes for a reduced family, each a `QuadricSet`
    ascending by lead, all three in one numbering."""

    __slots__ = ("symmetric", "fiber_principal", "fiber_biprincipal")

    def __init__(self, symmetric, fiber_principal, fiber_biprincipal):
        self.symmetric = symmetric
        self.fiber_principal = fiber_principal
        self.fiber_biprincipal = fiber_biprincipal

    def all(self):
        """One `QuadricSet` of the three shapes in turn."""
        return QuadricSet._joined((self.symmetric, self.fiber_principal,
                                   self.fiber_biprincipal))


def quadrics_multi(family):
    """All three quadric shapes for a reduced family."""
    if not family.is_reduced():
        raise ValueError("quadrics need a reduced family (apply reduce first)")
    n = family.n
    blocks = _Block.family(family)
    # The ids number the T-variables largest first, as `FiberSetup.tvars`
    # does; each block is located by the id of its first.
    tvars = tuple(t for b in blocks for t in b.tvars)
    located = list(zip(blocks, itertools.accumulate(
        (len(b.tvars) for b in blocks), initial=0)))

    # x_s T_m - x_t T_{(x_s/x_t)m}: a side is its T-variable's id and its x
    # position's atom id.
    nt = len(tvars)
    symmetric = []
    for vs, o in located:
        for gi, m in enumerate(vs.exps, o):
            for t in vs.support:
                if not m[t - 1]:
                    continue
                for s in vs.support:
                    if s >= t:
                        break
                    u = (gi, nt + s - 1)
                    v = (o + vs.index[_moved(m, s - 1, t - 1)], nt + t - 1)
                    symmetric.append(u + v if u < v else v + u)

    fiber_principal, fiber_biprincipal = set(), set()
    for vs, o in located:
        fiber_principal |= _exchanges(vs, o, vs, o, vs.support)
    for (va, oa), (vb, ob) in itertools.combinations(located, 2):
        fiber_biprincipal |= _exchanges(va, oa, vb, ob,
                                        set(va.support) & set(vb.support))

    return MultiQuadrics(_quadric_set(n, tvars, symmetric),
                         _quadric_set(n, tvars, fiber_principal),
                         _quadric_set(n, tvars, fiber_biprincipal))
