"""Toric fibers of Borel closures and their quadratic rewriting graphs.

The objects here are T-products: formal products of variables T_{g, block}
(one per chosen generator g of a block) times an x-monomial cofactor.  A
T-product maps to its image x^a * g_1 * ... * g_k; the fiber over an image is
the set of T-products hitting it with prescribed T-degrees per block.  A set
of quadratic binomials is certified as a Gröbner basis degree-by-degree: on
every fiber, rewriting by the quadrics (lead to tail) must have a unique sink.
An independent S-pair reduction check is provided as a second route.

Two setups share the machinery: a single Borel closure (fiber points are
exact factorizations, no x cofactor) and a reduced family of
support-restricted closures (fiber points carry an x cofactor).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import sys

from .borel import (_columns, _least_divisor, _suffix_caps, borel_closure,
                    min_borel_divisor)
from .monomials import AmbientMismatch, Monomial, _factor_text
from .sorting import borel_sort


class ResourceLimitError(RuntimeError):
    """A run exceeded its configured resource budget."""


class SpairLimitError(ResourceLimitError):
    """The S-pair route used up its rewrite steps while reducing `pair`."""

    def __init__(self, max_steps, pair):
        self.max_steps = max_steps
        self.pair = pair
        super().__init__(self.text())

    def text(self, base=1):
        a, b = self.pair
        return (f"S-pair route exceeded {self.max_steps} rewrite steps at spair "
                f"[{a.text(base)}] [{b.text(base)}]")


# The default caps of the fiber walks (points found, candidate generators
# tried) and of an S-pair run (rewrite steps).
MAX_VERTICES = 100_000
MAX_CHECKS = 10_000_000
MAX_STEPS = 100_000


class _Budget:
    """The meter of a fiber walk: counts of the points found and the
    candidates tried, each raising as soon as it passes its cap; `scope`
    names what they count in a trip's message."""

    __slots__ = ("max_vertices", "max_checks", "scope", "vertices", "checks")

    def __init__(self, max_vertices=MAX_VERTICES, max_checks=MAX_CHECKS,
                 scope="fiber"):
        self.max_vertices = max_vertices
        self.max_checks = max_checks
        self.scope = scope
        self.vertices = 0
        self.checks = 0

    def count_vertex(self, n=1):
        self.vertices += n
        if self.vertices > self.max_vertices:
            raise ResourceLimitError(
                f"{self.scope} exceeded {self.max_vertices} vertices")

    def count_check(self, n=1):
        self.checks += n
        if self.checks > self.max_checks:
            raise ResourceLimitError(
                f"{self.scope} exceeded {self.max_checks} divisibility checks")


class GeneratorVar(tuple):
    """One T variable: a chosen generator of one block.

    A T-variable compares and hashes as its key tuple (-block, deg, -e_n, ...,
    -e_1), one per (block, exponents): earlier blocks are larger, then the
    grevlex-larger generators.  Block 0 is the single-closure setup, whose
    variables print as their generator alone; a family's blocks are 1..r and
    print with their block, 't2:x3'.  Its text is rendered once per base.
    """

    def __new__(cls, block, gen):
        if block < 0:
            raise ValueError("block id must be nonnegative")
        self = super().__new__(cls, (-block, gen.deg, *(-e for e in reversed(gen.exps))))
        self.block = block
        self.gen = gen
        self._texts = {}
        return self

    def __getnewargs__(self):
        return (self.block, self.gen)

    def _rendered(self, base):
        """(text, term piece 'T[text]') at `base`."""
        texts = self._texts.get(base)
        if texts is None:
            body = self.gen.text(base)
            text = f"t{self.block}:{body}" if self.block else body
            texts = self._texts[base] = (text, f"T[{text}]")
        return texts

    def text(self, base=1):
        return self._rendered(base)[0]

    def __repr__(self):
        return f"GeneratorVar({self.block}, {self.gen!r})"


class TProduct:
    """An x-monomial cofactor times a multiset of T variables (kept sorted).

    `key` is the term order: lexicographic, eliminating the T variables.  Any
    T variable beats every x variable; T variables compare as their keys
    (earlier blocks larger, then the grevlex order on their generators); x
    parts tie-break by pure lexicographic order with x1 largest.  The key
    lists the T variables largest first, then the x exponents, so ascending
    key is ascending term order.
    """

    __slots__ = ("xpart", "tvars", "key")

    def __init__(self, xpart, tvars):
        tvars = tuple(sorted(tvars, reverse=True))
        for t in tvars:
            if t.gen.n != xpart.n:
                raise AmbientMismatch("ambient mismatch inside T-product")
        self.xpart = xpart
        self.tvars = tvars
        self.key = (tvars, xpart.exps)

    @classmethod
    def _sorted(cls, xpart, tvars):
        """A T-product from T-variables already in descending order and
        already checked against the ambient ring of `xpart`."""
        out = cls.__new__(cls)
        out.xpart = xpart
        out.tvars = tvars
        out.key = (tvars, xpart.exps)
        return out

    def image_exps(self):
        """The exponent tuple of the image, summed without building monomials."""
        exps = self.xpart.exps
        for t in self.tvars:
            exps = tuple(map(operator.add, exps, t.gen.exps))
        return exps

    def label(self, base=1):
        """Display text: 'x1^2*x2 | t1:x4, t2:x3*x4' (the x part always shown)."""
        head = self.xpart.text(base)
        if not self.tvars:
            return head
        return head + " | " + ", ".join(t.text(base) for t in self.tvars)

    def term_text(self, base=1):
        """Term text: 'x3*T[t1:x4]' (unit x part omitted; '1' when trivial)."""
        parts = [t._rendered(base)[1] for t in self.tvars]
        if self.xpart.deg:
            parts.insert(0, self.xpart.text(base))
        return "*".join(parts) or "1"

    def __eq__(self, other):
        return isinstance(other, TProduct) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"TProduct({self.label()!r})"


class Binomial:
    """A toric binomial lead - tail, checked once, when it is made: the tail
    in the lead's ring (else `AmbientMismatch`), the lead above the tail, and
    one image and one block list on both sides (else ValueError)."""

    __slots__ = ("lead", "tail")

    def __init__(self, lead, tail):
        n = lead.xpart.n
        if tail.xpart.n != n:
            raise AmbientMismatch(f"quadric {lead.term_text()} - {tail.term_text()} has "
                                  f"its tail in {tail.xpart.n} variables, its lead in {n}")
        if lead.key <= tail.key:
            raise ValueError(f"quadric {lead.term_text()} - {tail.term_text()} "
                             "has its lead below its tail")
        # Both sides keep their T-variables in descending order, whose keys
        # start with the negated block, so their block lists compare as
        # multisets.
        if (lead.image_exps() != tail.image_exps()
                or [t.block for t in lead.tvars] != [t.block for t in tail.tvars]):
            raise ValueError(
                f"sides have different images: {lead.label()} vs {tail.label()}")
        self.lead = lead
        self.tail = tail

    @classmethod
    def _of(cls, lead, tail):
        """A binomial from sides already checked, as `QuadricSet` checks
        its codes."""
        out = cls.__new__(cls)
        out.lead = lead
        out.tail = tail
        return out

    @classmethod
    def make(cls, u, v):
        """Orient u - v by the term order; a zero binomial is refused."""
        if u == v:
            raise ValueError("zero binomial")
        return cls(u, v) if u.key > v.key else cls(v, u)

    def text(self, base=1):
        return f"{self.lead.term_text(base)} - {self.tail.term_text(base)}"

    def __eq__(self, other):
        return (isinstance(other, Binomial)
                and self.lead == other.lead and self.tail == other.tail)

    def __hash__(self):
        return hash((self.lead, self.tail))

    def __repr__(self):
        return f"Binomial({self.text()!r})"


def sort_binomials(binomials):
    """Ascending by lead, then tail, under the term order; duplicates dropped.
    Dropping them keeps the input order, so input already ascending sorts in
    linear time; distinct binomials never tie, so the order of the input
    does not change the result."""
    return tuple(sorted(dict.fromkeys(binomials),
                        key=lambda b: (b.lead.key, b.tail.key)))


class _Block:
    """One block: a generator list closed under its moves, and its T-variables.

    Generators are numbered by their index in `tvars`, largest first;
    `index` maps an exponent tuple to its number.  `support` is the sorted
    tuple of 1-based positions the moves use, and `slots` and `caps` are the
    pivot's `_suffix_caps` over it: the 0-based positions listed last first
    and the pivot's suffix sums over them.  Block 0, a single closure, is
    `exact`: its fiber points factor the image with nothing left over.  The
    bitsets a fiber search reads are built by `tables` on its first call, so
    a block that no fiber search uses never builds them.
    """

    __slots__ = ("pivot", "support", "exact", "tvars", "exps", "index",
                 "slots", "caps", "_tables")

    def __init__(self, block, pivot, support, gens_asc):
        self.pivot = pivot
        self.support = support
        self.exact = block == 0
        self.tvars = tuple(GeneratorVar(block, g) for g in reversed(gens_asc))
        self.exps = tuple(t.gen.exps for t in self.tvars)
        self.index = {e: i for i, e in enumerate(self.exps)}
        self.slots, self.caps = _suffix_caps(pivot.exps, support)
        self._tables = None

    @classmethod
    def single(cls, M):
        """Block 0: the closure of M, every position movable."""
        return cls(0, M, tuple(range(1, M.n + 1)), borel_closure(M))

    @classmethod
    def family(cls, family):
        """Blocks 1..r: the closures of a family's entries, in order."""
        return tuple(cls(i, e.gen, e.support, e.closure())
                     for i, e in enumerate(family.entries, start=1))

    def tables(self):
        """(masks, reach), built on the first call.  `masks[i][e]` is the
        bitset of the generators whose exponent at 0-based position i is at
        most e, for e below the largest such exponent.  `reach` holds, for
        each slot u but the last, from the one before the last down to the
        first, (slots[u + 1], caps[u], bits) where bits[t] is the bitset of
        the generators whose suffix sum over slots[0..u] is at least t, for
        t in 0..caps[u]."""
        if self._tables is None:
            exps, slots = self.exps, self.slots
            masks = tuple(
                tuple(sum(1 << gi for gi, x in enumerate(column) if x <= e)
                      for e in range(max(column)))
                for column in zip(*exps))
            reach, sums = [], [0] * len(exps)
            for u, c in enumerate(self.caps[:-1]):
                sums = [s + g[slots[u]] for s, g in zip(sums, exps)]
                reach.append((slots[u + 1], c, tuple(
                    sum(1 << gi for gi, s in enumerate(sums) if s >= t)
                    for t in range(c + 1))))
            self._tables = masks, tuple(reversed(reach))
        return self._tables

    def candidates(self, rem, q):
        """(divisors, fitting): the bitsets of the generators that divide the
        exponent tuple q, and of those g among them with
        `fits(rem - 1, q - g)`, for a q that fits rem.  The greedy of `fits`
        is a min-plus chain, so q - g fits exactly when at every slot u but
        the last g's suffix sum reaches rem * caps[-1] - (rem - 1) * caps[u]
        less q's mass on the slots after u.  As q fits rem, that is at most
        caps[u], and at the last slot every generator's sum is caps[-1]."""
        masks, reach = self.tables()
        divisors = (1 << len(self.exps)) - 1
        for e, m in zip(q, masks):
            if e < len(m):
                divisors &= m[e]
        fitting, lower = divisors, rem - 1
        rest = rem * self.caps[-1] if reach else 0
        for i, c, bits in reach:
            rest -= q[i]
            t = rest - lower * c
            if t > 0:
                fitting &= bits[t]
        return divisors, fitting

    def fits(self, rem, q):
        """Whether rem more generators can still divide the exponent tuple q:
        `_least_divisor`, the greedy of `min_borel_divisor`, finds one.
        An exact block also needs deg q = rem * deg(pivot), which makes that
        divisor q itself exactly when q is in Borel(pivot^rem)."""
        if not rem:
            return True
        if self.exact and sum(q) != rem * self.caps[-1]:
            return False
        return _least_divisor(self.slots, self.caps, rem, q) is not None


class FiberSetup:
    """The generator data underlying fiber enumeration.

    One exact block (id 0) is a single closure: fiber points factor the
    image into closure members exactly.  Blocks 1..r from a reduced family
    give divisors with an x-monomial making up the rest.  `tvars` numbers
    the T-variables of all blocks in block order.
    """

    __slots__ = ("n", "blocks", "tvars")

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = blocks
        self.tvars = tuple(t for b in blocks for t in b.tvars)

    @classmethod
    def single(cls, M, base=1):
        # `base` is unread; callers pass their display base along.
        return cls(M.n, (_Block.single(M),))

    @classmethod
    def for_family(cls, family):
        if not family.is_reduced():
            raise ValueError("setup needs a reduced family (apply reduce first)")
        if not family.entries:
            raise ValueError("setup needs a family with at least one ideal")
        return cls(family.n, _Block.family(family))

    def beta_tuple(self, beta):
        if self.blocks[0].exact:
            if not isinstance(beta, int):
                raise ValueError("single setup takes an integer T-degree")
            if beta < 1:
                raise ValueError(f"need at least one factor, got {beta}")
            return (beta,)
        beta = tuple(beta)
        if len(beta) != len(self.blocks):
            raise ValueError(f"need {len(self.blocks)} block degrees, got {len(beta)}")
        if any(c < 0 for c in beta):
            raise ValueError(f"negative block degree in {beta}")
        return beta


def _too_deep(degree):
    return ResourceLimitError(
        f"fiber of T-degree {degree} is too deep to enumerate "
        f"(recursion limit {sys.getrecursionlimit()})")


def enumerate_fiber(setup, mu, beta, *, max_vertices=MAX_VERTICES,
                    max_checks=MAX_CHECKS):
    """All fiber points over the image, ascending in the term order.

    Single setup: beta is an integer k; points are the factorizations of mu
    into k closure members.  Multi setup: beta gives each block's T-degree;
    points are choices of beta_i block-i generators whose product divides mu,
    with the leftover of mu as x part.

    The search picks one generator per step, each at or after the one picked
    before it.  A pick step is (block, first generator, picks left,
    quotient); each (block, picks left, quotient) is searched once, as one
    node of a DAG (`_Pick`), and the steps that share it read a suffix of its
    picks.  A node holds the picks from the least first generator `lo` it
    was reached with on: entry j picks generator `gis[j]`, `gis` ascending,
    with `kids[j]` below it, a node or, past the last block, the leftover as
    a Monomial, and `counts[j]` is the number of points of the entries from
    j on, `counts[-1]` being 0.  A step reached with a first generator below
    `lo` searches only the picks between.  Below a pick with picks left in
    its block the child is read from the generator picked; the first pick
    of the next block reads it from 0.  Every distinct step charges one
    check per generator it tries, those from its first one on that divide
    the quotient, the first time it is reached.  The search goes on only
    with the generators whose quotient still fits the picks left, read off
    the block's suffix-sum bitsets (`_Block.candidates`); a block's first
    quotient must pass `_Block.fits`.  Every point counts one vertex when it
    is found, also below a step reached again.  `max_vertices` caps the
    points found and `max_checks` the candidate generators tried.
    """
    budget = _Budget(max_vertices, max_checks)
    return _enumerate(setup, mu, setup.beta_tuple(beta), budget)


class _Pick:
    """A node of the points DAG `_enumerate` builds, as `enumerate_fiber`
    describes it: `gis` indexes the block's T-variables `tvars`, and `same`
    tells whether its picks leave picks in their block."""

    __slots__ = ("tvars", "same", "gis", "kids", "counts")

    def __init__(self, tvars, same):
        self.tvars = tvars
        self.same = same
        self.gis, self.kids, self.counts = [], [], [0]


def _enumerate(setup, mu, beta, budget):
    if mu.n != setup.n:
        raise ValueError("ambient mismatch between image and setup")
    blocks = setup.blocks
    exact = blocks[0].exact
    if sum(k * b.pivot.deg for b, k in zip(blocks, beta)) > mu.deg:
        return ()  # no room for the factors
    # `state` maps each (bi, rem, q) reached to its search: [lo, divisors,
    # fitting, starts, node], `starts` the first generators seen, lo the
    # least of them.  The nodes do not point back to `state`, so clearing it
    # leaves the DAG alone.  Equal leftovers share one Monomial in `leaves`.
    state, leaves = {}, {}

    def rec_block(bi, q):
        """(child, points) of the picks of blocks bi on, from quotient q."""
        if bi == len(blocks):
            if exact and any(q):
                raise AssertionError("exact enumeration left a remainder")
            budget.count_vertex()
            leaf = leaves.get(q)
            if leaf is None:
                leaf = leaves[q] = Monomial(q)
            return leaf, 1
        if not blocks[bi].fits(beta[bi], q):
            return None, 0
        return rec_pick(bi, beta[bi], q, 0)

    def rec_pick(bi, rem, q, start):
        """(node, points from generator start on) of the step."""
        if rem == 0:
            return rec_block(bi + 1, q)
        key = (bi, rem, q)
        search = state.get(key)
        if search is None:
            block = blocks[bi]
            divisors, fitting = block.candidates(rem, q)
            search = state[key] = [len(block.exps), divisors, fitting, set(),
                                   _Pick(block.tvars, rem > 1)]
        lo, divisors, fitting, starts, node = search
        if start not in starts:
            # One check per generator tried: those that divide q.
            starts.add(start)
            budget.count_check((divisors >> start << start).bit_count())
        if start >= lo:
            # Every pick is known: only the points are counted.
            found = node.counts[bisect.bisect_left(node.gis, start)]
            if found:
                budget.count_vertex(found)
            return node, found
        exps = blocks[bi].exps
        gis, kids, counts = [], [], []
        cands = fitting >> start << start & ~(-1 << lo)
        while cands:
            low = cands & -cands
            cands ^= low
            gi = low.bit_length() - 1
            kid, found = rec_pick(bi, rem - 1,
                                  tuple(map(operator.sub, q, exps[gi])), gi)
            if found:
                gis.append(gi)
                kids.append(kid)
                counts.append(found)
        search[0] = start
        # The picks from lo on follow, and their points are counted at once.
        below = node.counts[0]
        if below:
            budget.count_vertex(below)
        # Each new entry counts its own points and those of the entries
        # after it, `below` among them.
        suffix = list(itertools.accumulate(reversed(counts), initial=below))
        node.gis = gis + node.gis
        node.kids = kids + node.kids
        node.counts = suffix[:0:-1] + node.counts
        return node, node.counts[0]

    def walk(child, start, chosen):
        if child.__class__ is _Pick:
            tvars, gis, kids = child.tvars, child.gis, child.kids
            for j in range(bisect.bisect_left(gis, start), len(gis)):
                gi = gis[j]
                chosen.append(tvars[gi])
                walk(kids[j], gi if child.same else 0, chosen)
                chosen.pop()
        else:
            out.append(TProduct._sorted(child, tuple(chosen)))

    # Both the search and the walk recurse once per pick.
    try:
        root, found = rec_block(0, mu.exps)
        state.clear()  # for peak memory: building the points needs only the DAG
        out = []
        if found:
            walk(root, 0, [])
    except RecursionError:
        raise _too_deep(sum(beta)) from None
    del root  # for peak memory: the points need no DAG
    # The walk emits the points in descending key order: picks run in
    # ascending `tvars` index, which is descending T-variable order, blocks
    # are walked in order, and a point's leftover is fixed by its T-variables.
    return tuple(reversed(out))


class FiberGraph:
    """The rewriting graph of one fiber: vertices ascending, edges lead-to-tail."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self.vertices = vertices
        self.edges = edges  # (from_index, to_index, quadric_index)

    def sinks(self):
        """The vertices with no outgoing edge, listed ascending."""
        sources = {u for u, _, _ in self.edges}
        return tuple(v for i, v in enumerate(self.vertices) if i not in sources)


def _encode(term, ids):
    """The term's atom ids ascending: `ids[t]` for each T-variable, the ids
    numbering them largest first, then len(ids) + i once per unit of x_i."""
    code = [ids[t] for t in term.tvars]
    if term.xpart.deg:
        for atom, e in enumerate(term.xpart.exps, len(ids)):
            code += [atom] * e
    return tuple(code)


def _decode(code, tvars, n):
    """The T-product in n variables of an `_encode` code, `tvars` listing
    the T-variables by id."""
    held, exps = [], [0] * n
    for atom in code:
        if atom < len(tvars):
            held.append(tvars[atom])
        else:
            exps[atom - len(tvars)] += 1
    return TProduct._sorted(Monomial(exps), tuple(held))


def _apply(code, lead, tail):
    """The code of term / lead * tail, for the code of a term that the lead
    divides; raises ValueError when it does not."""
    rest = list(code)
    for atom in lead:
        rest.remove(atom)
    rest += tail
    rest.sort()
    return tuple(rest)


def _check_quadrics(quadrics, n, tvars):
    """(ids, table, tails) for quadrics used in n variables with the
    T-variables `tvars`, descending: a setup's, or on the S-pair route the
    set's own.  A `QuadricSet` in that numbering passes through, its
    quadrics checked when it was made.  Any other sequence is of
    `Binomial`s, each toric with its lead on top, checked when it was made;
    the gate checks every lead in n variables and of degree 2, then each
    quadric's T-variables among `tvars` and its tail of degree 2, a test no
    fiber route fails, as a block's generators share one degree.  `ids`
    numbers the T-variables for `_encode`, in that order; `table` maps each
    lead's code to the ascending indices of the quadrics with that lead,
    and `tails` lists the tails' codes.  A lead of degree 2 divides a term
    exactly when its code is a pair of the term's code."""
    from .quadrics import QuadricSet  # the builders' module imports this one
    if (isinstance(quadrics, QuadricSet) and quadrics.n == n
            and quadrics.tvars == tvars):
        return ({t: i for i, t in enumerate(tvars)}, quadrics._lead_table(),
                quadrics._tails)
    for q in quadrics:
        lead = q.lead
        if lead.xpart.n != n:
            raise AmbientMismatch(f"lead {lead.term_text()} is not in {n} variables")
        if len(lead.tvars) + lead.xpart.deg != 2:
            raise ValueError(f"lead {lead.term_text()} is not of degree 2")
    ids = {t: i for i, t in enumerate(tvars)}
    table, tails = {}, []
    for i, q in enumerate(quadrics):
        try:
            lead, tail = _encode(q.lead, ids), _encode(q.tail, ids)
        except KeyError:
            raise ValueError(f"quadric {q.text()} uses a T-variable that is not "
                             "a generator of its block") from None
        if len(tail) != 2:
            raise ValueError(f"tail {q.tail.term_text()} is not of degree 2")
        table.setdefault(lead, []).append(i)
        tails.append(tail)
    return ids, table, tails


def fiber_graph(setup, mu, beta, quadrics, *, max_vertices=MAX_VERTICES,
                max_checks=MAX_CHECKS, vertices=None):
    """Build the fiber and connect u -> u / lead * tail for every applicable
    quadric.  Every quadric is toric with its lead on top, and only the
    setup's pass `_check_quadrics`, so every edge stays in the fiber and goes
    down the order.  Each vertex is encoded once, by the gate's ids, and
    rewritten on its code by the gate's lead and tail codes.  `max_vertices`
    caps the points `enumerate_fiber` finds, and `max_checks` its candidate
    generators plus the lead-table keys each point looks up: each pair of
    its d atoms, an x-position counted at most twice, d(d - 1)/2 in all.
    Given `vertices`, the fiber is not enumerated again."""
    budget = _Budget(max_vertices, max_checks)
    beta = setup.beta_tuple(beta)
    ids, table, tails = _check_quadrics(quadrics, setup.n, setup.tvars)
    if vertices is None:
        vertices = _enumerate(setup, mu, beta, budget)
    nt = len(ids)
    codes = [_encode(v, ids) for v in vertices]
    index = {c: i for i, c in enumerate(codes)}
    edges = []
    for ui, code in enumerate(codes):
        # Its atoms with each x-position kept at most twice: the code
        # ascends, so a third equal atom repeats the one two back.
        atoms = [a for j, a in enumerate(code)
                 if a < nt or j < 2 or code[j - 2] != a]
        d = len(atoms)
        budget.count_check(d * (d - 1) // 2)  # one check per key looked up
        for qi, lead in sorted({(qi, k) for k in itertools.combinations(atoms, 2)
                                if k in table for qi in table[k]}):
            vi = index.get(_apply(code, lead, tails[qi]))
            if vi is None:
                raise AssertionError(f"rewrite left the fiber: {vertices[ui].label()} "
                                     f"by {quadrics[qi].text()}")
            if vi >= ui:
                raise AssertionError("rewrite did not decrease the term order")
            edges.append((ui, vi, qi))
    return FiberGraph(vertices, tuple(edges))


def _width(setup, bound):
    """The field width of the sweep's packed exponent codes at `bound`.

    Every exponent of an image, a product or a standard point up to the
    bound is at most bound times the largest pivot degree, as a product of
    at most `bound` generators; its bit length plus one guard bit is the
    width, so every field keeps its top bit, the guard bit, clear.  So a
    sum of codes carries into no other field.  With `guard` the guard bits
    (`_guard`), a field of (a | guard) - b is 2^(width - 1) + a_i - b_i,
    between 1 and 2^width - 1: no field borrows from the next, and its
    guard bit is set exactly when a_i >= b_i.  So b divides a exactly when
    every guard bit survives, ((a | guard) - b) & guard == guard (the
    borrow test).  With t those guard bits, m = t | (t - (t >> (width - 1)))
    fills each such field, and (a & m) | (b & ~m) takes a's field where
    a_i >= b_i and b's elsewhere: the max of a and b, their lcm, is exact.
    """
    return (bound * max(b.pivot.deg for b in setup.blocks)).bit_length() + 1


def _pack(exps, width):
    """The exponent tuple as one int: exps[i] in the `width` bits from bit
    i * width on."""
    code = 0
    for e in reversed(exps):
        code = code << width | e
    return code


def _unpack(code, n, width):
    """The exponent tuple of a `_pack` code in n variables."""
    field = (1 << width) - 1
    return tuple(code >> i * width & field for i in range(n))


def _field_mask(forbid, n, width):
    """The mask of the fields of the 0-based positions in the bitset
    `forbid`: a code ANDed with it reads the code at those positions."""
    field = (1 << width) - 1
    return _pack([field if forbid >> i & 1 else 0 for i in range(n)], width)


def _guard(n, width):
    """The guard bits of n fields: the top bit of each."""
    return _pack((1 << width - 1,) * n, width)


def _lcms(codes, guard, width):
    """The set of the pairwise least common multiples of the codes, each
    code with itself among them, by the guard-bit max of `_width`."""
    shift = width - 1
    codes = list(codes)
    out = set(codes)
    for i, a in enumerate(codes):
        room = a | guard
        out.update([a & m | b & ~m for b in codes[i + 1:]
                    for t in [(room - b) & guard] for m in [t | (t - (t >> shift))]])
    return out


def _points(mu, slots, guard):
    """The standard points (p, P) over the image code mu among the
    `_standard_points` slots of its block degrees, one mask and one lookup
    each; p must pass the borrow test of `_width`, which a full F's p, read
    at F as itself, passes by equalling mu."""
    points = []
    room = mu | guard
    for mask, table in slots:
        found = table.get(mu & mask)
        if found:
            for it in found:
                if (room - it[0]) & guard == guard:
                    points.append(it)
    return points


def _closure_codes(exps, support, width):
    """The members of `closure_exps(exps, support)`, in its order, packed
    at `width`, as one descending range per `_columns` column.  A column's
    members put e at its second movable position a and the rest of its mass
    at the first, b, for e from its top down to 0; so they step down by
    2^(a * width) - 2^(b * width), positive as a > b."""
    slots, caps = _suffix_caps(exps, support)
    if len(slots) < 2:
        yield (_pack(exps, width),)
        return
    b, a = slots[-1], slots[-2]
    step = (1 << a * width) - (1 << b * width)
    walk = list(exps)
    for _, _, top in _columns(slots, caps, walk):
        # Its least member, e = 0: the column's whole mass, exps[b] + top, at b.
        walk[a], walk[b] = 0, exps[b] + top
        least = _pack(walk, width)
        yield range(least + top * step, least - 1, -step)


def _image_groups(setup, bound):
    """The images to examine up to the total T-degree bound, one group of
    packed exponent codes (`_pack` at `_width(setup, bound)`) per
    block-degree vector beta, in (|beta|, beta) order.

    A block's products of k generators are Borel_L(M^k): the closure of its
    pivot's k-th power over its support, read as codes off its columns
    (`_closure_codes`).  Single setup: group (k,), for k <= `bound`, is that
    closure in ascending grevlex.  Multi setup: for every beta with
    1 <= |beta| <= bound, the products are the sums of one member of row
    beta_i per block, and the group is the set of their pairwise least
    common multiples (`_lcms`), both exact on codes (`_width`); a binomial
    of T-degree beta with coprime x parts has exactly such an lcm as its
    image, so unique sinks on these fibers decide all binomials up to the
    bound.  A family's group is a set, in no particular order.  Each group
    is made only when the one before it has been read.
    """
    width = _width(setup, bound)
    block = setup.blocks[0]
    if block.exact:
        for k in range(1, bound + 1):
            yield (k,), itertools.chain.from_iterable(
                _closure_codes(block.pivot.pow(k).exps, block.support, width))
        return
    guard = _guard(setup.n, width)
    rows = [[tuple(itertools.chain.from_iterable(
                _closure_codes(b.pivot.pow(k).exps, b.support, width)))
             for k in range(bound + 1)] for b in setup.blocks]
    betas = itertools.product(range(bound + 1), repeat=len(rows))
    # A stable sort: within one |beta|, the product's lexicographic order.
    for beta in sorted((beta for beta in betas if 1 <= sum(beta) <= bound), key=sum):
        prods = {0}
        for row, k in zip(rows, beta):
            if k:
                prods = {p + m for p in prods for m in row[k]}
        yield beta, _lcms(prods, guard, width)


def iterate_images(setup, bound):
    """The images of `_image_groups` as one tuple of (Monomial, T-degree)
    pairs, deterministically: group by group, each family group sorted
    ascending in grevlex.  A single closure's T-degree is the integer k, a
    family's its block-degree vector.  The tuple holds every image at once,
    so `verify_groebner_by_fibers` reads the groups themselves."""
    single = setup.blocks[0].exact
    n, width = setup.n, _width(setup, bound)
    images = []
    for beta, group in _image_groups(setup, bound):
        mons = [Monomial._of(e, sum(e)) for e in (_unpack(c, n, width) for c in group)]
        if not single:
            mons.sort(key=Monomial.grevlex_key)
        shown = beta[0] if single else beta
        images.extend((m, shown) for m in mons)
    return tuple(images)


class VerifyReport:
    """Outcome of a verification run, renderable as stable text lines."""

    __slots__ = ("passed", "failures", "certificate", "images_checked")

    def __init__(self, passed, failures, certificate, images_checked):
        self.passed = passed
        self.failures = failures
        self.certificate = certificate
        self.images_checked = images_checked

    def lines(self, base=1):
        out = []
        if self.passed:
            out.append("PASS")
        else:
            for mu, beta, sinks in self.failures:
                out.append(f"FAIL {_image_text(mu, beta, base)} sinks={len(sinks)}")
                for s in sinks:
                    out.append(f"  sink {s.label(base)}")
        out.append(f"certificate: {self.certificate}")
        return out


def _image_text(mu, beta, base=1):
    if beta is None:
        return mu.text(base)
    return f"{mu.text(base)} {_beta_text(beta)}"


def _beta_text(beta):
    return "*".join(_factor_text("t", i, c) for i, c in enumerate(beta, 1) if c) or "1"


def _forbidden(setup, table):
    """Two bitsets for each T-variable of the setup, numbered as in
    `setup.tvars`, from the code table `_check_quadrics` builds for those
    T-variables: the T-variables it forms a lead with (itself too when its
    square is a lead), and the 0-based x-positions it forms a lead with.
    Toric quadrics have only T*T and x*T leads, so each lead's code is
    (i, other): the id i of a T-variable, which is its number, and another
    one's id or, from len(setup.tvars) on, an x-position's.  A point is
    standard exactly when no two of its T-variables are partners and its x
    part avoids every position its T-variables forbid.  The T-variables of
    an exact block forbid every position, as its points have no x part."""
    nt = len(setup.tvars)
    partners = [0] * nt
    positions = [(1 << setup.n) - 1 if block.exact else 0
                 for block in setup.blocks for _ in block.tvars]
    for i, other in table:
        if other < nt:
            partners[i] |= 1 << other
            partners[other] |= 1 << i
        else:
            positions[i] |= 1 << other - nt
    return partners, positions


def _standard_points(setup, partners, positions, bound, budget):
    """Every lead-free multiset P of at most `bound` T-variables, found by
    one walk: P is the standard point over its own product p, with no x
    part.  P is filed under its block degrees beta and the bitset F of
    x-positions its T-variables forbid, and there under p read at F.  The
    walk carries both in one int, F in its low n bits and above them beta's
    digits in base bound + 1.  p is a packed code (`_pack` at
    `_width(setup, bound)`), the sum of its T-variables' codes.  Read at F,
    p is p ANDed with F's field mask; a full F's mask reads the whole code.
    The result maps beta to a list of slots (F's field mask,
    {p at F: [(p, P)]}), P held as a chain (last T-variable, rest) for
    `_unchain`.  The walk keeps its own stack, so no recursion limit bounds
    |P|, and runs in pre-order: a popped P is filed, charged a check and a
    vertex per T-variable that may extend it, and its extensions are pushed
    largest first."""
    n, tvars = setup.n, setup.tvars
    width = _width(setup, bound)
    full = (1 << n) - 1
    codes = tuple(_pack(t.gen.exps, width) for t in tvars)
    steps = tuple((bound + 1) ** bi << n for bi, block in enumerate(setup.blocks)
                  for _ in block.tvars)
    slots = {}
    # One mask per F, shared by the slots that read at F.
    mask_of = functools.cache(lambda f: _field_mask(f, n, width))
    # (number of P's last T-variable, those that may follow it, code, p,
    # chain, |P|), from the empty P.
    stack = [(0, (1 << len(tvars)) - 1, 0, 0, None, 0)]
    while stack:
        gi, allowed, c, point, chain, size = stack.pop()
        if chain is not None:
            slot = slots.get(c)
            if slot is None:
                slot = slots[c] = (mask_of(c & full), {})
            mask, table = slot
            table.setdefault(point & mask, []).append((point, chain))
        if size == bound:
            continue
        found = allowed >> gi << gi
        count = found.bit_count()
        budget.count_check(count)
        budget.count_vertex(count)
        while found:
            gi = found.bit_length() - 1
            found ^= 1 << gi
            stack.append((gi, allowed & ~partners[gi], c + steps[gi] | positions[gi],
                          point + codes[gi], (tvars[gi], chain), size + 1))
    by_beta = {}
    for c, slot in slots.items():
        beta = tuple((c >> n) // (bound + 1) ** bi % (bound + 1)
                     for bi in range(len(setup.blocks)))
        by_beta.setdefault(beta, []).append(slot)
    return by_beta


def _unchain(chain):
    """The T-variables of a `_standard_points` chain, in descending order."""
    out = []
    while chain is not None:
        t, chain = chain
        out.append(t)
    return tuple(reversed(out))


def verify_groebner_by_fibers(setup, quadrics, bound, *,
                              max_vertices=MAX_VERTICES, max_checks=MAX_CHECKS):
    """Certify the quadrics by unique standard points on every fiber up to
    the bound.

    A pass means: every examined fiber has exactly one point that no lead
    divides, the one sink of its rewriting graph, so every binomial of the
    ideal with total T-degree <= bound reduces to zero by the quadrics.  Only
    standard points are searched, by one walk over the lead-free multisets
    of T-variables (`_standard_points`).  A multiset with product p is a
    standard point over the image mu of the same block degrees exactly when
    mu agrees with p at the x-positions its T-variables forbid and p divides
    mu, the rest of mu being its x part.  A single closure's T-variables
    forbid every position, as its points have no x part.  The walk runs
    before the first group of `_image_groups` is made; each group's packed
    codes are answered as they come, so the sweep holds one group of images
    at a time.  An image is answered slot by slot, with one mask and one
    lookup each (`_points`): mu ANDed with the slot's field mask is mu read
    at its F, and each p found must divide mu, by the borrow test of
    `_width`.  Only an image without exactly one standard point is decoded
    into a `Monomial`, with its sinks, and a group's such images are taken
    in ascending grevlex, the order `iterate_images` lists them in.
    `max_vertices` caps the multisets found and `max_checks` the candidate
    T-variables tried, one per multiset, both over the whole sweep; the walk
    keeps its own stack, so no recursion limit ends it.  A failure and the
    invariant's error name a single closure's image without its T-degree.
    """
    if bound < 1:
        raise ValueError(f"need a T-degree bound of at least 1, got {bound}")
    table = _check_quadrics(quadrics, setup.n, setup.tvars)[1]
    budget = _Budget(max_vertices, max_checks, "fiber sweep")
    partners, positions = _forbidden(setup, table)
    by_beta = _standard_points(setup, partners, positions, bound, budget)
    n, width = setup.n, _width(setup, bound)
    guard = _guard(n, width)
    single = setup.blocks[0].exact
    failures, images = [], 0
    for beta, group in _image_groups(setup, bound):
        slots = by_beta.get(beta, ())
        odd = []
        for e in group:
            images += 1
            points = _points(e, slots, guard)
            if len(points) != 1:
                exps = _unpack(e, n, width)
                odd.append((Monomial._of(exps, sum(exps)), e, points))
        odd.sort(key=lambda it: it[0].grevlex_key())
        shown = None if single else beta
        for mu, e, points in odd:
            # The least fiber point of every image is standard.
            if not points:
                raise AssertionError(f"no standard point over {_image_text(mu, shown)}")
            sinks = [TProduct._sorted(Monomial(_unpack(e - p, n, width)),
                                      _unchain(chain)) for p, chain in points]
            sinks.sort(key=operator.attrgetter("key"))
            failures.append((mu, shown, tuple(sinks)))
        del group  # for peak memory: the next group is made without this one
    return VerifyReport(not failures, tuple(failures), f"fibers bound={bound}",
                        images)


class SpairReport:
    """Outcome of the S-pair reduction check."""

    __slots__ = ("passed", "pair", "normal_form", "pairs_checked", "pairs_skipped")

    def __init__(self, passed, pair, normal_form, pairs_checked, pairs_skipped):
        self.passed = passed
        self.pair = pair
        self.normal_form = normal_form
        self.pairs_checked = pairs_checked
        self.pairs_skipped = pairs_skipped

    def lines(self, base=1):
        out = []
        if self.passed:
            out.append("PASS")
        else:
            a, b = self.pair
            u, v = self.normal_form
            out.append(f"FAIL spair [{a.text(base)}] [{b.text(base)}] "
                       f"normal-form: {u.term_text(base)} - {v.term_text(base)}")
        out.append("certificate: spairs")
        return out


def spair_certificate(quadrics, *, max_steps=MAX_STEPS):
    """Reduce every S-binomial of the set by the set; report the first survivor.

    The S-binomial of two pure differences a and b is the pure difference of
    the two lcm-completions of their tails: a's tail times the lead atoms
    that b's lead adds to a's, and b's tail times those a's lead adds to
    b's.  It reduces to zero iff rewriting larger sides by matching leads
    reaches equality.  Pairs with coprime leads are skipped (their
    S-binomials always reduce to zero), never formed: `pairs_skipped` is the
    pairs passed less those checked.  Pairs run in basis order, (a, b) with
    a before b, and each rewrite uses the first basis element whose lead
    divides the term, so the first survivor and the step count do not depend
    on the indexes used to find them.  `max_steps` caps the rewrite steps of
    the whole run, all pairs together; a run that needs more raises
    `SpairLimitError` naming the pair being reduced.  Each term's rewrite is
    kept for the run, as pairs that share a fiber meet the same terms; a
    step makes at most one new term, so the step budget bounds what is kept.
    Independent of the fiber-graph route.  The set passes `_check_quadrics`
    up front, in basis order: a `QuadricSet` in its own ring and numbering,
    any other sequence in the ambient ring of the first lead, numbered by
    the set's own T-variables, sorted largest first.  Both numberings order
    the T-variables alike, so the run takes the same steps on either.

    The run writes each term as its atom ids ascending (`_encode`), by the
    gate's ids, and reads each lead in the gate's code table and each tail
    in its tail codes.  The gate puts a pair's sides and all their rewrites
    in one fiber, where every term has the same T-degree and the same
    image, so two distinct terms differ first in their T-variables: the
    smaller tuple is the larger term.  Only a failure's normal forms are
    decoded back to T-products.

    The gate admits only leads and tails of two atoms, so every term the
    run meets has three atoms, or two when the leads are equal.  Two
    distinct leads that share an atom differ in one, so a side is a tail
    with the one atom the other lead adds; a rewrite takes out a pair of
    the term's atoms and puts in a tail, keeping the third atom.  Both are
    an insertion into a sorted pair.
    """
    from .quadrics import QuadricSet  # the builders' module imports this one
    if isinstance(quadrics, QuadricSet):
        basis = quadrics._basis()
        n, tvars = basis.n, basis.tvars
    else:
        basis = sort_binomials(quadrics)
        n = basis[0].lead.xpart.n if basis else None
        tvars = sorted({t for g in basis for side in (g.lead, g.tail)
                        for t in side.tvars}, reverse=True)
    table, tails = _check_quadrics(basis, n, tvars)[1:]
    # Leads are coprime exactly when their codes share no id.
    leads, holders = [None] * len(basis), {}
    for lead, held in table.items():
        for i in held:
            leads[i] = lead
        for atom in set(lead):
            holders.setdefault(atom, []).extend(held)
    # `memo` maps each term met so far to its `_rewrite_ids`, () when no
    # lead divides it; each step is still counted.
    memo = {}
    checked = steps = 0
    for ai, mine in enumerate(leads):
        partners = sorted({bi for atom in mine for bi in holders[atom]
                           if bi > ai})
        m0, m1 = mine
        a0, a1 = tail = tails[ai]
        for bi in partners:
            theirs = leads[bi]
            checked += 1
            # u is a's tail with the atom b's lead adds to a's, v is b's
            # tail with the atom a's lead adds to b's.
            if theirs == mine:
                u, v = tail, tails[bi]
            else:
                p, q = theirs
                c = q if p == m0 or p == m1 else p
                u = (c, a0, a1) if c <= a0 else (a0, c, a1) if c <= a1 else (a0, a1, c)
                c = m1 if m0 == p or m0 == q else m0
                b0, b1 = tails[bi]
                v = (c, b0, b1) if c <= b0 else (b0, c, b1) if c <= b1 else (b0, b1, c)
            # Rewrite the larger side of u - v, the smaller tuple, until the
            # sides meet or neither rewrites.
            while u != v:
                if u > v:
                    u, v = v, u
                steps += 1
                if steps > max_steps:
                    raise SpairLimitError(max_steps, (basis[ai], basis[bi]))
                step = memo.get(u)
                if step is None:
                    step = memo[u] = _rewrite_ids(u, table, tails)
                if step:
                    u = step
                    continue
                step = memo.get(v)
                if step is None:
                    step = memo[v] = _rewrite_ids(v, table, tails)
                if step:
                    v = step
                    continue
                # The pairs passed: every row before a's, and a's up to b.
                passed = ai * (2 * len(basis) - ai - 1) // 2 + bi - ai
                return SpairReport(False, (basis[ai], basis[bi]),
                                   (_decode(u, tvars, n), _decode(v, tvars, n)),
                                   checked, passed - checked)
    return SpairReport(True, None, None, checked,
                       len(basis) * (len(basis) - 1) // 2 - checked)


def _rewrite_ids(term, table, tails):
    """The code of term / lead * tail for the first basis element whose lead
    divides the term, found in the gate's code `table`, or () when none
    does; for a term of two or three atoms and tails of two."""
    if len(term) == 2:
        held = table.get(term)
        return tails[held[0]] if held else ()
    a, b, c = term
    best = keep = None
    for pair, atom in (((a, b), c), ((a, c), b), ((b, c), a)):
        held = table.get(pair)
        if held and (best is None or held[0] < best):
            best, keep = held[0], atom
    if best is None:
        return ()
    t0, t1 = tails[best]
    return (keep, t0, t1) if keep <= t0 else (t0, keep, t1) if keep <= t1 else (t0, t1, keep)


def t_min(family, mu, beta):
    """The sorted-least fiber point over (mu, beta) for a reduced family, or None.

    Blocks are processed in order; block i takes the least divisor of the
    remaining quotient among products of beta_i of its generators, factored
    canonically; the final leftover becomes the x part.  None when some block
    has no such divisor.
    """
    if not family.is_reduced():
        raise ValueError("t_min needs a reduced family (apply reduce first)")
    beta = tuple(beta)
    if len(beta) != family.r:
        raise ValueError(f"need {family.r} block degrees, got {len(beta)}")
    if mu.n != family.n:
        raise ValueError("ambient mismatch between image and family")
    quotient = mu
    tvars = []
    for idx, e in enumerate(family.entries, start=1):
        k = beta[idx - 1]
        if k == 0:
            continue
        div = min_borel_divisor(e.gen, k, quotient, support=e.support)
        if div is None:
            return None
        quotient = quotient / div
        # A reduced generator lives on its support, so the divisor's sorted
        # factors over all positions are those over the support.
        tvars.extend(GeneratorVar(idx, f) for f in borel_sort(e.gen, div, k))
    return TProduct(quotient, tvars)


def to_dot(graph, base=1):
    """Graphviz text for a fiber graph; vertex ids follow the ascending order."""
    lines = ["digraph fiber {"]
    for i, v in enumerate(graph.vertices):
        lines.append(f'  v{i} [label="{v.label(base)}"];')
    for u, v, qi in graph.edges:
        lines.append(f'  v{u} -> v{v} [label="q{qi}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
