"""Families of support-restricted Borel ideals: closures, reduction,
incidence matrices, staircase checks, and the file format."""

import itertools
import random

import pytest

from borelgb.borel import borel_closure
from borelgb.families import (BiAdjacency, FamilyEntry, IdealFamily,
                              find_lfree_column_order, incidence_matrix,
                              is_chordal_bipartite, lfree_witness,
                              parse_family, reduce_family, serialize_family)
from borelgb.monomials import Monomial, ParseError, parse_monomial

from helpers import (CHORDAL_SEARCH_CAP, EX_FAMILY, NESTED_FAMILY,
                     ORDER_SEARCH_CAP, TRIANGLE,
                     find_lfree_column_order_by_search, has_long_induced_cycle,
                     is_chordal_bipartite_by_search, is_lfree,
                     lfree_witness_by_scan, permute_columns,
                     random_interval_family, random_principal_borel_family)


def M(text, n=4):
    return parse_monomial(text, n)


def test_lborel_closure():
    support = (3, 4)
    got = [m.text() for m in borel_closure(M("x2*x4"), support=support)]
    assert got == ["x2*x4", "x2*x3"]
    # closure factors through the support part: m = m1 * m2 with m2 inert
    full = borel_closure(M("x1*x3*x4^2"), support=support)
    inert = M("x1")
    part = borel_closure(M("x3*x4^2"), support=support)
    assert set(full) == {inert * m for m in part}


def test_entry_support_is_a_sorted_tuple_inside_the_ring():
    assert FamilyEntry("a", [4, 3, 4], M("x2*x4")).support == (3, 4)
    assert FamilyEntry("b", frozenset(), M("1")).support == ()
    for bad in ((0, 2), (2, 5)):
        with pytest.raises(ValueError, match=r"outside 1\.\.4"):
            FamilyEntry("c", bad, M("x2"))
    with pytest.raises(ValueError, match="ambient mismatch"):
        IdealFamily(3, [FamilyEntry("d", (1, 2), M("x2"))])


def test_effective_support_examples():
    e = FamilyEntry("a", (3, 4), M("x2*x4"))
    assert sorted(e.effective_support()) == [3, 4]
    e = FamilyEntry("b", (1, 2), M("x3"))
    assert e.effective_support() == frozenset()
    e = FamilyEntry("c", (4,), M("x4"))
    assert sorted(e.effective_support()) == [4]
    e = FamilyEntry("d", (1, 2, 3, 4), M("x1*x3"))
    assert sorted(e.effective_support()) == [1, 2, 3]


def test_effective_support_equals_closure_intersection():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        support = frozenset(p for p in range(1, n + 1) if rng.random() < 0.6)
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        entry = FamilyEntry("e", support, Monomial(exps))
        closure_vars = set()
        for m in entry.closure():
            closure_vars.update(m.support())
        assert entry.effective_support() == support & closure_vars


def test_reduce_family_strips_inert_mass():
    fam = IdealFamily(4, [
        FamilyEntry("I1", (3, 4), M("x2*x4")),
        FamilyEntry("I2", (1, 2), M("x3")),
        FamilyEntry("I3", (1, 2, 3, 4), M("x2^2*x3")),
    ])
    assert not fam.is_reduced()
    red, stripped = reduce_family(fam)
    assert red.is_reduced()
    assert [m.text() for m in stripped] == ["x2", "x3", "1"]
    assert red.entries[0].gen == M("x4")
    assert red.entries[0].support == (3, 4)
    assert red.entries[1].gen == M("1")
    assert red.entries[1].support == ()
    assert red.entries[2].gen == M("x2^2*x3")
    assert red.entries[2].support == (1, 2, 3)
    # idempotent
    red2, stripped2 = reduce_family(red)
    assert all(m.deg == 0 for m in stripped2)
    assert serialize_family(red2) == serialize_family(red)


def test_reduce_keeps_reduced_families_intact():
    fam = parse_family(EX_FAMILY)
    assert fam.is_reduced()
    red, stripped = reduce_family(fam)
    assert serialize_family(red) == EX_FAMILY
    assert all(m.deg == 0 for m in stripped)


def test_incidence_matrix_goldens():
    nested = parse_family(NESTED_FAMILY)
    assert incidence_matrix(nested).rows == (
        (0, 0, 0, 1),
        (0, 0, 1, 1),
        (1, 1, 1, 1),
        (1, 1, 1, 0),
    )
    fam = parse_family(EX_FAMILY)
    assert incidence_matrix(fam).rows == (
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 1, 0),
        (1, 1, 1, 0, 0),
    )
    tri = parse_family(TRIANGLE)
    assert incidence_matrix(tri).rows == (
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    )


def test_lfree_witness_goldens():
    assert lfree_witness(incidence_matrix(parse_family(EX_FAMILY))) is None
    assert lfree_witness(incidence_matrix(parse_family(NESTED_FAMILY))) is None
    tri = incidence_matrix(parse_family(TRIANGLE))
    assert lfree_witness(tri) == (1, 2, 1, 3)
    assert not is_lfree(tri)


def test_lfree_matches_quadruple_scan():
    rng = random.Random(17)
    for _ in range(300):
        n, r = rng.randint(1, 5), rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(r))
                     for _ in range(n))
        mat = BiAdjacency(n, [f"c{j}" for j in range(r)], rows)
        witness = lfree_witness(mat)
        brute = None
        for h in range(n):
            for j in range(h + 1, n):
                for u in range(r):
                    for v in range(u + 1, r):
                        if rows[h][u] and not rows[h][v] and rows[j][u] and rows[j][v]:
                            brute = brute or (h + 1, j + 1, u + 1, v + 1)
        assert witness == brute


def test_prefix_columns_are_lfree_in_any_order():
    """Top-justified column supports can never form an L."""
    rng = random.Random(29)
    for _ in range(100):
        n, r = rng.randint(2, 5), rng.randint(2, 5)
        fam = random_principal_borel_family(rng, n, r)
        mat = incidence_matrix(fam)
        for perm in itertools.permutations(range(mat.r)):
            assert is_lfree(permute_columns(mat, perm))


def test_find_lfree_column_order():
    fam = parse_family(EX_FAMILY)
    mat = incidence_matrix(fam)
    assert find_lfree_column_order(mat) == (0, 1, 2, 3, 4)  # identity when valid
    tri = incidence_matrix(parse_family(TRIANGLE))
    assert find_lfree_column_order(tri) is None
    # 11 equal columns, past the oracle's cap: no pair forms an L
    assert find_lfree_column_order(BiAdjacency(1, ["c"] * 11, [(1,) * 11])) == \
        tuple(range(11))


def test_find_lfree_column_order_on_shuffled_interval_families():
    rng = random.Random(41)
    found = 0
    for _ in range(100):
        fam = random_interval_family(rng, rng.randint(2, 5), rng.randint(2, 5))
        mat = incidence_matrix(fam)
        assert is_lfree(mat)  # construction guarantees the given order works
        perm = list(range(mat.r))
        rng.shuffle(perm)
        shuffled = permute_columns(mat, perm)
        order = find_lfree_column_order(shuffled)
        assert order is not None
        assert is_lfree(permute_columns(shuffled, order))
        found += 1
    assert found == 100


def test_chordal_bipartite_goldens():
    assert is_chordal_bipartite(incidence_matrix(parse_family(EX_FAMILY)))
    tri = incidence_matrix(parse_family(TRIANGLE))
    assert not is_chordal_bipartite(tri)
    assert has_long_induced_cycle(tri)
    # 9 rows, past the oracle's cap: one column is never part of an L
    assert is_chordal_bipartite(BiAdjacency(9, ["c"], [(1,)] * 9))


def test_chordal_bipartite_matches_induced_cycle_definition():
    rng = random.Random(59)
    agree_true = agree_false = 0
    for _ in range(120):
        n, r = rng.randint(2, 4), rng.randint(2, 4)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(r))
                     for _ in range(n))
        mat = BiAdjacency(n, [f"c{j}" for j in range(r)], rows)
        by_perms = is_chordal_bipartite(mat)
        by_cycles = not has_long_induced_cycle(mat)
        assert by_perms == by_cycles
        if by_perms:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 0 and agree_false > 0


def _matrix(rows):
    return BiAdjacency(len(rows), [f"c{j}" for j in range(len(rows[0]))], rows)


def test_staircase_decisions_match_oracles_exhaustively():
    """Every matrix up to 3x4 and 4x3: the greedy order and the doubly
    lexical test against the backtracking searches and the definitions."""
    seen = {False: 0, True: 0}
    for n, r in itertools.product(range(1, 5), repeat=2):
        if n * r > 12:
            continue
        for cells in itertools.product((0, 1), repeat=n * r):
            mat = _matrix(tuple(cells[i * r:(i + 1) * r] for i in range(n)))
            order = find_lfree_column_order(mat)
            assert order == find_lfree_column_order_by_search(mat)
            assert order == next(
                (p for p in itertools.permutations(range(r))
                 if is_lfree(permute_columns(mat, p))), None)
            chordal = is_chordal_bipartite(mat)
            assert chordal == is_chordal_bipartite_by_search(mat)
            assert chordal == (not has_long_induced_cycle(mat))
            seen[chordal] += 1
    assert seen[False] and seen[True]


def _shuffled_interval_matrix(rng, n, r, shuffle_rows):
    """A matrix whose columns are nested-start intervals, with its columns
    and optionally its rows shuffled.  Both keep it chordal bipartite; a
    column shuffle keeps an L-free column order, which it hides."""
    mat = incidence_matrix(random_interval_family(rng, n, r))
    rows = list(mat.rows)
    if shuffle_rows:
        rng.shuffle(rows)
    perm = list(range(r))
    rng.shuffle(perm)
    return permute_columns(BiAdjacency(n, mat.col_names, rows), perm)


def _random_matrix(rng, n, r):
    density = rng.random()
    return _matrix(tuple(tuple(int(rng.random() < density) for _ in range(r))
                         for _ in range(n)))


def test_staircase_decisions_match_oracles_at_the_caps():
    """Seeded matrices at the caps, 8x8 for chordality and 8 rows by 10
    columns for the order: random ones of random density, and shuffled
    interval matrices, which both decisions accept."""
    rng = random.Random(83)
    cap = CHORDAL_SEARCH_CAP
    verdicts = set()
    for _ in range(12):
        for mat in (_random_matrix(rng, cap, cap),
                    _shuffled_interval_matrix(rng, cap, cap, True)):
            chordal = is_chordal_bipartite(mat)
            assert chordal == is_chordal_bipartite_by_search(mat)
            verdicts.add(chordal)
    found = set()
    for _ in range(15):
        for mat in (_random_matrix(rng, cap, ORDER_SEARCH_CAP),
                    _shuffled_interval_matrix(rng, rng.randint(2, cap),
                                              ORDER_SEARCH_CAP, False)):
            order = find_lfree_column_order(mat)
            assert order == find_lfree_column_order_by_search(mat)
            found.add(order is not None)
    assert verdicts == found == {False, True}


def test_staircase_decisions_past_the_oracles_caps():
    """300 seeded matrices, 9 to 30 rows by 11 to 30 columns, half shuffled
    interval matrices and half of random density, where the backtracking
    oracles cannot run.  The chordal answer survives a shuffle of rows and
    columns and a transpose; a returned column order leaves no L by the
    scan, and an order implies chordality."""
    rng = random.Random(4040)
    counts = {"order": 0, "chordal": 0}
    for k in range(300):
        n, r = rng.randint(9, 30), rng.randint(11, 30)
        if k % 2:
            mat = _shuffled_interval_matrix(rng, n, r, rng.random() < 0.5)
        else:
            mat = _random_matrix(rng, n, r)
        chordal = is_chordal_bipartite(mat)
        rows = list(mat.rows)
        rng.shuffle(rows)
        perm = list(range(r))
        rng.shuffle(perm)
        shuffled = permute_columns(BiAdjacency(n, mat.col_names, rows), perm)
        assert is_chordal_bipartite(shuffled) == chordal
        assert is_chordal_bipartite(_matrix(tuple(zip(*mat.rows)))) == chordal
        order = find_lfree_column_order(mat)
        if order is not None:
            assert lfree_witness_by_scan(permute_columns(mat, order)) is None
            assert chordal
            counts["order"] += 1
        counts["chordal"] += chordal
    assert 0 < counts["order"] <= counts["chordal"] < 300


def test_staircase_decisions_match_oracles_on_a_seeded_corpus():
    """2,000 seeded matrices, 1 to 8 rows by 0 to 8 columns, each column
    empty, full or of a random density: the witness, the column order and
    the chordal answer, all read off one L test on column bitmasks, equal
    the scan's and the backtracking searches'."""
    rng = random.Random(397)
    kinds = set()
    for _ in range(2000):
        n, r = rng.randint(1, 8), rng.randint(0, 8)
        cols = []
        for _ in range(r):
            kind = rng.choice(("empty", "full", "random"))
            density = {"empty": 0.0, "full": 1.0}.get(kind, rng.random())
            cols.append([int(rng.random() < density) for _ in range(n)])
            kinds.add(kind)
        mat = BiAdjacency(n, [f"c{j}" for j in range(r)],
                          [tuple(col[i] for col in cols) for i in range(n)])
        assert lfree_witness(mat) == lfree_witness_by_scan(mat)
        assert find_lfree_column_order(mat) == find_lfree_column_order_by_search(mat)
        assert is_chordal_bipartite(mat) == is_chordal_bipartite_by_search(mat)
    assert kinds == {"empty", "full", "random"}


def test_family_and_matrix_constructors_refuse_bad_shapes():
    with pytest.raises(ValueError, match="ambient needs at least one variable"):
        IdealFamily(0, [])
    with pytest.raises(ValueError, match="base must be 0 or 1"):
        IdealFamily(1, [], base=2)
    with pytest.raises(ValueError, match="matrix shape does not match labels"):
        BiAdjacency(2, ["c"], [(1,)])
    with pytest.raises(ValueError, match="matrix shape does not match labels"):
        BiAdjacency(1, ["c"], [(1, 0)])


def test_family_file_round_trip():
    fam = parse_family(EX_FAMILY)
    assert serialize_family(fam) == EX_FAMILY
    assert fam.n == 4 and fam.r == 5 and fam.base == 1
    assert [e.name for e in fam.entries] == ["I1", "I2", "I3", "I4", "I5"]


def test_family_file_base_zero_and_comments():
    text = """# a comment
vars = 3
base = 0

ideal A: support = x0,x2 ; generator = x0*x2  # trailing note
ideal B: support = ; generator = 1
"""
    fam = parse_family(text)
    assert fam.base == 0
    assert fam.entries[0].support == (1, 3)
    assert fam.entries[0].gen.exps == (1, 0, 1)
    assert fam.entries[1].support == ()
    canonical = serialize_family(fam)
    assert canonical == """vars = 3
base = 0
ideal A: support = x0,x2 ; generator = x0*x2
ideal B: support = ; generator = 1
"""
    assert serialize_family(parse_family(canonical)) == canonical


def test_family_file_errors():
    with pytest.raises(ParseError):
        parse_family("")
    with pytest.raises(ParseError) as exc:
        parse_family("ideal A: support = x1 ; generator = x1")
    assert "vars" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_family("vars = 2\nideal A: support = x3 ; generator = x1")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_family("vars = 2\nideal A: support = x1 ; generator = x1^")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_family("vars = 2\nideal A: generator = x1")
    with pytest.raises(ParseError):
        parse_family("vars = 2\nideal A: support = x1 ; generator = x1\n"
                     "ideal A: support = x1 ; generator = x1")
    with pytest.raises(ParseError):
        parse_family("vars = 2\nideal A: support = x1 ; generator = x1\nbase = 0")


def test_interval_family_is_reduced():
    rng = random.Random(71)
    for _ in range(50):
        fam = random_interval_family(rng, rng.randint(2, 6), rng.randint(1, 4))
        assert fam.is_reduced()
