"""The public library API: the names `borelgb` exports, pinned."""

import inspect

import borelgb
from borelgb import borel, families, monomials, sorting, toric

PUBLIC = {
    "AmbientMismatch", "BiAdjacency", "Binomial", "FamilyEntry", "FiberGraph",
    "FiberSetup", "GeneratorVar", "IdealFamily", "Monomial",
    "MultiQuadrics", "ParseError", "QuadricSet", "ResourceLimitError",
    "TProduct",
    "borel_closure", "borel_member", "borel_sort",
    "enumerate_fiber", "fiber_graph", "find_lfree_column_order",
    "incidence_matrix", "is_chordal_bipartite", "iterate_images",
    "lfree_witness", "min_borel_divisor", "parse_family", "parse_monomial",
    "quadrics_bs_form", "quadrics_multi", "quadrics_single", "reduce_family",
    "serialize_family", "spair_certificate", "t_min",
    "to_dot", "verify_groebner_by_fibers",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(borelgb).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC


def test_test_only_api_stays_out_of_the_library():
    """Comparators, moves, squarefree tests, suffix-sum vectors and the
    compressed subring maps live in tests/helpers.py; the S-pair route forms
    its sides without a T-product lcm, `borel_sort` reads the largest
    variable off its exponent tuple, and every lead lookup and rewrite runs
    on atom-id codes, so the atom-keyed lead table and the T-product
    rewrite are the product-loop oracle's own.  A T-product's image monomial
    and T-degree, the monomial lcm and the sorting recursion's truncated
    pivot as a monomial are test helpers too, and so are monomial
    divisibility, orienting u - v by the term order and sorting a
    `Binomial` sequence into basis order: the S-pair route sorts a
    `QuadricSet` on its codes.  The staircase decisions read
    one L test on column bitmasks, so the matrix's column permutation and
    the old pair test are test helpers, and every factor prints through
    `monomials._factor_text`.  Neither staircase decision has a size cap;
    the two caps belong to the backtracking oracles in the helpers."""
    assert not hasattr(monomials, "compare")
    assert not hasattr(monomials, "apply_move")
    assert not hasattr(monomials, "restrict")
    assert not hasattr(monomials, "expand")
    assert not hasattr(borelgb.Monomial, "lex_key")
    assert not hasattr(borelgb.Monomial, "sigma")
    assert not hasattr(borelgb.Monomial, "sigma_vector")
    assert not hasattr(borelgb.MultiQuadrics, "counts")
    assert not hasattr(borelgb.TProduct, "is_squarefree")
    assert not hasattr(borelgb.TProduct, "lcm_with")
    assert not hasattr(borelgb.Monomial, "max_var")
    assert not hasattr(borelgb.Monomial, "is_unit")
    assert not hasattr(borelgb.TProduct, "rewrite")
    assert not hasattr(borelgb.TProduct, "image")
    assert not hasattr(borelgb.TProduct, "tdegree")
    assert not hasattr(monomials, "lcm")
    assert not hasattr(sorting, "split_monomial")
    assert not hasattr(borelgb.Binomial, "make")
    assert not hasattr(borelgb.Monomial, "divides")
    assert not hasattr(toric, "sort_binomials")
    assert not hasattr(borelgb.BiAdjacency, "permute_columns")
    assert not hasattr(families, "_ordered_pair_ok")
    assert not hasattr(families, "ORDER_SEARCH_CAP")
    assert not hasattr(families, "CHORDAL_SEARCH_CAP")
    assert not hasattr(borel, "_power")
    for name in ("_atoms", "_divisor_keys", "_lead_table"):
        assert not hasattr(toric, name), name


def test_fiber_graph_keeps_only_what_is_read():
    """A fiber graph is its vertices and edges; the image and T-degrees it
    was built for stay with the caller."""
    assert borelgb.FiberGraph.__slots__ == ("vertices", "edges")


def test_display_methods_take_only_the_base():
    """A T-variable's block decides its tag, so no display call takes one."""
    for method in (borelgb.GeneratorVar.text, borelgb.TProduct.label,
                   borelgb.TProduct.term_text, borelgb.Binomial.text):
        assert list(inspect.signature(method).parameters) == ["self", "base"]
    assert list(inspect.signature(borelgb.to_dot).parameters) == ["graph", "base"]


def test_entry_points_take_only_the_caps_they_enforce():
    """The fiber walks take vertex and check caps and the S-pair run a step
    cap, each by keyword and each defaulting to its one constant in
    `toric`; no entry point takes a cap it does not enforce."""
    caps = "max_vertices=100000, max_checks=10000000"
    for function, pinned in (
            (borelgb.enumerate_fiber, f"(setup, mu, beta, *, {caps})"),
            (borelgb.fiber_graph,
             f"(setup, mu, beta, quadrics, *, {caps}, vertices=None)"),
            (borelgb.verify_groebner_by_fibers,
             f"(setup, quadrics, bound, *, {caps})"),
            (borelgb.spair_certificate, "(quadrics, *, max_steps=100000)")):
        assert str(inspect.signature(function)) == pinned, function
    assert (toric.MAX_VERTICES, toric.MAX_CHECKS, toric.MAX_STEPS) == (
        100_000, 10_000_000, 100_000)
