"""End-to-end command-line behavior: golden stdout, stderr, and exit codes."""

import contextlib
import itertools
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import borelgb
from borelgb import toric
from borelgb.borel import borel_member
from borelgb.cli import main
from borelgb.monomials import Monomial, parse_monomial
from borelgb.families import parse_family
from borelgb.quadrics import quadrics_multi, quadrics_single
from borelgb.toric import (FiberSetup, ResourceLimitError, _Budget,
                           _enumerate, enumerate_fiber)

from helpers import EX_FAMILY, TRIANGLE, lead_table_keys, monomial_text
from test_borel import closure_by_moves

# A reduced family whose first ideal is the unit ideal: its block picks the
# generator 1 any number of times.
UNIT_BLOCK = """vars = 2
ideal a: support = ; generator = 1
ideal b: support = x1,x2 ; generator = x2
"""

# The unit ideal alone: its one T-variable is lead-free at every T-degree.
UNIT_FAMILY = """vars = 1
ideal I1: support = ; generator = 1
"""

NONREDUCED = """vars = 4
ideal I1: support = x3,x4 ; generator = x2*x4
ideal I2: support = x1,x2 ; generator = x3
"""


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "triangle.fam"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def ex_file(tmp_path):
    p = tmp_path / "ex.fam"
    p.write_text(EX_FAMILY)
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_closure(capsys):
    rc, out, err = run(capsys, "closure", "x2^2", "-n", "2")
    assert (rc, err) == (0, "")
    assert out == "x2^2\nx1*x2\nx1^2\n"
    rc, out, _ = run(capsys, "closure", "x2*x4", "-n", "4", "--support", "x3,x4")
    assert rc == 0
    assert out == "x2*x4\nx2*x3\n"


def test_closure_prints_the_move_closure(capsys):
    """Every generator in at most 4 variables of degree at most 3, the unit
    among them, at both bases, with no support, a support that skips a
    middle position and the empty support: the lines are the closure found
    by Borel moves, each member's text rendered afresh.  A support outside
    the ambient ring exits 2 before any line."""
    for n in range(1, 5):
        partial = tuple(p for p in range(1, n + 1) if p != (n + 1) // 2)
        for exps in itertools.product(range(4), repeat=n):
            if sum(exps) > 3:
                continue
            gen = Monomial(exps)
            for base in (0, 1):
                for support in (None, partial, ()):
                    argv = ["closure", monomial_text(gen, base), "-n", str(n),
                            "--base", str(base)]
                    if support is not None:
                        argv += ["--support",
                                 ",".join(f"x{p - 1 + base}" for p in support)]
                    want = "".join(monomial_text(m, base) + "\n"
                                   for m in closure_by_moves(gen, support))
                    assert run(capsys, *argv) == (0, want, ""), argv
    for argv in (("closure", "x2*x3", "-n", "3", "--support", "x0"),
                 ("closure", "x1*x2", "-n", "3", "--base", "0", "--support", "x3")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_closure_streams_its_output(capsys):
    """`closure` writes its lines one column at a time, as the walk makes
    them, so its memory is not that of its output: x6^24's 118,755 lines,
    about 2.8 MB, peak far below that under tracemalloc.  The output itself
    bounds the run."""

    class Sink:
        lines = chars = 0

        def write(self, text):
            self.lines += text.count("\n")
            self.chars += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(["closure", "x6^24", "-n", "6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, sink.lines) == (0, 118755)
    assert peak < sink.chars // 4, (peak, sink.chars)
    assert capsys.readouterr() == ("", "")


def test_sort_worked_example(capsys):
    rc, out, err = run(capsys, "sort", "x1*x3^2*x4^2",
                       "x0^2*x1^5*x2^13*x3^7*x4^3", "6", "-n", "5", "--base", "0")
    assert (rc, err) == (0, "")
    assert out == ("x1*x2^2*x3^2\nx1*x2^2*x3^2\nx1*x2*x3^3\n"
                   "x1^2*x2^2*x4\nx0*x2^3*x4\nx0*x2^3*x4\n")


def test_sort_infeasible(capsys):
    rc, out, err = run(capsys, "sort", "x1*x2", "x2^4", "2", "-n", "2")
    assert (rc, out) == (2, "")
    assert err == "error: x2^4 is not a product of 2 members of Borel(x1*x2)\n"


def test_sort_and_tmin_run_past_the_recursion_limit(capsys, tmp_path):
    """`sort` and `tmin` split once per distinct variable of mu, here 1,200
    of them, more than the recursion limit allows: both exit 0 with one
    line.  For k = 1 the answer is mu itself; for k = 2 the factors
    multiply to mu, descend in grevlex and lie in Borel(M)."""
    n, M = 1201, "x1201^1200"
    gen = parse_monomial(M, n)
    fam = tmp_path / "deep.fam"
    fam.write_text(f"vars = {n}\nideal I1: support = "
                   + ",".join(f"x{i}" for i in range(1, n + 1))
                   + f" ; generator = {M}\n")
    mu = "*".join(f"x{i}" for i in range(1, n))
    assert sys.getrecursionlimit() < n
    assert run(capsys, "sort", M, mu, "1", "-n", str(n)) == (0, mu + "\n", "")
    assert run(capsys, "tmin", str(fam), mu, "t1") == (0, f"1 | t1:{mu}\n", "")
    mu = parse_monomial("x1^2*" + "*".join(f"x{i}" for i in range(2, n))
                        + "*x1201^1199", n)
    rc, out, err = run(capsys, "sort", M, mu.text(), "2", "-n", str(n))
    assert (rc, err) == (0, "")
    factors = [parse_monomial(line, n) for line in out.splitlines()]
    assert len(factors) == 2 and factors[0] * factors[1] == mu
    assert factors[0].grevlex_key() >= factors[1].grevlex_key()
    assert all(borel_member(f, gen) for f in factors)
    rc, out, err = run(capsys, "tmin", str(fam), mu.text(), "t1^2")
    assert (rc, err) == (0, "")
    assert out == "1 | " + ", ".join(f"t1:{f.text()}" for f in factors) + "\n"


def test_tmin(capsys, ex_file, tri_file):
    rc, out, _ = run(capsys, "tmin", ex_file, "x1*x3*x4", "t2")
    assert (rc, out) == (0, "x1 | t2:x3*x4\n")
    rc, out, _ = run(capsys, "tmin", ex_file, "x1^6*x2^9*x3^6*x4^4",
                     "t1*t2^2*t3^2*t4^2*t5^2")
    assert rc == 0
    assert out == ("x1^2*x2^2 | t1:x4, t2:x3*x4, t2:x3*x4, t3:x3^2, t3:x3*x4, "
                   "t4:x1*x2^2, t4:x1*x2*x3, t5:x1*x2^2, t5:x1*x2^2\n")
    rc, out, _ = run(capsys, "tmin", tri_file, "x1*x2*x3", "t1*t2*t3")
    assert (rc, out) == (0, "UNDEFINED\n")


def test_fiber_graph_single(capsys):
    rc, out, _ = run(capsys, "fiber-graph", "--single", "x2^2", "-n", "2",
                     "--mu", "x1^2*x2^2", "-k", "2")
    assert rc == 0
    assert out == ("v0: 1 | x1*x2, x1*x2\n"
                   "v1: 1 | x1^2, x2^2\n"
                   "v1 -> v0 [q0]\n"
                   "sinks: v0\n")


def test_fiber_graph_dot(capsys):
    rc, out, _ = run(capsys, "fiber-graph", "--single", "x2^2", "-n", "2",
                     "--mu", "x1^2*x2^2", "-k", "2", "--dot")
    assert rc == 0
    assert out == ('digraph fiber {\n'
                   '  v0 [label="1 | x1*x2, x1*x2"];\n'
                   '  v1 [label="1 | x1^2, x2^2"];\n'
                   '  v1 -> v0 [label="q0"];\n'
                   '}\n')


def test_fiber_graph_multi(capsys, tri_file):
    rc, out, _ = run(capsys, "fiber-graph", tri_file, "x1*x2*x3", "t1*t2*t3")
    assert rc == 0
    assert out == ("v0: 1 | t1:x2, t2:x1, t3:x3\n"
                   "v1: 1 | t1:x1, t2:x3, t3:x2\n"
                   "sinks: v0 v1\n")


def test_verify_single_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--single", "x2^2*x4", "-n", "4",
                     "--bound", "3")
    assert (rc, out) == (0, "PASS\ncertificate: fibers bound=3\n")
    rc, out, _ = run(capsys, "verify", "--single", "x2^2*x4", "-n", "4",
                     "--method", "spairs")
    assert (rc, out) == (0, "PASS\ncertificate: spairs\n")
    rc, out, _ = run(capsys, "verify", "--single", "x2^2*x4", "-n", "4",
                     "--form", "sorted", "--bound", "2")
    assert (rc, out) == (0, "PASS\ncertificate: fibers bound=2\n")


def test_verify_multi_fail(capsys, tri_file):
    rc, out, _ = run(capsys, "verify", tri_file, "--bound", "2")
    assert rc == 1
    assert out == ("FAIL x1*x2*x3 t2*t3 sinks=2\n"
                   "  sink x1 | t2:x3, t3:x2\n"
                   "  sink x2 | t2:x1, t3:x3\n"
                   "certificate: fibers bound=2\n")
    rc, out, _ = run(capsys, "verify", tri_file, "--method", "spairs")
    assert rc == 1
    assert out == ("FAIL spair [x3*T[t3:x2] - x2*T[t3:x3]] "
                   "[x3*T[t2:x1] - x1*T[t2:x3]] normal-form: "
                   "x2*T[t2:x1]*T[t3:x3] - x1*T[t2:x3]*T[t3:x2]\n"
                   "certificate: spairs\n")


def test_verify_multi_pass(capsys, ex_file):
    rc, out, _ = run(capsys, "verify", ex_file, "--bound", "2")
    assert (rc, out) == (0, "PASS\ncertificate: fibers bound=2\n")


def test_verify_past_a_machine_word(capsys):
    """x1^(2^65)*x2 at bound 2 packs its sweep's exponents in fields wider
    than 64 bits and passes, as on exponent tuples."""
    assert run(capsys, "verify", "--single", "x1^36893488147419103232*x2", "-n", "2",
               "--bound", "2") == (0, "PASS\ncertificate: fibers bound=2\n", "")


def test_verify_jobs_identical(capsys):
    rc1, out1, _ = run(capsys, "verify", "--single", "x2^2*x4", "-n", "4",
                       "--bound", "2", "--jobs", "1")
    rc2, out2, _ = run(capsys, "verify", "--single", "x2^2*x4", "-n", "4",
                       "--bound", "2", "--jobs", "2")
    assert (rc1, out1) == (rc2, out2)


def test_lfree(capsys, tri_file, ex_file):
    rc, out, _ = run(capsys, "lfree", tri_file)
    assert rc == 1
    assert out == ("x1: 1 1 0\n"
                   "x2: 1 0 1\n"
                   "x3: 0 1 1\n"
                   "NOT-LFREE rows x1,x2 cols I1,I3\n")
    rc, out, _ = run(capsys, "lfree", tri_file, "--find-order", "--chordal")
    assert rc == 1
    assert out.endswith("no-order\nNOT-CHORDAL-BIPARTITE\n")
    rc, out, _ = run(capsys, "lfree", ex_file, "--find-order", "--chordal")
    assert rc == 0
    assert out == ("x1: 0 0 0 1 1\n"
                   "x2: 0 0 1 1 1\n"
                   "x3: 0 1 1 1 0\n"
                   "x4: 1 1 1 0 0\n"
                   "LFREE\n"
                   "order: I1,I2,I3,I4,I5\n"
                   "CHORDAL-BIPARTITE\n")


def test_lfree_answers_past_the_old_search_caps(capsys, tmp_path):
    """Neither staircase decision has a size limit: 11 columns get an order
    and 9 rows a chordal answer, where both once exited 2."""
    wide = tmp_path / "wide.fam"
    wide.write_text("vars = 1\n" + "".join(
        f"ideal I{j}: support = x1 ; generator = x1\n" for j in range(1, 12)))
    names = ",".join(f"I{j}" for j in range(1, 12))
    assert run(capsys, "lfree", str(wide), "--find-order") == \
        (0, "x1:" + " 1" * 11 + f"\nLFREE\norder: {names}\n", "")
    tall = tmp_path / "tall.fam"
    support = ",".join(f"x{p}" for p in range(1, 10))
    tall.write_text(f"vars = 9\nideal I1: support = {support} ; generator = x9\n")
    assert run(capsys, "lfree", str(tall), "--chordal") == \
        (0, "".join(f"x{p}: 1\n" for p in range(1, 10))
         + "LFREE\nCHORDAL-BIPARTITE\n", "")


def test_reduce(capsys, tmp_path):
    p = tmp_path / "nonred.fam"
    p.write_text(NONREDUCED)
    rc, out, _ = run(capsys, "reduce", str(p))
    assert rc == 0
    assert out == ("vars = 4\n"
                   "ideal I1: support = x3,x4 ; generator = x4\n"
                   "ideal I2: support = ; generator = 1\n"
                   "# stripped I1: x2\n"
                   "# stripped I2: x3\n")
    # the reduced output (sans comments) parses and is accepted downstream
    q = tmp_path / "red.fam"
    q.write_text("".join(ln + "\n" for ln in out.splitlines()
                         if not ln.startswith("#")))
    rc, out, _ = run(capsys, "verify", str(q), "--bound", "2")
    assert rc == 0


def test_quadrics(capsys, tri_file):
    rc, out, _ = run(capsys, "quadrics", "--single", "x2^2", "-n", "2")
    assert (rc, out) == (0, "T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2]\n")
    rc, out, _ = run(capsys, "quadrics", "--single", "x2^2", "-n", "2",
                     "--form", "sorted")
    assert (rc, out) == (0, "T[x1^2]*T[x2^2] - T[x1*x2]*T[x1*x2]\n")
    rc, out, _ = run(capsys, "quadrics", tri_file)
    assert rc == 0
    assert out == ("symmetric x3*T[t3:x2] - x2*T[t3:x3]\n"
                   "symmetric x3*T[t2:x1] - x1*T[t2:x3]\n"
                   "symmetric x2*T[t1:x1] - x1*T[t1:x2]\n")


def test_input_errors(capsys, tmp_path):
    rc, out, err = run(capsys, "closure", "x2^^2", "-n", "2")
    assert rc == 2 and out == ""
    assert err == "error: column 1: malformed factor 'x2^^2'\n"
    rc, _, err = run(capsys, "closure", "x2", "-n", "2", "--support", "y1")
    assert rc == 2 and "malformed support variable" in err
    rc, _, err = run(capsys, "quadrics", "--single", "x2^2")
    assert rc == 2 and err == "error: --single requires -n\n"
    rc, _, err = run(capsys, "tmin", str(tmp_path / "missing.fam"), "x1", "t1")
    assert rc == 2 and "cannot read family file" in err
    p = tmp_path / "nonred.fam"
    p.write_text(NONREDUCED)
    rc, _, err = run(capsys, "verify", str(p))
    assert rc == 2 and "not reduced" in err
    rc, _, err = run(capsys, "fiber-graph", str(p))
    assert rc == 2 and "need FAMILY IMAGE TDEGREES" in err
    rc, _, err = run(capsys, "tmin", str(p), "x1", "t1")
    assert rc == 2 and "not reduced" in err


def test_closure_support_uses_the_family_parser(capsys):
    """`--support` is read as a family file's support clause: empty text is
    the empty support, and a bad token is reported at its column."""
    assert run(capsys, "closure", "x2*x3", "-n", "3", "--support", "") == (
        0, "x2*x3\n", "")
    assert run(capsys, "closure", "x2*x3", "-n", "3", "--support", "x1,x7") == (
        2, "", "error: column 4: support variable x7 outside x1..x3\n")


def test_family_support_errors_name_their_column(capsys, tmp_path):
    p = tmp_path / "bad.fam"
    for support, want in (("x1, y", "column 24: malformed support variable 'y'"),
                          ("x1, x7", "column 24: support variable x7 outside x1..x2")):
        p.write_text(f"vars = 2\nideal A: support = {support} ; generator = x1\n")
        assert run(capsys, "verify", str(p)) == (2, "", f"error: line 2, {want}\n")


def test_family_file_line_errors_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.fam"
    for text, want in (
            ("vars = 0\n", "line 1, column 1: vars must be at least 1"),
            ("vars = 2\nfoo\n", "line 2, column 1: expected 'ideal NAME: "
             "support = ... ; generator = ...'"),
            ("vars = 2\nideal A: supp = x1 ; generator = x1\n",
             "line 2, column 1: missing 'support =' clause"),
            ("vars = 2\nideal A: support = x1 ; gen = x1\n",
             "line 2, column 1: missing 'generator =' clause")):
        p.write_text(text)
        assert run(capsys, "lfree", str(p)) == (2, "", f"error: {want}\n")


def test_commands_without_their_input_exit_2(capsys):
    for argv, want in ((("verify",), "need a family file or --single"),
                       (("quadrics",), "need a family file or --single"),
                       (("fiber-graph", "--single", "x1", "-n", "1", "--mu", "x1"),
                        "single mode needs --mu and -k")):
        assert run(capsys, *argv) == (2, "", f"error: {want}\n")


def test_family_name_with_a_semicolon(capsys, tmp_path):
    """The generator clause follows the ';' that splits the clauses, not the
    first ';' of the line, which may lie in the name."""
    p = tmp_path / "semi.fam"
    p.write_text("vars = 2\nideal A;B: support = x1 ; generator = x1\n")
    assert run(capsys, "reduce", str(p)) == (
        0, "vars = 2\nideal A;B: support = x1 ; generator = x1\n"
           "# stripped A;B: 1\n", "")
    p.write_text("vars = 2\nideal A;B: support = x1 ; generator = x1*y2\n")
    assert run(capsys, "reduce", str(p)) == (
        2, "", "error: line 2, column 42: expected 'x' variables, got 'y2'\n")


def test_family_without_ideals_exits_2(capsys, tmp_path):
    p = tmp_path / "empty.fam"
    p.write_text("vars = 2\n")
    for argv in (("verify", str(p)), ("verify", str(p), "--method", "spairs"),
                 ("fiber-graph", str(p), "x1", "1")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: setup needs a family with at least one ideal\n"


def test_spair_route_builds_no_fiber_setup(capsys, monkeypatch, ex_file,
                                           tri_file):
    """The S-pair route reads only its quadric set: with both `FiberSetup`
    constructors raising, it prints the bytes it printed when it built one."""
    def refuse(*args):
        raise AssertionError("a FiberSetup was built")
    monkeypatch.setattr(FiberSetup, "single", refuse)
    monkeypatch.setattr(FiberSetup, "for_family", refuse)
    with pytest.raises(AssertionError):  # the fiber route still builds one
        main(["verify", ex_file])
    passed = (0, "PASS\ncertificate: spairs\n", "")
    assert run(capsys, "verify", "--single", "x2*x4*x5", "-n", "5", "--form",
               "sorted", "--method", "spairs") == passed
    assert run(capsys, "verify", ex_file, "--method", "spairs") == passed
    assert run(capsys, "verify", tri_file, "--method", "spairs") == (
        1, "FAIL spair [x3*T[t3:x2] - x2*T[t3:x3]] [x3*T[t2:x1] - x1*T[t2:x3]] "
           "normal-form: x2*T[t2:x1]*T[t3:x3] - x1*T[t2:x3]*T[t3:x2]\n"
           "certificate: spairs\n", "")


def test_unit_generator_passes_both_routes(capsys):
    """A unit generator is accepted, as a family's `generator = 1` is: its
    closure is {1}, so it has no quadric and each fiber has one point."""
    for method, cert in (("fibers", "fibers bound=3"), ("spairs", "spairs")):
        assert run(capsys, "verify", "--single", "1", "-n", "2", "--method",
                   method) == (0, f"PASS\ncertificate: {cert}\n", "")
    assert run(capsys, "fiber-graph", "--single", "1", "-n", "2", "--mu", "1",
               "-k", "3") == (0, "v0: 1 | 1, 1, 1\nsinks: v0\n", "")


def test_empty_lists_print_their_label_and_a_space(capsys, tmp_path):
    """An empty fiber prints `sinks: ` and a family with no ideal has empty
    matrix rows and an empty column order, each label keeping its space."""
    assert run(capsys, "fiber-graph", "--single", "x1", "-n", "1", "--mu", "1",
               "-k", "1") == (0, "sinks: \n", "")
    p = tmp_path / "empty.fam"
    p.write_text("vars = 2\n")
    assert run(capsys, "lfree", str(p), "--find-order", "--chordal") == (
        0, "x1: \nx2: \nLFREE\norder: \nCHORDAL-BIPARTITE\n", "")


def test_quadrics_and_tmin_need_no_fiber_setup(capsys, tmp_path):
    """Neither command builds blocks, so a reduced family with no ideal has
    no quadrics and its least fiber point over T-degree 1 is the image."""
    p = tmp_path / "empty.fam"
    p.write_text("vars = 3\n")
    assert run(capsys, "quadrics", str(p)) == (0, "", "")
    assert run(capsys, "tmin", str(p), "x1", "1") == (0, "x1\n", "")
    p.write_text(NONREDUCED)
    for argv in (("quadrics", str(p)), ("tmin", str(p), "x1", "t1*t2")):
        assert run(capsys, *argv) == (
            2, "", "error: family is not reduced (run 'borelgb reduce' first)\n")


def test_out_of_range_numbers_exit_2(capsys):
    for argv in (("verify", "--single", "x2", "-n", "2", "--bound", "0"),
                 ("verify", "--single", "x2", "-n", "2", "--bound", "-3"),
                 ("fiber-graph", "--single", "x2^2", "-n", "2",
                  "--mu", "x1^2*x2^2", "-k", "0"),
                 ("fiber-graph", "--single", "x2^2", "-n", "2",
                  "--mu", "x1^2*x2^2", "-k", "-1")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and err.startswith("error:")
    for flag, value in (("--jobs", "0"), ("--max-vertices", "-1"),
                        ("--max-checks", "-1"), ("--max-steps", "-1")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--single", "x2", "-n", "2", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_ambient_count_below_one_exits_2(capsys):
    for n in ("0", "-1"):
        for argv in (("closure", "x1", "-n", n), ("closure", "1", "-n", n),
                     ("sort", "x1", "x1", "1", "-n", n),
                     ("fiber-graph", "--single", "x1", "-n", n,
                      "--mu", "x1", "-k", "1"),
                     ("verify", "--single", "x1", "-n", n),
                     ("quadrics", "--single", "x1", "-n", n)):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument -n: must be at least 1, got {n}" in captured.err


def test_resource_limit_exit_code(capsys):
    rc, _, err = run(capsys, "fiber-graph", "--single", "x2^2", "-n", "2",
                     "--mu", "x1^2*x2^2", "-k", "2", "--max-vertices", "1")
    assert rc == 3
    assert err == "error: fiber exceeded 1 vertices\n"


def test_deep_fibers_exit_3_naming_the_t_degree(capsys, tmp_path):
    """A fiber too deep for Python's recursion limit is a budget trip in
    `fiber-graph`: exit 3 with one line that names its T-degree, on either
    path.  The sweep of `verify` keeps its own stack, so a single closure
    or a family that deep gets its verdict, with or without --jobs; and
    `closure` walks the 1,100 positions of x1100 with its odometer's own
    state, printing x1100 down to x1."""
    fam = tmp_path / "unit.fam"
    fam.write_text(UNIT_BLOCK)
    assert parse_family(UNIT_BLOCK).is_reduced()
    one = tmp_path / "one.fam"
    one.write_text(UNIT_FAMILY)
    limit = sys.getrecursionlimit()
    for sweep in (("verify", "--single", "x1", "-n", "1", "--bound", "1000"),
                  ("verify", str(one), "--bound", "2000")):
        passed = (0, f"PASS\ncertificate: fibers bound={sweep[-1]}\n", "")
        assert run(capsys, *sweep) == passed, sweep
        assert run(capsys, *sweep, "--jobs", "2") == passed, sweep
    lines = "".join(f"x{p}\n" for p in range(1100, 0, -1))
    assert run(capsys, "closure", "x1100", "-n", "1100") == (0, lines, "")
    cases = [(("fiber-graph", "--single", "x1", "-n", "1",
               "--mu", "x1^5000", "-k", "5000"), 5000),
             (("fiber-graph", str(fam), "x1", "t1^5000"), 5000)]
    for argv, degree in cases:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (3, ""), argv
        got = re.fullmatch(r"error: fiber of T-degree (\d+) is too deep to "
                           rf"enumerate \(recursion limit {limit}\)\n", err)
        assert got is not None, err
        assert int(got.group(1)) == degree


def test_deep_sweep_trips_its_vertex_budget_in_bounded_memory(capsys):
    """x1's sweep to bound 200000 finds one lead-free multiset per T-degree,
    so the default budget of 100000 vertices ends it, with no recursion
    limit in the way and a tracemalloc peak near 62 MB."""
    tracemalloc.start()
    try:
        got = run(capsys, "verify", "--single", "x1", "-n", "1",
                  "--bound", "200000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (3, "", "error: fiber sweep exceeded 100000 vertices\n")
    assert peak < 72 << 20, peak


def test_deep_unit_fiber_trips_in_little_memory(capsys, tmp_path):
    """A unit block needs nothing per T-degree, so a fiber of a million unit
    picks trips the recursion limit in under 2 MB."""
    fam = tmp_path / "unit.fam"
    fam.write_text("vars = 1\nideal I1: support = ; generator = 1\n")
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "fiber-graph", str(fam), "x1", "t1^1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (3, "")
    assert err == ("error: fiber of T-degree 1000000 is too deep to enumerate "
                   f"(recursion limit {sys.getrecursionlimit()})\n")
    assert peak < 2 << 20, peak


def test_spair_budget_names_route_and_pair(capsys):
    """--max-steps binds the whole S-pair run; its trip names the pair being
    reduced the way a FAIL line would, in the command's variable names."""
    pair = ("[T[x1^2*x4]*T[x2^2*x4] - T[x1*x2*x4]*T[x1*x2*x4]] "
            "[T[x1^2*x3]*T[x2^2*x4] - T[x2^2*x3]*T[x1^2*x4]]")
    rc, out, err = run(capsys, "verify", "--single", "x2^2*x4", "-n", "4",
                       "--method", "spairs", "--max-steps", "1")
    assert (rc, out) == (3, "")
    assert err == f"error: S-pair route exceeded 1 rewrite steps at spair {pair}\n"
    rc, _, err = run(capsys, "verify", "--single", "x1^2*x3", "-n", "4", "--base",
                     "0", "--method", "spairs", "--max-steps", "1")
    shifted = pair.replace("x1", "x0").replace("x2", "x1").replace(
        "x3", "x2").replace("x4", "x3")
    assert (rc, err) == (3, f"error: S-pair route exceeded 1 rewrite steps "
                            f"at spair {shifted}\n")


def test_spair_budget_names_tagged_pair_of_a_family(capsys, tmp_path):
    p = tmp_path / "chain.txt"
    p.write_text(EX_FAMILY)
    rc, out, err = run(capsys, "verify", str(p), "--method", "spairs",
                       "--max-steps", "3")
    assert (rc, out) == (3, "")
    assert err == ("error: S-pair route exceeded 3 rewrite steps at spair "
                   "[x2*T[t5:x1^2*x2] - x1*T[t5:x1*x2^2]] "
                   "[T[t4:x1^2*x3]*T[t5:x1^2*x2] - T[t4:x1*x2*x3]*T[t5:x1^3]]\n")


def test_spair_budget_trip_on_a_large_closure(capsys):
    """The default step budget trips on x3^2*x5^2 (2,589 exchange quadrics),
    and the message names the pair whose reduction took the last step."""
    rc, out, err = run(capsys, "verify", "--single", "x3^2*x5^2", "-n", "5",
                       "--method", "spairs")
    assert (rc, out) == (3, "")
    assert err == ("error: S-pair route exceeded 100000 rewrite steps at spair "
                   "[T[x1^2*x3*x5]*T[x3^2*x4*x5] - T[x3^3*x5]*T[x1^2*x4*x5]] "
                   "[T[x1^2*x2^2]*T[x3^2*x4*x5] - T[x1^2*x2*x3]*T[x2*x3*x4*x5]]\n")


def test_max_checks_charges_enumeration_and_lead_tests_to_one_budget(capsys):
    """A cap that covers enumeration and the lead tests separately, but not
    together, trips `fiber-graph`."""
    M, mu = parse_monomial("x2^2", 2), parse_monomial("x1^2*x2^2", 2)
    setup = FiberSetup.single(M)
    enumeration = next(c for c in range(100) if _enumerates_within(setup, mu, c))
    lead_tests = sum(map(lead_table_keys, enumerate_fiber(setup, mu, 2)))
    assert (enumeration, lead_tests) == (5, 2)
    cap = max(enumeration, lead_tests)
    assert cap < enumeration + lead_tests
    argv = ("fiber-graph", "--single", "x2^2", "-n", "2", "--mu", "x1^2*x2^2", "-k", "2")
    rc, out, err = run(capsys, *argv, "--max-checks", str(cap))
    assert (rc, out) == (3, "")
    assert err == f"error: fiber exceeded {cap} divisibility checks\n"
    rc, _, _ = run(capsys, *argv, "--max-checks", str(cap + lead_tests))
    assert rc == 0


@pytest.mark.parametrize("jobs", [(), ("--jobs", "2")])
def test_verify_budgets_bound_the_whole_sweep(capsys, ex_file, jobs):
    """On `verify` both fiber budgets count over the whole sweep, whatever
    --jobs says: the walk finds each lead-free T-multiset once, trying one
    candidate T-variable for each, so exactly the multiset count passes
    either budget and one less trips.  A passing single closure has one
    such multiset per image (421); the chain family has 131 at bound 2."""
    for argv, images, checks, bound in (
            (("--single", "x2*x3*x5", "-n", "5", "--bound", "3"), 421, 421, 3),
            ((ex_file, "--bound", "2"), 131, 131, 2)):
        argv = ("verify", *argv, *jobs)
        passed = f"PASS\ncertificate: fibers bound={bound}\n"
        assert run(capsys, *argv, "--max-vertices", str(images)) == (0, passed, "")
        assert run(capsys, *argv, "--max-vertices", str(images - 1)) == (
            3, "", f"error: fiber sweep exceeded {images - 1} vertices\n")
        assert run(capsys, *argv, "--max-checks", str(checks)) == (0, passed, "")
        assert run(capsys, *argv, "--max-checks", str(checks - 1)) == (
            3, "", f"error: fiber sweep exceeded {checks - 1} divisibility checks\n")


def test_a_tripped_sweep_lists_no_images(capsys, ex_file, monkeypatch):
    """The sweep's walk runs before the first image group is made, so a
    budget that trips in the walk makes none of them."""
    def listed(*args):
        raise AssertionError("the images were listed before the budget tripped")

    monkeypatch.setattr(toric, "_image_groups", listed)
    assert run(capsys, "verify", ex_file, "--bound", "6", "--max-vertices", "10") == (
        3, "", "error: fiber sweep exceeded 10 vertices\n")


def test_fiber_graph_check_budget_boundary(capsys, ex_file):
    """`fiber-graph` charges the enumeration checks plus one check per
    lead-table key each vertex looks up: exactly that total passes, one less
    trips."""
    M = parse_monomial("x2*x3*x5", 5)
    chain = parse_family(EX_FAMILY)
    for argv, setup, mu, beta, quads, pinned in (
            (("--single", "x2*x3*x5", "-n", "5", "--mu", "x1*x2^2*x3^2*x5",
              "-k", "2"), FiberSetup.single(M),
             parse_monomial("x1*x2^2*x3^2*x5", 5), 2, quadrics_single(M), 17),
            ((ex_file, "x1^2*x2^3*x3^3*x4^2", "t2*t3*t4"),
             FiberSetup.for_family(chain), parse_monomial("x1^2*x2^3*x3^3*x4^2", 4),
             (0, 1, 1, 1, 0), quadrics_multi(chain).all(), 448)):
        budget = _Budget()
        vertices = _enumerate(setup, mu, setup.beta_tuple(beta), budget)
        total = budget.checks + sum(map(lead_table_keys, vertices))
        assert total == pinned
        rc, _, err = run(capsys, "fiber-graph", *argv, "--max-checks", str(total))
        assert (rc, err) == (0, "")
        assert run(capsys, "fiber-graph", *argv, "--max-checks", str(total - 1)) == (
            3, "", f"error: fiber exceeded {total - 1} divisibility checks\n")


def _enumerates_within(setup, mu, cap):
    try:
        enumerate_fiber(setup, mu, 2, max_checks=cap)
    except ResourceLimitError:
        return False
    return True


def test_each_route_reads_only_its_own_caps(capsys, tri_file):
    """`verify` hands each route only its own caps: zero fiber caps leave
    an S-pair run's bytes and exit code as they were, and a zero step cap a
    fiber sweep's, on a passing closure and on the failing triangle."""
    for source, rc in ((("--single", "x2*x3*x5", "-n", "5"), 0), ((tri_file,), 1)):
        for method, others in (
                ("spairs", ("--max-vertices", "0", "--max-checks", "0")),
                ("fibers", ("--max-steps", "0"))):
            argv = ("verify", *source, "--method", method)
            want = run(capsys, *argv)
            assert want[0] == rc and f"certificate: {method}" in want[1]
            assert run(capsys, *argv, *others) == want, (source, method)


def test_max_steps_is_a_verify_flag_only(capsys, ex_file):
    """`fiber-graph` runs no S-pair reduction, so it has no `--max-steps`:
    its help leaves the flag out and the flag is an unrecognized argument."""
    for command, listed in (("fiber-graph", False), ("verify", True)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--max-steps" in capsys.readouterr().out) == listed
    with pytest.raises(SystemExit) as exc:
        main(["fiber-graph", ex_file, "x1", "t1", "--max-steps", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --max-steps 5\n")


def test_base_zero_round_trip(capsys):
    rc, out, _ = run(capsys, "closure", "x1^2", "-n", "2", "--base", "0")
    assert (rc, out) == (0, "x1^2\nx0*x1\nx0^2\n")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """README.md's family file, and (argv, stdout) for every `$ borelgb`
    line of its shell blocks that is followed by output."""
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    family, examples = None, []
    for lang, _, body in (b.partition("\n") for b in blocks):
        if lang == "" and body.startswith("vars ="):
            family = body
        if lang != "sh":
            continue
        argv, out = None, []
        for line in body.splitlines() + [""]:
            if argv is not None and line and not line.startswith(("$", "#")):
                out.append(line + "\n")
                continue
            if argv is not None and out:
                examples.append((argv, "".join(out)))
            argv = shlex.split(line[2:])[1:] if line.startswith("$ borelgb ") else None
            out = []
    return family, examples


def test_readme_examples(capsys, tmp_path, monkeypatch):
    family, examples = readme_examples()
    (tmp_path / "family.txt").write_text(family)
    monkeypatch.chdir(tmp_path)
    assert len(examples) == 8
    for argv, want in examples:
        assert run(capsys, *argv) == (0, want, ""), argv


def test_python_dash_m_runs_the_cli():
    """`python -m borelgb` runs `cli.main` and passes its exit code through."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(borelgb.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "borelgb", "closure", "x2^2", "-n", "2"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "x2^2\nx1*x2\nx1^2\n", "")
    proc = subprocess.run([sys.executable, "-m", "borelgb", "closure", "x3", "-n", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "borelgb.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run(["borelgb", "closure", "x2^2", "-n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "x2^2\nx1*x2\nx1^2\n"
