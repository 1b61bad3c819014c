"""Command-line interface: inspect closures, sorted factorizations, fibers,
quadric sets, and run the Gröbner certificates from the shell.

Exit codes: 0 success (and verification passes), 1 a verification or
staircase check failed, 2 malformed input, 3 a resource budget was exceeded.
All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .borel import closure_texts
from .families import (incidence_matrix, find_lfree_column_order,
                       is_chordal_bipartite, lfree_witness, parse_family,
                       parse_support, reduce_family, serialize_family)
from .monomials import ParseError, parse_monomial, parse_power_product
from .quadrics import quadrics_bs_form, quadrics_multi, quadrics_single
from .sorting import borel_sort
from .toric import (MAX_CHECKS, MAX_STEPS, MAX_VERTICES, FiberSetup,
                    ResourceLimitError, SpairLimitError, fiber_graph,
                    spair_certificate, t_min, to_dot, verify_groebner_by_fibers)


def _read_family(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_family(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read family file {path}: {exc.strerror}")


def _parse_beta(text, r):
    return parse_power_product(text, "t", r, base=1)


def _reduced_family(path):
    family = _read_family(path)
    if not family.is_reduced():
        raise ParseError("family is not reduced (run 'borelgb reduce' first)")
    return family


def _single_quadrics(M, form):
    return quadrics_single(M) if form == "exchange" else quadrics_bs_form(M)


def _read_input(args):
    """(base, quadrics, build_setup) of a single-closure or family command."""
    if args.single is not None:
        M = parse_monomial(args.single, args.n, args.base)
        return (args.base, _single_quadrics(M, args.form),
                functools.partial(FiberSetup.single, M, args.base))
    if args.family is None:
        raise ParseError("need a family file or --single")
    family = _reduced_family(args.family)
    if not family.entries:  # no route may PASS having examined nothing
        raise ParseError("setup needs a family with at least one ideal")
    return (family.base, quadrics_multi(family).all(),
            functools.partial(FiberSetup.for_family, family))


def cmd_closure(args):
    """Stream the closure, one text block per column of its walk.  The
    output itself bounds the run: memory stays that of one column and of
    each position's factor texts, so no budget applies."""
    M = parse_monomial(args.monomial, args.n, args.base)
    support = (None if args.support is None
               else parse_support(args.support, args.n, args.base))
    write = sys.stdout.write
    for block in closure_texts(M.exps, support, args.base):
        write(block)
    return 0


def cmd_sort(args):
    M = parse_monomial(args.generator, args.n, args.base)
    mu = parse_monomial(args.product, args.n, args.base)
    for f in borel_sort(M, mu, args.k):
        print(f.text(args.base))
    return 0


def cmd_tmin(args):
    family = _reduced_family(args.family)
    mu = parse_monomial(args.image, family.n, family.base)
    beta = _parse_beta(args.tdegrees, family.r)
    point = t_min(family, mu, beta)
    if point is None:
        print("UNDEFINED")
    else:
        print(point.label(family.base))
    return 0


def cmd_fiber_graph(args):
    single = args.single is not None
    if single and (args.mu is None or args.k is None):
        raise ParseError("single mode needs --mu and -k")
    if not single and (args.family is None or args.mu_arg is None
                       or args.tdegrees is None):
        raise ParseError("need FAMILY IMAGE TDEGREES, or --single with --mu/-k")
    base, quads, build_setup = _read_input(args)
    setup = build_setup()
    mu = parse_monomial(args.mu if single else args.mu_arg, setup.n, base)
    beta = args.k if single else _parse_beta(args.tdegrees, len(setup.blocks))
    graph = fiber_graph(setup, mu, beta, quads, max_vertices=args.max_vertices,
                        max_checks=args.max_checks)
    if args.dot:
        sys.stdout.write(to_dot(graph, base))
        return 0
    for i, v in enumerate(graph.vertices):
        print(f"v{i}: {v.label(base)}")
    for u, v, qi in graph.edges:
        print(f"v{u} -> v{v} [q{qi}]")
    sinks = set(graph.sinks())
    sink_ids = [i for i, v in enumerate(graph.vertices) if v in sinks]
    print("sinks: " + " ".join(f"v{i}" for i in sink_ids))
    return 0


def cmd_verify(args):
    base, quads, build_setup = _read_input(args)
    if args.method == "fibers":
        report = verify_groebner_by_fibers(build_setup(), quads, args.bound,
                                           max_vertices=args.max_vertices,
                                           max_checks=args.max_checks)
    else:
        try:
            report = spair_certificate(quads, max_steps=args.max_steps)
        except SpairLimitError as exc:  # name the pair as the FAIL line would
            raise ResourceLimitError(exc.text(base)) from None
    for line in report.lines(base):
        print(line)
    return 0 if report.passed else 1


def cmd_lfree(args):
    family = _read_family(args.family)
    matrix = incidence_matrix(family)
    witness = lfree_witness(matrix)
    order = find_lfree_column_order(matrix) if args.find_order else None
    chordal = is_chordal_bipartite(matrix) if args.chordal else None
    for line in matrix.to_lines(family.base):
        print(line)
    if witness is None:
        print("LFREE")
    else:
        h, j, u, v = witness
        print(f"NOT-LFREE rows {family.var_name(h)},{family.var_name(j)} "
              f"cols {matrix.col_names[u - 1]},{matrix.col_names[v - 1]}")
    if args.find_order:
        if order is None:
            print("no-order")
        else:
            print("order: " + ",".join(matrix.col_names[j] for j in order))
        failed = order is None
    else:
        failed = witness is not None
    if args.chordal:
        if chordal:
            print("CHORDAL-BIPARTITE")
        else:
            print("NOT-CHORDAL-BIPARTITE")
            failed = True
    return 1 if failed else 0


def cmd_reduce(args):
    family = _read_family(args.family)
    reduced, stripped = reduce_family(family)
    sys.stdout.write(serialize_family(reduced))
    for e, m in zip(family.entries, stripped):
        print(f"# stripped {e.name}: {m.text(family.base)}")
    return 0


def cmd_quadrics(args):
    if args.single is not None:
        M = parse_monomial(args.single, args.n, args.base)
        write = sys.stdout.write
        for text in _single_quadrics(M, args.form).texts(args.base):
            write(text + "\n")
        return 0
    if args.family is None:
        raise ParseError("need a family file or --single")
    family = _reduced_family(args.family)
    quads = quadrics_multi(family)
    write = sys.stdout.write
    for shape in ("symmetric", "fiber_principal", "fiber_biprincipal"):
        for text in getattr(quads, shape).texts(family.base):
            write(f"{shape} {text}\n")
    return 0


def _add_single_flags(sub):
    sub.add_argument("--single", metavar="MONOMIAL",
                     help="single-closure mode: the principal generator")
    sub.add_argument("-n", type=_int_at_least(1),
                     help="ambient variable count (single mode)")
    sub.add_argument("--base", type=int, choices=(0, 1), default=1,
                     help="first variable name is x{base} (single mode; default 1)")
    sub.add_argument("--form", choices=("exchange", "sorted"), default="exchange",
                     help="single-mode quadric set (default: exchange)")


def _int_at_least(low):
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in its errors
    return parse


def _shown(cap):
    """A default cap as help text shows it: a power of ten from 10^7 up as
    10^k, any other cap in digits."""
    k = len(str(cap)) - 1
    return f"10^{k}" if k >= 7 and cap == 10 ** k else str(cap)


def _add_limit_flags(sub, vertices, checks):
    """The fiber budget flags, with their help text given per command."""
    budget = _int_at_least(0)
    sub.add_argument("--max-vertices", type=budget, default=MAX_VERTICES,
                     help=f"{vertices} (default {_shown(MAX_VERTICES)})")
    sub.add_argument("--max-checks", type=budget, default=MAX_CHECKS,
                     help=f"{checks} (default {_shown(MAX_CHECKS)})")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="borelgb",
        description="Borel closures, sorted factorizations, and quadratic "
                    "Gröbner certificates for their toric rings.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("closure", help="list a (support-restricted) Borel closure")
    p.add_argument("monomial")
    p.add_argument("-n", type=_int_at_least(1), required=True,
                   help="ambient variable count")
    p.add_argument("--base", type=int, choices=(0, 1), default=1)
    p.add_argument("--support", help="comma-separated variables, e.g. x3,x4")
    p.set_defaults(func=cmd_closure)

    p = subs.add_parser("sort", help="sorted factorization into k closure members")
    p.add_argument("generator", help="the principal generator M")
    p.add_argument("product", help="the monomial to factor")
    p.add_argument("k", type=int, help="number of factors")
    p.add_argument("-n", type=_int_at_least(1), required=True)
    p.add_argument("--base", type=int, choices=(0, 1), default=1)
    p.set_defaults(func=cmd_sort)

    p = subs.add_parser("tmin", help="least fiber point of a reduced family")
    p.add_argument("family", help="family file")
    p.add_argument("image", help="the x-monomial image")
    p.add_argument("tdegrees", help="block T-degrees, e.g. t1*t2^2 (or 1)")
    p.set_defaults(func=cmd_tmin)

    p = subs.add_parser("fiber-graph", help="print one fiber's rewriting graph")
    p.add_argument("family", nargs="?", help="family file (multi mode)")
    p.add_argument("mu_arg", nargs="?", metavar="image",
                   help="x-monomial image (multi mode)")
    p.add_argument("tdegrees", nargs="?", help="block T-degrees (multi mode)")
    _add_single_flags(p)
    p.add_argument("--mu", help="image monomial (single mode)")
    p.add_argument("-k", type=int, help="number of factors (single mode)")
    p.add_argument("--dot", action="store_true", help="emit Graphviz text")
    _add_limit_flags(p, "per-fiber vertex budget",
                     "per-fiber divisibility-check budget for the fiber route")
    p.set_defaults(func=cmd_fiber_graph)

    p = subs.add_parser("verify", help="run a Gröbner certificate")
    p.add_argument("family", nargs="?", help="family file (multi mode)")
    _add_single_flags(p)
    p.add_argument("--method", choices=("fibers", "spairs"), default="fibers")
    p.add_argument("--bound", type=int, default=3,
                   help="total T-degree bound for the fiber sweep (default 3)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="accepted; the sweep runs in one process")
    _add_limit_flags(p, "standard points the whole fiber sweep may find",
                     "candidate T-variables the whole fiber sweep may try")
    p.add_argument("--max-steps", type=_int_at_least(0), default=MAX_STEPS,
                   help="rewrite-step budget for the whole S-pair run, "
                        f"all pairs together (default {_shown(MAX_STEPS)})")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("lfree", help="staircase checks on the incidence matrix")
    p.add_argument("family", help="family file")
    p.add_argument("--find-order", action="store_true",
                   help="search for an L-free column order")
    p.add_argument("--chordal", action="store_true",
                   help="also decide chordal bipartiteness")
    p.set_defaults(func=cmd_lfree)

    p = subs.add_parser("reduce", help="strip inert variable mass from a family")
    p.add_argument("family", help="family file")
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("quadrics", help="list the quadric generating set")
    p.add_argument("family", nargs="?", help="family file (multi mode)")
    _add_single_flags(p)
    p.set_defaults(func=cmd_quadrics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "single", None) is not None and args.n is None:
            raise ParseError("--single requires -n")
        return args.func(args)
    except ValueError as exc:  # ParseError and AmbientMismatch among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
