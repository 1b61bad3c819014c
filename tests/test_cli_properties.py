"""Property test of the command line: every argument list drawn from the CLI
grammar ends with one of the documented exit codes (0 pass, 1 check failed,
2 bad input, 3 budget exceeded) and lets no other exception escape."""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from borelgb.cli import main

FAMILIES = {
    "triangle": """vars = 3
ideal I1: support = x1,x2 ; generator = x2
ideal I2: support = x1,x3 ; generator = x3
ideal I3: support = x2,x3 ; generator = x3
""",
    "example": """vars = 4
ideal I1: support = x4 ; generator = x4
ideal I2: support = x3,x4 ; generator = x3*x4
ideal I3: support = x2,x3,x4 ; generator = x3*x4
ideal I4: support = x1,x2,x3 ; generator = x1*x2*x3
ideal I5: support = x1,x2 ; generator = x1*x2^2
""",
    "nonreduced": """vars = 4
ideal I1: support = x3,x4 ; generator = x2*x4
ideal I2: support = x1,x2 ; generator = x3
""",
    "unmovable": """vars = 2
base = 0
ideal A: support = ; generator = x0*x1
""",
    "malformed": "vars = 2\nideal A: support = x1 ; generator = x1^^2\n",
    "empty": "vars = 2\n",
}
# Each family's ambient variable count and block count; "missing" names no file.
SHAPES = {"triangle": (3, 3), "example": (4, 5), "nonreduced": (4, 2),
          "unmovable": (2, 1), "malformed": (2, 1), "empty": (2, 0),
          "missing": (2, 1)}

BAD_MONOMIALS = ("", "x1^^2", "y1", "x0", "x9", "x1^0", "x1*", "1*x1")


@pytest.fixture(scope="module")
def family_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    paths = {"missing": str(root / "missing.fam")}
    for name, text in FAMILIES.items():
        path = root / f"{name}.fam"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@st.composite
def monomials(draw, n, base=1):
    """Monomial text over n variables of degree at most 4, or a malformed one."""
    if n < 1 or draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(BAD_MONOMIALS + ("1",)))
    exps = [0] * n
    for _ in range(draw(st.integers(0, 4))):
        exps[draw(st.integers(0, n - 1))] += 1
    parts = [f"x{p + base}" + (f"^{e}" if e > 1 else "")
             for p, e in enumerate(exps) if e]
    return "*".join(parts) or "1"


@st.composite
def tdegrees(draw, r):
    powers = [draw(st.integers(0, 2)) for _ in range(r)]
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(("", "t0", f"t{r + 1}", "t1^^2")))
    parts = [f"t{i}" + (f"^{c}" if c > 1 else "")
             for i, c in enumerate(powers, start=1) if c]
    return "*".join(parts) or "1"


def ambient(draw):
    """Mostly 1..4 variables; now and then none or a negative count."""
    return draw(st.sampled_from((1, 2, 3, 4, 2, 3, 4, 0, -1)))


def limit_flags(draw):
    flags = []
    for flag, top in (("--max-vertices", 50), ("--max-checks", 2000),
                      ("--max-steps", 200)):
        if draw(st.booleans()):
            flags += [flag, str(draw(st.integers(-1, top)))]
    return flags


def single_flags(draw):
    """--single mode flags; returns (flags, n, base)."""
    n = ambient(draw)
    base = draw(st.sampled_from((0, 1)))
    return (["--single", draw(monomials(n, base)), "-n", str(n),
             "--base", str(base),
             "--form", draw(st.sampled_from(("exchange", "sorted")))], n, base)


@st.composite
def argument_lists(draw):
    """(argv, family name or None); the family file path goes first in argv."""
    command = draw(st.sampled_from(("closure", "sort", "tmin", "fiber-graph",
                                    "verify", "lfree", "reduce", "quadrics")))
    family = draw(st.sampled_from(sorted(SHAPES)))
    fn, fr = SHAPES[family]
    single = draw(st.booleans())
    if command == "closure":
        n = ambient(draw)
        base = draw(st.sampled_from((0, 1)))
        argv = [command, draw(monomials(n, base)), "-n", str(n), "--base", str(base)]
        if draw(st.booleans()):
            picks = draw(st.lists(st.integers(base - 1, n + base), max_size=4))
            argv += ["--support", ",".join(f"x{p}" for p in picks) or "x"]
        return argv, None
    if command == "sort":
        n = ambient(draw)
        argv = [command, draw(monomials(n)), draw(monomials(n)),
                str(draw(st.integers(-1, 3))), "-n", str(n)]
        return argv, None
    if command == "tmin":
        return [command, draw(monomials(fn)), draw(tdegrees(fr))], family
    if command in ("lfree", "reduce"):
        argv = [command]
        if command == "lfree":
            argv += [flag for flag in ("--find-order", "--chordal")
                     if draw(st.booleans())]
        return argv, family
    if command == "quadrics":
        if single:
            return [command] + single_flags(draw)[0], None
        return [command], family
    if command == "fiber-graph":
        if single:
            flags, n, base = single_flags(draw)
            argv = [command] + flags + ["--mu", draw(monomials(n, base)),
                                        "-k", str(draw(st.integers(0, 3)))]
        else:
            argv = [command, draw(monomials(fn)), draw(tdegrees(fr))]
        if draw(st.booleans()):
            argv.append("--dot")
        return argv + limit_flags(draw), None if single else family
    argv = [command, "--method", draw(st.sampled_from(("fibers", "spairs"))),
            "--bound", str(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        argv += ["--jobs", str(draw(st.integers(0, 1)))]
    if single:
        argv += single_flags(draw)[0]
    return argv + limit_flags(draw), None if single else family


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@given(argument_lists())
def test_every_argument_list_ends_with_a_documented_exit_code(family_paths, drawn):
    argv, family = drawn
    if family is not None:
        argv = argv[:1] + [family_paths[family]] + argv[1:]
    assert run_main(argv) in (0, 1, 2, 3)
