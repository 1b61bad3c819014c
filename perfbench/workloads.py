"""The benchmark's inputs: three workloads of pinned commands, and a small
random batch drawn from the seed.

Each workload is a closed loop: one process runs its commands one after
another, each through `borelgb.cli.main` in-process, except the C2 fiber,
which has no CLI command and goes through `enumerate_fiber`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHAIN = os.path.join(HERE, "inputs", "chain.fam")
TRIANGLE = os.path.join(HERE, "inputs", "triangle.fam")


@dataclass(frozen=True)
class Cert:
    """A quadric set to certify: one closure (`single`, `n`) or a family file."""

    single: str | None = None
    n: int | None = None
    family: str | None = None
    form: str = "exchange"

    def label(self):
        if self.family is not None:
            return os.path.basename(self.family)
        form = "" if self.form == "exchange" else f" --form {self.form}"
        return f"--single {self.single} -n {self.n}{form}"

    def argv(self, *extra):
        if self.family is not None:
            head = ["verify", self.family]
        else:
            head = ["verify", "--single", self.single, "-n", str(self.n)]
            if self.form != "exchange":
                head += ["--form", self.form]
        return head + list(extra)

    def prepare(self, bg):
        """(FiberSetup, quadrics) built the way the CLI builds them."""
        if self.family is not None:
            with open(self.family, encoding="utf-8") as fh:
                family = bg.parse_family(fh.read())
            return bg.FiberSetup.for_family(family), bg.quadrics_multi(family).all()
        M = bg.parse_monomial(self.single, self.n)
        quads = (bg.quadrics_single(M) if self.form == "exchange"
                 else bg.quadrics_bs_form(M))
        return bg.FiberSetup.single(M), quads


@dataclass(frozen=True)
class Cli:
    """One CLI command.

    `cert` and `route` ("fibers" or "spairs") describe a `verify` command.
    The traced pass runs a serial fiber-route `verify` (`sweeps`) through the
    public API instead, because the CLI's sweep enumerates fibers through no
    public function.  `emits` marks commands whose output lines are closure
    members or quadrics, counted by `points_per_s`.
    """

    id: str
    argv: tuple
    cert: Cert | None = None
    route: str | None = None
    jobs: int = 1
    bound: int | None = None
    emits: bool = False
    pinned: bool = True

    @property
    def sweeps(self):
        return self.route == "fibers" and self.jobs == 1


@dataclass(frozen=True)
class Fiber:
    """One fiber enumerated through `enumerate_fiber` (single setup); its
    points count towards `points_per_s`."""

    route = None
    emits = False

    id: str
    pivot: str
    image: str
    k: int
    n: int
    base: int
    pinned: bool = True

    def prepare(self, bg):
        M = bg.parse_monomial(self.pivot, self.n, self.base)
        mu = bg.parse_monomial(self.image, self.n, self.base)
        return bg.FiberSetup.single(M, self.base), mu


BOUND = 3


def _fibers(cert, bound=BOUND, jobs=1, pinned=True):
    extra = ["--bound", str(bound)] + (["--jobs", str(jobs)] if jobs > 1 else [])
    return Cli(f"verify {cert.label()} {' '.join(extra)}", tuple(cert.argv(*extra)),
               cert=cert, route="fibers", jobs=jobs, bound=bound, pinned=pinned)


def _spairs(cert, pinned=True):
    return Cli(f"verify {cert.label()} --method spairs",
               tuple(cert.argv("--method", "spairs")), cert=cert,
               route="spairs", pinned=pinned)


CHAIN_CERT = Cert(family=CHAIN)
TRIANGLE_CERT = Cert(family=TRIANGLE)
C2 = Fiber("C2 fiber x1*x3^2*x4^2 k=6", "x1*x3^2*x4^2",
           "x0^2*x1^5*x2^13*x3^7*x4^3", 6, 5, 0)


def _closure_cmds(cert, pinned=True):
    """Generation-only commands for one certificate input."""
    if cert.family is not None:
        return [Cli(f"quadrics {cert.label()}", ("quadrics", cert.family),
                    emits=True, pinned=pinned)]
    n = str(cert.n)
    return [Cli(f"closure {cert.single} -n {n}", ("closure", cert.single, "-n", n),
                emits=True, pinned=pinned),
            Cli(f"quadrics --single {cert.single} -n {n}",
                ("quadrics", "--single", cert.single, "-n", n),
                emits=True, pinned=pinned)]


# Why each workload exists; BENCHMARK.json repeats these in one line each.
#  fibers-serial: the edge build dominates; the single closure uses the same
#    layers as a family but with exact factorizations; no S-pair code runs.
#  spairs: reduction is nearly all the cost and nothing is enumerated.
#  closure-enumerate: closure, sorting, enumeration and quadric generation do
#    all the work, with no lead test and no reduction.
# A pass takes a few seconds, so a run's median is over many passes; inputs
# whose single run takes ten seconds or more (the chain family at bound 3,
# `x2*x4*x5` and `x3^2*x5^2` by S-pairs) would leave two or three samples a
# run, too few to steady the medians on a shared machine.
CHAIN_BOUND = 2
PINNED = {
    "fibers-serial": [
        _fibers(CHAIN_CERT, bound=CHAIN_BOUND),
        _fibers(Cert(single="x2*x3*x5", n=5)),
        _fibers(TRIANGLE_CERT),
    ],
    "spairs": [
        _spairs(Cert(single="x2*x4*x5", n=5, form="sorted")),
        _spairs(Cert(single="x2*x3*x5", n=5, form="sorted")),
        _spairs(Cert(single="x2*x3*x4", n=4)),
        _spairs(CHAIN_CERT),
        _spairs(TRIANGLE_CERT),
    ],
    "closure-enumerate": [
        Cli("closure x6^16 -n 6", ("closure", "x6^16", "-n", "6"), emits=True),
        Cli("sort C1 golden", ("sort", "x1*x3^2*x4^2", "x0^2*x1^5*x2^13*x3^7*x4^3",
                               "6", "-n", "5", "--base", "0")),
        C2,
        Cli("quadrics --single x3^2*x5^2 -n 5",
            ("quadrics", "--single", "x3^2*x5^2", "-n", "5"), emits=True),
        Cli("quadrics --single x3^2*x5^2 -n 5 --form sorted",
            ("quadrics", "--single", "x3^2*x5^2", "-n", "5", "--form", "sorted"),
            emits=True),
    ],
}
# The only path through the process pool.  On a shared 2-CPU machine its wall
# time spreads too widely for an end-to-end bound, so it is not a workload of
# its own: the traced fibers-serial run times it once for the pool metrics.
POOL = _fibers(CHAIN_CERT, bound=CHAIN_BOUND, jobs=2)


def workload_commands(name, batch):
    """The pinned commands of a workload followed by its random-batch commands."""
    if name == "fibers-serial":
        extra = [_fibers(c, pinned=False) for c in batch]
    elif name == "spairs":
        extra = [_spairs(c, pinned=False) for c in batch]
    else:
        extra = [cmd for c in batch for cmd in _closure_cmds(c, pinned=False)]
    return PINNED[name] + extra


def _text(exps):
    return "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                    for i, e in enumerate(exps, start=1) if e)


# Fixed batch shape.  Closures of degree 3 in 3 variables and two-block
# interval families in 3 variables keep the batch to a few percent of a
# pass whatever the draw, so the seed moves the timings little.
SINGLES, SINGLE_N, SINGLE_DEG = 2, 3, 3
FAMILIES, FAMILY_N, FAMILY_R, FAMILY_DEG = 2, 3, 2, 2


def random_batch(seed, out_dir):
    """Certificate inputs drawn from the seed: closures and interval families.

    Every closure is principal Borel and every family has nested-start
    interval supports (L-free in the given order), so both routes should
    pass; what is checked is that the fiber route at bound 3 and the S-pair
    route agree.  Family files are written to `out_dir`.
    """
    rng = random.Random(seed)
    batch = []
    for _ in range(SINGLES):
        exps = [0] * SINGLE_N
        exps[-1] = 1
        for _ in range(SINGLE_DEG - 1):
            exps[rng.randrange(SINGLE_N)] += 1
        batch.append(Cert(single=_text(exps), n=SINGLE_N))
    for idx in range(FAMILIES):
        lo = sorted((rng.randint(1, FAMILY_N) for _ in range(FAMILY_R)), reverse=True)
        hi = sorted((rng.randint(1, FAMILY_N) for _ in range(FAMILY_R)), reverse=True)
        lines = [f"vars = {FAMILY_N}"]
        for j in range(FAMILY_R):
            a, b = lo[j], max(lo[j], hi[j])
            # The generator uses the interval's top variable, so the family
            # is reduced.
            exps = [0] * FAMILY_N
            exps[b - 1] = 1
            for _ in range(rng.randint(0, FAMILY_DEG - 1)):
                exps[rng.randint(a, b) - 1] += 1
            support = ",".join(f"x{p}" for p in range(a, b + 1))
            lines.append(f"ideal I{j + 1}: support = {support} ; "
                         f"generator = {_text(exps)}")
        path = os.path.join(out_dir, f"random-{seed}-{idx}.fam")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        batch.append(Cert(family=path))
    return batch
