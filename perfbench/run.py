"""borelgb benchmark: the time to reach a certificate verdict.

Run from the repository root, standard library only:

    python3 perfbench/run.py --workload fibers-serial --seed 1 --seconds 30 --trace 0

With `--trace 0` it repeats untraced passes over the workload's commands for
`--seconds` and reports the end-to-end metrics (medians over passes):
`wall_ref` and `cpu_ref`, a pass's wall and CPU time in units of a fixed
calibration loop timed around each command (see `calibrate`), `setup_s` and
`peak_rss_mb`; the raw seconds are printed beside them.  With
`--trace 1` it alternates untraced and traced passes and reports per-layer
metrics from spans around borelgb's public calls; the spans are written to
`perfbench/out/`.  Every command's exit code, stdout digest and counts are
checked against `expected.json`, pinned by `--pin`; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback

import spans
import workloads
from workloads import BOUND, Fiber

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
SETUPS_PER_PASS = 2
CALIBRATION_KEYS = 20000
CALIBRATION_ROUNDS = 2
FAIL_RE = re.compile(r"^FAIL .* sinks=(\d+)$", re.M)


def load_package():
    """Import borelgb afresh (drops any loaded copy) and return it with its CLI."""
    for name in [m for m in sys.modules
                 if m == "borelgb" or m.startswith("borelgb.")]:
        del sys.modules[name]
    return importlib.import_module("borelgb"), importlib.import_module("borelgb.cli")


def setup_once(cmds):
    """Import, parse, build every FiberSetup and quadric set: all work done
    before the first image or S-pair.  Returns (seconds, package, cli)."""
    t0 = time.perf_counter()
    bg, cli = load_package()
    for cmd in cmds:
        if isinstance(cmd, Fiber):
            cmd.prepare(bg)
        elif cmd.cert is not None:
            cmd.cert.prepare(bg)
    return time.perf_counter() - t0, bg, cli


def timed_setup(cmds):
    """Seconds of one `setup_once`, after which the borelgb modules loaded
    before it are put back, so the passes and their tracer keep using them."""
    loaded = {name: mod for name, mod in sys.modules.items()
              if name == "borelgb" or name.startswith("borelgb.")}
    seconds = setup_once(cmds)[0]
    sys.modules.update(loaded)
    return seconds


def cpu_now():
    return (spans.cpu_seconds(resource.RUSAGE_SELF)
            + spans.cpu_seconds(resource.RUSAGE_CHILDREN))


def sweep(cert, bound, bg, tracer):
    """The fiber route through the public API: the sinks of every fiber up to
    the bound, computed here from `fiber_graph` edges."""
    setup, quads = cert.prepare(bg)
    images = bg.iterate_images(setup, bound)
    failures = []
    for mu, beta in images:
        points = bg.enumerate_fiber(setup, mu, beta)
        if len(points) <= 1:
            continue
        graph = bg.fiber_graph(setup, mu, beta, quads, vertices=points)
        with tracer.span("toric.sinks"):
            sinks = len(points) - len({u for u, _, _ in graph.edges})
        if sinks != 1:
            failures.append(sinks)
    return {"images": len(images), "quadrics": len(quads), "failures": failures}


def run_command(cmd, bg, cli, tracer, traced):
    """Run one command; returns its raw outcome, summarised after the pass."""
    try:
        if isinstance(cmd, Fiber):
            setup, mu = cmd.prepare(bg)
            return {"points": len(bg.enumerate_fiber(setup, mu, cmd.k))}
        if traced and cmd.sweeps:
            return sweep(cmd.cert, cmd.bound, bg, tracer)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(cmd.argv))
        return {"exit": code, "stdout": buf.getvalue()}
    except Exception:  # a traceback is a failed command, not a failed run
        traceback.print_exc(file=sys.stderr)
        return {"error": traceback.format_exc(limit=1)}


def summarise(cmd, raw, span_list):
    """The checked record of one command: exit code, stdout digest, counts."""
    rec = dict(raw)
    out = rec.pop("stdout", None)
    if out is not None:
        rec["sha256"] = hashlib.sha256(out.encode()).hexdigest()
        rec["lines"] = out.count("\n")
        if cmd.route == "fibers":
            rec["failures"] = [int(s) for s in FAIL_RE.findall(out)]
    for name, _, _, _, _, info in span_list:
        if name in ("toric.verify", "toric.spairs"):
            rec.update({k: v for k, v in info.items()
                        if k in ("images", "quadrics", "pairs_checked",
                                 "pairs_skipped")})
        elif name == "toric.enumerate" and "points" not in rec:
            rec["fiber_points"] = rec.get("fiber_points", 0) + info["count"]
            rec["fiber_max"] = max(rec.get("fiber_max", 0), info["count"])
        elif name == "toric.edges":
            rec["lead_tests"] = rec.get("lead_tests", 0) + info["lead_tests"]
            rec["edges"] = rec.get("edges", 0) + info["edges"]
            rec["multi_point_fibers"] = rec.get("multi_point_fibers", 0) + 1
    return rec


def run_pass(cmds, bg, cli, tracer, traced, between=None):
    """One timed pass over the commands: (wall s, CPU s, records, wall s of
    each command, CPU s of each command, results of `between`).  `between`,
    if given, is called untimed before each command and after the last."""
    gc.collect()
    raws, walls, cpus, marks = [], [], [], []
    with tracer.installed():
        for i, cmd in enumerate(cmds):
            if between is not None:
                marks.append(between())
            tracer.input_id = i
            lo, c0, t0 = len(tracer.spans), cpu_now(), time.perf_counter()
            raw = run_command(cmd, bg, cli, tracer, traced)
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_now() - c0)
            raws.append((lo, raw, len(tracer.spans)))
        if between is not None:
            marks.append(between())
    records = [summarise(cmd, raw, tracer.spans[lo:hi])
               for cmd, (lo, raw, hi) in zip(cmds, raws)]
    return sum(walls), sum(cpus), records, walls, cpus, marks


class Checker:
    """Counts attempted and failed commands.  A pinned command must match its
    pinned record exactly; every command must repeat its own earlier values,
    traced or not, and end with exit code 0 or 1."""

    def __init__(self, expected):
        self.expected = expected
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, cmd, rec, mode):
        self.attempted += 1
        ok = rec.get("exit", 0) in (0, 1) and "error" not in rec
        if cmd.pinned:
            want = self.expected.get(cmd.id, {}).get(mode)
            ok = ok and rec == want
        ref = self.seen.setdefault(cmd.id, {})
        for key, value in rec.items():
            if ref.setdefault(key, value) != value:
                ok = False
        if not ok:
            self.failed += 1
            self.problems.append(f"{mode} {cmd.id}: {rec}")

    def agree(self, label, fibers_code, spairs_code):
        """Random-batch verdict: both routes agree and neither errs or trips."""
        self.attempted += 1
        if fibers_code != spairs_code or fibers_code not in (0, 1):
            self.failed += 1
            self.problems.append(f"routes disagree on {label}: fibers exit "
                                 f"{fibers_code}, spairs exit {spairs_code}")


def cross_check(batch, cli, checker):
    """Outside the timed passes: the fiber route at the bound and the S-pair
    route must reach the same verdict on every random input."""
    for cert in batch:
        codes = []
        for extra in (("--bound", str(BOUND)), ("--method", "spairs")):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    codes.append(cli.main(cert.argv(*extra)))
                except Exception as exc:  # noqa: BLE001 - recorded as a failure
                    codes.append(repr(exc))
        checker.agree(cert.label(), *codes)


def quantile(values, q):
    """The q-quantile by the nearest-rank rule (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(span_list, passes):
    """Per-layer numbers per traced pass.  A layer's time is the wall inside
    its outermost spans (nested spans of the same layer are not counted
    twice), so it includes the calls it makes into other layers; `cli.self_s`
    is `cli.main` minus its traced children."""
    groups = {"toric.edges_s": {"toric.edges"}, "toric.enumerate_s": {"toric.enumerate"},
              "toric.images_s": {"toric.images"}, "toric.sinks_s": {"toric.sinks"},
              "toric.spairs_s": {"toric.spairs"},
              "borel.closure_s": {"borel.closure", "borel.setup"},
              "quadrics.generate_s": {"quadrics.generate"},
              "sorting.sort_s": {"sorting.sort"}}
    times = dict.fromkeys(groups, 0.0)
    child_time = [0] * len(span_list)
    for name, start, end, parent, _, _ in span_list:
        if parent >= 0:
            child_time[parent] += end - start
    cli_self = 0
    for i, (name, start, end, parent, _, _) in enumerate(span_list):
        if name == "cli.main":
            cli_self += end - start - child_time[i]
        for metric, names in groups.items():
            if name not in names:
                continue
            p = parent
            while p >= 0 and span_list[p][0] not in names:
                p = span_list[p][3]
            if p < 0:
                times[metric] += (end - start) / 1e9

    def infos(name):
        return [s[5] for s in span_list if s[0] == name]

    edges = infos("toric.edges")
    enum = [s for s in span_list if s[0] == "toric.enumerate"]
    spairs_ = infos("toric.spairs")
    lead_tests = sum(i["lead_tests"] for i in edges)
    n_edges = sum(i["edges"] for i in edges)
    checked = sum(i["pairs_checked"] for i in spairs_)
    skipped = sum(i["pairs_skipped"] for i in spairs_)
    per = {k: v / passes for k, v in times.items()}
    per.update({
        "toric.lead_tests": lead_tests / passes,
        "toric.edges": n_edges / passes,
        "toric.edge_hit_ratio": n_edges / lead_tests if lead_tests else 0.0,
        "toric.fiber_points": sum(s[5]["count"] for s in enum) / passes,
        "toric.fiber_max": max((s[5]["count"] for s in enum), default=0),
        "toric.enumerate_p99_ms": quantile([(s[2] - s[1]) / 1e6 for s in enum], 0.99),
        "toric.images": sum(i["count"] for i in infos("toric.images")) / passes,
        "toric.multi_point_fibers": len(infos("toric.sinks")) / passes,
        "toric.pairs_checked": checked / passes,
        "toric.pairs_skipped": skipped / passes,
        "toric.pair_skip_ratio": skipped / (checked + skipped) if checked + skipped else 0.0,
        "borel.closure_members": sum(i["count"] for i in infos("borel.closure")) / passes,
        "quadrics.count": sum(i["count"] for i in infos("quadrics.generate")) / passes,
        "sorting.sort_calls": len(infos("sorting.sort")) / passes,
        "cli.self_s": cli_self / 1e9 / passes,
        "trace.spans": len(span_list) / passes,
    })
    return per


# What each layer metric should move (ROADMAP directions 2-4), and where:
#  toric.edges_s, lead_tests, edges, edge_hit_ratio (fiber_graph): wall_s,
#    cpu_s and images_per_s on fibers-serial; zero on spairs and
#    closure-enumerate.
#  toric.enumerate_s, fiber_points, fiber_max, enumerate_p99_ms
#    (enumerate_fiber, per fiber): wall_s and points_per_s on
#    closure-enumerate (the C2 fiber) and part of fibers-serial.  Pruning can
#    cut fiber_points on fibers-serial, never on C2, which lists every point.
#  toric.images_s, images (iterate_images): a guard on the image count.
#  toric.sinks_s, multi_point_fibers (sinks from graph edges): fibers-serial.
#  toric.spairs_s, pairs_checked, pairs_skipped, pair_skip_ratio
#    (spair_certificate): wall_s and spairs_per_s on spairs; zero elsewhere.
#  toric.pool_* (verify_groebner_by_fibers with --jobs 2, traced
#    fibers-serial only): the pool path's CPU and its speed-up over the
#    traced serial sweep of the chain family.
#  borel.closure_s, closure_members (borel_closure, FiberSetup.single and
#    .for_family): setup_s everywhere, wall_s on closure-enumerate.
#  quadrics.generate_s, count: setup_s everywhere, wall_s on
#    closure-enumerate.  sorting.sort_s, sort_calls: closure-enumerate.
#  cli.self_s (cli.main minus its traced calls): closure-enumerate, which
#    prints over 20,000 lines.
# Layer times are per traced pass; throughputs come from the untraced passes
# of the traced run; a zero means the workload bypasses that layer.
PER_LAYER_UNITS = {
    "toric.edges_s": "s", "toric.lead_tests": "count", "toric.edges": "count",
    "toric.edge_hit_ratio": "ratio", "toric.enumerate_s": "s",
    "toric.fiber_points": "count", "toric.fiber_max": "count",
    "toric.enumerate_p99_ms": "ms", "toric.images_s": "s", "toric.images": "count",
    "toric.sinks_s": "s", "toric.multi_point_fibers": "count",
    "toric.spairs_s": "s", "toric.pairs_checked": "count",
    "toric.pairs_skipped": "count", "toric.pair_skip_ratio": "ratio",
    "toric.pool_parent_cpu_s": "s", "toric.pool_worker_cpu_s": "s",
    "toric.pool_speedup": "ratio", "borel.closure_s": "s",
    "borel.closure_members": "count", "quadrics.generate_s": "s",
    "quadrics.count": "count", "sorting.sort_s": "s", "sorting.sort_calls": "count",
    "cli.self_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "images_per_s": "1/s", "spairs_per_s": "1/s", "points_per_s": "1/s",
    "wall_s": "s", "cpu_s": "s",
}
END_TO_END_UNITS = {"wall_ref": "ratio", "cpu_ref": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def throughputs(cmds, records, wall):
    """Images, S-pairs and emitted points per wall second of an untraced pass."""
    images = sum(r.get("images", 0) for c, r in zip(cmds, records)
                 if c.route == "fibers")
    pairs = sum(r.get("pairs_checked", 0) for r in records)
    points = sum(r.get("points", 0) + (r.get("lines", 0) if c.emits else 0)
                 for c, r in zip(cmds, records))
    return {"images_per_s": images / wall, "spairs_per_s": pairs / wall,
            "points_per_s": points / wall}


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.PINNED))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="run every pinned command once, untraced and traced, "
                        "and write expected.json")
    args = p.parse_args(argv)
    if not args.pin and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def pin():
    """Record every pinned command's untraced and traced record."""
    expected = {}
    for name, cmds in workloads.PINNED.items():
        if name == "fibers-serial":
            cmds = cmds + [workloads.POOL]
        _, bg, cli = setup_once(cmds)
        plain = run_pass(cmds, bg, cli, spans.Tracer(spans.REPORTS), False)[2]
        traced = run_pass(cmds, bg, cli, spans.Tracer(spans.LAYERS), True)[2]
        expected[name] = {}
        for cmd, u, t in zip(cmds, plain, traced):
            clash = {k for k in u.keys() & t.keys() if u[k] != t[k]}
            if clash:
                raise SystemExit(f"{cmd.id}: traced and untraced differ on {clash}")
            expected[name][cmd.id] = {"untraced": u, "traced": t}
            print(f"{name}: {cmd.id}: {t}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def check_all(checker, cmds, records, mode):
    for cmd, rec in zip(cmds, records):
        checker.check(cmd, rec, mode)


def warm_up(cmds, bg, cli, tracer, checker):
    """One untraced pass before timing, checked but not timed: the first pass
    in a process runs slower while the allocator's arenas grow."""
    check_all(checker, cmds, run_pass(cmds, bg, cli, tracer, False)[2], "untraced")


def calibrate():
    """Wall and CPU seconds of a fixed pure-Python loop that runs no borelgb
    code: tuple keys, dict updates and a sort, the kind of work the program
    does, on a working set of a few MB, small beside the program's.

    On a shared machine the speed of the same code drifts by tens of percent
    over tens of seconds, run to run, in CPU time as much as in wall time.
    Timed just before and just after each command, this loop drifts with it,
    so a command's time divided by the loop's time cancels most of the drift
    while any change in the program's own speed shows in full.
    """
    t0, c0 = time.perf_counter(), cpu_now()
    for r in range(CALIBRATION_ROUNDS):
        table = {}
        for i in range(CALIBRATION_KEYS):
            key = (i % 97, (i + r) % 89, i % 83)
            table[key] = table.get(key, 0) + sum(key)
        sorted(table)
    return time.perf_counter() - t0, cpu_now() - c0


def per_calibration(times, cals, which):
    """A pass in calibration units: each command's time over the mean of the
    calibration loops timed just before and just after it."""
    return sum(2 * t / (a[which] + b[which])
               for t, a, b in zip(times, cals, cals[1:]))


def measure(args, cmds, batch, checker):
    """Untraced passes for the run's seconds, with a calibration loop between
    commands: the end-to-end metrics."""
    setup_once(cmds)  # warm-up: standard-library imports and bytecode caches
    seconds, bg, cli = setup_once(cmds)
    setups = [seconds]
    tracer = spans.Tracer(spans.REPORTS)
    warm_up(cmds, bg, cli, tracer, checker)
    samples = {k: [] for k in ("wall_ref", "cpu_ref", "wall_s", "cpu_s",
                               "calibration_wall_s")}
    steps = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Set-ups are spread over the run, so their median, like the passes',
        # is taken over the whole run and not over one moment of it.
        setups += [timed_setup(cmds) for _ in range(SETUPS_PER_PASS)]
        t0 = time.perf_counter()
        wall, cpu, records, walls, cpus, cals = run_pass(cmds, bg, cli, tracer,
                                                         False, calibrate)
        steps.append(time.perf_counter() - t0)
        check_all(checker, cmds, records, "untraced")
        samples["wall_ref"].append(per_calibration(walls, cals, 0))
        samples["cpu_ref"].append(per_calibration(cpus, cals, 1))
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["calibration_wall_s"].append(statistics.median(c[0] for c in cals))
        if time.perf_counter() + statistics.median(steps) > deadline:
            break
    cross_check(batch, cli, checker)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["setup_s"] = setups
    metrics = {k: statistics.median(samples[k])
               for k in ("wall_ref", "cpu_ref", "setup_s")}
    metrics["peak_rss_mb"] = rss
    return metrics, samples, []


def pool_metrics(bg, cli, checker, serial_walls):
    """One `--jobs 2` run of the chain family: CPU in the parent and in the
    reaped workers, and the speed-up over the traced serial sweep."""
    tracer = spans.Tracer(spans.REPORTS)
    records = run_pass([workloads.POOL], bg, cli, tracer, False)[2]
    check_all(checker, [workloads.POOL], records, "untraced")
    _, start, end, _, _, info = tracer.spans[0]
    return {"toric.pool_parent_cpu_s": info["parent_cpu_s"],
            "toric.pool_worker_cpu_s": info["worker_cpu_s"],
            "toric.pool_speedup": statistics.median(serial_walls) / ((end - start) / 1e9)}


def measure_traced(args, cmds, batch, checker):
    """Alternating untraced and traced passes: the per-layer metrics."""
    _, bg, cli = setup_once(cmds)
    plain, tracer = spans.Tracer(spans.REPORTS), spans.Tracer(spans.LAYERS)
    warm_up(cmds, bg, cli, plain, checker)
    deadline = time.perf_counter() + args.seconds
    walls, cpus, traced_walls, rates, first_walls = [], [], [], [], []
    while True:
        wall, cpu, records = run_pass(cmds, bg, cli, plain, False)[:3]
        walls.append(wall)
        cpus.append(cpu)
        rates.append(throughputs(cmds, records, wall))
        check_all(checker, cmds, records, "untraced")
        wall, _, records, cmd_walls = run_pass(cmds, bg, cli, tracer, True)[:4]
        traced_walls.append(wall)
        first_walls.append(cmd_walls[0])
        check_all(checker, cmds, records, "traced")
        step = statistics.median(walls) + statistics.median(traced_walls)
        if time.perf_counter() + step > deadline:
            break
    cross_check(batch, cli, checker)
    metrics = layer_metrics(tracer.spans, len(traced_walls))
    if args.workload == "fibers-serial":
        # Its first command is the chain family's serial sweep.
        metrics.update(pool_metrics(bg, cli, checker, first_walls))
    else:
        metrics.update(dict.fromkeys(("toric.pool_parent_cpu_s",
                                      "toric.pool_worker_cpu_s",
                                      "toric.pool_speedup"), 0.0))
    metrics["wall_s"] = statistics.median(walls)
    metrics["cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    for key in rates[0]:
        metrics[key] = statistics.median(r[key] for r in rates)
    samples = {"wall_s": walls, "traced_wall_s": traced_walls}
    return metrics, samples, tracer.spans


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "borelgb", "__init__.py")):
        print(f"error: no borelgb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.pin:
        return pin()
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    os.makedirs(OUT, exist_ok=True)
    batch = workloads.random_batch(args.seed, OUT)
    cmds = workloads.workload_commands(args.workload, batch)
    checker = Checker(expected)
    if args.trace:
        metrics, samples, span_list = measure_traced(args, cmds, batch, checker)
        units = PER_LAYER_UNITS
    else:
        metrics, samples, span_list = measure(args, cmds, batch, checker)
        units = END_TO_END_UNITS
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines(),
            "failed_share": checker.failed / checker.attempted}
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "samples": samples,
                   "problems": checker.problems}, fh, indent=1)
    if span_list:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "input", "info"],
                       "spans": span_list}, fh)
    for problem in checker.problems:
        print(f"MISMATCH {problem}")
    print("meta " + json.dumps(meta))
    n = len(samples["wall_s"])
    for key, value in metrics.items():
        note = ""
        if key in samples:
            note = f"  (median of {len(samples[key])}; min {min(samples[key]):.4f}, " \
                   f"max {max(samples[key]):.4f})"
        print(f"{key} = {value:.6g} {units[key]}{note}")
    for key in sorted(samples.keys() - metrics.keys()):
        v = samples[key]
        print(f"{key} = {statistics.median(v):.6g} s  (median of {len(v)}; "
              f"min {min(v):.4f}, max {max(v):.4f}; recorded, not a metric)")
    print(f"passes = {n}; failed_share = {meta['failed_share']:.4f} "
          f"({checker.failed} of {checker.attempted})")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
