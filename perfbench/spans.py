"""Spans recorded from outside the program, around calls into borelgb's public
functions.

A `Tracer` replaces each target function with a wrapper in every loaded
`borelgb` module that binds it, so calls made by the CLI and by other
modules are caught as well as the benchmark's own.  Spans stay in memory as
[name, start_ns, end_ns, parent, input_id, info] lists until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import time


def cpu_seconds(who):
    """User plus system CPU seconds of `resource.RUSAGE_SELF` or `_CHILDREN`."""
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _count(result, args, kwargs):
    return {"count": len(result)}


def _quadrics_multi(result, args, kwargs):
    return {"count": len(result.all())}


def _fiber_graph(result, args, kwargs):
    # fiber_graph(setup, mu, beta, quadrics, ..., vertices=...): each vertex
    # is tested against each quadric's lead.
    quads = args[3] if len(args) > 3 else kwargs["quadrics"]
    return {"edges": len(result.edges),
            "lead_tests": len(result.vertices) * len(quads)}


def _verify(result, args, kwargs):
    quads = args[1] if len(args) > 1 else kwargs["quadrics"]
    return {"images": result.images_checked, "quadrics": len(quads),
            "jobs": kwargs.get("jobs", 1)}


def _spairs(result, args, kwargs):
    quads = args[0] if args else kwargs["quadrics"]
    return {"pairs_checked": result.pairs_checked,
            "pairs_skipped": result.pairs_skipped, "quadrics": len(quads)}


def _cli(result, args, kwargs):
    return {"exit": result}


# (module, attribute, span name, info extractor).  `FiberSetup.*` are class
# methods; the rest are module functions.  REPORTS are wrapped on untraced
# passes too: one call per command, so the checked image and pair counts are
# the ones the CLI itself produced.
REPORTS = [
    ("borelgb.toric", "verify_groebner_by_fibers", "toric.verify", _verify),
    ("borelgb.toric", "spair_certificate", "toric.spairs", _spairs),
]
LAYERS = REPORTS + [
    ("borelgb.borel", "borel_closure", "borel.closure", _count),
    ("borelgb.toric", "FiberSetup.single", "borel.setup", None),
    ("borelgb.toric", "FiberSetup.for_family", "borel.setup", None),
    ("borelgb.quadrics", "quadrics_single", "quadrics.generate", _count),
    ("borelgb.quadrics", "quadrics_bs_form", "quadrics.generate", _count),
    ("borelgb.quadrics", "quadrics_multi", "quadrics.generate", _quadrics_multi),
    ("borelgb.sorting", "borel_sort", "sorting.sort", None),
    ("borelgb.toric", "iterate_images", "toric.images", _count),
    ("borelgb.toric", "enumerate_fiber", "toric.enumerate", _count),
    ("borelgb.toric", "fiber_graph", "toric.edges", _fiber_graph),
    ("borelgb.cli", "main", "cli.main", _cli),
]


class Tracer:
    """In-memory span recorder; `installed()` patches the targets in and out."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.input_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.input_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, extract):
        tracer = self
        pool = name == "toric.verify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                if pool:
                    own = cpu_seconds(resource.RUSAGE_SELF)
                    kids = cpu_seconds(resource.RUSAGE_CHILDREN)
                result = fn(*args, **kwargs)
            info = extract(result, args, kwargs) if extract else None
            if pool:
                # Workers are reaped when the pool closes, inside the call.
                info["parent_cpu_s"] = cpu_seconds(resource.RUSAGE_SELF) - own
                info["worker_cpu_s"] = cpu_seconds(resource.RUSAGE_CHILDREN) - kids
            rec[5] = info
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in every loaded borelgb module; undo on exit."""
        undo = []
        try:
            for modname, attr, name, extract in self.targets:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth,
                            classmethod(self._wrap(name, orig.__func__, extract)))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, extract)
                for mod in list(sys.modules.values()):
                    name_ = getattr(mod, "__name__", "")
                    if name_ != "borelgb" and not name_.startswith("borelgb."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)
