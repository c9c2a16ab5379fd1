"""Span tracing for the traced benchmark run, installed from outside ``src``.

``Tracer.install()`` replaces every module-level function of the layer
modules (the public ones plus the private kernels named below) with a
wrapper that records a span: name, start, end, parent span, thread, and the
run id shared by all spans of one run.  The replacement is made in every
``adg2`` module namespace and module-level dict that refers to the function,
so calls through re-exports (``adg2.excalc.split_d``), imports inside
function bodies (``from .spin import build_spinor_model``) and dispatch
tables (``verify._RUNNERS``) all reach the wrapper.  ``uninstall()`` puts
the originals back.  Spans stay in memory until the run ends; self time is
derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# Modules that make up the layers; a layer is named after the module below
# ``adg2`` (all of ``adg2.excalc.*`` is the ``excalc`` layer).  ``adg2.exact``
# is the exact-arithmetic substrate every exact layer calls per entry, not a
# layer of its own.
LAYER_MODULES = (
    "adg2.verify", "adg2.excalc.forms", "adg2.excalc.hodge",
    "adg2.excalc.fibration", "adg2.excalc.io", "adg2.g2lin", "adg2.hk",
    "adg2.spin", "adg2.maxsec", "adg2.gauge", "adg2.fueter",
)
# private kernels named by the per-layer metrics
PRIVATE_KERNELS = {
    "adg2.maxsec": ("_hessian_apply", "_split_preconditioner"),
    "adg2.gauge": ("_cs_density",),
}
METHODS = {"adg2.gauge": (("LatticeConnection", "curvature"),)}
# Fixed-size helpers on 4x4 Fraction matrices: one exact-suites run calls
# them about 420,000 times (wedge112 alone 317,000), against under 30,000
# calls of every other layer function together.  A span each would take most of the
# traced run's memory while no metric reads them; their cost stays in the
# self time of their callers.
LEAF_HELPERS = {
    "adg2.hk": ("form2", "zero2", "add2", "sub2", "scale2", "is_zero2",
                "wedge22", "wedge112", "contract"),
}
# spans of these functions carry the rank of their gauge input as a tag
RANK_TAGGED = ("gauge.instanton_residual", "gauge.cs_instanton")


@dataclass(frozen=True)
class Span:
    run: str
    id: int
    parent: int | None
    name: str
    tag: str
    start: float
    end: float
    error: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rank_tag(args) -> str:
    obj = args[0] if args else None
    if hasattr(obj, "fields"):  # a ConnectionPath
        obj = obj.fields[0] if len(obj.fields) else None
    return f"r{obj.rank}" if hasattr(obj, "rank") else ""


def layer_functions():
    """(span name, owner, attribute) for every traced function."""
    out = []
    for modname in LAYER_MODULES:
        mod = importlib.import_module(modname)
        layer = modname.split(".")[1]
        private = PRIVATE_KERNELS.get(modname, ())
        skip = LEAF_HELPERS.get(modname, ())
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and (not attr.startswith("_") or attr in private)
                    and attr not in skip):
                out.append((f"{layer}.{attr}", mod, attr))
        for cls, meth in METHODS.get(modname, ()):
            out.append((f"{layer}.{meth}", getattr(mod, cls), meth))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []  # (namespace dict or class, key, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        tagged = name in RANK_TAGGED
        wraps_factory = name == "maxsec._split_preconditioner"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            error = ""
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    tracer.run_id, span_id, parent, name,
                    _rank_tag(args) if tagged else "", start, end, error,
                    threading.get_ident()))
            # the preconditioner apply is a closure; trace each call of it
            return tracer.wrap("maxsec.precond_apply", out) if wraps_factory else out

        return traced

    def install(self) -> None:
        targets = layer_functions()  # imports every layer module first
        adg2_modules = [m for n, m in list(sys.modules.items())
                        if (n == "adg2" or n.startswith("adg2.")) and m is not None]
        for name, owner, attr in targets:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in adg2_modules:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    def run(self, run_id: str, fn, *args):
        """Call fn(*args) with its spans under run_id; returns (result, seconds)."""
        self.run_id = run_id
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    def write(self, path) -> None:
        """One JSON object per span, with its derived self time."""
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(vars(s), self=selfs[s.id])) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


# ----------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, the end-to-end metric it should move)

_EXACT = "run_s on exact-suites"
_MAXSEC = "run_s on maxsec-rough and maxsec-smooth"
_GAUGE = "run_s on gauge-paths"
SUITES = ("excalc", "g2lin", "hk", "spin")
CHECK_IDS = (
    "excalc.split_d.sum", "excalc.split_d.df_squared",
    "excalc.split_d.fh_iff_curvature", "excalc.hodge.star4_involution",
    "excalc.donaldson_residuals.product",
    "g2lin.chi.defining_identity", "g2lin.chi.scaling_case_table",
    "g2lin.cross.reference_values", "g2lin.chi.formal_limit",
    "hk.metric_from_triple.standard", "hk.metric_variation.worked_example",
    "hk.variation.cyclic_symmetry", "hk.recover_form_variation.roundtrip",
    "hk.clifford_of_variation.worked_example",
    "spin.build.clifford_relations", "spin.c_omega.spectrum",
    "spin.canonical_phi.intertwining", "spin.curvature.cancellation",
    "spin.curvature.negative_controls",
)

LAYER_METRICS = (
    *((f"verify.run_{s}.s", "s", "lower", _EXACT) for s in SUITES),
    *((f"verify.check.{c}.ms", "ms", "lower", _EXACT) for c in CHECK_IDS),
    ("spin.build_spinor_model.calls", "count", "lower",
     _EXACT + "; a cached model moves setup_s instead"),
    ("spin.build_spinor_model.s", "s", "lower",
     _EXACT + "; a cached model moves setup_s instead"),
    *((f"spin.{f}.{k}", u, "lower", _EXACT)
      for f in ("curvature_sum", "jet_metric_slots", "dirac_variation_symbol")
      for k, u in (("calls", "count"), ("self_s", "s"))),
    ("hk.clifford_of_variation.calls", "count", "lower", _EXACT),
    ("hk.clifford_of_variation.s", "s", "lower", _EXACT),
    ("g2lin.chi.calls", "count", "lower", _EXACT),
    ("g2lin.chi.self_s", "s", "lower", _EXACT),
    ("excalc.split_d.calls", "count", "lower", _EXACT),
    ("excalc.split_d.s", "s", "lower", _EXACT),
    ("maxsec.newton_steps", "count", "lower",
     "run_s on maxsec-rough much more than on maxsec-smooth"),
    ("maxsec._hessian_apply.calls", "count", "lower", _MAXSEC),
    ("maxsec._hessian_apply.self_s", "s", "lower", _MAXSEC),
    ("maxsec.hvp_per_step", "hvp/step", "lower", _MAXSEC),
    ("maxsec.precond_apply.calls", "count", "lower", _MAXSEC),
    ("maxsec.precond_apply.s", "s", "lower", _MAXSEC),
    ("maxsec._split_preconditioner.s", "s", "lower", _MAXSEC),
    ("maxsec.grad_area.calls", "count", "lower", _MAXSEC),
    ("maxsec.grad_area.s", "s", "lower", _MAXSEC),
    ("maxsec.grad_area.err", "count", "lower", _MAXSEC),
    ("maxsec.step_accept_ratio", "ratio", "higher", _MAXSEC),
    ("maxsec.residual_norm.s", "s", "lower", _MAXSEC),
    ("maxsec.history.s", "s", "lower", _MAXSEC),
    ("gauge.curvature.calls", "count", "lower", _GAUGE),
    ("gauge._cs_density.calls", "count", "lower", _GAUGE),
    ("gauge.instanton_residual.r1.s", "s", "lower", _GAUGE),
    ("gauge.instanton_residual.r2.s", "s", "lower", _GAUGE),
    ("gauge.rank2_over_rank1", "ratio", "lower", _GAUGE),
    ("gauge.cs_instanton.r1.s", "s", "lower", _GAUGE),
    ("gauge.cs_instanton.r2.s", "s", "lower", _GAUGE),
    ("fueter.holonomy_section.s", "s", "lower", _GAUGE),
    ("gauge.cs_instanton.r2.workers2_s", "s", "lower",
     "none (information: the ADG2_THREADS thread pool against one thread)"),
    ("trace_overhead_frac", "frac", "lower", "none (the cost of tracing)"),
)


def layer_metrics(spans, extras: dict) -> dict:
    """Every LAYER_METRICS value from the spans of one run plus the numbers
    the workload reports itself (extras).  A layer the workload does not
    run reads 0."""
    selfs = self_times(spans)
    groups = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
        if s.tag:
            groups[f"{s.name}.{s.tag}"].append(s)

    def agg(key: str, kind: str) -> float:
        group = groups.get(key, ())
        if kind == "calls":
            return float(len(group))
        if kind == "s":
            return float(sum(s.duration for s in group))
        if kind == "self_s":
            return float(sum(selfs[s.id] for s in group))
        if kind == "err":
            return float(sum(s.error == "PositivityError" for s in group))
        raise KeyError(kind)

    out = {}
    for name, *_ in LAYER_METRICS:
        key, _, kind = name.rpartition(".")
        if name in extras:
            out[name] = float(extras[name])
        elif kind in ("calls", "s", "self_s", "err"):
            out[name] = agg(key, kind)
        else:
            out[name] = 0.0

    steps = out["maxsec.newton_steps"]
    out["maxsec.hvp_per_step"] = out["maxsec._hessian_apply.calls"] / steps if steps else 0.0
    # accepted steps over trial gradients (every grad_area after the first)
    trials = out["maxsec.grad_area.calls"] - 1
    out["maxsec.step_accept_ratio"] = steps / trials if trials > 0 else 0.0
    out["maxsec.history.s"] = agg("maxsec.area", "s") + agg("maxsec.min_gram_eigenvalue", "s")
    r1, r2 = (agg(f"gauge.instanton_residual.r{k}", "calls") for k in (1, 2))
    out["gauge.rank2_over_rank1"] = (
        (out["gauge.instanton_residual.r2.s"] / r2)
        / (out["gauge.instanton_residual.r1.s"] / r1) if r1 and r2 else 0.0)
    return out
