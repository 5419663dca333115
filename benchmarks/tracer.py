"""Span tracing of gaussmax from outside the package.

``install`` replaces the public functions of ``config``, ``model``,
``sets``, ``dominate``, ``estimate`` and ``cli`` (module-level functions
and the public methods of their classes) with wrappers that record one
span per call: name, start, end, parent span and a few counts taken from
the arguments and the result.  Every module-level name bound to a wrapped
function is rebound, so calls made through ``from .x import f`` are
traced too.  Spans stay in memory; ``Tracer.write`` dumps them at exit.

The program's source is untouched: the same code runs traced and
untraced, and the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time

MODULES = ("config", "model", "sets", "dominate", "estimate", "cli")

# Top-level estimator calls inside run_verify; each one belongs to a rung.
RUNG_SPANS = {
    "estimate.exact_block_reports",
    "estimate.mc_componentwise",
    "estimate.mc_at_least_one",
    "estimate.is_single",
    "estimate.union_combined_report",
}
CRUDE_SPANS = ("estimate.mc_componentwise", "estimate.mc_at_least_one")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_sample(args, kwargs, result):
    return {"scalars": int(result.size)}


def _count_points(args, kwargs, result):
    return {"points": int(len(args[1]))}


def _count_crude(args, kwargs, result):
    entry = _arg(args, kwargs, 2, "entry")
    trials = int(_arg(args, kwargs, 3, "trials"))
    return {
        "rung": float(entry.speed),
        "trials": trials,
        "scalars": trials * int(entry.n) * _arg(args, kwargs, 0, "model").dimension,
        "hits": int(round(result.p_hat * trials)),
    }


def _count_exact(args, kwargs, result):
    return {"rung": float(_arg(args, kwargs, 2, "entry").speed)}


def _count_is(args, kwargs, result):
    rel_se = result.std_error / result.p_hat if result.p_hat > 0.0 else None
    return {
        "rung": float(kwargs.get("scaling_norm_sq", float("nan"))),
        "samples": int(_arg(args, kwargs, 3, "samples")),
        "rel_se": rel_se,
    }


def _count_union(args, kwargs, result):
    return {"rung": float(_arg(args, kwargs, 2, "scaling_norm_sq"))}


COUNTERS = {
    "model.sample_gaussian": _count_sample,
    "model.sample_mixture": _count_sample,
    "sets.Block.slack_many": _count_points,
    "sets.Polyhedron.slack_many": _count_points,
    "sets.Ellipsoid.slack_many": _count_points,
    "sets.Polyhedron.project_many": _count_points,
    "sets.Ellipsoid.project_many": _count_points,
    "dominate.dominating_point": lambda a, k, r: {"iterations": int(r.solver_iterations)},
    "dominate.rate_mixture": lambda a, k, r: {
        "iterations": sum(int(c.iterations) for c in r.per_component)
    },
    "estimate.mc_componentwise": _count_crude,
    "estimate.mc_at_least_one": _count_crude,
    "estimate.exact_block_reports": _count_exact,
    "estimate.is_single": _count_is,
    "estimate.union_combined_report": _count_union,
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1] if stack else None, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if counter is not None:
                self.spans[index][4] = counter(args, kwargs, result)
            return result

        return traced

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "counts")
        return [dict(zip(keys, s)) for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records(), handle)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced modules and rebind their names."""
    modules = [importlib.import_module(f"gaussmax.{m}") for m in MODULES]
    wrapped: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, Exception)):
                for attr, fn in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, attr, tracer.wrap(f"{short}.{obj.__name__}.{attr}", fn))
    for mod in [m for n, m in sys.modules.items() if n == "gaussmax" or n.startswith("gaussmax.")]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])


def summarize(spans: list[dict], root: str = "cli.run_verify") -> dict:
    """Per-name inclusive and self time plus counts, inside the last ``root`` span.

    Self time is a span's duration minus the durations of its direct
    children; children run inside their parent on the same thread, so the
    self times of all spans under the root add up to the root's duration
    by construction.  Inclusive time sums every call of a name, which
    counts no time twice as long as no traced function runs inside a
    call of itself (none does in the traced verify).
    """
    root_index = max(i for i, s in enumerate(spans) if s["name"] == root)

    def under_root(i):
        while i is not None:
            if i == root_index:
                return True
            i = spans[i]["parent"]
        return False

    inside = [i for i in range(len(spans)) if under_root(i)]
    child_time = {i: 0.0 for i in inside}
    for i in inside:
        parent = spans[i]["parent"]
        if i != root_index:
            child_time[parent] += spans[i]["end"] - spans[i]["start"]

    layers: dict[str, dict] = {}
    rungs: dict[float, float] = {}
    for i in inside:
        s = spans[i]
        duration = s["end"] - s["start"]
        layer = layers.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        layer["self_s"] += duration - child_time[i]
        layer["calls"] += 1
        layer["s"] += duration
        for key, value in (s["counts"] or {}).items():
            if key == "rung" or value is None:
                continue
            if key == "rel_se":
                layer["counts"].setdefault(key, []).append(value)
            else:
                layer["counts"][key] = layer["counts"].get(key, 0) + value
        if s["parent"] == root_index and s["name"] in RUNG_SPANS:
            rung = s["counts"]["rung"]
            rungs[rung] = rungs.get(rung, 0.0) + duration
    root_span = spans[root_index]
    return {
        "layers": layers,
        "rung_s": {str(k): v for k, v in sorted(rungs.items())},
        "root_s": root_span["end"] - root_span["start"],
    }


def layer_metrics(summary: dict, load_config_s: float, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one ``summarize`` result."""
    layers = summary["layers"]

    def get(name, field):
        layer = layers.get(name)
        if layer is None:
            return 0
        if field in ("s", "self_s", "calls"):
            return layer[field]
        return layer["counts"].get(field, 0)

    crude_trials = sum(get(n, "trials") for n in CRUDE_SPANS)
    crude_hits = sum(get(n, "hits") for n in CRUDE_SPANS)
    rel_se = layers.get("estimate.is_single", {}).get("counts", {}).get("rel_se", [])
    rung_s = list(summary["rung_s"].values())
    m = {
        "config.load_config.s": load_config_s,
        "model.sample_gaussian.s": get("model.sample_gaussian", "s"),
        "model.sample_gaussian.scalars": get("model.sample_gaussian", "scalars"),
        "model.sample_mixture.s": get("model.sample_mixture", "s"),
        "model.sample_mixture.scalars": get("model.sample_mixture", "scalars"),
    }
    for shape in ("Block", "Polyhedron", "Ellipsoid"):
        m[f"sets.{shape}.slack_many.s"] = get(f"sets.{shape}.slack_many", "s")
        m[f"sets.{shape}.slack_many.points"] = get(f"sets.{shape}.slack_many", "points")
    m.update(
        {
            "sets.Polyhedron.project_many.s": get("sets.Polyhedron.project_many", "s"),
            "sets.Polyhedron.project_many.calls": get("sets.Polyhedron.project_many", "calls"),
            "sets.Polyhedron.project_many.points": get("sets.Polyhedron.project_many", "points"),
            "sets.Polyhedron.interior_point.s": get("sets.Polyhedron.interior_point", "s"),
            "sets.Ellipsoid.project_many.s": get("sets.Ellipsoid.project_many", "s"),
            "dominate.dominating_point.self_s": get("dominate.dominating_point", "self_s"),
            "dominate.dominating_point.iterations": get("dominate.dominating_point", "iterations"),
            "dominate.rate_mixture.self_s": get("dominate.rate_mixture", "self_s"),
            "dominate.rate_mixture.iterations": get("dominate.rate_mixture", "iterations"),
            "estimate.mc_componentwise.self_s": get("estimate.mc_componentwise", "self_s"),
            "estimate.mc_at_least_one.self_s": get("estimate.mc_at_least_one", "self_s"),
            "estimate.crude.trials": crude_trials,
            "estimate.crude.scalars": sum(get(n, "scalars") for n in CRUDE_SPANS),
            "estimate.crude.hits": crude_hits,
            "estimate.crude.hit_ratio": crude_hits / crude_trials if crude_trials else 0.0,
            "estimate.is_single.self_s": get("estimate.is_single", "self_s"),
            "estimate.is_single.samples": get("estimate.is_single", "samples"),
            "estimate.is_single.rel_se": statistics.median(rel_se) if rel_se else 0.0,
            "estimate.exact_block_reports.s": get("estimate.exact_block_reports", "s"),
            "estimate.slope_fit.s": get("estimate.slope_fit", "s"),
            "cli.run_verify.self_s": get("cli.run_verify", "self_s"),
            "cli.rung_max_share": max(rung_s) / sum(rung_s) if rung_s else 0.0,
            "trace.overhead_s": overhead_s,
            "trace.verify_s": summary["root_s"],
        }
    )
    return m
