"""Spans at curvlab's layer boundaries, and the per-layer metrics they give.

A traced pass installs a `Tracer` before its first check.  Each layer's
public function is replaced, at every name its callers look it up by, with
a wrapper that records a span (name, start, end, parent, run id) and the
work counts its arguments or result carry.  Spans stay in memory until the
pass ends; `layer_metrics` turns them into the per-layer numbers.

A span's layer is the part of its name before the first dot.  Its self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# counts are read from arguments and results; a later change of signature
# must cost the count, never the check, so these are the errors a count may
# swallow
_COUNT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def step_count(t: float, dt: float) -> int:
    """Steps a march over [0, t] takes: full steps of dt, then one partial
    step for a remainder above rounding (the rule of curvlab's step plan)."""
    if t == 0.0:
        return 0
    n_full = int(t / dt)
    rem = t - n_full * dt
    return n_full + (rem >= 1e-12 * max(1.0, t))


def _records(args: dict, result) -> dict:
    return {"records": len(result.records)}


def _paths(args: dict, batch) -> dict:
    return {"paths": batch.n_paths,
            "path_steps": batch.n_paths * batch.n_steps,
            "exploded": int(np.count_nonzero(batch.exploded))}


def _elements(args: dict, result) -> dict:
    return {"elements": int(np.size(next(iter(args.values()))))}


def _mehler_nodes(args: dict, result) -> dict:
    f, x, n = args["f"], args["x"], args["n"]
    if n is None:
        n = getattr(f, "n", None) or np.atleast_1d(np.asarray(x)).shape[-1]
    points = np.size(x) // n
    return {"node_evals": int(points * args["order"] ** n)}


def _grid_steps(args: dict, result) -> dict:
    nodes = np.size(args["f"].values)
    return {"node_steps": int(nodes * step_count(args["t"], args["dt"]))}


# (span name, module, attribute, count, count calls of the first argument)
TARGETS = (
    ("cli.main", "curvlab.cli", "main", None, False),
    ("verify.local", "curvlab.verify", "verify_local", _records, False),
    ("verify.reverse", "curvlab.verify", "verify_reverse_local", _records,
     False),
    ("verify.monotone", "curvlab.verify", "verify_H_monotone", _records,
     False),
    ("verify.limit", "curvlab.verify", "verify_integrated_limit", _records,
     False),
    ("verify.condition", "curvlab.verify", "verify_integrated_condition",
     _records, False),
    ("verify.exp_bound", "curvlab.verify", "exp_integrability_bound_check",
     _records, False),
    ("verify.quad", "curvlab.verify", "quad", None, True),
    ("fk.supermartingale", "curvlab.feynman_kac", "supermartingale_check",
     _records, False),
    ("fk.gradient", "curvlab.feynman_kac", "gradient_bound", _records, False),
    ("fk.commutation", "curvlab.feynman_kac", "commutation_check", _records,
     False),
    ("mehler.apply", "curvlab.semigroup", "mehler_apply", _mehler_nodes,
     False),
    ("grid.apply", "curvlab.semigroup", "grid_apply", _grid_steps, False),
    ("sde.simulate", "curvlab.sde", "simulate", _paths, False),
    ("mfn.F", "curvlab.mfunctions", "exp_integrability_F", _elements, False),
    ("mfn.Fderiv", "curvlab.mfunctions", "exp_integrability_F_derivs",
     _elements, False),
    ("mfn.quad", "curvlab.mfunctions", "quad", None, False),
)


class Tracer:
    """Records spans in memory; one tracer per pass."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []   # indices of unfinished spans
        self._warned: set = set()
        self._patched: list = []     # (owner, attribute, original)

    def wrap(self, name: str, fn, count=None, count_calls: bool = False):
        spans, open_, run_id = self.spans, self._open, self.run_id
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": run_id,
                    "parent": open_[-1] if open_ else None}
            if count_calls and args:
                args = (_counted(args[0], span),) + args[1:]
            open_.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_.pop()
            if count is not None:
                span.update(self._count(name, count, sig, args, kwargs,
                                        result))
            return result

        return traced

    def _count(self, name, count, sig, args, kwargs, result) -> dict:
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return count(bound.arguments, result)
        except _COUNT_ERRORS as exc:
            if name not in self._warned:
                self._warned.add(name)
                print(f"trace: no counts for {name}: {exc!r}", file=sys.stderr)
            return {}

    def install(self) -> None:
        """Wrap every target that exists; a missing one records nothing."""
        for name, module, attr, count, count_calls in TARGETS:
            home = importlib.import_module(module)
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, count, count_calls)
            # curvlab's own functions are rebound wherever they were
            # imported; a foreign one (scipy's quad) only in the module named
            if getattr(original, "__module__", "").startswith("curvlab"):
                homes = [m for key, m in list(sys.modules.items())
                         if key.startswith("curvlab") and m is not None]
            else:
                homes = [home]
            for mod in homes:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        engine = getattr(importlib.import_module("curvlab.semigroup"),
                         "MonteCarloEngine", None)
        for key, value in list(vars(engine or object).items()):
            if inspect.isfunction(value) and not key.startswith("_") \
                    and key != "describe":
                self._patch(engine, key, self.wrap(f"mc.{key}", value))

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put back every original that install() replaced."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def _counted(func, span: dict):
    span["calls"] = 0

    def counted(*args, **kwargs):
        span["calls"] += 1
        return func(*args, **kwargs)

    return counted


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = sorted((max(spans[c]["start"], s["start"]),
                          min(spans[c]["end"], s["end"]))
                         for c in children[i])
        covered, reach = 0.0, s["start"]
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def _has_ancestor(spans: list, i: int, name: str) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if layer(spans[p]) == name:
            return True
        p = spans[p]["parent"]
    return False


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_self(spans: list) -> dict:
    """Self time summed per layer."""
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[layer(s)] += own
    return dict(out)


def layer_metrics(spans: list, n_checks: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, from its spans.

    wall_s is the traced pass's wall time over its checks; the share of it
    that no span's self time accounts for is reported as unattributed.
    """
    own = self_times(spans)
    by_layer = layer_self(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def in_layer(name):
        return [i for i, s in enumerate(spans) if layer(s) == name]

    def total(idx, key):
        return sum(spans[i].get(key, 0) for i in idx)

    def busy(idx):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx)

    sde, grid, mehler = named("sde.simulate"), named("grid.apply"), \
        named("mehler.apply")
    mc, fk, verify = in_layer("mc"), in_layer("fk"), in_layer("verify")
    f_spans, fd_spans = named("mfn.F"), named("mfn.Fderiv")
    v_quad = named("verify.quad")
    records = total(verify, "records")
    m = {
        "sde.calls": len(sde),
        "sde.path_steps": total(sde, "path_steps"),
        "sde.busy_s": busy(sde),
        "sde.exploded_frac": _ratio(total(sde, "exploded"),
                                    total(sde, "paths")),
        "mc.apply_calls": sum(1 for i in mc if spans[i]["parent"] is None
                              or layer(spans[spans[i]["parent"]]) != "mc"),
        "mc.self_s": by_layer.get("mc", 0.0),
        "mc.sims_per_record": _ratio(
            sum(_has_ancestor(spans, i, "mc") for i in sde), records),
        "grid.marches": len(grid),
        "grid.node_steps": total(grid, "node_steps"),
        "grid.busy_s": busy(grid),
        "grid.marches_per_check": _ratio(len(grid), n_checks),
        "mehler.calls": len(mehler),
        "mehler.node_evals": total(mehler, "node_evals"),
        "mehler.self_s": sum(own[i] for i in mehler),
        "mfn.F_elements": total(f_spans, "elements"),
        "mfn.Fderiv_elements": total(fd_spans, "elements"),
        "mfn.F_busy_s": busy(f_spans),
        "mfn.Fderiv_busy_s": busy(fd_spans),
        "mfn.quad_calls": len(named("mfn.quad")),
        "mfn.self_s": by_layer.get("mfn", 0.0),
        "verify.records": records,
        "verify.quad_calls": len(v_quad),
        "verify.integrand_calls": total(v_quad, "calls"),
        "verify.self_s": by_layer.get("verify", 0.0),
        "fk.self_s": by_layer.get("fk", 0.0),
        "fk.sims_per_record": _ratio(
            sum(_has_ancestor(spans, i, "fk") for i in sde),
            total(fk, "records")),
        "cli.self_s": by_layer.get("cli", 0.0),
        "trace.wall_s": wall_s,
        "trace.unattributed_frac": _ratio(wall_s - sum(own), wall_s),
    }
    m["sde.path_steps_per_s"] = _ratio(m["sde.path_steps"], m["sde.busy_s"])
    m["grid.node_steps_per_s"] = _ratio(m["grid.node_steps"],
                                        m["grid.busy_s"])
    m["mehler.node_evals_per_s"] = _ratio(m["mehler.node_evals"],
                                          m["mehler.self_s"])
    m["mfn.F_elements_per_s"] = _ratio(m["mfn.F_elements"],
                                       m["mfn.F_busy_s"])
    return m


def median_metrics(per_pass: list) -> dict:
    """Per-metric median over passes; counts repeat, so theirs is exact."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
