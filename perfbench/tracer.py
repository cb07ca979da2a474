"""Span tracer that wraps qualdyn's public functions from outside the package.

`Tracer.install()` replaces each layer's public entry points with timing
wrappers, in every qualdyn module that imported them, and `uninstall()`
puts the originals back; nothing under `src/` changes. Layer boundaries
(CLI command, scenario load, scan, closed forms, classify, iterate, step,
best response) become spans. The innermost calls (`tpr_fpr`, `rates_grid`,
cost `cdf`) are far too frequent for a span each, so they are counted and
timed on the innermost open span of the calling thread instead.

Spans are kept in memory and written out by `write()` once the run ends. A
span's self time is its duration minus the part of it covered by its child
spans and minus the leaf calls made directly inside it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from time import perf_counter

from qualdyn import analysis, cli, costs, dynamics, features


class Span:
    __slots__ = ("name", "parent", "task", "t0", "t1", "cpu", "leaf", "info")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task
        self.t0 = self.t1 = 0.0
        self.cpu = None
        self.leaf = {}  # leaf name -> [calls, seconds, grid points]
        self.info = None


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.in_leaf = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = None  # index of the benchmark task now running, or None
        self._local = _ThreadState()
        self._main_stack = self._local.stack
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, info=None, cpu=False):
        """Wrap fn so each call records a span; info(args, result) may attach
        a small summary, cpu records the thread's CPU time."""
        local, spans = self._local, self.spans

        def wrapper(*args, **kwargs):
            stack = local.stack
            if stack:
                parent = stack[-1]
            else:
                # A worker thread (the sweep's pool) opens no span of its own
                # first: attach to the innermost span of the main thread.
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, parent, self.task)
            spans.append(span)
            stack.append(span)
            c0 = time.thread_time() if cpu else None
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                if cpu:
                    span.cpu = time.thread_time() - c0
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return wrapper

    def leaf(self, name, fn, points=False):
        """Wrap a hot innermost call: count and time it on the open span.
        Calls nested inside another leaf call (a mixture CDF calling its
        components) are not counted again."""
        local = self._local

        def wrapper(*args, **kwargs):
            if local.in_leaf:
                return fn(*args, **kwargs)
            local.in_leaf = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                local.in_leaf = False
            dt = perf_counter() - t0
            if local.stack:  # a leaf call outside any span is not attributed
                acc = local.stack[-1].leaf.get(name)
                if acc is None:
                    acc = local.stack[-1].leaf[name] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += dt
                if points:
                    acc[2] += len(args[2])
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owners, attribute, make):
        original = getattr(owners[0], attribute)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"{owner.__name__}.{attribute} is not the shared original")
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        return wrapped

    def install(self):
        """Wrap every traced entry point, in each module that imported it."""
        verdict = lambda args, out: out.verdict.name
        br_info = lambda args, out: (
            "halfspace" if isinstance(args[0], features.GaussianHalfspace) else
            ("reject" if isinstance(out, float) and out == 1.0 else "scalar")
        )
        p = self._patch
        p([cli], "main", lambda f: self.span("cli.main", f))
        p([cli], "load_scenario", lambda f: self.span("cli.load", f))
        p([cli, analysis], "find_equilibria_scan", lambda f: self.span("analysis.scan", f))
        for fn in ("uniform_closed_forms", "gaussian_closed_forms"):
            p([analysis, cli], fn, lambda f: self.span("analysis.closed_form", f))
        p([dynamics, analysis], "classify_stability", lambda f: self.span("dynamics.classify", f))
        p([dynamics, analysis, cli], "iterate",
          lambda f: self.span("dynamics.iterate", f, info=verdict, cpu=True))
        p([dynamics, analysis, cli], "step", lambda f: self.span("dynamics.step", f))
        p([features, dynamics, analysis], "institution_best_response",
          lambda f: self.span("features.br", f, info=br_info))
        p([features, dynamics], "decoupled_best_response",
          lambda f: self.span("features.decoupled_br", f, info=br_info))
        for cls in (features.UniformThreshold, features.GaussianHalfspace, features.ScoreModel):
            p([cls], "tpr_fpr", lambda f: self.leaf("features.tpr_fpr", f))
        for cls in (features.UniformThreshold, features.ScoreModel):
            p([cls], "rates_grid", lambda f: self.leaf("features.rates_grid", f, points=True))
        p([costs.CostModel], "cdf", lambda f: self.leaf("costs.cdf", f))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time per span: duration minus the union of its children's
        intervals minus its own leaf time."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered, end = 0.0, s.t0
            for c in sorted(children.get(id(s), ()), key=lambda c: c.t0):
                lo, hi = max(c.t0, end), min(c.t1, s.t1)
                if hi > lo:
                    covered += hi - lo
                    end = hi
            leaf = sum(acc[1] for acc in s.leaf.values())
            out[id(s)] = max(0.0, s.t1 - s.t0 - covered - leaf)
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span; parents are referenced by line number."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "parent": index.get(id(s.parent)),
                    "task": s.task,
                    "t0": s.t0,
                    "t1": s.t1,
                    "cpu": s.cpu,
                    "leaf": s.leaf,
                    "info": s.info,
                }) + "\n")


def layer_metrics(tracer: Tracer, tasks: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced tasks, normalised per task."""
    spans = [s for s in tracer.spans if s.task is not None]
    selfs = tracer.self_times()
    per_task = lambda x: x / tasks

    def of(name):
        return [s for s in spans if s.name == name]

    def leaf_total(group, leaf, field):
        return sum(s.leaf.get(leaf, (0, 0.0, 0))[field] for s in group)

    def incl(group):
        return sum(s.t1 - s.t0 for s in group)

    def self_of(group):
        return sum(selfs[id(s)] for s in group)

    every = spans
    brs = of("features.br") + of("features.decoupled_br")
    branches = {"refine": 0, "plateau": 0, "reject": 0, "halfspace": 0}
    for s in brs:
        if s.info == "halfspace":
            branches["halfspace"] += 1
        elif "costs.cdf" in s.leaf:
            branches["plateau"] += 1
        elif s.info == "reject" and "features.tpr_fpr" not in s.leaf:
            branches["reject"] += 1
        else:
            branches["refine"] += 1
    iterates = of("dynamics.iterate")
    iterate_ids = {id(s) for s in iterates}
    steps = of("dynamics.step")
    steps_in_iterate = sum(1 for s in steps if id(s.parent) in iterate_ids)
    settled = sum(1 for s in iterates if s.info in ("FixedPoint", "LimitCycle"))
    mains = of("cli.main")
    loads = [s for s in tracer.spans if s.name == "cli.load"]  # setup loads included
    rows = [s for s in iterates if s.parent is not None and s.parent.name == "cli.main"]
    sweep_wall = incl(mains) if rows else 0.0
    m = {
        "costs.cdf_calls": (per_task(leaf_total(every, "costs.cdf", 0)), "count/task"),
        "costs.cdf_s": (per_task(leaf_total(every, "costs.cdf", 1)), "s/task"),
        "features.tpr_fpr_calls": (per_task(leaf_total(every, "features.tpr_fpr", 0)), "count/task"),
        "features.tpr_fpr_s": (per_task(leaf_total(every, "features.tpr_fpr", 1)), "s/task"),
        "features.tpr_fpr_per_br": (
            leaf_total(brs, "features.tpr_fpr", 0) / len(brs) if brs else 0.0, "count/br"),
        "features.br_calls": (per_task(len(brs)), "count/task"),
        "features.br_self_s": (per_task(self_of(brs)), "s/task"),
        "features.rates_grid_points": (
            per_task(leaf_total(every, "features.rates_grid", 2)), "count/task"),
        "features.br_refine_calls": (per_task(branches["refine"]), "count/task"),
        "features.br_plateau_calls": (per_task(branches["plateau"]), "count/task"),
        "features.br_reject_calls": (per_task(branches["reject"]), "count/task"),
        "features.br_halfspace_calls": (per_task(branches["halfspace"]), "count/task"),
        "features.decoupled_br_calls": (per_task(len(of("features.decoupled_br"))), "count/task"),
        "dynamics.step_calls": (per_task(len(steps)), "count/task"),
        "dynamics.step_self_s": (per_task(self_of(steps)), "s/task"),
        "dynamics.iterate_calls": (per_task(len(iterates)), "count/task"),
        "dynamics.iterate_self_s": (per_task(self_of(iterates)), "s/task"),
        "dynamics.steps_per_iterate": (
            steps_in_iterate / len(iterates) if iterates else 0.0, "count/iterate"),
        "dynamics.settled_frac": (settled / len(iterates) if iterates else 0.0, "share"),
        "dynamics.classify_calls": (per_task(len(of("dynamics.classify"))), "count/task"),
        "dynamics.classify_s": (per_task(incl(of("dynamics.classify"))), "s/task"),
        "analysis.scan_calls": (per_task(len(of("analysis.scan"))), "count/task"),
        "analysis.scan_self_s": (per_task(self_of(of("analysis.scan"))), "s/task"),
        # The one-group scan evaluates Phi as a best response made directly
        # inside the scan span; everywhere else best responses sit in a step.
        "analysis.phi_evals": (
            per_task(sum(1 for s in brs if s.parent is not None
                         and s.parent.name == "analysis.scan")), "count/task"),
        "analysis.closed_form_s": (per_task(incl(of("analysis.closed_form"))), "s/task"),
        "cli.load_s": (incl(loads) / len(loads) if loads else 0.0, "s/load"),
        "cli.self_s": (per_task(self_of(mains)), "s/task"),
        "cli.sweep_cpu_per_wall": (
            sum(s.cpu for s in rows) / sweep_wall if sweep_wall else 0.0, "ratio"),
    }
    return m
