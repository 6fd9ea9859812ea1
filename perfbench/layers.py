"""Timing wrappers around the public entry points of each layer.

The benchmark never edits the program: it replaces a function or method
by a wrapper for the duration of a run and puts the original back
afterwards.  Two kinds of wrapper exist:

* :class:`Patches` installs and restores any wrapper.  Module-level
  functions are replaced in every loaded ``repro`` module that bound
  them (``from .x import f`` copies the reference), so callers see the
  wrapper whichever name they use.
* :class:`LayerTracer` builds span wrappers: each call is a span nested
  in the innermost active one.  Spans are aggregated as they end: per
  entry the call count, the inclusive time of outermost calls and the
  self time (the span's duration minus the part its child spans cover).

The program's own tracer (``repro.obs``) stays off throughout.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (dotted target, entry name).  A target is ``module:function`` or
#: ``module:Class.method``; the entry name is ``<layer>.<entry>``.
LAYER_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.geostat.phases:build_iteration_parts",
     "geostat.build_iteration_parts"),
    ("repro.runtime.simfast:compile_template", "simfast.compile_template"),
    ("repro.runtime.simfast:PlanTemplate.bind", "simfast.bind"),
    ("repro.runtime.simfast:FastSimulator.run_plan", "simfast.run_plan"),
    ("repro.distribution.lp_bound:LPBoundCalculator.iteration",
     "distribution.lp_iteration"),
    ("repro.measure.sweep:sweep_scenario", "measure.sweep_scenario"),
    ("repro.gp.regression:GaussianProcess.fit", "gp.fit"),
    ("repro.gp.regression:GaussianProcess.predict", "gp.predict"),
    ("repro.gp.kernels:Kernel.__call__", "gp.kernel"),
    ("repro.strategies.base:Strategy.propose", "strategies.propose"),
    ("repro.strategies.base:Strategy.observe", "strategies.observe"),
    ("repro.serve.protocol:render", "serve.protocol.render"),
    ("repro.serve.protocol:parse_request", "serve.protocol.parse_request"),
    ("repro.serve.service:TuningService.handle", "serve.handle"),
    ("repro.serve.service:TuningService.tick", "serve.tick"),
    ("repro.evaluate.parallel:run_cells", "evaluate.run_cells"),
)

#: Strategies whose per-decision time is reported at the layer level.
DECISION_STRATEGIES = ("DC", "Right-Left", "Brent", "UCB", "UCB-struct",
                       "GP-discontinuous")


def resolve(target: str):
    """``(owner, attribute, original)`` of a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _program_modules_binding(attr: str, value) -> list:
    """Loaded ``repro`` modules whose ``attr`` is ``value``."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and mod is not None and getattr(mod, attr, None) is value
    ]


class Patches:
    """Install wrappers and restore every original, in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[list, str, object, object]] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` by ``make(original)`` wherever it is bound."""
        owner, attr, original = resolve(target)
        wrapper = make(original)
        if isinstance(owner, type):
            holders = [owner]
        else:
            # A module function is also bound in every module that did
            # ``from <module> import <function>``.
            holders = _program_modules_binding(attr, original)
        for holder in holders:
            setattr(holder, attr, wrapper)
        self._undo.append((holders, attr, original, wrapper))

    def restore(self) -> None:
        """Put every original back; raise if one could not be restored."""
        while self._undo:
            holders, attr, original, wrapper = self._undo.pop()
            if not isinstance(holders[0], type):
                # A module imported while the wrapper was installed bound
                # the wrapper itself.
                holders = holders + [
                    mod for mod in _program_modules_binding(attr, wrapper)
                    if mod not in holders]
            for holder in holders:
                if getattr(holder, attr) is not wrapper:
                    raise RuntimeError(
                        f"{holder!r}.{attr} was replaced during the run")
                setattr(holder, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class LayerTracer:
    """Span wrappers with per-entry calls, inclusive and self time."""

    def __init__(self) -> None:
        #: entry -> [calls, inclusive seconds (outermost calls), self seconds]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for _, name in LAYER_ENTRIES}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {
            "simfast.tasks_simulated": 0, "simfast.transfers_simulated": 0}
        self.sweep_s: Dict[str, float] = {}
        self.sweep_configs: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {}
        #: id(strategy) -> (strategy, propose seconds).  Holding the
        #: strategy keeps its id from being reused by a later one.
        self._pending_propose: Dict[int, Tuple[object, float]] = {}

    def install(self, patches: Patches) -> None:
        for target, name in LAYER_ENTRIES:
            patches.wrap(target, lambda fn, name=name: self._span(name, fn))

    def _span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        depth = self._depth
        stats = self.stats[name]
        perf = time.perf_counter
        finish = self._finishers().get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += dt - frame[0]
                outermost = depth[name] == 0
                if outermost:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
            if finish is not None:
                finish(args, result, dt, outermost)
            return result

        return wrapper

    # -- per-entry counters ---------------------------------------------------------

    def _finishers(self):
        return {
            "simfast.run_plan": self._on_run_plan,
            "gp.fit": self._on_fit,
            "measure.sweep_scenario": self._on_sweep,
            "strategies.propose": self._on_propose,
            "strategies.observe": self._on_observe,
        }

    def _on_run_plan(self, args, result, dt, outermost) -> None:
        self.counts["simfast.tasks_simulated"] += result.task_count
        self.counts["simfast.transfers_simulated"] += result.transfer_count

    def _on_fit(self, args, result, dt, outermost) -> None:
        self.samples.setdefault("gp.fit", []).append(dt)

    def _on_sweep(self, args, result, dt, outermost) -> None:
        key = args[0].key
        self.sweep_s[key] = self.sweep_s.get(key, 0.0) + dt
        self.sweep_configs[key] = (self.sweep_configs.get(key, 0)
                                   + len(result.actions))

    def _on_propose(self, args, result, dt, outermost) -> None:
        # Only the outermost strategy call is a decision: a wrapper such
        # as Resilient(UCB) proposes through its inner strategy.
        if outermost:
            strategy = args[0]
            _, before = self._pending_propose.get(id(strategy), (None, 0.0))
            self._pending_propose[id(strategy)] = (strategy, before + dt)

    def _on_observe(self, args, result, dt, outermost) -> None:
        # A decision is a propose and the observe that answers it; the
        # warm-start observations a serve tenant sends first are not.
        if outermost:
            strategy = args[0]
            pending = self._pending_propose.pop(id(strategy), None)
            if pending is not None:
                self.samples.setdefault(
                    f"decision.{strategy.name}", []).append(pending[1] + dt)

    # -- reporting ------------------------------------------------------------------

    def self_time_table(self, wall_s: float) -> List[Dict[str, object]]:
        """Rows by self time, plus the ``unattributed`` remainder.

        The shares add up to the traced wall time: what no wrapped entry
        covers is the benchmark's own loop and the layers it does not
        wrap.
        """
        rows = [
            {"entry": name, "calls": int(st[0]), "s": st[1], "self_s": st[2],
             "share_pct": 100.0 * st[2] / wall_s}
            for name, st in self.stats.items() if st[0]
        ]
        rows.sort(key=lambda r: (-r["self_s"], r["entry"]))
        attributed = sum(r["self_s"] for r in rows)
        rest = wall_s - attributed
        rows.append({"entry": "unattributed", "calls": 0, "s": rest,
                     "self_s": rest, "share_pct": 100.0 * rest / wall_s})
        return rows

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metric values (0 for layers the workload never ran)."""
        out: Dict[str, float] = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = float(calls)
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        out.update({k: float(v) for k, v in self.counts.items()})
        run_plan_s = self.stats["simfast.run_plan"][1]
        out["simfast.tasks_per_s"] = (
            self.counts["simfast.tasks_simulated"] / run_plan_s
            if run_plan_s else 0.0)
        out["gp.fit.ms_p50"] = _median_ms(self.samples.get("gp.fit"))
        for name in DECISION_STRATEGIES:
            out[f"strategies.{name}.decision_ms_p50"] = _median_ms(
                self.samples.get(f"decision.{name}"))
        for key in ("b", "c"):
            seconds = self.sweep_s.get(key, 0.0)
            out[f"measure.sweep_scenario.{key}.s"] = seconds
            out[f"sweep.{key}.configs_per_s"] = (
                self.sweep_configs[key] / seconds if seconds else 0.0)
        attributed = sum(st[2] for st in self.stats.values())
        out["unattributed.self_s"] = wall_s - attributed
        return out


def _median_ms(values: Optional[List[float]]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def render_table(title: str, rows: List[Dict[str, object]],
                 wall_s: float) -> str:
    """Plain-text self-time table."""
    lines = [f"{title}: traced wall {wall_s:.3f} s",
             f"  {'entry':<32} {'calls':>9} {'incl s':>9} {'self s':>9} "
             f"{'share':>7}"]
    for row in rows:
        lines.append(
            f"  {row['entry']:<32} {row['calls']:>9} {row['s']:>9.3f} "
            f"{row['self_s']:>9.3f} {row['share_pct']:>6.1f}%")
    total = sum(float(r["share_pct"]) for r in rows)
    lines.append(f"  {'total':<32} {'':>9} {'':>9} {wall_s:>9.3f} "
                 f"{total:>6.1f}%")
    return "\n".join(lines)
