"""Outside-in spans around the library's public functions.

``Tracer.install`` replaces each traced function wherever callers look it
up: the defining module, every ``doobkit`` module that bound a copy with
``from .x import name`` (``solve`` in ``pricing`` and ``regularity``,
``cond_exp_cells`` in ``regularity``, ``pricing`` and ``claims``, ...),
and, for ``FilteredSpace`` methods, the class itself.  ``uninstall`` puts
the originals back.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: module -> public functions timed from outside
TRACED = {
    "space": ("cond_exp_cells", "ess_sup_cond_exp_cells", "build_space"),
    "scenario": ("parse_scenario", "load_scenario"),
    "lp": ("solve",),
    "regularity": (
        "classify", "find_a0_element", "xi0_step_lp", "xi0_step_alpha",
        "optional_decompose", "verify_decomposition",
    ),
    "pricing": (
        "fair_price_a0", "fair_price_generators", "superhedge_strategy",
        "find_emm", "verify_emm", "martingale_representation",
    ),
    "claims": ("audit", "envelope_process", "search_counterexample"),
    "generators": (
        "random_space", "random_family", "product_family",
        "random_martingale", "random_supermartingale",
    ),
}
#: FilteredSpace methods, traced as ``space.<method>``
SPACE_METHODS = ("atom_to_cell", "parent_cell", "expand", "restrict")
#: a span list needs this many calls before its p90 is reported
P90_MIN_CALLS = 100


def lp_certified(lp, out, tol: float = 1e-9) -> bool:
    """Whether an ``optimal`` outcome's own residuals are within ``tol``
    scaled by the largest LP coefficient."""
    data = [lp.objective] + [a for a in (lp.a_eq, lp.b_eq, lp.a_ge, lp.b_ge) if a is not None]
    scale = max(1.0, max(float(np.abs(a).max(initial=0.0)) for a in data))
    worst = max(out.primal_residual, abs(out.duality_gap), out.comp_slackness)
    return worst <= tol * scale


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    ``spans`` holds ``(id, name, start, end, parent, op)`` tuples.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op: Optional[str] = None
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)  # reserve the id
            tracer.stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(tracer, args, None, exc)
                raise
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, dk_modules: dict) -> None:
        """Wrap every traced function; ``dk_modules`` maps short names to modules."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "doobkit"]
        for short, names in TRACED.items():
            mod = dk_modules[short]
            for name in names:
                original = getattr(mod, name)
                wrapped = self.wrap(f"{short}.{name}", original, _AFTER.get(f"{short}.{name}"))
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, value))
                            setattr(holder, attr, wrapped)
        cls = dk_modules["space"].FilteredSpace
        for name in SPACE_METHODS:
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, self.wrap(f"space.{name}", original))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,self_s,p50_ms,p90_ms}`` plus counters."""
        selfs = self_times(self.spans)
        durations: dict[str, list[float]] = defaultdict(list)
        self_sum: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            durations[name].append(end - start)
            self_sum[name] += selfs[sid]
        out: dict[str, float] = {}
        for name, ds in durations.items():
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.self_s"] = self_sum[name]
            out[f"{name}.p50_ms"] = 1e3 * float(np.percentile(ds, 50))
            if len(ds) >= P90_MIN_CALLS:
                out[f"{name}.p90_ms"] = 1e3 * float(np.percentile(ds, 90))
        out.update(self.counters)
        alpha = durations.get("regularity.xi0_step_alpha")
        if alpha:
            out["regularity.xi0_step_alpha.yield"] = (
                self.counters.get("regularity.xi0_step_alpha.certificates", 0.0) / len(alpha)
            )
        return out

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# -- per-function counters, read off arguments and results -------------------


def _after_solve(tracer: Tracer, args, out, exc) -> None:
    lp = args[0]
    rows = sum(a.shape[0] for a in (lp.a_eq, lp.a_ge) if a is not None)
    c = tracer.counters
    # computed from the LP's shape, not read from the kernel
    c["lp.solve.tableau_cells"] += rows * (lp.n_vars + rows + 1)
    c["lp.solve.max_rows"] = max(c["lp.solve.max_rows"], rows)
    if exc is not None:
        c["lp.solve.raised"] += 1
    elif out.status != "optimal":
        c["lp.solve.nonoptimal"] += 1
    elif not lp_certified(lp, out):
        c["lp.solve.uncertified"] += 1


def _after_alpha(tracer: Tracer, args, out, exc) -> None:
    if exc is None and hasattr(out, "xi0"):
        tracer.counters["regularity.xi0_step_alpha.certificates"] += 1


def _after_search(tracer: Tracer, args, out, exc) -> None:
    if exc is None:
        tracer.counters["claims.search_counterexample.budget_used"] += out.budget_used


_AFTER = {
    "lp.solve": _after_solve,
    "regularity.xi0_step_alpha": _after_alpha,
    "claims.search_counterexample": _after_search,
}
