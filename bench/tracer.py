"""Layer tracing from outside the package.

The tracer replaces, in the benchmark process only, the names that each
searchlab module imported from another layer (``searchlab.sim.run_strategy``,
``searchlab.bounds.solve_a_eta``, ...) with timing wrappers, and restores
them afterwards.  No file of the package changes.

Request-level and trial-level boundaries keep a full span each (name,
start, end, parent, request id).  Per-probe boundaries run hundreds of
thousands of times a run, so they only add to counters per (name, parent):
calls, busy time and self time, where self time is the duration less the
time spent in wrapped children.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (layer-qualified name, defining module, modules whose global names are
# replaced, full spans?).  The defining module is listed among the callers
# where the package calls the function through its own module globals.
BOUNDARIES = (
    ("plan.parse_plan", "plan", ("cli",), False),
    ("plan.run_plan", "plan", ("cli",), True),
    ("sim.drift_probe", "sim", ("sim",), True),
    ("sim.run_trials", "sim", ("plan",), True),
    ("sim.trial_seed_for", "sim", ("plan", "sim"), False),
    ("sim.run_single_trial", "sim", ("sim",), True),
    ("strategies.run_strategy", "strategies", ("sim",), False),
    ("strategies.sorted_pm_mask", "strategies", ("strategies", "sim"), False),
    ("strategies.random_composition_mask", "strategies",
     ("strategies", "sim"), False),
    ("inference.update_log_probs", "inference", ("strategies", "sim"), False),
    ("inference.renormalize_log_probs", "inference",
     ("inference", "strategies"), False),
    ("inference.u_log_probs", "inference", ("sim",), False),
    ("bounds.nonadaptive_lower_bound", "bounds", ("bounds",), False),
    ("bounds.adaptive_upper_bound", "bounds", ("bounds",), False),
    ("bounds.adaptivity_gain_lower_bound", "bounds", ("bounds",), False),
    ("bounds.general_f_bounds", "bounds", ("bounds",), False),
    ("channel.optimal_composition", "channel",
     ("bounds", "plan", "sim", "strategies"), False),
    ("channel.solve_a_eta", "channel", ("bounds", "plan"), False),
    ("channel.psi", "channel", ("channel",), False),
    ("channel.psi_component", "channel", ("channel",), False),
    ("channel.bawgn_capacity", "channel",
     ("channel", "bounds", "sim", "plan", "cli"), False),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and counters for one traced phase."""

    def __init__(self):
        self.stack: list[list] = []  # [name, time in wrapped children]
        self.counters: dict[tuple[str, str | None], list[float]] = {}
        self.spans: list[tuple] = []
        self.request_id: str | None = None
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, full: bool):
        stack, counters, spans = self.stack, self.counters, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                c = counters.get((name, parent))
                if c is None:
                    c = counters[(name, parent)] = [0, 0.0, 0.0]
                c[0] += 1
                c[1] += duration
                c[2] += duration - frame[1]
                if full:
                    spans.append((name, start, end, parent, self.request_id))
        return traced

    def install(self):
        """Replace every boundary name; returns the traced cli.main."""
        for name, home, callers, full in BOUNDARIES:
            attr = name.split(".", 1)[1]
            original = getattr(importlib.import_module(f"searchlab.{home}"), attr)
            wrapper = self.wrap(name, original, full)
            for caller in callers:
                module = importlib.import_module(f"searchlab.{caller}")
                self._patched.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        cli = importlib.import_module("searchlab.cli")
        return self.wrap(ROOT_SPAN, cli.main, True)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, list[float]]:
        """calls, busy seconds and self seconds per name, over all parents."""
        out: dict[str, list[float]] = {}
        for (name, _), (calls, busy, self_s) in self.counters.items():
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += busy
            t[2] += self_s
        return out

    def dump(self) -> dict:
        return {
            "counters": [{"name": n, "parent": p, "calls": c, "busy_s": b,
                          "self_s": s}
                         for (n, p), (c, b, s) in self.counters.items()],
            "spans": [{"name": n, "start": s, "end": e, "parent": p,
                       "request": r} for n, s, e, p, r in self.spans],
        }
