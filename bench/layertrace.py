"""Per-layer trace of one sweep process, installed from outside the program.

``install()`` replaces each traced function of ``hybridsim`` with a wrapper
under every name a module of the package binds it to, so a call is seen
whichever module looks the function up.  Nothing inside the package
changes.  A wrapper opens a span: calls and self time (the span's duration
minus the spans it encloses) accumulate per span name.  A span name met
again inside itself (a designer routed through another designer) stays one
span, so merged code paths are not counted twice.

A traced function that the package no longer defines, or that the sweep
never calls, is reported by name as absent rather than as a zero.
"""

import importlib
import time

MODULES = (
    "hybridsim",
    "hybridsim.admm",
    "hybridsim.baseline",
    "hybridsim.channel",
    "hybridsim.cli",
    "hybridsim.harness",
    "hybridsim.numerics",
)

# span name -> functions it covers, as (defining module, function name)
SPANS = {
    "cli": [("hybridsim.cli", "main")],
    "harness.run_sweep": [("hybridsim.harness", "run_sweep")],
    "harness.run_single": [("hybridsim.harness", "run_single")],
    "channel.gen_wideband": [("hybridsim.channel", "gen_wideband")],
    "baseline.optimal_factors": [("hybridsim.baseline", "optimal_factors")],
    "baseline.spectral_efficiency": [("hybridsim.baseline", "spectral_efficiency")],
    "admm.design": [
        ("hybridsim.admm", "design_fully_connected"),
        ("hybridsim.admm", "design_partially_connected"),
        ("hybridsim.admm", "design_wideband"),
    ],
    "admm.least_squares_fbb": [("hybridsim.admm", "least_squares_fbb")],
    "admm.project_unit_modulus": [("hybridsim.admm", "project_unit_modulus")],
    "numerics.svd": [("hybridsim.numerics", "svd")],
    "numerics.solve_hpd": [("hybridsim.numerics", "solve_hpd")],
    "numerics.logdet_eval": [("hybridsim.numerics", "logdet_eval")],
}


class Tracer:
    """Span aggregates of one process: calls and self seconds per span."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.missing = []  # "module.function" the package no longer defines
        self.designs = 0
        self.iterations = 0
        self.capped = 0
        self._stack = []  # [span name, start, seconds of enclosed spans]

    def wrap(self, name, fn):
        is_design = name == "admm.design"

        def traced(*args, **kwargs):
            if any(frame[0] == name for frame in self._stack):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[2]
                if self._stack:
                    self._stack[-1][2] += elapsed
            if is_design:
                self._count_design(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_design(self, args, kwargs, result):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        iterations = getattr(result, "iterations", None)
        if iterations is None or cfg is None:
            return
        self.designs += 1
        self.iterations += iterations
        self.capped += iterations >= cfg.max_iters

    def absent(self):
        """Names of traced functions that are missing or were never called."""
        never = [name for name, n in self.calls.items() if n == 0]
        return self.missing + [f"{name} (never called)" for name in never]

    def report(self):
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "designs": self.designs,
            "iterations": self.iterations,
            "capped": self.capped,
            "absent": self.absent(),
        }


def install():
    """Wrap every traced function of the imported package; return the Tracer."""
    modules = [importlib.import_module(m) for m in MODULES]
    tracer = Tracer()
    for name, targets in SPANS.items():
        for module_name, attr in targets:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return tracer
