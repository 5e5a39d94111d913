"""Spans around isocurv's layer entry points, and the per-layer metrics.

The tracer replaces each entry point by a wrapper under every name an
isocurv module binds it to, so callers that imported it by name
(`from .profiles import domain_check`) reach the wrapper as well.  An entry
point that no longer exists is skipped and its metrics are omitted.
Spans stay in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _frames_and_dim(args, kwargs, result):
    return result.shape[0], result.shape[-1]


def _batch_frames_and_dim(args, kwargs, result):
    return len(result), args[1].shape[-1]


def _grid_points(args, kwargs, result):
    return len(result[0]), None


def _rk4_steps(args, kwargs, result):
    return len(result) - 1, None


def _scanned_points(signature):
    """Grid points domain_check looked at: all of them, or up to the failure."""

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid_n = bound.arguments["grid_n"]
        if result is None:
            return grid_n, None
        lo, hi = bound.arguments["s_window"]
        return round((result.s - lo) / ((hi - lo) / (grid_n - 1))) + 1, None

    return count


# module -> entry points; a counter gives (work units, dimension) for a span
ENTRY_POINTS = {
    "curvature": {
        "build_constant_curvature": None,
        "build_product": None,
        "build_from_shape": None,
        "cic_probe": None,
        "_frame_array": _frames_and_dim,
        "_isotropic_batch": _batch_frames_and_dim,
    },
    "profiles": {
        "cic_along_profile": _grid_points,
        "domain_check": "signature",
        "integrate_profile": _rk4_steps,
    },
    "classification": {"classify": None, "nonexistence_witness": None},
    "cli": {"main": None},
}

BUILDERS = ("curvature.build_constant_curvature", "curvature.build_product", "curvature.build_from_shape")
GRID = ("profiles.cic_along_profile", "profiles.domain_check")

# metric -> spans whose self time it sums
SELF_TIME = {
    "curvature.build_s": BUILDERS,
    "curvature.sample_s": ("curvature._frame_array",),
    "curvature.eval_s": ("curvature._isotropic_batch",),
    "curvature.probe_overhead_s": ("curvature.cic_probe",),
    "profiles.grid_s": GRID,
    "profiles.rk4_s": ("profiles.integrate_profile",),
    "classification.classify_s": ("classification.classify",),
    "classification.nonexistence_s": ("classification.nonexistence_witness",),
    "cli.self_s": ("cli.main",),
}

# metric -> (spans, unit factor, dimension or None): self time per unit of work
PER_UNIT = {
    "curvature.sample_us_per_frame": (("curvature._frame_array",), 1e6, None),
    "curvature.eval_us_per_frame.n4": (("curvature._isotropic_batch",), 1e6, 4),
    "curvature.eval_us_per_frame.n8": (("curvature._isotropic_batch",), 1e6, 8),
    "curvature.eval_us_per_frame.n16": (("curvature._isotropic_batch",), 1e6, 16),
    "profiles.grid_us_per_point": (GRID, 1e6, None),
    "profiles.rk4_ns_per_step": (("profiles.integrate_profile",), 1e9, None),
}

SUITE_PREFIX = "checks.suite."


class Tracer:
    """Records (name, start, end, parent, operation, pass, units, dim) spans."""

    def __init__(self):
        self.spans: list = []
        self.op_id = 0
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (module, attribute, original, wrapper)
        self.wrapped: set[str] = set()
        self._plan()

    def start_op(self) -> None:
        self.op_id += 1

    def _wrap(self, name, fn, counter, starts_op=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_op:
                self.op_id += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                units = dim = None
                if ok and counter is not None:
                    units, dim = counter(args, kwargs, result)
                spans[index] = (name, t0, t1, parent, self.op_id, self.pass_id, units, dim)

        return traced

    def _plan(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "isocurv" or key.startswith("isocurv.")]
        for module_name, entries in ENTRY_POINTS.items():
            home = sys.modules.get(f"isocurv.{module_name}")
            for attr, counter in entries.items():
                original = getattr(home, attr, None)
                if original is None:
                    continue
                if counter == "signature":
                    counter = _scanned_points(inspect.signature(original))
                name = f"{module_name}.{attr}"
                wrapper = self._wrap(name, original, counter)
                self.wrapped.add(name)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, binding, original, wrapper))
        checks = sys.modules.get("isocurv.checks")
        suites = getattr(checks, "ALL_CHECKS", None)
        if suites is not None:
            wrapped = tuple((n, self._wrap(SUITE_PREFIX + n, fn, None, starts_op=True)) for n, fn in suites)
            self.wrapped.update(SUITE_PREFIX + n for n, _ in suites)
            self._patches.append((checks, "ALL_CHECKS", suites, wrapped))

    def install(self) -> None:
        """Wrap the entry points for one traced pass."""
        self.pass_id += 1
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def metrics(self, traced_pass_s: list[float], untraced_pass_s: list[float]) -> dict[str, float]:
        """Per-layer metrics: medians over the traced passes of per-pass sums.

        A span's self time is its duration less that of its child spans.
        """
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        per_pass = [defaultdict(float) for _ in range(self.pass_id + 1)]
        for (name, t0, t1, _, _, p, units, dim), child in zip(self.spans, child_time):
            sums = per_pass[p]
            sums["self", name] += t1 - t0 - child
            sums["total", name] += t1 - t0
            sums["units", name] += units or 0
            sums["self", name, dim] += t1 - t0 - child
            sums["units", name, dim] += units or 0

        def median(f):
            return statistics.median(f(sums) for sums in per_pass)

        def per_unit(sums, names, factor, dim):
            key = () if dim is None else (dim,)
            units = sum(sums[("units", n) + key] for n in names)
            return factor * sum(sums[("self", n) + key] for n in names) / units if units else 0.0

        out = {}
        for metric, names in SELF_TIME.items():
            if self.wrapped.intersection(names):
                out[metric] = median(lambda sums: sum(sums["self", n] for n in names))
        for metric, (names, factor, dim) in PER_UNIT.items():
            if self.wrapped.intersection(names):
                out[metric] = median(lambda sums: per_unit(sums, names, factor, dim))
        for name in sorted(n for n in self.wrapped if n.startswith(SUITE_PREFIX)):
            out["checks.suite_s." + name[len(SUITE_PREFIX):]] = median(lambda sums: sums["total", name])
        out["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(untraced_pass_s)
        return out

    def write(self, path: Path, header: dict) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [[n, t0 - origin, t1 - origin, parent, op, p, units, dim]
                for n, t0, t1, parent, op, p, units, dim in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_s", "end_s", "parent", "op", "pass", "units", "dim"]
        path.write_text(json.dumps({**header, "fields": fields, "spans": rows}) + "\n")
