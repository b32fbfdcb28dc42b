"""Per-layer spans recorded from outside the package.

``Spans.install`` swaps each layer's entry points for timing wrappers,
where the caller binds them (``sesopt.sesop.build_frame``,
``sesopt.tn.inner_cg``, the counted methods of ``Objective`` and
``LinearOperator``, ...), and puts the originals back on exit. Spans are
aggregated in memory by layer name: calls and self time (a span's
duration minus the time of the spans nested in it), plus work counts read
from the wrapped calls' results.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute path, layer name) of each wrapped entry point
TARGETS = (
    ("sesopt.core", "LinearOperator.apply", "core.matvec"),
    ("sesopt.core", "LinearOperator.adjoint", "core.matvec"),
    ("sesopt.core", "Objective.hvp", "problems.hvp"),
    ("sesopt.core", "Objective.value", "problems.fg"),
    ("sesopt.core", "Objective.grad", "problems.fg"),
    ("sesopt.core", "Objective.value_and_grad", "problems.fg"),
    ("sesopt.sesop", "pcd_direction", "kernels"),
    ("sesopt.sesop", "ssf_direction", "kernels"),
    ("sesopt.baselines", "ssf_direction", "kernels"),
    ("sesopt.sesop", "build_frame", "subspace.frame"),
    ("sesopt.tn", "build_frame", "subspace.frame"),
    ("sesopt.sesop", "subspace_minimize", "subspace.solve"),
    ("sesopt.tn", "subspace_minimize", "subspace.solve"),
    ("sesopt.tn", "line_search_backtracking", "subspace.linesearch"),
    ("sesopt.baselines", "line_search_backtracking", "subspace.linesearch"),
    ("sesopt.tn", "inner_cg", "tn.inner_cg"),
)


class Spans:
    """Aggregated span statistics for one traced round."""

    def __init__(self):
        self.stack = []       # open spans: [layer, time of nested spans]
        self.stats = {}       # layer -> [calls, self_s]
        self.counts = {}      # work counts read from results
        self.missing = []     # targets not found in the package

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_result(self, layer, out):
        if layer == "problems.hvp" and any(
                frame[0] == "subspace.solve" for frame in self.stack):
            self.add("solve_hvps", 1)
        elif layer == "subspace.frame":
            self.add("frame_cols", out.size)
            self.add("frame_dropped", len(out.dropped))
        elif layer == "subspace.solve":
            self.add("newton_steps", out.inner_iters)
        elif layer == "tn.inner_cg":
            self.add("inner_cg_steps", out.n_steps)
        elif layer == "trace.write":
            self.add("trace_bytes", len(out.encode()))

    def wrap(self, layer, fn):
        stack, stats, on_result = self.stack, self.stats, self._on_result
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                s = stats.setdefault(layer, [0, 0.0])
                s[0] += 1
                s[1] += dur - frame[1]
            on_result(layer, out)
            return out

        return traced

    @contextmanager
    def install(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, path, layer in TARGETS:
                owner = sys.modules.get(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{module}.{path}")
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
