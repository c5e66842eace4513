"""Span tracing installed from outside swgeo.

``Tracer.install()`` replaces the public names at each layer boundary
with timing wrappers: the swgeo functions that ``swgeo.sliced`` and
``swgeo.cli`` import, the entry points the benchmark calls, and the
class attributes ``Measure1D.from_components``, ``Measure1D.quantile_fn``,
``Measure1D.cdf``, ``AnalyticQuantile.__call__`` and ``LinePlot.render``.
``uninstall()`` puts the originals back.  Spans (name, start, end,
parent) are kept in flat arrays and written out at the end; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

WP_EXACT = "transport1d.wasserstein_p.exact"
WP_NUMERIC = "transport1d.wasserstein_p.numeric"
DIST1D = (WP_EXACT, WP_NUMERIC, "transport1d.wasserstein_inf")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, hook=None):
        """Timing wrapper; ``name`` may be a function of the call arguments."""
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self._stack)
        pick = name if callable(name) else None
        fixed = None if pick else self.nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(pick(args) if pick else fixed)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if hook:
                hook(args)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, name, hook=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, hook))
        else:
            new = self.wrap(raw, name, hook)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        import swgeo.measure1d as m1d
        import swgeo.sliced as sliced
        import swgeo.sphere as sphere
        import swgeo.svg as svg

        exact, numeric = self.nid(WP_EXACT), self.nid(WP_NUMERIC)
        counters = self.counters

        def wp_path(args):
            both = args[0].is_discrete_mixture and args[1].is_discrete_mixture
            return exact if both else numeric

        def sorted_points(args):
            counters["sliced.empirical.points_sorted"] += len(args[0]) + len(args[2])

        def projected_bytes(args):
            X, Y, dirs = args[0], args[1], args[4]
            counters["sliced.empirical.bytes_projected"] += 8 * (X.n + Y.n) * dirs.n

        # the functions sliced and cli import from the rest of swgeo
        for mod in (sliced, sys.modules.get("swgeo.cli")):
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ != mod.__name__ \
                        and obj.__module__.startswith("swgeo."):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    name = wp_path if obj.__name__ == "wasserstein_p" else f"{layer}.{attr}"
                    self._patch(mod, attr, name)
        # entry points the benchmark calls, and the empirical kernel
        self._patch(sliced, "sw_pq", "sliced.sw_pq")
        self._patch(sliced, "sw_pq_empirical", "sliced.sw_pq_empirical", projected_bytes)
        self._patch(sliced, "empirical_w1d", "sliced.empirical_w1d", sorted_points)
        self._patch(sliced, "sample_shell", "sliced.sample_shell")
        self._patch(sphere, "mc_directions", "sphere.mc_directions")
        # class attributes
        self._patch(m1d.Measure1D, "from_components", "measure1d.from_components")
        self._patch(m1d.Measure1D, "quantile_fn", "measure1d.quantile_fn")
        self._patch(m1d.Measure1D, "cdf", "measure1d.cdf")
        self._patch(m1d.AnalyticQuantile, "__call__", "measure1d.analytic_quantile")
        self._patch(svg.LinePlot, "render", "svg.render")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- results

    def arrays(self):
        # copies: a view would pin the growable buffers
        return (np.frombuffer(self.name, dtype=np.intc).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.start, dtype=float).copy(),
                np.frombuffer(self.end, dtype=float).copy())

    def summary(self):
        """Per span name: (calls, self seconds); plus, per name, the count
        of its spans whose parent carries each other name."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        stats = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

        def count_under(child: str, parent_: str) -> int:
            if child not in self._ids or parent_ not in self._ids:
                return 0
            return int(np.sum((name == self._ids[child])
                              & (parent_name == self._ids[parent_])))

        return stats, count_under

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

