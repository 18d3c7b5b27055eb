"""Spans around the public entry points of each rfw layer, installed
from outside the package by swapping module attributes and class
methods for timing wrappers.

A span records its name, its parent span, the operation (one solve or
one certificate) it belongs to, and its start and end times.  Self time
is a span's duration minus the time covered by its child spans; it is
accumulated per name while the run is going, and the spans themselves
are kept in flat arrays and written out once the run ends.
"""

import functools
import time
from array import array

import numpy as np

KERNELS = ("sphere", "hyperboloid", "spd")
KERNEL_OPS = ("exp", "log", "dist", "inner", "transport", "check_tangent")


def kernel_tag(kernel):
    """'sphere', 'hyperboloid', 'spd' or 'euclidean' for a kernel."""
    return type(kernel).__name__.lower()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.counts = {}
        self.op = -1
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, child time] per open span
        self._undo = []

    # --- recording ------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, nid, fn, args, kwargs):
        stack = self._stack
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        frame = [sid, 0.0]
        stack.append(frame)
        self.span_end.append(0.0)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.span_end[sid] = t1
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def durations(self, name):
        """Inclusive durations (s) of every span with this name."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        sel = names == nid
        return (np.frombuffer(self.span_end, dtype=np.float64)[sel]
                - np.frombuffer(self.span_start, dtype=np.float64)[sel])

    def stat(self, name):
        """(calls, self seconds) for a span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    # --- installation -----------------------------------------------------

    def _wrapper(self, fn, name):
        nid = self.name_id(name)
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(nid, fn, args, kwargs)
        return traced

    def _counter(self, fn, name):
        count = self.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return counted

    def _checker_wrapper(self, fn):
        """run_checker span named by kernel and notion, counting the
        samples each certificate asks for."""
        span, name_id, count = self.span, self.name_id, self.count

        @functools.wraps(fn)
        def traced(notion, cset, alpha, n_samples, *args, **kwargs):
            name = f"convexity.{kernel_tag(cset.kernel)}.{notion}"
            count(name + ".samples", n_samples)
            return span(name_id(name), fn,
                        (notion, cset, alpha, n_samples) + args, kwargs)
        return traced

    def _patch(self, owner, attr, new):
        """Replace owner.attr, remembering how to undo it (an inherited
        method is shadowed on the subclass and later deleted)."""
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, new)

    def install(self, rfw):
        """Wrap the layer entry points of an imported rfw package.  Call
        before the workload builds its sets: ball_set captures bound
        methods, and rfw.balls and rfw.solver hold their own names for
        the scalar solvers."""
        m, balls, scalars = rfw.manifolds, rfw.balls, rfw.scalars
        for cls in (m.Sphere, m.Hyperboloid, m.Spd):
            tag = cls.__name__.lower()
            for op in KERNEL_OPS:
                self._patch(cls, op, self._wrapper(
                    getattr(cls, op), f"manifolds.{tag}.{op}"))
        for op in ("lmo", "membership", "sample"):
            self._patch(balls.GeodesicBall, op, self._wrapper(
                getattr(balls.GeodesicBall, op), f"balls.{op}"))
        self._patch(balls, "alpha_phi_sphere", self._counter(
            balls.alpha_phi_sphere, "balls.alpha_phi_sphere"))
        for fname in ("minimize_1d", "bisect_root"):
            traced = self._wrapper(getattr(scalars, fname), f"scalars.{fname}")
            for mod in (scalars, balls, rfw.solver):
                if hasattr(mod, fname):
                    self._patch(mod, fname, traced)
        for cls in (rfw.objectives.QuadraticOnEmbedded,
                    rfw.objectives.SquaredDistanceObjective):
            self._patch(cls, "value_grad", self._wrapper(
                cls.value_grad, "objectives.value_grad"))
        self._patch(rfw.solver, "rfw_run", self._wrapper(
            rfw.solver.rfw_run, "solver.rfw_run"))
        self._patch(rfw.solver.RfwTrace, "to_csv", self._wrapper(
            rfw.solver.RfwTrace.to_csv, "solver.to_csv"))
        self._patch(rfw.convexity, "run_checker", self._checker_wrapper(
            rfw.convexity.run_checker))

    def uninstall(self):
        while self._undo:
            owner, attr, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # --- output -------------------------------------------------------------

    def write(self, path, meta):
        """All spans as columns of one .npz file; span i has parent
        span parent[i] (-1 at the top) and belongs to operation op[i]."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            meta=np.array(meta, dtype=str))
