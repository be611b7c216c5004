"""Span tracer wrapped around the package's public functions, from outside.

Only traced runs install it.  ``Tracer.installed()`` rebinds each function
listed in ``TARGETS`` in every ``slopemetric`` module that holds it (so
``slope_metric_F`` is traced when called from ``metric``, ``geodesics`` or,
through ``hessian_field``, ``convexity``) and wraps methods on their class.
Leaving the block restores the originals.

Each call records one span ``(op, id, parent, name, t_enter, start, end,
t_exit)`` as eight doubles, ``name`` being an index into ``LABELS``.
``start``/``end`` bracket the wrapped call; the time between ``t_enter``
and ``t_exit`` outside them is the tracer's own bookkeeping
(argument shapes, result counts).  Self time of a span is ``end - start``
minus the envelopes ``t_exit - t_enter`` of its children, so the self times
and bookkeeping of one operation add up to its root span exactly.  Spans
stay in memory until ``write`` puts them in a CSV file.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

perf = time.perf_counter

ROOT_SPAN = "bench.op"
SETUP_OP = -1


def _count_xy_points(tr, label, args, kwargs):
    tr.count(label + ".points", np.broadcast(args[1], args[2]).size)


def _count_u_points(tr, label, args, kwargs):
    tr.count(label + ".points", np.size(args[1]))


def _count_F_nodes(tr, label, args, kwargs):
    _, x, y, tv = args[:4]
    nodes = int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(tv)[:-1])))
    tr.count(label + ".nodes", nodes)
    if tr.geodesic_depth:
        tr.count("geodesics.F_nodes", nodes)


def _count_directions(tr, label, args, kwargs):
    tr.count(label + ".directions", np.atleast_2d(np.asarray(args[3])).shape[0])


def _count_report(tr, report, args):
    tr.count("convexity.points_checked", report.samples)
    tr.count("convexity.disagreements", len(report.disagreements))
    tr.count("convexity.indeterminate", report.indeterminate)
    tr.count("convexity.trig_skipped", report.trig_skipped)


def _count_paths(tr, paths):
    from slopemetric import geodesics

    for path in paths:
        tr.count("geodesics.live_ray_steps", len(path.t) - 1)
        tr.count("geodesics.rays_left_domain", int(path.status != geodesics.STATUS_COMPLETE))
        tr.count("geodesics.F_drift_max", geodesics.conservation_drift(path), how="max")


def _count_output_bytes(tr, code, args):
    argv = list(args[0]) if args else []
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            tr.count("cli.output_bytes", os.path.getsize(out))


# (label, module, attribute, class or None, count before call, count after
# call, marks a geodesic span)
TARGETS = (
    ("surfaces.surface_from_json", "slopemetric.surfaces", "surface_from_json", None, None, None, False),
    ("surfaces.gradient", "slopemetric.surfaces", "gradient", "SurfaceOfRevolution",
     _count_xy_points, None, False),
    ("surfaces.profile_derivative", "slopemetric.surfaces", "profile_derivative", None,
     None, None, False),
    ("surfaces.trig_m", "slopemetric.surfaces", "m", "TrigProfile", _count_u_points, None, False),
    ("metric.slope_metric_F", "slopemetric.metric", "slope_metric_F", None, _count_F_nodes, None, False),
    ("metric.hessian_field", "slopemetric.metric", "hessian_field", None,
     _count_directions, None, False),
    ("metric.okubo_solve", "slopemetric.metric", "okubo_solve", None, None, None, False),
    ("convexity.verify_equivalence", "slopemetric.convexity", "verify_equivalence", None,
     None, _count_report, False),
    ("convexity.pd_oracle", "slopemetric.convexity", "pd_oracle", None, None, None, False),
    ("convexity.convexity_domain", "slopemetric.convexity", "convexity_domain", None,
     None, None, False),
    ("geodesics.wavefront", "slopemetric.geodesics", "wavefront", None,
     None, lambda tr, res, args: _count_paths(tr, res.rays), True),
    ("geodesics.geodesic_shoot", "slopemetric.geodesics", "geodesic_shoot", None,
     None, lambda tr, res, args: _count_paths(tr, [res]), True),
    ("cli.main", "slopemetric.cli", "main", None, None, _count_output_bytes, False),
)

LABELS = tuple(t[0] for t in TARGETS) + (ROOT_SPAN,)
ROOT_INDEX = LABELS.index(ROOT_SPAN)

# Per-layer metrics of a traced run, as (name, unit, better).  Counts are
# per operation; ``*.self_s`` is the median self time per operation; both
# include the run's one-off in-process surface build.
PER_LAYER = (
    ("slopemetric.import_s", "s", "lower"),
    ("surfaces.surface_from_json.calls", "count", "lower"),
    ("surfaces.surface_from_json.self_s", "s", "lower"),
    ("surfaces.gradient.calls", "count", "lower"),
    ("surfaces.gradient.points", "count", "lower"),
    ("surfaces.gradient.self_s", "s", "lower"),
    ("surfaces.profile_derivative.calls", "count", "lower"),
    ("surfaces.profile_derivative.self_s", "s", "lower"),
    ("surfaces.trig_m.calls", "count", "lower"),
    ("surfaces.trig_m.points", "count", "lower"),
    ("surfaces.trig_m.self_s", "s", "lower"),
    ("metric.slope_metric_F.calls", "count", "lower"),
    ("metric.slope_metric_F.nodes", "count", "lower"),
    ("metric.slope_metric_F.self_s", "s", "lower"),
    ("metric.hessian_field.calls", "count", "lower"),
    ("metric.hessian_field.directions", "count", "lower"),
    ("metric.hessian_field.self_s", "s", "lower"),
    ("metric.okubo_solve.calls", "count", "lower"),
    ("metric.okubo_solve.self_s", "s", "lower"),
    ("convexity.verify_equivalence.self_s", "s", "lower"),
    ("convexity.pd_oracle.calls", "count", "lower"),
    ("convexity.pd_oracle.self_s", "s", "lower"),
    ("convexity.convexity_domain.self_s", "s", "lower"),
    ("convexity.points_checked", "count", "higher"),
    ("convexity.disagreements", "count", "lower"),
    ("convexity.indeterminate", "count", "lower"),
    ("convexity.trig_skipped", "count", "lower"),
    ("geodesics.wavefront.self_s", "s", "lower"),
    ("geodesics.geodesic_shoot.self_s", "s", "lower"),
    ("geodesics.live_ray_steps", "count", "higher"),
    ("geodesics.rays_left_domain", "count", "lower"),
    ("geodesics.F_drift_max", "rel/length", "lower"),
    ("geodesics.F_nodes_per_live_ray_step", "nodes/step", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory spans and per-operation counts for one traced run."""

    def __init__(self):
        self.spans = array("d")
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = SETUP_OP
        self.geodesic_depth = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def count(self, key: str, value, how: str = "sum") -> None:
        c = self.counts[self.op]
        c[key] = max(c[key], value) if how == "max" else c[key] + value

    def _span(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    @contextlib.contextmanager
    def operation(self, op):
        """Root span of one operation; spans inside it carry its id."""
        t_enter = perf()
        self.op = op
        sid, parent = self._span()
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans.extend((op, sid, parent, ROOT_INDEX, t_enter, start, end, perf()))

    def _wrap(self, label, fn, before, after, geodesic):
        tr = self
        index = LABELS.index(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = perf()
            sid, parent = tr._span()
            tr.count(label + ".calls", 1)
            if before is not None:
                before(tr, label, args, kwargs)
            tr.geodesic_depth += geodesic
            returned = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = perf()
                tr.geodesic_depth -= geodesic
                tr._stack.pop()
                if returned and after is not None:
                    after(tr, result, args)
                tr.spans.extend((tr.op, sid, parent, index, t_enter, start, end, perf()))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        pkg = [m for n, m in sys.modules.items() if n == "slopemetric" or n.startswith("slopemetric.")]
        try:
            for label, modname, attr, clsname, before, after, geodesic in TARGETS:
                owner = sys.modules[modname]
                if clsname is not None:
                    cls = getattr(owner, clsname)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(label, orig, before, after, geodesic))
                    self._restore.append((cls, attr, orig))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(label, orig, before, after, geodesic)
                for mod in pkg:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, orig))
            yield self
        finally:
            while self._restore:
                obj, key, orig = self._restore.pop()
                setattr(obj, key, orig)

    def self_times(self):
        """Self seconds per (op, label), and tracer bookkeeping seconds per op."""
        op, sid, parent, label, t_enter, start, end, t_exit = (
            np.frombuffer(self.spans).reshape(-1, 8).T)
        sid = sid.astype(int)
        # root spans (parent -1) count into a spare slot past the last id
        slot = np.where(parent < 0, self._next_id, parent).astype(int)
        covered = np.bincount(slot, weights=t_exit - t_enter, minlength=self._next_id + 1)
        own_s = (end - start) - covered[sid]
        book_s = (start - t_enter) + (t_exit - end)
        own = defaultdict(float)
        bookkeeping = defaultdict(float)
        for o, lab, v, b in zip(op.astype(int).tolist(), label.astype(int).tolist(),
                                own_s.tolist(), book_s.tolist()):
            own[o, LABELS[lab]] += v
            bookkeeping[o] += b
        return own, bookkeeping

    def layer_metrics(self, ops: list, count_ops: list) -> dict:
        """Per-layer values: self times are medians over ``ops``, counts are
        means over ``count_ops``; both add the set-up operation's share."""
        own, bookkeeping = self.self_times()
        out = {}
        for label in LABELS:
            per_op = [own.get((op, label), 0.0) for op in ops]
            out[label + ".self_s"] = own.get((SETUP_OP, label), 0.0) + statistics.median(per_op)
        out["trace.bookkeeping_s"] = statistics.median([bookkeeping[op] for op in ops])
        keys = set(self.counts[SETUP_OP]).union(*(self.counts[op] for op in count_ops))
        for key in keys:
            setup = self.counts[SETUP_OP][key]
            values = [self.counts[op][key] for op in count_ops]
            if key == "geodesics.F_drift_max":
                out[key] = max([setup] + values)
            else:
                out[key] = setup + sum(values) / len(values)
        live = sum(self.counts[op]["geodesics.live_ray_steps"] for op in count_ops)
        nodes = sum(self.counts[op]["geodesics.F_nodes"] for op in count_ops)
        out["geodesics.F_nodes_per_live_ray_step"] = nodes / live if live else 0.0
        return out

    def write(self, path) -> None:
        rows = np.frombuffer(self.spans).reshape(-1, 8)
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,t_enter,start,end,t_exit\n")
            for op, sid, parent, label, *times in rows.tolist():
                fh.write(f"{int(op)},{int(sid)},{int(parent)},{LABELS[int(label)]},"
                         + ",".join(map(repr, times)) + "\n")
