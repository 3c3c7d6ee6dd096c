"""Spans around faframe's public functions, recorded from outside the package.

Nothing under ``src/`` changes. :meth:`Tracer.install` rebinds every traced
function wherever a caller looks it up: the defining module's attribute,
each name another module imported with ``from ... import``, the
``AdamW.step`` method, and, for the autodiff ops reached as ``dm.<op>``, the
``diffmath`` module attribute. Each tape node an op returns gets its
``_backward`` closure wrapped too, so backward time is charged per op.
:meth:`Tracer.uninstall` puts every original back.

A span is ``(span_id, name, start, end, parent_id, op)``; ``op`` labels the
benchmark operation the span belongs to. Spans stay in memory and are
written out once, when the run ends. Exact work counts (flops, bytes, graph
edges, frame elements) are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import faframe
from faframe import audit, cli, diffmath, expressivity, faenet, frames, geometry, xyz

import stats

# Autodiff ops with a forward span and a timed backward closure. ``mean``
# and ``sum_all`` are traced so that tape_nodes stays exact, but no
# workload's backbone calls them, so they get no per-layer metrics.
DIFFMATH_OPS = (
    "matmul", "add", "mul", "concat", "gather_rows", "segment_sum", "swish",
    "sigmoid", "mse_loss", "binary_cross_entropy_with_logits",
)
UNREPORTED_OPS = ("mean", "sum_all")

# Span name -> the function it wraps. Every module attribute bound to one of
# these function objects (or to an autodiff op) is rebound, which covers
# names imported by name.
PUBLIC_FUNCTIONS = {
    "geometry.build_radius_graph": geometry.build_radius_graph,
    "geometry.apply_transform": geometry.apply_transform,
    "geometry.random_transform": geometry.random_transform,
    "frames.compute_frame": frames.compute_frame,
    "frames.canonicalize": frames.canonicalize,
    "faenet.forward": faenet.forward,
    "faenet.training_forward": faenet.training_forward,
    "faenet.train_step": faenet.train_step,
    "diffmath.backward": diffmath.backward,
    "audit.audit_model": audit.audit_model,
    "expressivity.run_benchmark": expressivity.run_benchmark,
    "expressivity.rigid_alignment_residual": expressivity.rigid_alignment_residual,
    "xyz.read_xyz_blocks": xyz.read_xyz_blocks,
    "xyz.format_xyz": xyz.format_xyz,
}
AUTODIFF_FUNCTIONS = {op: getattr(diffmath, op) for op in DIFFMATH_OPS + UNREPORTED_OPS}
MODULES = (faframe, geometry, frames, diffmath, faenet, audit, expressivity, xyz, cli)

# Spans whose graph builds count as the backbone's own (graph_builds_per_system).
FAENET_ENTRIES = ("faenet.forward", "faenet.training_forward")

OP_SPAN = "op"


def _data(value):
    return getattr(value, "data", value)


def _counts_build_radius_graph(args, kwargs, result, parent):
    system = args[0] if args else kwargs["system"]
    periodic_axes = sum(system.pbc) if system.is_periodic else 0
    # The dense scan tests every ordered pair against 5 images per periodic
    # axis (offsets -2..2; the +/-2 shell is the range check).
    pairs = system.num_atoms ** 2 * 5 ** periodic_axes
    counts = {"geometry.build_radius_graph.edges": result.num_edges,
              "geometry.build_radius_graph.pair_tests": pairs}
    if parent in FAENET_ENTRIES:
        counts["faenet.graph_builds"] = 1
        counts["faenet.edges"] = result.num_edges
    return counts


def _counts_compute_frame(args, kwargs, result, parent):
    return {"frames.elements_built": len(result.elements),
            "frames.compute_frame.degenerate": int(result.degenerate)}


def _counts_forward(args, kwargs, result, parent):
    return {"faenet.systems": 1}


def _counts_training_forward(args, kwargs, result, parent):
    systems = args[1] if len(args) > 1 else kwargs["systems"]
    return {"faenet.systems": len(systems)}


def _counts_read_xyz(args, kwargs, result, parent):
    path = args[0] if args else kwargs["path"]
    return {"xyz.bytes": os.path.getsize(path)}


def _counts_format_xyz(args, kwargs, result, parent):
    return {"xyz.bytes": len(result.encode())}


COUNTERS = {
    "geometry.build_radius_graph": _counts_build_radius_graph,
    "frames.compute_frame": _counts_compute_frame,
    "frames.canonicalize": lambda *_: {"frames.views_used": 1},
    "faenet.forward": _counts_forward,
    "faenet.training_forward": _counts_training_forward,
    "xyz.read_xyz_blocks": _counts_read_xyz,
    "xyz.format_xyz": _counts_format_xyz,
}


def _op_work(op, args, out):
    """Computed (forward, backward) work of one autodiff node, by op."""
    if op == "matmul":
        (n, k), m = _data(args[0]).shape, out.data.shape[1]
        flops = stats.matmul_flops(n, k, m)
        # backward forms grad @ b.T and a.T @ grad: two products of equal size
        return {"diffmath.matmul.flops": flops}, {"diffmath.matmul.flops": 2 * flops}
    if op == "gather_rows":
        # rows copied forward, and scattered back with np.add.at
        return ({"diffmath.gather_rows.bytes": out.data.nbytes},
                {"diffmath.gather_rows.bytes": out.data.nbytes})
    if op == "segment_sum":
        # rows scattered forward with np.add.at, gathered back by segment id
        nbytes = _data(args[0]).nbytes
        return {"diffmath.segment_sum.bytes": nbytes}, {"diffmath.segment_sum.bytes": nbytes}
    return {}, {}


class Tracer:
    """Records spans and counts while installed; owns the rebinding."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._names = []
        self._next_id = 0
        self._originals = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        parent_name = self._names[-1] if self._names else None
        self._stack.append(span_id)
        self._names.append(name)
        return span_id, parent, parent_name

    def _exit(self, span_id, name, start, end, parent):
        self._stack.pop()
        self._names.pop()
        self.spans.append((span_id, name, start, end, parent, self.op))

    def count(self, counts):
        for key, value in counts.items():
            self.counts[(self.op, key)] += value

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result, parent_name)``
        returns the counts of a call that succeeded."""
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent, parent_name = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span_id, name, start, time.perf_counter(), parent)
                tracer.count({f"{name}.failed": 1})
                raise
            tracer._exit(span_id, name, start, time.perf_counter(), parent)
            if after is not None:
                tracer.count(after(args, kwargs, result, parent_name))
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, label, fn, *args):
        """Run one benchmark operation under a root span labelled ``label``."""
        self.op = label
        try:
            return self.timed(OP_SPAN, fn)(*args)
        finally:
            self.op = None

    # -- installation ------------------------------------------------------

    def _autodiff_op(self, op, fn):
        tracer = self
        name = f"diffmath.{op}"

        def after(args, kwargs, out, parent_name):
            fwd, bwd = _op_work(op, args, out)
            if out._backward is None:
                return fwd
            after_bwd = (lambda *_: bwd) if bwd else None
            out._backward = tracer.timed(f"{name}.bwd", out._backward, after_bwd)
            return {**fwd, "diffmath.tape_nodes": 1}

        return self.timed(name, fn, after)

    def _rebind(self, owner, attr, replacement):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self.timed(name, fn, COUNTERS.get(name)))
                    for name, fn in PUBLIC_FUNCTIONS.items()}
        for op, fn in AUTODIFF_FUNCTIONS.items():
            wrappers[id(fn)] = (fn, self._autodiff_op(op, fn))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(module, attr, entry[1])
        self._rebind(diffmath.AdamW, "step",
                     self.timed("diffmath.AdamW.step", diffmath.AdamW.step))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span (times in ns from the first span) and each
        operation's counts as JSON. Operation ``i`` of a seed records the
        same counts on every run."""
        origin = min((s[2] for s in self.spans), default=0.0)
        rows = [[sid, name, round((a - origin) * 1e9), round((b - origin) * 1e9), parent, op]
                for sid, name, a, b, parent, op in self.spans]
        counts = {}
        for (op, key), value in sorted(self.counts.items(), key=str):
            counts.setdefault(str(op), {})[key] = value
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                       "spans": rows, "counts": counts}, handle, separators=(",", ":"))


def per_layer_metrics(tracer, ops, audit_label, overheads):
    """Per-layer metrics: each is a per-operation mean over the labels in ``ops``.

    ``audit.audit_model.self_s`` is the one exception: it is the self time
    of the correctness audit run under ``audit_label``, outside every
    operation. ``overheads`` holds each operation's traced minus untraced
    wall time.
    """
    n = len(ops)
    ops = set(ops)
    self_time = stats.self_times(tracer.spans)
    seconds, calls, library, op_wall = Counter(), Counter(), Counter(), {}
    for span_id, name, start, end, parent, op in tracer.spans:
        if op in ops:
            if name == OP_SPAN:
                op_wall[op] = end - start
            else:
                seconds[name] += self_time[span_id]
                calls[name] += 1
                library[op] += self_time[span_id]
    audit_seconds = sum(self_time[s[0]] for s in tracer.spans
                        if s[5] == audit_label and s[1] == "audit.audit_model")

    def total(key):
        return sum(tracer.counts[(op, key)] for op in ops)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    for op in DIFFMATH_OPS:
        put(f"diffmath.{op}.fwd_s", seconds[f"diffmath.{op}"] / n, "s")
        put(f"diffmath.{op}.bwd_s", seconds[f"diffmath.{op}.bwd"] / n, "s")
        put(f"diffmath.{op}.calls", calls[f"diffmath.{op}"] / n, "count")
    flops = total("diffmath.matmul.flops")
    put("diffmath.matmul.gflop", flops / 1e9 / n, "GFLOP")
    put("diffmath.matmul.gflop_per_s",
        ratio(flops / 1e9, seconds["diffmath.matmul"] + seconds["diffmath.matmul.bwd"]), "GFLOP/s")
    put("diffmath.gather_rows.bytes", total("diffmath.gather_rows.bytes") / n, "B")
    put("diffmath.segment_sum.bytes", total("diffmath.segment_sum.bytes") / n, "B")
    put("diffmath.tape_nodes", total("diffmath.tape_nodes") / n, "count")
    for name in ("diffmath.backward", "diffmath.AdamW.step", "faenet.forward",
                 "faenet.training_forward", "faenet.train_step"):
        put(f"{name}.self_s", seconds[name] / n, "s")
    put("faenet.graph_builds_per_system",
        ratio(total("faenet.graph_builds"), total("faenet.systems")), "count")
    put("faenet.edges_per_op", total("faenet.edges") / n, "count")
    graph = "geometry.build_radius_graph"
    put(f"{graph}.self_s", seconds[graph] / n, "s")
    put(f"{graph}.calls", calls[graph] / n, "count")
    put(f"{graph}.edges", total(f"{graph}.edges") / n, "count")
    put(f"{graph}.pair_tests", total(f"{graph}.pair_tests") / n, "count")
    put(f"{graph}.failed", total(f"{graph}.failed") / n, "count")
    for name in ("geometry.random_transform", "geometry.apply_transform"):
        put(f"{name}.self_s", seconds[name] / n, "s")
    put("frames.compute_frame.self_s", seconds["frames.compute_frame"] / n, "s")
    put("frames.compute_frame.calls", calls["frames.compute_frame"] / n, "count")
    put("frames.compute_frame.degenerate", total("frames.compute_frame.degenerate") / n, "count")
    put("frames.elements_built", total("frames.elements_built") / n, "count")
    put("frames.views_used", total("frames.views_used") / n, "count")
    put("frames.view_use_ratio",
        ratio(total("frames.views_used"), total("frames.elements_built")), "ratio")
    put("frames.canonicalize.self_s", seconds["frames.canonicalize"] / n, "s")
    put("frames.canonicalize.calls", calls["frames.canonicalize"] / n, "count")
    put("xyz.read_xyz_blocks.self_s", seconds["xyz.read_xyz_blocks"] / n, "s")
    put("xyz.format_xyz.self_s", seconds["xyz.format_xyz"] / n, "s")
    put("xyz.bytes", total("xyz.bytes") / n, "B")
    put("audit.audit_model.self_s", audit_seconds, "s")
    for name in ("expressivity.run_benchmark", "expressivity.rigid_alignment_residual"):
        put(f"{name}.self_s", seconds[name] / n, "s")
    put("trace.overhead_s", sum(overheads) / n, "s")
    # the worst operation's share of wall time spent inside traced functions
    put("trace.coverage", min(library[op] / op_wall[op] for op in ops), "ratio")
    return metrics
