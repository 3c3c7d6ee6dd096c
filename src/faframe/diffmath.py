"""Reverse-mode autodiff over dense float64 arrays, plus AdamW.

Everything is double precision and deterministic. Graphs are built by the
module-level ops below; each op records its parents and a closure that
scatters the output gradient back to them. ``backward`` seeds a scalar loss
with gradient 1 and walks the graph in reverse topological order,
accumulating into ``.grad``. Inside ``no_grad()`` ops record nothing, so
inference keeps no tape.

Gradients are owned, not copied: a value's first gradient may be the very
array a rule hands it, and later ones are added into that array in place.
So a rule hands each fresh array to one parent only, and never reads it
again after handing it on.

Only the compositions the network needs are supported; there is no general
broadcasting. ``add`` accepts equal shapes, a trailing-axis bias vector, or
a scalar; ``mul`` accepts equal shapes or a scalar.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteLoss, NonScalarLoss, ShapeMismatch

CHECKPOINT_VERSION = 1
NUMERICAL_STEP = 1e-5

# Bytes of the first array in one row block, for every op that works by
# row block: the swish chains (``swish`` and ``edge_gate``), ``message_sum``
# and the scatters of ``_scatter_rows``. A swish block's four to six arrays,
# at most about 1.5 MiB, stay in one core's 2 MiB L2 while its ufuncs run,
# and gathered or permuted temporaries are one block, not E x f. On
# 3000 x 480 gates (2-vCPU VM), 128 KiB to 1 MiB blocks and one whole-array
# pass timed within about 6%.
ROW_BLOCK_BYTES = 256 * 1024

_recording = contextvars.ContextVar("diffmath_recording", default=True)


class DiffValue:
    """One node of a computation graph: data, lazy grad, parents, local rule."""

    __slots__ = ("data", "grad", "_parents", "_backward", "name")

    def __init__(self, data, parents=(), backward=None, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def accumulate_grad(self, delta):
        """Add ``delta`` to ``.grad``.

        The first delta is kept as ``.grad`` itself, not copied, when it is a
        writeable float64 ndarray of this value's shape; later deltas are
        added into it in place. The caller gives up that array: it must not
        hand it to another value or read it again. Anything else (a scalar,
        a broadcast view) starts from zeros.
        """
        if self.grad is None:
            if (type(delta) is np.ndarray and delta.dtype == np.float64
                    and delta.shape == self.data.shape and delta.flags.writeable):
                self.grad = delta
                return
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"DiffValue(shape={self.data.shape}{tag})"


def _as_value(x) -> DiffValue:
    return x if isinstance(x, DiffValue) else DiffValue(x)


@contextlib.contextmanager
def no_grad():
    """Ops inside this block return plain values: no parents, no backward."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def recording() -> bool:
    """Whether ops record the tape here, i.e. not inside :func:`no_grad`."""
    return _recording.get()


def _node(data, parents, backward) -> DiffValue:
    """An op's output; it joins the tape unless recording is off."""
    if _recording.get():
        return DiffValue(data, parents, backward)
    return DiffValue(data)


def constant(data, name="") -> DiffValue:
    """Wrap an array as a graph leaf (gradients land here but are unused)."""
    return DiffValue(data, name=name)


def matmul(a, b) -> DiffValue:
    a, b = _as_value(a), _as_value(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul needs (n,k)@(k,m), got {a.data.shape} and {b.data.shape}")

    def backward(grad):
        a.accumulate_grad(grad @ b.data.T)
        b.accumulate_grad(a.data.T @ grad)

    return _node(a.data @ b.data, (a, b), backward)


def add(a, b) -> DiffValue:
    a, b = _as_value(a), _as_value(b)
    sa, sb = a.data.shape, b.data.shape
    bias = sa != sb and b.data.ndim == 1 and sa and sa[-1] == sb[0]
    scalar = sb == ()
    if not (sa == sb or bias or scalar):
        raise ShapeMismatch(f"add supports equal shapes, a trailing bias, or a scalar; got {sa} and {sb}")

    def backward(grad):
        a.accumulate_grad(grad)
        if sa == sb:
            b.accumulate_grad(grad.copy())  # a may own grad now
        elif scalar:
            b.accumulate_grad(grad.sum())
        else:
            b.accumulate_grad(grad.reshape(-1, sb[0]).sum(axis=0))

    return _node(a.data + b.data, (a, b), backward)


def mul(a, b) -> DiffValue:
    a, b = _as_value(a), _as_value(b)
    sa, sb = a.data.shape, b.data.shape
    if not (sa == sb or sa == () or sb == ()):
        raise ShapeMismatch(f"mul supports equal shapes or a scalar factor, got {sa} and {sb}")

    def backward(grad):
        ga = grad * b.data
        gb = grad * a.data
        a.accumulate_grad(ga if sa != () else ga.sum())
        b.accumulate_grad(gb if sb != () else gb.sum())

    return _node(a.data * b.data, (a, b), backward)


def concat(values, axis: int) -> DiffValue:
    values = [_as_value(v) for v in values]
    if not values:
        raise ShapeMismatch("concat needs at least one input")
    sizes = [v.data.shape[axis] for v in values]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        for v, piece in zip(values, np.split(grad, splits, axis=axis)):
            v.accumulate_grad(piece)

    return _node(np.concatenate([v.data for v in values], axis=axis), values, backward)


def slice_rows(x, start: int, stop: int) -> DiffValue:
    """Rows ``start:stop`` of a 2-D value, e.g. one block of a stacked weight."""
    x = _as_value(x)
    if x.data.ndim != 2 or not 0 <= start <= stop <= x.data.shape[0]:
        raise ShapeMismatch(f"slice_rows [{start}:{stop}] does not fit shape {x.data.shape}")

    def backward(grad):
        # Add into the parent's block in place; no full-size temporary.
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start:stop] += grad

    return _node(x.data[start:stop], (x,), backward)


class Segments(NamedTuple):
    """A row index sorted once for any number of scatters.

    ``order`` is the stable sort order of ``ids`` (``None`` when they are
    sorted), ``starts`` the sorted positions where a run of equal ids
    begins, and ``heads`` the id of each run.
    """

    ids: np.ndarray
    order: np.ndarray | None
    starts: np.ndarray
    heads: np.ndarray


def segments(ids) -> Segments:
    """Sort ``ids`` once, stably, so each id keeps its rows in input order."""
    if isinstance(ids, Segments):
        return ids
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatch(f"a row index must be 1-D, got shape {ids.shape}")
    order, ordered = None, ids
    if (ids[1:] < ids[:-1]).any():
        order = np.argsort(ids, kind="stable")
        ordered = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    starts = starts[:ids.size]
    return Segments(ids, order, starts, ordered[starts])


def _run_blocks(index: Segments, row_bytes: int):
    """Cut the sorted rows of ``index`` into blocks of whole runs.

    Yields ``(p0, p1, r0, r1)``: the sorted positions ``p0:p1``, which hold
    runs ``r0:r1`` whole. A block closes at the first run start past about
    ``ROW_BLOCK_BYTES`` of rows, so one run longer than that is one block.
    """
    size, runs = index.ids.size, index.starts.size
    step = max(ROW_BLOCK_BYTES // max(row_bytes, 1), 1)
    if size <= step:
        yield 0, size, 0, runs
        return
    cuts = np.unique(np.searchsorted(index.starts, np.arange(step, size, step)))
    bounds = [0, *cuts[cuts < runs].tolist(), runs]
    for r0, r1 in zip(bounds, bounds[1:]):
        yield int(index.starts[r0]), int(index.starts[r1]) if r1 < runs else size, r0, r1


def _sum_runs(index: Segments, n: int, row_shape: tuple, rows) -> np.ndarray:
    """``out[i]`` is the sum of the rows whose id is ``i``; absent ids give 0.

    ``rows(picked)`` returns the rows at input positions ``picked``, a slice
    or an index array, in that order. They are asked for one block of whole
    runs at a time in sorted order, so a permuted or computed copy is one
    block, not the whole array. ``np.add.reduceat`` sums each run in stable
    order, one run per id present, so no run is empty and no sum depends on
    the block size.
    """
    out = np.zeros((n,) + row_shape)
    if index.ids.size == 0:
        return out
    for p0, p1, r0, r1 in _run_blocks(index, out.itemsize * math.prod(row_shape)):
        picked = slice(p0, p1) if index.order is None else index.order[p0:p1]
        out[index.heads[r0:r1]] = np.add.reduceat(rows(picked), index.starts[r0:r1] - p0, axis=0)
    return out


def _scatter_rows(values: np.ndarray, index: Segments, n: int) -> np.ndarray:
    """``out[i]`` is the sum of the rows ``values[index.ids == i]``; absent ids give 0."""
    return _sum_runs(index, n, values.shape[1:], values.__getitem__)


def _check_ids(index: Segments, n: int, what: str):
    """Raise ShapeMismatch unless every id of ``index`` lies in ``[0, n)``."""
    if index.heads.size and (index.heads[0] < 0 or index.heads[-1] >= n):
        raise ShapeMismatch(f"{what} out of range: ids span [{index.heads[0]}, "
                            f"{index.heads[-1]}], rows [0, {n})")


def gather_rows(x, index) -> DiffValue:
    """Rows ``x[index]``; ``index`` is an id array or a prepared :class:`Segments`."""
    x = _as_value(x)
    index = segments(index)
    _check_ids(index, x.data.shape[0], "row id")

    def backward(grad):
        x.accumulate_grad(_scatter_rows(grad, index, x.data.shape[0]))

    return _node(x.data[index.ids], (x,), backward)


def segment_sum(values, segment_ids, num_segments: int) -> DiffValue:
    """Per-segment row sums; ``segment_ids`` is an id array or a :class:`Segments`."""
    values = _as_value(values)
    index = segments(segment_ids)
    if index.ids.shape[0] != values.data.shape[0]:
        raise ShapeMismatch(
            f"segment_ids shape {index.ids.shape} does not index {values.data.shape} rows"
        )
    _check_ids(index, num_segments, "segment id")

    def backward(grad):
        values.accumulate_grad(grad[index.ids])

    return _node(_scatter_rows(values.data, index, num_segments), (values,), backward)


def message_sum(gate, x, src, dst, num_segments: int) -> DiffValue:
    """``segment_sum(gate * x[src], dst, num_segments)`` as one node.

    ``gate`` has one row per entry of ``src`` and ``dst``, which are id
    arrays or prepared :class:`Segments`. The messages are formed one block
    of whole ``dst`` runs at a time and never kept, so the node holds no
    edge-sized array of its own. Backward writes ``grad[dst] * x[src]`` into
    one fresh array for ``gate`` and sums ``grad[dst] * gate`` into ``x``
    over blocks of ``src`` runs. Each element meets the products and run
    sums of the unfused ops, so every bit is theirs.
    """
    gate, x = _as_value(gate), _as_value(x)
    src, dst = segments(src), segments(dst)
    if not (gate.data.ndim == x.data.ndim == 2
            and gate.data.shape == (src.ids.size, x.data.shape[1])
            and dst.ids.size == src.ids.size):
        raise ShapeMismatch(
            f"message_sum needs (e,f) gates with an (n,f) table and e src and dst ids, got "
            f"{gate.data.shape}, {x.data.shape}, {src.ids.size} src and {dst.ids.size} dst ids"
        )
    _check_ids(dst, num_segments, "segment id")
    _check_ids(src, x.data.shape[0], "src id")

    def messages(picked):
        rows = x.data.take(src.ids[picked], axis=0)
        return np.multiply(gate.data[picked], rows, out=rows)

    def backward(grad):
        def gate_rows(out, dst_ids, src_ids):
            np.multiply(grad.take(dst_ids, axis=0), x.data.take(src_ids, axis=0), out=out)

        def x_rows(picked):
            rows = grad.take(dst.ids[picked], axis=0)
            rows *= gate.data[picked]
            return rows

        gate_grad = np.empty(gate.data.shape)
        _in_row_blocks(gate_rows, gate_grad, dst.ids, src.ids)
        x.accumulate_grad(_sum_runs(src, x.data.shape[0], x.data.shape[1:], x_rows))
        gate.accumulate_grad(gate_grad)

    return _node(_sum_runs(dst, num_segments, x.data.shape[1:], messages), (gate, x), backward)


def rotate_rows(x, matrices) -> DiffValue:
    """``out[r] = x[r] @ matrices[r]``: each row times its own constant matrix."""
    x = _as_value(x)
    matrices = np.asarray(matrices, dtype=np.float64)
    if x.data.ndim != 2 or matrices.ndim != 3 or matrices.shape[:2] != x.data.shape:
        raise ShapeMismatch(f"rotate_rows needs (n,k)@(n,k,m), got {x.data.shape} and {matrices.shape}")

    def backward(grad):
        x.accumulate_grad(np.einsum("nj,nij->ni", grad, matrices))

    return _node(np.einsum("ni,nij->nj", x.data, matrices), (x,), backward)


def _stable_sigmoid(x, out=None) -> np.ndarray:
    # 1 / (1 + exp(-x)) in one buffer, ``out`` if given. For x below about
    # -709, exp overflows to inf and the reciprocal is the exact 0, so the
    # overflow is silenced.
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = np.negative(x, out=np.empty(x.shape) if out is None else out)
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(x) -> DiffValue:
    x = _as_value(x)
    data = _stable_sigmoid(x.data)

    def backward(grad):
        x.accumulate_grad(grad * data * (1.0 - data))

    return _node(data, (x,), backward)


def _in_row_blocks(chain, *arrays):
    """Run ``chain`` on consecutive row blocks of ``arrays``, each in L2.

    Blocks hold about ``ROW_BLOCK_BYTES`` of the first array; arrays that
    fit in one block, 0-d ones included, go to ``chain`` whole. Every element
    meets the same ufuncs in either case, so its bits do not depend on the
    block size.
    """
    first = arrays[0]
    if first.nbytes <= ROW_BLOCK_BYTES:
        chain(*arrays)
        return
    step = max(ROW_BLOCK_BYTES * len(first) // first.nbytes, 1)
    for start in range(0, len(first), step):
        chain(*(array[start:start + step] for array in arrays))


def _swish_rows(pre, sig, out):
    """``sig = sigmoid(pre)`` and ``out = pre * sig``, written into the given arrays."""
    np.multiply(pre, _stable_sigmoid(pre, out=sig), out=out)


def _swish_local_grad(sig, out, grad) -> np.ndarray:
    """``grad * d(x s)/dx`` from the kept sigmoid ``s`` and output, by row block.

    d(x s)/dx = s + x s (1 - s) = s + out (1 - s), in that order of ufuncs.
    """
    def rows(sig, out, grad, local):
        np.subtract(1.0, sig, out=local)
        local *= out
        local += sig
        local *= grad

    local = np.empty(sig.shape)
    _in_row_blocks(rows, sig, out, grad, local)
    return local


def swish(x) -> DiffValue:
    x = _as_value(x)
    sig, data = np.empty(x.data.shape), np.empty(x.data.shape)
    _in_row_blocks(_swish_rows, x.data, sig, data)

    def backward(grad):
        x.accumulate_grad(_swish_local_grad(sig, data, grad))

    return _node(data, (x,), backward)


def edge_gate(x, a, a_index, b, b_index) -> DiffValue:
    """``swish(x + a[a_index] + b[b_index])`` as one node, summed in that order.

    ``x`` has one row per entry of the indices, which are id arrays or
    prepared :class:`Segments`. The sum is formed one row block at a time and
    only the sigmoid and the output are kept; backward hands its one local
    gradient to ``x`` and scatters it to ``a`` and ``b``.
    """
    x, a, b = _as_value(x), _as_value(a), _as_value(b)
    a_index, b_index = segments(a_index), segments(b_index)
    if not (x.data.ndim == a.data.ndim == b.data.ndim == 2
            and x.data.shape[0] == a_index.ids.size == b_index.ids.size
            and x.data.shape[1] == a.data.shape[1] == b.data.shape[1]):
        raise ShapeMismatch(
            f"edge_gate needs (e,f) rows with (n,f) tables indexed by e ids, got "
            f"{x.data.shape}, {a.data.shape}[{a_index.ids.size}], {b.data.shape}[{b_index.ids.size}]"
        )
    _check_ids(a_index, a.data.shape[0], "a id")
    _check_ids(b_index, b.data.shape[0], "b id")

    def rows(x_rows, a_ids, b_ids, sig, out):
        pre = np.add(x_rows, a.data.take(a_ids, axis=0))
        pre += b.data.take(b_ids, axis=0)
        _swish_rows(pre, sig, out)

    sig, data = np.empty(x.data.shape), np.empty(x.data.shape)
    _in_row_blocks(rows, x.data, a_index.ids, b_index.ids, sig, data)

    def backward(grad):
        local = _swish_local_grad(sig, data, grad)
        a.accumulate_grad(_scatter_rows(local, a_index, a.data.shape[0]))
        b.accumulate_grad(_scatter_rows(local, b_index, b.data.shape[0]))
        x.accumulate_grad(local)  # last: x may own local and add into it

    return _node(data, (x, a, b), backward)


def mean(x) -> DiffValue:
    x = _as_value(x)

    def backward(grad):
        x.accumulate_grad(np.full_like(x.data, grad / x.data.size))

    return _node(np.mean(x.data), (x,), backward)


def sum_all(x) -> DiffValue:
    x = _as_value(x)

    def backward(grad):
        x.accumulate_grad(np.full_like(x.data, grad))

    return _node(np.sum(x.data), (x,), backward)


def mse_loss(prediction, target) -> DiffValue:
    prediction, target = _as_value(prediction), _as_value(target)
    if prediction.data.shape != target.data.shape:
        raise ShapeMismatch(
            f"mse_loss shapes differ: {prediction.data.shape} vs {target.data.shape}"
        )
    diff = prediction.data - target.data
    scale = 2.0 / max(diff.size, 1)

    def backward(grad):
        prediction.accumulate_grad(grad * scale * diff)
        target.accumulate_grad(-grad * scale * diff)

    return _node(np.mean(diff * diff), (prediction, target), backward)


def binary_cross_entropy_with_logits(logits, targets) -> DiffValue:
    logits, targets = _as_value(logits), _as_value(targets)
    if logits.data.shape != targets.data.shape:
        raise ShapeMismatch(
            f"bce shapes differ: {logits.data.shape} vs {targets.data.shape}"
        )
    x, y = logits.data, targets.data
    # max(x, 0) - x*y + log(1 + exp(-|x|)) is the overflow-safe form.
    loss = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    sig = _stable_sigmoid(x)
    scale = 1.0 / max(x.size, 1)

    def backward(grad):
        logits.accumulate_grad(grad * scale * (sig - y))
        targets.accumulate_grad(-grad * scale * x)

    return _node(np.mean(loss), (logits, targets), backward)


def backward(loss: DiffValue):
    """Backpropagate from a scalar loss through its whole graph.

    Leaves (nodes without a backward rule, parameters among them) keep the
    gradient they accumulate. Every other node's ``.grad`` is dropped as
    soon as its rule has passed it on, so intermediate gradients do not pile
    up over the walk.
    """
    if loss.data.shape != ():
        raise NonScalarLoss(f"backward needs a scalar, got shape {loss.data.shape}")

    # Iterative postorder topological sort; recursion depth is unbounded in
    # deep unrolled graphs.
    order: list[DiffValue] = []
    seen: set[int] = set()
    stack: list[tuple[DiffValue, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.accumulate_grad(np.asarray(1.0))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


class AdamW:
    """Adam with decoupled weight decay.

    Moments use the usual bias correction; the decay term is applied to the
    parameter directly, scaled by the learning rate, never through the
    moments. Every trainer updates through :meth:`minimize`.
    """

    def __init__(self, params, learning_rate=1e-3, betas=(0.9, 0.999), epsilon=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Two rows sized to the largest parameter hold every temporary of a step.
        self._scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def minimize(self, loss: DiffValue) -> float:
        """``zero_grad``, ``backward`` and ``step`` on a scalar ``loss``; returns its
        value. A non-finite loss raises NonFiniteLoss and touches nothing."""
        value = float(loss.data)
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss evaluated to {value}")
        self.zero_grad()
        backward(loss)
        self.step()
        return value

    def step(self):
        # In place, in the order of p -= lr (m_hat / (sqrt(v_hat) + eps) + wd p)
        # with m += (1 - b1) g and v += ((1 - b2) g) g, through the scratch.
        self.step_count += 1
        t = self.step_count
        m_scale = 1.0 - self.beta1**t
        v_scale = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad if p.grad is not None else 0.0
            a, b = (half[:p.data.size].reshape(p.data.shape) for half in self._scratch)
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=a)
            v += np.multiply(a, grad, out=a)
            np.divide(v, v_scale, out=a)
            np.sqrt(a, out=a)
            a += self.epsilon
            np.divide(m, m_scale, out=b)
            b /= a
            np.multiply(p.data, self.weight_decay, out=a)
            a += b
            a *= self.learning_rate
            p.data -= a


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A ``(fan_in, fan_out)`` uniform init in +/- sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def save_checkpoint(params: dict[str, DiffValue], path):
    """Write parameters as a versioned JSON manifest (row-major values)."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "precision": "float64",
        "params": [
            {
                "name": name,
                "shape": list(value.data.shape),
                "values": value.data.ravel().tolist(),
            }
            for name, value in params.items()
        ],
    }
    Path(path).write_text(json.dumps(manifest, sort_keys=True) + "\n")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a manifest written by :func:`save_checkpoint`."""
    manifest = json.loads(Path(path).read_text())
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    out = {}
    for entry in manifest["params"]:
        out[entry["name"]] = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
    return out


def numerical_gradient(func, arrays):
    """Central-difference gradients of ``func(arrays) -> float`` per input,
    each element moved by ``NUMERICAL_STEP`` in place and put back."""
    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        flat = array.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + NUMERICAL_STEP
            up = func(arrays)
            flat[i] = original - NUMERICAL_STEP
            down = func(arrays)
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * NUMERICAL_STEP)
        grads.append(grad)
    return grads
