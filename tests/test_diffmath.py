"""Reverse-mode autodiff core: op gradients, optimizer, checkpoints."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from faframe import diffmath as dm
from faframe.errors import (
    CheckpointError,
    FaframeError,
    NonFiniteLoss,
    NonScalarLoss,
    ReleasedGraph,
    ShapeMismatch,
)


def scalar(x):
    return dm.DiffValue(np.asarray(float(x)))


# ------------------------------------------------------------------ forwards


def test_matmul_forward_and_shape_error():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(3, 4)
    out = dm.matmul(dm.DiffValue(a), dm.DiffValue(b))
    np.testing.assert_array_equal(out.data, a @ b)
    with pytest.raises(ShapeMismatch) as err:
        dm.matmul(dm.DiffValue(a), dm.DiffValue(a))
    assert "(2, 3)" in str(err.value)


def test_add_bias_broadcast():
    a = dm.DiffValue(np.ones((4, 3)))
    b = dm.DiffValue(np.array([1.0, 2.0, 3.0]))
    out = dm.add(a, b)
    np.testing.assert_array_equal(out.data, np.ones((4, 3)) + np.array([1, 2, 3.0]))
    dm.backward(dm.sum_all(out))
    np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])


def test_shape_mismatch_messages_carry_both_shapes():
    with pytest.raises(ShapeMismatch) as err:
        dm.mse_loss(dm.DiffValue(np.zeros((2, 1))), dm.DiffValue(np.zeros((3, 1))))
    msg = str(err.value)
    assert "(2, 1)" in msg and "(3, 1)" in msg


def test_sigmoid_swish_values():
    x = dm.DiffValue(np.array([0.0]))
    assert dm.sigmoid(x).data[0] == pytest.approx(0.5)
    assert dm.swish(x).data[0] == 0.0
    x2 = dm.DiffValue(np.array([2.0]))
    assert dm.swish(x2).data[0] == pytest.approx(2.0 / (1.0 + np.exp(-2.0)))


def test_segment_sum_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, 6))
        values = rng.standard_normal((n, 4))
        ids = rng.integers(0, k, size=n)
        out = dm.segment_sum(dm.DiffValue(values), ids, k)
        expected = np.zeros((k, 4))
        for row, seg in zip(values, ids):
            expected[seg] += row
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


# Index patterns for the scatter kernel: (ids, number of rows scattered into).
SCATTER_CASES = {
    "sorted": (np.array([0, 0, 1, 2, 2, 2]), 3),
    "unsorted_repeated": (np.array([2, 0, 2, 1, 0, 2, 2]), 3),
    "empty_segments": (np.array([4, 1, 1, 4, 6]), 8),
    "one_segment": (np.array([3, 3, 3, 3]), 5),
    "zero_length": (np.zeros(0, dtype=np.int64), 4),
}


def _loop_scatter(values, ids, n):
    out = np.zeros((n,) + values.shape[1:])
    for row, i in zip(values, ids):
        out[i] += row
    return out


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_segment_sum_forward_and_backward_match_loop(case, width):
    ids, n = SCATTER_CASES[case]
    rng = np.random.default_rng(len(ids))
    shape = (len(ids),) if width is None else (len(ids), width)
    values = dm.DiffValue(rng.standard_normal(shape))
    out = dm.segment_sum(values, ids, n)
    np.testing.assert_allclose(out.data, _loop_scatter(values.data, ids, n), rtol=0, atol=1e-12)

    weights = rng.standard_normal(out.shape)
    dm.backward(dm.sum_all(dm.mul(out, dm.constant(weights))))
    expected = np.zeros(shape)
    for row, i in enumerate(ids):
        expected[row] = weights[i]
    np.testing.assert_array_equal(values.grad, expected)


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_gather_rows_forward_and_backward_match_loop(case, width):
    index, n = SCATTER_CASES[case]
    rng = np.random.default_rng(len(index) + 1)
    table = dm.DiffValue(rng.standard_normal((n,) if width is None else (n, width)))
    out = dm.gather_rows(table, index)
    np.testing.assert_array_equal(out.data, table.data[index])

    weights = rng.standard_normal(out.shape)
    dm.backward(dm.sum_all(dm.mul(out, dm.constant(weights))))
    np.testing.assert_allclose(table.grad, _loop_scatter(weights, index, n), rtol=0, atol=1e-12)


def _sort_and_scatter(values, ids, n):
    """The scatter with its index built on the spot: stable sort, then runs."""
    out = np.zeros((n,) + values.shape[1:])
    if ids.size:
        order = np.argsort(ids, kind="stable")
        ids, values = ids[order], values[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        out[ids[starts]] = np.add.reduceat(values, starts, axis=0)
    return out


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_segment_index_scatters_like_raw_ids(case):
    # A prepared index gives the bits the raw ids give, forward and backward.
    ids, n = SCATTER_CASES[case]
    rng = np.random.default_rng(len(ids) + 2)
    index = dm.segments(ids)
    values = rng.standard_normal((len(ids), 3))
    np.testing.assert_array_equal(dm._scatter_rows(values, index, n),
                                  _sort_and_scatter(values, ids, n))
    np.testing.assert_array_equal(dm.segment_sum(values, index, n).data,
                                  dm.segment_sum(values, ids, n).data)

    table, weights = rng.standard_normal((n, 3)), rng.standard_normal((len(ids), 3))
    grads = []
    for rows in (index, ids):
        param = dm.DiffValue(table)
        dm.backward(dm.sum_all(dm.mul(dm.gather_rows(param, rows), dm.constant(weights))))
        grads.append(param.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_segment_sum_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        dm.segment_sum(dm.DiffValue(np.ones((2, 1))), np.array([0, 5]), 3)


@pytest.mark.parametrize("block_rows", [1, 4, 1000])
def test_blocked_scatter_is_bitwise_permute_then_reduceat(block_rows, monkeypatch):
    # Unsorted ids with runs longer and shorter than a block, and absent ids.
    rng = np.random.default_rng(block_rows)
    ids = rng.integers(0, 17, size=200)
    ids[ids == 5] = 3
    values = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
    monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", block_rows * 3 * 8)
    index = dm.segments(ids)
    assert index.order is not None
    expected = _sort_and_scatter(values, ids, 19)
    assert dm._scatter_rows(values, index, 19).tobytes() == expected.tobytes()
    sorted_ids = np.sort(ids)
    assert (dm._scatter_rows(values, dm.segments(sorted_ids), 19).tobytes()
            == _sort_and_scatter(values, sorted_ids, 19).tobytes())


# ----------------------------------------------------------------- edge_gate


def _unfused_gate(e, w, a, a_index, b, b_index):
    return dm.swish(dm.add(dm.add(dm.matmul(e, w), dm.gather_rows(a, a_index)),
                           dm.gather_rows(b, b_index)))


def _gate_grads(gate, arrays, a_index, b_index, weights):
    """Output and the gradient of every parent of ``gate`` under a weighted sum."""
    e, w, a, b = (dm.DiffValue(array.copy()) for array in arrays)
    out = gate(e, w, a, a_index, b, b_index)
    dm.backward(dm.sum_all(dm.mul(out, dm.constant(weights))))
    return [out.data, e.grad, w.grad, a.grad, b.grad]


def _gate_arrays(rng, edges, n, width=4, k=3):
    """Edge rows, the edge weight and the two node tables of a gate."""
    return [rng.standard_normal((edges, k)), rng.standard_normal((k, width)),
            rng.standard_normal((n, width)), rng.standard_normal((n, width))]


# (dst ids, src ids, table rows): rows 2 and 3 of "isolated" are no edge's end.
GATE_CASES = {
    "sorted_dst_unsorted_src": (np.array([0, 0, 1, 2, 2, 2]), np.array([2, 1, 0, 0, 1, 1]), 3),
    "repeated_unsorted": (np.array([2, 0, 2, 1, 0, 2, 2]), np.array([1, 1, 0, 2, 2, 0, 1]), 3),
    "isolated": (np.array([0, 1, 1, 4, 4]), np.array([1, 0, 4, 1, 0]), 5),
}


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_edge_gate_is_bitwise_the_unfused_composition(case, monkeypatch):
    dst, src, n = GATE_CASES[case]
    rng = np.random.default_rng(len(dst))
    arrays = _gate_arrays(rng, len(dst), n)
    weights = rng.standard_normal((len(dst), 4))
    expected = _gate_grads(_unfused_gate, arrays, dst, src, weights)
    # One row per block as well, so the chains run over many blocks.
    for block_bytes in (dm.ROW_BLOCK_BYTES, 8 * 4):
        monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", block_bytes)
        for a_index, b_index in ((dst, src), (dm.segments(dst), dm.segments(src))):
            got = _gate_grads(dm.edge_gate, arrays, a_index, b_index, weights)
            for g, e in zip(got, expected):
                assert g.tobytes() == e.tobytes()
    if case == "isolated":
        assert not expected[3][2:4].any() and not expected[4][2:4].any()


def test_edge_gate_over_a_window_is_bitwise_the_unfused_composition():
    # Two disjoint graphs in one batch; the second is gated through the
    # index of its sliced ids, as a chunk of views is.
    rng = np.random.default_rng(4)
    dst = np.concatenate([rng.integers(0, 3, 5), 3 + rng.integers(0, 4, 7)])
    src = np.concatenate([rng.integers(0, 3, 5), 3 + rng.integers(0, 4, 7)])
    a_index = dm.segments(dm.segments(dst).ids[5:12] - 3)
    b_index = dm.segments(dm.segments(src).ids[5:12] - 3)
    arrays = _gate_arrays(rng, 7, 4, width=3)
    weights = rng.standard_normal((7, 3))
    got = _gate_grads(dm.edge_gate, arrays, a_index, b_index, weights)
    expected = _gate_grads(_unfused_gate, arrays, dst[5:] - 3, src[5:] - 3, weights)
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()


def test_edge_gate_matches_finite_differences():
    rng = np.random.default_rng(5)
    dst, src = np.array([1, 0, 1, 2, 2]), np.array([2, 2, 0, 1, 1])
    arrays = _gate_arrays(rng, 5, 3, width=3, k=2)
    weights = rng.standard_normal((5, 3))

    def run(current):
        e, w, a, b = (dm.DiffValue(array) for array in current)
        gate = dm.edge_gate(e, w, a, dm.segments(dst), b, dm.segments(src))
        return float(dm.sum_all(dm.mul(dm.mul(gate, gate), dm.constant(weights))).data)

    values = [dm.DiffValue(array.copy()) for array in arrays]
    gate = dm.edge_gate(values[0], values[1], values[2], dst, values[3], src)
    dm.backward(dm.sum_all(dm.mul(dm.mul(gate, gate), dm.constant(weights))))
    numeric = dm.numerical_gradient(run, arrays)
    for value, num in zip(values, numeric):
        assert np.abs(value.grad - num).max() / max(np.abs(num).max(), 1.0) < 1e-7


def test_edge_gate_rejects_mismatched_rows():
    x, table = dm.DiffValue(np.zeros((3, 2))), dm.DiffValue(np.zeros((2, 2)))
    w = dm.DiffValue(np.eye(2))
    with pytest.raises(ShapeMismatch, match="edge_gate"):
        dm.edge_gate(x, w, table, [0, 1], table, [0, 1, 1])
    with pytest.raises(ShapeMismatch, match="edge_gate"):
        dm.edge_gate(x, w, dm.DiffValue(np.zeros((2, 3))), [0, 1, 1], table, [0, 1, 1])
    with pytest.raises(ShapeMismatch, match="edge_gate"):
        dm.edge_gate(x, dm.DiffValue(np.zeros((3, 2))), table, [0, 1, 1], table, [0, 1, 1])


# --------------------------------------------------------------- message_sum


def _unfused_message_sum(gate, x, src, dst, num_segments):
    return dm.segment_sum(dm.mul(gate, dm.gather_rows(x, src)), dst, num_segments)


def _message_grads(message_sum, arrays, src, dst, num_segments, weights):
    """Output and the gradients of ``gate`` and ``x`` under a weighted sum."""
    gate, x = (dm.DiffValue(array.copy()) for array in arrays)
    out = message_sum(gate, x, src, dst, num_segments)
    dm.backward(dm.sum_all(dm.mul(out, dm.constant(weights))))
    return [out.data, gate.grad, x.grad]


MESSAGE_CASES = dict(GATE_CASES, no_edges=(np.zeros(0, np.int64), np.zeros(0, np.int64), 3))


@pytest.mark.parametrize("case", sorted(MESSAGE_CASES))
def test_message_sum_is_bitwise_the_unfused_composition(case, monkeypatch):
    dst, src, n = MESSAGE_CASES[case]
    rng = np.random.default_rng(len(dst) + 10)
    arrays = [rng.standard_normal((len(dst), 4)), rng.standard_normal((n, 4))]
    weights = rng.standard_normal((n, 4))
    expected = _message_grads(_unfused_message_sum, arrays, src, dst, n, weights)
    # One row per block as well, so every loop runs over many blocks.
    for block_bytes in (dm.ROW_BLOCK_BYTES, 8 * 4):
        monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", block_bytes)
        for src_index, dst_index in ((src, dst), (dm.segments(src), dm.segments(dst))):
            got = _message_grads(dm.message_sum, arrays, src_index, dst_index, n, weights)
            for g, e in zip(got, expected):
                assert g.tobytes() == e.tobytes()
    if case == "isolated":
        assert not expected[0][2:4].any() and not expected[2][2:4].any()


def test_message_sum_over_a_window_is_bitwise_the_unfused_composition(monkeypatch):
    # Two disjoint graphs in one batch; the second is summed through the
    # index of its sliced ids, as a chunk of views is.
    rng = np.random.default_rng(7)
    dst = np.concatenate([rng.integers(0, 3, 5), 3 + rng.integers(0, 4, 9)])
    src = np.concatenate([rng.integers(0, 3, 5), 3 + rng.integers(0, 4, 9)])
    src_index = dm.segments(dm.segments(src).ids[5:14] - 3)
    dst_index = dm.segments(dm.segments(dst).ids[5:14] - 3)
    arrays = [rng.standard_normal((9, 3)), rng.standard_normal((4, 3))]
    weights = rng.standard_normal((4, 3))
    expected = _message_grads(_unfused_message_sum, arrays, src[5:] - 3, dst[5:] - 3, 4, weights)
    for block_bytes in (dm.ROW_BLOCK_BYTES, 8 * 3):
        monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", block_bytes)
        got = _message_grads(dm.message_sum, arrays, src_index, dst_index, 4, weights)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()


def test_message_sum_matches_finite_differences():
    rng = np.random.default_rng(8)
    src, dst = np.array([2, 2, 0, 1, 1, 0]), np.array([1, 0, 1, 3, 3, 0])
    arrays = [rng.standard_normal((6, 3)), rng.standard_normal((3, 3))]
    weights = rng.standard_normal((4, 3))

    def loss(gate, x, src, dst):
        out = dm.message_sum(gate, x, src, dst, 4)
        return dm.sum_all(dm.mul(dm.mul(out, out), dm.constant(weights)))

    def run(current):
        return float(loss(*(dm.DiffValue(array) for array in current),
                          dm.segments(src), dm.segments(dst)).data)

    values = [dm.DiffValue(array.copy()) for array in arrays]
    dm.backward(loss(*values, src, dst))
    numeric = dm.numerical_gradient(run, arrays)
    for value, num in zip(values, numeric):
        assert np.abs(value.grad - num).max() / max(np.abs(num).max(), 1.0) < 1e-7


def test_message_sum_rejects_mismatched_shapes():
    gate, x = dm.DiffValue(np.zeros((3, 2))), dm.DiffValue(np.zeros((4, 2)))
    for args in ((gate, x, [0, 1], [0, 1, 1]),
                 (gate, x, [0, 1, 1], [0, 1]),
                 (gate, dm.DiffValue(np.zeros((4, 3))), [0, 1, 1], [0, 1, 1]),
                 (dm.DiffValue(np.zeros(3)), dm.DiffValue(np.zeros(4)), [0, 1, 1], [0, 1, 1])):
        with pytest.raises(ShapeMismatch, match="message_sum"):
            dm.message_sum(*args, 2)


@pytest.mark.parametrize("src, dst, what", [
    ([0, 1, 2], [0, 2, 1], "segment id"),
    ([0, 1, 2], [0, -1, 1], "segment id"),
    ([0, 4, 2], [0, 1, 1], "src id"),
    ([0, -1, 2], [0, 1, 1], "src id"),
])
def test_message_sum_rejects_out_of_range_ids(src, dst, what):
    # Never an IndexError from a gather, nor a negative id wrapping round.
    gate, x = dm.DiffValue(np.ones((3, 2))), dm.DiffValue(np.ones((4, 2)))
    for src_index, dst_index in ((src, dst), (dm.segments(src), dm.segments(dst))):
        with pytest.raises(ValueError, match=f"{what} out of range"):
            dm.message_sum(gate, x, src_index, dst_index, 2)


@pytest.mark.parametrize("bad", [-1, 3])
def test_gather_rows_and_edge_gate_reject_out_of_range_ids(bad):
    # -1 would wrap round to the last row; 3 would be a bare IndexError.
    x, table = dm.DiffValue(np.ones((2, 2))), dm.DiffValue(np.ones((3, 2)))
    w = dm.DiffValue(np.eye(2))
    for index in ([0, bad], dm.segments([0, bad])):
        with pytest.raises(ShapeMismatch, match="row id out of range"):
            dm.gather_rows(table, index)
        with pytest.raises(ShapeMismatch, match="a id out of range"):
            dm.edge_gate(x, w, table, index, table, [0, 1])
        with pytest.raises(ShapeMismatch, match="b id out of range"):
            dm.edge_gate(x, w, table, [0, 1], table, index)


def test_swish_over_row_blocks_is_bitwise_one_pass(monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((11, 5)) * 30.0
    weights = rng.standard_normal((11, 5))
    sig = dm._stable_sigmoid(x)
    expected_out = x * sig
    expected_grad = (1.0 - sig) * expected_out + sig
    expected_grad *= weights
    monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", 2 * 8 * 5)  # two rows a block
    value = dm.DiffValue(x)
    out = dm.swish(value)
    dm.backward(dm.sum_all(dm.mul(out, dm.constant(weights))))
    assert out.data.tobytes() == expected_out.tobytes()
    assert value.grad.tobytes() == expected_grad.tobytes()


# --------------------------------------------------------------------- dense


def _unfused_dense(x, w, b, activate):
    out = dm.add(dm.matmul(x, w), b)
    return dm.swish(out) if activate else out


def _dense_grads(dense, arrays, activate, weights):
    """Output and the gradient of every parent of ``dense`` under a weighted sum."""
    x, w, b = (dm.DiffValue(array.copy()) for array in arrays)
    out = dense(x, w, b, activate)
    dm.backward(dm.sum_all(dm.mul(out, dm.constant(weights))))
    return [out.data, x.grad, w.grad, b.grad]


@pytest.mark.parametrize("activate", [True, False])
def test_dense_is_bitwise_the_unfused_composition(activate, monkeypatch):
    rng = np.random.default_rng(9)
    arrays = [rng.standard_normal((11, 5)) * 10.0, rng.standard_normal((5, 6)),
              rng.standard_normal(6)]
    weights = rng.standard_normal((11, 6))
    expected = _dense_grads(_unfused_dense, arrays, activate, weights)
    for block_bytes in (dm.ROW_BLOCK_BYTES, 2 * 8 * 6):  # two rows a block
        monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", block_bytes)
        got = _dense_grads(dm.dense, arrays, activate, weights)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()


@pytest.mark.parametrize("activate", [True, False])
def test_dense_matches_finite_differences(activate):
    rng = np.random.default_rng(10)
    arrays = [rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)]
    weights = rng.standard_normal((5, 4))

    def loss(values):
        out = dm.dense(*values, activate=activate)
        return dm.sum_all(dm.mul(dm.mul(out, out), dm.constant(weights)))

    values = [dm.DiffValue(array.copy()) for array in arrays]
    dm.backward(loss(values))
    numeric = dm.numerical_gradient(
        lambda current: float(loss([dm.DiffValue(array) for array in current]).data), arrays)
    for value, num in zip(values, numeric):
        assert np.abs(value.grad - num).max() / max(np.abs(num).max(), 1.0) < 1e-7


def test_dense_rejects_mismatched_shapes():
    x, w = dm.DiffValue(np.zeros((3, 2))), dm.DiffValue(np.zeros((2, 4)))
    with pytest.raises(ShapeMismatch, match="dense"):
        dm.dense(x, dm.DiffValue(np.zeros((3, 4))), np.zeros(4), activate=True)
    with pytest.raises(ShapeMismatch, match="dense"):
        dm.dense(x, w, np.zeros(3), activate=False)
    with pytest.raises(ShapeMismatch, match="dense"):
        dm.dense(x, w, np.zeros((3, 4)), activate=False)


def test_fused_nodes_give_the_same_bits_without_the_tape(monkeypatch):
    # Without the tape the sigmoid lives in block scratch; the outputs keep
    # their bits, at the default block size and at two rows a block.
    rng = np.random.default_rng(11)
    dense_arrays = [rng.standard_normal((9, 5)) * 10.0, rng.standard_normal((5, 6)),
                    rng.standard_normal(6)]
    dst, src, n = GATE_CASES["repeated_unsorted"]
    gate_arrays = _gate_arrays(rng, len(dst), n, width=6)
    expected = [_unfused_dense(*dense_arrays, True).data,
                _unfused_gate(gate_arrays[0], gate_arrays[1], gate_arrays[2], dst,
                              gate_arrays[3], src).data,
                dm.swish(dense_arrays[0]).data]
    for block_bytes in (dm.ROW_BLOCK_BYTES, 2 * 8 * 6):
        monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", block_bytes)
        with dm.no_grad():
            got = [dm.dense(*dense_arrays, activate=True).data,
                   dm.edge_gate(gate_arrays[0], gate_arrays[1], gate_arrays[2], dst,
                                gate_arrays[3], src).data,
                   dm.swish(dense_arrays[0]).data]
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()


# Bytes a fused node may allocate beyond its arrays: the node, its closure
# and the views of its row blocks.
NODE_OVERHEAD = 16 * 1024


def _traced_bytes(build):
    """``build()``, with the bytes it left allocated and its peak, both
    counted from the start of the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, current - base, peak - base


def _fused_builds(rng):
    # A 2 MiB output: eight default row blocks.
    x, w, b = rng.standard_normal((4096, 16)), rng.standard_normal((16, 64)), rng.standard_normal(64)
    table = rng.standard_normal((300, 64))
    ids = dm.segments(rng.integers(0, 300, 4096))
    return {
        "dense": lambda: dm.dense(x, w, b, activate=True),
        "edge_gate": lambda: dm.edge_gate(x, w, table, ids, table, ids),
    }


@pytest.mark.parametrize("op", ["dense", "edge_gate"])
def test_fused_node_without_the_tape_allocates_its_output_and_one_block(op):
    build = _fused_builds(np.random.default_rng(12))[op]
    with dm.no_grad():
        value, kept, peak = _traced_bytes(build)
    out = value.data.nbytes
    assert out == 4096 * 64 * 8
    assert out <= kept <= out + NODE_OVERHEAD
    assert peak <= out + dm.ROW_BLOCK_BYTES + NODE_OVERHEAD


@pytest.mark.parametrize("op", ["dense", "edge_gate"])
def test_fused_node_on_the_tape_keeps_its_output_and_sigmoid(op):
    build = _fused_builds(np.random.default_rng(13))[op]
    value, kept, peak = _traced_bytes(build)
    out = value.data.nbytes
    assert 2 * out <= kept <= 2 * out + NODE_OVERHEAD
    # a gathered block of a table is all edge_gate forms beside the two
    assert peak <= 2 * out + dm.ROW_BLOCK_BYTES + NODE_OVERHEAD


# -------------------------------------------------------- gradient ownership


def test_first_gradient_is_kept_and_later_ones_added_in_place():
    value = dm.DiffValue(np.zeros((2, 2)))
    first = np.ones((2, 2))
    value.accumulate_grad(first)
    assert value.grad is first
    value.accumulate_grad(np.full((2, 2), 2.0))
    assert value.grad is first and (first == 3.0).all()
    # A broadcast view or a scalar is never kept.
    for delta in (np.broadcast_to(np.ones(2), (2, 2)), np.float64(1.0)):
        other = dm.DiffValue(np.zeros((2, 2)))
        other.accumulate_grad(delta)
        assert other.grad is not delta
        np.testing.assert_array_equal(other.grad, np.ones((2, 2)))


def test_add_gives_each_parent_its_own_gradient():
    # x feeds a later op too, so it owns the grad add hands it and adds into it.
    x, y = dm.DiffValue(np.array([1.0, 2.0])), dm.DiffValue(np.array([3.0, -1.0]))
    weights = dm.constant(np.array([5.0, 7.0]))
    total = dm.add(dm.sum_all(dm.mul(dm.add(x, y), weights)), dm.sum_all(dm.mul(x, x)))
    dm.backward(total)
    np.testing.assert_array_equal(y.grad, [5.0, 7.0])
    np.testing.assert_array_equal(x.grad, [5.0 + 2.0, 7.0 + 4.0])

    z = dm.DiffValue(np.array([1.0, -3.0]))
    dm.backward(dm.sum_all(dm.mul(dm.add(z, z), weights)))
    np.testing.assert_array_equal(z.grad, [10.0, 14.0])


def test_bce_matches_direct_formula():
    logits = np.array([[-3.0], [0.5], [40.0], [-40.0]])
    targets = np.array([[0.0], [1.0], [1.0], [0.0]])
    out = dm.binary_cross_entropy_with_logits(
        dm.DiffValue(logits), dm.DiffValue(targets)
    )
    p = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
    expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
    assert out.data == pytest.approx(expected, rel=1e-9)
    assert np.isfinite(out.data)


# ----------------------------------------------------------------- gradients


def test_square_gradient():
    x = scalar(3.0)
    y = dm.mul(x, x)
    dm.backward(y)
    assert x.grad == pytest.approx(6.0)


def test_swish_derivative_at_zero():
    x = dm.DiffValue(np.array([0.0]))
    dm.backward(dm.sum_all(dm.swish(x)))
    assert x.grad[0] == pytest.approx(0.5)


def test_sum_all_grad_is_ones_and_mean_uniform():
    x = dm.DiffValue(np.arange(6.0).reshape(2, 3))
    dm.backward(dm.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
    y = dm.DiffValue(np.arange(6.0).reshape(2, 3))
    dm.backward(dm.mean(y))
    np.testing.assert_allclose(y.grad, np.full((2, 3), 1.0 / 6.0))


def test_constant_leaf_receives_grad_but_graph_ends():
    c = dm.constant(np.ones(3), name="fixed")
    out = dm.sum_all(dm.mul(c, dm.DiffValue(np.array([1.0, 2.0, 3.0]))))
    dm.backward(out)
    np.testing.assert_array_equal(c.grad, [1.0, 2.0, 3.0])


def test_reused_node_accumulates():
    x = scalar(2.0)
    y = dm.add(dm.mul(x, x), x)  # x^2 + x
    dm.backward(y)
    assert x.grad == pytest.approx(5.0)


def test_backward_rejects_non_scalar():
    with pytest.raises(NonScalarLoss):
        dm.backward(dm.DiffValue(np.zeros(2)))


def test_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(1)
    w1 = rng.standard_normal((3, 5)) * 0.4
    b1 = rng.standard_normal(5) * 0.1
    w2 = rng.standard_normal((5, 1)) * 0.4
    b2 = rng.standard_normal(1) * 0.1
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 1))

    def run(arrays):
        a1, a2, a3, a4 = (dm.DiffValue(v) for v in arrays)
        h = dm.swish(dm.add(dm.matmul(dm.constant(x), a1), a2))
        out = dm.add(dm.matmul(h, a3), a4)
        return float(dm.mse_loss(out, dm.constant(target)).data)

    params = [dm.DiffValue(v.copy()) for v in (w1, b1, w2, b2)]
    h = dm.swish(dm.add(dm.matmul(dm.constant(x), params[0]), params[1]))
    out = dm.add(dm.matmul(h, params[2]), params[3])
    dm.backward(dm.mse_loss(out, dm.constant(target)))

    numeric = dm.numerical_gradient(run, [w1, b1, w2, b2])
    for p, num in zip(params, numeric):
        denom = max(np.abs(num).max(), 1.0)
        assert np.abs(p.grad - num).max() / denom < 1e-4


def test_gather_concat_gradients_numerically():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((5, 3))
    index = np.array([0, 2, 2, 4])
    other = rng.standard_normal((4, 2))

    def run(arrays):
        a, b = dm.DiffValue(arrays[0]), dm.DiffValue(arrays[1])
        joined = dm.concat([dm.gather_rows(a, index), b], axis=1)
        return float(dm.sum_all(dm.mul(joined, joined)).data)

    pa, pb = dm.DiffValue(base.copy()), dm.DiffValue(other.copy())
    joined = dm.concat([dm.gather_rows(pa, index), pb], axis=1)
    dm.backward(dm.sum_all(dm.mul(joined, joined)))
    numeric = dm.numerical_gradient(run, [base, other])
    assert np.abs(pa.grad - numeric[0]).max() < 1e-6
    assert np.abs(pb.grad - numeric[1]).max() < 1e-6


def test_segment_sum_backward_routes_by_segment():
    values = dm.DiffValue(np.ones((4, 2)))
    ids = np.array([0, 1, 0, 2])
    out = dm.segment_sum(values, ids, 3)
    weights = dm.constant(np.array([[1.0, 1.0], [10.0, 10.0], [100.0, 100.0]]))
    dm.backward(dm.sum_all(dm.mul(out, weights)))
    np.testing.assert_array_equal(
        values.grad, [[1, 1], [10, 10], [1, 1], [100, 100]]
    )


def test_slice_rows_blocks_share_the_parent_grad():
    weight = dm.DiffValue(np.arange(12.0).reshape(6, 2))
    top, middle = dm.slice_rows(weight, 0, 2), dm.slice_rows(weight, 2, 5)
    np.testing.assert_array_equal(middle.data, weight.data[2:5])
    dm.backward(dm.add(dm.sum_all(dm.mul(top, top)), dm.sum_all(middle)))
    expected = np.zeros((6, 2))
    expected[0:2] = 2.0 * weight.data[0:2]
    expected[2:5] = 1.0
    np.testing.assert_array_equal(weight.grad, expected)
    with pytest.raises(ShapeMismatch):
        dm.slice_rows(weight, 4, 7)


def test_stable_sigmoid_saturates_exactly_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = dm._stable_sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert dm._stable_sigmoid(1000.0) == 1.0
        assert dm._stable_sigmoid(-1000.0) == 0.0
        swished = dm.swish(dm.DiffValue(np.array([-1000.0, 1000.0])))
    np.testing.assert_array_equal(values, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(swished.data, [-0.0, 1000.0])


# ------------------------------------------------------------------- no tape


def _every_op():
    """One output of each op on small inputs."""
    x = dm.DiffValue(np.arange(6.0).reshape(3, 2) - 2.0)
    w = dm.DiffValue(np.ones((2, 2)))
    labels = dm.constant(np.full((3, 2), 0.5))
    return {
        "matmul": dm.matmul(x, w),
        "add": dm.add(x, x),
        "mul": dm.mul(x, x),
        "concat": dm.concat([x, x], axis=0),
        "slice_rows": dm.slice_rows(x, 1, 3),
        "gather_rows": dm.gather_rows(x, [2, 0]),
        "segment_sum": dm.segment_sum(x, [1, 1, 0], 2),
        "sigmoid": dm.sigmoid(x),
        "swish": dm.swish(x),
        "mean": dm.mean(x),
        "sum_all": dm.sum_all(x),
        "mse_loss": dm.mse_loss(x, labels),
        "binary_cross_entropy_with_logits": dm.binary_cross_entropy_with_logits(x, labels),
    }


def test_no_grad_records_no_tape():
    taped = _every_op()
    with dm.no_grad():
        untaped = _every_op()
    for name, out in untaped.items():
        assert out._parents == () and out._backward is None, name
        assert taped[name]._parents and taped[name]._backward is not None, name
        np.testing.assert_array_equal(out.data, taped[name].data)


def test_no_grad_is_restored_after_an_exception():
    with pytest.raises(ShapeMismatch):
        with dm.no_grad():
            dm.matmul(dm.DiffValue(np.ones((2, 3))), dm.DiffValue(np.ones((2, 3))))
    x = dm.DiffValue(np.ones(2))
    assert dm.add(x, x)._parents == (x, x)
    with dm.no_grad():
        with dm.no_grad():
            pass
        assert dm.add(x, x)._parents == ()
    assert dm.add(x, x)._backward is not None


def test_backward_keeps_leaf_grads_and_drops_the_rest():
    w = dm.DiffValue(np.array([[1.0, -2.0], [0.5, 3.0]]))
    x = dm.constant(np.array([[2.0, 1.0]]))
    hidden = dm.matmul(x, w)
    squared = dm.mul(hidden, hidden)
    loss = dm.sum_all(squared)
    dm.backward(loss)
    # d/dw sum((x w)^2) = x^T (2 x w)
    np.testing.assert_array_equal(w.grad, x.data.T @ (2.0 * (x.data @ w.data)))
    np.testing.assert_array_equal(x.grad, 2.0 * (x.data @ w.data) @ w.data.T)
    assert hidden.grad is None and squared.grad is None and loss.grad is None


def _saved(node, name):
    """The array a node's backward rule keeps under ``name``, e.g. ``sig``."""
    rule = node._backward
    return dict(zip(rule.__code__.co_freevars, (c.cell_contents for c in rule.__closure__)))[name]


def test_backward_frees_each_saved_buffer_once_its_rule_has_run():
    rng = np.random.default_rng(14)
    x, w, b = (dm.DiffValue(rng.standard_normal(shape)) for shape in ((6, 3), (3, 4), (4,)))
    ids = dm.segments([0, 2, 1, 1, 0, 2])
    table = dm.DiffValue(rng.standard_normal((3, 4)))
    hidden = dm.dense(x, w, b, activate=True)
    gate = dm.edge_gate(hidden, dm.DiffValue(rng.standard_normal((4, 4))), table, ids, table, ids)
    loss = dm.sum_all(dm.mul(gate, gate))
    refs = [weakref.ref(array) for array in (hidden.data, _saved(hidden, "sig"),
                                             gate.data, _saved(gate, "sig"))]
    del hidden, gate
    assert all(ref() is not None for ref in refs)  # the loss holds its tape
    dm.backward(loss)
    assert [ref() for ref in refs] == [None] * 4
    assert loss._parents == () and loss.grad is None
    assert all(p.grad is not None for p in (x, w, b, table))


def test_a_released_graph_raises_on_a_second_backward():
    x = dm.DiffValue(np.array([1.0, -2.0]))
    hidden = dm.swish(x)
    loss = dm.sum_all(hidden)
    dm.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ReleasedGraph, match="released"):
        dm.backward(loss)
    # A new loss over a released intermediate would miss x's gradient.
    with pytest.raises(ReleasedGraph):
        dm.backward(dm.sum_all(dm.mul(hidden, hidden)))
    np.testing.assert_array_equal(x.grad, first)
    assert issubclass(ReleasedGraph, FaframeError)


def test_swish_local_gradient_is_written_into_the_nodes_own_gradient():
    # 2 MiB arrays, eight default row blocks: the factor is one block of scratch.
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4096, 64)) * 10.0
    sig = dm._stable_sigmoid(x)
    out = x * sig
    grad = rng.standard_normal(x.shape)
    expected = ((1.0 - sig) * out + sig) * grad
    local, kept, peak = _traced_bytes(lambda: dm._swish_local_grad(sig, out, grad))
    assert local is grad and local.tobytes() == expected.tobytes()
    assert kept <= NODE_OVERHEAD
    assert peak <= dm.ROW_BLOCK_BYTES + NODE_OVERHEAD


# ----------------------------------------------------------------- optimizer


def test_adamw_no_grad_no_decay_is_identity():
    p = dm.DiffValue(np.array([1.0, -2.0]))
    opt = dm.AdamW([p], learning_rate=0.5)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_first_step_is_signed_lr():
    p = dm.DiffValue(np.array([0.0, 0.0]))
    p.accumulate_grad(np.array([0.3, -7.0]))
    opt = dm.AdamW([p], learning_rate=1e-2)
    opt.step()
    # bias-corrected first step is -lr * g / (|g| + eps) ~= -lr * sign(g)
    np.testing.assert_allclose(p.data, [-1e-2, 1e-2], rtol=1e-6)


def test_adamw_matches_scalar_reference():
    # independent recursion of the update rule on f(t) = (t - 2)^2
    theta_ref = 10.0
    m = v = 0.0
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    for t in range(1, 201):
        g = 2.0 * (theta_ref - 2.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    p = scalar(10.0)
    opt = dm.AdamW([p], learning_rate=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = dm.mul(dm.add(p, scalar(-2.0)), dm.add(p, scalar(-2.0)))
        dm.backward(loss)
        opt.step()
    assert float(p.data) == pytest.approx(theta_ref, abs=1e-10)
    assert abs(float(p.data) - 2.0) < 0.05


def test_adamw_weight_decay_shrinks_without_grad():
    p = dm.DiffValue(np.array([4.0]))
    opt = dm.AdamW([p], learning_rate=0.1, weight_decay=0.5)
    opt.step()
    # decay applies directly: p -= lr * wd * p
    assert p.data[0] == pytest.approx(4.0 - 0.1 * 0.5 * 4.0)


def _adamw_reference_step(params, ms, vs, t, lr, b1, b2, eps, wd):
    """The AdamW update written with full-size temporaries."""
    for p, m, v in zip(params, ms, vs):
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p.data)


def test_adamw_in_place_step_is_bitwise_the_temporary_formula():
    rng = np.random.default_rng(30)
    hyper = dict(lr=3e-2, b1=0.8, b2=0.95, eps=1e-6, wd=0.1)
    shapes = [(4, 3), (7,), (), (2, 5)]
    params = [dm.DiffValue(rng.standard_normal(shape)) for shape in shapes]
    reference = [dm.DiffValue(p.data.copy()) for p in params]
    ms = [np.zeros_like(p.data) for p in reference]
    vs = [np.zeros_like(p.data) for p in reference]
    opt = dm.AdamW(params, learning_rate=hyper["lr"], betas=(hyper["b1"], hyper["b2"]),
                   epsilon=hyper["eps"], weight_decay=hyper["wd"])
    for t in range(1, 8):
        for k, (p, r) in enumerate(zip(params, reference)):
            p.zero_grad()
            r.zero_grad()
            if (t + k) % 3:  # every parameter also takes steps without a gradient
                grad = rng.standard_normal(p.data.shape)
                p.accumulate_grad(grad)
                r.accumulate_grad(grad)
        opt.step()
        _adamw_reference_step(reference, ms, vs, t, **hyper)
        for p, r, m, v, m_ref, v_ref in zip(params, reference, opt._m, opt._v, ms, vs):
            assert p.data.tobytes() == r.data.tobytes()
            assert m.tobytes() == m_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()


def test_adamw_in_blocks_is_bitwise_the_whole_array_update(monkeypatch):
    # Seven elements a block: the (5, 6) parameter spans five blocks, the
    # last one short; the (4,) one fits one block, and the 0-d one too.
    monkeypatch.setattr(dm, "ROW_BLOCK_BYTES", 7 * 8)
    rng = np.random.default_rng(32)
    hyper = dict(lr=2e-2, b1=0.85, b2=0.9, eps=1e-7, wd=0.3)
    shapes = [(5, 6), (4,), ()]
    params = [dm.DiffValue(rng.standard_normal(shape)) for shape in shapes]
    reference = [dm.DiffValue(p.data.copy()) for p in params]
    ms = [np.zeros_like(p.data) for p in reference]
    vs = [np.zeros_like(p.data) for p in reference]
    opt = dm.AdamW(params, learning_rate=hyper["lr"], betas=(hyper["b1"], hyper["b2"]),
                   epsilon=hyper["eps"], weight_decay=hyper["wd"])
    assert opt._scratch.shape == (2, 7)
    for t in range(1, 6):
        for k, (p, r) in enumerate(zip(params, reference)):
            p.zero_grad()
            r.zero_grad()
            if (t + k) % 2:  # every parameter also takes steps whose .grad is None
                grad = rng.standard_normal(p.data.shape)
                p.accumulate_grad(grad)
                r.accumulate_grad(grad)
        opt.step()
        _adamw_reference_step(reference, ms, vs, t, **hyper)
        for p, r, m, v, m_ref, v_ref in zip(params, reference, opt._m, opt._v, ms, vs):
            assert p.data.tobytes() == r.data.tobytes()
            assert m.tobytes() == m_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()


def test_adamw_rejects_a_parameter_that_is_not_contiguous():
    # A flat view of a transposed array would be a copy, and the update lost.
    contiguous = dm.DiffValue(np.ones(3))
    strided = dm.DiffValue(np.ones((3, 4)).T)
    for p in (contiguous, strided):
        p.accumulate_grad(np.ones(p.data.shape))
    opt = dm.AdamW([contiguous, strided], learning_rate=0.1)
    with pytest.raises(ShapeMismatch, match="C-contiguous"):
        opt.step()
    assert opt.step_count == 0
    assert (contiguous.data == 1.0).all() and (strided.data == 1.0).all()


def _quadratic_problem(seed):
    """Parameters and a loss builder over them: sum((x @ w + b)^2)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 3))
    params = [dm.DiffValue(rng.standard_normal((3, 4))), dm.DiffValue(rng.standard_normal(4))]

    def build():
        y = dm.add(dm.matmul(x, params[0]), params[1])
        return dm.sum_all(dm.mul(y, y))

    return params, build


def test_adamw_minimize_is_bitwise_zero_grad_backward_step():
    params, build = _quadratic_problem(40)
    reference, build_reference = _quadratic_problem(40)
    opt = dm.AdamW(params, learning_rate=1e-2, weight_decay=0.1)
    ref = dm.AdamW(reference, learning_rate=1e-2, weight_decay=0.1)
    for _ in range(4):
        loss = build()
        value = opt.minimize(loss)
        reference_loss = build_reference()
        ref.zero_grad()
        dm.backward(reference_loss)
        ref.step()
        assert value == float(reference_loss.data)
    assert opt.step_count == ref.step_count == 4
    for p, r, m, m_ref, v, v_ref in zip(params, reference, opt._m, ref._m, opt._v, ref._v):
        assert p.data.tobytes() == r.data.tobytes()
        assert p.grad.tobytes() == r.grad.tobytes()
        assert m.tobytes() == m_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adamw_minimize_rejects_a_non_finite_loss_untouched(bad):
    params, build = _quadratic_problem(41)
    opt = dm.AdamW(params, learning_rate=1e-2, weight_decay=0.1)
    opt.minimize(build())  # moments, step count and gradients are nonzero
    state = [(p.data.copy(), p.grad.copy(), m.copy(), v.copy())
             for p, m, v in zip(params, opt._m, opt._v)]
    with pytest.raises(NonFiniteLoss) as err:
        opt.minimize(dm.mul(build(), scalar(bad)))
    assert str(err.value).startswith("loss evaluated to ")
    assert opt.step_count == 1
    for (data, grad, m, v), p, m_now, v_now in zip(state, params, opt._m, opt._v):
        assert p.data.tobytes() == data.tobytes()
        assert p.grad.tobytes() == grad.tobytes()
        assert m_now.tobytes() == m.tobytes()
        assert v_now.tobytes() == v.tobytes()


@pytest.mark.parametrize("setting, value, message", [
    pytest.param({"learning_rate": float("nan")}, "nan",
                 "learning_rate must be a finite number at least 0", id="nan_learning_rate"),
    pytest.param({"learning_rate": -0.1}, "-0.1", "learning_rate", id="negative_learning_rate"),
    pytest.param({"learning_rate": "abc"}, "'abc'", "learning_rate", id="text_learning_rate"),
    pytest.param({"learning_rate": True}, "True", "learning_rate", id="bool_learning_rate"),
    pytest.param({"betas": (1.0, 0.999)}, "1.0", "betas[0] must be a finite number in [0, 1)",
                 id="beta1_of_one"),
    pytest.param({"betas": (0.9, -0.5)}, "-0.5", "betas[1]", id="negative_beta2"),
    pytest.param({"betas": (0.9, float("inf"))}, "inf", "betas[1]", id="infinite_beta2"),
    pytest.param({"betas": (0.9,)}, "(0.9,)", "betas must be a pair of numbers", id="one_beta"),
    pytest.param({"epsilon": 0.0}, "0.0", "epsilon must be a finite number above 0",
                 id="zero_epsilon"),
    pytest.param({"weight_decay": -1e-3}, "-0.001",
                 "weight_decay must be a finite number at least 0", id="negative_weight_decay"),
    pytest.param({"weight_decay": float("inf")}, "inf", "weight_decay",
                 id="infinite_weight_decay"),
])
def test_adamw_rejects_a_bad_setting_by_name(setting, value, message):
    with pytest.raises(ValueError) as err:
        dm.AdamW([scalar(1.0)], **setting)
    assert str(err.value).startswith(message) and str(err.value).endswith(f"got {value}")


def test_adamw_keeps_its_settings_as_floats():
    opt = dm.AdamW([scalar(1.0)], learning_rate=np.float32(0.5), betas=[0, np.float64(0.5)],
                   epsilon=1, weight_decay=0)
    settings = (opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon, opt.weight_decay)
    assert settings == (0.5, 0.0, 0.5, 1.0, 0.0)
    assert all(type(value) is float for value in settings)


# ------------------------------------------------------------- rotate_rows


def test_rotate_rows_matches_a_loop_forward_and_backward():
    rng = np.random.default_rng(31)
    rows, matrices = rng.standard_normal((6, 3)), rng.standard_normal((6, 3, 3))
    weights = rng.standard_normal((6, 3))
    x = dm.DiffValue(rows.copy())
    out = dm.rotate_rows(x, matrices)
    np.testing.assert_allclose(out.data, [r @ m for r, m in zip(rows, matrices)],
                               rtol=1e-14, atol=1e-14)
    dm.backward(dm.sum_all(dm.mul(out, weights)))
    np.testing.assert_allclose(x.grad, [m @ w for m, w in zip(matrices, weights)],
                               rtol=1e-14, atol=1e-14)

    def loss(arrays):
        return float(np.sum(np.einsum("ni,nij->nj", arrays[0], matrices) * weights))

    numeric, = dm.numerical_gradient(loss, [rows.copy()])
    np.testing.assert_allclose(x.grad, numeric, rtol=1e-8, atol=1e-9)


def test_rotate_rows_rejects_mismatched_matrices():
    with pytest.raises(ShapeMismatch, match="rotate_rows"):
        dm.rotate_rows(np.zeros((4, 3)), np.zeros((3, 3, 3)))
    with pytest.raises(ShapeMismatch, match="rotate_rows"):
        dm.rotate_rows(np.zeros((4, 3)), np.zeros((4, 3)))


# -------------------------------------------------------------- persistence


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    params = {
        "w": dm.DiffValue(rng.standard_normal((3, 2))),
        "b": dm.DiffValue(rng.standard_normal(2)),
    }
    path = tmp_path / "model.json"
    dm.save_checkpoint(params, path)
    loaded = dm.load_checkpoint(path)
    assert set(loaded) == {"w", "b"}
    np.testing.assert_array_equal(loaded["w"], params["w"].data)
    np.testing.assert_array_equal(loaded["b"], params["b"].data)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 999, "params": []}')
    with pytest.raises(ValueError):
        dm.load_checkpoint(path)


_ENTRY = '{"name": "w", "shape": [2], "values": [1.0, 2.0]}'

BAD_CHECKPOINTS = {
    "not_json": ('{"format_version": 1, "params": [', "not JSON"),
    "top_level_list": ("[1, 2]", "JSON object, got list"),
    "no_params": ('{"format_version": 1}', "list of params"),
    "no_name": ('{"format_version": 1, "params": [{"shape": [1], "values": [1.0]}]}',
                "needs a name"),
    "no_shape": ('{"format_version": 1, "params": [{"name": "w", "values": [1.0]}]}',
                 "needs a name, a shape"),
    "no_values": ('{"format_version": 1, "params": [{"name": "w", "shape": [1]}]}',
                  "and values"),
    "count_mismatch": ('{"format_version": 1, "params": '
                       '[{"name": "w", "shape": [2, 2], "values": [1.0, 2.0, 3.0]}]}',
                       r"holds 3 values for shape \(2, 2\)"),
    "non_numeric": ('{"format_version": 1, "params": '
                    '[{"name": "w", "shape": [2], "values": [1.0, "x"]}]}',
                    "not a flat list of numbers"),
    "nested_values": ('{"format_version": 1, "params": '
                      '[{"name": "w", "shape": [2], "values": [[1.0], 2.0]}]}',
                      "not a flat list of numbers"),
    "bad_shape": ('{"format_version": 1, "params": '
                  '[{"name": "w", "shape": [-2], "values": []}]}', "not a list of sizes"),
    "duplicate_name": (f'{{"format_version": 1, "params": [{_ENTRY}, {_ENTRY}]}}',
                       "'w' twice"),
    "nan_value": ('{"format_version": 1, "params": '
                  '[{"name": "w", "shape": [2], "values": [1.0, NaN]}]}', "not finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_checkpoint_rejects_a_bad_manifest_as_a_checkpoint_error(case, tmp_path):
    text, message = BAD_CHECKPOINTS[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(CheckpointError, match=message) as err:
        dm.load_checkpoint(path)
    assert isinstance(err.value, FaframeError)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = {"w": dm.DiffValue(np.linspace(0, 1, 6).reshape(2, 3))}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dm.save_checkpoint(params, p1)
    dm.save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_glorot_bounds_and_determinism():
    limit = np.sqrt(6.0 / (20 + 30))
    a = dm.glorot_uniform(np.random.default_rng(7), 20, 30)
    b = dm.glorot_uniform(np.random.default_rng(7), 20, 30)
    assert a.shape == (20, 30)
    assert np.abs(a).max() <= limit
    np.testing.assert_array_equal(a, b)
