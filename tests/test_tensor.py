import gc
import weakref

import numpy as np
import pytest

from cafbifpn import tensor as T
from cafbifpn.attention import (RoutingResult, make_bra_params, merge_lce, region_qkv,
                                token_attention)
from cafbifpn.convops import Conv2dParams, conv2d, deformable_conv2d_with_offsets
from cafbifpn.errors import GraphError, NumericError, ShapeError
from cafbifpn.pipeline import fuse

from conftest import arr


def test_tensor_basics():
    t = T.tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.dims == (2, 2)
    assert t.dtype == "float64"
    assert t.size == 4
    assert T.tensor(5.0).dims == (1,)


def test_zeros_full_from_flat():
    assert arr(T.zeros([2, 3])).sum() == 0.0
    assert np.all(arr(T.full([4], 2.5)) == 2.5)


def test_no_copy_tensor_of_non_contiguous_array():
    a = np.arange(6.0).reshape(2, 3).T
    t = T.Tensor(a, copy=False)
    assert t.dims == (3, 2)
    assert t.array.flags.c_contiguous
    assert np.array_equal(t.array, a)
    b = np.arange(6.0).reshape(2, 3)
    assert np.shares_memory(T.Tensor(b, copy=False).array, b)


def test_float32_dtype():
    t = T.tensor([1.0, 2.0], dtype="float32")
    assert t.dtype == "float32"
    assert t.astype("float64").dtype == "float64"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_rng_floats_equal_stepwise_draws(n, seed):
    stepwise = T.Rng(seed)
    want = [stepwise.next_float() for _ in range(n)]
    vectorised = T.Rng(seed)
    got = vectorised.floats(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == want
    assert vectorised.state == stepwise.state
    if n:
        lo, hi = -0.3, 0.7
        assert arr(T.Rng(seed).tensor([n], lo, hi)).tolist() == [lo + (hi - lo) * u for u in want]
        # -1 + 2u and 2u - 1 are the same IEEE sum: the fixture's values
        assert arr(T.Rng(seed).tensor([n], -1.0, 1.0)).tolist() == [2.0 * u - 1.0 for u in want]


def _narrow(*dims):
    return T.Rng(5).tensor(list(dims), -1.0, 1.0).astype("float32")


_CONV = Conv2dParams(weights=T.Rng(6).tensor([3, 2, 3, 3], -1.0, 1.0), bias=T.zeros([3]), padding=1)


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: T.add(T.zeros([2]), _narrow(2)), id="add"),
    pytest.param(lambda: T.mul(_narrow(2), T.zeros([2])), id="mul"),
    pytest.param(lambda: T.sum_all(_narrow(2)), id="sum_all"),
    pytest.param(lambda: conv2d(_narrow(2, 4, 4), Conv2dParams(
        weights=_CONV.weights.astype("float32"), bias=_CONV.bias, padding=1)), id="conv2d"),
    pytest.param(lambda: deformable_conv2d_with_offsets(T.zeros([2, 4, 4]), _CONV, _narrow(18, 4, 4)),
                 id="deformable"),
    pytest.param(lambda: region_qkv(_narrow(2, 4, 4), make_bra_params(T.Rng(7), 2, 2, 2)),
                 id="region_qkv"),
    pytest.param(lambda: token_attention(_narrow(4, 4, 6), RoutingResult(None, np.zeros((4, 1))), 1),
                 id="token_attention"),
    pytest.param(lambda: merge_lce(T.zeros([4, 4, 2]), T.zeros([4, 4, 6]), _narrow(2, 3, 3), 4, 4),
                 id="merge_lce"),
    pytest.param(lambda: fuse([T.zeros([2, 2]), _narrow(2, 2)], [1.0, 1.0], 1e-4), id="fuse-input"),
    pytest.param(lambda: fuse([T.zeros([2, 2])] * 2, [1.0, _narrow(1)], 1e-4), id="fuse-weight"),
])
def test_every_kernel_refuses_a_float32_operand(kernel):
    """float32 is a storage dtype: every kernel reads its operands as
    float64 or raises, even when all of them are float32.  Tape leaves are
    test_leaf_rejects_float32's."""
    with pytest.raises(NumericError, match="float64-only"):
        kernel()


def test_mul_rejects_mismatched_dims():
    with pytest.raises(ShapeError):
        T.mul(T.zeros([2]), T.zeros([3]))
    with pytest.raises(ShapeError):  # a dims-(1,) operand is not broadcast
        T.mul(T.zeros([1]), T.zeros([2, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_rejects_each_non_finite_value(bad):
    rows = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    rows[1, 2] = bad
    with pytest.raises(NumericError, match="softmax input contains non-finite values"):
        T.softmax_inplace(rows.copy())


def test_sum_all_is_scalar():
    s = T.sum_all(T.tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert arr(s).shape == (1,)
    assert arr(s)[0] == 10.0


def test_gradient_accumulates_over_reuse():
    x0 = T.tensor([2.0, 3.0])
    tape = T.Tape()
    leaf = tape.leaf(x0)
    loss = T.sum_all(T.add(T.mul(leaf, leaf), leaf))  # d/dx (x^2 + x) = 2x + 1
    g = arr(tape.backward(loss, T.tensor([1.0]))[leaf])
    assert np.allclose(g, [5.0, 7.0], atol=1e-12)


def test_backward_returns_only_reached_leaves():
    tape = T.Tape()
    a = tape.leaf(T.tensor([2.0, 3.0]))
    b = tape.leaf(T.tensor([5.0, 7.0]))
    unused = tape.leaf(T.tensor([1.0]))
    prod = T.mul(a, b)
    out = T.sum_all(T.add(prod, a))
    grads = tape.backward(out, T.tensor([1.0]))
    assert set(grads) == {a, b}  # neither prod, out nor the unreached leaf
    assert unused not in grads
    assert np.array_equal(arr(grads[a]), [6.0, 8.0])
    assert np.array_equal(arr(grads[b]), [2.0, 3.0])


def test_leaf_rejects_float32():
    tape = T.Tape()
    with pytest.raises(NumericError):
        tape.leaf(T.tensor([1.0], dtype="float32"))


def test_backward_rejects_foreign_node():
    tape_a = T.Tape()
    tape_b = T.Tape()
    leaf_a = tape_a.leaf(T.tensor([1.0]))
    out_a = T.sum_all(leaf_a)
    with pytest.raises(GraphError):
        tape_b.backward(out_a, T.tensor([1.0]))


def test_dropped_tape_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        tape = T.Tape()
        leaf = tape.leaf(T.tensor([1.0, 2.0]))
        out = T.sum_all(T.mul(leaf, leaf))
        tape.backward(out, T.tensor([1.0]))
        ref = weakref.ref(tape)
        del tape, leaf, out
        assert ref() is None
    finally:
        gc.enable()


def test_node_outliving_its_tape_is_rejected():
    tape = T.Tape()
    leaf = tape.leaf(T.tensor([1.0, 2.0]))
    del tape
    assert leaf.dims == (2,)
    with pytest.raises(GraphError):
        T.sum_all(leaf)
