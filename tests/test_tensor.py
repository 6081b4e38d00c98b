import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafbifpn import tensor as T
from cafbifpn.errors import GraphError, NumericError, ShapeError

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
        assert arr(T.Rng(seed).symmetric_unit([n])).tolist() == [2.0 * u - 1.0 for u in want]


def test_rng_randint_range():
    rng = T.Rng(12)
    draws = [rng.randint(7) for _ in range(200)]
    assert min(draws) >= 0 and max(draws) < 7
    assert len(set(draws)) == 7


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_reshape_roundtrip(dims, seed):
    x = T.Rng(seed).tensor(dims, -2.0, 2.0)
    flat = T.reshape(x, [int(np.prod(dims))])
    back = T.reshape(flat, dims)
    assert np.array_equal(arr(back), arr(x))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(T.zeros([2, 3]), T.zeros([4, 2]))


def test_reduce_mean_values():
    c = T.tensor([[1.0, 2.0], [3.0, 4.0]])
    assert arr(T.reduce_mean_axis(c, 1)).tolist() == [1.5, 3.5]
    assert arr(T.reduce_mean_axis(c, 0)).tolist() == [2.0, 3.0]


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
